"""System definition text format: round-trips and parse errors."""

import numpy as np
import pytest

from specwave.systems import check_factorization
from specwave.sysio import SystemFormatError, parse_system, parse_system_text

from oracles import (
    matrix_at,
    poly_equals,
    saint_venant_1d,
    saint_venant_2d_hamiltonian,
    saint_venant_2d_standard,
    serialize_system,
)


@pytest.mark.parametrize(
    "factory",
    [saint_venant_1d, saint_venant_2d_standard, saint_venant_2d_hamiltonian],
)
def test_roundtrip_builtins(factory):
    original = factory()
    parsed = parse_system_text(serialize_system(original))
    assert parsed.name == original.name
    assert parsed.d == original.d and parsed.n == original.n
    for a, b in zip(parsed.A, original.A):
        assert a.equals(b)
    assert parsed.S.equals(original.S)
    if original.SJ0 is None:
        assert parsed.SJ0 is None
    else:
        for a, b in zip(parsed.SJ0, original.SJ0):
            assert np.array_equal(a, b)
    assert [n for n, _ in parsed.predicates] == [n for n, _ in original.predicates]
    for (_, pa), (_, pb) in zip(parsed.predicates, original.predicates):
        assert poly_equals(pa, pb)


def test_roundtrip_preserves_factorization():
    text = serialize_system(saint_venant_2d_hamiltonian())
    assert check_factorization(parse_system_text(text)) == []


def test_parse_from_file(tmp_path):
    path = tmp_path / "system.txt"
    path.write_text(serialize_system(saint_venant_1d()))
    assert parse_system(str(path)).name == "saint-venant-1d"


def test_comments_and_blank_lines():
    text = """
# a comment
name tiny
dim 1
size 1

A 1 1 1 (1) 2.0  # trailing comment
"""
    sysd = parse_system_text(text)
    assert matrix_at(sysd.A[0], [3.0])[0, 0] == 6.0


def test_error_reports_line_number():
    text = "name x\ndim 1\nsize 2\nA 1 1 1 (0) 1.0\n"
    with pytest.raises(SystemFormatError, match="line 4"):
        parse_system_text(text)  # exponent arity mismatch


def test_missing_header():
    with pytest.raises(SystemFormatError, match="name"):
        parse_system_text("dim 1\nsize 2\nA 1 1 1 (0 0) 1.0\n")


def test_unknown_directive():
    with pytest.raises(SystemFormatError, match="unknown directive"):
        parse_system_text("name x\ndim 1\nsize 1\nB 1 1 1 (0) 1.0\n")


def test_out_of_range_entry():
    with pytest.raises(SystemFormatError, match="out of range"):
        parse_system_text("name x\ndim 1\nsize 1\nA 1 2 1 (0) 1.0\n")


def test_missing_direction():
    with pytest.raises(SystemFormatError, match="directions"):
        parse_system_text("name x\ndim 2\nsize 1\nA 1 1 1 (0) 1.0\n")


def test_bad_coefficient():
    with pytest.raises(SystemFormatError, match="coefficient"):
        parse_system_text("name x\ndim 1\nsize 1\nA 1 1 1 (0) abc\n")


def test_sj0_entry_count():
    with pytest.raises(SystemFormatError, match="entries"):
        parse_system_text("name x\ndim 1\nsize 2\nA 1 1 1 (0 0) 1.0\nSJ0 1 1 0\n")


SV1D_HEADER = "name x\ndim 1\nsize 2\nA 1 1 1 (0 1) 1.0\n"


@pytest.mark.parametrize(
    "line, message",
    [
        ("SJ0", "SJ0 needs a direction"),
        ("SJ0 2 0 1 1 0", "direction 2 out of range"),
        ("SJ0 1 0 nan 1 0", "non-finite SJ0 entry"),
        ("SJ0 1 0 x 1 0", "bad SJ0 entry"),
        ("A 1 1 2 (0 1) nan", "non-finite coefficient"),
        ("S 1 1 (0 0) inf", "non-finite coefficient"),
        ("S 1 1 (0 0) 1.0 (1 0) -inf", "non-finite coefficient"),
        ("pred U (0 0) NaN", "non-finite coefficient"),
        ("A 1 1 2 (-1 0) 1.0", "negative exponent"),
    ],
)
def test_bad_entry_names_its_line(line, message):
    with pytest.raises(SystemFormatError, match=f"^line 5: {message}"):
        parse_system_text(SV1D_HEADER + line + "\n")


@pytest.mark.parametrize("text", ["name x\ndim 0\n", "name x\ndim 1\nsize 0\n", "name x\nsize -1\n"])
def test_nonpositive_dimensions_rejected(text):
    line_no = len(text.splitlines())
    with pytest.raises(SystemFormatError, match=f"^line {line_no}: .* must be a positive integer"):
        parse_system_text(text)
