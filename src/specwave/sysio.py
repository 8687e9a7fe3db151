"""Declarative text format for system definitions.

Line-oriented, whitespace-separated; '#' starts a comment.  Matrix and
predicate entries are monomial lists (exponent tuple in parentheses, then
the coefficient); indices are 1-based.  Example::

    name my-system
    dim 1
    size 2
    A 1 1 1 (0 1) 1.0      # A_1 entry (1,1) += 1.0 * U2
    A 1 1 2 (0 0) 1.0 (1 0) 1.0
    A 1 2 1 (0 0) 1.0
    A 1 2 2 (0 1) 1.0
    S 1 1 (0 0) 1.0
    S 2 2 (0 0) 1.0 (1 0) 1.0
    SJ0 1 0 1 1 0          # constant factor matrix, n*n row-major entries
    pred U (0 0) 1.0 (1 0) 1.0
"""

from __future__ import annotations

import math
import re

import numpy as np

from .poly import Poly, PolyMatrix
from .systems import SystemDef

__all__ = ["parse_system", "parse_system_text", "SystemFormatError"]


class SystemFormatError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")


def _tokenize_monomials(tokens: list[str], nvars: int, line_no: int) -> list[tuple[tuple[int, ...], float]]:
    """Parse '( e1 .. en ) coeff' groups from a flat token list."""
    text = " ".join(tokens)
    groups = re.findall(r"\(([^)]*)\)\s*(\S+)", text)
    consumed = re.sub(r"\(([^)]*)\)\s*(\S+)", "", text).strip()
    if consumed:
        raise SystemFormatError(line_no, f"unexpected tokens {consumed!r} in monomial list")
    if not groups:
        raise SystemFormatError(line_no, "expected at least one '(exponents) coeff' group")
    out = []
    for expo_text, coeff_text in groups:
        expo = expo_text.split()
        if len(expo) != nvars:
            raise SystemFormatError(line_no, f"exponent tuple ({expo_text}) must have {nvars} entries")
        try:
            expo_t = tuple(int(e) for e in expo)
        except ValueError:
            raise SystemFormatError(line_no, f"non-integer exponent in ({expo_text})") from None
        if any(e < 0 for e in expo_t):
            raise SystemFormatError(line_no, f"negative exponent in ({expo_text})")
        out.append((expo_t, _parse_float(coeff_text, line_no, "coefficient")))
    return out


def parse_system_text(text: str) -> SystemDef:
    name = None
    d = None
    n = None
    a_terms: dict[int, dict[tuple[int, int], list]] = {}
    s_terms: dict[tuple[int, int], list] = {}
    sj0: dict[int, np.ndarray] = {}
    preds: list[tuple[str, Poly]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key = tokens[0]
        if key == "name":
            if len(tokens) != 2:
                raise SystemFormatError(line_no, "name takes exactly one value")
            name = tokens[1]
        elif key == "dim":
            d = _parse_int(tokens, line_no, "dim")
        elif key == "size":
            n = _parse_int(tokens, line_no, "size")
        elif key == "A":
            _require_header(d, n, line_no)
            if len(tokens) < 5:
                raise SystemFormatError(line_no, "A needs direction, row, col and monomials")
            j, row, col = (_to_index(t, line_no) for t in tokens[1:4])
            if not 1 <= j <= d:
                raise SystemFormatError(line_no, f"direction {j} out of range 1..{d}")
            if not (1 <= row <= n and 1 <= col <= n):
                raise SystemFormatError(line_no, f"entry ({row},{col}) out of range 1..{n}")
            terms = _tokenize_monomials(tokens[4:], n, line_no)
            a_terms.setdefault(j, {}).setdefault((row, col), []).extend(terms)
        elif key == "S":
            _require_header(d, n, line_no)
            if len(tokens) < 4:
                raise SystemFormatError(line_no, "S needs row, col and monomials")
            row, col = (_to_index(t, line_no) for t in tokens[1:3])
            if not (1 <= row <= n and 1 <= col <= n):
                raise SystemFormatError(line_no, f"entry ({row},{col}) out of range 1..{n}")
            s_terms.setdefault((row, col), []).extend(_tokenize_monomials(tokens[3:], n, line_no))
        elif key == "SJ0":
            _require_header(d, n, line_no)
            if len(tokens) < 2:
                raise SystemFormatError(line_no, "SJ0 needs a direction and its entries")
            j = _to_index(tokens[1], line_no)
            if not 1 <= j <= d:
                raise SystemFormatError(line_no, f"direction {j} out of range 1..{d}")
            vals = tokens[2:]
            if len(vals) != n * n:
                raise SystemFormatError(line_no, f"SJ0 needs {n * n} entries, got {len(vals)}")
            sj0[j] = np.array([_parse_float(v, line_no, "SJ0 entry") for v in vals]).reshape(n, n)
        elif key == "pred":
            _require_header(d, n, line_no)
            if len(tokens) < 3:
                raise SystemFormatError(line_no, "pred needs a name and monomials")
            preds.append((tokens[1], Poly.from_terms(n, _tokenize_monomials(tokens[2:], n, line_no))))
        else:
            raise SystemFormatError(line_no, f"unknown directive {key!r}")

    if name is None or d is None or n is None:
        raise SystemFormatError(0, "missing required header (name, dim, size)")
    if sorted(a_terms) != list(range(1, d + 1)):
        raise SystemFormatError(0, f"coefficient matrices must cover directions 1..{d}")

    def build_matrix(terms: dict[tuple[int, int], list]) -> PolyMatrix:
        rows = []
        for i in range(1, n + 1):
            rows.append([Poly.from_terms(n, terms.get((i, j2), [])) for j2 in range(1, n + 1)])
        return PolyMatrix.build(n, rows)

    A = tuple(build_matrix(a_terms[j]) for j in range(1, d + 1))
    S = build_matrix(s_terms) if s_terms else None
    sj0_tuple = None
    if sj0:
        if sorted(sj0) != list(range(1, d + 1)):
            raise SystemFormatError(0, f"SJ0 must cover directions 1..{d} when present")
        sj0_tuple = tuple(sj0[j] for j in range(1, d + 1))
    return SystemDef(name=name, d=d, n=n, A=A, S=S, SJ0=sj0_tuple, predicates=tuple(preds))


def parse_system(path: str) -> SystemDef:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system_text(fh.read())


def _parse_int(tokens: list[str], line_no: int, what: str) -> int:
    if len(tokens) != 2:
        raise SystemFormatError(line_no, f"{what} takes exactly one value")
    value = _to_index(tokens[1], line_no)
    if value < 1:
        raise SystemFormatError(line_no, f"{what} must be a positive integer, got {value}")
    return value


def _parse_float(token: str, line_no: int, what: str) -> float:
    # a non-finite value would vanish from the coefficient comparisons: inf - inf
    # is NaN, and a NaN coefficient is dropped like a zero one
    try:
        value = float(token)
    except ValueError:
        raise SystemFormatError(line_no, f"bad {what} {token!r}") from None
    if not math.isfinite(value):
        raise SystemFormatError(line_no, f"non-finite {what} {token!r}")
    return value


def _to_index(token: str, line_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise SystemFormatError(line_no, f"expected an integer, got {token!r}") from None


def _require_header(d, n, line_no: int) -> None:
    if d is None or n is None:
        raise SystemFormatError(line_no, "dim and size must come before matrix entries")
