"""Command-line interface: subcommands, artifacts, determinism, exit codes."""

import argparse
import json
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

import specwave
from specwave.cli import _build_config, _parser, main, parse_config_text
from specwave.presets import CONFIG_KEYS, get_preset, preset_names
from specwave.spectral import StateField
from specwave.sysio import serialize_system
from specwave.systems import saint_venant_1d

from oracles import count_transforms

FLAG_SUBCOMMANDS = ("run", "converge", "probe-jn")


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(
        [
            "run",
            "--system", "saint-venant-1d",
            "--scheme", "sharp",
            "--initial", "init1",
            "--M", "32",
            "--dt", "1e-3",
            "--T", "0.01",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


class TestRun:
    def test_monitor_schema(self, run_dir):
        lines = read(run_dir / "sharp" / "monitors.csv").splitlines()
        assert lines[0] == "time,Hs0,Hs1,margin_U,margin_UH,hamiltonian,max_d2u"
        assert float(lines[1].split(",")[0]) == 0.0

    def test_spectrum_schema(self, run_dir):
        lines = read(run_dir / "sharp" / "spectrum.csv").splitlines()
        assert lines[0] == "k,c0_re,c0_im,c1_re,c1_im"
        ks = [int(line.split(",")[0]) for line in lines[1:]]
        assert ks == sorted(ks)
        assert max(abs(k) for k in ks) <= 21  # retained band of 2M=64

    def test_snapshot_schema(self, run_dir):
        lines = read(run_dir / "sharp" / "snapshots.csv").splitlines()
        assert lines[0] == "time,x,comp0,comp1,d2_comp1"
        times = {line.split(",")[0] for line in lines[1:]}
        assert len(times) == 2

    def test_summary(self, run_dir):
        lines = read(run_dir / "summary.csv").splitlines()
        assert lines[0] == "scheme,status,blowup_time,Hs0,Hs1,max_d2u"
        assert lines[1].startswith("sharp,completed,")

    def test_csv_numbers_are_plain(self, run_dir, tmp_path):
        # numpy 2 scalars repr as np.float64(x); the CSVs hold plain digits
        code = main(
            ["run", "--system", "saint-venant-2d-hamiltonian", "--scheme", "smooth-nl",
             "--initial", "init2D", "--M", "8", "--dt", "1e-3", "--T", "0.002",
             "--out", str(tmp_path)]
        )
        assert code == 0
        csvs = [
            os.path.join(dirpath, name)
            for root in (run_dir, tmp_path)
            for dirpath, _, names in os.walk(root)
            for name in names
            if name.endswith(".csv")
        ]
        assert len(csvs) == 8
        for path in csvs:
            assert "np." not in read(path), path

    def test_inverse_transforms_per_run(self, tmp_path, monkeypatch):
        # Each evolve: 4 rhs per step, each but the first inverse-transforming
        # the n = 2 components of U (flux path; the first reads the samples
        # of the state sampled at the end of the previous step), and per
        # monitor sample one of the state (n) plus one for max_d2u.
        # Outside evolve: the projected initial state and its curvature once
        # per run, and the curvature of each final state once.
        counts = count_transforms(monkeypatch, 32)  # 2M = 32
        code = main(
            ["run", "--system", "saint-venant-1d", "--scheme", "sharp smooth-all smooth-nl",
             "--initial", "init1", "--M", "16", "--dt", "1e-3", "--T", "0.002",
             "--out", str(tmp_path)]
        )
        assert code == 0
        n, steps, samples, schemes = 2, 2, 3, 3
        per_evolve = steps * 3 * n + samples * (n + 1)
        assert counts["inverse"] == schemes * (per_evolve + 1) + (n + 1)

    def test_unknown_initial_exits_nonzero(self, tmp_path, capsys):
        code = main(
            ["run", "--system", "saint-venant-1d", "--initial", "nope",
             "--M", "16", "--T", "0.001", "--out", str(tmp_path)]
        )
        assert code == 1
        assert "catalog" in capsys.readouterr().err

    def test_missing_M_is_config_error(self, tmp_path):
        code = main(["run", "--system", "saint-venant-1d", "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("stride", ["0", "-2"])
    def test_nonpositive_monitor_stride_is_input_error(self, tmp_path, capsys, stride):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "system = saint-venant-1d\nscheme = sharp\ninitial = init1\n"
            f"M = 16\ndt = 1e-3\nT = 0.002\nmonitor_stride = {stride}\n"
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "monitor_stride" in err

    @pytest.mark.parametrize("flag, value", [("--T", "inf"), ("--dt", "nan")])
    def test_nonfinite_time_is_input_error(self, tmp_path, capsys, flag, value):
        code = main(
            ["run", "--system", "saint-venant-1d", "--initial", "init1", "--M", "16",
             "--dt", "1e-3", "--T", "0.002", flag, value, "--out", str(tmp_path)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag[2:] in err

    def test_nan_blowup_threshold_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "system = saint-venant-1d\nscheme = sharp\ninitial = init1\n"
            "M = 16\ndt = 1e-3\nT = 0.002\nblowup_threshold = nan\n"
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "blowup_threshold" in err
        assert not (tmp_path / "out").exists()

    def test_repeated_scheme_is_input_error(self, tmp_path, capsys):
        # each scheme writes out/<scheme>: a repeat would write one directory twice
        code = main(
            ["run", "--system", "saint-venant-1d", "--initial", "init1", "--M", "16",
             "--dt", "1e-3", "--T", "0.002", "--scheme", "sharp smooth-nl sharp",
             "--out", str(tmp_path / "out")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "scheme repeats sharp" in err
        assert not (tmp_path / "out").exists()

    def test_empty_scheme_is_input_error(self, tmp_path, capsys):
        # no scheme would leave a summary.csv with only its header
        code = main(
            ["run", "--system", "saint-venant-1d", "--initial", "init1", "--M", "16",
             "--dt", "1e-3", "--T", "0.002", "--scheme", "", "--out", str(tmp_path / "out")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "scheme is empty" in err
        assert not (tmp_path / "out").exists()

    def test_step_count_beyond_index_range_is_input_error(self, tmp_path, capsys):
        # 1e299 steps: more than any step counter holds
        code = main(
            ["run", "--system", "saint-venant-1d", "--initial", "init1", "--M", "16",
             "--dt", "1e-300", "--T", "0.1", "--out", str(tmp_path / "out")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "T/dt" in err
        assert not (tmp_path / "out").exists()

    def test_blowup_snapshot_is_labelled_with_its_time(self, tmp_path):
        # the final snapshot holds the state the detector stopped at, not one at T
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "system = saint-venant-1d\nscheme = sharp\ninitial = init_zero_depth\n"
            "M = 64\ndt = 1e-3\nT = 2\nblowup_threshold = 1.05\n"
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        summary = read(tmp_path / "out" / "summary.csv").splitlines()[1].split(",")
        assert summary[:2] == ["sharp", "blowup"]
        snapshots = read(tmp_path / "out" / "sharp" / "snapshots.csv").splitlines()[1:]
        snapshot_times = [line.split(",")[0] for line in snapshots]
        assert set(snapshot_times) == {"0.0", summary[2]}
        assert snapshot_times[-1] == summary[2] != "2.0"

    def test_deterministic_bytes(self, tmp_path):
        args = [
            "run", "--system", "saint-venant-1d", "--scheme", "smooth-nl",
            "--initial", "init2", "--M", "32", "--dt", "1e-3", "--T", "0.005",
        ]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        for rel in ["smooth-nl/monitors.csv", "smooth-nl/spectrum.csv",
                    "smooth-nl/snapshots.csv", "summary.csv"]:
            assert read(tmp_path / "a" / rel) == read(tmp_path / "b" / rel)

    def test_multi_scheme_run(self, tmp_path):
        code = main(
            ["run", "--system", "saint-venant-1d", "--scheme", "sharp smooth-nl",
             "--initial", "init_zero_depth", "--M", "32", "--dt", "1e-3",
             "--T", "0.005", "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "sharp" / "monitors.csv").exists()
        assert (tmp_path / "smooth-nl" / "monitors.csv").exists()
        lines = read(tmp_path / "summary.csv").splitlines()
        assert len(lines) == 3


class TestConverge:
    def test_small_study(self, tmp_path):
        code = main(
            ["converge", "--system", "saint-venant-1d", "--initial", "init1",
             "--scheme", "sharp", "--M-list", "8 16", "--M-ref", "64",
             "--dt", "1e-3", "--T", "0.01", "--out", str(tmp_path)]
        )
        assert code == 0
        lines = read(tmp_path / "report.csv").splitlines()
        assert lines[0] == "two_M,scheme,E0,E1,EOC0,EOC1,status"
        assert len(lines) == 3
        assert (tmp_path / "report.txt").exists()

    def test_single_resolution_no_eoc(self, tmp_path):
        code = main(
            ["converge", "--system", "saint-venant-1d", "--initial", "init1",
             "--scheme", "sharp", "--M-list", "16", "--M-ref", "64",
             "--dt", "1e-3", "--T", "0.01", "--out", str(tmp_path)]
        )
        assert code == 0
        row = read(tmp_path / "report.csv").splitlines()[1].split(",")
        assert row[4] == "" and row[5] == ""  # EOC columns empty

    def test_reference_blowup_is_recorded(self, tmp_path):
        # dt=0.5 on zero-depth data: the 2M=64 reference blows up at t=1
        code = main(
            ["converge", "--system", "saint-venant-1d", "--initial", "init_zero_depth",
             "--scheme", "sharp smooth-nl", "--M-list", "16", "--M-ref", "32",
             "--dt", "0.5", "--T", "5", "--out", str(tmp_path)]
        )
        assert code == 0
        lines = read(tmp_path / "report.csv").splitlines()
        assert lines[1:] == ["32,sharp,,,,,reference-blowup", "32,smooth-nl,,,,,reference-blowup"]
        assert "reference run blew up at t=1.0" in read(tmp_path / "report.txt")

    @pytest.mark.parametrize("flag, value", [("--T", "inf"), ("--dt", "nan")])
    def test_nonfinite_time_is_input_error(self, tmp_path, capsys, flag, value):
        code = main(
            ["converge", "--system", "saint-venant-1d", "--initial", "init1",
             "--M-list", "8", "--M-ref", "16", "--dt", "1e-3", "--T", "0.01",
             flag, value, "--out", str(tmp_path)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag[2:] in err

    def test_requires_m_list(self, tmp_path):
        code = main(
            ["converge", "--system", "saint-venant-1d", "--out", str(tmp_path)]
        )
        assert code == 1

    def test_blowup_threshold_applies_to_every_run(self, tmp_path, capsys):
        # growth past half the initial max-norm counts as blow-up at the first check
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "system = saint-venant-1d\nscheme = sharp smooth-nl\ninitial = init1\n"
            "M = 16\nM_list = 8 16\nM_ref = 32\ndt = 1e-3\nT = 0.002\n"
            "blowup_threshold = 0.5\n"
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        assert "sharp: blowup at t=0.001" in capsys.readouterr().out
        assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "conv")]) == 0
        rows = read(tmp_path / "conv" / "report.csv").splitlines()[1:]
        assert len(rows) == 4
        assert all(row.endswith(",reference-blowup") for row in rows)

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_nonpositive_jobs_is_input_error(self, tmp_path, capsys, jobs):
        code = main(
            ["converge", "--system", "saint-venant-1d", "--initial", "init1",
             "--M-list", "8", "--M-ref", "16", "--dt", "1e-3", "--T", "0.002",
             "--jobs", jobs, "--out", str(tmp_path / "out")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "jobs" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_s_norms_is_input_error(self, tmp_path, capsys, value):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "system = saint-venant-1d\ninitial = init1\nM_list = 8 16\nM_ref = 32\n"
            f"dt = 1e-3\nT = 0.002\ns_norms = 0 {value}\n"
        )
        assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "s_norms" in err
        assert not (tmp_path / "out").exists()

    def test_empty_s_norms_is_input_error(self, tmp_path, capsys):
        # no norm would leave a report with no error columns
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "system = saint-venant-1d\ninitial = init1\nM_list = 8 16\nM_ref = 32\n"
            "dt = 1e-3\nT = 0.002\ns_norms =\n"
        )
        assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "s_norms is empty" in err
        assert not (tmp_path / "out").exists()

    def test_repeated_resolution_is_input_error(self, tmp_path, capsys):
        # a repeated M would pair a run with itself for its EOC
        code = main(
            ["converge", "--system", "saint-venant-1d", "--initial", "init1",
             "--M-list", "16 8 16", "--M-ref", "32", "--dt", "1e-3", "--T", "0.002",
             "--out", str(tmp_path / "out")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "M_list repeats 16" in err
        assert not (tmp_path / "out").exists()


class TestCheckSystem:
    def test_builtins_pass(self, capsys):
        for name in ("saint-venant-1d", "saint-venant-2d-standard",
                     "saint-venant-2d-hamiltonian"):
            assert main(["check-system", name]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_factorization_skipped_for_standard(self, capsys):
        main(["check-system", "saint-venant-2d-standard"])
        out = capsys.readouterr().out
        assert "constant-factorization: SKIP" in out
        assert "energy-density: SKIP (S is not a Hessian)" in out.splitlines()

    def test_definition_file(self, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text(serialize_system(saint_venant_1d()))
        assert main(["check-system", str(path)]) == 0

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("name x\ndim 1\nsize 2\nA 1 1 1 oops\n")
        assert main(["check-system", str(path)]) == 1
        assert "line 4" in capsys.readouterr().err

    def test_unknown_name(self, capsys):
        assert main(["check-system", "not-a-system"]) == 1


class TestBadSystemFile:
    @pytest.mark.parametrize(
        "line",
        ["SJ0", "SJ0 2 0 1 1 0", "SJ0 1 0 nan 1 0", "A 1 1 1 (0 1) nan", "S 1 1 (0 0) inf"],
    )
    @pytest.mark.parametrize("command", ["check-system", "run"])
    def test_rejected_with_line_number(self, tmp_path, capsys, command, line):
        path = tmp_path / "bad.txt"
        path.write_text(serialize_system(saint_venant_1d()).replace("SJ0 1 0.0 1.0 1.0 0.0", line))
        line_no = read(path).splitlines().index(line) + 1
        argv = ["check-system", str(path)] if command == "check-system" else [
            "run", "--system", str(path), "--initial", "init1", "--M", "16",
            "--dt", "1e-3", "--T", "0.002", "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line_no}:"), err


# Built-in systems are not special: a renamed copy of the 1D system gives the
# same outputs, and the energy column follows the symmetrizer, not the shape.
class TestDerivedStructure:
    def test_renamed_builtin_gives_identical_outputs(self, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text(serialize_system(saint_venant_1d()).replace("saint-venant-1d", "my-shallow-water"))
        run = ["run", "--scheme", "sharp smooth-nl", "--initial", "init1", "--M", "16",
               "--dt", "1e-3", "--T", "0.003"]
        probe = ["probe-jn", "--N-list", "16 32", "--p", "1", "--q", "0"]
        for name, system in (("builtin", "saint-venant-1d"), ("file", str(path))):
            assert main(run + ["--system", system, "--out", str(tmp_path / name / "run")]) == 0
            assert main(probe + ["--system", system, "--out", str(tmp_path / name / "probe")]) == 0
        files_seen = 0
        for dirpath, _, names in os.walk(tmp_path / "builtin"):
            for name in names:
                rel = os.path.relpath(os.path.join(dirpath, name), tmp_path / "builtin")
                assert read(tmp_path / "builtin" / rel) == read(tmp_path / "file" / rel), rel
                files_seen += 1
        assert files_seen == 2 * 3 + 1 + 2

    def test_energy_column_only_with_hessian_symmetrizer(self, tmp_path):
        burgers = tmp_path / "burgers.txt"
        burgers.write_text("name decoupled-burgers\ndim 1\nsize 2\nA 1 1 1 (1 0) 1.0\nA 1 2 2 (0 1) 1.0\n")
        cases = [
            (str(burgers), "init1", "time,Hs0,Hs1,max_d2u"),
            ("saint-venant-2d-standard", "init2D", "time,Hs0,Hs1,margin_U,max_d2u"),
            ("saint-venant-2d-hamiltonian", "init2D", "time,Hs0,Hs1,margin_UH,hamiltonian,max_d2u"),
        ]
        for i, (system, initial, header) in enumerate(cases):
            out = tmp_path / str(i)
            assert main(["run", "--system", system, "--initial", initial, "--M", "8",
                         "--dt", "1e-3", "--T", "0.002", "--out", str(out)]) == 0
            assert read(out / "sharp" / "monitors.csv").splitlines()[0] == header


# Runs in a fresh interpreter: which modules a command loads is a property of
# the process, and this test process has imported everything already.
_STARTUP_SCRIPT = """
import json, sys
import specwave.cli

def lazy_loaded():
    return [m for m in ("scipy.stats", "concurrent.futures.process") if m in sys.modules]

loaded = {"import": lazy_loaded()}
common = ["--system", "saint-venant-1d", "--initial", "init1", "--dt", "1e-3", "--T", "0.002"]
assert specwave.cli.main(["run", *common, "--M", "16", "--out", "run"]) == 0
loaded["run"] = lazy_loaded()
loaded["1D scipy.fft"] = "scipy.fft" in sys.modules
assert specwave.cli.main(
    ["converge", *common, "--M-list", "8", "--M-ref", "16", "--jobs", "1", "--out", "conv"]
) == 0
loaded["converge"] = lazy_loaded()
print("--- check-system")
assert specwave.cli.main(["check-system", "saint-venant-1d"]) == 0
loaded["check-system"] = lazy_loaded()
print(json.dumps(loaded), file=sys.stderr)
"""


class TestStartup:
    def test_commands_import_only_what_they_run(self, tmp_path):
        env = dict(os.environ)
        pkg_root = str(Path(specwave.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _STARTUP_SCRIPT],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stderr.splitlines()[-1])
        assert loaded["import"] == []
        assert loaded["run"] == []
        assert loaded["1D scipy.fft"] is False  # 1D grids transform through numpy.fft
        assert loaded["converge"] == []
        assert loaded["check-system"] == ["scipy.stats"]
        check_lines = proc.stdout.split("--- check-system\n", 1)[1].splitlines()
        assert check_lines == [
            "polynomial-entries: PASS (max degree 1)",
            "symmetrizer: PASS (symmetry exact; positive definite at 200 samples)",
            "compatibility-split: PASS (exact)",
            "constant-factorization: PASS (exact)",
            "energy-density: PASS (exact: S = D^2 H)",
        ]


class TestStoredHalfOnly:
    """No command reads the full spectrum StateField.coeffs: each computes on the stored half."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--system", "saint-venant-1d", "--scheme", "sharp smooth-nl", "--initial", "init1",
             "--M", "16", "--dt", "1e-3", "--T", "0.002"],
            ["run", "--system", "saint-venant-2d-hamiltonian", "--scheme", "sharp", "--initial", "init2D",
             "--M", "8", "--dt", "1e-3", "--T", "0.002"],
            ["converge", "--preset", "converge-2d-hamiltonian", "--M-list", "4 8", "--M-ref", "16",
             "--T", "0.002"],
            ["probe-jn", "--system", "saint-venant-1d", "--N-list", "32 64"],
        ],
        ids=["run-1d", "run-2d-hamiltonian", "converge-2d", "probe-jn"],
    )
    def test_command_never_reads_full_spectrum(self, tmp_path, monkeypatch, capsys, argv):
        def forbidden(self):
            raise AssertionError("full spectrum read")

        monkeypatch.setattr(StateField, "coeffs", property(forbidden))
        assert main([*argv, "--out", str(tmp_path)]) == 0, capsys.readouterr().err


class TestProbeJn:
    def test_csv_and_slope(self, tmp_path, capsys):
        code = main(
            ["probe-jn", "--system", "saint-venant-1d",
             "--N-list", "32 64", "--p", "1", "--q", "0", "--out", str(tmp_path)]
        )
        assert code == 0
        lines = read(tmp_path / "jn.csv").splitlines()
        assert lines[0] == "N,J"
        assert len(lines) == 3
        slope = float(read(tmp_path / "slope.txt"))
        assert abs(slope - (-np.pi / 8)) < 0.05

    def test_single_n_no_slope(self, tmp_path):
        code = main(
            ["probe-jn", "--system", "saint-venant-1d", "--N-list", "32",
             "--out", str(tmp_path)]
        )
        assert code == 0
        assert len(read(tmp_path / "jn.csv").splitlines()) == 2
        assert not (tmp_path / "slope.txt").exists()

    def test_repeated_cutoff_is_input_error(self, tmp_path, capsys):
        # a repeated N would fit the slope to a rank-deficient system
        code = main(
            ["probe-jn", "--system", "saint-venant-1d", "--N-list", "32 32",
             "--out", str(tmp_path / "out")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "N_list repeats 32" in err
        assert not (tmp_path / "out").exists()

    def test_degenerate_offset_rejected(self, tmp_path):
        code = main(
            ["probe-jn", "--system", "saint-venant-1d", "--N-list", "32",
             "--p", "1", "--q", "1", "--out", str(tmp_path)]
        )
        assert code == 1


class TestPresets:
    def test_list_presets(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out
        for name in preset_names():
            assert name in out

    def test_catalog_covers_experiments(self):
        # one preset per published experiment family
        assert len(preset_names()) >= 8
        kinds = {get_preset(n).kind for n in preset_names()}
        assert kinds == {"run", "converge", "probe-jn"}

    def test_config_files_ship_and_match(self):
        # each preset is read from its file in the package's configs/ data
        for name in preset_names():
            path = files("specwave").joinpath("configs", f"{name}.cfg")
            assert path.is_file(), f"missing config file for preset {name}"
            assert parse_config_text(path.read_text(encoding="utf-8")) == get_preset(name).config

    def test_header_names_file_and_subcommand(self):
        configs = files("specwave").joinpath("configs").iterdir()
        stems = sorted(e.name.removesuffix(".cfg") for e in configs if e.name.endswith(".cfg"))
        assert preset_names() == stems  # the header names, in file-name order
        for name in stems:
            preset = get_preset(name)
            assert preset.kind in FLAG_SUBCOMMANDS
            assert preset.description and not preset.description.startswith("#")

    def test_every_preset_builds(self):
        needs = {"run": {"M"}, "converge": {"M_list", "M_ref"}, "probe-jn": {"N_list"}}
        for name in preset_names():
            preset = get_preset(name)
            assert needs[preset.kind] <= set(preset.config), name
            _build_config(dict(preset.config))

    def test_every_flag_is_a_config_key(self):
        subs = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
        for command in FLAG_SUBCOMMANDS:
            dests = {a.dest for a in subs.choices[command]._actions} - {"help", "config", "preset"}
            assert dests and dests <= set(CONFIG_KEYS), (command, dests - set(CONFIG_KEYS))

    def test_preset_kind_mismatch_rejected(self, tmp_path):
        code = main(["run", "--preset", "converge-1d-heap", "--out", str(tmp_path)])
        assert code == 1

    def test_flag_overrides_preset(self, tmp_path):
        # shrink the preset to smoke-test scale via flags
        code = main(
            ["run", "--preset", "zero-depth-1d", "--M", "16", "--T", "0.002",
             "--dt", "1e-3", "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "sharp" / "monitors.csv").exists()
        assert (tmp_path / "smooth-nl" / "monitors.csv").exists()


class TestUsageErrors:
    def test_bad_flag_value(self, tmp_path, capsys):
        assert main(["run", "--M", "abc", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: bad value for 'M':")

    @pytest.mark.parametrize("argv", [["run", "--bogus", "1"], []], ids=["unknown-flag", "no-subcommand"])
    def test_argument_errors_exit_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err


class TestConfigParsing:
    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_text("bogus = 1\n")

    def test_comments_and_init_params(self):
        raw = parse_config_text("# c\ninitial = init1\ninit.alpha = 2.5\n")
        assert raw == {"initial": "init1", "init.alpha": "2.5"}

    def test_config_file_flow(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "system = saint-venant-1d\nscheme = sharp\ninitial = init1\n"
            "init.alpha = 1.5\nM = 16\ndt = 1e-3\nT = 0.002\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "sharp" / "monitors.csv").exists()

    def test_non_power_of_two_warns_but_runs(self, tmp_path, capsys):
        code = main(
            ["run", "--system", "saint-venant-1d", "--initial", "init1",
             "--M", "12", "--dt", "1e-3", "--T", "0.002", "--out", str(tmp_path)]
        )
        assert code == 0
        assert "power of two" in capsys.readouterr().err
