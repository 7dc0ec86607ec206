"""CLI output: byte identity of the streamed CSV writers, the v2 JSON layout, import cost."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spin_snr_synth
from spin_snr_synth import (
    BlochState,
    ControlStructure,
    RelaxationPair,
    boundary_curves,
    ernst_solution,
    q_grid_arrays,
    q_max_surface,
    q_value,
)
from spin_snr_synth import cli, oracle
from conftest import bias_q_value

#: One rate pair (Gamma, gamma) per synthesis regime.
REGIMES = {"A": (3.0, 0.5), "B": (1.8, 1.0), "C": (0.5, 0.4)}


def _f(x) -> str:
    return f"{x:.17g}"


def reference_qsurface_csv(params, n_y, n_z, boundary_n=256) -> bytes:
    """The per-row f-string CSV writer the streamed writer replaced."""
    y, z, codes, t_c, q = q_grid_arrays(params, n_y, n_z)
    structures = tuple(ControlStructure)
    curves = boundary_curves(params, boundary_n)
    lines = [cli.SCHEMA_TAG, "# lattice rows (row-major), then boundary-curve rows", "y,z,structure,t_control,q"]
    for yi, zi, ci, ti, qi in zip(y.tolist(), z.tolist(), codes.tolist(), t_c.tolist(), q.tolist()):
        lines.append(f"{_f(yi)},{_f(zi)},{structures[ci].value},{_f(ti)},{_f(qi)}")
    for arr in (curves.ernst_ellipsoid, curves.magic_radius_circle, curves.magic_radius_preimage):
        for yy, zz in arr:
            if yy < 0.0 or yy * yy + zz * zz >= 1.0:
                continue
            s = q_value(BlochState(float(yy), float(zz)), params)
            lines.append(f"{_f(s.m.y)},{_f(s.m.z)},{s.structure.value},{_f(s.t_control)},{_f(s.q)}")
    return ("\n".join(lines) + "\n").encode()


def reference_phase_csv(gamma_range, big_gamma_range, n) -> bytes:
    """The per-cell f-string CSV writer the streamed writer replaced."""
    surface = q_max_surface(gamma_range, big_gamma_range, n)
    lines = [cli.SCHEMA_TAG, "gamma,Gamma,q_ernst,regime,physical"]
    for i in range(len(surface.gamma)):
        for j in range(len(surface.big_gamma)):
            lines.append(
                f"{_f(surface.gamma[i])},{_f(surface.big_gamma[j])},"
                f"{_f(surface.q[i, j])},{surface.regimes[i, j]},"
                f"{1 if surface.physical[i, j] else 0}"
            )
    return ("\n".join(lines) + "\n").encode()


def _rates(tag):
    big_g, small_g = REGIMES[tag]
    return ["--Gamma", repr(big_g), "--gamma", repr(small_g)]


def run_qsurface(tmp_path, tag, n_y, n_z, fmt="csv") -> Path:
    out = tmp_path / f"qs.{fmt}"
    argv = ["qsurface", *_rates(tag), "--grid-ny", str(n_y), "--grid-nz", str(n_z),
            "--format", fmt, "--out", str(out)]
    assert cli.main(argv) == 0
    return out


def run_phase(tmp_path, n_gamma, n_big_gamma, fmt="csv") -> Path:
    out = tmp_path / f"pd.{fmt}"
    argv = ["phase-diagram", "--grid-ny", str(n_gamma), "--grid-nz", str(n_big_gamma),
            "--format", fmt, "--out", str(out)]
    assert cli.main(argv) == 0
    return out


class TestCsvByteIdentity:
    @pytest.mark.parametrize("tag", sorted(REGIMES))
    def test_qsurface_each_regime(self, tmp_path, tag):
        out = run_qsurface(tmp_path, tag, 97, 101)
        assert out.read_bytes() == reference_qsurface_csv(RelaxationPair(*REGIMES[tag]), 97, 101)

    def test_qsurface_rim_rows_finite(self, tmp_path):
        # lattice points (80/89, +-39/89) have y^2 + z^2 < 1 but hypot(y, z) == 1
        expected = reference_qsurface_csv(RelaxationPair(*REGIMES["B"]), 90, 90)
        assert b"inf" not in expected and b"nan" not in expected
        assert run_qsurface(tmp_path, "B", 90, 90).read_bytes() == expected

    def test_qsurface_larger_than_one_chunk(self, tmp_path):
        out = run_qsurface(tmp_path, "A", 300, 300)
        meta = json.loads((tmp_path / "qs.meta.json").read_text())
        assert meta["n_lattice_rows"] > cli._CHUNK_ROWS
        assert out.read_bytes() == reference_qsurface_csv(RelaxationPair(*REGIMES["A"]), 300, 300)

    def test_qsurface_empty_lattice(self, tmp_path):
        # A 2 x 2 lattice has no point inside the open half-disk.
        out = run_qsurface(tmp_path, "C", 2, 2)
        assert out.read_bytes() == reference_qsurface_csv(RelaxationPair(*REGIMES["C"]), 2, 2)

    def test_phase_diagram_with_unphysical_cells(self, tmp_path):
        expected = reference_phase_csv((0.1, 2.0), (0.1, 3.0), (40, 50))
        assert b",nan," in expected
        assert run_phase(tmp_path, 40, 50).read_bytes() == expected

    def test_special_values(self, tmp_path):
        col = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1 / 3, 1 / 3, -1e300])
        path = tmp_path / "rows.txt"
        with cli._open_text(str(path)) as fh:
            cli._write_rows(fh, "%s;%.17g\n", [cli._distinct_strings(col, cli._fmt), col])
        assert path.read_text() == "".join(f"{_f(v)};{_f(v)}\n" for v in col.tolist())


def _csv_body(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    return rows[1:]  # drop the column header


class TestJsonV2:
    def test_qsurface_columns_equal_csv(self, tmp_path):
        csv_rows = _csv_body(run_qsurface(tmp_path, "B", 90, 90))
        doc = json.loads(run_qsurface(tmp_path, "B", 90, 90, fmt="json").read_text())
        assert doc["schema"] == "spin-snr-synth v2"
        assert doc["structures"] == [s.value for s in ControlStructure]
        lattice, edge = doc["lattice_rows"], doc["boundary_rows"]
        assert doc["n_boundary_rows"] > 0
        assert {len(c) for c in lattice.values()} == {doc["n_lattice_rows"]}
        assert {len(c) for c in edge.values()} == {doc["n_boundary_rows"]}
        assert len(csv_rows) == doc["n_lattice_rows"] + doc["n_boundary_rows"]

        names = ("y", "z", "structure", "t_control", "q")
        decoded = [
            tuple(block[name][i] for name in names)
            for block in (lattice, edge)
            for i in range(len(block["y"]))
        ]
        for row, (y, z, code, t_c, q) in zip(csv_rows, decoded):
            assert [float(row[0]), float(row[1]), row[2], float(row[3]), float(row[4])] == [
                y, z, doc["structures"][code], t_c, q
            ]
        assert set(edge["curve"]) <= {"ernst_ellipsoid", "magic_radius_circle", "magic_radius_preimage"}

    def test_phase_diagram_columns_equal_csv(self, tmp_path):
        csv_rows = _csv_body(run_phase(tmp_path, 40, 50))
        doc = json.loads(run_phase(tmp_path, 40, 50, fmt="json").read_text())
        assert doc["schema"] == "spin-snr-synth v2"
        cells = doc["cells"]
        assert {len(c) for c in cells.values()} == {40 * 50} == {len(csv_rows)}
        assert None in cells["q_ernst"]
        for i, row in enumerate(csv_rows):
            physical = cells["physical"][i]
            assert float(row[0]) == cells["gamma"][i]
            assert float(row[1]) == cells["Gamma"][i]
            assert row[3] == doc["regimes"][cells["regime"][i]]
            assert row[4] == ("1" if physical else "0")
            if physical:
                assert float(row[2]) == cells["q_ernst"][i]
            else:
                assert row[2] == "nan" and cells["q_ernst"][i] is None

    @pytest.mark.parametrize("tag", sorted(REGIMES))
    @pytest.mark.parametrize("n", [512, 90, 2])
    def test_qsurface_pieces_join_to_dumps(self, tmp_path, monkeypatch, tag, n):
        seen = _spy_strict_json(monkeypatch)
        _assert_pieces_join_to_dumps(seen, run_qsurface(tmp_path, tag, n, n, fmt="json"))

    def test_phase_diagram_pieces_join_to_dumps(self, tmp_path, monkeypatch):
        seen = _spy_strict_json(monkeypatch)
        _assert_pieces_join_to_dumps(seen, run_phase(tmp_path, 40, 50, fmt="json"))
        assert None in seen[0][0]["cells"]["q_ernst"]

    def test_nonfinite_value_writes_no_file(self, tmp_path, monkeypatch, capsys):
        kernel = cli.q_grid_arrays

        def with_inf(params, n_y, n_z):
            y, z, codes, t_c, q = kernel(params, n_y, n_z)
            t_c[-1] = math.inf
            return y, z, codes, t_c, q

        monkeypatch.setattr(cli, "q_grid_arrays", with_inf)
        out = tmp_path / "qs.json"
        argv = ["qsurface", *_rates("B"), "--grid-ny", "20", "--grid-nz", "20",
                "--format", "json", "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_nonfinite_value_refused(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(spin_snr_synth.DomainError):
                cli._strict_json({"q": [0.5, bad]})
            # an axis column goes through the distinct-value encoder
            with pytest.raises(spin_snr_synth.DomainError):
                cli._strict_json({"cells": {"gamma": np.array([0.5, bad, 0.5])}})

    def test_csv_sidecars_keep_v1(self, tmp_path):
        run_qsurface(tmp_path, "C", 20, 20)
        run_phase(tmp_path, 8, 8)
        for name in ("qs.meta.json", "pd.meta.json"):
            meta = json.loads((tmp_path / name).read_text())
            assert meta["schema"] == "spin-snr-synth v1"
            assert not {"lattice_rows", "boundary_rows", "cells"} & set(meta)


def _spy_strict_json(monkeypatch) -> list:
    """Record every (doc, pieces) pair that ``cli._strict_json`` encodes."""
    seen = []
    encode = cli._strict_json

    def spy(doc):
        pieces = encode(doc)
        seen.append((doc, pieces))
        return pieces

    monkeypatch.setattr(cli, "_strict_json", spy)
    return seen


def _as_lists(value):
    if isinstance(value, dict):
        return {key: _as_lists(item) for key, item in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


def _assert_pieces_join_to_dumps(seen: list, out: Path) -> None:
    ((doc, pieces),) = seen
    expected = json.dumps(_as_lists(doc), allow_nan=False) + "\n"
    assert "".join(pieces) == expected
    assert out.read_text() == expected


def _src_env() -> dict:
    src = str(Path(spin_snr_synth.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _run_python(code: str, *args: str, env: dict | None = None) -> str:
    res = subprocess.run([sys.executable, "-c", code, *args], env=env or _src_env(),
                         capture_output=True, text=True, timeout=60, check=True)
    return res.stdout.strip()


def test_cli_import_leaves_scipy_unloaded():
    code = """
import contextlib, io, sys, spin_snr_synth.cli
print("scipy" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    status = spin_snr_synth.cli.main(["verify", "--Gamma", "1.8", "--gamma", "1.0", "--n-transfers", "2",
                                      "--n-structure", "2", "--n-qsurface", "2"])
print(status, "scipy" in sys.modules)
"""
    assert _run_python(code).splitlines() == ["False", "0 False"]


#: Runs each argv of the JSON list argv[1] through ``cli.main`` in one
#: process; prints the exit codes and the names of the loaded modules.
_MAIN_LOOP = """
import contextlib, io, json, sys
from spin_snr_synth import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
print(json.dumps([codes, sorted(sys.modules)]))
"""

#: Modules that no query command with plain number literals needs: the array
#: layer, the oracle, the expression parser and what ``dataclasses`` pulls in.
_NOT_FOR_QUERIES = {"numpy", "dataclasses", "inspect", "spin_snr_synth.oracle", "ast"}


def test_query_commands_leave_numpy_unloaded(tmp_path):
    argvs = [
        ["--version"],
        ["ernst", *_rates("B")],
        ["ernst", *_rates("A"), "--format", "json"],
        ["classify", *_rates("B"), "--point", "0.3", "0.1", "--format", "json"],
        ["trajectory", *_rates("C"), "--point", "0.6", "-0.2", "--format", "json"],
        ["classify", *_rates("B"), "--point", "0.9", "0.6"],  # outside the disk
        ["trajectory", *_rates("A"), "--point", "-0.2", "0.1"],  # y < 0
        ["ernst", "--Gamma", "0.2", "--gamma", "1.0"],  # unphysical
    ]
    codes, loaded = json.loads(_run_python(_MAIN_LOOP, json.dumps(argvs)))
    assert codes == [0, 0, 0, 0, 0, 2, 2, 2]
    assert not _NOT_FOR_QUERIES & set(loaded)

    argv = ["qsurface", *_rates("C"), "--grid-ny", "8", "--grid-nz", "8",
            "--out", str(tmp_path / "qs.csv")]
    codes, loaded = json.loads(_run_python(_MAIN_LOOP, json.dumps([argv])))
    assert codes == [0]
    assert "numpy" in loaded and "spin_snr_synth.oracle" not in loaded

    argv = ["verify", *_rates("B"), "--n-transfers", "2", "--n-structure", "2", "--n-qsurface", "2"]
    codes, loaded = json.loads(_run_python(_MAIN_LOOP, json.dumps([argv])))
    assert codes == [0]
    assert "spin_snr_synth.oracle" in loaded and "numpy" not in loaded


def test_package_resolves_oracle_names_on_demand():
    from spin_snr_synth import oracle

    assert spin_snr_synth.run_verification is oracle.run_verification
    assert spin_snr_synth.VerificationReport is oracle.VerificationReport
    with pytest.raises(AttributeError):
        spin_snr_synth.no_such_name


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_main_module_sets_one_openblas_thread(preset, expected):
    env = _src_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = "import os, spin_snr_synth.__main__; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _run_python(code, env=env) == expected


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestParseNumber:
    @given(_FINITE)
    def test_repr_round_trips(self, x):
        assert cli.parse_number(repr(x)) == x

    @given(_FINITE)
    def test_scientific_notation(self, x):
        assert cli.parse_number(f"{x:e}") == pytest.approx(x, rel=1e-6)

    @pytest.mark.parametrize(
        "text, value",
        [
            ("1e-3", 1e-3),
            ("2.5e-4", 2.5e-4),
            ("1e+5", 1e5),
            ("1E-3", 1e-3),
            ("2*1e-3", 2e-3),
            ("2pi", 2.0 * math.pi),
            ("2π", 2.0 * math.pi),
            ("3e", 3.0 * math.e),
            ("2*pi/1.8", 2.0 * math.pi / 1.8),
        ],
    )
    def test_examples(self, text, value):
        assert cli.parse_number(text) == pytest.approx(value, rel=1e-15)

    @pytest.mark.parametrize("text", ["inf", "nan", "2 +", "x"])
    def test_rejected(self, text):
        with pytest.raises(spin_snr_synth.DomainError):
            cli.parse_number(text)

    def test_flag_value_in_scientific_notation(self):
        args = cli.build_parser().parse_args(["verify", "--amplitude", "1e+5", "--Td", "2.5e-4"])
        assert args.amplitude == 1e5
        assert args.Td == 2.5e-4


class TestExitCodes:
    def test_success(self, capsys):
        assert cli.main(["ernst", *_rates("B")]) == 0

    def test_verify_report_records_its_inputs(self, capsys):
        argv = ["verify", *_rates("C"), "--seed", "7", "--n-transfers", "2", "--n-structure", "3",
                "--n-qsurface", "4", "--amplitude", "1e5", "--format", "json"]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert {k: report[k] for k in ("seed", "n_transfers", "n_structure", "n_qsurface",
                                       "bang_amplitude")} == {
            "seed": 7, "n_transfers": 2, "n_structure": 3, "n_qsurface": 4, "bang_amplitude": 1e5}
        assert cli.main(argv[:5] + ["--format", "json"]) == 0
        defaults = json.loads(capsys.readouterr().out)
        assert (defaults["n_transfers"], defaults["bang_amplitude"]) == (100, 1e6)

    def test_verification_failure(self, monkeypatch, capsys):
        bias_q_value(monkeypatch, 1e-2)
        argv = ["verify", *_rates("B"), "--n-transfers", "2", "--n-structure", "2",
                "--n-qsurface", "3"]
        assert cli.main(argv) == 1

    @pytest.mark.parametrize("option", [["--seed", "-1"], ["--n-transfers", "0"],
                                        ["--n-structure", "0"], ["--n-qsurface", "0"],
                                        ["--amplitude", "0"]])
    def test_verify_input_rejected_before_any_check(self, monkeypatch, capsys, option):
        # the first check reads the Ernst closed form; it must not be reached
        monkeypatch.setattr(oracle, "ernst_solution", lambda params: pytest.fail("a check ran"))
        assert cli.main(["verify", *_rates("B"), *option]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("text", ["1e400", "1e308*10", "10**400", "1/0"])
    def test_nonfinite_number_rejected(self, tmp_path, text):
        out = tmp_path / "pd.csv"
        argv = ["phase-diagram", "--range-gamma", "0.1", text, "--grid-ny", "3", "--grid-nz", "3",
                "--out", str(out)]
        code, stdout, stderr = _run_checked(argv)
        assert code == 2
        assert "error:" in stderr and "Traceback" not in stderr
        assert stdout == "" and not out.exists()

    def test_unphysical_rates(self, tmp_path, capsys):
        # every command that takes rates rejects 2*Gamma < gamma and names them
        rates = ["--Gamma", "0.1", "--gamma", "1.0"]
        point = ["--point", "0.025", "-0.975"]
        for argv in (["ernst", *rates], ["classify", *rates, *point], ["trajectory", *rates, *point],
                     ["qsurface", *rates, "--grid-ny", "8", "--grid-nz", "8",
                      "--out", str(tmp_path / "qs.csv")],
                     ["verify", *rates, "--n-transfers", "2"],
                     ["ernst", "--T1", "1", "--T2", "30", "--Td", "0.1"]):
            assert cli.main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: 2*Gamma >= gamma violated (Gamma="), argv
        assert not list(tmp_path.iterdir())

    def test_computation_error(self, monkeypatch, capsys):
        def no_convergence(params):
            raise spin_snr_synth.ConvergenceError("no convergence", residual=1.0)

        monkeypatch.setattr(cli, "ernst_solution", no_convergence)
        assert cli.main(["ernst", *_rates("B")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unwritable_output(self, tmp_path, capsys):
        out = tmp_path / "missing" / "qs.csv"
        assert cli.main(["qsurface", *_rates("C"), "--grid-ny", "8", "--grid-nz", "8",
                         "--out", str(out)]) == 3


@pytest.mark.parametrize("rates, q", [(("800", "400"), 1.0), (("1e5", "1"), 0.6798)])
def test_ernst_finite_at_large_rates(capsys, rates, q):
    assert cli.main(["ernst", "--Gamma", rates[0], "--gamma", rates[1], "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=lambda token: pytest.fail(token))
    numbers = [doc["q"], doc["flip_rad"], *doc["m"].values(), *doc["s"].values()]
    assert all(math.isfinite(v) for v in numbers)
    assert doc["q"] == pytest.approx(q, abs=5e-5)


def _strict_loads(text: str):
    return json.loads(text, parse_constant=lambda token: pytest.fail(f"non-finite {token}"))


def _assert_finite_output(argv: list[str], stdout: str, out: str) -> None:
    """Every number the command wrote is finite, bar the nan of unphysical cells."""
    if argv[0] not in ("qsurface", "phase-diagram"):
        _strict_loads(stdout)
        return
    if "json" in argv:
        _strict_loads(Path(out).read_text())
        return
    _strict_loads(Path(out).with_suffix(".meta.json").read_text())
    for row in _csv_body(Path(out)):
        if argv[0] == "qsurface":
            numbers = [row[0], row[1], row[3], row[4]]
        else:  # q_ernst is nan exactly on the unphysical cells
            numbers = [row[0], row[1]] + ([row[2]] if row[4] == "1" else [])
        assert all(math.isfinite(float(v)) for v in numbers), row


def _run_checked(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` with RuntimeWarning raised; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refused the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestLargeRates:
    @pytest.mark.parametrize("rates", [("800", "400"), ("1e5", "1")])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_qsurface(self, tmp_path, rates, fmt):
        out = str(tmp_path / f"qs.{fmt}")
        argv = ["qsurface", "--Gamma", rates[0], "--gamma", rates[1], "--grid-ny", "33",
                "--grid-nz", "33", "--format", fmt, "--out", out]
        code, stdout, _ = _run_checked(argv)
        assert code == 0
        _assert_finite_output(argv, stdout, out)

    def test_phase_diagram(self, tmp_path):
        out = str(tmp_path / "pd.csv")
        argv = ["phase-diagram", "--range-gamma", "300", "400", "--range-Gamma", "300", "900",
                "--grid-ny", "3", "--grid-nz", "3", "--out", out]
        code, stdout, _ = _run_checked(argv)
        assert code == 0
        _assert_finite_output(argv, stdout, out)
        rows = _csv_body(Path(out))
        assert [row[4] for row in rows] == ["1"] * 9
        for gamma_text, big_gamma_text, q_text, _, _ in rows:
            if float(gamma_text) == 400.0:
                expected = ernst_solution(RelaxationPair(float(big_gamma_text), 400.0)).q
                assert float(q_text) == expected == 1.0


_RATE = st.floats(-8.0, 4.0).map(lambda exponent: 10.0**exponent)  # log-uniform
_RADIUS = st.one_of(st.floats(0.0, 1.0), st.floats(0.999, 1.001))


@st.composite
def cli_argvs(draw) -> list[str]:
    """Command lines over the whole rate range, with points inside and near the disk."""
    cmd = draw(st.sampled_from(["ernst", "classify", "trajectory", "qsurface", "phase-diagram"]))
    fmt = draw(st.sampled_from(["csv", "json"]))
    if cmd == "phase-diagram":
        gamma = sorted([draw(_RATE), draw(_RATE)])
        big_gamma = sorted([draw(_RATE), draw(_RATE)])
        return [cmd, "--range-gamma", *map(repr, gamma), "--range-Gamma", *map(repr, big_gamma),
                "--grid-ny", "3", "--grid-nz", "3", "--format", fmt]
    rates = ["--Gamma", repr(draw(_RATE)), "--gamma", repr(draw(_RATE))]
    if cmd == "ernst":
        return [cmd, *rates, "--format", "json"]
    if cmd == "qsurface":
        return [cmd, *rates, "--grid-ny", "9", "--grid-nz", "9", "--boundary-n", "16",
                "--format", fmt]
    r = draw(_RADIUS)
    phi = draw(st.floats(-0.5 * math.pi - 0.1, 0.5 * math.pi + 0.1))
    text = draw(st.sampled_from([repr, "{:.16e}".format]))  # "-1.2e-01" is a value, not an option
    return [cmd, *rates, "--point", text(r * math.cos(phi)), text(r * math.sin(phi)),
            "--format", "json"]


@settings(max_examples=400, deadline=None)
@given(cli_argvs())
def test_cli_answers_or_rejects(argv):
    # exit 0 with finite output, or exit 2 with an error line and no file; never a traceback
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "out.dat")
        if argv[0] in ("qsurface", "phase-diagram"):
            argv = [*argv, "--out", out]
        code, stdout, stderr = _run_checked(argv)
        assert code in (0, 2), stderr
        if code == 2:
            assert "error:" in stderr
            assert not stderr.startswith("usage:"), stderr  # every drawn command line parses
            assert not os.path.exists(out)
        else:
            _assert_finite_output(argv, stdout, out)
