"""CLI output: byte identity of the streamed CSV writers, the v2 JSON layout, import cost."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import spin_snr_synth
from spin_snr_synth import (
    BlochState,
    ControlStructure,
    RelaxationPair,
    boundary_curves,
    q_grid_arrays,
    q_max_surface,
    q_value,
)
from spin_snr_synth import cli

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
            cli._write_rows(fh, "%s;%.17g\n", [cli._distinct_strings(col), col])
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

    def test_nonfinite_value_refused(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(spin_snr_synth.DomainError):
                cli._strict_json({"q": [0.5, bad]})

    def test_csv_sidecars_keep_v1(self, tmp_path):
        run_qsurface(tmp_path, "C", 20, 20)
        run_phase(tmp_path, 8, 8)
        for name in ("qs.meta.json", "pd.meta.json"):
            meta = json.loads((tmp_path / name).read_text())
            assert meta["schema"] == "spin-snr-synth v1"
            assert not {"lattice_rows", "boundary_rows", "cells"} & set(meta)


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(spin_snr_synth.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, spin_snr_synth.cli; print('scipy' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    assert res.stdout.strip() == "False"


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

    def test_verification_failure(self, capsys):
        argv = ["verify", *_rates("B"), "--n-transfers", "2", "--n-structure", "2",
                "--n-qsurface", "3", "--inject-q-bias", "1e-2"]
        assert cli.main(argv) == 1

    def test_unphysical_rates(self, capsys):
        assert cli.main(["ernst", "--Gamma", "0.2", "--gamma", "1.0"]) == 2
        assert capsys.readouterr().err.startswith("error:")

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
