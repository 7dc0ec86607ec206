"""Command-line front end with bit-stable file output.

Numbers are written with 17 significant digits so every value round-trips
exactly through the decimal form. A v2 JSON document that would hold inf
or nan, which JSON cannot represent, is not written (exit 2). Exit codes:

* 0: success.
* 1: ``verify`` ran and at least one check failed; no other command
  returns 1.
* 2: the input was rejected, or a computation could not finish on it
  (every :class:`~spin_snr_synth.errors.SpinSnrError`, including
  ``ConvergenceError`` and ``BracketingError``); one ``error:`` line on
  stderr.
* 3: a file could not be written (``OSError``).

``--version``, ``ernst``, ``classify`` and ``trajectory`` compute with
:mod:`math` alone and never import numpy. numpy is imported by the
commands that build arrays, ``qsurface``, ``phase-diagram`` and
``verify``, inside the functions that build them.

``qsurface`` and ``phase-diagram`` write a CSV (first line
``# spin-snr-synth v1``) plus a ``.meta.json`` sidecar in the v1 layout,
or with ``--format json`` one document tagged ``"schema": "spin-snr-synth
v2"``. A v2 document holds its rows column-wise, one list per CSV column,
all lists of a block having the same length:

* ``qsurface``: the sidecar keys (``params``, ``regime``, ``magic_plane``,
  ``resolution``, ``n_lattice_rows``, ``n_boundary_rows``,
  ``boundaries``), a name table ``structures``, and two blocks.
  ``lattice_rows`` has ``y``, ``z``, ``structure``, ``t_control`` and
  ``q``, row-major as in the CSV. ``boundary_rows`` has the same columns
  plus ``curve``, the boundary curve each sample lies on. A ``structure``
  entry is an index into ``structures``.
* ``phase-diagram``: the sidecar keys (``range_gamma``, ``range_Gamma``,
  ``resolution``, ``boundaries``), a name table ``regimes``, and the
  block ``cells`` with ``gamma``, ``Gamma``, ``q_ernst`` (null on
  unphysical cells), ``regime`` (an index into ``regimes``) and
  ``physical``, gamma-major as in the CSV.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import os
import re
import sys
from itertools import chain

from . import __version__
from .bloch import BlochState, RelaxationPair, normalize_params
from .ernst import ernst_solution, q_max_surface
from .errors import DomainError, SpinSnrError
from .oracle import run_verification
from .qsurface import build_trajectory, q_grid_arrays, q_value
from .synthesis import (ControlStructure, SynthesisRegime, _in_half_disk, boundary_curves,
                        magic_plane, regime)

SCHEMA_TAG = "# spin-snr-synth v1"
JSON_SCHEMA = "spin-snr-synth v2"

_STRUCTURES = tuple(ControlStructure)
_STRUCTURE_NAMES = tuple(s.value for s in _STRUCTURES)
_REGIMES = tuple(SynthesisRegime)

#: Rows formatted per ``%`` call when a CSV is streamed to its file.
_CHUNK_ROWS = 65536


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _distinct_strings(col: np.ndarray) -> np.ndarray:
    """``'%.17g'`` of every element, formatting each distinct bit pattern once."""
    import numpy as np

    bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
    strings = np.array(["%.17g" % v for v in bits.view(np.float64).tolist()], dtype=object)
    return strings[inverse]


def _write_rows(fh, row_fmt: str, columns: list[np.ndarray]) -> None:
    """Write one ``row_fmt`` line per row of ``columns``, a chunk per ``%`` call.

    ``'%.17g' % x`` gives the same bytes as :func:`_fmt`, inf, nan and -0
    included; string columns are formatted beforehand and go through ``%s``.
    """
    n = len(columns[0])
    for lo in range(0, n, _CHUNK_ROWS):
        rows = zip(*(col[lo:lo + _CHUNK_ROWS].tolist() for col in columns))
        fh.write(row_fmt * min(_CHUNK_ROWS, n - lo) % tuple(chain.from_iterable(rows)))


_NUM_NAMES = {"pi": math.pi, "e": math.e}

#: A negative float literal, exponent form included: a value, not an option.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def parse_number(text: str) -> float:
    """Parse a float or a small arithmetic expression ("2*pi/1.8", "2π").

    Plain float literals ("1e-3", "2.5E+4") parse as floats. In an
    expression, a digit directly followed by pi, or by an e that starts no
    exponent, multiplies implicitly ("2pi", "3e"). Only finite values are
    returned: "inf", "nan", "1e400", "10**400" and "1/0" are rejected.
    """
    try:
        value = float(text)
        if math.isfinite(value):  # "inf"/"nan" stay rejected below
            return value
    except ValueError:
        pass
    s = text.strip().replace("π", "pi")
    s = re.sub(r"(\d)\s*(pi|e)\b(?![+-]\d)", r"\1*\2", s)
    try:
        value = float(_eval_node(ast.parse(s, mode="eval").body))
    except (SyntaxError, ValueError, TypeError, OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse number {text!r}: {exc}") from None
    if not math.isfinite(value):
        raise DomainError(f"cannot parse number {text!r}: not finite")
    return value


def _eval_node(node: ast.AST) -> float:
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id in _NUM_NAMES:
        return _NUM_NAMES[node.id]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        v = _eval_node(node.operand)
        return -v if isinstance(node.op, ast.USub) else v
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
    ):
        a, b = _eval_node(node.left), _eval_node(node.right)
        return {
            ast.Add: lambda: a + b,
            ast.Sub: lambda: a - b,
            ast.Mult: lambda: a * b,
            ast.Div: lambda: a / b,
            ast.Pow: lambda: a**b,
        }[type(node.op)]()
    raise ValueError(f"unsupported expression element {ast.dump(node)}")


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--Gamma", type=parse_number, help="normalized transverse rate 2*pi*Td/T2")
    p.add_argument("--gamma", type=parse_number, help="normalized longitudinal rate 2*pi*Td/T1")
    p.add_argument("--T1", type=parse_number, help="longitudinal relaxation time (physical)")
    p.add_argument("--T2", type=parse_number, help="transverse relaxation time (physical)")
    p.add_argument("--Td", type=parse_number, help="detection duration (physical)")
    p.add_argument(
        "--allow-unphysical",
        action="store_true",
        help="accept rate pairs with 2*Gamma < gamma (T2 > 2*T1)",
    )


def resolve_params(args: argparse.Namespace) -> RelaxationPair:
    normalized = [args.Gamma, args.gamma]
    physical = [args.T1, args.T2, args.Td]
    if any(v is not None for v in normalized) and any(v is not None for v in physical):
        raise DomainError("give either --Gamma/--gamma or --T1/--T2/--Td, not both")
    if all(v is not None for v in normalized):
        return RelaxationPair(args.Gamma, args.gamma, allow_unphysical=args.allow_unphysical)
    if all(v is not None for v in physical):
        return normalize_params(args.T1, args.T2, args.Td, allow_unphysical=args.allow_unphysical)
    raise DomainError("parameters required: --Gamma and --gamma, or --T1, --T2 and --Td")


def _state_dict(s: BlochState) -> dict:
    return {"y": s.y, "z": s.z}


def cmd_ernst(args: argparse.Namespace) -> int:
    params = resolve_params(args)
    sol = ernst_solution(params)
    tag = regime(params).value
    if args.format == "json":
        payload = {
            "params": {"Gamma": params.gamma_t2, "gamma": params.gamma_t1},
            "regime": tag,
            "m": _state_dict(sol.m),
            "s": _state_dict(sol.s),
            "flip_rad": sol.flip,
            "flip_deg": math.degrees(sol.flip),
            "q": sol.q,
        }
        _emit(args.out, json.dumps(payload, indent=2) + "\n")
    else:
        lines = [
            "optimal steady-state cycle (Ernst solution)",
            f"  Gamma = {_fmt(params.gamma_t2)}   gamma = {_fmt(params.gamma_t1)}   regime {tag}",
            f"  M  = ({_fmt(sol.m.y)}, {_fmt(sol.m.z)})",
            f"  S  = ({_fmt(sol.s.y)}, {_fmt(sol.s.z)})",
            f"  flip = {_fmt(sol.flip)} rad ({sol.flip * 180.0 / math.pi:.6f} deg)",
            f"  Q  = {_fmt(sol.q)}",
        ]
        _emit(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_qsurface(args: argparse.Namespace) -> int:
    import numpy as np

    params = resolve_params(args)
    y, z, codes, t_c, q = q_grid_arrays(params, args.grid_ny, args.grid_nz)
    curves = boundary_curves(params, args.boundary_n)

    edge = {"curve": [], "y": [], "z": [], "structure": [], "t_control": [], "q": []}
    for name, arr in (
        ("ernst_ellipsoid", curves.ernst_ellipsoid),
        ("magic_radius_circle", curves.magic_radius_circle),
        ("magic_radius_preimage", curves.magic_radius_preimage),
    ):
        for yy, zz in arr.tolist():
            if not _in_half_disk(yy, zz):
                continue
            sample = q_value(BlochState(yy, zz), params)
            edge["curve"].append(name)
            edge["y"].append(sample.m.y)
            edge["z"].append(sample.m.z)
            edge["structure"].append(_STRUCTURES.index(sample.structure))
            edge["t_control"].append(sample.t_control)
            edge["q"].append(sample.q)

    plane = magic_plane(params)
    meta = {
        "schema": SCHEMA_TAG.lstrip("# "),
        "params": {"Gamma": params.gamma_t2, "gamma": params.gamma_t1},
        "regime": regime(params).value,
        "magic_plane": {"z0": plane.z0, "present": plane.present},
        "resolution": {"n_y": args.grid_ny, "n_z": args.grid_nz},
        "n_lattice_rows": int(len(y)),
        "n_boundary_rows": len(edge["y"]),
        "boundaries": {
            "ernst_ellipsoid": curves.ernst_ellipsoid.tolist(),
            "magic_radius_circle": curves.magic_radius_circle.tolist(),
            "magic_radius_preimage": curves.magic_radius_preimage.tolist(),
        },
    }

    if args.format == "json":
        meta["schema"] = JSON_SCHEMA
        meta["structures"] = list(_STRUCTURE_NAMES)
        meta["lattice_rows"] = {"y": y, "z": z, "structure": codes, "t_control": t_c, "q": q}
        meta["boundary_rows"] = edge
        _write_text(args.out, *_strict_json(meta))
        return 0

    names = np.array(_STRUCTURE_NAMES, dtype=object)
    edge_codes = np.array(edge["structure"], dtype=np.intp)
    with _open_text(args.out) as fh:
        fh.write(
            f"{SCHEMA_TAG}\n# lattice rows (row-major), then boundary-curve rows\n"
            "y,z,structure,t_control,q\n"
        )
        _write_rows(
            fh,
            "%s,%s,%s,%.17g,%.17g\n",
            [_distinct_strings(y), _distinct_strings(z), names[codes], t_c, q],
        )
        _write_rows(
            fh,
            "%.17g,%.17g,%s,%.17g,%.17g\n",
            [np.array(edge["y"]), np.array(edge["z"]), names[edge_codes],
             np.array(edge["t_control"]), np.array(edge["q"])],
        )
    _write_text(_sidecar_path(args.out), json.dumps(meta, indent=2) + "\n")
    return 0


def _point_report(args: argparse.Namespace) -> int:
    params = resolve_params(args)
    y, z = args.point
    m = BlochState(y, z)  # raises DomainError outside the closed disk
    sample = q_value(m, params)
    traj = build_trajectory(m, params)
    plane = magic_plane(params)
    seg_payload = []
    for seg in traj.segments:
        seg_payload.append(
            {
                "kind": seg.kind,
                "start": _state_dict(seg.start),
                "end": _state_dict(seg.end),
                "duration": seg.duration,
                "flip": seg.flip,
                "polyline": seg.polyline(args.polyline_n),
            }
        )
    payload = {
        "params": {"Gamma": params.gamma_t2, "gamma": params.gamma_t1},
        "m": _state_dict(m),
        "s": _state_dict(traj.s),
        "structure": sample.structure.value,
        "r_m": m.r,
        "r_s": traj.s.r,
        "z0": plane.z0,
        "t_control": sample.t_control,
        "q": sample.q,
        "segments": seg_payload,
    }
    if args.format == "json":
        _emit(args.out, json.dumps(payload, indent=2) + "\n")
        return 0
    lines = [
        f"measurement point M = ({_fmt(m.y)}, {_fmt(m.z)})",
        f"  structure = {sample.structure.value}",
        f"  r_m = {_fmt(m.r)}   r_s = {_fmt(traj.s.r)}   z0 = "
        + ("-" if plane.z0 is None else _fmt(plane.z0)),
        f"  T_c = {_fmt(sample.t_control)}   Q = {_fmt(sample.q)}",
        "  segments:",
    ]
    for seg in traj.segments:
        extra = f" flip={_fmt(seg.flip)} rad" if seg.flip is not None else ""
        lines.append(
            f"    {seg.kind:10s} ({_fmt(seg.start.y)}, {_fmt(seg.start.z)}) -> "
            f"({_fmt(seg.end.y)}, {_fmt(seg.end.z)}) duration={_fmt(seg.duration)}{extra}"
        )
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_phase_diagram(args: argparse.Namespace) -> int:
    import numpy as np

    g_lo, g_hi = args.range_gamma
    bg_lo, bg_hi = args.range_Gamma
    surface = q_max_surface((g_lo, g_hi), (bg_lo, bg_hi), (args.grid_ny, args.grid_nz))
    meta = {
        "schema": SCHEMA_TAG.lstrip("# "),
        "range_gamma": [g_lo, g_hi],
        "range_Gamma": [bg_lo, bg_hi],
        "resolution": {"n_gamma": args.grid_ny, "n_Gamma": args.grid_nz},
        "boundaries": {
            "gamma": surface.gamma.tolist(),
            "Gamma_ab": surface.gamma_ab.tolist(),
            "Gamma_bc": surface.gamma_bc.tolist(),
            "Gamma_physical": surface.gamma_phys.tolist(),
        },
    }
    gamma = np.repeat(surface.gamma, len(surface.big_gamma))
    big_gamma = np.tile(surface.big_gamma, len(surface.gamma))
    q = surface.q.ravel()
    regimes = surface.regimes.ravel()
    physical = surface.physical.ravel()
    if args.format == "json":
        regime_codes = np.zeros(regimes.shape, dtype=np.int8)
        for code, reg in enumerate(_REGIMES):
            regime_codes[regimes == reg.value] = code
        meta["schema"] = JSON_SCHEMA
        meta["regimes"] = [reg.value for reg in _REGIMES]
        meta["cells"] = {
            "gamma": gamma,
            "Gamma": big_gamma,
            "q_ernst": [v if p else None for v, p in zip(q.tolist(), physical.tolist())],
            "regime": regime_codes,
            "physical": physical,
        }
        _write_text(args.out, *_strict_json(meta))
        return 0
    with _open_text(args.out) as fh:
        fh.write(f"{SCHEMA_TAG}\ngamma,Gamma,q_ernst,regime,physical\n")
        _write_rows(
            fh,
            "%s,%s,%.17g,%s,%d\n",
            [_distinct_strings(gamma), _distinct_strings(big_gamma), q, regimes, physical],
        )
    _write_text(_sidecar_path(args.out), json.dumps(meta, indent=2) + "\n")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    params = resolve_params(args)
    options = {"seed": args.seed, "n_transfers": args.n_transfers, "n_structure": args.n_structure,
               "n_qsurface": args.n_qsurface, "bang_amplitude": args.amplitude}
    # an option left out keeps run_verification's own default
    report = run_verification(params, **{k: v for k, v in options.items() if v is not None})
    doc = json.dumps(report.to_dict(), indent=2) + "\n"
    if args.out:
        _write_text(args.out, doc)
    if args.format == "json":
        sys.stdout.write(doc)
    else:
        for c in report.checks:
            status = "pass" if c.passed else "FAIL"
            print(f"  [{status}] {c.name}: measured {c.measured:.3e} (tolerance {c.tolerance:.0e})")
        print("verification " + ("PASSED" if report.passed else "FAILED"))
    return 0 if report.passed else 1


def _sidecar_path(path: str) -> str:
    root, ext = os.path.splitext(path)
    return (root if ext else path) + ".meta.json"


def _open_text(path: str):
    return open(path, "w", encoding="utf-8", newline="\n")


def _write_text(path: str, *parts: str) -> None:
    with _open_text(path) as fh:
        fh.writelines(parts)


def _strict_json(doc: dict) -> list[str]:
    """The pieces of ``json.dumps(doc, allow_nan=False) + "\\n"``, in order.

    Dicts are encoded key by key and every other value on its own; an
    array (anything with ``tolist``) becomes a list only when its turn
    comes, so one column at a time exists as Python objects. inf and nan,
    which have no JSON form, raise DomainError before any file is opened.
    """
    pieces: list[str] = []
    try:
        _encode_json(doc, pieces)
    except ValueError as exc:
        raise DomainError(f"non-finite value in the output: {exc}") from None
    pieces.append("\n")
    return pieces


def _encode_json(value, pieces: list[str]) -> None:
    if isinstance(value, dict):
        pieces.append("{")
        for i, (key, item) in enumerate(value.items()):
            pieces.append(f"{', ' if i else ''}{json.dumps(key)}: ")
            _encode_json(item, pieces)
        pieces.append("}")
        return
    if hasattr(value, "tolist"):
        value = value.tolist()
    pieces.append(json.dumps(value, allow_nan=False))


def _emit(path: str | None, text: str) -> None:
    if path:
        _write_text(path, text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spin-snr-synth",
        description="Steady-state SNR-per-unit-time synthesis for a pulsed spin-1/2 ensemble.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ernst = sub.add_parser("ernst", help="closed-form optimal steady state and flip angle")
    _add_param_flags(p_ernst)
    p_ernst.add_argument("--format", choices=("text", "json"), default="text")
    p_ernst.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_ernst.set_defaults(func=cmd_ernst)

    p_q = sub.add_parser("qsurface", help="Q over the half-disk lattice, as CSV + JSON sidecar")
    _add_param_flags(p_q)
    p_q.add_argument("--grid-ny", type=int, default=512)
    p_q.add_argument("--grid-nz", type=int, default=512)
    p_q.add_argument("--boundary-n", type=int, default=256, help="samples per boundary curve")
    p_q.add_argument("--format", choices=("csv", "json"), default="csv")
    p_q.add_argument("--out", default="qsurface.csv")
    p_q.set_defaults(func=cmd_qsurface)

    for name, help_text in (
        ("classify", "structure, times and optimal trajectory for one M point"),
        ("trajectory", "alias of classify (optimal-trajectory polyline output)"),
    ):
        p_c = sub.add_parser(name, help=help_text)
        _add_param_flags(p_c)
        p_c.add_argument("--point", type=parse_number, nargs=2, required=True, metavar=("Y", "Z"))
        # argparse's own pattern has no exponent form and would take "-1e-3" for an option
        p_c._negative_number_matcher = _NEGATIVE_NUMBER
        p_c.add_argument("--polyline-n", type=int, default=64)
        p_c.add_argument("--format", choices=("text", "json"), default="text")
        p_c.add_argument("--out", default=None)
        p_c.set_defaults(func=_point_report)

    p_pd = sub.add_parser("phase-diagram", help="optimal Q and regimes over the rate plane")
    p_pd.add_argument("--range-gamma", type=parse_number, nargs=2, default=[0.1, 2.0], metavar=("LO", "HI"))
    p_pd.add_argument("--range-Gamma", type=parse_number, nargs=2, default=[0.1, 3.0], metavar=("LO", "HI"))
    p_pd.add_argument("--grid-ny", type=int, default=64, help="gamma axis resolution")
    p_pd.add_argument("--grid-nz", type=int, default=64, help="Gamma axis resolution")
    p_pd.add_argument("--format", choices=("csv", "json"), default="csv")
    p_pd.add_argument("--out", default="phase_diagram.csv")
    p_pd.set_defaults(func=cmd_phase_diagram)

    p_v = sub.add_parser("verify", help="run the ODE-oracle suite against the closed forms")
    _add_param_flags(p_v)
    p_v.add_argument("--seed", type=int)
    p_v.add_argument("--n-transfers", type=int)
    p_v.add_argument("--n-structure", type=int)
    p_v.add_argument("--n-qsurface", type=int)
    p_v.add_argument("--amplitude", type=parse_number)
    p_v.add_argument("--format", choices=("text", "json"), default="text")
    p_v.add_argument("--out", default=None, help="also write the JSON report here")
    p_v.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpinSnrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
