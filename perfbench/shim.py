"""Traced launch of the CLI: ``python shim.py TRACE_OUT ARGV...``.

Imports the package, wraps every public function in every module
namespace that binds it (so calls made through ``from ... import`` names
are traced too), runs ``spin_snr_synth.cli.main(ARGV)`` and writes this
process's per-layer numbers to TRACE_OUT as JSON.  Names that a later
tree removed are skipped.  Exit code, stdout and stderr are the CLI's own.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter

import spans

PACKAGE = "spin_snr_synth"
MODULES = ("", ".bloch", ".synthesis", ".qsurface", ".ernst", ".oracle", ".cli")

#: Private functions that are layer boundaries all the same.
EXTRA_SPANS = {"cli._point_report"}
#: Hot private functions that only get a call counter.
COUNTERS = {"oracle._rk4_u_step": "oracle.rk4_steps"}


def _short(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def observe_lattice(counts, result) -> None:
    """Lattice work counters from the (y, z, code, t_control, q) arrays."""
    # Imported here, not at the top, so that cli.import_s times the whole package import.
    import numpy as np

    from spin_snr_synth.synthesis import ControlStructure

    y, _, codes, t_c, q = result[:5]
    counts["qsurface.lattice_points"] += int(len(y))
    counts["qsurface.nonfinite_rows"] += int((~(np.isfinite(t_c) & np.isfinite(q))).sum())
    for code, n in enumerate(np.bincount(codes.astype(np.int64), minlength=5).tolist()):
        counts[f"qsurface.rows.{tuple(ControlStructure)[code].value}"] += n


OBSERVERS = {"qsurface.q_lattice_arrays": observe_lattice}
#: Counters that read 0 when nothing bumps them.
ZERO_COUNTS = (
    "qsurface.lattice_points", "qsurface.nonfinite_rows", "oracle.rk4_steps",
    *(f"qsurface.rows.{s}" for s in ("B", "BSvPosB", "BSvNegB", "BShB", "BShSvNegB")),
)


def install(rec: spans.Recorder) -> None:
    modules = []
    for suffix in MODULES:
        try:
            modules.append(importlib.import_module(PACKAGE + suffix))
        except ImportError:
            continue
    wrapped: dict[int, object] = {}
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj) or not obj.__module__.startswith(PACKAGE):
                continue
            name = _short(obj)
            if name in COUNTERS:
                new = wrapped.get(id(obj)) or rec.count(COUNTERS[name], obj)
            elif not attr.startswith("_") or name in EXTRA_SPANS:
                new = wrapped.get(id(obj)) or rec.wrap(name, obj, OBSERVERS.get(name))
            else:
                continue
            wrapped[id(obj)] = new
            setattr(mod, attr, new)


def layer_numbers(rec: spans.Recorder, import_s: float, scipy_at_import: bool) -> dict:
    """This process's contribution to the per-layer metrics."""
    s = rec.spans
    names = spans.by_name(s)

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def busy(name):
        return names.get(name, {}).get("busy_s", 0.0)

    def self_s(name):
        return names.get(name, {}).get("self_s", 0.0)

    out = {
        "cli.import_s": import_s,
        "cli.scipy_at_import": int(scipy_at_import),
        "cli.qsurface_self_s": self_s("cli.cmd_qsurface"),
        "cli.phase_diagram_self_s": self_s("cli.cmd_phase_diagram"),
        "cli.point_report_self_s": self_s("cli._point_report"),
        "qsurface.lattice_s": spans.busy_of(s, {"qsurface.q_lattice_arrays", "qsurface.q_grid_arrays"}),
        "qsurface.q_value_calls": calls("qsurface.q_value"),
        "qsurface.q_value_s": busy("qsurface.q_value"),
        "qsurface.build_trajectory_calls": calls("qsurface.build_trajectory"),
        "qsurface.build_trajectory_s": busy("qsurface.build_trajectory"),
        "synthesis.boundary_curves_calls": calls("synthesis.boundary_curves"),
        "synthesis.boundary_curves_s": busy("synthesis.boundary_curves"),
        "ernst.maximize_q_global_s": busy("ernst.maximize_q_global"),
        "ernst.nm_evals": spans.count_within(s, "qsurface.q_value", "ernst.maximize_q_global"),
        "ernst.q_max_surface_s": busy("ernst.q_max_surface"),
        "bloch.relax_calls": calls("bloch.relax"),
    }
    for fn in ("rk4_time_vertical", "rk4_time_magic", "simulate_structure",
               "cycle_fixed_point", "sweep_delta_pulse", "boundary_q_jump"):
        out[f"oracle.{fn}_s"] = busy(f"oracle.{fn}")
        out[f"oracle.{fn}_calls"] = calls(f"oracle.{fn}")
    out.update(dict.fromkeys(ZERO_COUNTS, 0))
    out.update(rec.counts)
    out["trace.spans"] = len(s)
    return out


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    cli = importlib.import_module(PACKAGE + ".cli")
    import_s = perf_counter() - t0
    scipy_at_import = "scipy.optimize" in sys.modules

    rec = spans.Recorder()
    install(rec)
    code = 1
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(layer_numbers(rec, import_s, scipy_at_import), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
