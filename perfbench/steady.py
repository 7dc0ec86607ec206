"""Steadiness check: do two sets of runs of the same code agree within the bounds?

    python3 perfbench/steady.py run --workload map --seeds 1-10 --out a.json
    python3 perfbench/steady.py compare a.json b.json

``run`` calls the benchmark once per seed (tracing off) and stores every
end-to-end value.  ``compare`` applies the acceptance rule to two such
files, on every end-to-end metric: within each set the quartile spread of
the metric, as a share of its median, stays within the metric's bound, and
the two medians differ by no more than the bound, in either direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(first: dict[str, list[float]], second: dict[str, list[float]],
            metrics: list[dict]) -> list[str]:
    """Problems found; an empty list means the two sets agree."""
    problems = []
    for m in metrics:
        name, bound = m["name"], m["bound"]
        a, b = first[name], second[name]
        for label, values in (("first", a), ("second", b)):
            s = spread(values)
            if s > bound:
                problems.append(f"{name}: {label} spread {s:.4f} > {bound:.4f}")
        med_a, med_b = statistics.median(a), statistics.median(b)
        if abs(med_b - med_a) > bound * abs(med_a):
            problems.append(f"{name}: median {med_a:.6g} -> {med_b:.6g} moved by more than {bound:.4f}")
    return problems


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seeds: list[int], seconds: int) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: run reported incorrect output\n{proc.stdout}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        # the run's notes line carries the host reference time, for telling drift apart
        notes = json.loads(next(ln for ln in lines if ln.startswith(f"# {workload} ")).split(" ", 3)[3])
        for key in ("host.ref_s", "sessions", "setup_launches"):
            values.setdefault(key, []).append(notes[key])
        print(workload, seed, json.dumps({k: v[-1] for k, v in values.items()}), flush=True)
    return values


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--workload", required=True)
    p_run.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p_run.add_argument("--out", required=True)
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("first")
    p_cmp.add_argument("second")
    args = ap.parse_args(argv)

    if args.cmd == "run":
        values = run(args.workload, args.seeds, spec["run_seconds"])
        Path(args.out).write_text(json.dumps(values) + "\n")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            print(f"{m['name']:14s} median {statistics.median(v):.6g} spread {spread(v):.4f} "
                  f"(bound {m['bound']})")
        for key in ("host.ref_s", "sessions", "setup_launches"):
            v = values[key]
            print(f"{key:14s} median {statistics.median(v):.6g} spread {spread(v):.4f} "
                  f"range {min(v):.6g}-{max(v):.6g}")
        return 0
    first = json.loads(Path(args.first).read_text())
    second = json.loads(Path(args.second).read_text())
    problems = compare(first, second, spec["end_to_end"])
    for p in problems:
        print(p)
    print("steady" if not problems else "NOT steady")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
