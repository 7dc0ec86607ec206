"""End-to-end benchmark of the ``spin_snr_synth`` CLI.

    python3 perfbench/run.py --workload map|verify|query --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One closed-loop client starts
``python -m spin_snr_synth ...`` as fresh processes, one at a time, from
the seeded invocation lists in :mod:`workloads`, and checks every output
with :mod:`outcome`.  It sets no program knob.

With ``--trace 0`` it repeats a cycle of one ``--version`` launch and one
session while another cycle fits in ``--seconds``, spends the time left on
more launches, and prints the end-to-end metrics: trimmed means over
sessions (``wall_s``, ``cpu_s``) and over launches (``setup_s``), and the
median over sessions of ``peak_rss_mb``.
With ``--trace 1`` it alternates an untraced session with the same session
launched through :mod:`shim`, and prints the per-layer metrics, medians
over the traced sessions.  The last line of stdout is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

import numpy as np

import outcome
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: ``--version`` launches per run, at least; one precedes each session.
MIN_SETUP = 6
#: Host reference loops timed after each session.
REF_REPEATS = 5
#: Per-invocation time limit; the slowest invocation takes a few seconds.
INVOCATION_TIMEOUT_S = 120.0
#: Peak RSS of one invocation above which the run prints a warning.
RSS_WARN_MB = 512.0
#: Share of the values dropped at each end before the times are averaged.
TRIM = 0.1


@dataclass
class Session:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    verdicts: list[tuple[workloads.Invocation, outcome.Verdict]]
    layers: dict[str, float] = field(default_factory=dict)


class Client:
    """Launches program processes one at a time and measures each."""

    def __init__(self) -> None:
        self.env = dict(os.environ)
        self.env.pop("SPIN_SNR_THREADS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )

    def launch(self, cmd: list[str], cwd: Path, tag: str):
        """Run one process to completion; returns exit code (None on timeout), wall, cpu, rss."""
        out_path, err_path = cwd / f"{tag}.stdout", cwd / f"{tag}.stderr"
        fired = []
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(INVOCATION_TIMEOUT_S, lambda: (fired.append(1), proc.kill()))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        code = None if fired else proc.returncode
        return code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def setup_launch(self) -> float:
        WORK.mkdir(exist_ok=True)
        code, wall, _, _ = self.launch([sys.executable, "-m", "spin_snr_synth", "--version"],
                                       WORK, "version")
        text = (WORK / "version.stdout").read_text().strip()
        if code != 0 or not text:
            raise RuntimeError(f"--version launch failed (exit {code})")
        return wall

    def session(self, invs, traced: bool, golden: dict, label: str) -> Session:
        sdir = WORK / label
        sdir.mkdir(parents=True)
        raw = []
        t0 = perf_counter()
        for i, inv in enumerate(invs):
            if traced:
                cmd = [sys.executable, str(HERE / "shim.py"), str(sdir / f"{i}.trace"), *inv.argv]
            else:
                cmd = [sys.executable, "-m", "spin_snr_synth", *inv.argv]
            raw.append(self.launch(cmd, sdir, str(i)))
        wall = perf_counter() - t0

        verdicts = []
        layer_parts = []
        for i, (inv, (code, *_)) in enumerate(zip(invs, raw)):
            files = {name: (sdir / name).read_bytes() for name in inv.outputs if (sdir / name).is_file()}
            res = outcome.Result(inv, code, (sdir / f"{i}.stdout").read_bytes(),
                                 (sdir / f"{i}.stderr").read_bytes(), files)
            verdicts.append((inv, outcome.classify(res, golden)))
            del files, res
            trace = sdir / f"{i}.trace"
            if traced and trace.is_file():
                layer_parts.append(json.loads(trace.read_text()))
        shutil.rmtree(sdir)
        sess = Session(wall, sum(r[2] for r in raw), max(r[3] for r in raw), verdicts)
        if traced:
            sess.layers = _session_layers(layer_parts, verdicts)
        return sess


def _session_layers(parts: list[dict], verdicts) -> dict[str, float]:
    """Sum the per-process layer numbers of one traced session."""
    total: dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            if key not in ("cli.import_s", "cli.scipy_at_import"):
                total[key] = total.get(key, 0) + value
    total["cli.import_s"] = statistics.median(p["cli.import_s"] for p in parts) if parts else 0.0
    total["cli.scipy_at_import"] = max((p["cli.scipy_at_import"] for p in parts), default=0)
    total["cli.bytes_out"] = sum(v.bytes_out for _, v in verdicts)
    total["cli.rows_out"] = sum(v.rows_out for _, v in verdicts)
    for _, v in verdicts:
        for check, margin in v.margins.items():
            key = f"oracle.margin.{check}"
            total[key] = max(total.get(key, 0.0), margin)
    return total


def trimmed_mean(values) -> float:
    """Mean of ``values`` without the highest and lowest ``TRIM`` share of them.

    On a shared host the speed can swing by a quarter or more within a run,
    often between two levels.  The median of a few sessions then jumps from one level to
    the other; the mean moves in proportion to the time spent at each.  The
    trim keeps one stalled launch from moving it.
    """
    ordered = sorted(values)
    k = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[k:len(ordered) - k])


def host_reference() -> float:
    """Wall time of a fixed pure-Python plus numpy loop; tracks host drift."""
    t0 = perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    arr = np.arange(200_000, dtype=float)
    for _ in range(20):
        arr = np.sqrt(arr * 1.0000001 + 1.0)
    np.sort(arr[::-1])
    return perf_counter() - t0 if acc >= 0 else 0.0


def provenance() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(), **versions}


def _cycle_loop(seconds: float, cycle, reserve=lambda: 0.0) -> float:
    """Call ``cycle(k)`` for k = 0, 1, ... while another cycle fits in ``seconds``.

    ``reserve()`` is time to keep free after the last cycle.  Returns the
    ``perf_counter()`` time at which ``seconds`` run out.
    """
    t_start = perf_counter()
    longest = 0.0
    k = 0
    while True:
        t0 = perf_counter()
        cycle(k)
        longest = max(longest, perf_counter() - t0)
        k += 1
        if perf_counter() + longest + reserve() > t_start + seconds:
            return t_start + seconds


def run_plain(client: Client, workload: str, seed: int, seconds: float, golden: dict):
    setup, sessions, refs = [], [], []

    def cycle(k):
        setup.append(client.setup_launch())
        sessions.append(client.session(workloads.session(workload, seed, k), False, golden, f"s{k}"))
        refs.extend(host_reference() for _ in range(REF_REPEATS))

    def owed():  # time for the launches still missing to MIN_SETUP
        return max(0, MIN_SETUP - len(setup)) * statistics.median(setup)

    client.setup_launch()  # warm-up: byte-code cache and page cache, not timed
    t_end = _cycle_loop(seconds, cycle, owed)
    while len(setup) < MIN_SETUP or perf_counter() + statistics.median(setup) < t_end:
        setup.append(client.setup_launch())
    verdicts = [v for s in sessions for v in s.verdicts]
    failed = sum(not v.ok for _, v in verdicts)
    metrics = {
        "setup_s": trimmed_mean(setup),
        "wall_s": trimmed_mean(s.wall_s for s in sessions),
        "cpu_s": trimmed_mean(s.cpu_s for s in sessions),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in sessions),
        "ok_rate": 1.0 - failed / len(verdicts),
    }
    notes = {"sessions": len(sessions), "session_wall_s": [round(s.wall_s, 3) for s in sessions],
             "session_cpu_s": [round(s.cpu_s, 3) for s in sessions], "setup_launches": len(setup),
             "host.ref_s": statistics.median(refs),
             "max_rss_mb": max(s.peak_rss_mb for s in sessions)}
    return metrics, verdicts, notes


def run_traced(client: Client, workload: str, seed: int, seconds: float, golden: dict):
    plain, traced, refs = [], [], []

    def cycle(k):
        invs = workloads.session(workload, seed, 0)  # the same inputs every cycle
        plain.append(client.session(invs, False, golden, f"p{k}"))
        traced.append(client.session(invs, True, golden, f"t{k}"))
        refs.extend(host_reference() for _ in range(REF_REPEATS))

    client.setup_launch()
    _cycle_loop(seconds, cycle)
    verdicts = [v for s in plain + traced for v in s.verdicts]
    keys = set().union(*(s.layers for s in traced))
    metrics = {k: statistics.median(s.layers.get(k, 0) for s in traced) for k in keys}
    metrics["host.ref_s"] = statistics.median(refs)
    metrics["trace.overhead_s"] = (statistics.median(s.wall_s for s in traced)
                                   - statistics.median(s.wall_s for s in plain))
    notes = {"cycles": len(traced), "trace.spans": metrics.pop("trace.spans", 0),
             "max_rss_mb": max(s.peak_rss_mb for s in plain + traced)}
    return metrics, verdicts, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "spin_snr_synth" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'spin_snr_synth'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((HERE / "golden.json").read_text())

    shutil.rmtree(WORK, ignore_errors=True)
    client = Client()
    try:
        runner = run_traced if args.trace else run_plain
        metrics, verdicts, notes = runner(client, args.workload, args.seed, args.seconds, golden)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    failed = [(inv, v) for inv, v in verdicts if not v.ok]
    unexpected = [(inv, v) for inv, v in failed if not outcome.known_failure(inv, v)]
    print(f"# host {json.dumps(provenance())}")
    print(f"# {args.workload} seed={args.seed} {json.dumps(notes)}")
    for line in dict.fromkeys(
        f"# failed [{'known defect' if outcome.known_failure(inv, v) else 'UNEXPECTED'}] "
        f"{inv.label}: {v.reason}: {' '.join(inv.argv)}" for inv, v in failed
    ):
        print(line)
    if notes["max_rss_mb"] > RSS_WARN_MB:
        print(f"# warning: an invocation peaked at {notes['max_rss_mb']:.0f} MB")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    # A verify run whose reports dropped a check fails its output check; other
    # workloads never run verify, and their margins read 0.
    margins = [m["name"] for m in spec["per_layer"] if m["name"].startswith("oracle.margin.")]
    absent = []
    if args.workload == "verify":
        absent = outcome.missing_margins([v for _, v in verdicts], margins)
    for name in absent:
        print(f"# verify reports lack the check behind {name}")
    result = {}
    for m in wanted:
        name = m["name"]
        if name.startswith("oracle.margin."):
            value = metrics.get(name, 0.0)
        else:
            value = metrics[name]
        result[name] = {"value": value, "unit": m["unit"]}
        print(f"{args.workload:7s} {name:48s} {value:.6g} {m['unit']}")
    if not args.trace:
        print(f"{args.workload:7s} {'error_rate':48s} {len(failed) / len(verdicts):.6g} ratio")
    correct = not unexpected and not absent and all(math.isfinite(r["value"]) for r in result.values())
    print(json.dumps({"correct": correct, "attempted": len(verdicts), "failed": len(failed),
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
