"""The benchmark's workloads: seeded, fixed-shape lists of CLI invocations.

A *session* is one workload's invocation list, run one process at a time.
The program sees only the argv built here; every random choice comes from
``random.Random(f"{workload}:{seed}:{session}")``, so the same seed and
session index always give the same inputs.

Why each workload exists, and which change it is there to show:

* ``map``   -- output formatting is ~93 % of a 512^2 CSV ``qsurface`` and
  ~98 % of the JSON one; the lattice kernel is ~50 ms and the oracle does
  not run.  Faster writers show here.
* ``verify`` -- scalar RK4 is ~98 % of the time and no writer runs.  A
  batched oracle, and a faster scalar ``q_value`` path under the fixed
  checks, show here.
* ``query`` -- import is ~90 % of every call and neither the writers nor
  the oracle work.  A lazy ``scipy`` import and input-robustness fixes
  show here.

Known failures at the commit that introduced the benchmark are listed on
the invocations that cause them (``known_defect``), with the failure
reason each one gives.  They count against ``ok_rate``; any other failure,
including a known-defect invocation failing for another reason, marks the
run incorrect.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import outcome

#: One rate pair (Gamma, gamma) per synthesis regime.
REGIMES = {"A": (3.0, 0.5), "B": (1.8, 1.0), "C": (0.5, 0.4)}

#: Factor by which the ``verify`` sample counts are cut from the CLI
#: defaults (100 transfers, 200 structure points, 200 Q-surface points),
#: so that one session takes about 6 s instead of about a minute and
#: several sessions fit in one run.
VERIFY_CUT = 20

#: The oracle's own ``--seed`` (the CLI default).  At these counts the RK4
#: work varies by a CV of ~23 % across oracle seeds (0.87 M to 1.77 M steps
#: over eight seeds; this one takes 1.24 M), more than any bound allows,
#: so the sample points stay fixed and the benchmark seed only orders the
#: invocations.
VERIFY_SEED = 12345


@dataclass(frozen=True)
class KnownDefect:
    """A failure on record: the :mod:`outcome` reason it gives, and why."""

    reason: str
    why: str


RIM_DEFECT = KnownDefect(
    outcome.NONFINITE,
    "lattice points (80/89, +-39/89) pass the y^2+z^2 < 1 filter but hypot "
    "rounds r_m to 1.0, so two rows carry t_control = inf",
)
OVERFLOW_DEFECT = KnownDefect(
    outcome.TRACEBACK,
    "ernst_solution calls math.expm1(2*gamma) at gamma = 400 and raises a raw "
    "OverflowError: traceback, exit 1",
)

WORKLOADS = ("map", "verify", "query")


@dataclass(frozen=True)
class Invocation:
    """One CLI process of a session.

    ``expect`` is "ok" (exit 0 with the expected output), "reject" (exit 2
    with a one-line ``error:`` message) or "either" (an input the program
    may answer or reject, but must not crash on).  ``check`` names the
    output check in :mod:`outcome`; ``outputs`` are the files the
    invocation writes, relative to the session directory.  ``golden`` is
    the key of the sha256 digest its first output must match.
    """

    label: str
    argv: tuple[str, ...]
    expect: str = "ok"
    check: str = "text"
    outputs: tuple[str, ...] = ()
    golden: str | None = None
    known_defect: KnownDefect | None = None


def _rates(gamma_t2: float, gamma_t1: float) -> tuple[str, ...]:
    return ("--Gamma", repr(gamma_t2), "--gamma", repr(gamma_t1))


def _map_session(rng: random.Random) -> list[Invocation]:
    inv = []
    for tag, (big_g, small_g) in REGIMES.items():
        out = f"qs512-{tag}.csv"
        inv.append(Invocation(
            f"qsurface-512-{tag}",
            ("qsurface", *_rates(big_g, small_g), "--grid-ny", "512", "--grid-nz", "512",
             "--format", "csv", "--out", out),
            check="qsurface-csv", outputs=(out, f"qs512-{tag}.meta.json"),
            golden=f"qsurface-512-{tag}",
        ))
    tag = rng.choice(sorted(REGIMES))  # every pair has the rim defect at 90^2
    inv.append(Invocation(
        f"qsurface-90-{tag}",
        ("qsurface", *_rates(*REGIMES[tag]), "--grid-ny", "90", "--grid-nz", "90",
         "--format", "csv", "--out", "qs90.csv"),
        check="qsurface-csv", outputs=("qs90.csv", "qs90.meta.json"), known_defect=RIM_DEFECT,
    ))
    inv.append(Invocation(
        "qsurface-512-B-json",
        ("qsurface", *_rates(*REGIMES["B"]), "--grid-ny", "512", "--grid-nz", "512",
         "--format", "json", "--out", "qs512-B.json"),
        check="qsurface-json", outputs=("qs512-B.json",), golden="qsurface-512-B",
    ))
    for n in (64, 512):
        out = f"pd{n}.csv"
        inv.append(Invocation(
            f"phase-diagram-{n}",
            ("phase-diagram", "--grid-ny", str(n), "--grid-nz", str(n), "--format", "csv",
             "--out", out),
            check="phase-csv", outputs=(out, f"pd{n}.meta.json"), golden=f"phase-diagram-{n}",
        ))
    rng.shuffle(inv)
    return inv


def _verify_session(rng: random.Random) -> list[Invocation]:
    counts = (
        "--n-transfers", str(100 // VERIFY_CUT),
        "--n-structure", str(200 // VERIFY_CUT),
        "--n-qsurface", str(200 // VERIFY_CUT),
    )
    inv = [
        Invocation(
            f"verify-{tag}",
            ("verify", *_rates(big_g, small_g), "--seed", str(VERIFY_SEED), *counts,
             "--format", "json"),
            check="verify",
        )
        for tag, (big_g, small_g) in REGIMES.items()
    ]
    rng.shuffle(inv)
    return inv


def _random_rates(rng: random.Random) -> tuple[float, float]:
    small_g = rng.uniform(0.2, 2.0)
    return rng.uniform(0.6 * small_g, 4.0), small_g


def _random_point(rng: random.Random) -> tuple[float, float]:
    # uniform by area over the half-disk of radius 0.95, away from y = 0
    r = 0.95 * math.sqrt(rng.uniform(0.01, 1.0))
    phi = rng.uniform(-0.5 * math.pi + 0.05, 0.5 * math.pi - 0.05)
    return r * math.cos(phi), r * math.sin(phi)


def _point_args(rng: random.Random, point: tuple[float, float] | None = None) -> tuple[str, ...]:
    y, z = point if point is not None else _random_point(rng)
    return (*_rates(*_random_rates(rng)), "--point", repr(y), repr(z))


def _query_session(rng: random.Random) -> list[Invocation]:
    inv = [
        Invocation("ernst-text", ("ernst", *_rates(*_random_rates(rng)))),
        Invocation("ernst-json", ("ernst", *_rates(*_random_rates(rng)), "--format", "json"),
                   check="ernst-json"),
    ]
    for cmd in ("classify", "trajectory"):
        inv.append(Invocation(f"{cmd}-text", (cmd, *_point_args(rng))))
        inv.append(Invocation(f"{cmd}-json", (cmd, *_point_args(rng), "--format", "json"),
                              check="point-json"))
    r = rng.uniform(1.05, 1.4)
    phi = rng.uniform(-0.5 * math.pi, 0.5 * math.pi)
    inv.append(Invocation(
        "reject-outside-disk",
        ("classify", *_point_args(rng, (r * math.cos(phi), r * math.sin(phi)))),
        expect="reject",
    ))
    inv.append(Invocation(
        "reject-negative-y",
        ("trajectory", *_point_args(rng, (-rng.uniform(0.05, 0.5), rng.uniform(-0.5, 0.5)))),
        expect="reject",
    ))
    small_g = rng.uniform(1.0, 2.0)
    inv.append(Invocation(
        "reject-unphysical",
        ("ernst", *_rates(rng.uniform(0.1, 0.45) * small_g, small_g)),
        expect="reject",
    ))
    inv.append(Invocation(
        "ernst-large-rates",
        ("ernst", "--Gamma", "800", "--gamma", "400", "--format", "json"),
        expect="either", check="ernst-json", known_defect=OVERFLOW_DEFECT,
    ))
    rng.shuffle(inv)
    return inv


_BUILDERS = {"map": _map_session, "verify": _verify_session, "query": _query_session}


def session(workload: str, seed: int, index: int) -> list[Invocation]:
    """The invocation list of session ``index`` of a run with ``seed``."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}:{index}"))
