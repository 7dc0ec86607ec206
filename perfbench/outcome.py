"""Outcome classifier behind ``ok_rate`` and the output checks.

An invocation is OK on exit 0 with the expected output, or on exit 2 with
a one-line ``error:`` message when the input may be rejected.  Every other
outcome fails, with one of the reasons below.  The checks look only at
facts that do not depend on the output layout, except for the sha256
digests of the golden CSVs, whose bytes must not change.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # workloads imports the failure reasons below
    from workloads import Invocation

# Failure reasons, one per kind.
EXIT_1 = "exit 1 outside verify"
EXIT_3 = "exit 3 (I/O failure)"
TRACEBACK = "traceback on stderr"
NONFINITE = "inf or nan in output"
DIGEST = "digest mismatch"
VERIFY_FAILED = 'verify report has "passed": false'
BAD_EXIT = "unexpected exit code"
BAD_REJECT = "exit 2 without a one-line error: message"
NOT_REJECTED = "invalid input accepted"
BAD_OUTPUT = "output check failed"
TIMEOUT = "timed out"

SCHEMA_PREFIX = "spin-snr-synth"
JSON_STDOUT = ("ernst-json", "point-json")
_NONFINITE_RE = re.compile(rb"(?<![A-Za-z])-?(?:inf(?:inity)?|nan)(?![A-Za-z])", re.IGNORECASE)


@dataclass
class Result:
    """What one finished process left behind."""

    inv: Invocation
    exit_code: int | None  # None when the process was killed on timeout
    stdout: bytes
    stderr: bytes
    files: dict[str, bytes] = field(default_factory=dict)


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    rows_out: int = 0
    bytes_out: int = 0
    margins: dict[str, float] = field(default_factory=dict)


def known_failure(inv: Invocation, verdict: Verdict) -> bool:
    """True when a failed invocation fails for the reason of its known defect."""
    return (not verdict.ok and inv.known_defect is not None
            and verdict.reason == inv.known_defect.reason)


def missing_margins(verdicts: list[Verdict], names: list[str]) -> list[str]:
    """The ``oracle.margin.<check>`` names whose check no verify report carried.

    Margins are maxima over regimes, and one regime may lack a check (C has
    no magic plane), so a check counts as present if any report has it.
    """
    seen = {f"oracle.margin.{check}" for v in verdicts for check in v.margins}
    return [name for name in names if name not in seen]


class CheckError(Exception):
    """An output check failed; the message carries the reason."""


def classify(res: Result, golden: dict) -> Verdict:
    """Decide whether one invocation succeeded, and why not."""
    inv = res.inv
    err = res.stderr.decode("utf-8", "replace")
    if res.exit_code is None:
        return Verdict(False, TIMEOUT)
    if "Traceback (most recent call last)" in err:
        return Verdict(False, TRACEBACK)
    if res.exit_code == 3:
        return Verdict(False, EXIT_3)
    if res.exit_code == 1 and inv.check != "verify":
        return Verdict(False, EXIT_1)
    if res.exit_code == 2:
        lines = err.strip().splitlines()
        if len(lines) != 1 or not lines[0].startswith("error:"):
            return Verdict(False, BAD_REJECT)
        if inv.expect == "ok":
            return Verdict(False, BAD_EXIT)
        return Verdict(True)
    if res.exit_code == 0 and inv.expect == "reject":
        return Verdict(False, NOT_REJECTED)
    if res.exit_code not in (0, 1):
        return Verdict(False, BAD_EXIT)
    try:
        return _check_output(res, golden)
    except CheckError as exc:
        return Verdict(False, str(exc))
    except (KeyError, TypeError, IndexError) as exc:
        return Verdict(False, f"{BAD_OUTPUT}: {exc!r}")


def _check_output(res: Result, golden: dict) -> Verdict:
    inv = res.inv
    blobs = [res.stdout, *(res.files.get(name, b"") for name in inv.outputs)]
    verdict = Verdict(True, bytes_out=sum(len(b) for b in blobs))
    missing = [name for name in inv.outputs if name not in res.files]
    if missing:
        raise CheckError(f"{BAD_OUTPUT}: missing {', '.join(missing)}")
    if inv.check == "verify":
        verdict.margins = _check_verify(res.stdout)
        if res.exit_code == 1:
            raise CheckError(VERIFY_FAILED)
        return verdict
    if res.exit_code != 0:
        raise CheckError(BAD_EXIT)

    primary = res.files[inv.outputs[0]] if inv.outputs else res.stdout
    golden_ok = False
    if inv.golden is not None and inv.check != "qsurface-json":
        if hashlib.sha256(primary).hexdigest() != golden[inv.golden]["sha256"]:
            raise CheckError(DIGEST)
        golden_ok = True  # golden bytes were checked free of inf/nan when recorded

    for name, blob in zip(("stdout", *inv.outputs), blobs):
        # JSON is parsed below, where json.loads flags NaN and Infinity.
        is_json = name.endswith(".json") or (name == "stdout" and inv.check in JSON_STDOUT)
        if is_json or (golden_ok and name == inv.outputs[0]):
            continue
        if _NONFINITE_RE.search(blob):
            raise CheckError(NONFINITE)

    if inv.check == "qsurface-csv":
        n_rows = _csv_rows(primary)
        meta = _load_json(res.files[inv.outputs[1]])
        if meta["n_lattice_rows"] != n_rows - meta["n_boundary_rows"]:
            raise CheckError(f"{BAD_OUTPUT}: n_lattice_rows disagrees with the CSV")
        verdict.rows_out = n_rows
    elif inv.check == "phase-csv":
        _load_json(res.files[inv.outputs[1]])
        verdict.rows_out = _csv_rows(primary)
    elif inv.check == "qsurface-json":
        doc = _load_json(primary)
        expected = golden[inv.golden]["n_lattice_rows"]
        if doc.get("n_lattice_rows") != expected:
            raise CheckError(f"{BAD_OUTPUT}: n_lattice_rows {doc.get('n_lattice_rows')} != {expected}")
        verdict.rows_out = expected + int(doc.get("n_boundary_rows", 0))
    elif inv.check == "ernst-json":
        _check_ernst(_load_json(res.stdout, schema=False))
    elif inv.check == "point-json":
        _check_point(_load_json(res.stdout, schema=False))
    elif not res.stdout.strip():
        raise CheckError(f"{BAD_OUTPUT}: empty stdout")
    return verdict


def _reject_constant(token: str):
    raise CheckError(NONFINITE)


def _load_json(blob: bytes, schema: bool = True) -> dict:
    try:
        doc = json.loads(blob, parse_constant=_reject_constant)
    except ValueError as exc:
        raise CheckError(f"{BAD_OUTPUT}: JSON does not parse ({exc})") from None
    if schema and not str(doc.get("schema", "")).startswith(SCHEMA_PREFIX):
        raise CheckError(f"{BAD_OUTPUT}: schema tag {doc.get('schema')!r}")
    return doc


def _csv_rows(blob: bytes) -> int:
    """Data rows of a CSV: lines minus '#' comments and the header."""
    lines = blob.count(b"\n")
    comments = sum(1 for line in blob[:4096].splitlines() if line.startswith(b"#"))
    return lines - comments - 1


def ernst_q(big_g: float, small_g: float) -> float:
    """Optimal Q from the Ernst closed form, written out independently.

    sqrt(e^(2g) - 1)/(1 + e^g) is divided through by e^g so that no term
    overflows at large rates.
    """
    return math.sqrt(-math.expm1(-2.0 * small_g)) / (
        (1.0 + math.exp(-small_g)) * math.sqrt(-math.expm1(-2.0 * big_g))
    )


def _check_ernst(doc: dict) -> None:
    params = doc["params"]
    expected = ernst_q(params["Gamma"], params["gamma"])
    if not math.isclose(doc["q"], expected, rel_tol=1e-9):
        raise CheckError(f"{BAD_OUTPUT}: Q {doc['q']} != closed form {expected}")


STRUCTURES = ("B", "BSvPosB", "BSvNegB", "BShB", "BShSvNegB")


def _check_point(doc: dict) -> None:
    if doc["structure"] not in STRUCTURES:
        raise CheckError(f"{BAD_OUTPUT}: unknown structure {doc['structure']!r}")
    q = doc["m"]["y"] / math.sqrt(1.0 + doc["t_control"])
    if not math.isclose(doc["q"], q, rel_tol=1e-12) or not doc["segments"]:
        raise CheckError(f"{BAD_OUTPUT}: Q {doc['q']} != y/sqrt(1+Tc) = {q}")


def _check_verify(stdout: bytes) -> dict[str, float]:
    """Margins (measured / tolerance) of every check in a verify report."""
    doc = _load_json(stdout, schema=False)
    checks = doc.get("checks") or []
    if not checks:
        raise CheckError(f"{BAD_OUTPUT}: verify report has no checks")
    if doc.get("passed") is not True:
        raise CheckError(VERIFY_FAILED)
    return {c["name"]: c["measured"] / c["tolerance"] for c in checks}
