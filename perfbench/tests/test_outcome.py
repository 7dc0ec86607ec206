"""The outcome classifier: one case per failure kind, and the OK cases."""

import hashlib
import json

import outcome
import workloads
from workloads import Invocation

GOLDEN_CSV = b"# spin-snr-synth v1\ny,z,structure,t_control,q\n0.5,0,BSvPosB,0.25,0.4\n"
GOLDEN = {"g": {"sha256": hashlib.sha256(GOLDEN_CSV).hexdigest(), "n_lattice_rows": 1}}
META = json.dumps({"schema": "spin-snr-synth v1", "n_lattice_rows": 1, "n_boundary_rows": 0}).encode()


def verdict(inv, exit_code=0, stdout=b"done\n", stderr=b"", files=None):
    res = outcome.Result(inv, exit_code, stdout, stderr, files or {})
    return outcome.classify(res, GOLDEN)


TEXT = Invocation("ernst-text", ("ernst",))
QSURFACE = Invocation("qs", ("qsurface",), check="qsurface-csv",
                      outputs=("q.csv", "q.meta.json"), golden="g")
VERIFY = Invocation("verify", ("verify",), check="verify")
REJECT = Invocation("bad", ("classify",), expect="reject")


def verify_report(passed, measured=1e-7, names=("axis-time-vs-rk4",)):
    checks = [{"name": name, "tolerance": 1e-6, "measured": measured, "passed": passed}
              for name in names]
    return json.dumps({"passed": passed, "checks": checks}).encode()


def test_ok_text():
    assert verdict(TEXT).ok


def test_ok_golden_csv_counts_rows_and_bytes():
    v = verdict(QSURFACE, stdout=b"", files={"q.csv": GOLDEN_CSV, "q.meta.json": META})
    assert v.ok and v.rows_out == 1 and v.bytes_out == len(GOLDEN_CSV) + len(META)


def test_ok_reject_with_one_line_error():
    assert verdict(REJECT, exit_code=2, stdout=b"", stderr=b"error: outside the disk\n").ok


def test_ok_verify_reports_margins():
    v = verdict(VERIFY, stdout=verify_report(True))
    assert v.ok and abs(v.margins["axis-time-vs-rk4"] - 0.1) < 1e-12


def test_exit_1_outside_verify():
    assert verdict(TEXT, exit_code=1).reason == outcome.EXIT_1


def test_exit_3():
    assert verdict(TEXT, exit_code=3, stderr=b"I/O error: denied\n").reason == outcome.EXIT_3


def test_traceback_on_stderr():
    err = b"Traceback (most recent call last):\n  ...\nOverflowError: math range error\n"
    assert verdict(TEXT, exit_code=1, stderr=err).reason == outcome.TRACEBACK


def test_inf_or_nan_in_output():
    assert verdict(TEXT, stdout=b"  T_c = inf   Q = 0\n").reason == outcome.NONFINITE
    csv = GOLDEN_CSV.replace(b"0.25", b"inf")
    plain = Invocation("qs90", ("qsurface",), check="qsurface-csv", outputs=("q.csv", "q.meta.json"))
    assert verdict(plain, stdout=b"", files={"q.csv": csv, "q.meta.json": META}).reason == outcome.NONFINITE
    point = Invocation("p", ("classify",), check="point-json")
    assert verdict(point, stdout=b'{"q": NaN}').reason == outcome.NONFINITE


def test_digest_mismatch():
    files = {"q.csv": GOLDEN_CSV.replace(b"0.4", b"0.41"), "q.meta.json": META}
    assert verdict(QSURFACE, stdout=b"", files=files).reason == outcome.DIGEST


def test_verify_report_not_passed():
    assert verdict(VERIFY, exit_code=1, stdout=verify_report(False, 2e-6)).reason == outcome.VERIFY_FAILED


def test_reject_needs_one_line_error():
    err = b"usage: spin-snr-synth classify ...\nspin-snr-synth: error: bad value\n"
    assert verdict(REJECT, exit_code=2, stderr=err).reason == outcome.BAD_REJECT


def test_invalid_input_accepted():
    assert verdict(REJECT, exit_code=0).reason == outcome.NOT_REJECTED


def test_timeout():
    assert verdict(TEXT, exit_code=None).reason == outcome.TIMEOUT


def test_ernst_q_checked_against_closed_form():
    inv = Invocation("e", ("ernst",), check="ernst-json")
    q = outcome.ernst_q(1.8, 1.0)
    good = json.dumps({"params": {"Gamma": 1.8, "gamma": 1.0}, "q": q}).encode()
    bad = json.dumps({"params": {"Gamma": 1.8, "gamma": 1.0}, "q": q * 1.001}).encode()
    assert verdict(inv, stdout=good).ok
    assert not verdict(inv, stdout=bad).ok


def test_ernst_closed_form_is_finite_at_large_rates():
    assert outcome.ernst_q(800.0, 400.0) == 1.0
    assert abs(outcome.ernst_q(1.8, 1.0) - 0.68927398042465) < 1e-12


def test_malformed_json_fails_without_raising():
    inv = Invocation("e", ("ernst",), check="ernst-json")
    assert verdict(inv, stdout=b'{"q": 0.5}').reason.startswith(outcome.BAD_OUTPUT)


def test_margin_missing_from_every_verify_report():
    names = ["oracle.margin.axis-time-vs-rk4", "oracle.margin.magic-time-vs-rk4"]
    a = verdict(VERIFY, stdout=verify_report(True, names=("axis-time-vs-rk4", "magic-time-vs-rk4")))
    c = verdict(VERIFY, stdout=verify_report(True))  # regime C has no magic plane
    assert outcome.missing_margins([a, c], names) == []
    assert outcome.missing_margins([c, c], names) == ["oracle.margin.magic-time-vs-rk4"]


RIM = Invocation("qs90", ("qsurface",), check="qsurface-csv", outputs=("q.csv", "q.meta.json"),
                 known_defect=workloads.RIM_DEFECT)
OVERFLOW = Invocation("big", ("ernst",), expect="either", check="ernst-json",
                      known_defect=workloads.OVERFLOW_DEFECT)


def test_known_defect_failing_for_its_reason_is_known():
    csv = GOLDEN_CSV.replace(b"0.25", b"inf")
    v = verdict(RIM, stdout=b"", files={"q.csv": csv, "q.meta.json": META})
    assert v.reason == outcome.NONFINITE and outcome.known_failure(RIM, v)
    err = b"Traceback (most recent call last):\n  ...\nOverflowError: math range error\n"
    v = verdict(OVERFLOW, exit_code=1, stderr=err)
    assert v.reason == outcome.TRACEBACK and outcome.known_failure(OVERFLOW, v)


def test_known_defect_failing_for_another_reason_is_not_known():
    err = b"Traceback (most recent call last):\n  ...\nValueError: boom\n"
    v = verdict(RIM, exit_code=1, stderr=err)
    assert v.reason == outcome.TRACEBACK and not outcome.known_failure(RIM, v)
    v = verdict(RIM, stdout=b"", files={"q.csv": GOLDEN_CSV})  # sidecar dropped
    assert not v.ok and not outcome.known_failure(RIM, v)
    wrong_q = json.dumps({"params": {"Gamma": 800.0, "gamma": 400.0}, "q": 0.5}).encode()
    v = verdict(OVERFLOW, stdout=wrong_q)
    assert v.reason.startswith(outcome.BAD_OUTPUT) and not outcome.known_failure(OVERFLOW, v)


def test_known_defect_fixed_is_ok():
    right_q = json.dumps({"params": {"Gamma": 800.0, "gamma": 400.0}, "q": 1.0}).encode()
    v = verdict(OVERFLOW, stdout=right_q)
    assert v.ok and not outcome.known_failure(OVERFLOW, v)
