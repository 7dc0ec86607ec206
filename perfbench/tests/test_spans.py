"""Self-time arithmetic on synthetic span trees, and the recorder."""

import threading

import pytest

import spans

# (id, parent, name, t0, t1): a root with two children that overlap in time
# (as calls on two worker threads do) and one grandchild.
TREE = [
    (1, None, "cli.cmd_qsurface", 0.0, 10.0),
    (2, 1, "qsurface.q_lattice_arrays", 1.0, 4.0),
    (3, 1, "qsurface.q_lattice_arrays", 3.0, 6.0),
    (4, 2, "bloch.relax", 1.5, 2.0),
    (5, None, "cli.cmd_qsurface", 20.0, 21.0),
]


def test_union_length():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 1), (2, 3)]) == 2.0
    assert spans.union_length([(3, 6), (1, 4), (4.5, 5)]) == 5.0


def test_self_time_subtracts_union_of_children():
    selfs = spans.self_times(TREE)
    assert selfs == pytest.approx({1: 5.0, 2: 2.5, 3: 3.0, 4: 0.5, 5: 1.0})


def test_by_name_busy_is_union_and_self_is_sum():
    agg = spans.by_name(TREE)
    assert agg["qsurface.q_lattice_arrays"] == pytest.approx({"calls": 2, "busy_s": 5.0, "self_s": 5.5})
    assert agg["cli.cmd_qsurface"] == pytest.approx({"calls": 2, "busy_s": 11.0, "self_s": 6.0})


def test_count_within_walks_ancestors():
    assert spans.count_within(TREE, "bloch.relax", "cli.cmd_qsurface") == 1
    assert spans.count_within(TREE, "bloch.relax", "qsurface.q_lattice_arrays") == 1
    assert spans.count_within(TREE, "qsurface.q_lattice_arrays", "bloch.relax") == 0


def test_recorder_parents_and_worker_threads():
    rec = spans.Recorder()
    leaf = rec.wrap("leaf", lambda: None)

    def in_thread():
        t = threading.Thread(target=leaf)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    outer = rec.wrap("outer", lambda: (leaf(), in_thread()))
    outer()
    by_id = {s[0]: s for s in rec.spans}
    (outer_span,) = [s for s in rec.spans if s[2] == "outer"]
    leaves = [s for s in rec.spans if s[2] == "leaf"]
    assert outer_span[1] is None
    assert len(leaves) == 2 and all(s[1] == outer_span[0] for s in leaves)
    assert all(by_id[s[1]][3] <= s[3] <= s[4] <= outer_span[4] for s in leaves)


def test_recorder_closes_span_on_exception_and_counts():
    rec = spans.Recorder()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap("boom", boom)()
    counted = rec.count("n", lambda x: x + 1)
    assert [counted(i) for i in range(3)] == [1, 2, 3]
    assert [s[2] for s in rec.spans] == ["boom"] and rec.counts["n"] == 3
