"""The benchmark's own tests: input determinism, the tail rule, failure counting.

    python3 -m pytest bench/tests -q
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import inputs  # noqa: E402
import metrics  # noqa: E402
from runner import Loop, Op  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    a = inputs.digest(inputs.build(workload, 7))
    assert a == inputs.digest(inputs.build(workload, 7))
    assert a != inputs.digest(inputs.build(workload, 8))


@pytest.mark.parametrize("n_ops", [20, 47, 48, 64, 99, 100, 102, 999, 1000, 2400, 16000, 10**5])
def test_tail_rule_keeps_ten_ops_beyond(n_ops):
    p = metrics.tail_percentile(n_ops)
    assert p is not None
    assert n_ops - metrics.rank_of(p, n_ops) >= metrics.MIN_BEYOND
    higher = [q for q in metrics.TAIL_GRID if q > p]
    assert all(n_ops - metrics.rank_of(q, n_ops) < metrics.MIN_BEYOND for q in higher)
    values = list(range(n_ops))
    cut = metrics.percentile(values, p)
    assert sum(v > cut for v in values) >= metrics.MIN_BEYOND


def test_tail_rule_needs_enough_ops():
    assert metrics.tail_percentile(19) is None


def test_failing_op_is_counted_and_the_run_continues():
    calls = []

    def boom():
        calls.append("boom")
        raise ValueError("broken")

    ops = [
        Op("ok", "k", lambda: calls.append("ok") or 1),
        Op("bad_check", "k", lambda: 2, check=lambda out: "wrong answer"),
        Op("raises", "k", boom),
        Op("after", "k", lambda: calls.append("after") or 3),
    ]
    loop = Loop(ops)
    loop.one_pass()
    loop.one_pass()
    assert calls == ["ok", "boom", "after"] * 2
    assert loop.attempted == 8
    assert loop.failed == 4
    assert loop.failed / loop.attempted == 0.5
    assert {f["op"] for f in loop.failures} == {"bad_check", "raises"}
    assert len(loop.latencies) == 8 and len(loop.pass_walls) == 2


def test_output_change_between_passes_is_a_failure():
    outputs = iter([1, 2])
    loop = Loop([Op("drift", "k", lambda: next(outputs))])
    loop.one_pass()
    loop.one_pass()
    assert [f["error"] for f in loop.failures] == ["output differs from the first pass"]
