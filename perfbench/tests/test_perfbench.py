"""Tests of the benchmark's own arithmetic and checks.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import statistics
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import compare  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, self_times  # noqa: E402


def test_self_time_subtracts_time_covered_by_children():
    # 0: [0, 10] root; 1: [1, 4] and 2: [5, 6] under 0; 3: [2, 3] under 1
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent).tolist() == [6.0, 2.0, 1.0, 1.0]


def test_self_time_of_a_slice_treats_outside_parents_as_roots():
    # the same spans at absolute indices 7..10 under an earlier root 3
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    parent = [3, 7, 8, 7]
    assert self_times(start, end, parent, base=7).tolist() == [6.0, 2.0, 1.0, 1.0]


class _Layers:
    @staticmethod
    def outer(n):
        return _Layers.inner(n) + _Layers.inner(n)

    @staticmethod
    def inner(n):
        return sum(range(n))


def test_tracer_links_parents_and_restores_attributes():
    inner, outer = _Layers.inner, _Layers.outer
    tracer = Tracer()
    tracer.wrap(_Layers, "inner", "b.inner")
    tracer.wrap(_Layers, "outer", "a.outer")
    lo = tracer.begin_pass()
    tracer.op_id = 4
    assert _Layers.outer(1000) == 2 * sum(range(1000))
    tracer.restore()
    assert (_Layers.inner, _Layers.outer) == (inner, outer)

    names = [tracer.names[i] for i in tracer.name_id]
    assert names == ["a.outer", "b.inner", "b.inner"]
    assert list(tracer.parent) == [-1, 0, 0]
    assert list(tracer.op) == [4, 4, 4]
    summary = tracer.summarize(lo, len(tracer))
    assert summary["b.inner"]["calls"] == 2
    total = summary["a.outer"]["s"]
    own = summary["a.outer"]["self_s"] + summary["b.inner"]["self_s"]
    assert own == pytest.approx(total)


@pytest.mark.parametrize(
    "n, q", [(1000, 90), (100, 90), (99, 89), (50, 80), (20, 50), (11, 9)]
)
def test_tail_percentile_leaves_ten_samples_beyond(n, q):
    assert run.tail_percentile(n) == q
    assert n * (100 - q) / 100 >= 10


def test_tail_percentile_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        run.tail_percentile(10)


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == probes.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)


def _result(backend):
    return {"workload": "records", "trace": 0, "env": {"backend": backend}, "metrics": {}}


def test_compare_refuses_results_from_different_backends(tmp_path):
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(_result("python")))
    new.write_text(json.dumps(_result("cython")))
    assert compare.refusal(_result("python"), _result("cython"))
    assert compare.main([str(base), str(new)]) == 2
    new.write_text(json.dumps(_result("python")))
    assert compare.main([str(base), str(new)]) == 0


@pytest.fixture(scope="module")
def expected():
    return json.loads(run.EXPECTED.read_text())


@pytest.mark.parametrize("name, keep", [("records", 40), ("sections", 8)])
def test_two_traced_runs_give_identical_counts(name, keep, expected, tmp_path):
    def counts():
        workload = workloads.WORKLOADS[name](7, expected, tmp_path)
        workload.ops = workload.ops[:keep]
        metrics, passes, repeat = run.traced(workload, 0.0, f"test-{name}")
        assert repeat
        assert all(ok for _start, _wall, results in passes for _s, _ms, ok in results)
        return {m: v for m, v in metrics.items() if probes.PER_LAYER[m] != "s"}

    first = counts()
    first.pop("trace.overhead_ratio")
    second = counts()
    second.pop("trace.overhead_ratio")
    assert first == second
    assert first["trace.spans"] > 0


def test_corrupted_certificates_differ_from_the_original(expected):
    cert = expected["records"]["corpus"][0]
    for field in workloads.CORRUPTIONS:
        assert workloads.corrupt(cert, field)[field] != cert[field]


def test_speed_scale_uses_the_probes_near_the_interval():
    meter = speed.SpeedMeter()
    meter.at = [0.0, 0.1, 0.2, 1.0, 1.1, 1.2]
    meter.took = [0.001, 0.001, 0.001, 0.002, 0.002, 0.002]
    assert meter.scale(0.05, 0.1) == pytest.approx(0.1)  # probes at reference speed
    assert meter.scale(1.05, 0.1) == pytest.approx(0.05)  # host at half speed
    # no probe within the window: widen to the nearest ones, at least three
    assert meter.scale(0.5, 0.01) == pytest.approx(0.01 / 1.5)


def _spin(n):
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def _scaled_median_op(n, reps=15):
    """Median scaled latency of ``_spin(n)`` in a run of its own."""
    times = []
    with speed.SpeedMeter() as meter:
        for _ in range(reps):
            start = meter.clock()
            _spin(n)
            times.append((start, meter.clock() - start))
    return statistics.median(meter.scale(start, seconds) for start, seconds in times)


@pytest.mark.parametrize("live_heap", [0, 400_000])
def test_speed_scaling_keeps_a_twofold_slowdown(live_heap):
    # The probe runs in the measured process, so a change that doubles the
    # work and also grows the heap (a memo, say) must still read as 2x.
    base = _scaled_median_op(200_000)
    memo = {i: (i, str(i)) for i in range(live_heap)}
    slow = _scaled_median_op(400_000)
    assert len(memo) == live_heap
    assert 1.6 < slow / base < 2.5
