"""Self-tests of the benchmark's span arithmetic and probe removal.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import JobClock, Patches, SpanRecorder, install_layer_spans, wrapped_attributes  # noqa: E402


class FakeClock:
    """A clock that advances only when the test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_of_nested_spans():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)

    @recorder.wrapper("inner")
    def inner(seconds):
        clock.advance(seconds)

    @recorder.wrapper("middle")
    def middle():
        clock.advance(1.0)
        inner(2.0)
        clock.advance(0.5)

    @recorder.wrapper("outer")
    def outer():
        clock.advance(3.0)
        middle()
        inner(4.0)

    outer()
    assert recorder.cells["outer"] == [1, 3.0]
    assert recorder.cells["middle"] == [1, 1.5]
    assert recorder.cells["inner"] == [2, 6.0]
    # Self times add up to the wall time of the outermost span.
    assert recorder.self_total() == clock.now == 10.5
    assert recorder.stack == []


def test_same_layer_call_is_folded_into_its_caller():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    layer = recorder.wrapper("pool")

    @layer
    def helper():
        clock.advance(1.0)

    @layer
    def public():
        clock.advance(1.0)
        helper()

    public()
    helper()
    assert recorder.cells["pool"] == [2, 3.0]


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)

    @recorder.wrapper("failing")
    def failing():
        clock.advance(2.0)
        raise KeyError("boom")

    with pytest.raises(KeyError):
        failing()
    assert recorder.cells["failing"] == [1, 2.0]
    assert recorder.stack == []


def _probed_state():
    from tracing import _probed, _scheduler_classes

    owners = [*vars(_probed()).values(), *_scheduler_classes()]
    return {id(owner): dict(vars(owner)) for owner in owners}


def test_traced_run_matches_untraced_and_every_probe_is_removed():
    from repro.hardware import make_platform
    from repro.schedulers import make_scheduler
    from repro.sim import run_simulation
    from repro.workloads import build_scenario

    def simulate():
        return run_simulation(
            build_scenario("ar_call"),
            make_platform("4k_1ws_2os"),
            make_scheduler("dream_full"),
            duration_ms=60.0,
            seed=3,
        )

    before = _probed_state()
    untraced = simulate()

    recorder, clock, patches = SpanRecorder(), JobClock(), Patches()
    clock.install(patches)
    install_layer_spans(recorder, patches)
    try:
        assert wrapped_attributes()
        traced = simulate()
    finally:
        patches.restore()

    assert traced.to_dict() == untraced.to_dict()
    assert recorder.cells["sim.engine.run"][0] == 1
    assert recorder.cells["schedulers.bind"][0] == 1
    assert recorder.cells["schedulers.schedule"][0] > 0
    assert recorder.cells["sim.queues"][0] > 0
    assert clock.started == len(clock.walls) == 1
    assert clock.counters["events_processed"] == untraced.engine_counters["events_processed"]
    assert wrapped_attributes() == []
    after = _probed_state()
    assert after.keys() == before.keys()
    for key, attributes in before.items():
        assert after[key].keys() == attributes.keys()
        for name, value in attributes.items():
            assert after[key][name] is value, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig7_grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_host_speed_takes_the_median_point_of_fastest_repeats(monkeypatch):
    import hostspeed

    clock = FakeClock()
    # Two passes of three points, each sample the fastest of three runs.
    runs = iter([
        0.030, 0.024, 0.026, 0.012, 0.020, 0.013, 0.018, 0.019, 0.017,
        0.010, 0.011, 0.012, 0.030, 0.030, 0.030, 0.016, 0.015, 0.014,
    ])
    monkeypatch.setattr(hostspeed, "kernel", lambda: clock.advance(next(runs)))
    speed = hostspeed.HostSpeed(clock=clock)
    for _ in range(2):
        speed.new_row()
        speed.sample(3)
    assert speed.rows[0] == pytest.approx([0.024, 0.012, 0.017])
    assert speed.rows[1] == pytest.approx([0.010, 0.030, 0.014])
    # Fastest repeats per point: 0.010, 0.012, 0.014.
    assert speed.kernel_s() == pytest.approx(0.012)
    assert speed.factor() == pytest.approx(hostspeed.REFERENCE_KERNEL_S / 0.012)
    assert speed.spent_s == pytest.approx(clock.now)


def test_quantile_order_check_names_impossible_quantiles():
    from types import SimpleNamespace

    from workloads import quantile_order_failures

    def job(*quantiles):
        stats = [
            SimpleNamespace(latency_quantiles=dict(zip(("p50", "p95", "p99"), q)) if q else None)
            for q in quantiles
        ]
        return SimpleNamespace(task_stats={str(i): s for i, s in enumerate(stats)})

    results = {
        "ordered": job((1.0, 2.0, 2.0), None),
        "p95_above_p99": job((1.0, 2.0, 3.0), (1.0, 2.016, 2.0)),
        "p50_above_p95": job((3.0, 2.0, 4.0)),
    }
    assert quantile_order_failures(results) == {"p95_above_p99", "p50_above_p95"}
