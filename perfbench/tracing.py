"""Span tracing and job timing installed from outside the program.

Nothing here edits ``src/``: every probe is a wrapper that replaces a
method (or a module-level function) at class or module level, and
:class:`Patches` puts the original object back afterwards.  Because the
wrappers sit on the classes, both event loops are seen: the dict/heap
loop (``loop="python"``) and the struct-of-arrays loop (``loop="fast"``)
call the same pool, executor and scheduler methods.

Two instruments are built on the same patching:

* :class:`JobClock` — on in every run.  It wraps only
  ``SimulationEngine.__init__`` and ``SimulationEngine.run``, so it costs
  two clock reads per engine run, and records each run's host wall time
  (construction to result) and its engine counters.
* :class:`SpanRecorder` with :func:`install_layer_spans` — on only in the
  traced run.  Every call into a layer becomes a span; a layer's self time
  is its spans' durations minus the part covered by child spans, so the
  self times of all layers plus the time outside any span add up to the
  traced wall time exactly.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from types import SimpleNamespace
from typing import Any, Callable, Optional

#: Engine counters summed over jobs (``peak_event_heap`` is a maximum).
SUMMED_COUNTERS = (
    "events_processed",
    "dispatch_rounds",
    "dispatches_elided",
    "events_coalesced",
    "requests_aborted",
    "requests_retried",
    "requests_failed",
)


class Patches:
    """Replaces attributes of classes or modules and restores them in reverse."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        """Swap ``owner.<name>`` for ``make(function)``.

        The attribute must be defined on ``owner`` itself (not inherited),
        so restoring it puts back exactly the object that was there.
        Class- and static methods are unwrapped and rewrapped.
        """
        original = vars(owner)[name]
        if isinstance(original, (classmethod, staticmethod)):
            replacement: Any = type(original)(make(original.__func__))
        else:
            replacement = make(original)
        self._saved.append((owner, name, original))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


# --------------------------------------------------------------------- #
# job clock (every run)
# --------------------------------------------------------------------- #


class JobClock:
    """Host wall time and engine counters of every engine run.

    A job is one :class:`~repro.sim.engine.SimulationEngine`: its wall time
    runs from the start of ``__init__`` to the return of ``run()``, so it
    includes per-job engine set-up and ``bind``.  ``after_job``, if set, is
    called after each run's wall time is taken, outside it.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.after_job: Optional[Callable[[], None]] = None
        self.started = 0
        self.walls: list[float] = []
        self.counters: Counter = Counter()
        self.peak_event_heap = 0
        self._starts: dict[int, float] = {}

    def install(self, patches: Patches) -> None:
        """Wrap the engine's constructor and ``run`` on ``patches``."""
        from repro.sim.engine import SimulationEngine

        clock, starts = self.clock, self._starts

        def make_init(init: Callable) -> Callable:
            @functools.wraps(init)
            def __init__(engine: Any, *args: Any, **kwargs: Any) -> None:
                self.started += 1
                starts[id(engine)] = clock()
                init(engine, *args, **kwargs)

            __init__.__perfbench_span__ = "job_clock"  # type: ignore[attr-defined]
            return __init__

        def make_run(run: Callable) -> Callable:
            @functools.wraps(run)
            def wrapped_run(engine: Any) -> Any:
                result = run(engine)
                self.walls.append(clock() - starts.pop(id(engine)))
                counters = result.engine_counters or {}
                for key in SUMMED_COUNTERS:
                    self.counters[key] += counters.get(key, 0)
                self.peak_event_heap = max(self.peak_event_heap, counters.get("peak_event_heap", 0))
                if self.after_job is not None:
                    self.after_job()
                return result

            wrapped_run.__perfbench_span__ = "job_clock"  # type: ignore[attr-defined]
            return wrapped_run

        patches.replace(SimulationEngine, "__init__", make_init)
        patches.replace(SimulationEngine, "run", make_run)


# --------------------------------------------------------------------- #
# span recorder (traced run only)
# --------------------------------------------------------------------- #


class SpanRecorder:
    """Aggregates nested spans into per-layer call counts and self times.

    Spans are kept as running totals, not as a list, because the traced
    grid opens millions of them.  A span opened directly inside a span of
    the same layer is folded into it.  The open spans form a stack of
    ``[name, child_seconds]`` frames; when a span closes, its duration is
    added to its parent's child time, and its own duration minus its child
    time is added to its layer's self time.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stack: list[list] = []
        #: layer -> [calls, self seconds]
        self.cells: dict[str, list] = {}
        #: extra counts reported next to the spans (e.g. useful decisions).
        self.counts: Counter = Counter()

    def wrapper(
        self,
        name: str,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable[[Callable], Callable]:
        """A decorator factory that records a span named ``name`` per call."""
        cell = self.cells.setdefault(name, [0, 0.0])
        stack, clock = self.stack, self.clock

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def span(*args: Any, **kwargs: Any) -> Any:
                if stack and stack[-1][0] == name:
                    # A layer calling itself (super().bind, a pool method
                    # using another) is one call into the layer.
                    return fn(*args, **kwargs)
                frame = [name, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    cell[0] += 1
                    cell[1] += elapsed - frame[1]
                    if stack:
                        stack[-1][1] += elapsed
                if on_result is not None:
                    on_result(result)
                return result

            span.__perfbench_span__ = name  # type: ignore[attr-defined]
            return span

        return make

    def parent(self) -> Optional[str]:
        """Name of the innermost open span, if any."""
        return self.stack[-1][0] if self.stack else None

    def self_total(self) -> float:
        """Sum of every layer's self time."""
        return sum(cell[1] for cell in self.cells.values())


def _own_functions(cls: type, keep: Callable[[str], bool]) -> list[str]:
    """Names of the functions defined on ``cls`` itself that ``keep`` accepts."""
    return [
        name
        for name, value in vars(cls).items()
        if callable(value)
        and not isinstance(value, type)
        and keep(name)
        and not getattr(value, "__isabstractmethod__", False)
    ]


def _scheduler_classes() -> list[type]:
    """Every class in the MRO of a registered scheduler, base class included."""
    from repro.schedulers import make_scheduler, scheduler_names
    from repro.schedulers.base import Scheduler

    seen: list[type] = []
    for name in scheduler_names():
        for cls in type(make_scheduler(name)).__mro__:
            if issubclass(cls, Scheduler) and cls not in seen:
                seen.append(cls)
    return seen


#: Scheduler methods and the layer they are timed under.
SCHEDULER_LAYERS = {
    "schedule": "schedulers.schedule",
    "bind": "schedulers.bind",
    "on_request_arrival": "schedulers.hooks",
    "on_layers_complete": "schedulers.hooks",
    "on_request_finished": "schedulers.hooks",
}

#: Every span layer, in report order.
LAYERS = (
    "sim.engine.init",
    "sim.engine.run",
    "schedulers.schedule",
    "schedulers.hooks",
    "schedulers.bind",
    "sim.queues",
    "sim.executor",
    "sim.request.record_layers",
    "models.graph.sample_execution_path",
    "hardware.cost_table.build",
    "experiments.jobs.context",
    "sim.tracer.record",
    "sim.invariants.audit",
    "metrics.quantiles.add",
    "fleet.plan",
    "fleet.aggregate",
    "fleet.audit",
)


def _probed() -> SimpleNamespace:
    """The classes and modules whose attributes the traced run replaces."""
    import repro.experiments.differential as differential
    import repro.experiments.jobs as jobs
    import repro.fleet.invariants as fleet_invariants
    import repro.fleet.metrics as fleet_metrics
    import repro.sim.invariants as invariants
    from repro.fleet.simulator import FleetSimulator
    from repro.hardware.cost_table import CostTable
    from repro.metrics.quantiles import StreamingQuantiles
    from repro.models.graph import ModelGraph
    from repro.sim.engine import SimulationEngine
    from repro.sim.executor import AcceleratorExecutor
    from repro.sim.queues import RequestPool
    from repro.sim.request import InferenceRequest
    from repro.sim.tracer import Tracer

    return SimpleNamespace(
        differential=differential,
        jobs=jobs,
        fleet_invariants=fleet_invariants,
        fleet_metrics=fleet_metrics,
        invariants=invariants,
        FleetSimulator=FleetSimulator,
        CostTable=CostTable,
        StreamingQuantiles=StreamingQuantiles,
        ModelGraph=ModelGraph,
        SimulationEngine=SimulationEngine,
        AcceleratorExecutor=AcceleratorExecutor,
        RequestPool=RequestPool,
        InferenceRequest=InferenceRequest,
        Tracer=Tracer,
    )


def install_layer_spans(recorder: SpanRecorder, patches: Patches) -> None:
    """Wrap every layer's public entry points with spans on ``recorder``."""
    p = _probed()
    counts = recorder.counts

    def count_useful(decision: Any) -> None:
        if decision.assignments or decision.drops:
            counts["schedulers.schedule.useful"] += 1

    def count_build(_table: Any) -> None:
        if recorder.parent() == "experiments.jobs.context":
            counts["experiments.jobs.context.misses"] += 1

    def count_violations(key: str) -> Callable[[Any], None]:
        def add(violations: Any) -> None:
            counts[key] += len(violations)

        return add

    def count_plan(plan: Any) -> None:
        counts["fleet.plan.session_requests"] += plan.submitted
        counts["fleet.plan.admitted"] += len(plan.jobs)

    targets: list[tuple[str, Any, str, Optional[Callable[[Any], None]]]] = [
        ("sim.engine.init", p.SimulationEngine, "__init__", None),
        ("sim.engine.run", p.SimulationEngine, "run", None),
    ]
    for cls in _scheduler_classes():
        for name in _own_functions(cls, SCHEDULER_LAYERS.__contains__):
            targets.append((SCHEDULER_LAYERS[name], cls, name, count_useful if name == "schedule" else None))
    public = lambda name: not name.startswith("_")  # noqa: E731
    targets += [("sim.queues", p.RequestPool, name, None) for name in _own_functions(p.RequestPool, public)]
    targets += [
        ("sim.executor", p.AcceleratorExecutor, name, None)
        for name in ("start", "complete", "can_accept_assignment")
    ]
    targets += [
        ("sim.request.record_layers", p.InferenceRequest, "record_layers", None),
        ("models.graph.sample_execution_path", p.ModelGraph, "sample_execution_path", None),
        ("hardware.cost_table.build", p.CostTable, "build", count_build),
        # The context helpers are looked up as module globals, so each module
        # that imported them by name gets its own wrapper.
        ("experiments.jobs.context", p.jobs, "shared_context", None),
        ("experiments.jobs.context", p.jobs, "generated_context", None),
        ("experiments.jobs.context", p.differential, "generated_context", None),
        ("sim.tracer.record", p.Tracer, "record", None),
        ("sim.invariants.audit", p.invariants, "audit_trace", count_violations("sim.invariants.violations")),
        ("sim.invariants.audit", p.differential, "audit_trace", count_violations("sim.invariants.violations")),
        ("metrics.quantiles.add", p.StreamingQuantiles, "add", None),
        ("fleet.plan", p.FleetSimulator, "plan", count_plan),
        ("fleet.aggregate", p.fleet_metrics, "aggregate_fleet", None),
        ("fleet.audit", p.fleet_invariants, "audit_fleet", count_violations("fleet.audit.violations")),
    ]
    for layer, owner, name, on_result in targets:
        patches.replace(owner, name, recorder.wrapper(layer, on_result))


def wrapped_attributes() -> list[str]:
    """Every attribute on a probed class or module that still carries a probe.

    Empty after :meth:`Patches.restore`; the self-tests check exactly that.
    """
    owners = [*vars(_probed()).values(), *_scheduler_classes()]
    found = []
    for owner in owners:
        for name, value in vars(owner).items():
            if hasattr(getattr(value, "__func__", value), "__perfbench_span__"):
                found.append(f"{owner.__name__}.{name}")
    return found
