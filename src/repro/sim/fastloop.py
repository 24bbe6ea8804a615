"""The struct-of-arrays event loop: the one event loop of fast mode.

Every ``SimulationEngine(mode="fast")`` run — faulted or not — drains its
events here; the engine's own dict/heap loop serves only
``mode="reference"``, which stays the differential oracle.  This loop
attacks the *per-event floor* (see docs/performance.md): heap tuple churn,
per-event attribute and property lookups, and dispatch bookkeeping.  It
produces **bit-for-bit identical** results and traces to reference mode —
the parity sweep, the fault-parity tests and the bench-engine per-cell
parity assertions enforce it.

Design
------
* **Arrival slot arrays instead of heap entries.**  Streaming arrivals
  guarantee at most one pending arrival per head task, so arrivals live
  in preallocated parallel arrays (one integer-indexed slot per head
  task, ordered by task name): next-arrival time, frame payload,
  prefetched :class:`~repro.workloads.scenario.TaskSpec` and the lazy
  frame iterator.  The next arrival is the running minimum over a
  handful of floats — no tuple allocation, no heap sift — and it is
  recomputed only when a slot refills (completions cannot move it).
  Scanning in task-name order with a strict ``<`` reproduces the
  historical ``(arrival_ms, task_name)`` tie-break exactly, because two
  arrivals of the *same* task never coexist.
* **Integer-coded completions on a slim heap.**  Completion events carry
  ``(end_ms, seq, (acc_id << 48) | slot_id)`` — a 3-tuple of scalars
  instead of the 5-tuple with string kind and payload tuple.  ``seq`` is
  the same monotone push-order tie-break as the engine's, and the merge
  rule *arrival wins ties* reproduces ``_PRIO_ARRIVAL < _PRIO_COMPLETE``.
  Retry re-arrivals after an outage abort are completion-class events
  too: they share the heap and the sequence, with the code ``-1`` and
  the request parked in a side table keyed by ``seq``.
* **Fault transitions as a static sorted list.**  A fault plan is known
  up front, so its begin/end transitions are sorted once by the engine's
  heap key ``(time, _PRIO_FAULT, (phase, index))`` and walked with a
  cursor; they win ties against arrivals and completions.  Their effect
  (capacity, latency, aborts, retries) is the engine's shared fault code
  path; this loop only pushes the returned retries.  Completions of slots
  an outage killed are swallowed when they surface.
* **Inlined transitions.**  The arrival → dispatch → progress → finalize
  transitions, the wake-hint elision predicate (fully unrolled against
  hoisted hint fields and the pool's raw pending list), same-timestamp
  coalescing and the decision application (terminal state and capacity
  checks inlined) all live in one monomorphic ``run()`` with hot state in
  locals.  Free fractions are ``executor._capacity - executor._allocated``,
  bit-identical to the historical ``1.0 - _allocated`` at full capacity.
  Scheduler lifecycle hooks that are not overridden (the base-class
  no-ops) are detected once and never called.
* **One view, refreshed in place.**  The run builds one
  :class:`~repro.sim.decisions.SystemView` and one
  :class:`~repro.sim.decisions.AcceleratorView` per executor up front and
  passes the same objects to every ``schedule()`` call.  At each
  scheduling point only the fields that moved are rewritten through the
  instance ``__dict__``: ``now_ms``; a pool snapshot when its version
  counter moved; an accelerator's fields when its executor's
  ``state_version`` moved.
* **Compilable subset.**  Everything here is fully annotated, avoids
  closures and dynamic attributes on the hot path, and stays inside the
  mypyc-compilable subset; ``pip install .[compiled]`` plus the gated
  ``build_ext`` hook in setup.py compiles this module to a C extension
  that shadows the ``.py`` under the same import name
  (``loop="compiled"`` asserts that build is active, see
  :mod:`repro.sim.loops`).

Cold paths (request finalization, cascade spawning, expiry, fault
transitions, retries, tracing) delegate to the engine's own methods so the
statistics/trace logic exists exactly once; the loop keeps ``engine._now``
synced so those methods see the same clock they would under the reference
loop.  The loop holds the engine, never the other way round, so a finished
run leaves no reference cycle behind.
"""

from __future__ import annotations

import heapq
from dataclasses import replace
from typing import Any, Dict, Iterator, List, Optional

from repro.sim.decisions import AcceleratorView, SystemView
from repro.sim.request import RequestState
from repro.workloads.frames import head_arrival_plan, task_frame_stream

#: Completion payloads are packed into one int: ``(acc_id << 48) | slot_id``.
_ACC_SHIFT = 48
_SLOT_MASK = (1 << _ACC_SHIFT) - 1

#: Heap code of a retry re-arrival (completion codes are non-negative).
_RETRY = -1

_INF = float("inf")

#: Mirrors ``engine._MAX_DISPATCH_ROUNDS`` (duplicated: this module must
#: not import the engine, which imports it back lazily).
_MAX_DISPATCH_ROUNDS = 64


class FastLoop:
    """One engine run through the struct-of-arrays loop.

    The loop borrows the engine's live components (pool, executors,
    scheduler, RNG, stats) and owns only the event storage; counters are
    written back to the engine when the run drains so
    ``SimulationResult.engine_counters`` reads the same as ever.
    """

    def __init__(self, engine: Any) -> None:
        self.engine = engine
        self.scheduler: Any = engine.scheduler
        self.pool: Any = engine._pool
        self.executors: List[Any] = list(engine._executors)
        self.tracer: Any = engine.tracer
        self.rng: Any = engine._rng
        self.duration_ms: float = float(engine.duration_ms)
        self.expiry_enabled: bool = engine.expire_after_periods is not None
        # The pool's raw pending list: identity-stable for the pool's whole
        # life (mutated in place), so `bool(pending_values)` is the
        # has_pending predicate without a property call.
        self.pending_values: List[Any] = engine._pool._pending_values
        # True under the default pe_fraction resource model: admission stays
        # the historical inlined arithmetic.  Other models route through
        # executor.can_accept_assignment; all remaining free-fraction
        # reads stay valid because slots store their *charged* fraction.
        self.default_resources: bool = engine._default_resources
        # Slot ids an outage killed (shared with the engine's abort path).
        self.cancelled: Any = engine._cancelled_slots

        # Wake-hint elision state (the scheduler is bound before the loop
        # is constructed); fields hoisted so the hot predicate reads locals.
        hint: Any = engine.scheduler.wake_hint() if engine.dispatch_elision else None
        self.have_hint: bool = hint is not None
        self.hint_same_instant: bool = bool(hint.same_instant_only) if self.have_hint else False
        self.hint_elide_no_pending: bool = bool(hint.elide_when_no_pending) if self.have_hint else False
        min_free: Optional[float] = hint.min_free_fraction if self.have_hint else None
        self.hint_has_min_free: bool = min_free is not None
        self.hint_threshold: float = (min_free - 1e-9) if min_free is not None else 0.0

        # Lifecycle hooks left as the base-class no-ops are never called.
        from repro.schedulers.base import Scheduler

        cls = type(engine.scheduler)
        self.call_arrival_hook: bool = cls.on_request_arrival is not Scheduler.on_request_arrival
        self.call_layers_hook: bool = cls.on_layers_complete is not Scheduler.on_layers_complete

        # --- arrival slots (struct of arrays, one slot per head task) ---
        # Ordered by task name: the historical arrival tie-break at equal
        # times is (task_name, frame_id), and one task never holds two
        # pending arrivals, so a first-strict-minimum scan in name order
        # reproduces it exactly.
        plan = sorted(head_arrival_plan(engine.scenario), key=_plan_name)
        n = len(plan)
        self.n_slots: int = n
        self.slot_tasks: List[Any] = [entry[0] for entry in plan]
        self.slot_iters: List[Optional[Iterator[Any]]] = [None] * n
        self.slot_times: List[float] = [_INF] * n
        self.slot_frames: List[Any] = [None] * n
        self.slot_last: List[float] = [-_INF] * n
        self.arrivals_active: int = 0

        # --- completion heap: (end_ms, seq, (acc_id << 48) | slot_id) ---
        # Retry re-arrivals share it as (at_ms, seq, _RETRY), their
        # requests parked in retry_requests under seq.
        self.comp_heap: List[Any] = []
        self.retry_requests: Dict[int, Any] = {}

        # --- fault transitions: sorted (time, phase, index), one cursor ---
        self.fault_transitions: List[Any] = engine._fault_transitions()
        # Transitions not yet taken; they count toward heap occupancy (the
        # reference loop keeps them on its heap from the start).
        self.faults_pending: int = 0

        # Counters (mirrors of the engine's, written back on drain).
        self.events_processed: int = 0
        self.dispatch_rounds: int = 0
        self.dispatches_elided: int = 0
        self.events_coalesced: int = 0
        self.peak_event_heap: int = 0

        # One SystemView and one AcceleratorView per executor for the whole
        # run, refreshed in place (through their ``__dict__``) at every
        # scheduling point.  Versions start at -1 so the first refresh
        # fills every field.
        n_exec = len(self.executors)
        accelerators = tuple(
            AcceleratorView(
                acc_id=executor.acc_id, free_fraction=0.0, busy_until_ms=0.0,
                resident_model=None,
            )
            for executor in self.executors
        )
        self.acc_fields: List[Dict[str, Any]] = [acc.__dict__ for acc in accelerators]
        self.acc_view_versions: List[int] = [-1] * n_exec
        self.execs_dirty: bool = True
        self.acc_all_busy: bool = False
        self.view: Any = SystemView(
            now_ms=0.0,
            platform=engine.platform,
            cost_table=engine.cost_table,
            scenario=engine.scenario,
            accelerators=accelerators,
            pending_requests=(),
            running_requests=(),
        )
        self.view_fields: Dict[str, Any] = self.view.__dict__

        # Inlined pool-snapshot memo guards (one int compare instead of a
        # method call per dispatch round when nothing changed).
        self.seen_pending_version: int = -1
        self.seen_running_version: int = -1
        self.seen_depth_version: int = -1

        for i in range(n):
            task = self.slot_tasks[i]
            self.slot_iters[i] = iter(
                task_frame_stream(
                    task,
                    offset_ms=float(plan[i][1]),
                    end_ms=self.duration_ms,
                    seed=engine.seed,
                    default_jitter_ms=engine.jitter_ms,
                )
            )
            self._refill_slot(i)
        # Fault transitions are armed after the arrival streams are primed.
        self.faults_pending = len(self.fault_transitions)
        occupancy = self.arrivals_active + self.faults_pending
        if occupancy > self.peak_event_heap:
            self.peak_event_heap = occupancy

    # ------------------------------------------------------------------ #
    # arrival slots
    # ------------------------------------------------------------------ #
    def _refill_slot(self, index: int) -> None:
        """Pull one frame into slot ``index`` (mirrors _push_next_arrival)."""
        iterator = self.slot_iters[index]
        if iterator is None:
            return
        frame = next(iterator, None)
        if frame is None:
            self.slot_iters[index] = None
            self.slot_times[index] = _INF
            self.slot_frames[index] = None
            return
        arrival: float = frame.arrival_ms
        last: float = self.slot_last[index]
        if arrival < last:
            # Clamp out-of-order frames monotone, exactly like the engine.
            frame = replace(
                frame, arrival_ms=last, deadline_ms=max(frame.deadline_ms, last)
            )
            arrival = last
        self.slot_last[index] = arrival
        self.slot_times[index] = arrival
        self.slot_frames[index] = frame
        self.arrivals_active += 1
        occupancy = self.arrivals_active + self.faults_pending + len(self.comp_heap)
        if occupancy > self.peak_event_heap:
            self.peak_event_heap = occupancy

    def _best_arrival(self) -> int:
        """Index of the earliest arrival slot (-1 when none pending).

        First strict minimum in task-name order == the heap's
        ``(arrival_ms, task_name)`` ordering.
        """
        times = self.slot_times
        best = _INF
        best_i = -1
        for i in range(self.n_slots):
            t = times[i]
            if t < best:
                best = t
                best_i = i
        return best_i

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #
    def run(self) -> None:
        """Drain all events: faults, arrivals, completions and retries."""
        engine = self.engine
        scheduler = self.scheduler
        pool = self.pool
        executors = self.executors
        tracer = self.tracer
        rng = self.rng
        comp_heap = self.comp_heap
        retry_requests = self.retry_requests
        cancelled = self.cancelled
        slot_times = self.slot_times
        slot_frames = self.slot_frames
        slot_tasks = self.slot_tasks
        fault_transitions = self.fault_transitions
        n_transitions = len(fault_transitions)
        pending_values = self.pending_values
        heappop = heapq.heappop
        heappush = heapq.heappush
        expiry_enabled = self.expiry_enabled
        have_hint = self.have_hint
        hint_same_instant = self.hint_same_instant
        hint_elide_no_pending = self.hint_elide_no_pending
        hint_has_min_free = self.hint_has_min_free
        hint_threshold = self.hint_threshold
        request_cls = _request_cls()
        pending_state = RequestState.PENDING
        completed_state = RequestState.COMPLETED
        default_resources = self.default_resources

        events_processed = 0
        events_coalesced = 0
        dispatches_elided = 0
        dispatch_rounds = 0
        comp_seq = 0
        # Same-instant elision state (gates same_instant_only hints).
        last_schedule_ms = -_INF
        last_schedule_membership = -1

        # Cached earliest arrival; only a slot refill can change it, so it
        # is recomputed after arrival pops and never after completions.
        best_i = self._best_arrival()
        best_at = slot_times[best_i] if best_i >= 0 else _INF
        fault_pos = 0
        fault_at = fault_transitions[0][0] if n_transitions else _INF

        while True:
            comp_at = comp_heap[0][0] if comp_heap else _INF
            if fault_at <= best_at and fault_at <= comp_at:
                # Fault transitions win ties: _PRIO_FAULT is the lowest.
                if fault_at == _INF:
                    break
                now = fault_at
                engine._now = now
                events_processed += 1
                transition = fault_transitions[fault_pos]
                fault_pos += 1
                fault_at = fault_transitions[fault_pos][0] if fault_pos < n_transitions else _INF
                self.faults_pending -= 1
                for retry in engine._apply_fault(transition[2], transition[1]):
                    retry_requests[comp_seq] = retry[1]
                    heappush(comp_heap, (retry[0], comp_seq, _RETRY))
                    comp_seq += 1
                    occupancy = self.arrivals_active + self.faults_pending + len(comp_heap)
                    if occupancy > self.peak_event_heap:
                        self.peak_event_heap = occupancy
                self.execs_dirty = True
                # A fault transition moves decision-relevant state without
                # touching pool membership: same-instant-only hints must not
                # elide the next consultation.
                last_schedule_membership = -1
            elif best_at <= comp_at:
                # Arrival wins ties: _PRIO_ARRIVAL < _PRIO_COMPLETE.
                now = best_at
                engine._now = now
                events_processed += 1
                frame = slot_frames[best_i]
                slot_times[best_i] = _INF
                slot_frames[best_i] = None
                self.arrivals_active -= 1
                self._refill_slot(best_i)
                task = slot_tasks[best_i]
                best_i = self._best_arrival()
                best_at = slot_times[best_i] if best_i >= 0 else _INF
                request = request_cls(
                    task_name=task.name,
                    model=task.default_model,
                    frame_id=frame.frame_id,
                    arrival_ms=frame.arrival_ms,
                    deadline_ms=frame.deadline_ms,
                    rng=rng,
                )
                pool.add(request)
                if tracer is not None:
                    engine._trace(request, "arrival")
                if self.call_arrival_hook:
                    scheduler.on_request_arrival(request, now)
            else:
                entry = heappop(comp_heap)
                now = entry[0]
                engine._now = now
                events_processed += 1
                code: int = entry[2]
                if code == _RETRY:
                    engine._handle_retry(retry_requests.pop(entry[1]))
                elif cancelled and (code & _SLOT_MASK) in cancelled:
                    # An outage killed this slot after its completion was
                    # pushed; swallow the stale event.
                    cancelled.discard(code & _SLOT_MASK)
                else:
                    executor = executors[code >> _ACC_SHIFT]
                    slot = executor.complete(code & _SLOT_MASK, now)
                    self.execs_dirty = True
                    request = slot.request
                    if tracer is not None:
                        engine._trace(
                            request, "layers_complete", acc_id=code >> _ACC_SHIFT,
                            detail=f"{len(slot.layer_indices)} layers",
                        )
                    if request.state is completed_state:
                        if tracer is not None:
                            engine._trace(request, "complete", acc_id=code >> _ACC_SHIFT)
                        engine._finalize_request(request)
                        engine._spawn_cascades(request)
                    else:
                        pool.note_progress(request)
                        if self.call_layers_hook:
                            scheduler.on_layers_complete(request, now)

            # Same-timestamp coalescing: when the next event shares this
            # instant, is an arrival or a completion (never a fault or a
            # retry), the dispatch in between is provably inert and no
            # expiry is due, take that event first and dispatch once after
            # it.  Each coalesced event counts one elided dispatch.
            if have_hint:
                comp_at = comp_heap[0][0] if comp_heap else _INF
                if best_at <= comp_at:
                    same_instant = best_at == now
                else:
                    same_instant = comp_at == now and comp_heap[0][2] != _RETRY
                if same_instant and fault_at != now:
                    # --- inlined _provably_empty(hint, now) ---
                    if hint_same_instant and (
                        last_schedule_ms != now
                        or last_schedule_membership != pool._depth_version
                    ):
                        inert = False
                    elif not pending_values:
                        inert = hint_elide_no_pending
                    elif not hint_has_min_free:
                        inert = False
                    else:
                        inert = True
                        for executor in executors:
                            free: float = executor._capacity - executor._allocated
                            if free < 0.0:
                                free = 0.0
                            if free >= hint_threshold:
                                inert = False
                                break
                    if inert and not (expiry_enabled and pool.has_stale(now)):
                        events_coalesced += 1
                        dispatches_elided += 1
                        continue

            # ---------------- dispatch (inlined _dispatch) ----------------
            if expiry_enabled and pool.has_stale(now):
                engine._expire_stale(now)
            rounds = 0
            while True:
                # The round cap is checked before the elision predicate so a
                # 65th scheduling point raises exactly like the reference
                # loop's exhausted ``for`` loop would.
                if rounds >= _MAX_DISPATCH_ROUNDS:
                    raise RuntimeError(
                        f"scheduler {type(scheduler).__name__} did not converge "
                        f"after {_MAX_DISPATCH_ROUNDS} dispatch rounds at "
                        f"t={now:.3f} ms"
                    )
                if have_hint:
                    # --- inlined _provably_empty(hint, now) ---
                    if hint_same_instant and (
                        last_schedule_ms != now
                        or last_schedule_membership != pool._depth_version
                    ):
                        inert = False
                    elif not pending_values:
                        inert = hint_elide_no_pending
                    elif not hint_has_min_free:
                        inert = False
                    else:
                        inert = True
                        for executor in executors:
                            free = executor._capacity - executor._allocated
                            if free < 0.0:
                                free = 0.0
                            if free >= hint_threshold:
                                inert = False
                                break
                    if inert:
                        dispatches_elided += 1
                        break
                rounds += 1
                dispatch_rounds += 1
                decision = scheduler.schedule(self._system_view(now))
                if have_hint:
                    # Captured before the decision is applied, so drops and
                    # finalizations bump the membership version past this
                    # snapshot and re-arm the next round.
                    last_schedule_ms = now
                    last_schedule_membership = pool._depth_version
                assignments = decision.assignments
                drops = decision.drops
                if not assignments and not drops:
                    break
                # ------------- apply decision (inlined) -------------
                applied = 0
                for request in drops:
                    # Skip unless PENDING == the reference loop's "finished
                    # or RUNNING" guard (the state space has no other
                    # values).
                    if request.state is not pending_state:
                        continue
                    request.mark_dropped(now)
                    if tracer is not None:
                        engine._trace(request, "dropped")
                    engine._finalize_request(request)
                    applied += 1
                for assignment in assignments:
                    request = assignment.request
                    if request.state is not pending_state:
                        continue
                    executor = executors[assignment.acc_id]
                    if default_resources:
                        # Inlined executor.can_accept(pe_fraction).
                        free = executor._capacity - executor._allocated
                        if free < 0.0:
                            free = 0.0
                        if assignment.pe_fraction > free + 1e-9:
                            continue
                    elif not executor.can_accept_assignment(assignment):
                        continue
                    if assignment.switch_to_variant is not None and not request.started:
                        old_name = request.model_name
                        request.switch_variant(assignment.switch_to_variant)
                        if request.model_name != old_name and tracer is not None:
                            engine._trace(
                                request, "variant_switch",
                                detail=f"{old_name} -> {request.model_name}",
                            )
                    record = executor.start(assignment, now)
                    self.execs_dirty = True
                    pool.note_dispatched(request)
                    if tracer is not None:
                        engine._trace_dispatch(assignment, record)
                    heappush(
                        comp_heap,
                        (
                            record.slot.end_ms,
                            comp_seq,
                            (assignment.acc_id << _ACC_SHIFT) | record.slot.slot_id,
                        ),
                    )
                    comp_seq += 1
                    occupancy = self.arrivals_active + self.faults_pending + len(comp_heap)
                    if occupancy > self.peak_event_heap:
                        self.peak_event_heap = occupancy
                    applied += 1
                if applied == 0:
                    break

        # Write the counters back so results are indistinguishable.
        engine.events_processed += events_processed
        engine.dispatch_rounds += dispatch_rounds
        engine.dispatches_elided += dispatches_elided
        engine.events_coalesced += events_coalesced
        engine.peak_event_heap = max(engine.peak_event_heap, self.peak_event_heap)
        self.events_processed = events_processed
        self.events_coalesced = events_coalesced
        self.dispatches_elided = dispatches_elided
        self.dispatch_rounds = dispatch_rounds

    # ------------------------------------------------------------------ #
    # views refreshed in place
    # ------------------------------------------------------------------ #
    def _accelerator_views(self, now: float) -> None:
        """Refresh the accelerator views in place (one per executor).

        Every scheduling point sees the same view objects in the same
        tuple.  A view's fields are rewritten only when its executor's
        ``state_version`` moved (start, complete, or a fault changing
        capacity or latency); an idle accelerator's ``busy_until_ms``
        follows the clock.  When no executor was touched since the last
        call and every accelerator is busy, no field can have moved, so
        nothing is scanned.
        """
        if not self.execs_dirty and self.acc_all_busy:
            return
        acc_fields = self.acc_fields
        versions = self.acc_view_versions
        all_busy = True
        executors = self.executors
        for index in range(len(executors)):
            executor = executors[index]
            fields = acc_fields[index]
            if executor.slots:
                fields["busy_until_ms"] = executor._busy_until
            else:
                fields["busy_until_ms"] = now
                all_busy = False
            version: int = executor.state_version
            if versions[index] == version:
                continue
            free: float = executor._capacity - executor._allocated
            if free < 0.0:
                free = 0.0
            fields["free_fraction"] = free
            fields["resident_model"] = executor.resident_model
            fields["running_tasks"] = executor.running_tasks()
            versions[index] = version
        self.execs_dirty = False
        self.acc_all_busy = all_busy

    def _system_view(self, now: float) -> Any:
        """The run's one SystemView, refreshed in place for ``now``."""
        pool = self.pool
        fields = self.view_fields
        fields["now_ms"] = now
        self._accelerator_views(now)
        # Snapshot version guards: one int compare per component when
        # nothing changed, the pool's own memoized builder otherwise.
        version: int = pool._pending_version
        if version != self.seen_pending_version:
            fields["pending_requests"] = pool.pending_snapshot()
            self.seen_pending_version = version
        version = pool._running_version
        if version != self.seen_running_version:
            fields["running_requests"] = pool.running_snapshot()
            self.seen_running_version = version
        version = pool._depth_version
        if version != self.seen_depth_version:
            fields["queue_depths"] = pool.queue_depths(self.engine._task_names)
            self.seen_depth_version = version
        return self.view


def _plan_name(entry: Any) -> str:
    """Sort key for the arrival plan (module-level: no closures here)."""
    return entry[0].name


def _request_cls() -> Any:
    """The request class, resolved lazily to avoid an import cycle."""
    from repro.sim.request import InferenceRequest

    return InferenceRequest
