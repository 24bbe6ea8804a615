"""Unit tests for requests, queues, executors and the metric records."""

import random

import pytest

from repro.metrics.uxcost import ModelOutcome, compute_uxcost
from repro.metrics.reporting import format_table, geometric_mean, relative_reduction
from repro.sim import Assignment, ReferenceRequestPool, RequestPool
from repro.sim.executor import AcceleratorExecutor
from repro.sim.request import InferenceRequest, RequestState


def _request(tiny_scenario, task="vision", deadline=100.0, arrival=0.0, rng_seed=0):
    task_spec = tiny_scenario.task(task)
    return InferenceRequest(
        task_name=task_spec.name,
        model=task_spec.default_model,
        frame_id=0,
        arrival_ms=arrival,
        deadline_ms=deadline,
        rng=random.Random(rng_seed),
    )


class TestRequestLifecycle:
    def test_initial_state(self, tiny_scenario):
        request = _request(tiny_scenario)
        assert request.state is RequestState.PENDING
        assert request.next_layer() == 0
        assert not request.started

    def test_terminal_states(self):
        assert {state for state in RequestState if state.is_terminal} == {
            RequestState.COMPLETED, RequestState.DROPPED,
            RequestState.EXPIRED, RequestState.FAILED,
        }

    def test_record_layers_advances(self, tiny_scenario):
        request = _request(tiny_scenario)
        assert request.previous_accelerator() is None
        request.mark_running()
        request.record_layers([0], acc_id=0, completion_ms=5.0)
        assert request.next_position == 1
        assert request.previous_accelerator() == 0
        assert request.last_progress_ms == 5.0
        # An abort drops the interrupted slot's layers but keeps the record.
        request.mark_running()
        request.mark_aborted(now=6.0)
        assert request.previous_accelerator() == 0
        # A multi-layer block reports the accelerator it ran on.
        request.mark_running()
        request.record_layers([1, 2], acc_id=1, completion_ms=9.0)
        assert request.next_position == 3
        assert request.previous_accelerator() == 1
        assert request.state is RequestState.COMPLETED

    def test_record_wrong_layers_rejected(self, tiny_scenario):
        request = _request(tiny_scenario)
        request.mark_running()
        with pytest.raises(ValueError):
            request.record_layers([2], acc_id=0, completion_ms=1.0)

    def test_completion_and_violation(self, tiny_scenario):
        request = _request(tiny_scenario, deadline=10.0)
        request.mark_running()
        request.record_layers(request.path, acc_id=1, completion_ms=12.0)
        assert request.state is RequestState.COMPLETED
        assert request.violated_deadline
        assert request.latency_ms == pytest.approx(12.0)

    def test_drop_counts_as_violation(self, tiny_scenario):
        request = _request(tiny_scenario)
        request.mark_dropped(now=3.0)
        assert request.state is RequestState.DROPPED
        assert request.violated_deadline

    def test_terminal_requests_cannot_transition(self, tiny_scenario):
        request = _request(tiny_scenario)
        request.mark_expired(now=1.0)
        with pytest.raises(ValueError):
            request.mark_running()

    def test_variant_switch_only_before_start(self, tiny_scenario, tiny_supernet):
        task = tiny_scenario.task("context")
        request = InferenceRequest(
            task_name=task.name,
            model=tiny_supernet.default_variant,
            frame_id=0,
            arrival_ms=0.0,
            deadline_ms=50.0,
            rng=random.Random(0),
        )
        request.switch_variant(tiny_supernet.lightest_variant)
        assert request.model_name == "super_light"
        request.mark_running()
        request.record_layers([0], acc_id=0, completion_ms=1.0)
        with pytest.raises(ValueError):
            request.switch_variant(tiny_supernet.default_variant)
        assert request.model_name == "super_light"
        assert request.previous_accelerator() == 0

    def test_queue_time(self, tiny_scenario):
        request = _request(tiny_scenario, arrival=10.0, deadline=100.0)
        assert request.queue_time_ms(25.0) == pytest.approx(15.0)

    def test_deadline_before_arrival_rejected(self, tiny_scenario):
        task = tiny_scenario.task("vision")
        with pytest.raises(ValueError):
            InferenceRequest(task.name, task.default_model, 0, arrival_ms=5.0, deadline_ms=1.0)


class TestRequestPool:
    def test_add_remove(self, tiny_scenario):
        pool = RequestPool()
        request = _request(tiny_scenario)
        pool.add(request)
        assert len(pool) == 1
        assert pool.queue_depth("vision") == 1
        pool.remove(request)
        assert len(pool) == 0

    def test_duplicate_add_rejected(self, tiny_scenario):
        pool = RequestPool()
        request = _request(tiny_scenario)
        pool.add(request)
        with pytest.raises(ValueError):
            pool.add(request)

    def test_pending_excludes_running(self, tiny_scenario):
        pool = RequestPool()
        request = _request(tiny_scenario)
        pool.add(request)
        request.mark_running()
        assert pool.pending() == []
        assert pool.running() == [request]

    def test_stale_detection(self, tiny_scenario):
        pool = RequestPool()
        request = _request(tiny_scenario, deadline=10.0)
        pool.add(request)
        assert pool.stale(now=50.0, grace_ms_by_task={"vision": 5.0}) == [request]
        assert pool.stale(now=11.0, grace_ms_by_task={"vision": 5.0}) == []


class TestRequestPoolIncremental:
    """The incremental pool must stay observationally identical to the
    retained reference pool under interleaved add/remove/dispatch/expire."""

    @staticmethod
    def _pools():
        fast, reference = RequestPool(), ReferenceRequestPool()
        grace = {"vision": 5.0, "heavy": 10.0, "cascade": 0.0, "context": 2.0}
        fast.configure_expiry(grace)
        reference.configure_expiry(grace)
        return fast, reference

    @staticmethod
    def _assert_same(fast, reference, task_names):
        assert len(fast) == len(reference)
        assert fast.pending_sorted() == reference.pending_sorted()
        assert tuple(fast.pending_snapshot()) == tuple(reference.pending_snapshot())
        assert sorted(r.request_id for r in fast.running()) == sorted(
            r.request_id for r in reference.running()
        )
        assert fast.queue_depths(task_names) == reference.queue_depths(task_names)
        for name in task_names:
            assert [r.request_id for r in fast.for_task(name)] == [
                r.request_id for r in reference.for_task(name)
            ]

    def test_interleaved_operations_match_reference(self, tiny_scenario):
        rng = random.Random(42)
        fast, reference = self._pools()
        task_names = [task.name for task in tiny_scenario.tasks]
        live: list[InferenceRequest] = []
        now = 0.0
        for step in range(400):
            now += rng.uniform(0.0, 3.0)
            op = rng.random()
            if op < 0.45 or not live:
                task = rng.choice(task_names)
                request = _request(
                    tiny_scenario,
                    task=task,
                    arrival=now,
                    deadline=now + rng.uniform(1.0, 40.0),
                    rng_seed=step,
                )
                fast.add(request)
                reference.add(request)
                live.append(request)
            elif op < 0.6:
                request = rng.choice(live)
                if request.state is RequestState.PENDING:
                    request.mark_running()
                    fast.note_dispatched(request)
                    reference.note_dispatched(request)
            elif op < 0.75:
                request = rng.choice(live)
                if request.state is RequestState.RUNNING:
                    request.record_layers([request.next_layer()], acc_id=0, completion_ms=now)
                    fast.note_progress(request)
                    reference.note_progress(request)
                    if request.is_finished:
                        fast.remove(request)
                        reference.remove(request)
                        live.remove(request)
            elif op < 0.9:
                request = rng.choice(live)
                if not request.is_finished and request.state is not RequestState.RUNNING:
                    request.mark_dropped(now)
                fast.remove(request)
                reference.remove(request)
                live.remove(request)
            else:
                fast_stale = fast.collect_stale(now)
                ref_stale = reference.collect_stale(now)
                assert [r.request_id for r in fast_stale] == [
                    r.request_id for r in ref_stale
                ]
                for request in fast_stale:
                    request.mark_expired(now)
                    fast.remove(request)
                    reference.remove(request)
                    live.remove(request)
            self._assert_same(fast, reference, task_names)

    def test_remove_is_constant_time_bookkeeping(self, tiny_scenario):
        pool = RequestPool()
        requests = [
            _request(tiny_scenario, arrival=float(i), deadline=float(i) + 50.0, rng_seed=i)
            for i in range(50)
        ]
        for request in requests:
            pool.add(request)
        # Remove from the middle, front and back; indices must stay coherent.
        for request in (requests[25], requests[0], requests[-1]):
            pool.remove(request)
        survivors = pool.pending_sorted()
        assert len(survivors) == 47
        assert [r.request_id for r in survivors] == sorted(r.request_id for r in survivors)
        assert pool.queue_depth("vision") == 47

    def test_remove_absent_request_is_noop(self, tiny_scenario):
        pool = RequestPool()
        request = _request(tiny_scenario)
        pool.remove(request)  # never added: must not raise or corrupt
        pool.add(request)
        assert len(pool) == 1

    def test_collect_stale_skips_started_requests(self, tiny_scenario):
        pool = RequestPool()
        pool.configure_expiry({"vision": 0.0})
        request = _request(tiny_scenario, deadline=10.0)
        pool.add(request)
        request.mark_running()
        pool.note_dispatched(request)
        request.record_layers([request.next_layer()], acc_id=0, completion_ms=5.0)
        pool.note_progress(request)
        # Started requests can never expire, even long past the deadline.
        assert pool.collect_stale(now=1000.0) == []

    def test_collect_stale_orders_by_request_id(self, tiny_scenario):
        pool = RequestPool()
        pool.configure_expiry({"vision": 0.0, "heavy": 0.0})
        # Older request expires later than the newer one: the batch must
        # still come back in creation (request_id) order, matching the
        # reference pool's scan order.
        older = _request(tiny_scenario, task="vision", arrival=0.0, deadline=100.0)
        newer = _request(tiny_scenario, task="heavy", arrival=1.0, deadline=50.0)
        pool.add(older)
        pool.add(newer)
        stale = pool.collect_stale(now=200.0)
        assert [r.request_id for r in stale] == [older.request_id, newer.request_id]

    def test_snapshots_are_reused_until_mutation(self, tiny_scenario):
        pool = RequestPool()
        request = _request(tiny_scenario)
        pool.add(request)
        first = pool.pending_snapshot()
        assert pool.pending_snapshot() is first
        other = _request(tiny_scenario, arrival=1.0)
        pool.add(other)
        second = pool.pending_snapshot()
        assert second is not first
        assert [r.request_id for r in second] == [request.request_id, other.request_id]


class TestExecutor:
    def test_start_and_complete(self, tiny_platform, tiny_cost_table, tiny_scenario):
        executor = AcceleratorExecutor(tiny_platform[0], tiny_cost_table)
        request = _request(tiny_scenario)
        record = executor.start(Assignment(request=request, acc_id=0, layer_count=2), now=0.0)
        assert executor.free_fraction == 0.0
        assert record.slot.end_ms > 0.0
        assert request.state is RequestState.RUNNING
        executor.complete(record.slot.slot_id, now=record.slot.end_ms)
        assert executor.free_fraction == 1.0
        assert request.next_position == 2

    def test_context_switch_charged_once_model_changes(
        self, tiny_platform, tiny_cost_table, tiny_scenario
    ):
        executor = AcceleratorExecutor(tiny_platform[0], tiny_cost_table)
        first = _request(tiny_scenario, task="vision")
        second = _request(tiny_scenario, task="heavy")
        record1 = executor.start(Assignment(request=first, acc_id=0, layer_count=1), now=0.0)
        executor.complete(record1.slot.slot_id, now=record1.slot.end_ms)
        record2 = executor.start(
            Assignment(request=second, acc_id=0, layer_count=1), now=record1.slot.end_ms
        )
        assert record1.context_switch is False
        assert record2.context_switch is True
        assert record2.context_switch_energy_mj > 0.0

    def test_fission_scales_latency(self, tiny_platform, tiny_cost_table, tiny_scenario):
        executor_full = AcceleratorExecutor(tiny_platform[0], tiny_cost_table)
        executor_half = AcceleratorExecutor(tiny_platform[0], tiny_cost_table)
        full = executor_full.start(
            Assignment(request=_request(tiny_scenario, rng_seed=1), acc_id=0, layer_count=1), now=0.0
        )
        half = executor_half.start(
            Assignment(
                request=_request(tiny_scenario, rng_seed=2), acc_id=0, layer_count=1, pe_fraction=0.5
            ),
            now=0.0,
        )
        assert half.slot.end_ms >= full.slot.end_ms

    def test_over_allocation_rejected(self, tiny_platform, tiny_cost_table, tiny_scenario):
        executor = AcceleratorExecutor(tiny_platform[0], tiny_cost_table)
        executor.start(Assignment(request=_request(tiny_scenario, rng_seed=3), acc_id=0), now=0.0)
        with pytest.raises(ValueError):
            executor.start(Assignment(request=_request(tiny_scenario, rng_seed=4), acc_id=0), now=0.0)

    def test_energy_accounting_accumulates(self, tiny_platform, tiny_cost_table, tiny_scenario):
        executor = AcceleratorExecutor(tiny_platform[1], tiny_cost_table)
        request = _request(tiny_scenario)
        record = executor.start(Assignment(request=request, acc_id=1, layer_count=3), now=0.0)
        assert request.energy_mj == pytest.approx(record.slot.energy_mj)
        assert request.worst_case_energy_mj >= request.energy_mj - 1e-9
        assert executor.total_energy_mj == pytest.approx(record.slot.energy_mj)


def _bits(value):
    """Exact identity of a float (or the value itself for non-floats)."""
    return value.hex() if isinstance(value, float) else value


class TestExecutorFastMatchesReference:
    """``fast=True`` and ``fast=False`` executors agree bit for bit."""

    MODELS = ("skipnet", "rapid_rl", "kws_res8", "sosnet", "gnmt")

    @pytest.fixture(scope="class")
    def zoo_table(self, het_4k_platform):
        from repro.hardware import CostTable
        from repro.models.zoo import build_model

        graphs = [build_model(name) for name in self.MODELS]
        return CostTable.build(het_4k_platform, graphs), graphs

    @staticmethod
    def _request_pair(graph, seed):
        return tuple(
            InferenceRequest(
                task_name=graph.name, model=graph, frame_id=seed, arrival_ms=0.0,
                deadline_ms=1e9, rng=random.Random(seed),
            )
            for _ in range(2)
        )

    @staticmethod
    def _executor_state(executor, now):
        return (
            _bits(executor.total_energy_mj), _bits(executor.total_busy_pe_ms),
            executor.layers_executed, executor.context_switches, executor.state_version,
            executor.resident_model, _bits(float(executor.allocated_fraction)),
            _bits(executor.free_fraction), _bits(executor.busy_until_ms(now)),
        )

    @staticmethod
    def _request_state(request):
        return (
            request.state, request.next_position, request.last_acc_id,
            _bits(request.energy_mj), _bits(request.worst_case_energy_mj), request.retries,
        )

    @staticmethod
    def _slot_fields(slot):
        return (
            slot.request.frame_id, list(slot.layer_indices), _bits(slot.pe_fraction),
            _bits(slot.start_ms), _bits(slot.end_ms), _bits(slot.energy_mj),
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_sequence(self, zoo_table, het_4k_platform, seed):
        table, graphs = zoo_table
        rng = random.Random(seed)
        acc = het_4k_platform[seed % het_4k_platform.num_accelerators]
        fast = AcceleratorExecutor(acc, table, fast=True)
        ref = AcceleratorExecutor(acc, table.reference_view(), fast=False)
        pairs = [self._request_pair(rng.choice(graphs), index) for index in range(12)]
        slot_map = {}  # fast slot id -> reference slot id
        now = 0.0
        seen = set()
        for _ in range(400):
            op = rng.random()
            if op < 0.55:
                live = [pair for pair in pairs if pair[0].state is RequestState.PENDING]
                if not live:
                    pairs.append(self._request_pair(rng.choice(graphs), len(pairs)))
                    continue
                req_f, req_r = rng.choice(live)
                remaining = req_f.remaining_layers
                count = rng.choice([1, 1, 2, 3, remaining, len(req_f.path)])
                fraction = rng.choice([1.0, 0.5])
                if fast.can_accept(fraction):
                    rec_f = fast.start(Assignment(req_f, acc.acc_id, count, fraction), now)
                    rec_r = ref.start(Assignment(req_r, acc.acc_id, count, fraction), now)
                    assert self._slot_fields(rec_f.slot) == self._slot_fields(rec_r.slot)
                    assert (
                        rec_f.context_switch, _bits(rec_f.context_switch_latency_ms),
                        _bits(rec_f.context_switch_energy_mj),
                    ) == (
                        rec_r.context_switch, _bits(rec_r.context_switch_latency_ms),
                        _bits(rec_r.context_switch_energy_mj),
                    )
                    slot_map[rec_f.slot.slot_id] = rec_r.slot.slot_id
                    seen.add("switch" if rec_f.context_switch else "resident")
                    seen.add(f"pe={fraction}")
                    if count > 1:
                        seen.add("block")
                    if req_f.next_position == 0 and count >= len(req_f.path):
                        seen.add("whole_path")
                else:
                    for executor, request in ((fast, req_f), (ref, req_r)):
                        with pytest.raises(ValueError):
                            executor.start(Assignment(request, acc.acc_id, count, fraction), now)
                    seen.add("over_capacity")
            elif op < 0.85:
                if not fast.slots:
                    continue
                slot_id = rng.choice(sorted(fast.slots))
                now = max(now, fast.slots[slot_id].end_ms)
                done_f = fast.complete(slot_id, now)
                done_r = ref.complete(slot_map.pop(slot_id), now)
                assert self._slot_fields(done_f) == self._slot_fields(done_r)
            elif op < 0.91:
                capacity = rng.choice([1.0, 0.5, 0.0])
                fast.set_capacity(capacity)
                ref.set_capacity(capacity)
                seen.add(f"capacity={capacity}")
            elif op < 0.97:
                factor = rng.choice([1.0, 1.5, 2.0])
                fast.set_latency_factor(factor)
                ref.set_latency_factor(factor)
                seen.add(f"factor={factor}")
            else:
                now += rng.random()
                victims_f = fast.abort_all(now)
                victims_r = ref.abort_all(now)
                assert [self._slot_fields(s) for s in victims_f] == [
                    self._slot_fields(s) for s in victims_r
                ]
                for victim_f, victim_r in zip(victims_f, victims_r):
                    victim_f.request.mark_aborted(now)
                    victim_r.request.mark_aborted(now)
                slot_map.clear()
                if victims_f:
                    seen.add("abort")
            assert self._executor_state(fast, now) == self._executor_state(ref, now)
            for req_f, req_r in pairs:
                assert self._request_state(req_f) == self._request_state(req_r)
        assert {
            "switch", "resident", "pe=0.5", "block", "whole_path", "over_capacity",
            "capacity=0.5", "factor=2.0", "abort",
        } <= seen, seen

    @pytest.mark.parametrize("fast", [True, False])
    def test_invalid_starts_raise(self, zoo_table, het_4k_platform, fast):
        table, graphs = zoo_table
        if not fast:
            table = table.reference_view()
        acc = het_4k_platform[0]
        executor = AcceleratorExecutor(acc, table, fast=fast)
        graph = graphs[-1]
        busy = InferenceRequest("t", graph, 0, 0.0, 1e9, rng=random.Random(0))
        executor.start(Assignment(busy, acc.acc_id, 1, 0.5), 0.0)
        over = InferenceRequest("t", graph, 1, 0.0, 1e9, rng=random.Random(1))
        with pytest.raises(ValueError, match="free"):
            executor.start(Assignment(over, acc.acc_id, 1, 1.0), 0.0)

        terminal = InferenceRequest("t", graph, 2, 0.0, 1e9, rng=random.Random(2))
        terminal.mark_dropped(0.0)
        before = (len(executor.slots), executor.state_version, executor.layers_executed)
        with pytest.raises(ValueError, match="terminal"):
            executor.start(Assignment(terminal, acc.acc_id, 1, 0.5), 0.0)
        if fast:  # every check runs before any executor state moves
            assert (len(executor.slots), executor.state_version,
                    executor.layers_executed) == before
        assert terminal.state is RequestState.DROPPED

        exhausted = InferenceRequest("t", graph, 3, 0.0, 1e9, rng=random.Random(3))
        exhausted.mark_running()
        exhausted.record_layers(list(exhausted.path), acc.acc_id, 1.0)
        executor.abort_all(1.0)
        with pytest.raises(ValueError, match="no remaining layers"):
            executor.start(Assignment(exhausted, acc.acc_id, 1, 1.0), 1.0)


class TestAssignmentValidation:
    def test_layer_count_positive(self, tiny_scenario):
        with pytest.raises(ValueError):
            Assignment(request=_request(tiny_scenario), acc_id=0, layer_count=0)

    def test_pe_fraction_range(self, tiny_scenario):
        with pytest.raises(ValueError):
            Assignment(request=_request(tiny_scenario), acc_id=0, pe_fraction=1.5)


class TestUXCost:
    def test_zero_violations_use_small_number_rule(self):
        outcome = ModelOutcome("m", total_frames=20, violated_frames=0, actual_energy_mj=1.0, worst_case_energy_mj=2.0)
        assert outcome.violation_rate == pytest.approx(1.0 / 40.0)
        assert outcome.raw_violation_rate == 0.0

    def test_normalized_energy(self):
        outcome = ModelOutcome("m", 10, 2, actual_energy_mj=3.0, worst_case_energy_mj=6.0)
        assert outcome.normalized_energy == pytest.approx(0.5)

    def test_uxcost_is_product_of_sums(self):
        outcomes = [
            ModelOutcome("a", 10, 5, 1.0, 2.0),
            ModelOutcome("b", 10, 0, 1.0, 4.0),
        ]
        breakdown = compute_uxcost(outcomes)
        expected_rate = 0.5 + 1.0 / 20.0
        expected_energy = 0.5 + 0.25
        assert breakdown.uxcost == pytest.approx(expected_rate * expected_energy)

    def test_empty_models_ignored(self):
        breakdown = compute_uxcost([ModelOutcome("idle", 0, 0, 0.0, 0.0)])
        assert breakdown.uxcost == 0.0

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            ModelOutcome("m", total_frames=1, violated_frames=2, actual_energy_mj=0, worst_case_energy_mj=0)


class TestReporting:
    def test_geometric_mean_basic(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_mean_empty_rejected(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_relative_reduction(self):
        assert relative_reduction(2.0, 1.0) == pytest.approx(0.5)
        assert relative_reduction(0.0, 1.0) == 0.0

    def test_format_table_aligns_columns(self):
        text = format_table(["a", "metric"], [["x", 1.5], ["longer", 2.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "metric" in lines[0]
