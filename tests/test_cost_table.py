"""Unit tests for the offline cost table."""

import random

import pytest

from repro.hardware import CostTable, make_platform
from repro.hardware.platform import all_platform_names
from repro.models import Supernet
from repro.models.zoo import MODEL_BUILDERS


class TestLookups:
    def test_contains_every_model(self, tiny_cost_table, tiny_scenario):
        for name in tiny_scenario.model_names():
            assert name in tiny_cost_table

    def test_latency_and_energy_positive(self, tiny_cost_table):
        for model_name in tiny_cost_table.model_names:
            for layer_index in range(tiny_cost_table.num_layers(model_name)):
                for acc_id in range(tiny_cost_table.num_accelerators):
                    assert tiny_cost_table.latency(model_name, layer_index, acc_id) > 0
                    assert tiny_cost_table.energy(model_name, layer_index, acc_id) > 0

    def test_unknown_model_raises(self, tiny_cost_table):
        with pytest.raises(KeyError):
            tiny_cost_table.latency("nonexistent", 0, 0)

    def test_out_of_range_layer_raises(self, tiny_cost_table):
        with pytest.raises(IndexError):
            tiny_cost_table.latency("alpha", 999, 0)

    def test_duplicate_model_rejected(self, tiny_platform, tiny_models):
        with pytest.raises(ValueError):
            CostTable.build(tiny_platform, [tiny_models["alpha"], tiny_models["alpha"]])


class TestAggregates:
    def test_average_between_best_and_worst(self, tiny_cost_table):
        model = "alpha"
        for layer_index in range(tiny_cost_table.num_layers(model)):
            best = tiny_cost_table.best_latency(model, layer_index)
            avg = tiny_cost_table.average_latency(model, layer_index)
            total = tiny_cost_table.total_latency(model, layer_index)
            assert best <= avg <= total

    def test_best_accelerator_is_argmin(self, tiny_cost_table):
        model = "beta"
        acc_id = tiny_cost_table.best_accelerator(model, 0)
        best = tiny_cost_table.latency(model, 0, acc_id)
        for other in range(tiny_cost_table.num_accelerators):
            assert best <= tiny_cost_table.latency(model, 0, other)

    def test_remaining_latency_sums(self, tiny_cost_table):
        model = "alpha"
        layers = list(range(tiny_cost_table.num_layers(model)))
        remaining = tiny_cost_table.remaining_average_latency(model, layers)
        expected = sum(tiny_cost_table.average_latency(model, i) for i in layers)
        assert remaining == pytest.approx(expected)

    def test_remaining_empty_is_zero(self, tiny_cost_table):
        for table in (tiny_cost_table, tiny_cost_table.reference_view()):
            for fn in (table.remaining_average_latency, table.remaining_best_latency):
                value = fn("alpha", [])
                assert value == 0.0 and type(value) is float, fn

    def test_worst_layer_energy_is_max(self, tiny_cost_table):
        worst = tiny_cost_table.worst_layer_energy("alpha", 0)
        for acc_id in range(tiny_cost_table.num_accelerators):
            assert worst >= tiny_cost_table.energy("alpha", 0, acc_id)

    def test_summary_consistency(self, tiny_cost_table):
        summary = tiny_cost_table.summary("beta")
        assert summary.best_case_latency_ms <= summary.average_latency_ms
        assert summary.average_latency_ms <= summary.worst_case_latency_ms
        assert summary.best_case_energy_mj <= summary.worst_case_energy_mj
        assert summary.activation_footprint_bytes > 0


class TestContextSwitch:
    def test_same_model_is_free(self, tiny_cost_table):
        assert tiny_cost_table.context_switch_energy("alpha", "alpha", 0) == 0.0
        assert tiny_cost_table.context_switch_latency("alpha", None, 0) == 0.0

    def test_switch_has_positive_cost(self, tiny_cost_table):
        assert tiny_cost_table.context_switch_energy("alpha", "beta", 0) > 0.0
        assert tiny_cost_table.context_switch_latency("alpha", "beta", 0) > 0.0

    def test_switch_cost_capped_by_sram(self, tiny_cost_table, tiny_platform):
        acc = tiny_platform[0]
        max_cost = acc.context_switch_cost(acc.sram_bytes, acc.sram_bytes)
        assert tiny_cost_table.context_switch_latency("alpha", "beta", 0) <= max_cost.latency_ms + 1e-9


class TestSummarize:
    """Direct unit coverage of CostTable._summarize (satellite task)."""

    def test_summarize_matches_hand_computation(self, tiny_models, tiny_platform):
        from repro.hardware import AnalyticalCostModel

        model = tiny_models["alpha"]
        cost_model = AnalyticalCostModel()
        rows = [[cost_model.cost(layer, acc) for acc in tiny_platform] for layer in model.layers]
        summary = CostTable._summarize(model, rows)

        assert summary.total_macs == sum(layer.macs for layer in model.layers)
        assert summary.best_case_latency_ms == sum(min(c.latency_ms for c in row) for row in rows)
        assert summary.worst_case_latency_ms == sum(max(c.latency_ms for c in row) for row in rows)
        assert summary.average_latency_ms == sum(
            sum(c.latency_ms for c in row) / len(row) for row in rows
        )
        assert summary.best_case_energy_mj == sum(min(c.energy_mj for c in row) for row in rows)
        assert summary.worst_case_energy_mj == sum(max(c.energy_mj for c in row) for row in rows)

    def test_activation_footprint_is_exact_int(self, tiny_models, tiny_platform):
        from repro.hardware import AnalyticalCostModel

        model = tiny_models["alpha"]
        cost_model = AnalyticalCostModel()
        rows = [[cost_model.cost(layer, acc) for acc in tiny_platform] for layer in model.layers]
        summary = CostTable._summarize(model, rows)
        expected = max(layer.input_bytes + layer.output_bytes for layer in model.layers)
        assert summary.activation_footprint_bytes == expected
        assert isinstance(summary.activation_footprint_bytes, int)

    def test_empty_model_summarizes_to_zero(self):
        class Empty:
            name = "empty"
            layers = ()

        summary = CostTable._summarize(Empty(), [])
        assert summary.total_macs == 0
        assert summary.best_case_latency_ms == 0.0
        assert summary.activation_footprint_bytes == 0


class TestReferenceViewEquivalence:
    """The precomputed flat arrays must agree bit-for-bit with the scans."""

    def test_all_aggregates_identical(self, tiny_cost_table):
        reference = tiny_cost_table.reference_view()
        for model in tiny_cost_table.model_names:
            for layer in range(tiny_cost_table.num_layers(model)):
                for fn in (
                    "average_latency",
                    "total_latency",
                    "total_energy",
                    "best_latency",
                    "worst_layer_energy",
                    "best_accelerator",
                ):
                    assert getattr(tiny_cost_table, fn)(model, layer) == getattr(
                        reference, fn
                    )(model, layer), (fn, model, layer)
                for acc_id in range(tiny_cost_table.num_accelerators):
                    assert tiny_cost_table.latency(model, layer, acc_id) == reference.latency(
                        model, layer, acc_id
                    )
                    assert tiny_cost_table.energy(model, layer, acc_id) == reference.energy(
                        model, layer, acc_id
                    )

    def test_remaining_and_full_aggregates_identical(self, tiny_cost_table):
        reference = tiny_cost_table.reference_view()
        for model in tiny_cost_table.model_names:
            layers = list(range(tiny_cost_table.num_layers(model)))
            sparse = layers[::2]
            for indices in (layers, sparse, []):
                assert tiny_cost_table.remaining_average_latency(
                    model, indices
                ) == reference.remaining_average_latency(model, indices)
                assert tiny_cost_table.remaining_best_latency(
                    model, indices
                ) == reference.remaining_best_latency(model, indices)
            assert tiny_cost_table.full_average_latency(model) == reference.full_average_latency(
                model
            )

    def test_context_switch_memo_identical(self, tiny_cost_table):
        reference = tiny_cost_table.reference_view()
        models = tiny_cost_table.model_names
        for new in models:
            for prev in models + [None]:
                for acc_id in range(tiny_cost_table.num_accelerators):
                    assert tiny_cost_table.context_switch_energy(
                        new, prev, acc_id
                    ) == reference.context_switch_energy(new, prev, acc_id)
                    assert tiny_cost_table.context_switch_latency(
                        new, prev, acc_id
                    ) == reference.context_switch_latency(new, prev, acc_id)

    def test_effective_latency_table_matches_executor_formula(
        self, tiny_cost_table, tiny_platform
    ):
        from repro.sim.executor import AcceleratorExecutor

        executor = AcceleratorExecutor(tiny_platform[0], tiny_cost_table)
        for fraction in (1.0, 0.5, 0.25):
            eff, prefix = tiny_cost_table.effective_latency_table("alpha", 0, fraction)
            assert len(prefix) == len(eff) + 1
            for layer_index, value in enumerate(eff):
                assert value == executor.effective_layer_latency_ms(
                    "alpha", layer_index, fraction
                )
            # Memoized: the exact same tuple comes back.
            again, _ = tiny_cost_table.effective_latency_table("alpha", 0, fraction)
            assert again is eff

    def test_prefix_sums_match_sequential_accumulation(self, tiny_cost_table):
        arrays = tiny_cost_table.layer_arrays("alpha")
        acc = 0.0
        for k, value in enumerate(arrays.worst_energy):
            assert arrays.worst_energy_prefix[k] == acc
            acc += value
        assert arrays.worst_energy_prefix[len(arrays.worst_energy)] == acc


def _zoo_graphs():
    """Every zoo model, Supernets expanded into all their variants."""
    graphs = []
    for builder in MODEL_BUILDERS.values():
        built = builder()
        graphs.extend(built if isinstance(built, Supernet) else [built])
    return graphs


def _sampled_paths(graph, samples=40):
    """Distinct paths a request on ``graph`` can sample (plus the extremes)."""
    rng = random.Random(7)
    paths = {tuple(graph.worst_case_path()), tuple(graph.best_case_path())}
    paths.update(tuple(graph.sample_execution_path(rng)) for _ in range(samples))
    return sorted(paths)


class TestPathTails:
    """ToGo / minimum_to_go tables must equal the per-call sums exactly."""

    @pytest.mark.parametrize("platform_name", all_platform_names())
    def test_tails_equal_per_call_sums(self, platform_name):
        graphs = _zoo_graphs()
        table = CostTable.build(make_platform(platform_name), graphs)
        reference = table.reference_view()
        dynamic_paths = 0
        for graph in graphs:
            paths = _sampled_paths(graph)
            if graph.name in ("skipnet", "rapid_rl"):
                assert len(paths) > 2, graph.name
                dynamic_paths += len(paths)
            for path in paths:
                path = list(path)
                expected = [
                    (
                        table.remaining_average_latency(graph.name, path[k:]).hex(),
                        table.remaining_best_latency(graph.name, path[k:]).hex(),
                    )
                    for k in range(len(path) + 1)
                ]
                # Twice: the first lookup fills the entry, the second reads it.
                for _ in range(2):
                    for k, (average, best) in enumerate(expected):
                        got = table.average_to_go(graph.name, path, k).hex()
                        assert got == average, (graph.name, path, k)
                        assert table.best_to_go(graph.name, path, k).hex() == best
                        assert reference.average_to_go(graph.name, path, k).hex() == average
                        assert reference.best_to_go(graph.name, path, k).hex() == best
                tails = table._path_tails(graph.name, path)
                assert [(a.hex(), b.hex()) for a, b in zip(*tails)] == expected
        assert dynamic_paths > 0

    def test_tables_are_shared_per_model_and_path(self, tiny_platform, tiny_models):
        table = CostTable.build(tiny_platform, tiny_models.values())
        path = [0, 2]
        first = table._path_tails("gamma", path)
        value = table.average_to_go("gamma", path, 1)
        assert table._path_tails("gamma", list(path)) is first
        assert first[0][1] == value
        assert first[0][0] != first[0][0]  # never looked up: still unset
        assert table._path_tails("gamma", [0, 1, 2]) is not first
        assert table._path_tails("alpha", path) is not first
