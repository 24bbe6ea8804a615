"""The benchmark's three workloads, driven through the library's public API.

Each workload has a ``setup`` that builds every input the timed phase
needs (scenarios, platforms, cost tables, generated scenarios, fleet
specs) and a ``run_pass`` that runs the whole workload once and returns
its outputs for checking.  Both use the engine's default settings, so a
change to a default is measured the way users see it.

Sizes are chosen so one pass takes 4-6 s on a quiet 2-core host, so the
timed phase fits its fixed number of passes (``PASSES`` in run.py).  Each
pass has at least 100 jobs, and every window is long enough that 60 fps
tasks collect more than the 5 samples after which the P² streaming
quantiles stop being exact, so the ``quantile_order`` check can fail.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

#: The paper's headline geomean UXCost reductions of DREAM on heterogeneous
#: platforms (Figure 7), in percent.
PAPER_REDUCTION_PCT = {"planaria": 32.2, "veltair": 50.0}

#: fig7_grid: simulated window per cell.  Figure 7 itself uses 800 ms; the
#: benchmark runs the same 160 cells shorter to repeat them more often.
FIG7_DURATION_MS = 200.0

#: fuzz_chaos: generated scenarios per pass, window per run, platform, and
#: the chaos axis.  Every scenario runs all 8 schedulers fault-free plus
#: once per fault kind: 4 x 8 x 4 = 128 jobs.
FUZZ_SCENARIOS = 4
FUZZ_DURATION_MS = 150.0
FUZZ_PLATFORM = "4k_1ws_2os"
FUZZ_FAULTS = ("accel_degrade", "platform_outage", "transient_stall")

#: fleet_admission: the CLI's default 3-platform fleet with 1000 users per
#: population and Poisson session arrivals far above its 6 session slots:
#: ~16k session requests and 240 admitted sessions per pass.  The admitted
#: ar_call/vr_gaming mix is random, so the work of a pass varies between
#: fleet seeds: events per pass had a 7.2% interquartile spread over seeds
#: 1-10 (13% measured as jobs/s with 200 ms sessions, 120 admitted).
FLEET_PLATFORMS = (("4k_2ws", "fcfs_dynamic"), ("4k_1ws_2os", "dream_full"), ("8k_2os", "dream_mapscore"))
FLEET_POPULATIONS = ("ar_call", "vr_gaming")
FLEET_USERS_PER_POPULATION = 1000
FLEET_WINDOW_MS = 4000.0
FLEET_SESSION_MS = 100.0
FLEET_SESSIONS_PER_MINUTE = 120.0
FLEET_MAX_SESSIONS = 2


@dataclass
class Seeds:
    """Every seed the inputs are generated from."""

    #: Simulation seed of fig7_grid and fleet seed of fleet_admission.
    seed: int = 0
    #: Scenario-generator seed of fuzz_chaos.
    generator_seed: int = 0
    #: Simulation (and fault-plan) seed of fuzz_chaos.
    fuzz_seed: int = 0


@dataclass
class PassOutput:
    """What one pass produced, reduced to what the benchmark checks."""

    #: SHA-256 over the canonical result dicts of the pass.
    digest: str
    #: check name -> names of the jobs that failed it.
    failures: dict[str, set]
    #: Session requests decided (see README: equals jobs outside the fleet).
    session_requests: int
    #: Simulated, deterministic figures (fig7_grid: the UXCost gaps).
    simulated: dict[str, float] = field(default_factory=dict)


def digest_of(payload: Any) -> str:
    """SHA-256 of the canonical JSON form of ``payload``."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def quantile_order_failures(results: Mapping[str, Any]) -> set:
    """Jobs with a task whose streamed latency quantiles break p50 <= p95 <= p99."""
    failed = set()
    for key, result in results.items():
        for stats in result.task_stats.values():
            q = stats.latency_quantiles
            if q and not q["p50"] <= q["p95"] <= q["p99"]:
                failed.add(key)
                break
    return failed


# --------------------------------------------------------------------- #
# fig7_grid
# --------------------------------------------------------------------- #


def setup_fig7(seeds: Seeds) -> Any:
    from repro.experiments.jobs import grid_jobs, shared_context
    from repro.hardware import heterogeneous_platform_names
    from repro.schedulers import scheduler_names
    from repro.workloads import scenario_names

    jobs = grid_jobs(
        scenario_names(),
        heterogeneous_platform_names(),
        scheduler_names(),
        duration_ms=FIG7_DURATION_MS,
        seed=seeds.seed,
    )
    for job in jobs:
        shared_context(job.scenario, job.platform, job.cascade_probability)
    return jobs


def run_fig7(jobs: Any) -> PassOutput:
    from repro.experiments.harness import GridResult, execute_jobs

    results = execute_jobs(jobs, backend="serial")
    grid = GridResult(results={job.cell: result for job, result in zip(jobs, results)})
    simulated = {
        f"uxcost_gap_{baseline}_pp": abs(100.0 * grid.geomean_reduction("dream_full", baseline) - paper)
        for baseline, paper in PAPER_REDUCTION_PCT.items()
    }
    return PassOutput(
        digest=digest_of(grid.to_dict()),
        failures={"quantile_order": quantile_order_failures({cell.key: r for cell, r in grid.results.items()})},
        session_requests=len(jobs),
        simulated=simulated,
    )


# --------------------------------------------------------------------- #
# fuzz_chaos
# --------------------------------------------------------------------- #


def setup_fuzz(seeds: Seeds) -> Any:
    from repro.experiments.jobs import generated_context
    from repro.workloads.generator import GeneratorSpec
    from repro.workloads.traffic import arrival_process_names

    spec = GeneratorSpec(seed=seeds.generator_seed, traffic_models=tuple(arrival_process_names()))
    for index in range(FUZZ_SCENARIOS):
        generated_context(spec, index, FUZZ_PLATFORM)
    return spec, seeds.fuzz_seed


def run_fuzz_pass(inputs: Any) -> PassOutput:
    from repro.experiments.differential import run_fuzz
    from repro.schedulers import scheduler_names

    spec, fuzz_seed = inputs
    fuzz = run_fuzz(
        spec,
        FUZZ_SCENARIOS,
        schedulers=scheduler_names(),
        platform=FUZZ_PLATFORM,
        duration_ms=FUZZ_DURATION_MS,
        seed=fuzz_seed,
        faults=FUZZ_FAULTS,
    )
    results: dict[str, Any] = {}
    failures: dict[str, set] = {"raised": set(), "oracle": set(), "metamorphic": set()}
    violations: dict[str, list] = {}
    for report in fuzz.reports:
        runs = {**report.runs, **report.fault_runs}
        for key, run in runs.items():
            name = f"{report.scenario_name}/{key}"
            results[name] = run.result
            if run.violations:
                failures["oracle"].add(name)
                violations[name] = sorted(v.invariant for v in run.violations)
        failures["raised"].update(f"{report.scenario_name}/{key}" for key in report.harness_errors)
        if report.metamorphic_failures:
            failures["metamorphic"].update(f"{report.scenario_name}/{key}" for key in report.runs)
            violations[report.scenario_name] = sorted(v.invariant for v in report.metamorphic_failures)
    payload = {
        "results": {name: result.to_dict() for name, result in results.items()},
        "violations": violations,
        "harness_errors": sorted(failures["raised"]),
    }
    failures["quantile_order"] = quantile_order_failures(results)
    return PassOutput(
        digest=digest_of(payload),
        failures=failures,
        session_requests=len(results) + len(failures["raised"]),
    )


# --------------------------------------------------------------------- #
# fleet_admission
# --------------------------------------------------------------------- #


def setup_fleet(seeds: Seeds) -> Any:
    from repro.experiments.jobs import shared_context
    from repro.fleet import FleetSpec, PlatformSpec
    from repro.workloads import UserSpec
    from repro.workloads.traffic import make_arrival_process

    spec = FleetSpec(
        platforms=tuple(
            PlatformSpec(platform=platform, scheduler=scheduler, max_sessions=FLEET_MAX_SESSIONS)
            for platform, scheduler in FLEET_PLATFORMS
        ),
        users=tuple(
            UserSpec(
                name=scenario,
                users=FLEET_USERS_PER_POPULATION,
                scenario=scenario,
                sessions_per_minute=FLEET_SESSIONS_PER_MINUTE,
                session_duration_ms=FLEET_SESSION_MS,
                traffic=make_arrival_process("poisson"),
            )
            for scenario in FLEET_POPULATIONS
        ),
        policy="least_loaded",
        duration_ms=FLEET_WINDOW_MS,
        seed=seeds.seed,
    )
    for users in spec.users:
        for platform in spec.platforms:
            shared_context(users.scenario, platform.platform, users.cascade_probability)
    return spec


def run_fleet(spec: Any) -> PassOutput:
    # Looked up on the module at call time, so the traced run sees its span.
    import repro.fleet.invariants as fleet_invariants
    from repro.fleet import simulate_fleet

    fleet = simulate_fleet(spec, backend="serial")
    results = {str(sid): result for sid, result in fleet.session_results.items()}
    failed = set()
    for violation in fleet_invariants.audit_fleet(fleet):
        named = str(violation.request_id)
        failed.update([named] if named in results else results)
    return PassOutput(
        digest=digest_of(fleet.to_dict()),
        failures={"fleet_audit": failed, "quantile_order": quantile_order_failures(results)},
        session_requests=fleet.submitted,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[Seeds], Any]
    run_pass: Callable[[Any], PassOutput]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "fig7_grid",
            "Figure 7 grid: engine loop, decisions, pool and executor; no tracer, oracle, faults or fleet",
            setup_fig7,
            run_fig7,
        ),
        Workload(
            "fuzz_chaos",
            "bursty traffic, cascades, faults with abort and retry, tracer and oracles, fresh cost tables",
            setup_fuzz,
            run_fuzz_pass,
        ),
        Workload(
            "fleet_admission",
            "admission pass over ~16k session requests, then 240 short sessions where engine set-up weighs more",
            setup_fleet,
            run_fleet,
        ),
    )
}
