"""Run one benchmark workload and print every metric with its unit.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig7_grid --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up in fresh processes,
then a fixed number of whole passes of the workload with tracing off,
fewer only if a slow host would overrun ``--seconds``.  Host times are
rescaled by a calibration kernel timed in the same process (hostspeed.py).
``--trace 1`` runs one untraced pass and one traced pass (set-up included
in both) and reports per-layer calls and self times and the tracing
overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it name every metric with its unit, the job counts per
output check, the simulated-output digest and the host.  See README.md.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402
from tracing import (  # noqa: E402
    LAYERS,
    SUMMED_COUNTERS,
    JobClock,
    Patches,
    SpanRecorder,
    install_layer_spans,
    wrapped_attributes,
)
from workloads import WORKLOADS, Seeds  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The seed the recorded baseline uses, and one kept back for confirming
#: later claims on inputs no change was tuned against.
DEFAULT_SEED = 0
HELD_OUT_SEED = 1009

#: Set-ups timed per run (this process plus fresh child processes), and
#: kernel samples taken after each to rescale it.
SETUP_SAMPLES = 5
SETUP_KERNEL_SAMPLES = 5

#: Passes of the timed phase.  The count is fixed, so the estimators do not
#: depend on how fast the code under test is; a host too slow to fit them
#: in ``--seconds`` runs fewer, but never fewer than MIN_PASSES.
PASSES = 4
MIN_PASSES = 2

#: Each pass of the timed phase takes a kernel sample after every this many
#: of its jobs: a fixed count per workload, at the same points every pass.
SAMPLE_EVERY_JOBS = 16

#: Output checks, in report order.
CHECKS = ("raised", "quantile_order", "oracle", "metamorphic", "fleet_audit")


def declared_units(trace):
    """name -> unit of every metric BENCHMARK.json declares for this mode."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in declared["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="simulation seed (fig7_grid) and fleet seed (fleet_admission); "
                        f"{HELD_OUT_SEED} is held out for confirming claims")
    parser.add_argument("--generator-seed", type=int, default=DEFAULT_SEED,
                        help="scenario-generator seed of fuzz_chaos")
    parser.add_argument("--fuzz-seed", type=int, default=DEFAULT_SEED,
                        help="simulation and fault-plan seed of fuzz_chaos")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="host-time budget of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time imports and set-up in this process, print it rescaled, and exit")
    return parser.parse_args(argv)


@dataclass
class Tally:
    """Jobs attempted and failed, per output check."""

    attempted: int = 0
    failed: int = 0
    by_check: dict = field(default_factory=lambda: {check: 0 for check in CHECKS})

    def add(self, attempted, failures):
        self.attempted += attempted
        failed = set()
        for check, jobs in failures.items():
            self.by_check[check] += len(jobs)
            failed |= jobs
        self.failed += len(failed)


def recorded_digest(workload, seeds):
    """The committed digest for these seeds, if one was recorded."""
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    return recorded.get(workload, {}).get(seed_key(workload, seeds))


def seed_key(workload, seeds):
    if workload == "fuzz_chaos":
        return f"generator_seed={seeds.generator_seed},fuzz_seed={seeds.fuzz_seed}"
    return f"seed={seeds.seed}"


def commit():
    """The checked-out commit, or "unknown" outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def rescaled_setup(raw_s):
    """Set-up time of this process in reference seconds."""
    speed = HostSpeed()
    speed.sample(SETUP_KERNEL_SAMPLES)
    return raw_s * speed.factor()


def child_setup_seconds(args):
    """Set-up time of the workload in a fresh interpreter, in reference seconds."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--generator-seed", str(args.generator_seed),
               "--fuzz-seed", str(args.fuzz_seed), "--setup-only"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def timed_passes(workload, inputs, seconds, tally, speed):
    """Run PASSES whole passes with tracing off; fewer if ``seconds`` would run out."""
    clock, patches = JobClock(), Patches()
    clock.install(patches)
    passes = []
    done = 0

    def after_job():
        if (len(clock.walls) - done) % SAMPLE_EVERY_JOBS == 0:
            speed.sample()

    clock.after_job = after_job
    try:
        begin = time.perf_counter()
        while len(passes) < PASSES:
            started, done, counts = clock.started, len(clock.walls), dict(clock.counters)
            speed.new_row()
            t0, spent = time.perf_counter(), speed.spent_s
            try:
                output = workload.run_pass(inputs)
            except Exception:  # noqa: BLE001 - a crash is a failed pass, reported below
                traceback.print_exc()
                tally.add(clock.started - started, {"raised": set(range(clock.started - started))})
                return passes, clock, False
            wall = time.perf_counter() - t0 - (speed.spent_s - spent)
            tally.add(clock.started - started, output.failures)
            passes.append({
                "wall": wall,
                "job_walls": clock.walls[done:],
                "counts": {key: clock.counters[key] - counts.get(key, 0) for key in SUMMED_COUNTERS},
                "output": output,
            })
            elapsed = time.perf_counter() - begin
            if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > seconds:
                break
        return passes, clock, True
    finally:
        patches.restore()


def best_pass(passes):
    """Job walls and pass wall of one pass with host interference filtered out.

    Every pass runs the same jobs in the same order, so job ``i`` of each
    pass is a repeat of one computation.  On a shared host, interference
    only ever adds time; the fastest of the fixed number of repeats of each
    job, plus the fastest repeat of the time between jobs (harness, oracle,
    aggregation, digest), estimates the pass as it runs undisturbed.
    """
    job_walls = [min(repeats) for repeats in zip(*(p["job_walls"] for p in passes))]
    between = min(p["wall"] - sum(p["job_walls"]) for p in passes)
    return job_walls, sum(job_walls) + between


def measure_end_to_end(args, workload, inputs, setup_s, tally):
    """The ``--trace 0`` run: returns (metrics, outputs, ran cleanly)."""
    setups = [rescaled_setup(setup_s)] + [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
    speed = HostSpeed()
    passes, clock, clean = timed_passes(workload, inputs, args.seconds, tally, speed)
    if not passes:
        return None, [], False
    factor = speed.factor()
    host_walls, host_wall = best_pass(passes)
    job_walls = [factor * job_wall for job_wall in host_walls]
    wall = factor * host_wall
    deciles = statistics.quantiles(job_walls, n=10)
    last = passes[-1]
    metrics = {
        "setup_s": statistics.median(setups),
        "events_per_s": last["counts"]["events_processed"] / wall,
        "jobs_per_s": len(job_walls) / wall,
        "session_requests_per_s": last["output"].session_requests / wall,
        "job_wall_p50_ms": 1000.0 * statistics.median(job_walls),
        "job_wall_p90_ms": 1000.0 * deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    beyond = sum(1 for job_wall in job_walls if job_wall > deciles[8])
    print(f"timed phase: {len(passes)} passes, host walls {[round(p['wall'], 3) for p in passes]} s, "
          f"best-of-repeats pass {host_wall:.3f} host s = {wall:.3f} reference s; "
          f"{len(job_walls)} jobs per pass, {beyond} beyond p90; "
          f"set-up samples {[round(s, 4) for s in setups]} reference s")
    samples = [sample for row in speed.rows for sample in row]
    print(f"host speed: {len(samples)} kernel samples, fastest {1000 * min(samples):.3f} ms, "
          f"median {1000 * statistics.median(samples):.3f} ms, estimate {1000 * speed.kernel_s():.3f} ms; "
          f"{factor:.4f} reference s per host s; {speed.spent_s:.3f} s spent sampling")
    counts = dict(last["counts"], peak_event_heap=clock.peak_event_heap)
    print("engine counts per pass (deterministic): "
          + ", ".join(f"{key} {value}" for key, value in sorted(counts.items())))
    return metrics, [p["output"] for p in passes], clean


def measure_layers(workload, seeds, tally):
    """The ``--trace 1`` run: untraced then traced pass, set-up included in both."""
    from repro.experiments.jobs import clear_context_cache

    clock, patches = JobClock(), Patches()
    clock.install(patches)
    outputs = []
    try:
        walls = []
        for traced in (False, True):
            recorder = SpanRecorder()
            if traced:
                counters_before = dict(clock.counters)
                install_layer_spans(recorder, patches)
            started = clock.started
            clear_context_cache()
            t0 = time.perf_counter()
            output = workload.run_pass(workload.setup(seeds))
            walls.append(time.perf_counter() - t0)
            tally.add(clock.started - started, output.failures)
            outputs.append(output)
    finally:
        patches.restore()
    leftover = wrapped_attributes()
    if leftover:
        raise RuntimeError(f"probes left installed after the traced run: {leftover}")

    untraced_wall, traced_wall = walls
    counters = {key: clock.counters[key] - counters_before.get(key, 0) for key in clock.counters}
    counts = recorder.counts
    cells = recorder.cells
    metrics = {}
    for layer in LAYERS:
        calls, self_s = cells.get(layer, (0, 0.0))
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = self_s
    rounds, elided = counters["dispatch_rounds"], counters["dispatches_elided"]
    schedule_calls = metrics["schedulers.schedule.calls"]
    context_calls = metrics["experiments.jobs.context.calls"]
    session_requests = counts["fleet.plan.session_requests"]
    metrics.update({
        "sim.engine.events": counters["events_processed"],
        "sim.engine.dispatch_rounds": rounds,
        "sim.engine.dispatches_elided": elided,
        "sim.engine.elision_ratio": elided / (rounds + elided) if rounds + elided else 0.0,
        "sim.engine.events_coalesced": counters["events_coalesced"],
        "sim.engine.peak_event_heap": clock.peak_event_heap,
        "sim.engine.requests_aborted": counters["requests_aborted"],
        "sim.engine.requests_retried": counters["requests_retried"],
        "sim.engine.requests_failed": counters["requests_failed"],
        "schedulers.schedule.useful_ratio": (
            counts["schedulers.schedule.useful"] / schedule_calls if schedule_calls else 0.0
        ),
        "experiments.jobs.context.hit_ratio": (
            1.0 - counts["experiments.jobs.context.misses"] / context_calls if context_calls else 0.0
        ),
        "sim.invariants.violations": counts["sim.invariants.violations"],
        "fleet.plan.session_requests": session_requests,
        "fleet.plan.admitted_ratio": (
            counts["fleet.plan.admitted"] / session_requests if session_requests else 0.0
        ),
        "fleet.audit.violations": counts["fleet.audit.violations"],
        "trace.wall_s": traced_wall,
        "trace.unattributed_s": traced_wall - recorder.self_total(),
        "trace.overhead_pct": 100.0 * (traced_wall - untraced_wall) / untraced_wall,
    })
    print(f"traced run: untraced pass {untraced_wall:.3f} s, traced pass {traced_wall:.3f} s "
          f"(set-up from a cleared context cache included in both)")
    return metrics, outputs


def main(argv=None):
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    seeds = Seeds(seed=args.seed, generator_seed=args.generator_seed, fuzz_seed=args.fuzz_seed)
    tally = Tally()
    if args.trace:
        metrics, outputs = measure_layers(workload, seeds, tally)
        clean = True
    else:
        inputs = workload.setup(seeds)
        setup_s = time.perf_counter() - _START
        if args.setup_only:
            print(json.dumps({"setup_s": rescaled_setup(setup_s)}))
            return 0
        metrics, outputs, clean = measure_end_to_end(args, workload, inputs, setup_s, tally)
        if metrics is None:
            print("perfbench: the first pass crashed; no metrics", file=sys.stderr)
            return 1

    from repro.experiments.benchmark import host_metadata

    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics do not match the declared set: {sorted(set(metrics) ^ set(units))}")
    digests = sorted({output.digest for output in outputs})
    reference = recorded_digest(args.workload, seeds)
    reproducible = len(digests) == 1
    matches = reference is None or reference == digests[0]
    correct = clean and reproducible and matches and tally.by_check["raised"] == 0
    payload = {
        "workload": args.workload,
        "seeds": vars(seeds),
        "trace": args.trace,
        "host": host_metadata(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "digest": digests[0],
        "digest_matches_recorded": reference == digests[0] if reference else None,
        "checks": tally.by_check,
        "simulated": outputs[0].simulated,
    }
    print(f"perfbench {args.workload} {seed_key(args.workload, seeds)} trace={args.trace} "
          f"nproc={payload['nproc']} commit={payload['commit']}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    for name, value in outputs[0].simulated.items():
        print(f"  {name:40s} {value:>16.6g} pp  (simulated, deterministic per seed)")
    print(f"jobs: attempted {tally.attempted}, failed {tally.failed} ("
          + ", ".join(f"{check} {count}" for check, count in tally.by_check.items()) + ")")
    if not reproducible:
        status = f"MISMATCH between passes: {digests}"
    elif reference is None:
        status = "no digest recorded for these seeds"
    elif reference == digests[0]:
        status = "matches the recorded digest"
    else:
        status = (f"differs from the recorded digest {reference}: the simulated output changed, so "
                  "the run is not correct until digests.json is re-recorded (record_digests.py)")
    print(f"digest: {digests[0]} {status}")
    print("payload: " + json.dumps(payload, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
