"""One benchmark run: set up, run and check a workload, then summarise it.

Imported by ``run.py`` only after it has fixed the environment (contracts
off, BLAS threads, kernel cache), because ``repro`` and NumPy read it at
import time.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cloudsim.validation import check_invariants
from repro.core.agent import MeghScheduler
from repro.core.sparse import SparseMatrix
from repro.service.loop import ServiceSimulation
from hostspeed import SpeedProbe
from scenarios import (
    DEFAULT_SEED,
    HELD_OUT_SEED,
    WORKLOADS,
    Built,
    Counts,
    instrument,
)
from spans import Tracer
from stats import percentile, ratio, tail_percentile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: After each horizon the workload is set up again, at least once and
#: then while the next one fits in SETUP_SLOT_SECONDS, so set-ups sample
#: the whole run.  ``setup_s`` is the median of at least SETUP_REPEATS.
SETUP_SLOT_SECONDS = 0.5
SETUP_REPEATS = 5
#: Horizons per untraced run, at least.  Timings take each step's median
#: over the run's horizons, so a spell of the host that is slower or
#: faster than usual and spans a minority of them does not move them.
MIN_HORIZONS = 3


class OutputError(Exception):
    """A run's output failed the benchmark's correctness check."""


class SchedulerProxy:
    """Times every ``decide()`` of the scheduler it stands in for.

    Before each call it may time a reference slice (``probe``); the
    host seconds that took are kept so that steps can leave them out.
    """

    def __init__(self, inner: Any, probe: SpeedProbe) -> None:
        self._inner = inner
        self._probe = probe
        self.entries: List[float] = []
        self.durations: List[float] = []
        self.probe_seconds: List[float] = []

    def decide(self, observation: Any) -> Any:
        self.probe_seconds.append(self._probe.between_steps())
        started = time.perf_counter()
        self.entries.append(started)
        try:
            return self._inner.decide(observation)
        finally:
            self.durations.append(time.perf_counter() - started)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


@dataclass
class Setup:
    """One set-up of the workload, in host seconds, and its slowdown."""

    seconds: float
    spans: Tracer
    slowdown: float

    def nominal(self, seconds: float) -> float:
        """``seconds`` of this set-up at the nominal host speed."""
        return seconds / self.slowdown


@dataclass
class Horizon:
    """One full run of a freshly built workload.

    Step and decide times are at the nominal host speed: host seconds
    over the horizon's ``slowdown``.
    """

    steps: int
    setup: Setup
    failed: int = 0
    slowdown: float = 1.0
    step_seconds: List[float] = field(default_factory=list)
    decide_seconds: List[float] = field(default_factory=list)
    raw_step_seconds: List[float] = field(default_factory=list)
    digest: Optional[str] = None
    total_cost_usd: float = 0.0
    migrations: int = 0
    #: Flush backend the scheduler's learner used ("none" without one).
    kernel: str = "none"
    layers: Dict[str, float] = field(default_factory=dict)
    shares: Dict[str, float] = field(default_factory=dict)


def declared_units() -> Dict[str, str]:
    """Unit of every metric ``BENCHMARK.json`` declares, by name."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        metric["name"]: metric["unit"]
        for metric in spec["end_to_end"] + spec["per_layer"]
    }


def warm_kernel() -> str:
    """Build (or load) the compiled flush kernel before anything is timed."""
    return SparseMatrix(1).kernel_name


def check_output(built: Built, result: Any) -> str:
    """Raise :class:`OutputError` on a bad run; else digest its results.

    The digest covers every simulated number of the run and leaves out
    only the measured ``scheduler_seconds``, so two runs of one seed must
    give equal digests.
    """
    check_invariants(built.sim.datacenter)
    cost = result.total_cost_usd
    if not (math.isfinite(cost) and cost >= 0.0):
        raise OutputError(f"total cost {cost!r} is not finite and >= 0")
    payload = result.to_dict()
    for step in payload["steps"]:
        step.pop("scheduler_seconds", None)
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build(workload: str, seed: int, smoke: bool, run_id: str) -> tuple:
    tracer = Tracer(run_id)
    # One reference slice just before and one just after the set-up give
    # its slowdown (see ``hostspeed``).  Not more: a slice run straight
    # after another finds its data in cache and reads fast.
    probe = SpeedProbe()
    probe.sample()
    started = time.perf_counter()
    built = WORKLOADS[workload](tracer, seed, smoke)
    seconds = time.perf_counter() - started
    probe.sample()
    return built, Setup(seconds, tracer, probe.slowdown())


def setup_slot(
    workload: str, seed: int, smoke: bool, run_id: str
) -> List[Setup]:
    """The set-ups that fit in one slot (at least one)."""
    setups: List[Setup] = []
    spent = 0.0
    while not setups or spent + setups[-1].seconds <= SETUP_SLOT_SECONDS:
        built, setup = build(workload, seed, smoke, run_id)
        del built
        setups.append(setup)
        spent += setup.seconds
    gc.collect()
    return setups


def run_horizon(
    workload: str, seed: int, smoke: bool, run_id: str, traced: bool
) -> Horizon:
    built, setup = build(workload, seed, smoke, run_id)
    horizon = Horizon(built.num_steps, setup)
    if isinstance(built.scheduler, MeghScheduler):
        horizon.kernel = built.scheduler.lstd.B.kernel_stats()["kernel"]
    tracer = Tracer(run_id)
    counts = Counts()
    probe = SpeedProbe()
    proxy = SchedulerProxy(built.scheduler, probe)
    if traced:
        instrument(tracer, built, counts)
    try:
        started = time.perf_counter()
        result = built.sim.run(proxy, validate_every_step=False)
        ended = time.perf_counter()
    except Exception:  # a failed run is counted, not fatal
        traceback.print_exc()
        horizon.failed = built.num_steps
        return horizon
    finally:
        tracer.restore()
    entries = proxy.entries
    # Step i ends where step i + 1 starts, less the reference slice
    # timed just before it.
    horizon.raw_step_seconds = [
        later - earlier - probed
        for earlier, later, probed in zip(
            entries, entries[1:] + [ended], proxy.probe_seconds[1:] + [0.0]
        )
    ]
    horizon.slowdown = probe.slowdown()
    horizon.step_seconds = [
        seconds / horizon.slowdown for seconds in horizon.raw_step_seconds
    ]
    horizon.decide_seconds = [
        seconds / horizon.slowdown for seconds in proxy.durations
    ]
    try:
        horizon.digest = check_output(built, result)
    except Exception:  # includes InvariantViolation and OutputError
        traceback.print_exc()
        horizon.failed = built.num_steps
        return horizon
    horizon.failed = built.num_steps - len(entries)
    horizon.total_cost_usd = result.total_cost_usd
    horizon.migrations = result.total_migrations
    if traced:
        horizon.layers, horizon.shares = layer_metrics(
            tracer,
            counts,
            built,
            result,
            (entries[0], ended),
            sum(proxy.probe_seconds[1:]),
            horizon.slowdown,
        )
        tracer.dump(trace_path(workload, seed))
    return horizon


def trace_path(workload: str, seed: int) -> str:
    return os.path.join(
        ROOT, ".bench_build", "traces", f"{workload}-seed{seed}.json"
    )


#: Layer of each parentless span, for the layer shares of a step.
TOP_LEVEL_LAYER = {
    "core.retire": "core",
    "mdp.observe_state": "mdp",
    "costs.step_cost": "costs",
    "workloads.step_slice": "workloads",
}


def layer_metrics(
    tracer: Tracer,
    counts: Counts,
    built: Built,
    result: Any,
    bounds: Tuple[float, float],
    probed: float,
    slowdown: float,
) -> tuple:
    """Per-layer metrics of a traced horizon, plus each layer's share.

    Steps run from one ``decide()`` entry to the next (the last one to
    the end of the run, ``bounds``); times are milliseconds per step at
    the nominal host speed.  The ``probed`` seconds of reference slices
    between the steps belong to no layer and are left out.
    """
    lo, hi = bounds
    measured = (hi - lo) - probed
    steps = built.num_steps
    scheduler, sim = built.scheduler, built.sim
    is_megh = isinstance(scheduler, MeghScheduler)
    is_service = isinstance(sim, ServiceSimulation)

    def ms(name: str) -> float:
        return tracer.seconds(name) * 1e3 / steps / slowdown

    residual = tracer.root_self_seconds(lo, hi) - probed
    residual_ms = residual * 1e3 / steps / slowdown
    step_metrics = result.metrics.steps
    started = sum(step.num_migrations_started for step in step_metrics)
    rejected = sum(step.num_migrations_rejected for step in step_metrics)
    metrics: Dict[str, float] = {
        "core.candidates_ms": ms("core.candidates"),
        "core.q_ms": ms("core.q"),
        "core.update_ms": ms("core.update"),
        "core.flush_ms": ms("core.flush"),
        "core.select_ms": ms("core.select"),
        "core.retire_ms": ms("core.retire"),
        "core.candidate_actions": counts.candidate_actions / steps,
        "cloudsim.monitor_ms": ms("cloudsim.monitor"),
        "cloudsim.migration_ms": ms("cloudsim.migration"),
        "cloudsim.share_cpu_ms": ms("cloudsim.share_cpu"),
        "cloudsim.sla_ms": ms("cloudsim.sla"),
        "cloudsim.host_scan_ms": ms("cloudsim.host_scan"),
        "cloudsim.self_ms": 0.0 if is_service else residual_ms,
        "cloudsim.migration_reject_ratio": ratio(rejected, started + rejected),
        "mdp.observe_state_ms": ms("mdp.observe_state"),
        "costs.step_cost_ms": ms("costs.step_cost"),
        "workloads.step_slice_ms": ms("workloads.step_slice"),
        "mmt.detect_ms": ms("mmt.detect"),
        "mmt.select_ms": ms("mmt.select"),
        "mmt.place_ms": ms("mmt.place"),
        "mmt.place_calls": counts.place_calls / steps,
        "mmt.evacuation_ratio": ratio(counts.place_full, counts.place_calls),
        "service.self_ms": residual_ms if is_service else 0.0,
        "service.churn_events": (
            sim.churn_events_applied / steps if is_service else 0.0
        ),
        "trace.coverage": ratio(measured - residual, measured),
    }
    lstd = scheduler.lstd if is_megh else None
    kernel = lstd.B.kernel_stats() if is_megh else {}
    metrics.update(
        {
            "core.theta_cache_hit_ratio": ratio(
                lstd.theta_cache_hits,
                lstd.theta_cache_hits + lstd.theta_cache_misses,
            ) if is_megh else 0.0,
            "core.b_nnz": float(lstd.B.nnz) if is_megh else 0.0,
            "core.kernel_flushes": (
                (kernel["row_flushes"] + kernel["full_flushes"]) / steps
                if is_megh else 0.0
            ),
            "core.replay_useful_ratio": ratio(
                kernel["applied"], kernel["applied"] + kernel["skipped"]
            ) if is_megh else 0.0,
            "core.retirements": (
                lstd.retirements_applied / steps if is_megh else 0.0
            ),
        }
    )
    driver = "service" if is_service else "cloudsim"
    decide_layer = "core" if is_megh else "mmt"
    shares: Dict[str, float] = {driver: residual}
    for name, seconds in tracer.top_level(lo, hi).items():
        if name == "decide":
            layer = decide_layer
        else:
            layer = TOP_LEVEL_LAYER.get(name, name.split(".")[0])
        shares[layer] = shares.get(layer, 0.0) + seconds
    return metrics, {
        layer: round(seconds / measured, 4) for layer, seconds in shares.items()
    }


def setup_phases(setups: List[Setup]) -> Dict[str, float]:
    """Median nominal seconds of each set-up phase over the run's set-ups."""
    return {
        "setup.workload_s": median(
            [s.nominal(s.spans.seconds("setup.workload")) for s in setups]
        ),
        "setup.fleet_s": median(
            [s.nominal(s.spans.self_seconds("setup.fleet")) for s in setups]
        ),
        "setup.scheduler_s": median(
            [s.nominal(s.spans.seconds("setup.scheduler")) for s in setups]
        ),
    }


def median(values: List[float]) -> float:
    return percentile(values, 50.0)


def per_step_median(horizons: List[Horizon], samples: str) -> List[float]:
    """Each step's median ``samples`` time over the run's horizons.

    Every horizon of a run repeats identical work (same seed, same
    simulated results), so the repeats of one step differ only by what
    the host did meanwhile; their median is the reading least moved by
    a spell of interference, or of unusual quiet, in one of them.
    """
    repeats = zip(*(getattr(horizon, samples) for horizon in horizons))
    return [median(list(times)) for times in repeats]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(
    workload: str,
    seed: Optional[int],
    seconds: float,
    trace: bool,
    smoke: bool,
) -> int:
    """Measure ``workload`` and print the metadata and result lines."""
    if seed is None:
        seed = DEFAULT_SEED
    run_id = uuid.uuid4().hex
    kernel = warm_kernel()
    horizons: List[Horizon] = []
    setups: List[Setup] = []

    def measure_horizon(traced: bool) -> Horizon:
        horizon = run_horizon(workload, seed, smoke, run_id, traced)
        horizons.append(horizon)
        setups.append(horizon.setup)
        gc.collect()
        setups.extend(setup_slot(workload, seed, smoke, run_id))
        return horizon

    if trace:
        # One untraced horizon as the overhead reference, one traced.
        measure_horizon(False)
        measure_horizon(True)
    else:
        # Host time of the whole loop, set-ups included, so a run's wall
        # time stays near ``seconds`` however fast the host is.
        started = time.perf_counter()
        while True:
            lap = time.perf_counter()
            horizon = measure_horizon(False)
            ended = time.perf_counter()
            if (
                len(horizons) >= MIN_HORIZONS
                and (ended - started) + (ended - lap) > seconds
            ) or horizon.failed:
                break
    while len(setups) < SETUP_REPEATS:
        setups.extend(setup_slot(workload, seed, smoke, run_id))

    digests = {h.digest for h in horizons if h.digest is not None}
    if len(digests) > 1:
        print("repeats of one seed gave different results", file=sys.stderr)
        for horizon in horizons:
            horizon.failed = horizon.steps
    attempted = sum(h.steps for h in horizons)
    failed = sum(h.failed for h in horizons)
    tail = tail_percentile(horizons[0].steps)
    first = horizons[0]

    meta: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "run_id": run_id,
        "smoke": smoke,
        "trace": trace,
        "kernel_warmed": kernel,
        "kernel_ran": first.kernel,
        "contracts": os.environ.get("REPRO_CONTRACTS"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "horizons": len(horizons),
        "steps_per_horizon": first.steps,
        "step_samples": sum(len(h.step_seconds) for h in horizons),
        "step_tail_percentile": tail,
        "setups": len(setups),
        "host_slowdown": [round(h.slowdown, 4) for h in horizons],
        "setup_slowdown_median": median([s.slowdown for s in setups]),
    }
    units = declared_units()
    if failed:
        metrics: Dict[str, Any] = {
            "completed_step_fraction": ratio(attempted - failed, attempted)
        }
    elif trace:
        reference, traced = horizons
        metrics = dict(traced.layers)
        metrics.update(setup_phases(setups))
        metrics["trace.overhead"] = 1.0 - ratio(
            sum(reference.step_seconds), sum(traced.step_seconds)
        )
        meta["layer_shares"] = traced.shares
        meta["trace_file"] = os.path.relpath(
            trace_path(workload, seed), os.getcwd()
        )
    else:
        steps = per_step_median(horizons, "step_seconds")
        decides = per_step_median(horizons, "decide_seconds")
        raw_steps = per_step_median(horizons, "raw_step_seconds")
        meta["raw_step_ms_p50"] = percentile(raw_steps, 50.0) * 1e3
        meta["raw_setup_s"] = median([s.seconds for s in setups])
        metrics = {
            "setup_s": median([s.nominal(s.seconds) for s in setups]),
            "steps_per_s": len(steps) / sum(steps),
            "step_ms_p50": percentile(steps, 50.0) * 1e3,
            "step_ms_tail": percentile(steps, tail) * 1e3,
            "decide_ms_p50": percentile(decides, 50.0) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
            "total_cost_usd": first.total_cost_usd,
            "migrations": first.migrations,
            "completed_step_fraction": ratio(attempted - failed, attempted),
        }
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1
