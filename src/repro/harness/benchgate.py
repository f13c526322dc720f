"""``repro bench --check`` — perf-regression smoke gate.

Compares fresh ``--fast`` numbers from ``benchmarks/bench_core_lstd.py``,
``benchmarks/bench_core_decide.py``, ``benchmarks/bench_sim_step.py``
and ``benchmarks/bench_service_churn.py`` against the committed records
(``BENCH_core.json`` / ``BENCH_sim.json`` / ``BENCH_service.json``) and
fails when a throughput metric falls below its noise floor.  The two
core scripts merge into the same fresh document (``lstd`` and
``decide`` sections of the core record).

Fast mode runs a much smaller problem than the committed records, so
the two are *not* directly comparable — batched kernels lose their
amortization at tiny scale (the batched Q-evaluation legitimately runs
at ~5% of its paper-scale throughput) while the simulator step runs
~3.6× *faster* on the small fleet.  Each metric therefore carries its
own calibrated floor: the minimum acceptable ``fresh / committed``
ratio, set with ≳3× headroom below the ratio measured on the reference
container.  The gate catches collapses (an accidental O(n²) hot path,
a dropped cache), not percent-level jitter.  ``--band`` scales every
floor at once (e.g. ``--band 0.5`` halves them for noisy CI runners).

Two checks are exact rather than statistical: the fresh sim benchmark's
``identical_results_soa_vs_reference`` must be ``True``, and the fresh
decide benchmark (run with ``--check-oracle``) must report
``oracle_match`` ``True`` — a perf gate that tolerates a bit-identity
break would be certifying the wrong thing.

Exit codes mirror ``repro lint``: 0 ok, 1 regression, 2 on crashes and
usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["METRIC_FLOORS", "check_benchmarks", "run"]

#: (committed file key, dotted metric path, minimum fresh/committed
#: ratio).  Floors are calibrated against fast-mode runs on the
#: reference container; see the module docstring.  The committed
#: ``rank_one_update_ops_per_s`` is a compiled-kernel number
#: (fast-mode fresh/committed ratio ~1.05 with the C backend); on a
#: machine with no C compiler the eager path runs fast mode at a
#: ratio of ~0.07 — use ``--band`` there rather than loosening the
#: floor for everyone.
METRIC_FLOORS: Tuple[Tuple[str, str, float], ...] = (
    ("core", "lstd.rank_one_update_ops_per_s", 0.25),
    ("core", "lstd.q_value_cold_ops_per_s", 0.15),
    ("core", "lstd.q_value_warm_ops_per_s", 0.15),
    ("core", "lstd.q_values_batched_ops_per_s", 0.01),
    ("core", "lstd.warm_over_cold_speedup", 0.20),
    ("core", "decide.decide_ops_per_s", 0.75),
    ("sim", "sim_step.after.steps_per_s_non_scheduler", 1.00),
    ("sim", "sim_step.speedup_non_scheduler", 0.08),
    ("service", "service_churn.steps_per_s", 0.50),
    ("service", "service_churn.events_per_s", 0.30),
    ("service", "service_churn.retirements_per_s", 0.25),
)


@dataclass(frozen=True)
class GateFinding:
    """One metric's verdict."""

    metric: str
    fresh: float
    committed: float
    floor: float
    ok: bool

    def format(self) -> str:
        status = "ok" if self.ok else "REGRESSION"
        ratio = (
            self.fresh / self.committed if self.committed else float("inf")
        )
        return (
            f"bench-gate: {status} {self.metric} "
            f"fresh={self.fresh:.6g} committed={self.committed:.6g} "
            f"ratio={ratio:.3f} floor={self.floor:.3f}"
        )


def _dig(document: Dict[str, Any], dotted: str) -> Any:
    value: Any = document
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            raise KeyError(
                f"metric {dotted!r} missing at {part!r} "
                "(benchmark schema drift?)"
            )
        value = value[part]
    return value


def check_benchmarks(
    fresh: Dict[str, Dict[str, Any]],
    committed: Dict[str, Dict[str, Any]],
    band: float = 1.0,
) -> Tuple[List[GateFinding], List[str]]:
    """Compare fresh fast-mode documents against committed records.

    ``fresh``/``committed`` map the file key (``core``/``sim``) to its
    parsed JSON document.  Returns per-metric findings plus hard-check
    failure messages (schema drift, bit-identity break).
    """
    findings: List[GateFinding] = []
    hard_failures: List[str] = []
    for key, dotted, base_floor in METRIC_FLOORS:
        try:
            fresh_value = float(_dig(fresh[key], dotted))
            committed_value = float(_dig(committed[key], dotted))
        except KeyError as error:
            hard_failures.append(f"bench-gate: {key}: {error.args[0]}")
            continue
        floor = base_floor * band
        ok = fresh_value >= committed_value * floor
        findings.append(
            GateFinding(
                metric=f"{key}:{dotted}",
                fresh=fresh_value,
                committed=committed_value,
                floor=floor,
                ok=ok,
            )
        )
    try:
        identical = _dig(
            fresh["sim"], "sim_step.identical_results_soa_vs_reference"
        )
        if identical is not True:
            hard_failures.append(
                "bench-gate: fresh sim run reports "
                "identical_results_soa_vs_reference="
                f"{identical!r} — the SoA backend diverged from the "
                "scalar reference; fix bit-identity before perf"
            )
    except KeyError as error:
        hard_failures.append(f"bench-gate: sim: {error.args[0]}")
    try:
        oracle = _dig(fresh["core"], "decide.oracle_match")
        if oracle is not True:
            hard_failures.append(
                "bench-gate: fresh decide run reports "
                f"oracle_match={oracle!r} — the vectorized candidate "
                "pipeline diverged from the scalar generator; fix "
                "bit-identity before perf"
            )
    except KeyError as error:
        hard_failures.append(f"bench-gate: core: {error.args[0]}")
    return findings, hard_failures


def _run_fast_benchmark(
    script: Path,
    out: Path,
    seed: int,
    extra: Sequence[str] = (),
) -> None:
    """Run one benchmark script in fast mode writing JSON to ``out``."""
    environment = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    existing = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = (
        src_root if not existing else f"{src_root}{os.pathsep}{existing}"
    )
    subprocess.run(
        [
            sys.executable,
            str(script),
            "--fast",
            "--seed",
            str(seed),
            "--out",
            str(out),
            *extra,
        ],
        check=True,
        env=environment,
    )


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for ``repro bench``."""
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description=(
            "perf-regression smoke gate: fresh --fast benchmark runs "
            "vs the committed BENCH_core.json / BENCH_sim.json"
        ),
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="run the gate (required; reserved for future subcommands)",
    )
    parser.add_argument(
        "--band",
        type=float,
        default=1.0,
        help=(
            "scale every noise floor by this factor "
            "(default 1.0; lower tolerates more regression)"
        ),
    )
    parser.add_argument(
        "--bench-dir",
        default="benchmarks",
        metavar="DIR",
        help="directory holding the benchmark scripts",
    )
    parser.add_argument(
        "--committed-core",
        default="BENCH_core.json",
        metavar="FILE",
        help="committed core-benchmark record",
    )
    parser.add_argument(
        "--committed-sim",
        default="BENCH_sim.json",
        metavar="FILE",
        help="committed simulator-benchmark record",
    )
    parser.add_argument(
        "--committed-service",
        default="BENCH_service.json",
        metavar="FILE",
        help="committed service-benchmark record",
    )
    parser.add_argument(
        "--fresh-core",
        default=None,
        metavar="FILE",
        help=(
            "use this JSON instead of running bench_core_lstd.py and "
            "bench_core_decide.py (must hold both sections)"
        ),
    )
    parser.add_argument(
        "--fresh-sim",
        default=None,
        metavar="FILE",
        help="use this JSON instead of running bench_sim_step.py",
    )
    parser.add_argument(
        "--fresh-service",
        default=None,
        metavar="FILE",
        help="use this JSON instead of running bench_service_churn.py",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed forwarded to the benchmark scripts (default 0)",
    )
    return parser


def _load_json(path: Path) -> Dict[str, Any]:
    document = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(document, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return document


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro bench``; returns a process exit code."""
    args = build_parser().parse_args(list(argv) if argv is not None else [])
    if not args.check:
        print("repro bench: error: nothing to do (did you mean --check?)")
        return 2
    try:
        committed = {
            "core": _load_json(Path(args.committed_core)),
            "sim": _load_json(Path(args.committed_sim)),
            "service": _load_json(Path(args.committed_service)),
        }
        with tempfile.TemporaryDirectory(prefix="benchgate-") as scratch:
            scratch_dir = Path(scratch)
            if args.fresh_core is not None:
                fresh_core = Path(args.fresh_core)
            else:
                fresh_core = scratch_dir / "fresh_core.json"
                _run_fast_benchmark(
                    Path(args.bench_dir) / "bench_core_lstd.py",
                    fresh_core,
                    args.seed,
                )
                # Merges into the same core document ("decide" section);
                # --check-oracle makes a candidate-pipeline divergence a
                # non-zero exit here, before the floors are even read.
                _run_fast_benchmark(
                    Path(args.bench_dir) / "bench_core_decide.py",
                    fresh_core,
                    args.seed,
                    extra=("--check-oracle",),
                )
            if args.fresh_sim is not None:
                fresh_sim = Path(args.fresh_sim)
            else:
                fresh_sim = scratch_dir / "fresh_sim.json"
                _run_fast_benchmark(
                    Path(args.bench_dir) / "bench_sim_step.py",
                    fresh_sim,
                    args.seed,
                )
            if args.fresh_service is not None:
                fresh_service = Path(args.fresh_service)
            else:
                fresh_service = scratch_dir / "fresh_service.json"
                _run_fast_benchmark(
                    Path(args.bench_dir) / "bench_service_churn.py",
                    fresh_service,
                    args.seed,
                )
            fresh = {
                "core": _load_json(fresh_core),
                "sim": _load_json(fresh_sim),
                "service": _load_json(fresh_service),
            }
    except (OSError, ValueError, subprocess.CalledProcessError) as error:
        print(f"repro bench: error: {error}")
        return 2
    findings, hard_failures = check_benchmarks(
        fresh, committed, band=args.band
    )
    for finding in findings:
        print(finding.format())
    for failure in hard_failures:
        print(failure)
    regressions = [finding for finding in findings if not finding.ok]
    if regressions or hard_failures:
        print(
            f"bench-gate: FAIL — {len(regressions)} metric(s) below the "
            f"noise floor, {len(hard_failures)} hard failure(s)"
        )
        return 1
    print(f"bench-gate: ok — {len(findings)} metric(s) within band")
    return 0


if __name__ == "__main__":
    raise SystemExit(run(sys.argv[1:]))
