"""``repro serve`` — run the churn-driven migration service.

Examples::

    repro serve --steps 96 --pms 8 --capacity 12 --seed 0
    repro serve --steps 96 --checkpoint svc.npz --checkpoint-every 24
    repro serve --steps 96 --checkpoint svc.npz --stop-after-step 47
    repro serve --resume svc.npz
    repro serve --steps 96 --trace events.jsonl --events replay.jsonl

A run interrupted with ``--stop-after-step`` (or killed after a
``--checkpoint-every`` boundary) resumes with ``--resume`` and finishes
with results byte-identical to the uninterrupted run.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.cloudsim.events import EventLog
from repro.errors import ReproError

__all__ = ["build_parser", "run"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "long-running migration service: VM churn, event-driven "
            "stepping, checkpointed learn-as-you-go"
        ),
    )
    parser.add_argument("--steps", type=int, default=96)
    parser.add_argument("--pms", type=int, default=8)
    parser.add_argument(
        "--capacity",
        type=int,
        default=12,
        help="VM slots (the fixed basis size arrivals map onto)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--arrival-rate",
        type=float,
        default=0.6,
        help="mean Poisson VM arrivals per interval",
    )
    parser.add_argument(
        "--mean-lifetime",
        type=float,
        default=24.0,
        help="mean geometric VM holding time, in intervals",
    )
    parser.add_argument("--initial-vms", type=int, default=6)
    parser.add_argument(
        "--resize-probability", type=float, default=0.15
    )
    parser.add_argument(
        "--decide-every",
        type=int,
        default=1,
        help="scheduler decision cadence, in steps",
    )
    parser.add_argument(
        "--scan-every",
        type=int,
        default=1,
        help="utilization-scan cadence, in steps",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="JSONL",
        help="replay churn from a lifecycle trace instead of generating",
    )
    parser.add_argument(
        "--events",
        default=None,
        metavar="JSONL",
        help="write the structured event log here",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="NPZ",
        help="checkpoint file to write",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="checkpoint every N completed steps (needs --checkpoint)",
    )
    parser.add_argument(
        "--stop-after-step",
        type=int,
        default=None,
        metavar="K",
        help="finish step K, checkpoint, and exit (needs --checkpoint)",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="NPZ",
        help="resume a run from this service checkpoint",
    )
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro serve``; returns a process exit code."""
    args = build_parser().parse_args(
        list(argv) if argv is not None else []
    )
    try:
        if args.resume is not None:
            from repro.core.checkpoint import load_service

            service, agent = load_service(args.resume)
            checkpoint_path = args.checkpoint or args.resume
        else:
            from repro.core.agent import MeghScheduler
            from repro.service.builders import build_churn_service

            service = build_churn_service(
                seed=args.seed,
                num_pms=args.pms,
                capacity=args.capacity,
                num_steps=args.steps,
                arrival_rate=args.arrival_rate,
                mean_lifetime_steps=args.mean_lifetime,
                initial_vms=args.initial_vms,
                resize_probability=args.resize_probability,
                decide_every=args.decide_every,
                scan_every=args.scan_every,
                trace_path=args.trace,
            )
            agent = MeghScheduler.from_simulation(service, seed=args.seed)
            checkpoint_path = args.checkpoint
        event_log = EventLog() if args.events is not None else None
        result = service.run(
            agent,
            event_log=event_log,
            checkpoint_every=args.checkpoint_every,
            checkpoint_path=checkpoint_path,
            stop_after_step=args.stop_after_step,
        )
    except ReproError as error:
        print(f"repro serve: error: {error}", file=sys.stderr)
        return 2
    if event_log is not None:
        event_log.save_jsonl(args.events)
        print(f"wrote {len(event_log)} events to {args.events}")
    lines: List[str] = []
    if result is None:
        lines.append(
            f"serve: stopped after step {args.stop_after_step}; "
            f"checkpoint written to {checkpoint_path} "
            f"(resume with --resume {checkpoint_path})"
        )
    else:
        lines.append(result.summary())
        lines.append(
            f"churn events      : {service.churn_events_applied} applied, "
            f"{service.num_live_vms} VMs live at end"
        )
        lines.append(
            f"slot retirements  : {agent.lstd.retirements_applied} retire "
            f"calls, {agent.lstd.retirements_skipped} rank-1 clears "
            f"skipped at the denominator floor"
        )
    print("\n".join(lines))
    return 0
