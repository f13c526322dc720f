"""Worker pool and the :class:`ExecutionEngine` facade.

Execution model:

* ``jobs=1`` runs every spec inline, in submission order, in the current
  process — the bit-identical baseline.
* ``jobs=N`` runs specs on ``N`` persistent worker processes started
  with the ``spawn`` context (clean interpreters, no inherited state —
  and the only start method that is fork-safety-proof across platforms).
  Workers receive picklable :class:`~repro.engine.jobs.JobSpec`s over a
  pipe, rebuild the simulation from the seed, and send back a serialized
  result dict.

Fault isolation: a job that raises fails alone (its exception text comes
back over the pipe); a worker that dies mid-job (segfault, OOM kill)
takes down only its current job, which is retried a bounded number of
times on a fresh worker before being recorded as crashed; a job that
exceeds its timeout has its worker killed and is recorded as timed out.
Sibling jobs and the cache are never poisoned — only successful results
are stored.

Determinism: results are returned in submission order regardless of
completion order, and each job rebuilds its whole world from its seed,
so ``jobs=1`` and ``jobs=N`` produce identical simulated metrics.  (The
measured ``scheduler_seconds`` timings are wall durations and therefore
vary run to run — they are measurements, not simulation outputs; cached
replays return even those bit-for-bit.)
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
import traceback
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.cloudsim.simulation import SimulationResult
from repro.engine import events as ev
from repro.engine.cache import ResultCache
from repro.engine.events import EventJournal
from repro.engine.jobs import JobSpec, content_hash
from repro.engine.registry import (
    BuilderSpec,
    SchedulerSpec,
    execute_spec,
    job_spec,
)
from repro.engine.serialize import result_from_dict, result_to_dict
from repro.errors import ConfigurationError, EngineError

#: Job terminal states.
STATUS_OK = "ok"
STATUS_FAILED = "failed"  # the job itself raised (deterministic; no retry)
STATUS_TIMEOUT = "timeout"  # exceeded timeout_seconds; worker killed
STATUS_CRASHED = "crashed"  # worker died mid-job; retried up to `retries`

#: Supervisor poll interval while waiting on workers (seconds).
_POLL_SECONDS = 0.02


@dataclass
class JobResult:
    """Terminal record for one job: outcome, provenance, and cost."""

    spec: JobSpec
    key: str
    status: str
    result: Optional[SimulationResult] = None
    error: str = ""
    attempts: int = 1
    duration_seconds: float = 0.0
    from_cache: bool = False

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


def _worker_main(conn) -> None:
    """Worker loop: receive specs, execute, reply — until EOF/None."""
    while True:
        try:
            spec = conn.recv()
        except (EOFError, OSError):
            break
        if spec is None:
            break
        try:
            payload: Tuple[str, Any] = (
                "ok",
                result_to_dict(execute_spec(spec)),
            )
        except Exception as exc:  # isolation boundary: report, don't die
            payload = (
                "error",
                f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
            )
        try:
            conn.send(payload)
        except (BrokenPipeError, OSError):
            break  # supervisor went away; nothing left to report to
    conn.close()


@dataclass
class _Worker:
    """Supervisor-side handle for one worker process."""

    process: Any
    conn: Any
    job: Optional[Tuple[int, int]] = None  # (spec index, attempt)
    started: float = 0.0


class _Supervisor:
    """Drives persistent workers over a pending queue of specs."""

    def __init__(
        self,
        specs: Sequence[JobSpec],
        keys: Sequence[str],
        jobs: int,
        journal: EventJournal,
        cache: Optional[ResultCache],
        timeout_seconds: Optional[float],
        retries: int,
    ) -> None:
        self.specs = specs
        self.keys = keys
        self.jobs = jobs
        self.journal = journal
        self.cache = cache
        self.timeout_seconds = timeout_seconds
        self.retries = retries
        self.context = multiprocessing.get_context("spawn")
        self.workers: List[_Worker] = []
        self.results: Dict[int, JobResult] = {}
        self.pending: Deque[Tuple[int, int]] = deque()

    # -- worker lifecycle ----------------------------------------------
    def _spawn_worker(self) -> _Worker:
        parent_conn, child_conn = self.context.Pipe()
        process = self.context.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()
        worker = _Worker(process=process, conn=parent_conn)
        self.workers.append(worker)
        return worker

    def _discard_worker(self, worker: _Worker, kill: bool = False) -> None:
        self.workers.remove(worker)
        try:
            worker.conn.close()
        except OSError:
            pass  # pipe already broken; the worker is being discarded
        if kill and worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5.0)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(timeout=5.0)

    # -- job bookkeeping -----------------------------------------------
    def _record(self, index: int, job_result: JobResult) -> None:
        self.results[index] = job_result

    def _fail(
        self,
        index: int,
        attempt: int,
        status: str,
        error: str,
        duration: float,
    ) -> None:
        spec, key = self.specs[index], self.keys[index]
        kind = ev.TIMEOUT if status == STATUS_TIMEOUT else ev.FAILED
        self.journal.emit(
            kind,
            key,
            tag=spec.tag,
            attempt=attempt,
            duration_seconds=duration,
            detail=error.splitlines()[0] if error else "",
        )
        self._record(
            index,
            JobResult(
                spec=spec,
                key=key,
                status=status,
                error=error,
                attempts=attempt,
                duration_seconds=duration,
            ),
        )

    def _finish(
        self, index: int, attempt: int, result: SimulationResult, duration: float
    ) -> None:
        spec, key = self.specs[index], self.keys[index]
        self.journal.emit(
            ev.FINISHED,
            key,
            tag=spec.tag,
            attempt=attempt,
            duration_seconds=duration,
        )
        if self.cache is not None:
            self.cache.put(key, result)
        self._record(
            index,
            JobResult(
                spec=spec,
                key=key,
                status=STATUS_OK,
                result=result,
                attempts=attempt,
                duration_seconds=duration,
            ),
        )

    def _handle_crash(self, index: int, attempt: int, duration: float, reason: str) -> None:
        if attempt <= self.retries:
            self.journal.emit(
                ev.RETRIED,
                self.keys[index],
                tag=self.specs[index].tag,
                attempt=attempt,
                detail=reason,
            )
            self.pending.append((index, attempt + 1))
        else:
            self._fail(index, attempt, STATUS_CRASHED, reason, duration)

    # -- dispatch loop --------------------------------------------------
    def _assign(self, worker: _Worker) -> bool:
        """Hand the next pending job to ``worker``; False if send failed."""
        index, attempt = self.pending.popleft()
        spec = self.specs[index]
        try:
            worker.conn.send(spec)
        except (BrokenPipeError, OSError):
            # Worker died while idle; job is untouched — requeue at the
            # front and let the caller replace the worker.
            self.pending.appendleft((index, attempt))
            return False
        worker.job = (index, attempt)
        worker.started = time.perf_counter()
        self.journal.emit(
            ev.STARTED, self.keys[index], tag=spec.tag, attempt=attempt
        )
        return True

    def _receive(self, worker: _Worker) -> None:
        index, attempt = worker.job  # type: ignore[misc]
        duration = time.perf_counter() - worker.started
        worker.job = None
        try:
            payload = worker.conn.recv()
        except (EOFError, OSError):
            payload = None
        if payload is None:
            exit_code = worker.process.exitcode
            self._discard_worker(worker, kill=True)
            self._handle_crash(
                index,
                attempt,
                duration,
                f"worker died mid-job (exit code {exit_code})",
            )
        elif payload[0] == "ok":
            self._finish(index, attempt, result_from_dict(payload[1]), duration)
        else:
            self._fail(index, attempt, STATUS_FAILED, payload[1], duration)

    def _reap_timeouts(self) -> None:
        if self.timeout_seconds is None:
            return
        now = time.perf_counter()
        for worker in list(self.workers):
            if worker.job is None:
                continue
            duration = now - worker.started
            if duration <= self.timeout_seconds:
                continue
            index, attempt = worker.job
            worker.job = None
            self._discard_worker(worker, kill=True)
            self._fail(
                index,
                attempt,
                STATUS_TIMEOUT,
                f"exceeded timeout of {self.timeout_seconds:.1f}s",
                duration,
            )

    def run(self, pending: Deque[Tuple[int, int]]) -> None:
        """Run every pending job to a terminal state."""
        self.pending = pending
        try:
            while self.pending or any(w.job is not None for w in self.workers):
                busy = sum(1 for w in self.workers if w.job is not None)
                wanted = min(self.jobs, busy + len(self.pending))
                while len(self.workers) < wanted:
                    self._spawn_worker()
                for worker in list(self.workers):
                    if self.pending and worker.job is None:
                        if not self._assign(worker):
                            self._discard_worker(worker, kill=True)
                busy_conns = [w.conn for w in self.workers if w.job is not None]
                if not busy_conns:
                    continue
                ready = multiprocessing.connection.wait(
                    busy_conns, timeout=_POLL_SECONDS
                )
                for conn in ready:
                    worker = next(
                        (w for w in self.workers if w.conn is conn), None
                    )
                    if worker is not None and worker.job is not None:
                        self._receive(worker)
                self._reap_timeouts()
        finally:
            for worker in list(self.workers):
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass  # already dead; join/terminate below handles it
                self._discard_worker(worker, kill=True)


def run_jobs(
    specs: Sequence[JobSpec],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    journal: Optional[EventJournal] = None,
    timeout_seconds: Optional[float] = None,
    retries: int = 1,
) -> List[JobResult]:
    """Execute ``specs`` and return one :class:`JobResult` per spec.

    Results are ordered by submission index, independent of completion
    order.  Specs with equal :func:`content_hash` run once, and every
    index that asked for one gets its result.  Cache lookups happen
    first (in order, in the parent), so a fully warm cache executes
    nothing.  ``timeout_seconds`` is enforced only when ``jobs >= 2``
    (the serial path cannot preempt itself).
    """
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    if retries < 0:
        raise ConfigurationError("retries must be >= 0")
    if timeout_seconds is not None and timeout_seconds <= 0:
        raise ConfigurationError("timeout must be > 0 (or None)")
    journal = journal if journal is not None else EventJournal()
    keys = [content_hash(spec) for spec in specs]
    first: Dict[str, int] = {}  # key -> the first index that asked for it
    results: Dict[int, JobResult] = {}
    pending: Deque[Tuple[int, int]] = deque()
    for index, (spec, key) in enumerate(zip(specs, keys)):
        if key in first:
            continue
        first[key] = index
        journal.emit(ev.QUEUED, key, tag=spec.tag)
        cached = cache.get(key) if cache is not None else None
        if cached is not None:
            journal.emit(ev.CACHE_HIT, key, tag=spec.tag)
            results[index] = JobResult(
                spec=spec,
                key=key,
                status=STATUS_OK,
                result=cached,
                attempts=0,
                from_cache=True,
            )
        else:
            pending.append((index, 1))
    if jobs == 1:
        _run_serial(specs, keys, pending, journal, cache, results)
    else:
        supervisor = _Supervisor(
            specs, keys, jobs, journal, cache, timeout_seconds, retries
        )
        supervisor.run(pending)
        results.update(supervisor.results)
    return [
        replace(results[first[key]], spec=spec)
        for spec, key in zip(specs, keys)
    ]


def _run_serial(
    specs: Sequence[JobSpec],
    keys: Sequence[str],
    pending: Deque[Tuple[int, int]],
    journal: EventJournal,
    cache: Optional[ResultCache],
    results: Dict[int, JobResult],
) -> None:
    """Inline execution: submission order, same-process, faults isolated."""
    while pending:
        index, attempt = pending.popleft()
        spec, key = specs[index], keys[index]
        journal.emit(ev.STARTED, key, tag=spec.tag, attempt=attempt)
        started = time.perf_counter()
        try:
            result = execute_spec(spec)
        except Exception as exc:  # isolation boundary: record, continue
            duration = time.perf_counter() - started
            error = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
            journal.emit(
                ev.FAILED,
                key,
                tag=spec.tag,
                attempt=attempt,
                duration_seconds=duration,
                detail=error.splitlines()[0],
            )
            results[index] = JobResult(
                spec=spec,
                key=key,
                status=STATUS_FAILED,
                error=error,
                attempts=attempt,
                duration_seconds=duration,
            )
            continue
        duration = time.perf_counter() - started
        journal.emit(
            ev.FINISHED,
            key,
            tag=spec.tag,
            attempt=attempt,
            duration_seconds=duration,
        )
        if cache is not None:
            cache.put(key, result)
        results[index] = JobResult(
            spec=spec,
            key=key,
            status=STATUS_OK,
            result=result,
            attempts=attempt,
            duration_seconds=duration,
        )


def require_ok(job_results: Sequence[JobResult]) -> List[SimulationResult]:
    """Unwrap results, raising :class:`EngineError` if any job failed."""
    failures = [jr for jr in job_results if not jr.ok]
    if failures:
        details = "; ".join(
            f"{jr.spec.tag} [{jr.status}] "
            f"{jr.error.splitlines()[0] if jr.error else ''}"
            for jr in failures[:5]
        )
        raise EngineError(
            f"{len(failures)} of {len(job_results)} jobs failed: {details}"
        )
    return [jr.result for jr in job_results]  # type: ignore[misc]


class ExecutionEngine:
    """Configured entry point: jobs, cache, journal, timeout, retries.

    One engine instance can serve many calls; the journal and cache
    counters accumulate across them, which is how a benchmark session or
    CLI invocation reports totals.

    Args:
        jobs: worker processes (1 = inline serial execution).
        cache_dir: directory for the content-addressed result cache
            (``None`` disables caching).
        journal_path: JSONL file mirroring the event journal.
        timeout_seconds: per-job wall limit, enforced when ``jobs >= 2``.
        retries: extra attempts for jobs whose *worker* crashed
            (exceptions raised by the job itself are never retried —
            they are deterministic).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[Union[str, Any]] = None,
        journal_path: Optional[Union[str, Any]] = None,
        timeout_seconds: Optional[float] = None,
        retries: int = 1,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        self.jobs = int(jobs)
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.journal = EventJournal(journal_path)
        self.timeout_seconds = timeout_seconds
        self.retries = retries

    # -- core ------------------------------------------------------------
    def run(self, specs: Sequence[JobSpec]) -> List[JobResult]:
        """Execute specs; one :class:`JobResult` per spec, input order."""
        return run_jobs(
            specs,
            jobs=self.jobs,
            cache=self.cache,
            journal=self.journal,
            timeout_seconds=self.timeout_seconds,
            retries=self.retries,
        )

    def run_strict(self, specs: Sequence[JobSpec]) -> List[SimulationResult]:
        """Execute specs; raise :class:`EngineError` unless all succeed."""
        return require_ok(self.run(specs))

    # -- harness-shaped entry points -------------------------------------
    def run_matrix(
        self,
        builder: BuilderSpec,
        factories: Dict[str, SchedulerSpec],
        seeds: Sequence[int],
        num_steps: Optional[int] = None,
    ) -> List[Dict[str, SimulationResult]]:
        """Run every factory at every seed; one result dict per seed."""
        _require_specs(builder, factories.values())
        names = list(factories)
        specs = [
            job_spec(
                builder,
                factories[name],
                seed,
                num_steps=num_steps,
                tag=f"{name}@seed{seed}",
            )
            for seed in seeds
            for name in names
        ]
        flat = self.run_strict(specs)
        grouped: List[Dict[str, SimulationResult]] = []
        for row, _seed in enumerate(seeds):
            offset = row * len(names)
            grouped.append(
                dict(zip(names, flat[offset:offset + len(names)]))
            )
        return grouped

    def run_comparison(
        self,
        builder: BuilderSpec,
        factories: Dict[str, SchedulerSpec],
        seed: int = 0,
        num_steps: Optional[int] = None,
    ) -> Dict[str, SimulationResult]:
        """Single-seed comparison (engine-side ``run_comparison``)."""
        return self.run_matrix(builder, factories, [seed], num_steps)[0]

    def run_sweep(
        self,
        builder: BuilderSpec,
        configs: Sequence[Any],
        seeds: Sequence[int],
    ) -> List[List[SimulationResult]]:
        """Run a Megh config grid: one result list (per seed) per config."""
        import dataclasses

        _require_specs(builder, ())
        specs = []
        for cell, config in enumerate(configs):
            params = (
                dataclasses.asdict(config)
                if dataclasses.is_dataclass(config)
                else dict(config)
            )
            for seed in seeds:
                specs.append(
                    job_spec(
                        builder,
                        SchedulerSpec.create(
                            "megh", seed=seed, config=params
                        ),
                        seed,
                        tag=f"megh[cell{cell}]@seed{seed}",
                    )
                )
        flat = self.run_strict(specs)
        per_cell: List[List[SimulationResult]] = []
        for cell in range(len(configs)):
            offset = cell * len(seeds)
            per_cell.append(flat[offset:offset + len(seeds)])
        return per_cell

    # -- reporting --------------------------------------------------------
    def summary(self) -> str:
        """One-line account of what this engine did so far."""
        counts = self.journal.counts()
        parts = [
            f"jobs={self.jobs}",
            f"executed={counts[ev.FINISHED]}",
            f"cache_hits={counts[ev.CACHE_HIT]}",
            f"failed={counts[ev.FAILED] + counts[ev.TIMEOUT]}",
            f"retried={counts[ev.RETRIED]}",
        ]
        if self.cache is not None:
            parts.append(str(self.cache.stats()))
        return " ".join(parts)

    def close(self) -> None:
        """Flush and close the journal file (counters stay queryable)."""
        self.journal.close()


def _require_specs(builder, factories) -> None:
    """Reject anything but registry-backed specs, at any ``jobs``."""
    if not isinstance(builder, BuilderSpec) or not all(
        isinstance(factory, SchedulerSpec) for factory in factories
    ):
        raise ConfigurationError(
            "the engine runs registry-backed specs only (BuilderSpec/"
            "SchedulerSpec from repro.engine.registry); plain callables "
            "cannot cross process boundaries or derive stable cache keys"
        )
