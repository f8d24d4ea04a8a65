"""The grid supervisor: a pool of persistent, watched worker processes.

:func:`run_supervised_grid` is the one multi-process executor behind
:func:`repro.bench.parallel.run_grid`.  It owns its workers directly —
each a ``spawn`` process with a private duplex pipe, running one cell
at a time (:func:`_worker_loop`) — so the watchdog can kill exactly the
hung cell, an ``os._exit`` loses exactly one attempt, and siblings never
observe each other's deaths.  A worker serves cell after cell and is
retired as soon as the supervisor has nothing left to give it; only a
crash or a deadline kill replaces one.

Event loop
----------

The parent multiplexes all live workers with
:func:`multiprocessing.connection.wait`, bounded by the nearest of (a)
a running cell's deadline and (b) a backed-off retry's wake time.  An
attempt ends in one of four ways:

* **result** — the worker sent ``("ok", result, metrics, cache_stats,
  trace, logs)``, the last two being its tracer/log snapshots
  (:mod:`repro.obs.propagate`);
* **failure** — it sent ``("error", traceback, verdict, trace, logs)``
  with the transient/permanent verdict classified worker-side
  (:func:`repro.guard.policy.classify_exception`) and whatever
  observability the attempt flushed before dying; the worker stays
  alive for the next cell;
* **crash** — the pipe hit EOF without a message (``os._exit``, OOM
  kill, interpreter abort): the dead worker is replaced and the cell
  retried as a transient failure;
* **deadline** — the watchdog ``terminate()``-s the worker and the
  cell is retried; a cell whose *last* failure was a deadline kill is
  reported ``timed_out`` rather than ``quarantined``.

Every replaced worker (crash or deadline kill) counts as a pool
rebuild; past :attr:`GuardPolicy.max_pool_rebuilds` the supervisor
degrades to serial execution (one live worker) for the remaining cells,
bounding the blast radius of a misbehaving environment.

Unguarded grids
---------------

``policy=None`` is how ``run_grid`` runs a grid without a guard: one
attempt per cell, no deadline, no journal, and no supervisor-side
instruments — no :class:`GridReport` is published and no ``guard.*``
span, counter or log event is recorded, so an unguarded grid's manifest
and trace hold only what its workers recorded.

Determinism
-----------

Results, metric merges, cache-stat merges and trace/log buffer merges
are applied in config order after the grid completes — identical to the
serial runner — and each cell's seed comes from the same
``SeedSequence.spawn`` walk, so a supervised run's results are bitwise
equal to a clean serial run regardless of retries, kills or worker
count.  Worker span buffers land on ``cell{i}/...`` tracks under the
grid's deterministic run id (:func:`repro.obs.context.derive_run_id`);
the journal stores each cell's buffers, so ``--resume`` rebuilds the
merged timeline bit-identically.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, Sequence

import numpy as np

from repro.cache import CompilationCache, caching, get_cache
from repro.guard.journal import GridJournal, cell_key
from repro.guard.policy import PERMANENT, TRANSIENT, GuardPolicy, classify_exception
from repro.guard.report import (
    STATUS_OK,
    STATUS_QUARANTINED,
    STATUS_RETRIED,
    STATUS_TIMED_OUT,
    CellReport,
    GridReport,
    record_report,
)
from repro.obs.context import TraceContext, context as trace_context, derive_run_id, worker_track
from repro.obs.log import NULL_LOG, get_logger
from repro.obs.metrics import NULL_REGISTRY, MetricRegistry, collecting, get_registry
from repro.obs.propagate import obs_spec, worker_observability
from repro.obs.tracer import NULL_TRACER, get_tracer

__all__ = ["GUARD_TRACK", "run_supervised_grid"]

#: Virtual trace track carrying one ``guard.cell`` span per attempt.
GUARD_TRACK = "guard"

#: How long to wait for a worker that was retired (or terminated) to
#: actually exit before escalating to SIGKILL.
_JOIN_GRACE_S = 10.0

#: The policy an unguarded grid runs under: one attempt, no deadline.
_UNGUARDED = GuardPolicy(retries=0)


def _run_task(
    worker: Callable,
    config: Any,
    seed_seq: np.random.SeedSequence,
    cache_dir: str | None,
    spec: dict | None,
) -> tuple:
    """Run one cell attempt; return the message for the supervisor.

    Each attempt gets a fresh metric registry, a compilation cache over
    the shared *cache_dir* and the per-cell observability *spec* asks
    for.  Failures are classified while the live exception is still in
    hand — the verdict crosses the process boundary, the exception type
    does not have to — and the trace/log buffers the attempt flushed
    before failing ride along in the error message.
    """
    cache = CompilationCache(path=cache_dir)
    tracer, runlog = NULL_TRACER, NULL_LOG
    try:
        with collecting() as registry, caching(cache), \
                worker_observability(spec) as (tracer, runlog):
            result = worker(config, seed_seq)
        return (
            "ok",
            result,
            registry.snapshot(),
            cache.stats.as_dict(),
            tracer.snapshot(),
            runlog.snapshot(),
        )
    except Exception as exc:
        return (
            "error",
            traceback.format_exc(),
            classify_exception(exc),
            tracer.snapshot(),
            runlog.snapshot(),
        )


def _worker_loop(conn: Connection) -> None:
    """Child entry point: run tasks from *conn* until it sends ``None``.

    A task is ``(worker, config, seed_seq, cache_dir, spec)``; each gets
    exactly one reply (see :func:`_run_task`).  A worker exception does
    not end the loop — only a crash, a deadline kill or the ``None``
    sentinel does.
    """
    for task in iter(conn.recv, None):
        message = _run_task(*task)
        try:
            conn.send(message)
        except Exception:
            # The result itself would not pickle: that is deterministic,
            # so report it as a permanent failure rather than crashing
            # (which would be retried pointlessly).
            conn.send(
                (
                    "error",
                    f"result for config {task[1]!r} is not picklable:\n"
                    f"{traceback.format_exc()}",
                    PERMANENT,
                    *message[-2:],
                )
            )
    conn.close()


@dataclass
class _Cell:
    """Supervisor-side state for one grid cell."""

    index: int
    config: Any
    seed_seq: np.random.SeedSequence
    key: str
    report: CellReport
    attempt: int = 0  # attempts started so far
    result: Any = None
    metrics: list = field(default_factory=list)
    cache_stats: dict | None = None
    trace: dict = field(default_factory=dict)  # successful attempt's spans
    logs: list = field(default_factory=list)  # successful attempt's events
    done: bool = False


@dataclass
class _Worker:
    """One live worker process and the attempt it is running, if any."""

    process: Any
    conn: Connection
    cell: _Cell | None = None
    started: float = 0.0
    deadline: float | None = None


def _reap(worker: _Worker, kill: bool = False) -> None:
    """Join (optionally kill) a finished or condemned worker process."""
    proc = worker.process
    if kill and proc.is_alive():
        proc.terminate()
    proc.join(_JOIN_GRACE_S)
    if proc.is_alive():
        proc.kill()
        proc.join(_JOIN_GRACE_S)
    worker.conn.close()


def run_supervised_grid(
    worker: Callable,
    configs: Sequence[Any],
    *,
    policy: GuardPolicy | None,
    jobs: int = 1,
    seed: int = 0,
    cache_dir=None,
    registry: MetricRegistry | None = None,
    name: str | None = None,
) -> tuple[list[Any], GridReport]:
    """Run *worker* over *configs* under supervision.

    Returns ``(results, report)`` where *results* is in config order
    with ``None`` for cells that produced no result (quarantined or
    timed out) and *report* accounts for every attempt.  Under a
    *policy* the report is also published to the ambient collector
    (:func:`repro.guard.report.record_report`); ``policy=None`` runs the
    grid unguarded (see the module docstring).  Raising on failures is
    the caller's decision (``run_grid`` raises unguarded or under
    ``strict``).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    configs = list(configs)
    seed_seqs = np.random.SeedSequence(seed).spawn(len(configs))
    registry = registry if registry is not None else get_registry()
    tracer = get_tracer()
    runlog = get_logger()
    # The supervisor's own instruments (guard.* counters, events and
    # spans) exist only under a guard; worker buffers merge either way.
    guarded = policy is not None
    policy = policy if guarded else _UNGUARDED
    guard_registry = registry if guarded else NULL_REGISTRY
    guard_log = runlog if guarded else NULL_LOG
    guard_tracer = tracer if guarded else NULL_TRACER
    parent_cache = get_cache()
    if cache_dir is None and parent_cache.enabled:
        cache_dir = parent_cache.path
    cache_dir = str(cache_dir) if cache_dir is not None else None

    grid_name = name or getattr(worker, "__qualname__", "grid")
    run_id = derive_run_id(grid_name, seed, len(configs))
    parent_ctx = TraceContext(run_id=run_id, parent_span=grid_name)
    report = GridReport(name=grid_name)
    journal = (
        GridJournal(policy.journal_dir)
        if policy.journal_dir is not None
        else None
    )

    cells: list[_Cell] = []
    for index, (config, seed_seq) in enumerate(zip(configs, seed_seqs)):
        cell = _Cell(
            index=index,
            config=config,
            seed_seq=seed_seq,
            key=cell_key(worker, seed, index, config),
            report=CellReport(index=index, config=repr(config)),
        )
        cells.append(cell)
        report.cells.append(cell.report)

    # -- resume pre-pass: serve journalled cells without executing them.
    if journal is not None and policy.resume:
        with trace_context(parent_ctx):
            for cell in cells:
                entry = journal.lookup(cell.key)
                if entry is None:
                    continue
                cell.result = entry.result
                cell.metrics = entry.metrics
                cell.cache_stats = entry.cache_stats
                # The journalled trace/log buffers replay through the
                # same post-grid merge as a live worker's, which is
                # what makes a resumed timeline bit-identical.
                cell.trace = entry.trace
                cell.logs = entry.logs
                cell.done = True
                cell.report.status = STATUS_OK
                cell.report.from_journal = True
                report.journal_hits += 1
                if guard_log.enabled:
                    guard_log.info(
                        "guard.journal_hit",
                        config=cell.report.config,
                        cell=cell.index,
                    )

    pending: list[_Cell] = [c for c in cells if not c.done]
    waiting: list[tuple[float, int, _Cell]] = []  # (wake time, index, cell)
    workers: dict[Connection, _Worker] = {}
    ctx = get_context("spawn")
    max_workers = jobs

    def finalize(cell: _Cell, status: str, error: str | None = None) -> None:
        cell.done = True
        cell.report.status = status
        cell.report.error = error
        if status in (STATUS_QUARANTINED, STATUS_TIMED_OUT):
            if guard_registry.enabled:
                guard_registry.counter("guard.quarantined").inc()

    def spawn() -> _Worker:
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_loop, args=(child_conn,), daemon=True
        )
        proc.start()
        # Close the parent's copy of the child's end: the pipe then hits
        # EOF the moment the child dies, however it dies.
        child_conn.close()
        workers[parent_conn] = _Worker(process=proc, conn=parent_conn)
        return workers[parent_conn]

    def retire(w: _Worker) -> None:
        del workers[w.conn]
        try:
            w.conn.send(None)
        except OSError:
            pass  # already gone; _reap collects it
        _reap(w)

    def launch(cell: _Cell, w: _Worker) -> None:
        cell.attempt += 1
        cell.report.attempts = cell.attempt
        w.conn.send(
            (
                worker,
                cell.config,
                cell.seed_seq,
                cache_dir,
                obs_spec(run_id, grid_name, cell.index),
            )
        )
        w.cell = cell
        w.started = time.monotonic()
        w.deadline = (
            w.started + policy.cell_timeout_s
            if policy.cell_timeout_s is not None
            else None
        )

    def attempt_span(cell: _Cell, wall_s: float, outcome: str) -> None:
        cell.report.wall_s += wall_s
        guard_tracer.add_span(
            "guard.cell",
            wall_s,
            GUARD_TRACK,
            category="guard",
            index=cell.index,
            attempt=cell.attempt,
            outcome=outcome,
        )

    def absorb_failed_buffers(
        cell: _Cell, trace_snap: dict, log_snap: list
    ) -> None:
        """Keep what a failing attempt flushed before it died.

        Merged immediately (successful attempts merge post-grid in
        config order) onto an attempt-suffixed track — a retried cell's
        dead attempts stay distinguishable from its final clean run —
        and counted on the cell report, so a quarantined cell still
        shows how far it got.
        """
        cell.report.n_spans += len(trace_snap.get("spans", ()))
        cell.report.n_log_events += len(log_snap)
        prefix = f"{worker_track(cell.index)}.a{cell.attempt}"
        tracer.merge_snapshot(trace_snap, prefix=prefix)
        runlog.merge_snapshot(log_snap, worker=cell.index)

    def note_rebuild() -> None:
        """A worker process had to be replaced (crash or deadline kill)."""
        nonlocal max_workers
        report.pool_rebuilds += 1
        if guard_registry.enabled:
            guard_registry.counter("guard.pool_rebuilds").inc()
        if (
            report.pool_rebuilds > policy.max_pool_rebuilds
            and not report.serial_fallback
        ):
            report.serial_fallback = True
            max_workers = 1
            if guard_log.enabled:
                guard_log.warning(
                    "guard.serial_fallback",
                    f"{report.pool_rebuilds} pool rebuilds exceeded the "
                    f"budget; degrading to one worker",
                )

    def retry_or_quarantine(cell: _Cell, kind: str, detail: str) -> None:
        """Schedule a transient retry, or hand down the final verdict."""
        if cell.attempt <= policy.retries:
            cell.report.retries += 1
            if guard_registry.enabled:
                guard_registry.counter("guard.retries").inc()
            delay = policy.backoff_s(cell.index, cell.attempt)
            cell.report.backoff_s = cell.report.backoff_s + (delay,)
            waiting.append((time.monotonic() + delay, cell.index, cell))
            waiting.sort(key=lambda item: (item[0], item[1]))
            if guard_log.enabled:
                guard_log.warning(
                    "guard.retry",
                    kind,
                    cell=cell.index,
                    attempt=cell.attempt,
                    backoff_s=delay,
                )
        else:
            status = (
                STATUS_TIMED_OUT if kind == "timeout" else STATUS_QUARANTINED
            )
            finalize(cell, status, error=detail)
            if guard_log.enabled:
                guard_log.error(
                    "guard.quarantine",
                    detail.strip().splitlines()[-1] if detail else "",
                    cell=cell.index,
                    status=status,
                    attempts=cell.attempt,
                )

    def handle_message(w: _Worker) -> None:
        cell = w.cell
        try:
            message = w.conn.recv()
        except (EOFError, OSError):
            message = None
        wall = time.monotonic() - w.started
        w.cell = None
        if message is None:
            # Died without a word: os._exit, SIGKILL, interpreter abort.
            # Nothing to salvage — the buffers died unsent with the
            # process (the except-path flush only covers exceptions).
            del workers[w.conn]
            _reap(w)
            exitcode = w.process.exitcode
            cell.report.crashes += 1
            attempt_span(cell, wall, "crash")
            if guard_log.enabled:
                guard_log.error(
                    "guard.crash",
                    f"exit code {exitcode}",
                    cell=cell.index,
                    attempt=cell.attempt,
                )
            note_rebuild()
            retry_or_quarantine(
                cell,
                "crash",
                f"worker process for config {cell.config!r} died abruptly "
                f"(exit code {exitcode})",
            )
            return
        if message[0] == "ok":
            _, result, metrics, cache_stats, trace_snap, log_snap = message
            cell.result = result
            cell.metrics = metrics
            cell.cache_stats = cache_stats
            cell.trace = trace_snap
            cell.logs = log_snap
            cell.report.n_spans += len(trace_snap.get("spans", ()))
            cell.report.n_log_events += len(log_snap)
            attempt_span(cell, wall, "ok")
            finalize(
                cell,
                STATUS_RETRIED if cell.report.retries else STATUS_OK,
            )
            if journal is not None:
                journal.record(
                    cell.key,
                    cell.index,
                    cell.config,
                    result,
                    metrics,
                    cache_stats,
                    trace=trace_snap,
                    logs=log_snap,
                )
            return
        _, detail, verdict, trace_snap, log_snap = message
        attempt_span(cell, wall, "error")
        absorb_failed_buffers(cell, trace_snap, log_snap)
        if verdict == TRANSIENT:
            retry_or_quarantine(cell, "error", detail)
        else:
            finalize(cell, STATUS_QUARANTINED, error=detail)
            if guard_log.enabled:
                guard_log.error(
                    "guard.quarantine",
                    detail.strip().splitlines()[-1] if detail else "",
                    cell=cell.index,
                    status=STATUS_QUARANTINED,
                    attempts=cell.attempt,
                )

    def handle_deadline(w: _Worker) -> None:
        cell = w.cell
        wall = time.monotonic() - w.started
        del workers[w.conn]
        _reap(w, kill=True)
        cell.report.timeouts += 1
        if guard_registry.enabled:
            guard_registry.counter("guard.timeouts").inc()
        attempt_span(cell, wall, "timeout")
        if guard_log.enabled:
            guard_log.error(
                "guard.timeout",
                f"killed after {wall:.1f}s against a "
                f"{policy.cell_timeout_s:g}s deadline",
                cell=cell.index,
                attempt=cell.attempt,
            )
        note_rebuild()
        retry_or_quarantine(
            cell,
            "timeout",
            f"worker for config {cell.config!r} exceeded the "
            f"{policy.cell_timeout_s:g}s cell deadline on every attempt",
        )

    # The parent context makes every supervisor-side log event (retry,
    # quarantine, crash, ...) carry the grid's deterministic run id.
    with trace_context(parent_ctx):
        try:
            while pending or waiting or workers:
                now = time.monotonic()
                while waiting and waiting[0][0] <= now:
                    _, _, cell = waiting.pop(0)
                    pending.append(cell)
                idle = [w for w in workers.values() if w.cell is None]
                n_busy = len(workers) - len(idle)
                while pending and n_busy < max_workers:
                    launch(pending.pop(0), idle.pop(0) if idle else spawn())
                    n_busy += 1
                for w in idle:  # nothing left to give it now
                    retire(w)

                bounds = [w.deadline for w in workers.values() if w.deadline]
                if waiting:
                    bounds.append(waiting[0][0])
                now = time.monotonic()
                timeout = max(0.0, min(bounds) - now) if bounds else None

                if workers:
                    ready = connection_wait(list(workers), timeout=timeout)
                    for conn in ready:
                        handle_message(workers[conn])
                elif waiting:
                    # Nothing running, first retry still backing off:
                    # sleep it out.
                    time.sleep(max(0.0, waiting[0][0] - time.monotonic()))

                now = time.monotonic()
                for w in list(workers.values()):
                    if (
                        w.cell is not None
                        and w.deadline is not None
                        and w.deadline <= now
                    ):
                        handle_deadline(w)
        finally:
            for w in workers.values():
                _reap(w, kill=True)

    # -- deterministic merge: config order, exactly like the serial path.
    # Successful cells' trace/log buffers (live or journalled) land on
    # their cell{i}/... tracks here, regardless of completion order.
    results: list[Any] = []
    for cell in cells:
        results.append(cell.result)
        if cell.metrics:
            registry.merge_snapshot(cell.metrics)
        if cell.cache_stats and parent_cache.enabled:
            parent_cache.stats.merge(cell.cache_stats)
        if cell.trace:
            tracer.merge_snapshot(
                cell.trace, prefix=worker_track(cell.index)
            )
        if cell.logs:
            runlog.merge_snapshot(cell.logs, worker=cell.index)
        if cell.report.from_journal:
            cell.report.n_spans += len(cell.trace.get("spans", ()))
            cell.report.n_log_events += len(cell.logs)
    if guarded:
        record_report(report)
    return results, report
