"""The phase executor: every sample-collection phase runs through here.

The paper's evaluation protocol is embarrassingly parallel twice over:
``rcoal all`` runs ~20 independent experiments, and inside each one
:func:`collect_records` simulates ~100 independent kernel launches. Every
sample is a pure function of ``(root_seed, stream name, sample index)``
(see ``ExperimentContext.sample_stream``), so a phase is just a set of
sample indices, and :func:`collect_records` drives it the same way on
every route:

1. **restore** the chunks a checkpoint store already holds;
2. **plan** the missing indices into contiguous chunks;
3. **execute** the chunks through one of three executors, chosen from
   the context — *lease* (``ctx.shard``: claim fixed-boundary chunks
   from peers sharing a campaign directory, see :mod:`.shard`), *pool*
   (``effective_jobs() > 1``: a warm ``ProcessPoolExecutor``), or
   *inline* (in the calling process);
4. **commit** each finished chunk to memory or to the checkpoint store;
5. **fold** the chunks back in sample order — records, metrics and
   traces — so the result is bit-identical to one serial run whatever
   the route, chunking, or resume history (``MetricsRegistry.merge`` /
   ``Tracer.merge`` telescope in sample order).

One chunk worker, :func:`_run_chunk`, simulates a chunk on every route.
The phase ledger (``phase_start``/``engine_select``/``phase_finish`` and
the chunk events) is written by :class:`_Phase` alone. An optional
:class:`SupervisionPolicy` adds per-chunk deadlines that reap hung
workers, capped-exponential-backoff retries, failing-chunk splitting to
isolate poison samples, quarantine instead of campaign abort, and
graceful degradation to inline execution when the pool keeps dying.
Without one, failures propagate unchanged.

The plain in-memory route (inline, no checkpoint store, no supervision)
is one chunk over the whole batch, simulated straight into the caller's
telemetry on the server the phase returns — nothing is pickled.

Workers inherit the parent's environment (``REPRO_FAST`` etc.); payload
functions live at module level so the pool works under both the ``fork``
and ``spawn`` start methods. ``concurrent.futures`` is imported where a
pool is used, so inline phases never pay for it.
"""

from __future__ import annotations

import atexit
import math
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.policies import CoalescingPolicy
from repro.errors import ConfigurationError, ExperimentError, \
    WorkerCrashError
from repro.experiments.base import (
    ExperimentContext,
    build_server,
    victim_stream_name,
)
from repro.experiments.checkpoint import ChunkResult, phase_label
from repro.experiments.shard import run_leases
from repro.telemetry import (
    ProgressReporter,
    SpanProfiler,
    Telemetry,
    get_logger,
)
from repro.telemetry.journal import RunJournal
from repro.utils import batched_mode, batched_timing_mode, env_flag
from repro.workloads.plaintext import random_plaintexts
from repro.workloads.server import EncryptionRecord, EncryptionServer

__all__ = [
    "CampaignStats",
    "SupervisionPolicy",
    "chunk_indices",
    "collect_records",
    "run_experiments_parallel",
]

log = get_logger(__name__)


#: Process-wide warm worker pool (see :func:`_shared_pool`).
_SHARED_POOL: Optional["ProcessPoolExecutor"] = None
_SHARED_POOL_JOBS = 0
_SHARED_POOL_ATEXIT = False


def _shared_pool(jobs: int) -> "ProcessPoolExecutor":
    """The warm, process-wide pool every pool-executed phase uses.

    Standing up a ``ProcessPoolExecutor`` costs worker spawn plus the
    package import chain — whole seconds on small hosts — and a figure
    harness calls ``collect_records`` once per (mechanism, subwarp-count)
    cell, so paying that per call made small parallel campaigns *slower*
    than serial (fig07's 0.93x parallel "speedup" in BENCH_3). Reusing
    one pool amortizes the spin-up to once per process; workers hold no
    per-call state (every task payload carries its full context, and
    progress rides back with each chunk's result), so the results stay
    bit-identical. A pool the supervisor reaps or finds broken is
    discarded, and the next call stands up a fresh one.
    """
    from concurrent.futures import ProcessPoolExecutor

    global _SHARED_POOL, _SHARED_POOL_JOBS, _SHARED_POOL_ATEXIT
    if _SHARED_POOL is not None and _SHARED_POOL_JOBS != jobs:
        _discard_shared_pool()
    if _SHARED_POOL is None:
        _SHARED_POOL = ProcessPoolExecutor(max_workers=jobs)
        _SHARED_POOL_JOBS = jobs
        if not _SHARED_POOL_ATEXIT:
            atexit.register(_discard_shared_pool)
            _SHARED_POOL_ATEXIT = True
    return _SHARED_POOL


def _discard_shared_pool() -> None:
    """Drop the warm pool (broken pool, Ctrl-C, or interpreter exit)."""
    global _SHARED_POOL, _SHARED_POOL_JOBS
    pool = _SHARED_POOL
    _SHARED_POOL = None
    _SHARED_POOL_JOBS = 0
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


@dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs of the worker supervisor (see ``docs/robustness.md``).

    Attached to an :class:`ExperimentContext` (``--supervise`` on the
    CLI); ``None`` — the default — means no supervision: failures
    propagate and nothing is retried. The chunking knobs below also
    size unsupervised phases.
    """

    #: Wall-clock seconds one chunk attempt may take before the pool is
    #: reaped and the chunk retried. ``None`` disables deadlines.
    chunk_deadline: Optional[float] = 300.0
    #: Attempts per work item before it is split (multi-sample chunks) or
    #: quarantined (single samples).
    max_attempts: int = 3
    #: Capped exponential backoff between retry rounds, in seconds:
    #: ``min(cap, base * 2**(attempt-1))``. A base of 0 disables sleeping
    #: (the fault-injection tests run with 0 — no clocks, no flakes).
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: Pool rebuilds tolerated (after timeouts/kills) before degrading to
    #: in-process serial execution for the rest of the phase.
    max_pool_restarts: int = 2
    #: Parallel chunking granularity: aim for this many chunks per worker,
    #: so a killed chunk forfeits only a fraction of a worker's samples
    #: and splitting isolates poison samples quickly.
    chunks_per_worker: int = 4
    #: Serial checkpointing granularity, in samples per chunk.
    serial_chunk_samples: int = 8

    def backoff(self, attempt: int) -> float:
        if self.backoff_base <= 0:
            return 0.0
        return min(self.backoff_cap,
                   self.backoff_base * (2 ** max(0, attempt - 1)))


@dataclass
class CampaignStats:
    """Mutable incident ledger for one campaign (one CLI invocation).

    The phase executor increments these as it supervises; the CLI reads
    them afterwards for the exit code and the stderr summary. Workers get
    a pickled copy, so only parent-side incidents accumulate here — the
    live cross-process view is the telemetry board's incident counters.
    """

    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    splits: int = 0
    pool_restarts: int = 0
    degraded_serial: bool = False
    resumed_samples: int = 0
    failed_samples: List[dict] = field(default_factory=list)

    def absorb(self, other: Optional["CampaignStats"]) -> None:
        """Fold a worker's ledger into this one (``all -j N`` fan-in)."""
        if other is None:
            return
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.crashes += other.crashes
        self.splits += other.splits
        self.pool_restarts += other.pool_restarts
        self.degraded_serial = self.degraded_serial or other.degraded_serial
        self.resumed_samples += other.resumed_samples
        self.failed_samples.extend(other.failed_samples)

    def eventful(self) -> bool:
        return bool(self.retries or self.timeouts or self.crashes
                    or self.splits or self.pool_restarts
                    or self.degraded_serial or self.resumed_samples
                    or self.failed_samples)

    def summary(self) -> str:
        parts = [f"retries={self.retries}", f"timeouts={self.timeouts}",
                 f"crashes={self.crashes}"]
        if self.splits:
            parts.append(f"splits={self.splits}")
        if self.pool_restarts:
            parts.append(f"pool_restarts={self.pool_restarts}")
        if self.degraded_serial:
            parts.append("degraded=serial")
        if self.resumed_samples:
            parts.append(f"resumed={self.resumed_samples}")
        parts.append(f"quarantined={len(self.failed_samples)}")
        return " ".join(parts)


def chunk_indices(count: int, chunks: int) -> List[range]:
    """Split ``range(count)`` into ``chunks`` contiguous balanced ranges.

    Contiguity matters: merging worker results in chunk order then equals
    the serial sample order, which gauge last-values and trace timelines
    depend on. Empty ranges are never returned.
    """
    chunks = max(1, min(chunks, count))
    base, extra = divmod(count, chunks)
    ranges: List[range] = []
    start = 0
    for i in range(chunks):
        size = base + (1 if i < extra else 0)
        ranges.append(range(start, start + size))
        start += size
    return ranges


def _contiguous_chunks(indices: Sequence[int],
                       target_size: int) -> List[Tuple[int, ...]]:
    """Group sorted sample indices into contiguous runs of at most
    ``target_size``.

    Resume leaves arbitrary holes in the sample space; chunks must stay
    contiguous so stored and fresh telemetry merge back in sample order.
    """
    target_size = max(1, target_size)
    chunks: List[Tuple[int, ...]] = []
    current: List[int] = []
    for index in indices:
        if current and (index != current[-1] + 1
                        or len(current) >= target_size):
            chunks.append(tuple(current))
            current = []
        current.append(index)
    if current:
        chunks.append(tuple(current))
    return chunks


def _abort_pool(pool, futures: Sequence = ()) -> None:
    """Tear a pool down *now*: cancel, stop feeding, kill the processes.

    Used on Ctrl-C and when the supervisor reaps a hung chunk — a plain
    ``shutdown(wait=True)`` would block behind the hang forever.
    """
    for future in futures:
        future.cancel()
    process_objects = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in process_objects:
        if proc.is_alive():
            proc.kill()
    for proc in process_objects:
        proc.join(timeout=2)


# ---------------------------------------------------------------------------
# The chunk worker.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ChunkJob:
    """Everything a chunk worker needs to simulate any span of one phase.

    Picklable: the pool ships it with every task. ``ctx`` is the
    :func:`_worker_context` of the phase's context.
    """

    ctx: ExperimentContext
    policy: CoalescingPolicy
    num_samples: int
    counts_only: bool
    retain_kernel_results: bool
    #: Trace ring size of the chunk's private telemetry; 0 = none.
    trace_capacity: int = 0
    #: Record wall-clock spans in the chunk's private telemetry.
    profile: bool = False
    #: Bound fault plan fired at sample boundaries (testing/chaos only).
    faults: Optional[object] = None


class _NoProgress:
    def update(self, amount: int = 1) -> None:
        pass


def _run_chunk(job: _ChunkJob, indices: Sequence[int], attempt: int = 0,
               progress=None, in_worker: bool = True, spans: str = "chunk",
               server: Optional[EncryptionServer] = None,
               telemetry: Optional[Telemetry] = None):
    """Simulate one contiguous span of samples: the one chunk worker.

    Returns ``(records, telemetry, seconds)``: the chunk's records in
    sample order, its private telemetry (None when uninstrumented), and
    the wall seconds this call took — what ``chunk_done`` journals on
    every route. Fault checks run *before* a sample simulates: a retried
    chunk re-simulates from scratch, so partial work from a failed
    attempt never leaks into the results.

    Given ``server`` (and that server's ``telemetry``), the chunk
    simulates on it instead of standing up a private one, and returns
    telemetry None — the records were observed in place. ``spans`` names
    the wall-clock spans: ``serial`` in the calling process, ``chunk`` in
    pool and lease workers.
    """
    started = time.perf_counter()
    ctx = job.ctx
    private = server is None
    if private:
        telemetry = (Telemetry(trace_capacity=job.trace_capacity,
                               profile=job.profile)
                     if job.trace_capacity else None)
    profiler = (telemetry.profiler
                if telemetry is not None and telemetry.enabled
                else SpanProfiler.disabled())
    # Regenerating the full batch keeps every chunk seed-identical to one
    # serial run; plaintext generation is bulk RNG draws, a rounding
    # error next to one kernel simulation.
    with profiler.span(f"{spans}.workload"):
        plaintexts = random_plaintexts(job.num_samples, ctx.lines,
                                       ctx.stream("workload"))
    if private:
        server = build_server(ctx, job.policy, counts_only=job.counts_only,
                              retain_kernel_results=job.retain_kernel_results,
                              telemetry=telemetry)
    progress = progress if progress is not None else _NoProgress()
    stream_name = victim_stream_name(job.policy)
    with profiler.span(f"{spans}.simulate"):
        if job.counts_only and job.faults is None and ctx.batched:
            # Fault plans keep the per-sample loop so injected failures
            # fire at sample boundaries.
            from repro.gpu.batched import BatchedCountsCore
            records = BatchedCountsCore(server).encrypt_batch(
                [plaintexts[index] for index in indices],
                [ctx.sample_stream(stream_name, index)
                 for index in indices],
                on_record=lambda record: progress.update(),
            )
        else:
            records = []
            for index in indices:
                if job.faults is not None:
                    job.faults.maybe_fire_sample(index, attempt,
                                                 in_worker=in_worker)
                records.append(server.encrypt(
                    plaintexts[index],
                    rng=ctx.sample_stream(stream_name, index)))
                progress.update()
    return (records, telemetry if private else None,
            time.perf_counter() - started)


def _worker_context(ctx: ExperimentContext) -> ExperimentContext:
    """Strip everything a chunk worker must not inherit: the parent's
    telemetry sink, progress reporter, nested parallelism, and the whole
    resilience layer (supervision happens in the parent only). Engine
    selection is pinned to the *parent's* resolution so a warm pool's
    workers never consult their own (possibly stale) ``REPRO_BATCHED``.
    The run ledger is parent-side too: chunk events are emitted where the
    supervisor sees them, so one ledger file has one writer per process
    tree level."""
    return ctx.with_(telemetry=None, progress=False, jobs=1,
                     supervision=None, faults=None, checkpoint=None,
                     campaign=None, journal=None, shard=None,
                     batched=batched_mode(ctx.batched),
                     batched_timing=batched_timing_mode(ctx.batched_timing))


def _note_incident(board, kind: str) -> None:
    if board is not None:
        board.incident(kind)


# ---------------------------------------------------------------------------
# The phase: ledger frame, supervision bookkeeping, commit, fold.
# ---------------------------------------------------------------------------


class _Phase:
    """Parent-side state of one collection phase.

    Owns the ledger frame (every phase and chunk event is appended here,
    and nothing is appended when no ledger is open), the retry/split/
    quarantine bookkeeping the inline and pool executors share, the
    progress reporter, and the committed chunks.
    """

    def __init__(self, ctx: ExperimentContext, policy: CoalescingPolicy,
                 num_samples: int, counts_only: bool,
                 retain_kernel_results: bool) -> None:
        self.ctx = ctx
        self.policy = policy
        self.num_samples = num_samples
        self.counts_only = counts_only
        self.shard = ctx.shard.validate() if ctx.shard is not None else None
        self.store = ctx.checkpoint
        if self.shard is not None and self.store is None:
            raise ConfigurationError(
                "sharded collection requires a checkpoint store "
                "(rcoal shard always opens one)"
            )
        telemetry = ctx.telemetry
        self.instrumented = telemetry is not None and telemetry.enabled
        self.profiler = (telemetry.profiler if self.instrumented
                         else SpanProfiler.disabled())
        self.board = telemetry.board if self.instrumented else None
        self.supervised = ctx.supervision is not None
        self.sup = ctx.supervision or SupervisionPolicy()
        self.campaign = (ctx.campaign if ctx.campaign is not None
                         else CampaignStats())
        self.job = _ChunkJob(
            _worker_context(ctx), policy, num_samples, counts_only,
            retain_kernel_results,
            trace_capacity=(telemetry.tracer.capacity
                            if self.instrumented else 0),
            profile=self.profiler.enabled,
            faults=(ctx.faults.bind(num_samples, ctx.root_seed)
                    if ctx.faults is not None else None))
        self.label = phase_label(ctx, policy, num_samples, counts_only,
                                 retain_kernel_results)
        # The open ledger this phase appends to, or None: an explicit
        # ctx.journal wins, then the checkpoint store's.
        journal = (ctx.journal if ctx.journal is not None
                   else getattr(self.store, "journal", None))
        self.journal: Optional[RunJournal] = (
            journal if journal is not None and journal.enabled else None)
        self._tags = ({"worker": self.shard.worker}
                      if self.shard is not None else {})
        self.reporter = ProgressReporter(
            num_samples,
            label=policy.describe() + (f" [{self.shard.worker}]"
                                       if self.shard is not None else ""),
            enabled=ctx.progress or env_flag("REPRO_PROGRESS"),
            board=self.board)
        self.chunks: List[ChunkResult] = []
        self.failed: Dict[int, str] = {}

    # -- ledger ---------------------------------------------------------------

    def emit(self, kind: str, **fields) -> None:
        if self.journal is not None:
            self.journal.append(kind, phase=self.label, **fields,
                                **self._tags)

    def engine(self) -> str:
        """The engine label the ledger records for this phase."""
        ctx = self.job.ctx
        if self.counts_only:
            return ("batched" if self.job.faults is None and ctx.batched
                    else "event")
        return "batched_timing" if ctx.batched_timing else "event"

    def dispatch(self, indices: Tuple[int, ...], attempt: int) -> None:
        self.emit("chunk_dispatch", start=indices[0], end=indices[-1],
                  samples=len(indices), attempt=attempt)

    # -- commit ---------------------------------------------------------------

    def complete(self, indices: Tuple[int, ...], records, telemetry,
                 seconds: float) -> None:
        """Journal a finished chunk and commit it to memory and, when the
        phase has one, to the checkpoint store."""
        self.emit("chunk_done", start=indices[0], end=indices[-1],
                  samples=len(indices), seconds=round(seconds, 6))
        chunk = ChunkResult(tuple(indices), records, telemetry)
        self.chunks.append(chunk)
        if self.store is not None:
            # Lease commits are duplicate-tolerant: a stolen lease's
            # original owner may finish the same span late.
            commit = (self.store.commit_chunk if self.shard is not None
                      else self.store.save_chunk)
            with self.profiler.span("checkpoint.save"):
                commit(self.label, chunk)

    # -- supervision ----------------------------------------------------------

    def handle_failure(self, pending: deque, indices: Tuple[int, ...],
                       attempt: int, exc: BaseException) -> float:
        """Reschedule, split, or quarantine a failed work item.

        Returns the backoff delay to apply before the next attempt round.
        Without supervision the failure propagates unchanged (completed
        chunks stay checkpointed, so a later ``--resume`` picks up here).
        """
        if not self.supervised:
            raise exc
        next_attempt = attempt + 1
        if next_attempt < self.sup.max_attempts:
            pending.append((indices, next_attempt))
            self.campaign.retries += 1
            _note_incident(self.board, "retry")
            self.emit("chunk_retry", start=indices[0], end=indices[-1],
                      attempt=next_attempt,
                      error=f"{type(exc).__name__}: {exc}")
            log.warning("retrying samples %d-%d of %s (attempt %d/%d): %s",
                        indices[0], indices[-1], self.label, next_attempt,
                        self.sup.max_attempts, exc)
            return self.sup.backoff(next_attempt)
        if len(indices) > 1:
            mid = len(indices) // 2
            pending.append((indices[:mid], 0))
            pending.append((indices[mid:], 0))
            self.campaign.splits += 1
            _note_incident(self.board, "split")
            self.emit("chunk_split", start=indices[0], end=indices[-1],
                      at=indices[mid])
            log.warning("splitting failing chunk %d-%d of %s to isolate "
                        "the poison sample", indices[0], indices[-1],
                        self.label)
            return self.sup.backoff(1)
        index = indices[0]
        reason = f"{type(exc).__name__}: {exc}"
        self.failed[index] = reason
        self.campaign.failed_samples.append(
            {"phase": self.label, "sample": index, "error": reason}
        )
        _note_incident(self.board, "quarantined")
        self.emit("chunk_quarantine", sample=index, error=reason)
        log.error("quarantining sample %d of %s after %d attempts: %s",
                  index, self.label, self.sup.max_attempts, reason)
        return 0.0

    # -- fold -----------------------------------------------------------------

    def fold(self) -> List[EncryptionRecord]:
        """Records of every committed chunk, in sample order.

        Chunks may overlap — a stolen lease committed twice, spans from
        an earlier run with other boundaries — but every copy of a sample
        is identical, so the first copy in chunk order wins. Telemetry
        merges in the same order.
        """
        by_index: Dict[int, EncryptionRecord] = {}
        for chunk in sorted(self.chunks, key=lambda chunk: chunk.start):
            fresh = [(index, record) for index, record
                     in zip(chunk.indices, chunk.records)
                     if index not in by_index]
            if not fresh:
                continue
            by_index.update(fresh)
            if self.instrumented and chunk.telemetry is not None:
                with self.profiler.span("runner.merge"):
                    self.ctx.telemetry.merge(chunk.telemetry)
        lost = [index for index in range(self.num_samples)
                if index not in by_index and index not in self.failed]
        if lost:
            raise ExperimentError(
                f"phase {self.label} ended with samples {lost[:8]} "
                f"uncommitted — the campaign directory was modified "
                f"underneath the workers"
            )
        return [by_index[index] for index in sorted(by_index)]


def collect_records(
    ctx: ExperimentContext,
    policy: CoalescingPolicy,
    num_samples: int,
    counts_only: bool = False,
    retain_kernel_results: bool = False,
) -> Tuple[EncryptionServer, List[EncryptionRecord]]:
    """Run one collection phase (see the module docstring).

    Returns the phase's victim server and its records in sample order.
    With a checkpoint store, completed chunks persist as they finish, so
    an interrupted campaign resumed with ``--resume`` re-simulates only
    the missing samples and reproduces the uninterrupted output byte for
    byte. Quarantined samples are *omitted* from the returned records and
    reported on ``ctx.campaign`` / the progress board instead of aborting
    the phase. A Ctrl-C flushes a partial-progress note to stderr and
    re-raises; the CLI maps it to a distinct exit code.
    """
    phase = _Phase(ctx, policy, num_samples, counts_only,
                   retain_kernel_results)
    store = phase.store
    if store is not None:
        with phase.profiler.span("checkpoint.load"):
            phase.chunks = store.load_chunks(phase.label)
    completed = {index for chunk in phase.chunks for index in chunk.indices}
    restored = len(completed)
    missing = [i for i in range(num_samples) if i not in completed]
    jobs = min(ctx.effective_jobs(), max(1, len(missing)))
    if phase.shard is not None:
        jobs, mode = 1, "lease"
    else:
        mode = "pool" if jobs > 1 else "inline"
    engine = phase.engine()
    phase.emit("phase_start", policy=policy.describe(), samples=num_samples,
               restored=restored, jobs=jobs, mode=mode, engine=engine,
               counts_only=counts_only, supervised=phase.supervised)
    if counts_only:
        phase.emit("engine_select", engine=engine)
    started = time.perf_counter()
    if restored:
        phase.campaign.resumed_samples += restored
        phase.emit("checkpoint_restore", restored=restored,
                   chunks=len(phase.chunks))
        print(f"[resume: {restored}/{num_samples} samples of "
              f"{policy.describe()} restored from {store.describe()}]",
              file=sys.stderr)
        phase.reporter.update(restored)
    log.info("collecting %d samples under %s%s (%s, %d checkpointed)",
             num_samples, policy.describe(),
             " (counts only)" if counts_only else "", mode, restored)

    server = None
    try:
        if mode == "lease":
            run_leases(phase)
        elif mode == "pool":
            size = math.ceil(len(missing)
                             / (jobs * phase.sup.chunks_per_worker))
            _run_pool(phase, _plan(missing, size), jobs)
        elif phase.supervised or store is not None:
            _run_inline(phase, _plan(missing, phase.sup.serial_chunk_samples))
        elif missing:
            # The in-memory route: one chunk, simulated straight into the
            # caller's telemetry on the server this phase returns.
            server = build_server(ctx, policy, counts_only=counts_only,
                                  retain_kernel_results=retain_kernel_results,
                                  telemetry=ctx.telemetry)
            _run_inline(phase, _plan(missing, len(missing)), server=server)
    except KeyboardInterrupt:
        if mode != "lease":  # the lease executor explains its own exit
            done = sum(len(chunk.indices) for chunk in phase.chunks)
            hint = (f"resume with --resume {store.describe()}"
                    if store is not None else
                    "partial results discarded — use --resume to make "
                    "campaigns restartable")
            print(f"\n[interrupted: {done}/{num_samples} samples of "
                  f"{policy.describe()} done; {hint}]", file=sys.stderr)
        raise
    phase.reporter.finish()

    if phase.failed:
        if store is not None:
            store.record_failed_samples(phase.campaign.failed_samples)
        print(f"[quarantined {len(phase.failed)} sample(s) under "
              f"{policy.describe()}: {sorted(phase.failed)}]",
              file=sys.stderr)
    if mode == "lease":
        # Peers committed the chunks this worker did not simulate.
        phase.chunks = store.load_chunks(phase.label)
    records = phase.fold()
    phase.emit("phase_finish", samples=num_samples, completed=len(records),
               restored=restored, quarantined=len(phase.failed),
               seconds=round(time.perf_counter() - started, 6))
    if server is None:
        server = build_server(ctx, policy, counts_only=counts_only,
                              retain_kernel_results=retain_kernel_results,
                              telemetry=ctx.telemetry)
    return server, records


def _plan(missing: Sequence[int], size: int) -> deque:
    """Pending work items ``(indices, attempt)`` for the missing samples."""
    return deque((chunk, 0) for chunk in _contiguous_chunks(missing, size))


# ---------------------------------------------------------------------------
# Executors. The lease executor lives in repro.experiments.shard.
# ---------------------------------------------------------------------------


def _run_inline(phase: _Phase, pending: deque,
                server: Optional[EncryptionServer] = None) -> None:
    """In-process work loop: the inline executor, also the pool's
    degraded-mode fallback when the pool keeps dying. ``hang``/``exit``
    faults surface here as plain raises."""
    telemetry = phase.ctx.telemetry if server is not None else None
    while pending:
        indices, attempt = pending.popleft()
        phase.dispatch(indices, attempt)
        try:
            records, chunk_telemetry, seconds = _run_chunk(
                phase.job, indices, attempt, progress=phase.reporter,
                in_worker=False, spans="serial", server=server,
                telemetry=telemetry)
        except Exception as exc:
            phase.campaign.crashes += 1
            _note_incident(phase.board, "crash")
            delay = phase.handle_failure(pending, indices, attempt, exc)
            if delay > 0:
                time.sleep(delay)
            continue
        phase.complete(indices, records, chunk_telemetry, seconds)


def _run_pool(phase: _Phase, pending: deque, jobs: int) -> None:
    """Pool work loop with deadlines, retries, and pool resurrection.

    Work items are submitted in rounds (everything currently pending) to
    the warm shared pool; results are collected in submission order so
    completion bookkeeping stays deterministic, and progress advances as
    each chunk's result arrives — workers share no queue or lock with
    each other, so a worker that dies mid-write can never wedge a
    survivor. A timeout or a died worker kills the whole pool — a
    :class:`ProcessPoolExecutor` cannot reap a single hung process — and
    completed sibling futures keep their results while unfinished
    siblings are rescheduled at their next attempt. After
    ``max_pool_restarts`` rebuilds the phase degrades to the inline
    executor, where the retry/quarantine machinery still applies.
    Without supervision there are no deadlines and a worker death raises
    :class:`WorkerCrashError`.
    """
    from concurrent.futures import TimeoutError as FuturesTimeoutError
    from concurrent.futures.process import BrokenProcessPool

    sup = phase.sup
    campaign = phase.campaign
    deadline = sup.chunk_deadline if phase.supervised else None
    profiler = phase.profiler
    pool = None
    restarts = 0
    try:
        while pending:
            if restarts > sup.max_pool_restarts:
                campaign.degraded_serial = True
                _note_incident(phase.board, "degraded-serial")
                phase.emit("degraded_serial", restarts=restarts)
                log.warning("%s: pool died %d times; degrading to "
                            "in-process serial execution",
                            phase.label, restarts)
                _run_inline(phase, pending)
                return
            if pool is None:
                pool = _shared_pool(jobs)
            round_items = list(pending)
            pending.clear()
            # "runner.submit" is payload pickling + task hand-off; the
            # first "runner.wait" additionally covers pool spin-up
            # (worker spawn + imports) the first time a pool is used.
            with profiler.span("runner.submit"):
                futures = [
                    (pool.submit(_run_chunk, phase.job, indices, attempt),
                     indices, attempt)
                    for indices, attempt in round_items
                ]
            for indices, attempt in round_items:
                phase.dispatch(indices, attempt)
            pool_dead = False
            max_delay = 0.0
            for future, indices, attempt in futures:
                if pool_dead:
                    # The pool was reaped mid-round. Keep results that
                    # finished in time; reschedule the rest at attempt+1.
                    # A pool death cannot be attributed to one chunk, so
                    # every unfinished chunk advances — the one whose
                    # fault killed the pool stops refiring a transient
                    # fault, and innocents merely carry a higher attempt
                    # number (harmless unless they actually fail).
                    if (future.done() and not future.cancelled()
                            and future.exception() is None):
                        phase.complete(indices, *future.result())
                        phase.reporter.update(len(indices))
                    else:
                        future.cancel()
                        pending.append((indices, attempt + 1))
                    continue
                try:
                    with profiler.span("runner.wait"):
                        result = future.result(timeout=deadline)
                    phase.complete(indices, *result)
                    phase.reporter.update(len(indices))
                except FuturesTimeoutError:
                    campaign.timeouts += 1
                    campaign.pool_restarts += 1
                    _note_incident(phase.board, "timeout")
                    phase.emit("pool_restart", reason="timeout",
                               start=indices[0], end=indices[-1])
                    log.warning("samples %d-%d of %s exceeded the %.1fs "
                                "chunk deadline; reaping the pool",
                                indices[0], indices[-1], phase.label,
                                deadline)
                    _abort_pool(pool)
                    _discard_shared_pool()
                    pool = None
                    pool_dead = True
                    restarts += 1
                    # Pool-level failures can't be pinned on one chunk (the
                    # future we were waiting on may be an innocent sibling
                    # of the real hang), so no split/quarantine here — just
                    # advance the attempt and let degraded-serial mode make
                    # the precisely-attributed call if this keeps up.
                    pending.append((indices, attempt + 1))
                    campaign.retries += 1
                    max_delay = max(max_delay, sup.backoff(attempt + 1))
                except BrokenProcessPool as exc:
                    campaign.crashes += 1
                    _note_incident(phase.board, "worker-killed")
                    phase.emit("pool_restart", reason="worker-died",
                               start=indices[0], end=indices[-1])
                    log.warning("worker process died while running samples "
                                "%d-%d of %s", indices[0], indices[-1],
                                phase.label)
                    _discard_shared_pool()  # the executor is already broken
                    pool = None
                    pool_dead = True
                    if not phase.supervised:
                        raise WorkerCrashError(
                            f"worker process died while running samples "
                            f"{indices[0]}-{indices[-1]} ({exc}); rerun "
                            f"with --supervise to retry and quarantine"
                        ) from exc
                    campaign.pool_restarts += 1
                    restarts += 1
                    # Same attribution caveat as the deadline case above.
                    pending.append((indices, attempt + 1))
                    campaign.retries += 1
                    max_delay = max(max_delay, sup.backoff(attempt + 1))
                except Exception as exc:
                    campaign.crashes += 1
                    _note_incident(phase.board, "crash")
                    max_delay = max(max_delay, phase.handle_failure(
                        pending, indices, attempt, exc))
            if pending and max_delay > 0:
                time.sleep(max_delay)
    except KeyboardInterrupt:
        if pool is not None:
            _abort_pool(pool)
            _discard_shared_pool()
        raise


def _run_one_experiment(payload):
    """Worker: run one full experiment serially.

    Returns ``(experiment_id, result, seconds, campaign)`` — the campaign
    stats are a worker-local :class:`CampaignStats` (or None when the
    resilience layer is off) that the parent folds into its own ledger, so
    quarantines inside ``all -j N`` workers still reach the CLI exit code.
    """
    ctx, experiment_id, checkpoint_dir = payload
    from repro.experiments.registry import run_experiment
    if checkpoint_dir is not None:
        import os

        from repro.experiments.checkpoint import (
            CheckpointStore,
            campaign_fingerprint,
        )
        store = CheckpointStore.open(
            os.path.join(checkpoint_dir, experiment_id),
            campaign_fingerprint(experiment_id, ctx, instrumented=False),
        )
        ctx = ctx.with_(checkpoint=store)
    if (ctx.supervision is not None or ctx.checkpoint is not None
            or ctx.faults is not None):
        ctx = ctx.with_(campaign=CampaignStats())
    start = time.perf_counter()
    result = run_experiment(experiment_id, ctx)
    return experiment_id, result, time.perf_counter() - start, ctx.campaign


def run_experiments_parallel(
    experiment_ids: Sequence[str],
    ctx: ExperimentContext,
    jobs: int,
    checkpoint_dir: Optional[str] = None,
):
    """Run whole experiments across a process pool (``rcoal all -j N``).

    Yields ``(experiment_id, result, seconds, campaign)`` tuples in the
    order the ids were given — each experiment is internally
    deterministic, so the combined output is byte-identical to a serial
    ``rcoal all``. Workers run their experiment serially (``jobs=1``) to
    avoid nested pools; with ``checkpoint_dir`` each worker opens its own
    per-experiment checkpoint store under ``<dir>/<experiment_id>``.
    """
    from concurrent.futures import ProcessPoolExecutor

    worker_ctx = ctx.with_(telemetry=None, progress=False, jobs=1,
                           checkpoint=None, campaign=None, journal=None)
    with ProcessPoolExecutor(
        max_workers=max(1, min(jobs, len(experiment_ids)))
    ) as pool:
        futures = [
            pool.submit(_run_one_experiment,
                        (worker_ctx, experiment_id, checkpoint_dir))
            for experiment_id in experiment_ids
        ]
        done = 0
        try:
            for future in futures:
                yield future.result()
                done += 1
        except KeyboardInterrupt:
            _abort_pool(pool, futures)
            print(f"\n[interrupted: {done}/{len(experiment_ids)} "
                  f"experiments completed]", file=sys.stderr)
            raise
