"""Per-layer tracing for the benchmark's traced runs.

Wraps public functions of each layer from outside the library: nothing
under ``src/`` knows it is being traced. Each wrapped call records a span
(name, start, end, parent, sample id) in memory and bumps the counters of
its layer; the spans are written out once the run ends.

A span's *self time* is its duration minus its child spans. Because every
span nests inside the root span, the self times of all layers plus the
root's own self time (harness glue the wrappers do not cover) add up to
the traced wall time exactly; ``Tracer.report`` checks that.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

ROOT = "bench.workload"


class Tracer:
    """In-memory span recorder plus per-layer counters."""

    def __init__(self):
        #: (name, start, end, parent index or -1, sample id or None)
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self.fallback_reasons: Counter = Counter()
        self._stack: List[list] = []  # [index, child seconds]
        self._self: Dict[str, float] = defaultdict(float)
        self._total: Dict[str, float] = defaultdict(float)
        self._seen_lines: set = set()
        self._restore: List[tuple] = []

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str, sample: Optional[str]) -> float:
        parent = self._stack[-1][0] if self._stack else -1
        if sample is None and parent >= 0:
            sample = self.spans[parent][4]
        self.spans.append((name, 0.0, 0.0, parent, sample))
        self._stack.append([len(self.spans) - 1, 0.0])
        return time.perf_counter()

    def _exit(self, name: str, started: float) -> None:
        ended = time.perf_counter()
        index, children = self._stack.pop()
        _, _, _, parent, sample = self.spans[index]
        self.spans[index] = (name, started, ended, parent, sample)
        duration = ended - started
        self._total[name] += duration
        self._self[name] += duration - children
        if self._stack:
            self._stack[-1][1] += duration

    @contextmanager
    def root(self):
        """The span around the whole timed section."""
        started = self._enter(ROOT, None)
        try:
            yield
        finally:
            self._exit(ROOT, started)

    def wrap(self, owner, attr: str, name: str,
             sample_of: Optional[Callable] = None,
             on_result: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a spanned call of the original."""
        original = getattr(owner, attr)
        tracer = self

        def spanned(*args, **kwargs):
            sample = sample_of(args, kwargs) if sample_of else None
            started = tracer._enter(name, sample)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(name, started)
            tracer.counts[name] += 1
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        self._restore.append((owner, attr, original))
        setattr(owner, attr, spanned)

    def unwrap(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- layer hooks -----------------------------------------------------

    def install(self) -> None:
        """Wrap every measured layer (see README.md's layer map)."""
        from repro.aes.ttable import TTableAES
        from repro.attack.estimator import AccessEstimator
        from repro.attack.recovery import CorrelationTimingAttack
        from repro.core.rcoal import RCoalGPU
        from repro.experiments import base
        from repro.experiments.checkpoint import CheckpointStore
        from repro.gpu.batched import BatchedCountsCore
        from repro.gpu.engine import GPUSimulator
        from repro.gpu.timed_batch import BatchedTimingCore, UnsupportedLaunch
        from repro.telemetry.journal import RunJournal
        from repro.workloads import server as server_module

        counts = self.counts

        def sample_of_rng(args, kwargs):
            rng = kwargs.get("rng", args[2] if len(args) > 2 else None)
            return getattr(rng, "name", None)

        def on_trace(args, kwargs, result):
            key = (args[0].key, bytes(args[1]))
            if key in self._seen_lines:
                counts["aes.trace_repeats"] += 1
            else:
                self._seen_lines.add(key)

        def on_engine(args, kwargs, result):
            counts["gpu.engine_accesses"] += result.total_accesses
            counts["gpu.engine_sim_cycles"] += result.total_cycles

        def on_counts(args, kwargs, result):
            counts["gpu.counts_samples"] += len(args[1])

        def on_recover(args, kwargs, result):
            counts["attack.guesses"] += 16 * 256 * len(args[1])

        self.wrap(base, "collect_records", "experiments.collect")
        self.wrap(base, "run_corresponding_attack", "attack.run")
        self.wrap(CheckpointStore, "save_chunk",
                  "experiments.checkpoint_save")
        self.wrap(RunJournal, "append", "telemetry.journal_append")
        self.wrap(server_module.EncryptionServer, "encrypt",
                  "workloads.encrypt", sample_of=sample_of_rng)
        self.wrap(TTableAES, "encrypt", "aes.trace", on_result=on_trace)
        self.wrap(server_module, "build_warp_programs", "gpu.warp_build")
        self.wrap(RCoalGPU, "draw_partitions", "core.draw")
        self.wrap(GPUSimulator, "run", "gpu.engine", on_result=on_engine)
        self.wrap(BatchedCountsCore, "encrypt_batch", "gpu.counts",
                  on_result=on_counts)
        self.wrap(CorrelationTimingAttack, "recover_key", "attack.recover",
                  on_result=on_recover)
        self.wrap(AccessEstimator, "prepare", "attack.prepare")

        # Which launches the wavefront core served, and why it refused
        # the others (it raises; the simulator replays on the event path).
        core_run = BatchedTimingCore.run

        def counted_core_run(core, *args, **kwargs):
            try:
                result = core_run(core, *args, **kwargs)
            except UnsupportedLaunch as exc:
                self.fallback_reasons[str(exc)] += 1
                raise
            counts["gpu.engine_batched"] += 1
            return result

        self._restore.append((BatchedTimingCore, "run", core_run))
        BatchedTimingCore.run = counted_core_run

    # -- results ---------------------------------------------------------

    def report(self) -> dict:
        """Per-layer metrics of one traced run (names as in BENCHMARK.json).
        """
        total = Counter(self._total)
        self_s = Counter(self._self)
        counts = self.counts
        wall = total[ROOT]
        launches = counts["gpu.engine"]
        fallbacks = launches - counts["gpu.engine_batched"]
        multi_warp = self.fallback_reasons["multi-warp launch"]
        trace_calls = counts["aes.trace"]
        return {
            "experiments.collect_s": total["experiments.collect"],
            "experiments.collect_self_s": self_s["experiments.collect"],
            "experiments.checkpoint_save_s":
                total["experiments.checkpoint_save"],
            "experiments.checkpoint_chunks":
                counts["experiments.checkpoint_save"],
            "telemetry.journal_appends": counts["telemetry.journal_append"],
            "telemetry.journal_append_s": total["telemetry.journal_append"],
            "workloads.encrypt_calls": counts["workloads.encrypt"],
            "workloads.encrypt_self_s": self_s["workloads.encrypt"],
            "aes.trace_calls": trace_calls,
            "aes.trace_s": total["aes.trace"],
            "aes.trace_hit_ratio": (counts["aes.trace_repeats"] / trace_calls
                                    if trace_calls else 0.0),
            "gpu.warp_build_calls": counts["gpu.warp_build"],
            "gpu.warp_build_s": total["gpu.warp_build"],
            "core.draw_calls": counts["core.draw"],
            "core.draw_s": total["core.draw"],
            "gpu.engine_launches": launches,
            "gpu.engine_s": total["gpu.engine"],
            "gpu.engine_accesses": counts["gpu.engine_accesses"],
            "gpu.engine_sim_cycles": counts["gpu.engine_sim_cycles"],
            "gpu.engine_fallback_ratio": (fallbacks / launches
                                          if launches else 0.0),
            "gpu.engine_multi_warp_fallback_ratio": (
                multi_warp / launches if launches else 0.0),
            "gpu.counts_samples": counts["gpu.counts_samples"],
            "gpu.counts_s": total["gpu.counts"],
            "attack.prepare_s": total["attack.prepare"],
            "attack.recover_s": total["attack.recover"],
            "attack.recover_self_s": self_s["attack.recover"],
            "attack.guesses": counts["attack.guesses"],
            "trace.wall_s": wall,
            "trace.unaccounted_s": self_s[ROOT],
        }

    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name, the root's own share included."""
        return dict(self._self)

    def count_signature(self) -> dict:
        """Counts that must repeat exactly across runs of the same code."""
        signature = dict(sorted(self.counts.items()))
        signature["fallback_reasons"] = dict(sorted(
            self.fallback_reasons.items()))
        return signature

    def write(self, path) -> None:
        """Write the spans (times in µs from the first span) and the
        fallback reasons as one JSON object."""
        base = self.spans[0][1] if self.spans else 0.0
        spans = [
            {"id": i, "name": name, "start_us": round((s - base) * 1e6, 1),
             "end_us": round((e - base) * 1e6, 1), "parent": parent,
             "sample": sample}
            for i, (name, s, e, parent, sample) in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": spans,
                       "fallback_reasons": dict(self.fallback_reasons)},
                      handle)
