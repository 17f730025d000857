"""Batched structure-of-arrays core: golden parity with the event engine.

Every test compares full :class:`EncryptionRecord` dataclass equality —
ciphertext, every access count (total, per round, per last-round byte)
and the drawn partitions — between ``batched=True`` and ``batched=False``
collection. The two paths share nothing below ``collect_records`` except
the RNG derivation, so equality here is the engine-parity contract the
default engine selection rides on.
"""

import numpy as np
import pytest

import repro.gpu.batched as batched_module
from repro.core.policies import POLICY_NAMES, make_policy
from repro.core.selective import SelectiveRCoalPolicy
from repro.errors import BlockSizeError, ConfigurationError
from repro.experiments.base import (
    ExperimentContext,
    build_server,
    collect_records,
)
from repro.gpu.batched import BatchedCountsCore
from repro.telemetry import Telemetry
from repro.telemetry.metrics import stable_json


def _both_engines(ctx, policy, num_samples):
    _, batched = collect_records(ctx.with_(batched=True), policy,
                                 num_samples, counts_only=True)
    _, event = collect_records(ctx.with_(batched=False), policy,
                               num_samples, counts_only=True)
    return batched, event


class TestGoldenParity:
    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    def test_every_policy(self, policy_name):
        ctx = ExperimentContext(root_seed=2018, samples=3)
        policy = make_policy(policy_name, 8)
        batched, event = _both_engines(ctx, policy, 3)
        assert batched == event

    @pytest.mark.parametrize("subwarps", [1, 2, 4, 16, 32])
    def test_subwarp_sweep(self, subwarps):
        ctx = ExperimentContext(root_seed=2018, samples=2)
        policy = make_policy("rss_rts", subwarps)
        batched, event = _both_engines(ctx, policy, 2)
        assert batched == event

    @pytest.mark.parametrize("seed", [0, 7, 99])
    def test_seed_sweep(self, seed):
        ctx = ExperimentContext(root_seed=seed, samples=2)
        policy = make_policy("fss_rts", 4)
        batched, event = _both_engines(ctx, policy, 2)
        assert batched == event

    @pytest.mark.parametrize("lines", [1, 8, 33, 40, 64])
    def test_line_counts_including_partial_warps(self, lines):
        ctx = ExperimentContext(root_seed=3, samples=2, lines=lines)
        policy = make_policy("rss", 8)
        batched, event = _both_engines(ctx, policy, 2)
        assert batched == event

    def test_selective_policy_resolves_per_round(self):
        ctx = ExperimentContext(root_seed=11, samples=3)
        policy = SelectiveRCoalPolicy(make_policy("rss_rts", 8))
        batched, event = _both_engines(ctx, policy, 3)
        assert batched == event

    def test_counts_are_nontrivial(self):
        # Guard against the parity tests passing vacuously on all-zero
        # records.
        ctx = ExperimentContext(root_seed=2018, samples=2)
        batched, _ = _both_engines(ctx, make_policy("rss_rts", 8), 2)
        assert all(r.total_accesses > 0 for r in batched)
        assert all(sum(r.last_round_byte_accesses) ==
                   r.last_round_accesses for r in batched)

    def test_counts_only_records_carry_zero_times(self):
        ctx = ExperimentContext(root_seed=2018, samples=2)
        batched, _ = _both_engines(ctx, make_policy("fss", 8), 2)
        assert all(r.total_time == 0 and r.last_round_time == 0
                   for r in batched)


class TestTelemetryParity:
    def test_metrics_snapshots_are_identical(self):
        policy = make_policy("rss_rts", 8)
        snapshots = []
        for batched in (True, False):
            telemetry = Telemetry()
            ctx = ExperimentContext(root_seed=2018, samples=3,
                                    telemetry=telemetry, batched=batched)
            collect_records(ctx, policy, 3, counts_only=True)
            snapshots.append(stable_json(telemetry.metrics.snapshot()))
        assert snapshots[0] == snapshots[1]


class TestSlabbing:
    def test_slab_boundaries_do_not_change_records(self, monkeypatch):
        ctx = ExperimentContext(root_seed=5, samples=5)
        policy = make_policy("rss_rts", 8)
        _, whole = collect_records(ctx.with_(batched=True), policy, 5,
                                   counts_only=True)
        # Shrink the slab cap so the same batch is processed one or two
        # samples at a time.
        monkeypatch.setattr(batched_module, "_SLAB_KEY_BYTES", 1)
        _, slabbed = collect_records(ctx.with_(batched=True), policy, 5,
                                     counts_only=True)
        assert whole == slabbed


class TestCoreValidation:
    def _core(self):
        ctx = ExperimentContext(root_seed=1)
        server = build_server(ctx, make_policy("fss", 8), counts_only=True)
        return BatchedCountsCore(server)

    def test_requires_a_counts_only_server(self):
        ctx = ExperimentContext(root_seed=1)
        timed = build_server(ctx, make_policy("fss", 8))
        with pytest.raises(ConfigurationError):
            BatchedCountsCore(timed)

    def test_rejects_mismatched_rng_list(self):
        core = self._core()
        with pytest.raises(ConfigurationError):
            core.encrypt_batch([b"\x00" * 512], [])

    def test_rejects_ragged_plaintexts(self):
        core = self._core()
        with pytest.raises(ConfigurationError):
            core.encrypt_batch([b"\x00" * 512, b"\x00" * 256], [None, None])

    def test_rejects_unaligned_plaintexts(self):
        core = self._core()
        with pytest.raises(BlockSizeError):
            core.encrypt_batch([b"\x00" * 17], [None])

    def test_empty_batch(self):
        assert self._core().encrypt_batch([], []) == []

    def test_on_record_fires_per_sample(self):
        core = self._core()
        seen = []
        records = core.encrypt_batch(
            [bytes(16), bytes(range(16))], [None, None],
            on_record=seen.append,
        )
        assert seen == records
        assert len(seen) == 2


class TestEngineSelection:
    def test_timed_collection_ignores_the_batched_flag(self):
        # ``batched`` selects the counts engine only; timed records must
        # not change with it.
        ctx = ExperimentContext(root_seed=2018, samples=2)
        policy = make_policy("fss", 4)
        _, timed_a = collect_records(ctx.with_(batched=True), policy, 2)
        _, timed_b = collect_records(ctx.with_(batched=False), policy, 2)
        assert timed_a == timed_b
        assert all(r.total_time > 0 for r in timed_a)
