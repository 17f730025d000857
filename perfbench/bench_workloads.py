"""The benchmark's workloads and their output digests.

Each workload is a list of collection phases run through the library's
public pipeline, ``ExperimentContext`` -> ``collect_records`` ->
``run_corresponding_attack``, exactly as an experiment module drives it.
The workload seed becomes ``root_seed``, which fixes the victim key, the
plaintext batch and every policy draw.

Import this module only after ``repro`` is importable (the worker times
``import repro.cli`` before it imports this file).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.policies import make_policy
from repro.experiments import base
from repro.experiments.base import MECHANISMS, ExperimentContext
from repro.workloads.plaintext import random_plaintexts


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the phases it collects and attacks."""

    name: str
    lines: int
    samples: int
    #: (policy name, number of subwarps) per phase, in run order.
    phases: Tuple[Tuple[str, int], ...]
    counts_only: bool = False
    #: Collect through a fresh checkpointed campaign directory (the
    #: ``rcoal <exp> --resume DIR`` path: chunk commits + ledger appends).
    checkpointed: bool = False
    #: Records re-simulated on the oracle engine per phase when the seed
    #: has no committed digests.
    spot_checks: int = 1


# Why each workload exists is recorded in README.md next to this file.
WORKLOADS: Dict[str, Workload] = {
    "paper_timed": Workload(
        name="paper_timed", lines=32, samples=24,
        phases=(("baseline", 1),) + tuple(
            (mechanism, m) for mechanism in MECHANISMS for m in (2, 4, 8)),
        spot_checks=2,
    ),
    "casestudy_timed": Workload(
        name="casestudy_timed", lines=1024, samples=2,
        phases=(("baseline", 1), ("rss_rts", 4)),
    ),
    "casestudy_counts": Workload(
        name="casestudy_counts", lines=1024, samples=14,
        phases=tuple((mechanism, m) for mechanism in MECHANISMS
                     for m in (2, 8)),
        counts_only=True, checkpointed=True, spot_checks=2,
    ),
}


def record_digest(record) -> str:
    """Everything the oracle pins about one record."""
    payload = [
        record.ciphertext.hex(),
        int(record.total_time),
        int(record.last_round_time),
        int(record.total_accesses),
        sorted((int(k), int(v)) for k, v in record.round_accesses.items()),
        [int(v) for v in record.last_round_byte_accesses],
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


def attack_digest(recovery) -> str:
    """The attack outcome: answer, and rank + correlation of the truth."""
    payload = [
        recovery.recovered_key.hex(),
        [b.correct_rank for b in recovery.bytes_],
        [repr(round(b.correct_correlation, 9)) for b in recovery.bytes_],
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


@dataclass
class PhaseOutput:
    policy: str
    subwarps: int
    records: list
    attack: str


@dataclass
class RunOutput:
    phases: List[PhaseOutput]
    #: Host seconds spent inside ``collect_records``.
    collect_s: float
    #: Simulated coalesced accesses over every collected record.
    accesses: int


def context(workload: Workload, seed: int, *,
            oracle: bool = False) -> ExperimentContext:
    """The experiment context for a workload.

    ``oracle`` selects the event engine for timed phases and the scalar
    per-sample counting path for counts-only phases (the reference every
    fast path must equal); otherwise the library defaults apply.
    """
    ctx = ExperimentContext(root_seed=seed, samples=workload.samples,
                            lines=workload.lines, jobs=1)
    if oracle:
        ctx = ctx.with_(batched=False, batched_timing=False)
    return ctx


def run(workload: Workload, ctx: ExperimentContext,
        campaign_dir: Optional[Path] = None,
        clock: Callable[[], float] = time.perf_counter) -> RunOutput:
    """Collect and attack every phase of ``workload`` under ``ctx``.

    ``clock`` times the collection (``RunOutput.collect_s``).

    A ``workload.checkpointed`` workload opens a fresh campaign in
    ``campaign_dir``, which must not exist yet; the caller removes it.
    """
    if workload.checkpointed:
        from repro.experiments.checkpoint import (CheckpointStore,
                                                  campaign_fingerprint)
        from repro.experiments.runner import CampaignStats
        if campaign_dir is None or campaign_dir.exists():
            raise ValueError(f"need a fresh campaign directory, got "
                             f"{campaign_dir}")
        store = CheckpointStore.open(
            campaign_dir, campaign_fingerprint("fig18", ctx, False))
        ctx = ctx.with_(checkpoint=store, campaign=CampaignStats())
    phases = []
    collect_s = 0.0
    accesses = 0
    for policy_name, subwarps in workload.phases:
        policy = make_policy(policy_name, subwarps)
        started = clock()
        # Looked up on the module so the traced run sees the call.
        server, records = base.collect_records(
            ctx, policy, workload.samples, counts_only=workload.counts_only)
        collect_s += clock() - started
        accesses += sum(r.total_accesses for r in records)
        observable = None
        if workload.counts_only:
            # Fig 18a: correlate against the observed per-byte counts.
            observable = np.array(
                [r.last_round_byte_accesses for r in records]).T
        recovery = base.run_corresponding_attack(
            ctx, server, records, policy_name, subwarps,
            observable=observable)
        phases.append(PhaseOutput(policy_name, subwarps, records,
                                  attack_digest(recovery)))
    return RunOutput(phases, collect_s, accesses)


def digests(output: RunOutput) -> dict:
    """Per-phase record and attack digests (the oracle file's format)."""
    return {
        "phases": [
            {"policy": p.policy, "subwarps": p.subwarps,
             "records": [record_digest(r) for r in p.records],
             "attack": p.attack}
            for p in output.phases
        ],
    }


def spot_check_indices(workload: Workload, seed: int,
                       phase_index: int) -> List[int]:
    """Which samples of a phase the oracle re-simulates (seed-chosen)."""
    rng = np.random.default_rng([seed, phase_index])
    count = min(workload.spot_checks, workload.samples)
    return sorted(int(i) for i in rng.choice(workload.samples, count,
                                             replace=False))


def oracle_records(workload: Workload, seed: int, phase_index: int,
                   indices: List[int]) -> List[str]:
    """Oracle digests of selected samples of one phase.

    Re-simulates each sample alone on the reference path, from the same
    plaintext and per-sample victim stream the collection used.
    """
    ctx = context(workload, seed, oracle=True)
    policy_name, subwarps = workload.phases[phase_index]
    policy = make_policy(policy_name, subwarps)
    plaintexts = random_plaintexts(workload.samples, workload.lines,
                                   ctx.stream("workload"))
    server = base.build_server(ctx, policy,
                               counts_only=workload.counts_only)
    stream = base.victim_stream_name(policy)
    return [
        record_digest(server.encrypt(plaintexts[i],
                                     rng=ctx.sample_stream(stream, i)))
        for i in indices
    ]
