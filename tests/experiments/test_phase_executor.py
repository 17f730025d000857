"""The phase executor's route contract.

Every collection route — inline, inline with a checkpoint store, ``-j``
pool, supervised pool, and a lease-claiming shard worker — runs through
one phase frame, so each must return the same records and write the same
ledger frame around its chunks.
"""

import pytest

from repro.core.policies import make_policy
from repro.experiments.base import ExperimentContext, collect_records
from repro.experiments.checkpoint import CheckpointStore, \
    campaign_fingerprint
from repro.experiments.runner import SupervisionPolicy
from repro.experiments.shard import ShardPolicy
from repro.telemetry.journal import RunJournal

SEED = 808
SAMPLES = 6

#: route name -> (context fields, opens a checkpoint store, ledger mode)
ROUTES = {
    "inline": ({}, False, "inline"),
    "inline-checkpoint": ({}, True, "inline"),
    "pool": ({"jobs": 2}, False, "pool"),
    "pool-supervised": ({"jobs": 2, "supervision": SupervisionPolicy(
        backoff_base=0.0)}, False, "pool"),
    "lease": ({"shard": ShardPolicy("w1", chunk_samples=2)}, True,
              "lease"),
}


def _run(tmp_path, route, counts_only):
    fields, checkpointed, _ = ROUTES[route]
    ctx = ExperimentContext(root_seed=SEED, samples=SAMPLES, **fields)
    if checkpointed:
        ctx = ctx.with_(checkpoint=CheckpointStore.open(
            tmp_path / "camp",
            campaign_fingerprint("unit", ctx, instrumented=False)))
    journal = RunJournal(tmp_path / "ledger.jsonl")
    _, records = collect_records(ctx.with_(journal=journal),
                                 make_policy("rss_rts", 4), SAMPLES,
                                 counts_only=counts_only)
    return records, journal.read()


def _kinds(events, kind):
    return [event for event in events if event["kind"] == kind]


@pytest.fixture(scope="module", params=[True, False],
                ids=["counts", "timed"])
def reference(request, tmp_path_factory):
    counts_only = request.param
    records, events = _run(tmp_path_factory.mktemp("reference"), "inline",
                           counts_only)
    return counts_only, records, _kinds(events, "phase_start")[0]["engine"]


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_shares_records_and_ledger_frame(tmp_path, route,
                                                     reference):
    counts_only, golden, engine = reference
    records, events = _run(tmp_path, route, counts_only)
    assert records == golden

    starts = _kinds(events, "phase_start")
    assert len(starts) == 1
    assert starts[0]["engine"] == engine
    assert starts[0]["mode"] == ROUTES[route][2]
    selects = _kinds(events, "engine_select")
    assert len(selects) == (1 if counts_only else 0)
    finishes = _kinds(events, "phase_finish")
    assert len(finishes) == 1
    assert finishes[0]["completed"] == SAMPLES
    dispatched = _kinds(events, "chunk_dispatch")
    assert dispatched
    assert len(dispatched) == len(_kinds(events, "chunk_done"))


def test_chunk_done_seconds_are_per_chunk_on_the_pool(tmp_path):
    # Each chunk journals its own simulation time, not the time since
    # the fan-out began: two workers can never be busy for more than
    # twice the phase's wall time in total.
    samples = 16
    journal = RunJournal(tmp_path / "ledger.jsonl")
    ctx = ExperimentContext(
        root_seed=SEED, samples=samples, jobs=2, journal=journal,
        supervision=SupervisionPolicy(backoff_base=0.0))
    collect_records(ctx, make_policy("baseline", 1), samples)
    events = journal.read()
    done = _kinds(events, "chunk_done")
    assert len(done) == 8
    finish = _kinds(events, "phase_finish")[0]
    assert sum(event["seconds"] for event in done) \
        <= 2 * finish["seconds"] + 0.05
