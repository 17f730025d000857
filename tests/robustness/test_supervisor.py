"""Worker supervision semantics, exercised through the in-process path.

These tests drive the inline executor of :func:`collect_records` with
deterministic fault plans and zero backoff — no pools, no sleeps, no
wall-clock — so they pin the retry/split/quarantine state machine
precisely. The pool variants of the same behaviors live in
``test_resume_identity.py`` and the CI chaos job.
"""

import pytest

from repro.core.policies import make_policy
from repro.errors import ConfigurationError
from repro.experiments.base import ExperimentContext, collect_records
from repro.experiments.runner import CampaignStats, SupervisionPolicy
from repro.faults import InjectedFault, parse_fault_plan
from repro.telemetry import Telemetry

SEED = 515
SAMPLES = 6

#: No sleeps in tests: backoff_base=0 short-circuits time.sleep entirely.
FAST_SUPERVISION = SupervisionPolicy(backoff_base=0.0,
                                     serial_chunk_samples=2)


def _keys(records):
    return [(r.ciphertext, r.total_time, r.total_accesses)
            for r in records]


def _collect(faults=None, supervision=None, campaign=None, telemetry=None,
             counts_only=True):
    ctx = ExperimentContext(
        root_seed=SEED, samples=SAMPLES, telemetry=telemetry,
        supervision=supervision,
        faults=parse_fault_plan(faults) if faults else None,
        campaign=campaign,
    )
    return collect_records(ctx, make_policy("baseline", 1), SAMPLES,
                           counts_only=counts_only)


@pytest.fixture(scope="module")
def golden():
    ctx = ExperimentContext(root_seed=SEED, samples=SAMPLES)
    _, records = collect_records(ctx, make_policy("baseline", 1), SAMPLES,
                                 counts_only=True)
    return _keys(records)


class TestPolicy:
    def test_backoff_is_capped_exponential(self):
        policy = SupervisionPolicy(backoff_base=0.1, backoff_cap=0.35)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.35)  # capped
        assert policy.backoff(10) == pytest.approx(0.35)

    def test_zero_base_disables_backoff(self):
        assert SupervisionPolicy(backoff_base=0.0).backoff(5) == 0.0

    def test_supervision_defaults_are_off_in_context(self):
        ctx = ExperimentContext()
        assert ctx.supervision is None
        assert ctx.faults is None
        assert ctx.checkpoint is None


class TestNegativeControl:
    def test_supervised_faultless_run_is_bit_identical(self, golden):
        # The whole resilience layer must be a no-op when nothing fails.
        _, records = _collect(supervision=FAST_SUPERVISION)
        assert _keys(records) == golden

    def test_supervised_instrumented_run_matches_plain_telemetry(self):
        plain, supervised = Telemetry(), Telemetry()
        _collect(telemetry=plain, counts_only=False)
        _collect(telemetry=supervised, supervision=FAST_SUPERVISION,
                 counts_only=False)
        assert supervised.metrics.snapshot() == plain.metrics.snapshot()
        assert [(e.name, e.ts, e.dur) for e in supervised.tracer.events] \
            == [(e.name, e.ts, e.dur) for e in plain.tracer.events]


class TestRetry:
    def test_transient_fault_is_retried_to_identical_results(self, golden):
        campaign = CampaignStats()
        _, records = _collect(faults="raise@3", campaign=campaign,
                              supervision=FAST_SUPERVISION)
        assert _keys(records) == golden
        assert campaign.retries >= 1
        assert not campaign.failed_samples

    def test_hang_and_exit_faults_recover_in_process(self, golden):
        # in-process translation: hang/exit become raises, retry succeeds
        for plan in ("hang@2", "exit@5"):
            _, records = _collect(faults=plan,
                                  supervision=FAST_SUPERVISION)
            assert _keys(records) == golden

    def test_unsupervised_fault_propagates(self):
        with pytest.raises(InjectedFault):
            _collect(faults="raise@3x*")


class TestQuarantine:
    def test_poison_sample_is_quarantined_not_fatal(self, golden):
        campaign = CampaignStats()
        _, records = _collect(faults="raise@3x*", campaign=campaign,
                              supervision=FAST_SUPERVISION)
        # exactly the poison sample is missing; every other record exact
        expected = [key for index, key in enumerate(golden) if index != 3]
        assert _keys(records) == expected
        assert [entry["sample"] for entry in campaign.failed_samples] \
            == [3]
        assert "InjectedFault" in campaign.failed_samples[0]["error"]

    def test_chunk_splitting_isolates_the_poison(self, golden):
        # one big chunk: the supervisor must split its way down to the
        # single poisoned sample instead of quarantining the whole span
        campaign = CampaignStats()
        policy = SupervisionPolicy(backoff_base=0.0,
                                   serial_chunk_samples=SAMPLES,
                                   max_attempts=2)
        _, records = _collect(faults="raise@4x*", campaign=campaign,
                              supervision=policy)
        expected = [key for index, key in enumerate(golden) if index != 4]
        assert _keys(records) == expected
        assert campaign.splits >= 1
        assert [entry["sample"] for entry in campaign.failed_samples] \
            == [4]

    def test_multiple_poisons_all_isolated(self, golden):
        campaign = CampaignStats()
        _, records = _collect(faults="raise@1x*,raise@4x*",
                              campaign=campaign,
                              supervision=FAST_SUPERVISION)
        expected = [key for index, key in enumerate(golden)
                    if index not in (1, 4)]
        assert _keys(records) == expected
        assert sorted(entry["sample"]
                      for entry in campaign.failed_samples) == [1, 4]

    def test_campaign_summary_mentions_quarantine(self):
        campaign = CampaignStats()
        _collect(faults="raise@0x*", campaign=campaign,
                 supervision=FAST_SUPERVISION)
        summary = campaign.summary()
        assert "quarantined=1" in summary
        assert campaign.eventful()


class TestCampaignStats:
    def test_absorb_folds_worker_ledgers(self):
        parent, worker = CampaignStats(), CampaignStats()
        worker.retries = 2
        worker.degraded_serial = True
        worker.failed_samples.append({"phase": "p", "sample": 1,
                                      "error": "x"})
        parent.absorb(worker)
        parent.absorb(None)  # workers without resilience report None
        assert parent.retries == 2
        assert parent.degraded_serial
        assert len(parent.failed_samples) == 1

    def test_fresh_stats_are_uneventful(self):
        assert not CampaignStats().eventful()


class TestCliPlanValidation:
    def test_bad_fault_plan_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            parse_fault_plan("explode@everything")
