"""The serve read path computes the same answers incrementally.

``/metrics`` scores from the running ``positives`` set and counts
instead of rebuilding the device universe, and ingest stamps a batch
from one clock read; both must equal the straightforward versions.
"""

from dataclasses import replace

import pytest

from repro.detection.evaluation import evaluate_detector
from repro.detection.events import DeviceInstallEvent
from repro.obs import Observability
from repro.recovery import CrashPlan, RecoveryContext, SimulatedCrash
from repro.serve import (
    DAY_SECONDS,
    DetectionService,
    ServeRequest,
    ServeRunConfig,
    VirtualClock,
    VirtualTimeEventLoop,
    run_serve,
)

TINY = dict(seed=2019, clients=3, scale=0.05, requests_per_client_day=90.0)


class Checked(list):
    """Reports from every ``evaluate_now`` call, plus the calls where
    the incremental answer disagreed with the full evaluation."""

    def __init__(self):
        super().__init__()
        self.disagreements = []


@pytest.fixture
def checked_scores(monkeypatch):
    """Every ``evaluate_now`` call also scores the full sets.  A
    disagreement is recorded, not raised: the call runs inside a
    service worker, where an exception would only stall the loop."""
    checked = Checked()
    incremental = DetectionService.evaluate_now

    def evaluate_and_compare(service):
        report = incremental(service)
        universe = set(service.log.devices())
        expected = evaluate_detector(service.online.flagged_devices,
                                     service.incentivized & universe,
                                     universe)
        positives = service.incentivized & universe
        if report != expected or service.positives != positives:
            checked.disagreements.append((len(checked), report, expected))
        checked.append(report)
        return report

    monkeypatch.setattr(DetectionService, "evaluate_now",
                        evaluate_and_compare)
    return checked


def make_events(device_ids):
    return [DeviceInstallEvent(
        device_id=device_id, package="com.example.app", day=0, hour=0.0,
        ip_slash24="198.51.100.0/24", ssid_hash="ssid:deadbeef",
        opened=True, engagement_seconds=30.0) for device_id in device_ids]


def metrics_misses(result):
    return result.obs.metrics.counter_value("serve.cache_misses",
                                            endpoint="metrics")


class TestMetricsScoring:
    @pytest.mark.parametrize("overrides", [
        {},
        {"chaos_profile": "paper", "chaos_seed": 7},
        {"cache_policy": "wholesale"},
    ], ids=["clean", "paper-chaos", "wholesale"])
    def test_every_miss_equals_the_full_evaluation(self, checked_scores,
                                                   overrides):
        result = run_serve(ServeRunConfig(days=1, **TINY, **overrides))
        # One check per /metrics miss plus the end-of-run score.
        assert checked_scores.disagreements == []
        assert len(checked_scores) == metrics_misses(result) + 1 > 10
        assert result.report["detection"]["flagged"] > 0
        assert checked_scores[-1].true_positives > 0

    def test_resumed_run_scores_like_the_full_evaluation(
            self, checked_scores, tmp_path):
        config = ServeRunConfig(days=2, **TINY)
        plain = run_serve(config, obs=Observability())
        crashing = RecoveryContext.create(
            tmp_path, "serve", crash=CrashPlan.at("serve.request", 1, seq=11),
            with_wal=True)
        with pytest.raises(SimulatedCrash):
            run_serve(config, obs=Observability(), recovery=crashing)
        checked_before_resume = len(checked_scores)
        resumed = run_serve(config, obs=Observability(),
                            recovery=RecoveryContext.create(
                                tmp_path, "serve", resume=True,
                                with_wal=True))
        assert checked_scores.disagreements == []
        assert len(checked_scores) > checked_before_resume + 1
        assert resumed.report == plain.report
        assert resumed.flagged_dump() == plain.flagged_dump()

    def test_ground_truth_may_arrive_before_or_after_the_events(
            self, checked_scores):
        loop = VirtualTimeEventLoop()
        service = DetectionService(vclock=VirtualClock(loop))
        batches = [
            # "late" is declared incentivized before it is ever logged,
            {"events": [], "incentivized": ["late"]},
            # "early" is logged before anyone calls it incentivized.
            {"events": make_events(["early", "organic"]),
             "incentivized": ()},
            {"events": make_events(["late"]), "incentivized": ()},
            {"events": [], "incentivized": ["early", "never-logged"]},
        ]

        async def main():
            await service.start()
            for params in batches:
                await service.submit(ServeRequest("ingest", params))
                await service.submit(ServeRequest("metrics"))
            await service.stop()

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()
        # An empty ingest keeps the watermark, so the last /metrics was
        # a cache hit; score the final state directly.
        report = service.evaluate_now()
        assert checked_scores.disagreements == []
        assert service.positives == {"early", "late"}
        assert (report.false_negatives, report.true_negatives) == (2, 1)
        assert len(checked_scores) == 4

    def test_unknown_flagged_device_is_rejected(self):
        loop = VirtualTimeEventLoop()
        try:
            service = DetectionService(vclock=VirtualClock(loop))
            service.online._flagged.add("never-logged")
            with pytest.raises(ValueError, match="unknown devices"):
                service.evaluate_now()
        finally:
            loop.close()


class TestBatchStamping:
    @pytest.mark.parametrize("start", [
        0.0, 3 * 3600.0 + 17.25, DAY_SECONDS - 0.001, 2 * DAY_SECONDS])
    def test_batch_stamp_equals_per_event_replace(self, start):
        loop = VirtualTimeEventLoop(start_time=start)
        try:
            vclock = VirtualClock(loop)
            service = DetectionService(vclock=vclock)
            events = [DeviceInstallEvent(
                device_id=f"dev-{i}", package=f"com.app{i % 2}", day=0,
                hour=float(i), ip_slash24=f"10.0.{i}.0/24",
                ssid_hash=f"ssid:{i:08x}", opened=i % 3 == 0,
                engagement_seconds=12.5 * i) for i in range(6)]
            expected = [replace(event, day=vclock.day,
                                hour=vclock.hour_of_day)
                        for event in events]
            assert service._stamp_batch(events) == expected
            assert service._stamp_batch([]) == []
        finally:
            loop.close()
