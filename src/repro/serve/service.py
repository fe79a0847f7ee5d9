"""The always-on detection/analytics service.

One :class:`DetectionService` wraps the streaming detection state
(:class:`~repro.detection.stream.InstallEventBus` fanning into an
:class:`~repro.detection.stream.OnlineLockstepDetector` plus an
:class:`~repro.detection.events.InstallLog` for end-of-run batch
comparison) and the monitor's named datasets behind five endpoints:

``ingest``     install events published onto the bus (the write path;
               advances the watermark)
``flagged``    flagged devices/clusters as of the current watermark
``datasets``   list/load/filter/analyse named offer datasets
``health``     liveness: uptime, watermark, queue depth
``metrics``    precision/recall gauges against ground truth so far

Requests flow frontdoor → admission → bounded queue → worker shards.
The frontdoor consults a :class:`~repro.net.chaos.ChaosScenario` for
injected connection resets and 429/503s (same hashed-decision scheme as
:class:`~repro.net.chaos.FaultPlan`), admission sheds with 429s, and
read endpoints are served from a :class:`~repro.serve.cache.
WatermarkCache` keyed by a per-endpoint freshness token (see
:meth:`DetectionService._freshness`).

Crash recovery
--------------
When a :class:`~repro.recovery.checkpoint.RecoveryContext` is attached,
every admitted ingest batch is appended to the context's write-ahead
log *before* it is published onto the bus, and ``submit`` exposes the
``serve.request`` crash point.  The streaming detection state (install
log, online detector, its ``version`` token) is deliberately *not*
checkpointed: a resumed run reconstructs it exactly by replaying the
WAL through the bus, then restores the cheap scalar state
(:meth:`DetectionService.load_state`) and finally the observability
snapshot, which overwrites any counters the replay double-ticked.

Ingestion-time stamping
-----------------------
The service re-stamps every ingested event at its processing instant on
the virtual clock (store-side ingestion time, which is also what makes
client *retries* safe: a replayed batch cannot travel back behind the
detector's watermark).  Because the install log records the re-stamped
events, the online flagged set still converges to exactly what the
batch detector computes on the same log.

Scoring ``/metrics``
--------------------
A ``/metrics`` miss scores the flagged-so-far set against the ground
truth seen so far, and misses happen on every ingest.  Rather than
rebuilding the device universe per request, the service keeps
``positives`` — the incentivized devices that have appeared in the
install log — current as events arrive (rebuilt once by
:meth:`DetectionService.load_state` after a WAL replay).  The
confusion matrix then follows from counts: ``tp = |flagged ∩
positives|``, ``fp = |flagged| - tp``, ``fn = |positives| - tp`` and
``tn = |devices| - tp - fp - fn``, which costs O(|flagged|) and equals
:func:`~repro.detection.evaluation.evaluate_detector` on the same sets.

Latency is measured twice per request, both deterministically: the op
counter delta (``serve.request_ops``, instrumented work) and elapsed
virtual milliseconds including queue wait (``serve.request_vtime_ms``).
Handlers run atomically (no awaits inside), then charge their modelled
service time as a virtual sleep — which is what makes worker count and
queueing visible in the percentiles.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set

from repro.detection.evaluation import DetectionReport
from repro.detection.events import DeviceInstallEvent, InstallLog
from repro.detection.lockstep import DetectorConfig
from repro.detection.stream import InstallEventBus, OnlineLockstepDetector
from repro.net.chaos import INJECTED_STATUSES, ChaosScenario
from repro.net.errors import TransientNetworkError
from repro.obs import NULL_OBS, Observability
from repro.parallel.hashing import stable_hash
from repro.recovery.checkpoint import RecoveryContext
from repro.serve.admission import ADMIT, AdmissionConfig, AdmissionController
from repro.serve.cache import CACHE_POLICIES, WatermarkCache
from repro.serve.datasets import DatasetRegistry, build_serve_datasets
from repro.serve.vtime import VirtualClock
from repro.simulation.clock import SimulationClock

#: The service's query surface.
ENDPOINTS = ("ingest", "flagged", "datasets", "health", "metrics")

#: Read endpoints whose bodies are pure functions of their freshness
#: token (static for ``datasets``, detector emissions for ``flagged``,
#: the ingest watermark for ``metrics``).
CACHED_ENDPOINTS = ("flagged", "datasets", "metrics")

#: Detector thresholds tuned for service-sized ingest batches (the
#: paper-scale default of 12-install bursts needs campaign volumes a
#: single client fleet run does not reach).
SERVE_DETECTOR_CONFIG = DetectorConfig(min_burst_size=8)

_SHUTDOWN = object()


@dataclass(frozen=True)
class ServeRequest:
    """One request as the fleet submits it (in-process, no wire format)."""

    endpoint: str
    params: Mapping[str, object] = field(default_factory=dict)
    client_id: str = "anon"


@dataclass(frozen=True)
class ServeResponse:
    status: int
    body: Mapping[str, object]
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.status == 200


@dataclass(frozen=True)
class ServiceConfig:
    """Worker pool size and the deterministic service-time model."""

    #: Worker tasks draining the admission queue (the serve ``--shards``).
    workers: int = 2
    #: Fixed virtual milliseconds charged per handled request.
    base_service_ms: float = 1.0
    #: Additional virtual milliseconds per instrumented op the handler
    #: performed — expensive handlers take proportionally longer.
    per_op_ms: float = 0.25
    #: Virtual milliseconds for serving a cache hit.
    cache_hit_ms: float = 0.2
    #: Response-cache invalidation policy (see :mod:`repro.serve.cache`).
    cache_policy: str = "keyed"
    detector: DetectorConfig = field(
        default_factory=lambda: SERVE_DETECTOR_CONFIG)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("the service needs at least one worker")
        if self.cache_policy not in CACHE_POLICIES:
            known = ", ".join(CACHE_POLICIES)
            raise ValueError(
                f"unknown cache policy {self.cache_policy!r} "
                f"(known: {known})")


class FrontdoorChaos:
    """Request-level fault injection mirroring :class:`FaultPlan`.

    The fabric's plan keys decisions by host; the service is not behind
    the fabric, so this gate rolls the same SHA-256 dice per
    ``(seed, class, client, day, per-client seq)``.  Connection resets
    surface as :class:`TransientNetworkError` before admission (the
    request never reached the service); HTTP faults return an injected
    429/503.
    """

    def __init__(self, scenario: ChaosScenario,
                 obs: Optional[Observability] = None,
                 day: Optional[Callable[[], int]] = None) -> None:
        self.scenario = scenario
        self.obs = obs or NULL_OBS
        self._day = day or (lambda: 0)
        self._seq: Dict[str, int] = {}

    def _hit(self, rate: float, *parts: object) -> bool:
        if rate <= 0.0:
            return False
        return stable_hash(self.scenario.seed, *parts) / 2.0 ** 64 < rate

    def decide(self, request: ServeRequest) -> Optional[int]:
        """``None`` to pass, an injected status to fail the request; may
        raise :class:`TransientNetworkError` for a connect-level fault."""
        if not self.scenario.enabled:
            return None
        client = request.client_id
        seq = self._seq.get(client, 0)
        self._seq[client] = seq + 1
        day = self._day()
        if self._hit(self.scenario.connect_failure_rate,
                     "serve-connect", client, day, seq):
            self.obs.metrics.inc("serve.chaos_faults", kind="connect")
            raise TransientNetworkError(
                f"connection reset at the serve frontdoor ({client})")
        if self._hit(self.scenario.http_error_rate,
                     "serve-http", client, day, seq):
            which = stable_hash(self.scenario.seed, "serve-status",
                                client, day, seq) / 2.0 ** 64
            status = INJECTED_STATUSES[
                int(which * len(INJECTED_STATUSES)) % len(INJECTED_STATUSES)]
            self.obs.metrics.inc("serve.chaos_faults", kind="status")
            return status
        return None

    # -- checkpoint/restore ---------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Per-client fault-dice sequence numbers; without them a
        resumed run would re-roll the same injected faults."""
        return {"seq": dict(sorted(self._seq.items()))}

    def load_state(self, state: Dict[str, object]) -> None:
        self._seq = {str(client): int(seq)
                     for client, seq in state["seq"].items()}  # type: ignore[union-attr]


class DetectionService:
    """The long-lived service: state, frontdoor, workers, handlers."""

    def __init__(self, vclock: VirtualClock,
                 clock: Optional[SimulationClock] = None,
                 obs: Optional[Observability] = None,
                 config: Optional[ServiceConfig] = None,
                 admission: Optional[AdmissionConfig] = None,
                 datasets: Optional[DatasetRegistry] = None,
                 chaos: Optional[ChaosScenario] = None,
                 seed: int = 2019) -> None:
        self.vclock = vclock
        self.clock = clock or SimulationClock()
        self.obs = obs or NULL_OBS
        self.config = config or ServiceConfig()
        self.bus = InstallEventBus(self.obs, source="serve")
        self.log = InstallLog()
        self.online = OnlineLockstepDetector(self.config.detector, self.obs)
        self.bus.subscribe(self.log.add)
        self.bus.subscribe(self.online.ingest)
        self.incentivized: Set[str] = set()
        #: ``incentivized`` ∩ logged devices, kept current by ingest so
        #: ``/metrics`` never rebuilds it (see :meth:`evaluate_now`).
        self.positives: Set[str] = set()
        #: Count of ingested events: the cache key's freshness axis.
        self.watermark = 0
        self.admission = AdmissionController(
            admission or AdmissionConfig(), now=vclock.now, obs=self.obs)
        self.cache = WatermarkCache(obs=self.obs,
                                    policy=self.config.cache_policy)
        self.recovery: Optional[RecoveryContext] = None
        self.datasets = datasets or DatasetRegistry(
            build_serve_datasets(seed))
        self.chaos = chaos or ChaosScenario.off()
        self._frontdoor = FrontdoorChaos(self.chaos, obs=self.obs,
                                         day=lambda: self.clock.day)
        self._queue: "asyncio.Queue" = asyncio.Queue(
            maxsize=self.admission.config.max_queue)
        self._workers: List["asyncio.Task"] = []
        self._started_at = 0.0
        #: Set by :meth:`load_state`; keeps :meth:`start` from
        #: re-stamping ``_started_at`` (and re-counting
        #: ``serve.started``) on a resumed run.
        self._restored = False
        self._handlers: Dict[str, Callable[[Mapping[str, object]],
                                           Dict[str, object]]] = {
            "ingest": self._handle_ingest,
            "flagged": self._handle_flagged,
            "datasets": self._handle_datasets,
            "health": self._handle_health,
            "metrics": self._handle_metrics,
        }

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        if self._workers:
            raise RuntimeError("service already started")
        if not self._restored:
            self._started_at = self.vclock.now()
            self.obs.metrics.inc("serve.started")
        self._workers = [
            asyncio.ensure_future(self._worker())
            for _ in range(self.config.workers)]

    async def stop(self) -> None:
        for _ in self._workers:
            await self._queue.put(_SHUTDOWN)
        await asyncio.gather(*self._workers)
        self._workers = []

    def uptime_vt_seconds(self) -> float:
        return self.vclock.now() - self._started_at

    def attach_recovery(self, recovery: RecoveryContext) -> None:
        """Enable WAL-before-publish on ingest and the ``serve.request``
        crash point.  The context's WAL must exist: the serve tier
        cannot reconstruct its streaming detector without one."""
        if recovery.wal is None:
            raise ValueError(
                "serve recovery requires a write-ahead log "
                "(RecoveryContext.create(..., with_wal=True))")
        self.recovery = recovery

    # -- frontdoor -----------------------------------------------------------

    async def submit(self, request: ServeRequest) -> ServeResponse:
        """The client-facing entry point: chaos → admission → queue."""
        self._sync_day()
        if self.recovery is not None:
            # Mid-day kill point: fires before the request touches any
            # service state, so the WAL's partial day segment is the
            # only artifact a resume has to reconcile (by truncation).
            self.recovery.crash_point("serve.request", self.clock.day)
        injected = self._frontdoor.decide(request)
        if injected is not None:
            return ServeResponse(injected, {"error": "injected fault"})
        decision = self.admission.decide(request.endpoint,
                                         self._queue.qsize())
        if decision != ADMIT:
            return ServeResponse(429, {"error": "shed", "reason": decision})
        future = asyncio.get_running_loop().create_future()
        try:
            # Atomic with the admission check above (no await between
            # them), so an admitted request always has queue room.
            self._queue.put_nowait((request, future, self.vclock.now()))
        except asyncio.QueueFull:  # pragma: no cover - invariant breach
            self.admission.record_unshed_overflow(request.endpoint)
            return ServeResponse(429, {"error": "shed", "reason": "overflow"})
        self.obs.metrics.set_gauge("serve.queue_depth", self._queue.qsize())
        return await future

    def _sync_day(self) -> None:
        vt_day = self.vclock.day
        if vt_day > self.clock.day:
            self.clock.advance(vt_day - self.clock.day)

    # -- workers -------------------------------------------------------------

    async def _worker(self) -> None:
        while True:
            item = await self._queue.get()
            if item is _SHUTDOWN:
                return
            request, future, enqueued_at = item
            response = await self._process(request, enqueued_at)
            if not future.cancelled():
                future.set_result(response)

    async def _process(self, request: ServeRequest,
                       enqueued_at: float) -> ServeResponse:
        metrics = self.obs.metrics
        endpoint = request.endpoint
        ops_before = self.obs.ops.value
        cached = False
        if endpoint in CACHED_ENDPOINTS:
            token = self._freshness(endpoint)
            hit, body = self.cache.lookup(endpoint, request.params, token)
            if hit:
                cached = True
                response = ServeResponse(200, body, cached=True)
            else:
                response = self._handle(request)
                if response.ok:
                    self.cache.store(endpoint, request.params,
                                     token, response.body)
        else:
            response = self._handle(request)
        ops_delta = self.obs.ops.value - ops_before
        service_ms = (self.config.cache_hit_ms if cached
                      else self.config.base_service_ms
                      + self.config.per_op_ms * ops_delta)
        await self.vclock.sleep(service_ms / 1000.0)
        metrics.observe("serve.request_ops", ops_delta, endpoint=endpoint)
        metrics.observe("serve.request_vtime_ms",
                        round((self.vclock.now() - enqueued_at) * 1000.0, 3),
                        endpoint=endpoint)
        metrics.inc("serve.responses", endpoint=endpoint,
                    status=str(response.status))
        return response

    def _handle(self, request: ServeRequest) -> ServeResponse:
        handler = self._handlers.get(request.endpoint)
        if handler is None:
            self.obs.metrics.inc("serve.unknown_endpoint")
            return ServeResponse(404, {
                "error": f"unknown endpoint {request.endpoint!r} "
                         f"(known: {', '.join(ENDPOINTS)})"})
        try:
            body = handler(request.params)
        except (KeyError, ValueError, TypeError) as exc:
            self.obs.metrics.inc("serve.handler_errors",
                                 endpoint=request.endpoint)
            return ServeResponse(400, {"error": str(exc)})
        return ServeResponse(200, body)

    def _freshness(self, endpoint: str) -> int:
        """The freshness token a cached response depends on.

        ``datasets`` bodies are static, ``flagged`` bodies change only
        when the online detector emits (its ``version``), ``metrics``
        bodies track the ingest watermark.  Under the ``wholesale``
        policy every endpoint shares the watermark — the historical
        clear-everything-per-ingest behaviour the bench compares
        against.
        """
        if self.cache.policy == "wholesale":
            return self.watermark
        if endpoint == "datasets":
            return 0
        if endpoint == "flagged":
            return self.online.version
        return self.watermark

    def _charge(self, units: int, per: int = 32) -> None:
        """Advance the op counter in proportion to a response's payload —
        the deterministic stand-in for serialization cost."""
        self.obs.advance(1 + units // per)

    # -- handlers (atomic: no awaits) ----------------------------------------

    def _stamp_batch(self, events: Sequence[DeviceInstallEvent]
                     ) -> List[DeviceInstallEvent]:
        """Re-stamp ``events`` at the current virtual instant.  Handlers
        are atomic, so the instant is read once for the whole batch."""
        day = self.vclock.day
        hour = self.vclock.hour_of_day
        return [DeviceInstallEvent(
                    device_id=event.device_id, package=event.package,
                    day=day, hour=hour, ip_slash24=event.ip_slash24,
                    ssid_hash=event.ssid_hash, opened=event.opened,
                    engagement_seconds=event.engagement_seconds)
                for event in events]

    def _handle_ingest(self, params: Mapping[str, object]) -> Dict[str, object]:
        events: Sequence[DeviceInstallEvent] = params.get("events", ())  # type: ignore[assignment]
        stamped = self._stamp_batch(events)
        self._sync_day()
        incentivized = set(params.get("incentivized", ()))  # type: ignore[arg-type]
        if self.recovery is not None:
            # Write-ahead: the batch is durable before any detector
            # state changes, so a crash between the two replays it.
            for event in stamped:
                self.recovery.wal.append({
                    "event": event.to_dict(),
                    "incentivized": event.device_id in incentivized,
                })
        self.bus.publish_all(stamped)
        self.watermark += len(stamped)
        self.incentivized.update(incentivized)
        # Both sets only grow, so a new positive is either a device this
        # batch logged or an id this batch declared incentivized.
        known = self.incentivized
        self.positives.update(event.device_id for event in stamped
                              if event.device_id in known)
        self.positives.update(filter(self.log.has_device, incentivized))
        return {"ingested": len(stamped), "watermark": self.watermark}

    def _handle_flagged(self, params: Mapping[str, object]) -> Dict[str, object]:
        min_clusters = int(params.get("min_clusters", 1))
        flagged = sorted(self.online.flagged_devices)
        self._charge(len(flagged))
        return {
            "watermark": self.watermark,
            "devices": len(flagged),
            "clusters": len(self.online.clusters),
            "flagged_devices": flagged,
            "packages": self.online.flagged_packages(
                min_clusters=min_clusters),
        }

    def _handle_datasets(self, params: Mapping[str, object]) -> Dict[str, object]:
        body = self.datasets.execute(params)
        self._charge(len(body.get("records", body.get("datasets", ()))))  # type: ignore[arg-type]
        return body

    def _handle_health(self, params: Mapping[str, object]) -> Dict[str, object]:
        return {
            "status": "ok",
            "day": self.clock.day,
            "virtual_seconds": round(self.vclock.now(), 3),
            "uptime_vt_seconds": round(self.uptime_vt_seconds(), 3),
            "watermark": self.watermark,
            "events": len(self.log),
            "queue_depth": self._queue.qsize(),
        }

    def _handle_metrics(self, params: Mapping[str, object]) -> Dict[str, object]:
        report = self.evaluate_now()
        metrics = self.obs.metrics
        metrics.set_gauge("serve.precision", round(report.precision, 6))
        metrics.set_gauge("serve.recall", round(report.recall, 6))
        metrics.set_gauge("serve.uptime_vt_seconds",
                          round(self.uptime_vt_seconds(), 3))
        return {
            "watermark": self.watermark,
            "events": len(self.log),
            "flagged": report.true_positives + report.false_positives,
            "precision": round(report.precision, 4),
            "recall": round(report.recall, 4),
            "false_positive_rate": round(report.false_positive_rate, 4),
            "offered": self.admission.offered,
            "admitted": self.admission.admitted,
            "shed": self.admission.shed,
        }

    # -- end-of-run queries --------------------------------------------------

    def evaluate_now(self) -> DetectionReport:
        """Score the flagged-so-far set against ground truth observed so
        far.  Unlike ``LiveDetection.evaluate`` this never finalizes the
        online detector, so it is safe to serve mid-run.

        Equal to ``evaluate_detector(flagged, incentivized & universe,
        universe)`` over the logged devices, computed from counts in
        O(|flagged|): see "Scoring ``/metrics``" in the module docstring.
        """
        flagged = self.online.flagged_devices
        if not self.log.has_devices(flagged):
            raise ValueError("flagged set contains unknown devices")
        positives = self.positives
        tp = len(flagged & positives)
        fp = len(flagged) - tp
        fn = len(positives) - tp
        tn = self.log.device_count() - tp - fp - fn
        return DetectionReport(true_positives=tp, false_positives=fp,
                               false_negatives=fn, true_negatives=tn)

    def finalize(self) -> Set[str]:
        """Flush pending windows; only meaningful once ingest stopped."""
        return self.online.finalize()

    # -- checkpoint/restore --------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Scalar service state for a day-boundary checkpoint.

        Taken at a quiescent barrier (queue drained, workers idle), so
        there is no in-flight request state to capture.  The streaming
        detection state (install log, online detector) is rebuilt from
        the WAL on resume rather than snapshotted here.
        """
        return {
            "watermark": self.watermark,
            "incentivized": sorted(self.incentivized),
            "started_at": self._started_at,
            "clock_day": self.clock.day,
            "admission": self.admission.state_dict(),
            "cache": self.cache.state_dict(),
            "frontdoor": self._frontdoor.state_dict(),
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore scalar state; call *after* WAL replay (replay mutates
        the watermark-adjacent counters via the bus) and *before* the
        observability snapshot restore that makes the counters exact."""
        self.watermark = int(state["watermark"])  # type: ignore[arg-type]
        self.incentivized = set(state["incentivized"])  # type: ignore[arg-type]
        self.positives = set(filter(self.log.has_device, self.incentivized))
        self._started_at = float(state["started_at"])  # type: ignore[arg-type]
        self._restored = True
        day = int(state["clock_day"])  # type: ignore[arg-type]
        if day > self.clock.day:
            self.clock.advance(day - self.clock.day)
        self.admission.load_state(state["admission"])  # type: ignore[arg-type]
        self.cache.load_state(state["cache"])          # type: ignore[arg-type]
        self._frontdoor.load_state(state["frontdoor"])  # type: ignore[arg-type]
