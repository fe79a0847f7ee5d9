"""The benchmark's workloads, each driven through the public library API.

A workload is split in two phases so the benchmark can time them apart:

* ``prepare(seed, workdir)`` builds everything the timed run needs (world,
  scenario build, measurement / experiment / service construction) and
  returns a zero-argument callable;
* that callable is the timed run.  It returns an :class:`Outcome`: the
  deterministic output (observability snapshot plus report text) and the
  operation counts the end-to-end metrics are made of.

Every workload uses the pipelines' default shard count (1) and backend,
on a clean network, in one process.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional


@dataclass(frozen=True)
class Workload:
    name: str
    #: The parameters that size the run; recorded in every manifest.
    params: Mapping[str, object]
    #: What one item of ``items_per_s`` is.
    item: str
    #: Workload whose reference digest this one must reproduce.
    digest_of: str
    why: str


#: Sizes: each run takes 2-6 s on a 2-core host.  The benchmark compares
#: runs made with different seeds, so a size must also keep the work
#: itself steady across seeds: wild at scale 0.4 x 10 days varies 3%
#: (interquartile range of wrapped calls over seeds 0-7) where 0.2 x 20
#: days, the same work on average, varies 8%.  Serve's admission (qps 2,
#: burst 48) sheds nothing, so no operation fails.
WORKLOADS: Dict[str, Workload] = {
    "wild": Workload(
        "wild", {"scale": 0.4, "days": 10},
        item="HTTP requests issued by the milkers and the crawler",
        digest_of="wild",
        why="Section-4 offer-wall milking and Play crawling over TLS, "
            "materialised: the HTTP/TLS client path"),
    "wild-durable": Workload(
        "wild-durable",
        {"scale": 0.4, "days": 10, "batch_devices": 4096},
        item="HTTP requests issued by the milkers and the crawler",
        digest_of="wild",
        why="the wild pipeline streaming and checkpointing every day: "
            "the state-writing path, with wild as its no-change control"),
    "honey": Workload(
        "honey", {"installs_per_iip": 2000},
        item="installs delivered",
        digest_of="honey",
        why="Section-3 honey-app purchase: small TLS-resumed messages "
            "through the users, iip and honeyapp layers"),
    "serve": Workload(
        "serve",
        {"profile": "mixed", "days": 1, "clients": 4, "qps": 2.0, "burst": 48},
        item="requests offered",
        digest_of="serve",
        why="store-side lockstep detection service, ingest beside cached "
            "reads on a virtual-time loop, admission sized so none is shed: "
            "no TLS or HTTP, the network-stack control"),
}


@dataclass
class Outcome:
    """What one timed run produced."""

    #: The run's observability context; its snapshot is serialised
    #: after the timed interval.
    obs: object
    #: The run's report, as text.
    report: str
    #: Units of work for ``items_per_s``.
    items: int
    #: Operations attempted and failed, for ``error_rate``.
    attempted: int
    failed: int
    #: Invariants the run's own report must hold; a false one fails it.
    invariants: Dict[str, bool] = field(default_factory=dict)
    #: Exact per-layer counts read from the program after the run.
    counts: Dict[str, float] = field(default_factory=dict)

    def digest(self) -> str:
        text = _canonical(self.obs.snapshot()) + "\n" + self.report
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(document: object) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _dir_bytes(root: Optional[str]) -> int:
    if root is None:
        return 0
    return sum(os.path.getsize(os.path.join(base, name))
               for base, _dirs, files in os.walk(root) for name in files)


def _request_counts(metrics) -> Dict[str, int]:
    return {
        "requests": int(metrics.counter_total("net.client.requests")),
        "gave_up": int(metrics.counter_total("net.client.gave_up")),
        "handshakes": int(metrics.counter_total("net.client.tls_handshakes")),
        "resumptions": int(
            metrics.counter_total("net.client.tls_resumptions")),
    }


def _wild_report(results) -> str:
    """The tables ``repro wild`` prints, built from the results."""
    from repro.analysis.appstore_impact import (
        enforcement_decreases,
        install_increase_comparison,
        top_chart_comparison,
    )
    from repro.analysis.characterize import iip_summary_table, offer_type_table
    from repro.core import reports
    from repro.iip.registry import VETTED_IIPS

    vetted = results.vetted_packages()
    unvetted = results.unvetted_packages()
    sets = (results.archive, results.dataset, vetted, unvetted,
            results.baseline_packages, results.baseline_window)
    return "\n\n".join([
        f"{results.dataset.offer_count()} offers from "
        f"{len(results.dataset.unique_packages())} apps "
        f"({results.milk_runs} milk runs, "
        f"{results.crawl_requests} crawl requests)",
        reports.render_table3(offer_type_table(results.dataset)),
        reports.render_table4(iip_summary_table(
            results.dataset, results.archive, VETTED_IIPS)),
        reports.render_table5(install_increase_comparison(*sets)),
        reports.render_table6(top_chart_comparison(*sets)),
        reports.render_enforcement(enforcement_decreases(results.archive, {
            "Baseline": results.baseline_packages,
            "Vetted": vetted,
            "Unvetted": unvetted,
        })),
    ])


def _prepare_wild(params: Mapping[str, object], seed: int,
                  workdir: Optional[str]) -> Callable[[], Outcome]:
    from repro import (
        WildMeasurement,
        WildMeasurementConfig,
        WildScenario,
        WildScenarioConfig,
        World,
    )

    days = int(params["days"])
    batch = int(params.get("batch_devices", 0))
    durable = batch > 0
    world = World(seed=seed)
    scenario = WildScenario(world, WildScenarioConfig(
        scale=float(params["scale"]), measurement_days=days))
    scenario.build()
    spill_dir = checkpoint_dir = None
    recovery = None
    if durable:
        if workdir is None:
            raise ValueError("wild-durable needs a work directory")
        from repro.recovery import RecoveryContext
        spill_dir = os.path.join(workdir, "spill")
        checkpoint_dir = os.path.join(workdir, "checkpoints")
        os.makedirs(spill_dir)
        recovery = RecoveryContext.create(checkpoint_dir, "wild")
    measurement = WildMeasurement(world, scenario, WildMeasurementConfig(
        measurement_days=days, batch_devices=batch, spill_dir=spill_dir))

    def run() -> Outcome:
        results = measurement.run(recovery=recovery)
        report = _wild_report(results)
        metrics = world.obs.metrics
        counts = _request_counts(metrics)
        hits = int(metrics.counter_total("crawler.cache_hits"))
        misses = int(metrics.counter_total("crawler.cache_misses"))
        return Outcome(
            obs=world.obs,
            report=report,
            items=counts["requests"],
            attempted=counts["requests"],
            failed=counts["gave_up"],
            counts={
                "net.tls.handshakes": counts["handshakes"],
                "net.tls.resumptions": counts["resumptions"],
                "net.proxy.exchanges": int(
                    metrics.counter_total("net.proxy.intercepted")),
                "monitor.cache_hits": hits,
                "monitor.cache_lookups": hits + misses,
                "analysis.spill_bytes": _dir_bytes(spill_dir),
                "recovery.bytes": _dir_bytes(checkpoint_dir),
            })

    return run


def _prepare_honey(params: Mapping[str, object], seed: int,
                   workdir: Optional[str]) -> Callable[[], Outcome]:
    from repro import HoneyAppExperiment, World

    world = World(seed=seed)
    experiment = HoneyAppExperiment(
        world, installs_per_iip=int(params["installs_per_iip"]))

    def run() -> Outcome:
        from repro.core import reports

        results = experiment.run()
        report = reports.render_honey_report(results)
        counts = _request_counts(world.obs.metrics)
        return Outcome(
            obs=world.obs,
            report=report,
            items=results.total_installs(),
            attempted=counts["requests"],
            failed=counts["gave_up"],
            counts={
                "net.tls.handshakes": counts["handshakes"],
                "net.tls.resumptions": counts["resumptions"],
            })

    return run


def _prepare_serve(params: Mapping[str, object], seed: int,
                   workdir: Optional[str]) -> Callable[[], Outcome]:
    from repro.serve import ServeRunConfig, run_serve

    config = ServeRunConfig(seed=seed, days=int(params["days"]),
                            clients=int(params["clients"]),
                            qps=float(params["qps"]),
                            burst=int(params["burst"]),
                            profile=str(params["profile"]))

    def run() -> Outcome:
        result = run_serve(config)
        report = result.report
        admission = report["admission"]
        cache = report["cache"]
        offered = int(admission["offered"])
        ok = int(result.obs.metrics.counter_total_by_label(
            "serve.responses", "status", "200"))
        lookups = int(cache["hits"]) + int(cache["misses"])
        return Outcome(
            obs=result.obs,
            report=_canonical(report) + "\n" + result.flagged_dump(),
            items=offered,
            attempted=offered,
            failed=offered - ok,
            invariants={
                "online_equals_batch":
                    bool(report["detection"]["online_equals_batch"]),
                "accounting_consistent":
                    bool(admission["accounting_consistent"]),
            },
            counts={
                "detection.events": int(report["detection"]["events"]),
                "serve.cache_hits": int(cache["hits"]),
                "serve.cache_lookups": lookups,
                "serve.shed": int(admission["shed"]),
                "serve.offered": offered,
            })

    return run


_PREPARE = {
    "wild": _prepare_wild,
    "wild-durable": _prepare_wild,
    "honey": _prepare_honey,
    "serve": _prepare_serve,
}


def prepare(name: str, seed: int, workdir: Optional[str] = None,
            params: Optional[Mapping[str, object]] = None
            ) -> Callable[[], Outcome]:
    """Build workload ``name`` for ``seed``; returns its timed run.

    ``params`` overrides the workload's sizes (the tests run tiny ones).
    """
    workload = WORKLOADS[name]
    merged = dict(workload.params)
    merged.update(params or {})
    return _PREPARE[name](merged, seed, workdir)
