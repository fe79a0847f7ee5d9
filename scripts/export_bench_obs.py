"""Export the perf benches: ``BENCH_wild.json`` and ``BENCH_honey.json``.

Wild (Section 4): runs the pipeline twice at the bench scale — once as
shipped (request cache on) and once with the crawler's (package, day)
cache disabled, the pre-cache baseline — and reports what the cache
bought: total fabric requests, the reduction fraction, cache hit rate,
and the per-stage op-cost histogram quantiles (``wild.milk_ops`` /
``wild.crawl_ops`` / ``wild.analyse_ops``).

Honey (Section 3): runs the honey-app experiment twice — once with TLS
session resumption on (shipped) and once with it off, the
full-handshake baseline — and reports what resumption bought: fabric
round trips, the reduction fraction, handshake vs resumption counts,
and the ``honey.campaign_ops`` / ``honey.analysis_ops`` quantiles.

Four outputs:

* ``BENCH_wild.json`` / ``BENCH_honey.json`` (``--out`` /
  ``--honey-out``): the full reports, including wall times —
  informative, not deterministic, uploaded as CI artifacts.
* ``benchmarks/snapshots/wild_obs.json`` /
  ``benchmarks/snapshots/honey_obs.json`` (``--snapshot-out`` /
  ``--honey-snapshot-out``): the deterministic subsets (no wall
  times), committed to the repo.  ``--check`` fails if a fresh run
  drifts from either, which gates the request counts against silent
  regressions.

Run from the repo root::

    PYTHONPATH=src python scripts/export_bench_obs.py

Scale/seed come from the same ``REPRO_BENCH_*`` variables the
benchmarks use, and the committed snapshots record them in their
``run`` block.  ``--check`` takes every parameter whose variable is
unset from that block, so a default-environment check reruns exactly
what was committed; a variable set to a different value is reported
as a parameter mismatch (exit 1) instead of snapshot drift.
"""

from __future__ import annotations

import argparse
import os
import resource
import time
import timeit
from pathlib import Path

from obs_export import (
    check_run,
    deterministic_subset,
    emit_report,
    env_run,
    render,
    stage_quantiles as _stage_quantiles,
)
from repro import (
    WildMeasurement,
    WildMeasurementConfig,
    WildScenario,
    WildScenarioConfig,
    World,
)
from repro.core import HoneyAppExperiment

#: ``(run key, variable, type, default)`` per bench parameter.
WILD_PARAMS = (
    ("seed", "REPRO_BENCH_SEED", int, 2019),
    ("scale", "REPRO_BENCH_SCALE", float, 0.35),
    ("days", "REPRO_BENCH_DAYS", int, 110),
    ("shards", "REPRO_BENCH_SHARDS", int, 1),
    ("backend", "REPRO_BENCH_BACKEND", str, "thread"),
)
HONEY_PARAMS = (
    ("seed", "REPRO_BENCH_SEED", int, 2019),
    ("installs_per_iip", "REPRO_BENCH_HONEY_INSTALLS", int, 500),
    ("shards", "REPRO_BENCH_HONEY_SHARDS", int, 1),
)

#: The runs as the environment sets them (a plain export's parameters).
WILD_RUN = env_run(WILD_PARAMS, os.environ)
HONEY_RUN = env_run(HONEY_PARAMS, os.environ)
DAYS = WILD_RUN["days"]
SHARDS = WILD_RUN["shards"]
BACKEND = WILD_RUN["backend"]

STAGE_HISTOGRAMS = ("wild.milk_ops", "wild.crawl_ops", "wild.analyse_ops")
HONEY_STAGE_HISTOGRAMS = ("honey.campaign_ops", "honey.analysis_ops")

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_wild.json"
DEFAULT_SNAPSHOT = REPO_ROOT / "benchmarks/snapshots/wild_obs.json"
DEFAULT_HONEY_OUT = REPO_ROOT / "BENCH_honey.json"
DEFAULT_HONEY_SNAPSHOT = REPO_ROOT / "benchmarks/snapshots/honey_obs.json"


def run_wild(crawl_cache: bool, run: dict = WILD_RUN) -> tuple:
    world = World(seed=run["seed"])
    scenario = WildScenario(world, WildScenarioConfig(
        scale=run["scale"], measurement_days=run["days"]))
    scenario.build()
    measurement = WildMeasurement(world, scenario, WildMeasurementConfig(
        measurement_days=run["days"], shards=run["shards"],
        backend=run["backend"], crawl_cache=crawl_cache))
    started = time.monotonic()
    results = measurement.run()
    elapsed = time.monotonic() - started
    return world, results, elapsed


def run_honey(tls_resumption: bool, run: dict = HONEY_RUN) -> tuple:
    world = World(seed=run["seed"])
    experiment = HoneyAppExperiment(world,
                                    installs_per_iip=run["installs_per_iip"],
                                    shards=run["shards"],
                                    tls_resumption=tls_resumption)
    started = time.monotonic()
    results = experiment.run()
    elapsed = time.monotonic() - started
    return world, results, elapsed


def stage_quantiles(world, names=STAGE_HISTOGRAMS) -> dict:
    return _stage_quantiles(world, names)


def peak_rss_mb() -> dict:
    """Peak resident set size so far, in MB.  ``children`` covers
    reaped process-backend workers (zero on in-process backends)."""
    kb = 1024.0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / kb
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / kb
    return {
        "self": round(own, 1),
        "children": round(children, 1),
        "total": round(own + children, 1),
    }


def scheduler_microbench() -> dict:
    """Time the scheduler's routing hash: ``shard_of`` is memoised
    per-run, so steady-state task routing is a dict hit, not a sha256."""
    from repro.parallel import ShardScheduler

    scheduler = ShardScheduler(4)
    keys = [f"com.example.app{i}" for i in range(64)]
    calls = 100_000
    elapsed = timeit.timeit(
        lambda: [scheduler.shard_of(key) for key in keys], number=calls // 64)
    return {
        "memoised_calls_per_sec": int(calls / elapsed),
        "note": "shard_of memoises the sha256-derived bucket per key for "
                "the scheduler's lifetime; routing the same package on "
                "every crawl day costs a dict lookup after day one",
    }


def build_report(run: dict = WILD_RUN) -> dict:
    """The full bench report; ``deterministic`` holds the committed
    subset (everything except wall-clock timings)."""
    world, results, elapsed = run_wild(True, run)
    base_world, base_results, base_elapsed = run_wild(False, run)
    total = world.obs.metrics.counter_total
    base_total = base_world.obs.metrics.counter_total

    requests = int(total("net.fabric.connections"))
    base_requests = int(base_total("net.fabric.connections"))
    hits = int(total("crawler.cache_hits"))
    misses = int(total("crawler.cache_misses"))
    lookups = hits + misses
    deterministic = {
        "run": dict(run),
        "fabric": {
            "requests": requests,
            "requests_uncached": base_requests,
            "reduction": round(1.0 - requests / base_requests, 4),
        },
        "cache": {
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
        },
        "crawl": {
            "requests": results.crawl_requests,
            "requests_uncached": base_results.crawl_requests,
        },
        "dataset": {
            "offers": results.dataset.offer_count(),
            "advertised_packages": len(results.dataset.unique_packages()),
            "milk_runs": results.milk_runs,
        },
        "op_cost": stage_quantiles(world),
    }
    report = dict(deterministic)
    report["wall_seconds"] = {
        "measured": round(elapsed, 2),
        "baseline_uncached": round(base_elapsed, 2),
    }
    report["devices_per_sec"] = {
        "measured": round(results.milk_runs / elapsed, 2),
        "baseline_uncached": round(base_results.milk_runs / base_elapsed, 2),
    }
    report["peak_rss_mb"] = peak_rss_mb()
    report["scheduler"] = scheduler_microbench()
    return report


def build_honey_report(run: dict = HONEY_RUN) -> dict:
    """The honey bench report: resumption on (shipped) vs off."""
    world, results, elapsed = run_honey(True, run)
    base_world, base_results, base_elapsed = run_honey(False, run)
    total = world.obs.metrics.counter_total
    base_total = base_world.obs.metrics.counter_total

    # Every fabric round trip is one client frame plus one response.
    round_trips = int(total("net.fabric.frames")) // 2
    base_round_trips = int(base_total("net.fabric.frames")) // 2
    handshakes = int(total("net.client.tls_handshakes"))
    resumptions = int(total("net.client.tls_resumptions"))
    deterministic = {
        "run": dict(run),
        "fabric": {
            "round_trips": round_trips,
            "round_trips_no_resumption": base_round_trips,
            "reduction": round(1.0 - round_trips / base_round_trips, 4),
        },
        "tls": {
            "handshakes": handshakes,
            "resumptions": resumptions,
            "resume_failures": int(total("net.client.tls_resume_failures")),
            "handshakes_no_resumption":
                int(base_total("net.client.tls_handshakes")),
        },
        "experiment": {
            "total_installs": results.total_installs(),
            "displayed_installs_after": results.displayed_installs_after,
            "enforcement_actions": results.enforcement_actions,
            "total_installs_no_resumption": base_results.total_installs(),
        },
        "op_cost": stage_quantiles(world, HONEY_STAGE_HISTOGRAMS),
    }
    report = dict(deterministic)
    report["wall_seconds"] = {
        "measured": round(elapsed, 2),
        "baseline_no_resumption": round(base_elapsed, 2),
    }
    report["devices_per_sec"] = {
        "measured": round(results.total_installs() / elapsed, 2),
        "baseline_no_resumption":
            round(base_results.total_installs() / base_elapsed, 2),
    }
    report["peak_rss_mb"] = peak_rss_mb()
    return report


def _export(label: str, build, params, out: Path, snapshot_out: Path,
            check: bool, environ=os.environ) -> int:
    """Build one bench report and pin (or, with ``check``, verify) its
    snapshot; a check whose variables contradict the snapshot's ``run``
    block fails before running anything."""
    if check:
        run, mismatches = check_run(params, snapshot_out, environ)
        if mismatches:
            for message in mismatches:
                print(f"{label} perf parameter mismatch: {message}")
            return 1
    else:
        run = env_run(params, environ)
    return emit_report(f"{label} perf", build(run), out, snapshot_out,
                       check, "export_bench_obs.py")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="full wild bench report (with wall times)")
    parser.add_argument("--snapshot-out", type=Path, default=DEFAULT_SNAPSHOT,
                        help="deterministic wild subset, committed")
    parser.add_argument("--honey-out", type=Path, default=DEFAULT_HONEY_OUT,
                        help="full honey bench report (with wall times)")
    parser.add_argument("--honey-snapshot-out", type=Path,
                        default=DEFAULT_HONEY_SNAPSHOT,
                        help="deterministic honey subset, committed")
    parser.add_argument("--check", action="store_true",
                        help="fail (exit 1) if a committed snapshot "
                             "does not match a fresh run")
    parser.add_argument("--only", choices=("wild", "honey"),
                        help="export just one bench")
    args = parser.parse_args()
    status = 0
    if args.only in (None, "wild"):
        status |= _export("wild", build_report, WILD_PARAMS, args.out,
                          args.snapshot_out, args.check)
    if args.only in (None, "honey"):
        status |= _export("honey", build_honey_report, HONEY_PARAMS,
                          args.honey_out, args.honey_snapshot_out, args.check)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
