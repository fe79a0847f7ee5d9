"""Tests for the benchmark's own code, at tiny scale.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run as bench  # noqa: E402
import workloads  # noqa: E402
from layers import LAYERS, LayerTracer  # noqa: E402

TINY = {
    "wild": {"scale": 0.05, "days": 3},
    "wild-durable": {"scale": 0.05, "days": 3, "batch_devices": 64},
    "honey": {"installs_per_iip": 40},
    "serve": {"clients": 1},
}
SEED = 7


def run_tiny(name, tmp_path, tracer=None):
    workdir = tmp_path / f"{name}-{len(list(tmp_path.iterdir()))}"
    workdir.mkdir()
    run = workloads.prepare(name, SEED, str(workdir), TINY[name])
    if tracer is not None:
        tracer.reset()
    outcome = run()
    return outcome, outcome.digest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_digest_repeats(name, tmp_path):
    first, digest = run_tiny(name, tmp_path)
    second, again = run_tiny(name, tmp_path)
    assert digest == again
    assert first.items > 0 and first.items == second.items
    assert first.failed == 0 and first.attempted > 0
    assert all(first.invariants.values())
    assert first.counts == second.counts


def test_durable_wild_reproduces_wild(tmp_path):
    _, plain = run_tiny("wild", tmp_path)
    durable, digest = run_tiny("wild-durable", tmp_path)
    assert digest == plain
    assert durable.counts["recovery.bytes"] > 0
    assert durable.counts["analysis.spill_bytes"] > 0


def _entry_points():
    import repro.net.crypto as crypto
    import repro.net.proxy as proxy
    import repro.net.tls as tls
    from repro.net.fabric import Connection
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.vtime import VirtualTimeEventLoop
    import asyncio.events
    return {
        "crypto.hmac_sha256": crypto.hmac_sha256,
        "tls.issue_server_identity": tls.issue_server_identity,
        "proxy.issue_server_identity": proxy.issue_server_identity,
        "Connection.roundtrip": Connection.__dict__["roundtrip"],
        "MetricsRegistry.inc": MetricsRegistry.__dict__["inc"],
        "Handle._run": asyncio.events.Handle.__dict__["_run"],
        "loop._run_once": VirtualTimeEventLoop.__dict__["_run_once"],
    }


@pytest.mark.parametrize("name", ["honey", "serve"])
def test_tracer_restores_originals_and_leaves_output_identical(
        name, tmp_path):
    before = _entry_points()
    _, plain = run_tiny(name, tmp_path)
    tracer = LayerTracer().install()
    try:
        during = _entry_points()
        assert all(during[key] is not before[key] for key in before)
        _, traced = run_tiny(name, tmp_path, tracer)
    finally:
        tracer.restore()
    assert _entry_points() == before
    assert traced == plain
    assert sum(tracer.calls.values()) > 0


def traced_counts(name, tmp_path):
    tracer = LayerTracer().install()
    try:
        outcome, _ = run_tiny(name, tmp_path, tracer)
        wall = tracer.elapsed()
    finally:
        tracer.restore()
    return tracer, outcome, wall


@pytest.mark.parametrize("name", ["wild", "honey"])
def test_layer_counts_repeat_exactly(name, tmp_path):
    first, _, _ = traced_counts(name, tmp_path)
    second, _, _ = traced_counts(name, tmp_path)
    assert first.counts() == second.counts()
    assert dict(first.calls) == dict(second.calls)
    assert first.counts()["net.fabric.roundtrips"] > 0


def test_self_times_and_other_sum_to_traced_wall(tmp_path):
    tracer, _, wall = traced_counts("serve", tmp_path)
    attributed = sum(tracer.self_s.values())
    other = wall - attributed
    assert set(tracer.self_s) == set(LAYERS)
    assert all(value >= 0.0 for value in tracer.self_s.values())
    assert 0.0 <= other <= wall
    assert attributed + other == pytest.approx(wall)
    assert tracer.self_s["serve"] > 0 and tracer.self_s["serve.loop"] > 0


def test_self_time_subtracts_child_spans():
    ticks = iter(range(100))
    tracer = LayerTracer(clock=lambda: float(next(ticks)))

    inner = tracer._wrapper("net.tls", "t:inner", lambda: None)

    def body():
        inner()
        inner()

    outer = tracer._wrapper("net.client", "t:outer", body)
    tracer.reset()   # tick 0
    outer()          # outer 1..6, inner 2..3 and 4..5
    assert tracer.self_s["net.tls"] == 2.0
    assert tracer.self_s["net.client"] == 3.0
    assert tracer.entry_calls["t:inner"] == 2
    assert tracer.elapsed() == 7.0


def test_child_process_reports_and_matches_in_process_digest(tmp_path):
    _, digest = run_tiny("honey", tmp_path)
    result = bench.run_child("honey", SEED, trace=True,
                             params=TINY["honey"])
    assert result["digest"] == digest
    assert result["wall_s"] > 0 and result["setup_s"] > 0
    assert set(result["trace"]["self_s"]) == set(LAYERS)
    assert not os.path.exists(bench.WORK_ROOT) or not os.listdir(
        bench.WORK_ROOT)


def test_benchmark_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "honey",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        assert "\"correct\"" not in line


def test_per_layer_report_names_every_metric():
    units = bench.per_layer_units()
    for layer in LAYERS:
        assert f"{layer}.self_s" in units
    for name in ("net.tls.resume_ratio", "monitor.cache_hit_ratio",
                 "serve.cache.hit_ratio", "serve.admission.shed_ratio",
                 "other.self_s", "trace.coverage", "trace.overhead"):
        assert name in units


def test_benchmark_json_matches_the_report():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        bench.per_layer_units()
