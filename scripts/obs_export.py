"""Shared plumbing for the ``export_*_obs.py`` snapshot exporters.

Every exporter pins a deterministic JSON snapshot under
``benchmarks/snapshots/`` and (for the perf benches) a full report with
wall times next to the repo root.  The rendering, the committed-vs-fresh
``--check`` comparison, and the per-stage quantile tables used to be
copy-pasted per script; they live here now so a formatting or drift-
message change lands everywhere at once.

Not importable as ``repro.*`` on purpose: the exporters run from the
repo root as plain scripts (``python scripts/export_x_obs.py``) and the
benchmarks add ``scripts/`` to ``sys.path`` — both paths resolve this
module the same way.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Legacy per-stage quantile keys mapped onto
#: :meth:`repro.obs.metrics.HistogramState.summary` fields.  The names
#: are load-bearing: the committed wild/honey snapshots and the bench
#: gates read them, so the mapping must not change without regenerating
#: every snapshot.
STAGE_KEYS = (
    ("count", "count"),
    ("mean_ops", "mean"),
    ("p50_ops", "p50"),
    ("p90_ops", "p90"),
    ("p99_ops", "p99"),
    ("max_ops", "max"),
)


def render(snapshot: dict) -> str:
    """The one true snapshot encoding: sorted keys, indent 1, final
    newline.  Byte-identical output is the whole point — CI diffs the
    rendered text, not parsed JSON."""
    return json.dumps(snapshot, indent=1, sort_keys=True) + "\n"


#: Report sections that depend on the host — wall clock, RSS, derived
#: throughput, microbench rates — and so never belong in a committed
#: snapshot.
HOST_DEPENDENT_SECTIONS = frozenset(
    {"wall_seconds", "devices_per_sec", "peak_rss_mb", "scheduler"})


def deterministic_subset(report: dict) -> dict:
    """Strip the host-dependent sections; everything left must be a
    pure function of the run's seeds and parameters."""
    return {key: value for key, value in report.items()
            if key not in HOST_DEPENDENT_SECTIONS}


def stage_quantiles(world, names) -> dict:
    """Per-stage op-cost table keyed by histogram name.

    Renames :meth:`HistogramState.summary` fields to the legacy
    ``*_ops`` keys the committed snapshots pin (see ``STAGE_KEYS``).
    A stage that never recorded reports only ``{"count": 0}``.
    """
    table = {}
    for name in names:
        state = world.obs.metrics.histogram(name)
        if state is None:
            table[name] = {"count": 0}
            continue
        summary = state.summary()
        table[name] = {legacy: summary[field]
                       for legacy, field in STAGE_KEYS}
    return table


def env_run(params, environ) -> dict:
    """The run parameters as the environment sets them.

    ``params`` lists ``(key, variable, cast, default)``: the snapshot's
    ``run`` key, the ``REPRO_BENCH_*`` variable that sets it, the type
    to parse it with, and the value used when the variable is unset.
    """
    return {key: cast(environ[variable]) if variable in environ else default
            for key, variable, cast, default in params}


def check_run(params, snapshot: Path, environ) -> tuple:
    """The run parameters a ``--check`` against ``snapshot`` uses.

    An unset variable takes the committed snapshot's ``run`` value, so a
    default-environment check compares like with like.  A variable set
    to a value the snapshot did not run with is a parameter mismatch,
    not drift: returns ``(run, mismatches)`` with one message per such
    variable.
    """
    committed = {}
    if snapshot.exists():
        committed = json.loads(snapshot.read_text()).get("run", {})
    run = env_run(params, environ)
    mismatches = []
    for key, variable, _cast, _default in params:
        if key not in committed:
            continue
        if variable not in environ:
            run[key] = committed[key]
        elif run[key] != committed[key]:
            mismatches.append(
                f"{variable}={environ[variable]} but {snapshot} was "
                f"recorded with {key}={committed[key]!r}")
    return run, mismatches


def emit_snapshot(label: str, rendered: str, out: Path, check: bool,
                  script: str) -> int:
    """Write (or, with ``check``, verify) one committed snapshot.

    ``script`` names the exporter in the drift message so CI logs say
    exactly which command regenerates the baseline.
    """
    if check:
        committed = out.read_text() if out.exists() else ""
        if committed != rendered:
            print(f"{label} snapshot drift: {out} does not match this "
                  f"revision (re-run scripts/{script})")
            return 1
        print(f"{label} snapshot up to date: {out}")
        return 0
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(rendered)
    print(f"wrote {out}")
    return 0


def emit_report(label: str, report: dict, out: Path, snapshot_out: Path,
                check: bool, script: str) -> int:
    """Pin the deterministic subset of ``report`` as a snapshot, then
    write the full report (wall times included) to ``out``.

    On check-mode drift the full report is *not* written: a failing CI
    run should leave no half-updated artifacts behind.
    """
    status = emit_snapshot(label, render(deterministic_subset(report)),
                           snapshot_out, check, script)
    if status:
        return status
    out.write_text(render(report))
    print(f"wrote {out}")
    return status
