"""The repository's benchmark: four workloads through the public API.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload wild --seed 2019 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all     # all four, interleaved

Each measured run is one fresh interpreter (``perfbench/child.py``) that
imports ``repro`` from the checkout's ``src``, builds the workload
(``setup_s``) and runs it (``wall_s``).  Runs go one at a time until
``--seconds`` of them have been spent, and the report gives medians.

``--trace 0`` reports the end-to-end metrics ``setup_s``, ``wall_ref``,
``items_per_ref`` and ``peak_rss_mb`` (see ``END_TO_END``), and prints
``wall_s``, ``cpu_s``, ``items_per_s`` and ``error_rate`` beside them in
the table; ``error_rate`` is also carried by the ``attempted`` /
``failed`` fields of the result.  ``--trace 1`` alternates untraced
runs with runs whose layers are wrapped by :mod:`layers`, and reports
per-layer self times, exact counts and ratios instead.

Every run's output digest (observability snapshot plus report) must
equal the reference for its workload and seed: the one recorded in
``perfbench/references.json``, or, for a seed without one, the digest of
one untimed reference run.  ``wild-durable`` must reproduce ``wild``.  A
run whose digest differs counts all its operations as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it are the manifest, one line per run, and a table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFERENCES = os.path.join(HERE, "references.json")
#: Scratch space for runs that write state; deleted after each run.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
#: A run that takes longer than this is killed and the benchmark fails.
CHILD_TIMEOUT_S = 150.0
#: Untraced runs per workload however short ``--seconds`` is, so every
#: median (``setup_s`` included) is over several set-ups.
MIN_RUNS = 3

sys.path.insert(0, HERE)
from layers import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: The end-to-end metrics of the result line (and of BENCHMARK.json).
#: Run time is given in ``ref`` units, multiples of the time the child's
#: fixed reference job takes next to the run: on a shared host the raw
#: seconds swing by a third between minutes, the ratio far less.
END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "items_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}
#: Printed in the table beside them: the same runs in raw seconds.
RAW = {
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "error_rate": "ratio",
}

PER_LAYER_COUNTS = {
    "net.fabric.roundtrips": "count",
    "net.fabric.bytes": "B",
    "net.tls.handshakes": "count",
    "net.tls.resumptions": "count",
    "net.crypto.calls": "count",
    "net.http.messages": "count",
    "net.client.requests": "count",
    "net.proxy.exchanges": "count",
    "net.server.dispatches": "count",
    "analysis.spill_bytes": "B",
    "obs.calls": "count",
    "recovery.checkpoints": "count",
    "recovery.bytes": "B",
    "detection.events": "count",
}

#: ratio metric -> (numerator count, denominator count)
PER_LAYER_RATIOS = {
    "net.tls.resume_ratio": ("net.tls.resumptions", "net.tls.attempts"),
    "monitor.cache_hit_ratio": ("monitor.cache_hits",
                                "monitor.cache_lookups"),
    "serve.cache.hit_ratio": ("serve.cache_hits", "serve.cache_lookups"),
    "serve.admission.shed_ratio": ("serve.shed", "serve.offered"),
}


def per_layer_units() -> Dict[str, str]:
    """Every ``--trace 1`` metric and its unit, in report order."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update(PER_LAYER_COUNTS)
    units.update({name: "ratio" for name in PER_LAYER_RATIOS})
    units.update({"other.self_s": "s", "trace.coverage": "ratio",
                  "trace.overhead": "ratio"})
    return units


class BenchmarkError(RuntimeError):
    """The benchmark could not measure (as opposed to a wrong output)."""


# -- manifest ----------------------------------------------------------------

def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def manifest(workloads: List[str], seed: int, seconds: float,
             trace: bool) -> Dict[str, object]:
    return {
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workloads": {name: dict(WORKLOADS[name].params)
                      for name in workloads},
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


# -- runs --------------------------------------------------------------------

def run_child(workload: str, seed: int, trace: bool = False,
              params: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """One run in a fresh interpreter; returns its parsed result."""
    workdir = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=workdir)
    env.pop("PYTHONPATH", None)
    command = [sys.executable, CHILD, "--workload", workload,
               "--seed", str(seed), "--workdir", workdir]
    if trace:
        command.append("--trace")
    if params:
        command += ["--params", json.dumps(params)]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(
            f"{workload} run exceeded {CHILD_TIMEOUT_S:.0f}s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        raise BenchmarkError(
            f"{workload} run exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{workload} run printed nothing:\n{done.stderr}")
    return json.loads(lines[-1])


def load_references() -> Dict[str, Dict[str, str]]:
    try:
        with open(REFERENCES, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def reference_digest(workload: str, seed: int,
                     references: Dict[str, Dict[str, str]]) -> str:
    """The digest ``workload`` must produce at ``seed``."""
    source = WORKLOADS[workload].digest_of
    recorded = references.get(source, {}).get(str(seed))
    if recorded is not None:
        return recorded
    result = run_child(source, seed)
    if not all(result["invariants"].values()):
        raise BenchmarkError(
            f"{source} reference run broke {result['invariants']}")
    references.setdefault(source, {})[str(seed)] = result["digest"]
    return result["digest"]


class Series:
    """The runs of one workload in one benchmark invocation."""

    def __init__(self, name: str, seed: int, reference: str,
                 trace: bool) -> None:
        self.name = name
        self.seed = seed
        self.reference = reference
        self.trace = trace
        self.plain: List[Dict[str, object]] = []
        self.traced: List[Dict[str, object]] = []
        self.spent = 0.0
        self.durations: List[float] = []

    def next_is_traced(self) -> bool:
        return self.trace and len(self.traced) < len(self.plain)

    def run_one(self) -> Dict[str, object]:
        traced = self.next_is_traced()
        started = time.perf_counter()
        result = run_child(self.name, self.seed, trace=traced)
        duration = time.perf_counter() - started
        self.spent += duration
        self.durations.append(duration)
        result["ok"] = (result["digest"] == self.reference
                        and all(result["invariants"].values()))
        (self.traced if traced else self.plain).append(result)
        return result

    def wants_more(self, seconds: float) -> bool:
        """Keep going until the budget would be overrun, but always
        make ``MIN_RUNS`` untraced runs (and as many traced ones)."""
        runs = len(self.plain)
        if runs < MIN_RUNS or self.next_is_traced() and runs == MIN_RUNS:
            return True
        expected = statistics.median(self.durations)
        return self.spent + expected <= seconds

    def runs(self) -> List[Dict[str, object]]:
        return self.plain + self.traced

    # -- results -------------------------------------------------------------

    def repeats(self) -> bool:
        """Operation counts are deterministic: every run must agree."""
        keys = ("items", "attempted", "failed", "counts")
        firsts = {key: self.plain[0][key] for key in keys}
        same = all(run[key] == firsts[key]
                   for run in self.runs() for key in keys)
        if self.traced:
            first = self.traced[0]["trace"]["counts"]
            same = same and all(run["trace"]["counts"] == first
                                for run in self.traced)
        return same

    def correct(self) -> bool:
        return all(run["ok"] for run in self.runs()) and self.repeats()

    def attempted(self) -> int:
        return sum(int(run["attempted"]) for run in self.runs())

    def failed(self) -> int:
        return sum(int(run["failed"]) if run["ok"] else int(run["attempted"])
                   for run in self.runs())

    def end_to_end(self) -> Dict[str, float]:
        """Medians over the untraced runs, ``END_TO_END`` then ``RAW``."""
        def median(value):
            return statistics.median(value(run) for run in self.plain)
        return {
            "setup_s": median(lambda run: run["setup_s"]),
            "wall_ref": median(lambda run: run["wall_s"] / run["ref_s"]),
            "items_per_ref": median(
                lambda run: run["items"] * run["ref_s"] / run["wall_s"]),
            "peak_rss_mb": median(lambda run: run["peak_rss_mb"]),
            "wall_s": median(lambda run: run["wall_s"]),
            "cpu_s": median(lambda run: run["cpu_s"]),
            "items_per_s": median(lambda run: run["items"] / run["wall_s"]),
            "error_rate": self.failed() / self.attempted(),
        }

    def per_layer(self) -> Dict[str, float]:
        traced = self.traced
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = statistics.median(
                run["trace"]["self_s"][layer] for run in traced)
        counts = dict(traced[0]["counts"])
        counts.update(traced[0]["trace"]["counts"])
        counts["net.tls.attempts"] = (counts.get("net.tls.handshakes", 0)
                                      + counts.get("net.tls.resumptions", 0))
        for name in PER_LAYER_COUNTS:
            out[name] = counts.get(name, 0)
        for name, (numerator, denominator) in PER_LAYER_RATIOS.items():
            base = counts.get(denominator, 0)
            out[name] = counts.get(numerator, 0) / base if base else 0.0
        walls = [run["trace"]["wall_s"] for run in traced]
        attributed = [sum(run["trace"]["self_s"].values()) for run in traced]
        out["other.self_s"] = statistics.median(
            wall - spent for wall, spent in zip(walls, attributed))
        out["trace.coverage"] = statistics.median(
            spent / wall for wall, spent in zip(walls, attributed))
        out["trace.overhead"] = (
            statistics.median(run["wall_s"] for run in traced)
            / statistics.median(run["wall_s"] for run in self.plain))
        return out


# -- report ------------------------------------------------------------------

def describe_run(series: Series, result: Dict[str, object]) -> str:
    kind = "traced" if "trace" in result else "plain"
    status = "ok" if result["ok"] else "MISMATCH"
    return (f"run {series.name} {kind}: setup {result['setup_s']:.3f}s "
            f"wall {result['wall_s']:.3f}s cpu {result['cpu_s']:.3f}s "
            f"rss {result['peak_rss_mb']:.1f}MB items {result['items']} "
            f"digest {result['digest'][:12]} {status}")


def table(rows: Dict[str, Dict[str, float]], units: Dict[str, str]) -> str:
    names = list(rows)
    lines = ["metric".ljust(28) + "unit".ljust(7)
             + "".join(name.rjust(14) for name in names)]
    for metric, unit in units.items():
        cells = "".join(f"{rows[name][metric]:14.4f}" for name in names)
        lines.append(metric.ljust(28) + unit.ljust(7) + cells)
    return "\n".join(lines)


def measure(names: List[str], seed: int, seconds: float,
            trace: bool) -> Dict[str, Series]:
    references = load_references()
    series = {}
    for name in names:
        # An unrecorded seed's reference run counts against the budget.
        started = time.perf_counter()
        series[name] = Series(name, seed, reference_digest(
            name, seed, references), trace)
        series[name].spent = time.perf_counter() - started
    # Round-robin, so a slow phase of the host spreads over every workload.
    active = list(names)
    while active:
        for name in list(active):
            if not series[name].wants_more(seconds):
                active.remove(name)
                continue
            print(describe_run(series[name], series[name].run_one()),
                  flush=True)
    return series


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, default=32.0,
                        help="run time to spend per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="SEEDS", default=None,
                        help="instead of measuring, record the reference "
                             "digests of SEEDS (e.g. 0-31,2019) into "
                             "perfbench/references.json")
    return parser.parse_args(argv)


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def record(names: List[str], seeds: List[int]) -> None:
    """Run each reference workload once per seed and store its digest.
    Record only from a program whose output is known to be right."""
    references = load_references()
    for name in sorted({WORKLOADS[name].digest_of for name in names}):
        for seed in seeds:
            result = run_child(name, seed)
            if not all(result["invariants"].values()):
                raise BenchmarkError(
                    f"{name} seed {seed} broke {result['invariants']}")
            references.setdefault(name, {})[str(seed)] = result["digest"]
            print(f"{name} seed {seed}: {result['digest']}", flush=True)
    with open(REFERENCES, "w", encoding="utf-8") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: {ROOT} holds no src/repro to benchmark",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record is not None:
        try:
            record(names, parse_seeds(args.record))
        except BenchmarkError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(WORK_ROOT, ignore_errors=True)
        return 0
    trace = bool(args.trace)
    info = manifest(names, args.seed, args.seconds, trace)
    print("manifest " + json.dumps(info, sort_keys=True), flush=True)
    try:
        series = measure(names, args.seed, args.seconds, trace)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK_ROOT, ignore_errors=True)
    if trace:
        units = per_layer_units()
        rows = {name: s.per_layer() for name, s in series.items()}
        print(table(rows, units))
    else:
        units = END_TO_END
        shown = {name: s.end_to_end() for name, s in series.items()}
        print(table(shown, dict(units, **RAW)))
        rows = {name: {metric: row[metric] for metric in units}
                for name, row in shown.items()}
    for name, s in series.items():
        print(f"{name}: {len(s.plain)} plain + {len(s.traced)} traced runs, "
              f"unit of work: {WORKLOADS[name].item}, "
              f"correct {s.correct()}")
    print("manifest_end " + json.dumps(
        {"loadavg_1m_end": os.getloadavg()[0]}), flush=True)
    if len(names) == 1:
        metrics = rows[names[0]]
    else:
        metrics = {f"{name}.{metric}": value
                   for name, row in rows.items()
                   for metric, value in row.items()}
        units = {f"{name}.{metric}": unit
                 for name in names for metric, unit in units.items()}
    result = {
        "correct": all(s.correct() for s in series.values()),
        "attempted": sum(s.attempted() for s in series.values()),
        "failed": sum(s.failed() for s in series.values()),
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
