"""One measured run of one workload, in a fresh interpreter.

Usage (from the checkout root; ``run.py`` starts it)::

    python3 perfbench/child.py --workload wild --seed 2019 [--trace] \
        [--workdir DIR] [--params JSON]

Times set-up (importing ``repro`` and building the run) and the run
itself, and a fixed reference job before and after them, then prints
one JSON line: the timings, ``ru_maxrss``, the output digest, the
operation counts and, with ``--trace``, the per-layer self times of the
run.
"""

from __future__ import annotations

import gc
import time


def reference_work(n: int = 40_000) -> int:
    """A fixed pure-Python job (string formatting, dict inserts and
    lookups): timed next to each run to gauge how fast the host is
    running Python at that moment."""
    table = {}
    for i in range(n):
        table["k%d" % i] = [i, str(i)]
    total = 0
    for i in range(n):
        total += len(table["k%d" % ((i * 7919) % n)][1])
    return total


def time_reference() -> float:
    """Seconds the reference job takes.  The collector is off while it
    runs: after the workload, a collection would walk the workload's
    heap and charge its size to the host."""
    gc.disable()
    try:
        started = time.perf_counter()
        reference_work()
        return time.perf_counter() - started
    finally:
        gc.enable()


_REF_BEFORE = time_reference()
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_repro():
    """Import ``repro`` from this checkout's ``src``, never from
    anywhere else on the path."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")
    return repro


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workdir", default=None)
    parser.add_argument("--params", default=None,
                        help="JSON object overriding the workload's sizes")
    args = parser.parse_args(argv)

    import_repro()
    sys.path.insert(0, HERE)
    import workloads
    tracer = None
    if args.trace:
        from layers import LayerTracer
        tracer = LayerTracer().install()
    params = json.loads(args.params) if args.params else None
    run = workloads.prepare(args.workload, args.seed, args.workdir, params)
    setup_s = time.perf_counter() - _T0

    if tracer is not None:
        tracer.reset()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    outcome = run()
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    traced_wall = tracer.elapsed() if tracer is not None else None
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref_s = (_REF_BEFORE + time_reference()) / 2.0

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": rss_mb,
        "ref_s": ref_s,
        "items": outcome.items,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "invariants": outcome.invariants,
        "counts": outcome.counts,
        "digest": outcome.digest(),
    }
    if tracer is not None:
        tracer.restore()
        result["trace"] = {
            "wall_s": traced_wall,
            "self_s": dict(tracer.self_s),
            "counts": tracer.counts(),
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
