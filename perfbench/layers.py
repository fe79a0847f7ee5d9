"""Per-layer wall-clock tracing, installed from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer of
``repro`` (public functions, and public methods of the classes its
modules define) in a timing wrapper, and undoes it on :meth:`restore`.
Each wrapped call is a span; a layer's self time is the span's duration
minus the time covered by the spans it called, so the self times of all
layers plus ``other`` (time in no span) add up to the traced wall time.

Generator and coroutine functions are not wrapped: their call returns
before the work is done.  Coroutine work is timed per event-loop
callback instead (``asyncio.events.Handle._run``), because a coroutine's
own span would include every other task that ran while it awaited.

Layer names are the repository's module names.
"""

from __future__ import annotations

import asyncio.events
import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Tuple

#: layer -> modules whose public entry points belong to it.
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "net.fabric": ("repro.net.fabric",),
    "net.tls": ("repro.net.tls",),
    "net.crypto": ("repro.net.crypto",),
    "net.http": ("repro.net.http",),
    "net.client": ("repro.net.client",),
    "net.proxy": ("repro.net.proxy",),
    "net.server": ("repro.net.server",),
    "simulation": ("repro.simulation.scenarios",),
    "monitor": ("repro.monitor.crawler", "repro.monitor.milker",
                "repro.monitor.dataset", "repro.monitor.storage"),
    "analysis": ("repro.analysis.appstore_impact",
                 "repro.analysis.characterize", "repro.analysis.classify",
                 "repro.analysis.columnar", "repro.analysis.stats",
                 "repro.analysis.streams"),
    "obs": ("repro.obs.metrics", "repro.obs.tracing",
            "repro.obs.observability", "repro.obs.export"),
    "recovery": ("repro.recovery.checkpoint", "repro.recovery.state",
                 "repro.recovery.wal"),
    "users": ("repro.users.devices", "repro.users.population",
              "repro.users.worker"),
    "iip": ("repro.iip.accounting", "repro.iip.campaigns",
            "repro.iip.mediator", "repro.iip.offers", "repro.iip.offerwall",
            "repro.iip.platform"),
    "honeyapp": ("repro.honeyapp.analysis", "repro.honeyapp.app",
                 "repro.honeyapp.server", "repro.honeyapp.telemetry"),
    "detection": ("repro.detection.events", "repro.detection.evaluation",
                  "repro.detection.lockstep", "repro.detection.stream",
                  "repro.detection.live"),
    "serve": ("repro.serve.admission", "repro.serve.cache",
              "repro.serve.datasets", "repro.serve.fleet",
              "repro.serve.service"),
}

#: Every layer the tracer reports, in report order.
LAYERS: Tuple[str, ...] = tuple(LAYER_MODULES) + ("serve.loop",)

#: Call counts reported per layer: metric -> wrapped entry points.
CALL_COUNTS: Dict[str, Tuple[str, ...]] = {
    "net.fabric.roundtrips": ("repro.net.fabric:Connection.roundtrip",),
    "net.http.messages": (
        "repro.net.http:HttpRequest.to_bytes",
        "repro.net.http:HttpRequest.from_bytes",
        "repro.net.http:HttpResponse.to_bytes",
        "repro.net.http:HttpResponse.from_bytes",
    ),
    "net.client.requests": ("repro.net.client:HttpClient.request",
                            "repro.net.client:HttpClient.request_plain"),
    "net.server.dispatches": ("repro.net.server:Router.dispatch",),
    "recovery.checkpoints": (
        "repro.recovery.checkpoint:CheckpointStore.write",),
}

#: Entry points whose (first argument + result) byte size is summed.
BYTE_COUNTS: Dict[str, str] = {
    "repro.net.fabric:Connection.roundtrip": "net.fabric.bytes",
}

_WRAPPED = "__perfbench_layer__"


def _plain_function(value: object) -> bool:
    return (inspect.isfunction(value)
            and not inspect.isgeneratorfunction(value)
            and not inspect.iscoroutinefunction(value)
            and not inspect.isasyncgenfunction(value)
            and not hasattr(value, _WRAPPED))


class LayerTracer:
    """Self time and call counts per layer, over the interval since
    :meth:`reset`.  One tracer per process; not thread-safe (the
    benchmark's workloads are single-threaded)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self._clock = clock
        self._stack: List[List[float]] = []
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: Counter = Counter()
        self.entry_calls: Counter = Counter()
        self.byte_counts: Counter = Counter()
        self._patches: List[Tuple[object, str, object]] = []
        self._started = clock()

    # -- accounting ------------------------------------------------------

    def reset(self) -> None:
        """Zero every total; the traced interval starts now."""
        for layer in self.self_s:
            self.self_s[layer] = 0.0
        self.calls.clear()
        self.entry_calls.clear()
        self.byte_counts.clear()
        self._started = self._clock()

    def elapsed(self) -> float:
        return self._clock() - self._started

    def _wrapper(self, layer: str, key: str, fn: Callable) -> Callable:
        clock = self._clock
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        entry_calls = self.entry_calls
        byte_metric = BYTE_COUNTS.get(key)
        byte_counts = self.byte_counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self_s[layer] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                calls[layer] += 1
                entry_calls[key] += 1
            if byte_metric is not None:
                byte_counts[byte_metric] += len(args[1]) + len(result)
            return result

        setattr(traced, _WRAPPED, layer)
        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, owner: object, name: str, value: object) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _patch_class(self, layer: str, module: str, cls: type) -> None:
        for name, value in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            key = f"{module}:{cls.__qualname__}.{name}"
            if isinstance(value, (staticmethod, classmethod)):
                if _plain_function(value.__func__):
                    self._patch(cls, name, type(value)(
                        self._wrapper(layer, key, value.__func__)))
            elif _plain_function(value):
                self._patch(cls, name, self._wrapper(layer, key, value))

    def install(self) -> "LayerTracer":
        """Wrap every layer's entry points.  Module-level functions are
        also replaced wherever another ``repro`` module imported them by
        name, so ``from x import f`` callers are traced too."""
        replaced: Dict[int, Callable] = {}
        for layer, modules in LAYER_MODULES.items():
            for module_name in modules:
                module = importlib.import_module(module_name)
                for name, value in list(vars(module).items()):
                    if getattr(value, "__module__", None) != module_name:
                        continue
                    if inspect.isclass(value):
                        self._patch_class(layer, module_name, value)
                    elif not name.startswith("_") and _plain_function(value):
                        wrapped = self._wrapper(
                            layer, f"{module_name}:{name}", value)
                        replaced[id(value)] = wrapped
                        self._patch(module, name, wrapped)
        # Rebind the names other modules imported from a patched module.
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for name, value in list(vars(module).items()):
                wrapped = replaced.get(id(value))
                if wrapped is not None and wrapped is not value:
                    self._patch(module, name, wrapped)
        # Coroutine steps and the loop's own scheduling (serve only).
        from repro.serve.vtime import VirtualTimeEventLoop
        self._patch(asyncio.events.Handle, "_run", self._wrapper(
            "serve", "asyncio.events:Handle._run",
            asyncio.events.Handle._run))
        self._patch(VirtualTimeEventLoop, "_run_once", self._wrapper(
            "serve.loop", "repro.serve.vtime:VirtualTimeEventLoop._run_once",
            VirtualTimeEventLoop._run_once))
        return self

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- report --------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """The exact call and byte counts of the traced interval."""
        out = {metric: sum(self.entry_calls[key] for key in keys)
               for metric, keys in CALL_COUNTS.items()}
        out["net.crypto.calls"] = self.calls["net.crypto"]
        out["obs.calls"] = self.calls["obs"]
        for metric in BYTE_COUNTS.values():
            out[metric] = self.byte_counts[metric]
        return out
