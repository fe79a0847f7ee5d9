"""Deterministic metrics primitives: counters, gauges, histograms.

Every metric is keyed by ``(name, labels)`` where the labels are
canonicalised to a sorted tuple, so two call sites that pass the same
labels in different orders update the same series.  The registry never
reads the wall clock or any randomness source: snapshots are pure
functions of the sequence of recording calls, which is what makes
exports byte-identical across runs with the same scenario seed.

A :class:`NullMetricsRegistry` accepts every call and records nothing;
instrumented code defaults to it so un-wired call sites cost almost
nothing and never fail.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

Number = Union[int, float]
LabelItems = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds (values above the last bound
#: land in the overflow bucket).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0)


def label_key(labels: Mapping[str, object]) -> LabelItems:
    """Canonical, hashable form of a label set.

    The no-label and single-label cases — the overwhelming majority of
    recording calls on the hot network path — skip the sort; the result
    is identical to the general branch.
    """
    if not labels:
        return ()
    if len(labels) == 1:
        ((key, value),) = labels.items()
        return ((key, value if type(value) is str else str(value)),)
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class OpCounter:
    """The monotonic operation counter behind every obs timestamp.

    One counter is shared by a context's registry and tracer: every
    recorded metric and every span boundary ticks it, so a span's
    ``(end_op - start_op)`` is the number of instrumented operations
    that happened inside it — a deterministic stand-in for duration.

    Ticks are guarded by a lock: during a sharded phase the fabric and
    the servers still record into the world's shared context from
    worker threads, and a lost update would make the op total depend on
    thread interleaving.
    """

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    @property
    def value(self) -> int:
        return self._value

    def tick(self) -> int:
        with self._lock:
            self._value += 1
            return self._value

    def advance(self, amount: int) -> int:
        """Absorb ``amount`` ticks recorded by a merged context."""
        if amount < 0:
            raise ValueError("cannot advance the op counter backwards")
        with self._lock:
            self._value += amount
            return self._value

    def reset(self, value: int) -> None:
        """Set the counter outright (checkpoint restore only)."""
        with self._lock:
            self._value = value


def render_key(name: str, labels: LabelItems) -> str:
    """``name{k=v,...}`` rendering used in snapshots and tables."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


@dataclass
class HistogramState:
    """Counts of observations against fixed bucket bounds."""

    bounds: Tuple[float, ...]
    bucket_counts: List[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.bucket_counts:
            # one bucket per bound plus the overflow bucket
            self.bucket_counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: Number) -> None:
        self.count += 1
        self.total += value
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)
        # The first bound with ``value <= bound``, else the overflow
        # bucket (index ``len(bounds)``); bounds are ascending.
        self.bucket_counts[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def copy(self) -> "HistogramState":
        return HistogramState(
            bounds=self.bounds,
            bucket_counts=list(self.bucket_counts),
            count=self.count,
            total=self.total,
            minimum=self.minimum,
            maximum=self.maximum,
        )

    def merge(self, other: "HistogramState") -> None:
        """Fold another state's observations in (bounds must match)."""
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} != {other.bounds}")
        for index, count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += count
        self.count += other.count
        self.total += other.total
        if other.minimum is not None:
            self.minimum = (other.minimum if self.minimum is None
                            else min(self.minimum, other.minimum))
        if other.maximum is not None:
            self.maximum = (other.maximum if self.maximum is None
                            else max(self.maximum, other.maximum))

    def quantile(self, q: float) -> float:
        """Deterministic bucket-resolution quantile estimate.

        Returns the upper bound of the bucket holding the ``q``-th
        observation (clamped to the recorded min/max); observations in
        the overflow bucket report the recorded maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if not self.count:
            return 0.0
        rank = max(1, int(q * self.count + 0.999999))
        cumulative = 0
        for index, bound in enumerate(self.bounds):
            cumulative += self.bucket_counts[index]
            if cumulative >= rank:
                low = self.minimum if self.minimum is not None else bound
                high = self.maximum if self.maximum is not None else bound
                return min(max(bound, low), high)
        return self.maximum if self.maximum is not None else self.bounds[-1]

    def summary(self) -> Dict[str, object]:
        """The standard percentile summary every exporter pins.

        One shape for every ``export_*_obs.py`` script and the serve
        report: count, mean (rounded to 0.1 for snapshot stability),
        bucket-resolution p50/p90/p95/p99, and the exact min/max.
        """
        return {
            "count": self.count,
            "mean": round(self.mean, 1),
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "min": self.minimum,
            "max": self.maximum,
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "HistogramState":
        """Invert :meth:`to_dict` (checkpoint restore)."""
        return cls(
            bounds=tuple(data["bounds"]),          # type: ignore[arg-type]
            bucket_counts=list(data["bucket_counts"]),  # type: ignore[arg-type]
            count=int(data["count"]),              # type: ignore[arg-type]
            total=float(data["sum"]),              # type: ignore[arg-type]
            minimum=data["min"],                   # type: ignore[arg-type]
            maximum=data["max"],                   # type: ignore[arg-type]
        )


class MetricsRegistry:
    """Labelled counters, gauges, and histograms with sorted exports.

    When given an :class:`OpCounter`, every recording call ticks it, so
    trace spans can measure their cost in instrumented operations.
    """

    def __init__(self, counter: Optional[OpCounter] = None) -> None:
        self._counter = counter
        #: Guards read-modify-write updates: shard workers record into
        #: the shared world registry (fabric/server/proxy counters), and
        #: an unlocked ``dict.get``+store pair can lose increments.
        self._lock = threading.Lock()
        self._counters: Dict[str, Dict[LabelItems, Number]] = {}
        self._gauges: Dict[str, Dict[LabelItems, Number]] = {}
        self._histograms: Dict[str, Dict[LabelItems, HistogramState]] = {}
        self._histogram_bounds: Dict[str, Tuple[float, ...]] = {}

    @property
    def enabled(self) -> bool:
        return True

    def _tick(self) -> None:
        if self._counter is not None:
            self._counter.tick()

    # -- recording -----------------------------------------------------------

    def inc(self, name: str, value: Number = 1, **labels: object) -> None:
        self._tick()
        key = label_key(labels)
        with self._lock:
            series = self._counters.setdefault(name, {})
            series[key] = series.get(key, 0) + value

    def inc_keyed(self, name: str, key: LabelItems, value: Number = 1) -> None:
        """`inc` with a pre-computed :func:`label_key` tuple.

        Hot callers (the fabric observes two counters per wire frame)
        pass a module-level constant key instead of rebuilding the same
        kwargs dict and sorting it on every call.
        """
        self._tick()
        with self._lock:
            series = self._counters.setdefault(name, {})
            series[key] = series.get(key, 0) + value

    def set_gauge(self, name: str, value: Number, **labels: object) -> None:
        self._tick()
        with self._lock:
            self._gauges.setdefault(name, {})[label_key(labels)] = value

    def declare_histogram(self, name: str, bounds: Tuple[float, ...]) -> None:
        """Set custom bucket bounds for ``name`` (before first observe)."""
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must ascend: {bounds}")
        with self._lock:
            if name in self._histograms:
                raise ValueError(f"histogram {name!r} already has observations")
            self._histogram_bounds[name] = tuple(bounds)

    def observe(self, name: str, value: Number, **labels: object) -> None:
        self._tick()
        key = label_key(labels)
        with self._lock:
            series = self._histograms.setdefault(name, {})
            state = series.get(key)
            if state is None:
                bounds = self._histogram_bounds.get(name, DEFAULT_BUCKETS)
                state = series[key] = HistogramState(bounds=bounds)
            state.observe(value)

    # -- merging -------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's records into this one.

        Counters and histograms are summed; gauges take the other
        registry's value (last write wins, matching what inline
        recording in merge order would have produced).  The op counter
        is deliberately *not* ticked: merging is bookkeeping, and the
        merged context's own ticks are absorbed separately by
        :meth:`Observability.merge`.
        """
        if not other.enabled:
            return
        with self._lock:
            for name, series in other._counters.items():
                mine = self._counters.setdefault(name, {})
                for key, value in series.items():
                    mine[key] = mine.get(key, 0) + value
            for name, series in other._gauges.items():
                self._gauges.setdefault(name, {}).update(series)
            for name, bounds in other._histogram_bounds.items():
                self._histogram_bounds.setdefault(name, bounds)
            for name, series in other._histograms.items():
                mine_hist = self._histograms.setdefault(name, {})
                for key, state in series.items():
                    if key in mine_hist:
                        mine_hist[key].merge(state)
                    else:
                        mine_hist[key] = state.copy()

    # -- queries -------------------------------------------------------------

    def counter_value(self, name: str, **labels: object) -> Number:
        return self._counters.get(name, {}).get(label_key(labels), 0)

    def counter_total(self, name: str) -> Number:
        return sum(self._counters.get(name, {}).values())

    def counter_total_by_label(self, name: str, label: str,
                               value: object) -> Number:
        """Sum of every ``name`` series carrying ``label=value``
        (e.g. all ``serve.responses`` for one endpoint)."""
        wanted = (str(label), str(value))
        return sum(count
                   for key, count in self._counters.get(name, {}).items()
                   if wanted in key)

    def counter_names(self) -> List[str]:
        return sorted(self._counters)

    def counters(self) -> Dict[str, Number]:
        """All counter series as ``rendered-key -> value``, sorted."""
        flat: Dict[str, Number] = {}
        for name in sorted(self._counters):
            for key in sorted(self._counters[name]):
                flat[render_key(name, key)] = self._counters[name][key]
        return flat

    def gauges(self) -> Dict[str, Number]:
        flat: Dict[str, Number] = {}
        for name in sorted(self._gauges):
            for key in sorted(self._gauges[name]):
                flat[render_key(name, key)] = self._gauges[name][key]
        return flat

    def histogram(self, name: str, **labels: object) -> Optional[HistogramState]:
        return self._histograms.get(name, {}).get(label_key(labels))

    def top_counters(self, limit: int = 20) -> List[Tuple[str, Number]]:
        """Counter series sorted by value (desc), then key — for reports."""
        ranked = sorted(self.counters().items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:limit]

    def snapshot(self) -> Dict[str, object]:
        histograms: Dict[str, object] = {}
        for name in sorted(self._histograms):
            for key in sorted(self._histograms[name]):
                histograms[render_key(name, key)] = (
                    self._histograms[name][key].to_dict())
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": histograms,
        }

    # -- checkpoint/restore ---------------------------------------------------
    #
    # ``snapshot`` renders label tuples into display strings, which is
    # lossy; checkpoints need the exact series keys back, so the state
    # dict keeps labels structured as ``[[k, v], ...]`` lists.

    def state_dict(self) -> Dict[str, object]:
        with self._lock:
            return {
                "counters": {
                    name: [[list(map(list, key)), value]
                           for key, value in sorted(series.items())]
                    for name, series in self._counters.items()},
                "gauges": {
                    name: [[list(map(list, key)), value]
                           for key, value in sorted(series.items())]
                    for name, series in self._gauges.items()},
                "histograms": {
                    name: [[list(map(list, key)), state.to_dict()]
                           for key, state in sorted(series.items())]
                    for name, series in self._histograms.items()},
                "histogram_bounds": {
                    name: list(bounds)
                    for name, bounds in self._histogram_bounds.items()},
            }

    @staticmethod
    def _series_key(raw: List) -> LabelItems:
        return tuple((str(k), str(v)) for k, v in raw)

    def load_state(self, state: Mapping[str, object]) -> None:
        """Replace every series with the checkpointed ones."""
        with self._lock:
            self._counters = {
                name: {self._series_key(key): value for key, value in series}
                for name, series in state["counters"].items()}  # type: ignore[union-attr]
            self._gauges = {
                name: {self._series_key(key): value for key, value in series}
                for name, series in state["gauges"].items()}  # type: ignore[union-attr]
            self._histograms = {
                name: {self._series_key(key): HistogramState.from_dict(data)
                       for key, data in series}
                for name, series in state["histograms"].items()}  # type: ignore[union-attr]
            self._histogram_bounds = {
                name: tuple(bounds)
                for name, bounds in state["histogram_bounds"].items()}  # type: ignore[union-attr]


class NullMetricsRegistry(MetricsRegistry):
    """Accepts every recording call, stores nothing."""

    @property
    def enabled(self) -> bool:
        return False

    def inc(self, name: str, value: Number = 1, **labels: object) -> None:
        pass

    def inc_keyed(self, name: str, key: LabelItems, value: Number = 1) -> None:
        pass

    def set_gauge(self, name: str, value: Number, **labels: object) -> None:
        pass

    def declare_histogram(self, name: str, bounds: Tuple[float, ...]) -> None:
        pass

    def observe(self, name: str, value: Number, **labels: object) -> None:
        pass

    def merge(self, other: MetricsRegistry) -> None:
        pass
