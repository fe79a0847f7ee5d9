"""The observability context: one registry + one tracer + one op counter.

Instrumented components take an ``Observability`` and default to
:data:`NULL_OBS`, a shared no-op context, so nothing changes for call
sites that never wire one in.  ``simulation.world.World`` creates a
real context bound to the simulation clock and threads it through the
net stack, the monitor, and both paper pipelines.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry, NullMetricsRegistry, OpCounter
from repro.obs.tracing import Clock, NullTracer, Tracer


class Observability:
    """Shared metrics + tracing for one world (or one test rig)."""

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.ops = OpCounter()
        self.metrics: MetricsRegistry = MetricsRegistry(counter=self.ops)
        self.tracer: Tracer = Tracer(clock=clock, counter=self.ops)

    @property
    def enabled(self) -> bool:
        return True

    def bind_clock(self, clock: Clock, force: bool = False) -> None:
        """Point trace timestamps at a simulation clock (idempotent)."""
        self.tracer.bind_clock(clock, force=force)

    def tick(self) -> int:
        """Next value of the shared monotonic operation counter."""
        return self.ops.tick()

    def advance(self, amount: int) -> int:
        """Move the op counter ``amount`` ticks at once — the same total
        as ``amount`` calls to :meth:`tick`."""
        return self.ops.advance(amount)

    def merge(self, other: Optional["Observability"]) -> None:
        """Fold a finished task-local context into this one.

        Used by the shard scheduler's callers: each task records into
        its own context, and the merge — performed in canonical task
        order after the barrier — replays the task's counters, spans,
        and op ticks as if they had been recorded inline.  Merging the
        per-task contexts of a sharded phase in the same order on every
        run is what keeps the combined export byte-identical regardless
        of shard count.
        """
        if other is None or other is self or not other.enabled:
            return
        if not self.enabled:
            return
        base_ops = self.ops.value
        self.metrics.merge(other.metrics)
        self.tracer.absorb(other.tracer, op_offset=base_ops,
                           parent_id=self.tracer.current_span_id)
        self.ops.advance(other.ops.value)

    # -- delta capture (process-backend obs shipping) -------------------------

    def begin_delta(self) -> object:
        """Start capturing subsequent recordings into a detachable
        *delta* registry.

        Process-backend shard workers run tasks against a full world
        replica: client-level metrics land in the task-local context
        (shipped back whole), but fabric/server counters land in the
        replica world's context, which the parent never sees.  A worker
        brackets each task with ``begin_delta``/``collect_delta`` to
        capture exactly those world-side recordings and ship them back
        as plain state.  The delta registry shares this context's op
        counter, so op ticks behave exactly as without the bracket.
        """
        original = self.metrics
        delta = MetricsRegistry(counter=self.ops)
        delta._histogram_bounds = dict(original._histogram_bounds)
        self.metrics = delta
        return (original, delta, self.ops.value)

    def collect_delta(self, token: object) -> Dict[str, object]:
        """Stop a :meth:`begin_delta` capture; returns the picklable
        delta (metrics state + op ticks) and folds it back into this
        context so the local view stays complete."""
        original, delta, ops_before = token  # type: ignore[misc]
        ops_delta = self.ops.value - ops_before
        self.metrics = original
        original.merge(delta)
        return {"ops": ops_delta, "metrics": delta.state_dict()}

    def apply_delta(self, delta_state: Dict[str, object]) -> None:
        """Fold a shipped :meth:`collect_delta` payload into this
        context: counters/histograms sum in, gauges last-write, and the
        op counter advances by the ticks the capture recorded —
        commutative, so applying per-task deltas in canonical merge
        order reproduces the serial op totals exactly."""
        registry = MetricsRegistry()
        registry.load_state(delta_state["metrics"])  # type: ignore[arg-type]
        self.metrics.merge(registry)
        self.ops.advance(int(delta_state["ops"]))  # type: ignore[arg-type]

    def snapshot(self) -> Dict[str, object]:
        return {
            "metrics": self.metrics.snapshot(),
            "spans": self.tracer.snapshot(),
            "ops": self.ops.value,
        }

    # -- checkpoint/restore ---------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """The exact recorded state (unlike :meth:`snapshot`, which
        renders label tuples lossily).  Includes the tracer's active
        span stack, so a resumed run can re-enter the pipeline span it
        was checkpointed inside of (see :meth:`Tracer.adopt`)."""
        return {
            "ops": self.ops.value,
            "metrics": self.metrics.state_dict(),
            "tracer": self.tracer.state_dict(),
        }

    def load_state(self, state: Dict[str, object]) -> None:
        self.ops.reset(int(state["ops"]))  # type: ignore[arg-type]
        self.metrics.load_state(state["metrics"])  # type: ignore[arg-type]
        self.tracer.load_state(state["tracer"])  # type: ignore[arg-type]


class NullObservability(Observability):
    """Records nothing; safe to share as a module-level default."""

    def __init__(self) -> None:
        super().__init__()
        self.metrics = NullMetricsRegistry()
        self.tracer = NullTracer(counter=self.ops)

    @property
    def enabled(self) -> bool:
        return False

    def tick(self) -> int:
        return 0

    def advance(self, amount: int) -> int:
        return 0

    def snapshot(self) -> Dict[str, object]:
        return {"metrics": self.metrics.snapshot(), "spans": [], "ops": 0}


#: The shared default: every instrumented component that is not handed a
#: real context records against this and stays a no-op.
NULL_OBS = NullObservability()
