"""Cooperative resource governance for the analysis pipeline.

The DeRemer–Pennello algorithm is linear in the size of the LR(0)
automaton and its relations — but the automaton itself can be
exponential in the grammar (Blum's pathological families), the parse
engine accepts unbounded token streams, and a fuzz campaign runs an
open-ended number of pipelines.  A production deployment therefore needs
*per-request budgets*: a way to say "spend at most this much" and get a
useful diagnostic back instead of a hung process.

:class:`Budget` is that primitive.  It is **cooperative**: governed code
calls the charge methods at its natural progress points (one per LR(0)
state interned, one per digraph frame, one per parsed token, ...) and a
charge that crosses a limit raises :class:`BudgetExceeded` carrying the
phase reached, the tripped resource, elapsed wall-clock time and the
partial-progress counters — enough for a caller to report *how far* the
computation got, not merely that it died.

Design rules:

- **Zero cost when absent.**  Every governed loop guards its charge with
  a single ``if budget is not None`` branch; an ungoverned run performs
  no clock reads and no attribute lookups.
- **Strided clock reads.**  Deadline checks on hot paths read the
  monotonic clock only once per :data:`CLOCK_STRIDE` charges; count caps
  (states, steps, tokens) are exact.
- **Raising vs. polling.**  Pipeline phases *raise* on exhaustion; batch
  drivers that prefer to stop gracefully poll :meth:`Budget.expired`
  instead (the fuzz campaign stops at a draw boundary and reports
  ``stopped_early``).
- **Observable.**  :meth:`Budget.publish` absorbs the governance
  counters into the instrument layer as ``budget.checks`` /
  ``budget.exceeded`` so ``--profile`` shows exactly what the
  governance overhead was.
- **Capped trials.**  :meth:`Budget.capped` narrows a budget's deadline
  for a run its caller may abandon (the service's inline GLR parse).
  The narrowed deadline raises :class:`CapExceeded`, never
  :class:`BudgetExceeded`, so the caller can restart the work elsewhere
  with a fresh budget; the budget's own limits raise as before.

One Budget instance governs one request end to end: the same object is
threaded through LR(0) construction, the relation builders, both Digraph
passes, table fill and (optionally) the parse, so the deadline covers
the *sum* of the phases, exactly like a serving timeout would.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from . import instrument

#: Hot-path deadline checks between monotonic-clock reads.  Count caps
#: are always exact; only the wall-clock test is strided.
CLOCK_STRIDE = 64


class BudgetExceeded(Exception):
    """A governed computation hit one of its resource limits.

    Attributes:
        phase: The pipeline phase that was active ("lr0", "relations",
            "digraph.reads", "digraph.includes", "la", "table.fill",
            "parse", ...).
        resource: The limit that tripped ("timeout", "max_states",
            "max_digraph_steps", "max_tokens", "max_parse_steps").
        limit: The configured limit value.
        elapsed: Wall-clock seconds since the budget was created.
        progress: Partial-progress counters at the point of failure
            (e.g. ``{"states": 4097, "checks": 4097}``).
    """

    def __init__(
        self,
        phase: str,
        resource: str,
        limit: float,
        elapsed: float,
        progress: Dict[str, int],
    ):
        self.phase = phase
        self.resource = resource
        self.limit = limit
        self.elapsed = elapsed
        self.progress = dict(progress)
        super().__init__(self.describe())

    def describe(self) -> str:
        done = ", ".join(
            f"{key}={value}" for key, value in sorted(self.progress.items())
        )
        return (
            f"budget exceeded in phase {self.phase!r} after {self.elapsed:.2f}s: "
            f"{self.resource} limit of {self.limit} hit"
            + (f" (progress: {done})" if done else "")
        )

    def as_dict(self) -> "Dict[str, object]":
        """JSON-safe payload for transports — the body of the service's
        typed 503 response carries exactly these fields."""
        return {
            "error": "budget_exceeded",
            "phase": self.phase,
            "resource": self.resource,
            "limit": self.limit,
            "elapsed_seconds": round(self.elapsed, 6),
            "progress": {key: self.progress[key] for key in sorted(self.progress)},
        }


class CapExceeded(Exception):
    """The wall-time cap of a trial run (:meth:`Budget.capped`) ran out
    before any limit of the budget it narrows."""


class Budget:
    """A cooperative resource budget for one analysis/parse request.

    Args:
        timeout: Wall-clock deadline in seconds (measured from
            construction), or None for unbounded time.
        max_states: Cap on LR(0)/LR(1) automaton states interned.
        max_digraph_steps: Cap on digraph traversal steps (frame visits
            plus edges inspected, summed over both passes).
        max_tokens: Cap on tokens the parse engine consumes — the guard
            for unbounded input streams.
        max_parse_steps: Cap on parser actions (shifts + reduces +
            error checks); bounds recovery loops as well.

    All limits are optional and independent; a Budget with none set is a
    pure pass-through (its charges never raise).
    """

    __slots__ = (
        "timeout",
        "max_states",
        "max_digraph_steps",
        "max_tokens",
        "max_parse_steps",
        "started",
        "phase",
        "states",
        "digraph_steps",
        "tokens",
        "parse_steps",
        "checks",
        "exceeded",
        "_deadline",
        "_clock_countdown",
        "_published_checks",
        "_published_exceeded",
        "_quiet",
    )

    def __init__(
        self,
        timeout: Optional[float] = None,
        max_states: Optional[int] = None,
        max_digraph_steps: Optional[int] = None,
        max_tokens: Optional[int] = None,
        max_parse_steps: Optional[int] = None,
    ):
        if timeout is not None and timeout < 0:
            raise ValueError(f"timeout must be >= 0, got {timeout}")
        for name, value in (
            ("max_states", max_states),
            ("max_digraph_steps", max_digraph_steps),
            ("max_tokens", max_tokens),
            ("max_parse_steps", max_parse_steps),
        ):
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        self.timeout = timeout
        self.max_states = max_states
        self.max_digraph_steps = max_digraph_steps
        self.max_tokens = max_tokens
        self.max_parse_steps = max_parse_steps
        self.started = time.monotonic()
        self._deadline = None if timeout is None else self.started + timeout
        self.phase = "init"
        self.states = 0
        self.digraph_steps = 0
        self.tokens = 0
        self.parse_steps = 0
        self.checks = 0
        self.exceeded = False
        self._clock_countdown = CLOCK_STRIDE
        self._published_checks = 0
        self._published_exceeded = False
        self._quiet = False

    @classmethod
    def capped(cls, budget: "Optional[Budget]", seconds: float) -> "Budget":
        """*budget* with its deadline narrowed to *seconds* from now.

        When the narrowed deadline trips before the budget's own, the
        charge raises :class:`CapExceeded`, and neither ``exceeded`` nor
        the published counters change.  With *budget* None the result is
        a limitless budget that publishes nothing, so a capped run counts
        exactly what an ungoverned one would.  :meth:`remaining` and
        :meth:`expired` read the narrowed deadline.
        """
        if budget is None:
            budget = cls()
            budget._quiet = True
        cap = time.monotonic() + seconds
        if budget._deadline is None or cap < budget._deadline:
            budget._deadline = cap
        return budget

    # -- introspection -------------------------------------------------

    def elapsed(self) -> float:
        """Wall-clock seconds since the budget was created."""
        return time.monotonic() - self.started

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (may be negative), or None when
        no timeout is set."""
        if self._deadline is None:
            return None
        return self._deadline - time.monotonic()

    def expired(self) -> bool:
        """Non-raising deadline poll, for drivers that stop gracefully
        (the fuzz campaign) rather than abort with an exception."""
        self.checks += 1
        return self._deadline is not None and time.monotonic() >= self._deadline

    def progress(self) -> Dict[str, int]:
        """The partial-progress counters (only the nonzero ones)."""
        snapshot = {
            "states": self.states,
            "digraph_steps": self.digraph_steps,
            "tokens": self.tokens,
            "parse_steps": self.parse_steps,
        }
        report = {key: value for key, value in snapshot.items() if value}
        report["checks"] = self.checks
        return report

    # -- phase & deadline ----------------------------------------------

    def enter_phase(self, name: str) -> None:
        """Record the pipeline phase and check the deadline exactly.

        Phase boundaries are cheap relative to the work inside them, so
        the clock is always read here (no striding).
        """
        self.phase = name
        self.checks += 1
        if self._deadline is not None and time.monotonic() >= self._deadline:
            self._exhaust("timeout", self.timeout)

    def _tick_clock(self) -> None:
        """The strided deadline test shared by the hot-path charges."""
        self._clock_countdown -= 1
        if self._clock_countdown <= 0:
            self._clock_countdown = CLOCK_STRIDE
            if self._deadline is not None and time.monotonic() >= self._deadline:
                self._exhaust("timeout", self.timeout)

    # -- charges (one per unit of governed work) -----------------------

    def charge_states(self, total: int) -> None:
        """Record the automaton's state count (called per interned state
        with the running total, so the cap is exact)."""
        self.checks += 1
        self.states = total
        if self.max_states is not None and total > self.max_states:
            self._exhaust("max_states", self.max_states)
        self._tick_clock()

    def charge_digraph(self, steps: int) -> None:
        """Record *steps* units of digraph traversal work (frame visits
        plus edges inspected)."""
        self.checks += 1
        self.digraph_steps += steps
        if (
            self.max_digraph_steps is not None
            and self.digraph_steps > self.max_digraph_steps
        ):
            self._exhaust("max_digraph_steps", self.max_digraph_steps)
        self._tick_clock()

    def charge_tokens(self, n: int = 1) -> None:
        """Record *n* input tokens consumed by the parse engine."""
        self.checks += 1
        self.tokens += n
        if self.max_tokens is not None and self.tokens > self.max_tokens:
            self._exhaust("max_tokens", self.max_tokens)
        self._tick_clock()

    def charge_parse_step(self) -> None:
        """Record one parser action (shift, reduce or error check)."""
        self.checks += 1
        self.parse_steps += 1
        if (
            self.max_parse_steps is not None
            and self.parse_steps > self.max_parse_steps
        ):
            self._exhaust("max_parse_steps", self.max_parse_steps)
        self._tick_clock()

    def tick(self) -> None:
        """One unit of otherwise-uncapped governed work (relation
        construction, table fill, LA unions): deadline-only, strided."""
        self.checks += 1
        self._tick_clock()

    # -- failure & observability ---------------------------------------

    def _exhaust(self, resource: str, limit: float) -> None:
        # A deadline that passes before the budget's own can only be a cap.
        if resource == "timeout" and (
            self.timeout is None or time.monotonic() < self.started + self.timeout
        ):
            raise CapExceeded(f"capped run stopped in phase {self.phase!r}")
        self.exceeded = True
        self.publish()
        raise BudgetExceeded(
            self.phase, resource, limit, self.elapsed(), self.progress()
        )

    def publish(self) -> None:
        """Absorb the governance counters into the instrument layer
        (``budget.checks`` / ``budget.exceeded``), as deltas so repeated
        calls at phase boundaries never double-count."""
        if self._quiet or not instrument.enabled():
            return
        delta = self.checks - self._published_checks
        if delta:
            instrument.count("budget.checks", delta)
            self._published_checks = self.checks
        if self.exceeded and not self._published_exceeded:
            instrument.count("budget.exceeded")
            self._published_exceeded = True
