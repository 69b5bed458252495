"""Typed failure taxonomy + cooperative resource governance.

The engine's search kernels (AC-3 propagation, backtracking, the
decomp semijoin DP) and the cactus builder are complete but not
polynomial: a hostile query can spin them for hours.  This module
gives every layer a shared, *cooperative* way to stop early:

* :class:`EngineError` roots the taxonomy.  :class:`ResourceExhausted`
  (with subclasses :class:`DeadlineExceeded`, :class:`FuelExhausted`,
  :class:`CactusBudgetExceeded`) is raised by the kernels when a budget
  trips; :class:`WorkerFailure` marks a pool worker that crashed, hung
  past its shard timeout, or returned a corrupt result.
* :class:`Budget` is the cooperative meter: a monotonic wall-clock
  deadline plus an integer fuel counter.  Kernels call
  :meth:`Budget.charge` at coarse search steps (an AC-3 edge revision,
  a backtracking candidate, a semijoin tuple — never per bit), which
  burns fuel on every call but only reads the clock every
  ``_DEADLINE_CHECK_EVERY`` charges; loop heads that run rarely but do
  a lot of work per iteration (one cactus materialised, one coverage
  check) call :meth:`Budget.checkpoint`, which always reads the clock.
* :class:`Answer` is the tri-state surface value.  Inner engine calls
  *raise* on exhaustion; only the outermost entry points
  (``Session.certain_answer``, the parallel batch/screen APIs, the
  boundedness probe) convert the exception into
  ``Answer.unknown(reason)`` so partial results survive.

The outermost-surface contract
==============================

Every outermost ``Session`` method returns an *Answer-compatible*
value — one uniform tri-state convention instead of per-method
inventions:

* scalar surfaces (``certain_answer``) return a plain ``bool`` when
  settled and ``Answer.unknown(reason)`` when a governed budget
  tripped; batch surfaces (``ucq_certain_answers``, governed
  ``evaluate_batch``) return lists whose settled entries are plain
  bools and whose unsettled entries are ``Answer`` UNKNOWNs — settled
  prefixes are never discarded and UNKNOWN is never downgraded to
  ``False``;
* structured results expose the same tri-state through an ``answer``
  property: ``ProbeResult.answer`` (boundedness probes) and
  ``Evaluation.answer`` (semiring evaluation) yield an :class:`Answer`
  whose UNKNOWN carries the probe/evaluation's exhaustion reason;
* ungoverned sessions (no ``deadline_ms``/``hom_fuel``/
  ``cactus_max_nodes``) always return settled values and never an
  UNKNOWN; each method's docstring states its governed behaviour.

``tests/test_answer_contract.py`` is the conformance suite for this
contract.

Budget scoping follows the session: :func:`governed_scope` installs one
operation-wide budget on ``session.active_budget`` at a top-level
operation (a d-sirup evaluation, a boundedness probe, a batch sweep),
and :func:`call_budget` hands every nested engine call that shared
budget — or a fresh transient one built from the session config when no
scope is active.  The slot is *per-thread* (a thread-local on the
session), so concurrent top-level operations on one session — the
service tier runs same-tenant jobs on parallel executor threads — each
govern their own deadline, fuel, and cancel hook.  Ungoverned configs (``deadline_ms``, ``hom_fuel`` and
``cactus_max_nodes`` all unset) resolve to ``budget = None`` everywhere,
so governance costs nothing until it is switched on.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = [
    "Answer",
    "Budget",
    "CactusBudgetExceeded",
    "DeadlineExceeded",
    "EngineError",
    "FuelExhausted",
    "JobCancelled",
    "LeaseExpired",
    "ResourceExhausted",
    "StoreCorruption",
    "UnknownSemiring",
    "WorkerFailure",
    "call_budget",
    "governed_scope",
]


# ----------------------------------------------------------------------
# Taxonomy
# ----------------------------------------------------------------------


class EngineError(Exception):
    """Root of the engine's typed failure taxonomy."""


class ResourceExhausted(EngineError):
    """A cooperative budget tripped mid-search.

    ``reason`` is the machine-readable tag carried into tri-state
    results (``Answer.unknown(reason)``) and across the pool wire.
    """

    reason = "resource"

    def __init__(self, message: str = "", *, reason: str | None = None):
        if reason is not None:
            self.reason = reason
        super().__init__(message or self.reason)

    @staticmethod
    def from_reason(reason: str, message: str = "") -> "ResourceExhausted":
        """Rebuild the typed exception from a wire-carried reason tag."""
        cls = _REASON_CLASSES.get(reason)
        if cls is None:
            return ResourceExhausted(message, reason=reason)
        return cls(message)


class DeadlineExceeded(ResourceExhausted):
    """The operation's wall-clock ``deadline_ms`` passed."""

    reason = "deadline"


class FuelExhausted(ResourceExhausted):
    """The operation burned its ``hom_fuel`` search-step budget."""

    reason = "fuel"


class CactusBudgetExceeded(ResourceExhausted):
    """A cactus grew past the session's ``cactus_max_nodes`` cap."""

    reason = "cactus-nodes"


_REASON_CLASSES = {
    cls.reason: cls
    for cls in (DeadlineExceeded, FuelExhausted, CactusBudgetExceeded)
}


class WorkerFailure(EngineError):
    """A pool worker crashed, hung past its shard timeout, or returned
    a result of the wrong shape (corrupt wire)."""


class UnknownSemiring(EngineError):
    """A ``semiring=`` argument named no registered instance (see
    :func:`repro.core.semiring.resolve_semiring` /
    :func:`~repro.core.semiring.register_semiring`)."""


class JobCancelled(EngineError):
    """A service job was cancelled cooperatively.

    Raised from :meth:`Budget.charge` / :meth:`Budget.checkpoint` when
    the budget's ``cancel`` hook reports a pending cancellation, and by
    the job manager's between-shard checks.  Deliberately *not* a
    :class:`ResourceExhausted`: governed surfaces convert exhaustion
    into ``Answer.unknown`` partial results, but a cancellation must
    propagate all the way out so the job settles in the terminal
    ``CANCELLED`` state instead of completing with UNKNOWN answers.
    """


class LeaseExpired(EngineError):
    """A job's ownership lease lapsed (see ``lease:v1`` in
    :mod:`repro.core.store`): the holder stopped heartbeating — a
    crashed process or a stuck executor thread — so another manager may
    take the job over.  Raised when an operation is attempted under a
    lease the caller no longer holds."""


class StoreCorruption(EngineError):
    """The durable store failed an integrity check: a torn or truncated
    sqlite file, a per-row checksum mismatch, or a schema-version tag
    from an incompatible engine build.

    Under the default ``durability="best-effort"`` policy the store
    handles this itself — the bad file is quarantined (renamed aside,
    never trusted) and a fresh store rebuilt, or the store degrades to
    the in-memory tier — and this exception is never raised.  Under
    ``durability="strict"`` the same conditions raise it, so operators
    who want to *know* about corruption instead of silently recomputing
    can fail loudly."""


# ----------------------------------------------------------------------
# Tri-state answers
# ----------------------------------------------------------------------


class Answer:
    """A tri-state certain-answer value: TRUE, FALSE, or UNKNOWN(reason).

    Known answers compare equal to (and hash like) the plain booleans
    they wrap, so governed and ungoverned result lists agree wherever
    no budget tripped; ``bool()`` of an UNKNOWN raises
    :class:`EngineError` rather than silently leaning either way.
    Batch surfaces keep known entries as plain ``True``/``False`` and
    use :class:`Answer` objects only for UNKNOWN slots
    (:meth:`decode`), so partial results are preserved verbatim.
    """

    __slots__ = ("value", "reason")

    TRUE: "Answer"
    FALSE: "Answer"

    def __init__(self, value: bool | None, reason: str | None = None):
        self.value = value
        self.reason = reason

    @classmethod
    def unknown(cls, reason: str) -> "Answer":
        return cls(None, reason)

    @property
    def known(self) -> bool:
        return self.value is not None

    def __bool__(self) -> bool:
        if self.value is None:
            raise EngineError(
                f"UNKNOWN({self.reason}) has no truth value; check "
                "`.known` before branching on a governed answer"
            )
        return self.value

    def __eq__(self, other) -> bool:
        if isinstance(other, Answer):
            return (self.value, self.reason) == (other.value, other.reason)
        if isinstance(other, bool):
            return self.value is other
        return NotImplemented

    def __hash__(self) -> int:
        if self.value is not None:
            return hash(self.value)  # match the bool it wraps
        return hash((None, self.reason))

    def __repr__(self) -> str:
        if self.value is None:
            return f"UNKNOWN({self.reason})"
        return "TRUE" if self.value else "FALSE"

    def encode(self) -> bool | str:
        """The wire form batch entries travel as: a plain bool for a
        known answer, the reason tag for an UNKNOWN one."""
        if self.value is None:
            return self.reason or "resource"
        return self.value

    @staticmethod
    def decode(entry: "bool | str | Answer") -> "bool | Answer":
        """Inverse of :meth:`encode` for one batch entry: bools pass
        through untouched, reason strings become UNKNOWN answers."""
        if isinstance(entry, str):
            return Answer(None, entry)
        if isinstance(entry, Answer):
            return entry
        return bool(entry)


Answer.TRUE = Answer(True)
Answer.FALSE = Answer(False)


# ----------------------------------------------------------------------
# Budgets
# ----------------------------------------------------------------------

# Deadline charges between clock reads.  A charge is a coarse search
# step (edge revision, backtracking candidate, semijoin tuple), each
# already worth many machine operations, so reading the clock every
# 1024th keeps governance overhead out of the perf gates while bounding
# the overshoot to a sliver of any realistic deadline.
_DEADLINE_CHECK_EVERY = 1024


class Budget:
    """One operation's cooperative resource meter.

    Mutable and single-threaded by design: the same object is threaded
    through every nested engine call of one governed operation, so fuel
    and deadline are shared across backends, cactus construction and
    coverage checks alike.
    """

    __slots__ = ("deadline", "fuel", "cancel", "_countdown")

    def __init__(
        self,
        deadline_ms: int | None = None,
        fuel: int | None = None,
        cancel=None,
    ):
        self.deadline = (
            None
            if deadline_ms is None
            else time.monotonic() + deadline_ms / 1000.0
        )
        self.fuel = fuel
        # Cooperative cancellation: a zero-arg callable polled at the
        # same cadence as the deadline (every checkpoint, every
        # ``_DEADLINE_CHECK_EVERY``-th charge).  Truthy => the operation
        # raises JobCancelled at its next cooperative point.  Parent
        # process only — budgets never ship to pool workers.
        self.cancel = cancel
        self._countdown = _DEADLINE_CHECK_EVERY

    @classmethod
    def from_config(cls, config) -> "Budget | None":
        """A fresh budget for one operation under ``config`` — ``None``
        when the config is ungoverned, so the zero-governance fast
        paths stay branch-on-None cheap."""
        if config.deadline_ms is None and config.hom_fuel is None:
            return None
        return cls(config.deadline_ms, config.hom_fuel)

    def charge(self, amount: int = 1) -> None:
        """Burn ``amount`` fuel and (periodically) check the deadline.

        Raises :class:`FuelExhausted` / :class:`DeadlineExceeded`; the
        kernels let these propagate to the governed surface.
        """
        if self.fuel is not None:
            self.fuel -= amount
            if self.fuel < 0:
                raise FuelExhausted("hom_fuel search-step budget exhausted")
        if self.deadline is not None or self.cancel is not None:
            self._countdown -= 1
            if self._countdown <= 0:
                self._countdown = _DEADLINE_CHECK_EVERY
                if (
                    self.deadline is not None
                    and time.monotonic() >= self.deadline
                ):
                    raise DeadlineExceeded("deadline_ms exceeded")
                if self.cancel is not None and self.cancel():
                    raise JobCancelled("operation cancelled mid-search")

    def checkpoint(self) -> None:
        """Immediate deadline + cancellation check, for loop heads
        whose iterations are few but individually expensive (cactus
        materialisation, one coverage check, one batch item)."""
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise DeadlineExceeded("deadline_ms exceeded")
        if self.cancel is not None and self.cancel():
            raise JobCancelled("operation cancelled at checkpoint")

    def remaining_fuel(self) -> int | None:
        return self.fuel


# ----------------------------------------------------------------------
# Session scoping
# ----------------------------------------------------------------------


def _resolve_session(session):
    """``session``, or the process default session when it is ``None``.

    The engine's one default-session lookup: a public entry point that
    takes ``session=None`` resolves it here once and hands the result
    to everything below it.
    """
    if session is not None:
        return session
    from ..session import default_session

    return default_session()


def call_budget(session) -> Budget | None:
    """The budget one engine call should charge.

    Inside :func:`governed_scope` this is the operation-wide shared
    budget; outside, a fresh transient budget built from the session
    config (making ``hom_fuel`` a per-call cap for bare engine calls).
    ``None`` — the common, ungoverned case — means "don't charge".
    """
    s = _resolve_session(session)
    active = s.active_budget
    if active is not None:
        return active
    return Budget.from_config(s.config)


@contextmanager
def governed_scope(session):
    """Install one operation-wide budget on the session.

    Top-level operations (d-sirup evaluation, boundedness probes, batch
    sweeps, worker chunk tasks) enter this scope so every nested engine
    call shares a single deadline and fuel pool via
    :func:`call_budget`.  Nested scopes reuse the outer budget;
    ungoverned configs yield ``None`` and install nothing.
    """
    s = _resolve_session(session)
    if s.active_budget is not None:
        yield s.active_budget
        return
    budget = Budget.from_config(s.config)
    if budget is None:
        yield None
        return
    s.active_budget = budget
    try:
        yield budget
    finally:
        s.active_budget = None
