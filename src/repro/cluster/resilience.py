"""Resilient leaf execution: retry, timeout, failover, degradation.

The serving-at-scale literature treats leaf loss and tail latency as
first-class (a root that fans out to hundreds of leaves sees one of
them misbehave on essentially every query); this module gives the
cluster root (:meth:`~repro.cluster.root.SearchCluster.search`, the
only caller) a policy-driven execution core:

* **bounded retry** — each candidate engine gets ``1 + max_retries``
  attempts, back to back: fault draws are keyed on (seed, shard,
  query) and count attempts, not time, so a pause between attempts
  would change nothing but the elapsed time;
* **per-attempt timeout** — cooperative: the attempt runs to completion
  and its *result is discarded* when it exceeded ``timeout_seconds``
  (a Python thread cannot be interrupted mid-search; discarding the
  late answer models the root abandoning a straggler). Timed-out
  attempts consume retry budget like failures — except on the very
  last attempt of the last candidate, where the late-but-valid answer
  is *kept*: the timeout is still counted, but a query the leaf
  actually answered is never reported failed when no retry or replica
  remains to do better;
* **failover** — when a candidate exhausts its budget, execution moves
  to the shard's next replica with a fresh attempt budget;
* **graceful degradation** — when every replica is exhausted the shard
  is reported failed; under ``allow_degraded`` the root merges without
  it, otherwise a :class:`~repro.errors.LeafExecutionError` naming the
  (query, shard) is raised.

Time is read through an injectable :class:`repro.clock.Clock`
(defaulting to the wall clock): attempt timing goes through it, so the
fault-matrix tests drive timeouts in zero wall time with a
:class:`repro.clock.VirtualClock`.

The default policy (:data:`STRICT_POLICY`: no timeout, no retries, no
degradation) runs the same ladder with one attempt: a leaf that raises
is recorded failed and re-raised as a :class:`LeafExecutionError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.clock import WALL_CLOCK, Clock
from repro.errors import ConfigurationError, LeafExecutionError
from repro.observability.observer import current_observer


@dataclass(frozen=True)
class ResiliencePolicy:
    """How the root treats a misbehaving leaf."""

    #: Per-attempt wall-clock budget (None = wait forever).
    timeout_seconds: Optional[float] = None
    #: Extra attempts per candidate engine after the first.
    max_retries: int = 0
    #: Merge without an exhausted shard (True) or raise (False).
    allow_degraded: bool = True

    def __post_init__(self) -> None:
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ConfigurationError("timeout must be positive (or None)")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")


#: Pre-resilience semantics: one attempt, no timeout, failure raises.
STRICT_POLICY = ResiliencePolicy(allow_degraded=False)


@dataclass
class LeafOutcome:
    """What happened executing one (query, shard) pair."""

    shard_index: int
    #: The merged-in result; None when the shard failed outright.
    result: Optional[object] = None
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    #: Replica switches (0 = the primary answered).
    failovers: int = 0
    failed: bool = False
    #: repr of the last error, for reports and traces.
    error: Optional[str] = None
    #: Wall-clock spent on this shard including retries.
    elapsed_seconds: float = 0.0
    #: Per-attempt wall-clock of the *answering* attempt only.
    attempt_seconds: float = 0.0

    def publish_metrics(self, registry) -> None:
        """The recovery steps this leaf took, one count per step."""
        for event, count in (("failover", self.failovers),
                             ("retry", self.retries),
                             ("timeout", self.timeouts),
                             ("shard_failed", int(self.failed))):
            if count:
                registry.counter(
                    "cluster.resilience_events",
                    "leaf recovery steps "
                    "(retry/timeout/failover/shard_failed)",
                ).inc(count, event=event, shard=str(self.shard_index))

    def describe(self) -> str:
        """One report line, e.g. for the trace CLI."""
        state = "FAILED" if self.failed else "ok"
        detail = f" [{self.error}]" if self.failed and self.error else ""
        return (
            f"shard {self.shard_index}: {state} attempts={self.attempts} "
            f"retries={self.retries} timeouts={self.timeouts} "
            f"failovers={self.failovers} "
            f"elapsed={self.elapsed_seconds * 1e3:.2f}ms{detail}"
        )


def execute_leaf(candidates: List, pruned, k: int,
                 policy: ResiliencePolicy, shard_index: int,
                 expression: str = "",
                 clock: Optional[Clock] = None) -> LeafOutcome:
    """Run one pruned sub-query against a shard's replica chain.

    ``candidates`` is the primary engine followed by its replicas.
    Raises :class:`LeafExecutionError` only when the shard exhausts and
    the policy forbids degradation; otherwise always returns an outcome
    (``failed=True`` marks an exhausted shard for the merge to skip).
    ``clock`` supplies attempt timing (wall clock by default). The
    outcome is emitted to the current observer on every exit, the
    raising one included.
    """
    if not candidates:
        raise ConfigurationError(f"shard {shard_index} has no engines")
    outcome = LeafOutcome(shard_index=shard_index)
    try:
        return _run_leaf(outcome, candidates, pruned, k, policy,
                         expression, WALL_CLOCK if clock is None else clock)
    finally:
        current_observer().emit(outcome)


def _run_leaf(outcome: LeafOutcome, candidates: List, pruned, k: int,
              policy: ResiliencePolicy, expression: str,
              clock: Clock) -> LeafOutcome:
    """:func:`execute_leaf`'s attempt ladder, filling ``outcome``."""
    shard_index = outcome.shard_index
    started = clock.now()
    last_error: Optional[BaseException] = None

    for candidate_index, engine in enumerate(candidates):
        if candidate_index > 0:
            outcome.failovers += 1
        for attempt in range(policy.max_retries + 1):
            if attempt > 0:
                outcome.retries += 1
            outcome.attempts += 1
            attempt_start = clock.now()
            try:
                result = engine.search(pruned, k=k)
            except Exception as error:
                last_error = error
                continue
            attempt_seconds = clock.now() - attempt_start
            if (policy.timeout_seconds is not None
                    and attempt_seconds > policy.timeout_seconds):
                outcome.timeouts += 1
                budget_exhausted = (
                    candidate_index == len(candidates) - 1
                    and attempt == policy.max_retries
                )
                if budget_exhausted:
                    # A valid answer exists and nothing remains that
                    # could produce a timelier one — keep the late
                    # result (the timeout above is still counted)
                    # rather than degrading a query we answered.
                    outcome.result = result
                    outcome.attempt_seconds = attempt_seconds
                    outcome.elapsed_seconds = clock.now() - started
                    return outcome
                last_error = LeafExecutionError(
                    f"shard {shard_index} attempt took "
                    f"{attempt_seconds:.3f}s "
                    f"(timeout {policy.timeout_seconds:.3f}s)",
                    shard_index=shard_index, expression=expression,
                )
                continue
            outcome.result = result
            outcome.attempt_seconds = attempt_seconds
            outcome.elapsed_seconds = clock.now() - started
            return outcome

    outcome.failed = True
    outcome.error = repr(last_error) if last_error is not None else None
    outcome.elapsed_seconds = clock.now() - started
    if not policy.allow_degraded:
        raise LeafExecutionError(
            f"query {expression!r} exhausted shard {shard_index} after "
            f"{outcome.attempts} attempts across {len(candidates)} "
            f"replica(s): {outcome.error}",
            shard_index=shard_index, expression=expression,
        ) from last_error
    return outcome


def describe_outcomes(outcomes: List[Optional[LeafOutcome]]) -> str:
    """Multi-line per-shard resilience report (trace CLI helper)."""
    lines = []
    for outcome in outcomes:
        if outcome is None:
            continue
        lines.append(outcome.describe())
    return "\n".join(lines) if lines else "(no shards executed)"
