"""Fault-space equivalence reduction (dead points, domination).

A campaign over ``N`` fault points pays one emulated run per point,
but most points provably cannot change what the oracle observes: a
``reg-bitflip`` into a register that is overwritten before any read, a
``skip`` of an instruction whose definitions are all dead, an encoding
flip that no longer decodes.  This module prunes those points *before*
execution, using the per-step def/use facts of
:mod:`repro.analysis.traceflow`, and emits a
:class:`ReductionCertificate` that maps every elided point back onto
the verdict it shares — so the reduced campaign's report covers the
**full** space, point for point, and the certificate is checkable
against the unreduced run, ``Faulter.run_campaign(model,
reduce=False)``.

Two reductions, mirroring the multi-fault methodology (Boespflug et
al.); a single fault is a 1-tuple under the same rules:

* **dead points** — a fault with a *dead* proof is bit-identical to
  the unfaulted continuation, so a point whose faults are all dead
  (each settled before the next one diverges) inherits the bad
  baseline's verdict without running; a *crash* proof (undecodable
  mutated encoding) at the first live fault inherits ``CRASHED`` under
  oracles that classify crashes deterministically.
* **domination** (k-fault tuples) — a tuple whose leading faults are
  dead *and settled* before the first live fault diverges collapses
  onto that fault's single-fault outcome; the survivor outcomes come
  from a shared probe pass, run as total-cap points on the campaign
  backend's master walk (:mod:`repro.faulter.executor`).

The reduced space is a first-class
:class:`~repro.faulter.space.FaultSpace` spec — picklable,
partitionable, streamable through both backends unchanged — because
every proof is a deterministic function of (image, bad input): a
worker process re-derives identical facts and reduces its own window
of the base space to exactly the survivors the whole reduced
enumeration holds there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.emu.machine import MAX_STEPS
from repro.faulter.executor import ExecutionStats
from repro.faulter.oracle import ExitCodeOracle, MarkerOracle
from repro.faulter.report import CRASHED, _detail_to_json
from repro.faulter.space import (
    TOTAL_CAP,
    ExhaustiveSpace,
    FaultPoint,
    FaultSpace,
    KFaultProductSpace,
    ProductSpace,
    SpaceContext,
    WindowedSpace,
)

# Certificate example lists are capped so report.meta stays small even
# for million-point spaces; the *counts* are always exact.
EXAMPLE_CAP = 32

# A tuple component is probed only when it leads >= this many tuples:
# one probe costs about one campaign run, so probing a single-use
# component cannot win.
MIN_PROBE_USES = 2

_SPACES = (ExhaustiveSpace, WindowedSpace, KFaultProductSpace, ProductSpace)
_TUPLE_SPACES = (KFaultProductSpace, ProductSpace)

_MISSING = object()


def _disposer(ctx: SpaceContext, began: dict, allow_crash: bool):
    """The elision decision for fault points on ``ctx``'s trace.

    Returns ``disposition(point) -> (kind, info)``; a single fault is
    a 1-tuple.  It walks the point's faults past its provably dead
    prefix, memoizing each fault's proof from the model's reduction
    hook, and answers:

    * ``("baseline", proof)`` — every fault is dead, so the run is the
      bad baseline (``proof`` is the last fault's dead proof);
    * ``("crash", None)`` — the first live fault statically crashes
      and the oracle classifies crashes deterministically;
    * ``("probe", key)`` — the first live fault ``key`` has a probed
      single-fault outcome in ``began`` and every later fault's step
      is at or past the probe run's end, so the extra faults had no
      substrate;
    * ``("run", key)`` — the point must execute; ``key`` is its first
      live fault, or ``None`` when a stripped fault has not settled by
      the divergence point, which voids the proof.

    The facts, memo and hook are bound once here, so a campaign's
    per-point loop pays one call per point.
    """
    facts = ctx.facts
    proofs = facts.prune_cache
    prune = ctx.model.prune_variant

    def disposition(point: FaultPoint):
        details = point.details
        settled = -1.0
        proof = None
        index = 0
        for step in point.steps:
            key = (step, details[index])
            proof = proofs.get(key, _MISSING)
            if proof is _MISSING:
                proof = proofs[key] = prune(step, key[1], facts)
            if proof is not None and proof.kind == "dead":
                if proof.settled > settled:
                    settled = proof.settled
                index += 1
                continue
            if settled >= step:
                return ("run", None)
            if proof is not None and proof.kind == "crash" and allow_crash:
                return ("crash", None)
            if began:
                ends = began.get(key)
                if ends is not None and all(
                    later >= ends for later in point.steps[index + 1:]
                ):
                    return ("probe", key)
            return ("run", key)
        return ("baseline", proof)

    return disposition


@dataclass(frozen=True)
class ReducedSpace(FaultSpace):
    """The survivor subset of a single- or k-fault base space.

    Enumerates the base space and yields every point that
    :func:`_disposer` does not elide, unchanged: a survivor keeps its
    base ``order``, so the executed outcomes merge back into the base
    enumeration by position.  It partitions by reducing each partition
    of its base, so a worker disposes only the points of its own base
    window.  ``probes`` carries ``((step, detail), resume point)``
    pairs for a tuple space's probed first-live faults — data only, so
    the space and each of its partitions pickle in O(probes),
    independent of the point population.
    """

    base: FaultSpace
    probes: tuple = ()
    allow_crash: bool = True

    @property
    def cap_policy(self) -> str:  # type: ignore[override]
        return self.base.cap_policy

    def enumerate(self, ctx: SpaceContext) -> Iterator[FaultPoint]:
        disposition = _disposer(ctx, dict(self.probes), self.allow_crash)
        for point in self.base.enumerate(ctx):
            if disposition(point)[0] == "run":
                yield point

    def partition(
        self, ctx: SpaceContext, parts: int, max_points: int | None = None
    ) -> list[FaultSpace]:
        # a partition holds at most as many survivors as base points,
        # so ``max_points`` bounds it as it bounds the base window
        return [
            ReducedSpace(part, self.probes, self.allow_crash)
            for part in self.base.partition(ctx, parts, max_points)
        ]

    def describe(self) -> str:
        return f"reduced({self.base.describe()})"


def _run_probes(faulter, model, components, backend):
    """Execute each ``(step, detail)`` as a single total-cap fault on
    a fresh master walk of ``backend``'s tier.

    Returns ``({(step, detail): (outcome, resume point)}, stats)``
    where the resume point is the absolute trace step at which the
    probe run ended (one past its last executed step, for terminated
    runs).
    """
    results: dict = {}
    stats = ExecutionStats()
    if not components:
        return results, stats
    points = [
        FaultPoint(order, (step,), (detail,))
        for order, (step, detail) in enumerate(
            sorted(components, key=lambda c: c[0])
        )
    ]
    executor = backend.executor(faulter, model, TOTAL_CAP)
    for point, result in executor.walk(points, stats):
        resumed = point.first_step + result.steps
        if result.reason != MAX_STEPS:
            resumed += 1
        key = (point.first_step, point.details[0])
        results[key] = (faulter.classify(result), resumed)
    return results, stats


def _json_settled(settled: float):
    if math.isinf(settled):
        return "inf"
    return int(settled)


@dataclass
class ReductionCertificate:
    """The checkable record of one reduced campaign.

    A thin wrapper over a JSON-native payload (it rides in
    ``report.meta["reduction"]`` and must survive
    ``report.to_dict``/``from_dict`` losslessly).  Counts are exact;
    the example lists are capped at :data:`EXAMPLE_CAP` entries.
    """

    payload: dict

    def to_dict(self) -> dict:
        return self.payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ReductionCertificate":
        return cls(dict(payload))

    @property
    def enabled(self) -> bool:
        return bool(self.payload.get("enabled"))

    @property
    def full_points(self) -> int:
        return self.payload.get("full_points", 0)

    @property
    def executed_points(self) -> int:
        return self.payload.get("executed_points", 0)

    @property
    def speedup(self) -> float:
        executed = self.executed_points
        if not executed:
            return float(self.full_points or 1)
        return self.full_points / executed

    def summary(self) -> str:
        if not self.enabled:
            reason = self.payload.get("reason", "?")
            return f"reduction: off ({reason})"
        parts = []
        for label in (
            "dead_points",
            "crash_points",
            "dominated_points",
        ):
            count = self.payload.get(label, 0)
            if count:
                parts.append(f"{label.split('_')[0]} {count}")
        probes = self.payload.get("probes", 0)
        if probes:
            parts.append(f"probes {probes}")
        detail = f" ({', '.join(parts)})" if parts else ""
        return (
            f"reduction: {self.full_points} -> "
            f"{self.executed_points} executed, "
            f"{self.speedup:.1f}x{detail}"
        )


class ReductionPlan:
    """One campaign's reduction: the survivor space plus the expansion
    that maps executed outcomes back onto the full space."""

    def __init__(
        self,
        ctx: SpaceContext,
        space: ReducedSpace,
        baseline_outcome: str,
        probe_outcomes: Optional[dict] = None,
        probe_stats: Optional[ExecutionStats] = None,
    ):
        self.ctx = ctx
        self.base = space.base
        self.space = space
        self.baseline_outcome = baseline_outcome
        self.probe_outcomes = probe_outcomes or {}
        self.probe_stats = probe_stats or ExecutionStats()
        # certificate accumulators (filled by expand)
        self._full = 0
        self._executed = 0
        self._dead = 0
        self._crashed = 0
        self._dominated = 0
        self._dead_reasons: dict[str, int] = {}
        self._dead_examples: list[dict] = []

    # -- expansion -----------------------------------------------------

    def expand(self, outcomes) -> Iterator[tuple[FaultPoint, str]]:
        """Merge the executed survivor outcomes (in enumeration order)
        back into the full base enumeration, yielding every base point
        with its verdict."""
        executed = iter(outcomes)
        disposition = _disposer(
            self.ctx, dict(self.space.probes), self.space.allow_crash
        )
        for point in self.base.enumerate(self.ctx):
            self._full += 1
            kind, info = disposition(point)
            if kind == "run":
                self._executed += 1
                yield point, self._take(executed, point)
            elif kind == "baseline":
                self._dead += 1
                if len(point.steps) == 1:
                    # a single fault's proof has one reason to record;
                    # an all-dead tuple's has one per fault
                    self._note_dead(point, info)
                yield point, self.baseline_outcome
            elif kind == "crash":
                self._crashed += 1
                yield point, CRASHED
            else:
                self._dominated += 1
                yield point, self.probe_outcomes[info][0]

    @staticmethod
    def _take(executed, point: FaultPoint):
        reduced, outcome = next(executed)
        if (
            reduced.order != point.order
            or reduced.steps != point.steps
            or reduced.details != point.details
        ):
            raise RuntimeError(
                "reduced enumeration out of sync with its base space: "
                f"expected #{point.order} {point.steps}/{point.details}, "
                f"executed #{reduced.order} "
                f"{reduced.steps}/{reduced.details}"
            )
        return outcome

    def _note_dead(self, point: FaultPoint, verdict) -> None:
        self._dead_reasons[verdict.reason] = (
            self._dead_reasons.get(verdict.reason, 0) + 1
        )
        if len(self._dead_examples) < EXAMPLE_CAP:
            self._dead_examples.append(
                {
                    "step": point.steps[0],
                    "detail": _detail_to_json(point.details[0]),
                    "reason": verdict.reason,
                    "settled": _json_settled(verdict.settled),
                }
            )

    # -- certificate ---------------------------------------------------

    def merge_stats(self, stats) -> None:
        """Fold the probe pass's step counters into the campaign's."""
        stats.merge(self.probe_stats)

    def certificate(self) -> ReductionCertificate:
        facts = self.ctx.facts
        payload: dict = {
            "enabled": True,
            "space": self.base.describe(),
            "reduced_space": self.space.describe(),
            "cap_policy": self.base.cap_policy,
            "full_points": self._full,
            "executed_points": self._executed,
            "dead_points": self._dead,
            "crash_points": self._crashed,
            "dominated_points": self._dominated,
            "dead_reasons": dict(sorted(self._dead_reasons.items())),
            "dead_examples": self._dead_examples,
            "baseline_outcome": self.baseline_outcome,
            "analysis_steps": facts.scan_steps if facts else 0,
        }
        if isinstance(self.base, _TUPLE_SPACES):
            payload["probes"] = len(self.probe_outcomes)
            payload["probe_steps"] = self.probe_stats.emulated_steps
            payload["probe_points"] = [
                {
                    "step": step,
                    "detail": _detail_to_json(detail),
                    "outcome": outcome,
                    "resumed": resumed,
                }
                for (step, detail), (outcome, resumed) in sorted(
                    self.probe_outcomes.items(),
                    key=lambda item: item[0][0],
                )[:EXAMPLE_CAP]
            ]
        return ReductionCertificate(payload)


def plan_reduction(
    faulter,
    model,
    ctx: SpaceContext,
    space: FaultSpace,
    backend,
) -> tuple[Optional[ReductionPlan], Optional[str]]:
    """Build a :class:`ReductionPlan` for one campaign, or explain why
    reduction does not apply: ``(plan, None)`` or ``(None, reason)``.

    ``backend`` is the campaign's
    :class:`~repro.faulter.engine.ExecutionBackend`; a k-fault plan
    runs its probe pass on a master walk of that backend's tier.

    Gates, in order: the context must carry trace facts; the bad
    baseline must have terminated (an unterminated baseline makes
    "identical to the unfaulted continuation" cap-relative); the space
    must be a known single-fault or k-fault-tuple enumerator (suffix
    -cap tuples never arise; total-cap is what makes domination
    exact).  Only tuple spaces plan probes.
    """
    if ctx.facts is None:
        return None, "no-analysis-context"
    baseline = getattr(faulter, "bad_baseline", None)
    if baseline is None:
        return None, "no-baseline"
    if baseline.reason == MAX_STEPS:
        return None, "unterminated-baseline"
    if not isinstance(space, _SPACES):
        return None, f"unsupported-space:{space.describe()}"
    allow_crash = isinstance(
        faulter.oracle, (MarkerOracle, ExitCodeOracle)
    )
    baseline_outcome = faulter.classify(baseline)
    if not isinstance(space, _TUPLE_SPACES):
        reduced = ReducedSpace(space, allow_crash=allow_crash)
        return ReductionPlan(ctx, reduced, baseline_outcome), None
    if space.cap_policy != TOTAL_CAP:
        return None, "suffix-cap-tuple-space"
    uses: dict = {}
    disposition = _disposer(ctx, {}, allow_crash)
    for point in space.enumerate(ctx):
        kind, key = disposition(point)
        if kind == "run" and key is not None:
            uses[key] = uses.get(key, 0) + 1
    components = {
        key for key, count in uses.items() if count >= MIN_PROBE_USES
    }
    probe_outcomes, probe_stats = _run_probes(
        faulter, model, components, backend
    )
    probes = tuple(
        sorted(
            (
                (key, resumed)
                for key, (outcome, resumed) in probe_outcomes.items()
            ),
            key=lambda item: item[0][0],
        )
    )
    reduced = ReducedSpace(space, probes=probes, allow_crash=allow_crash)
    plan = ReductionPlan(
        ctx,
        reduced,
        baseline_outcome,
        probe_outcomes=probe_outcomes,
        probe_stats=probe_stats,
    )
    return plan, None
