"""Fault-space equivalence reduction (dead points, classes, domination).

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

Three reductions, mirroring the multi-fault methodology (Boespflug et
al.) and ARMORY's fault-model reductions:

* **dead points** — a variant with a *dead* proof is bit-identical to
  the unfaulted continuation, so it inherits the bad baseline's
  verdict without running; a *crash* proof (undecodable mutated
  encoding) inherits ``CRASHED`` under oracles that classify crashes
  deterministically.
* **equivalence classes** — variants with identical live-state effect
  (e.g. two ``flag-stuck`` forces with no consumer between them) share
  one representative run.  Only total-cap spaces merge: suffix-cap
  budgets differ per point, so class members are not run-identical.
* **domination** (k-fault tuples) — a tuple whose leading faults are
  dead *and settled* before the first live fault diverges collapses
  onto that fault's single-fault outcome; the survivor outcomes come
  from a shared probe pass, run as total-cap points on the campaign
  backend's master walk (:mod:`repro.faulter.executor`).  A tuple of
  all-dead faults collapses onto the baseline outcome outright.

The reduced spaces are first-class
:class:`~repro.faulter.space.FaultSpace` specs — picklable,
partitionable, streamable through both backends unchanged — because
every proof is a deterministic function of (image, bad input): worker
processes re-derive identical facts and re-enumerate identical
survivor sets.
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
    SampledSpace,
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

_SINGLE_SPACES = (ExhaustiveSpace, WindowedSpace, SampledSpace)
_TUPLE_SPACES = (KFaultProductSpace, ProductSpace)


def _prune(ctx: SpaceContext, step: int, detail: tuple):
    """Memoized per-variant proof from the model's reduction hook."""
    facts = ctx.facts
    key = (step, detail)
    cached = facts.prune_cache.get(key, _MISSING)
    if cached is not _MISSING:
        return cached
    verdict = ctx.model.prune_variant(step, detail, facts)
    facts.prune_cache[key] = verdict
    return verdict


def _class_key(ctx: SpaceContext, step: int, detail: tuple):
    """Memoized equivalence-class key from the model's hook."""
    facts = ctx.facts
    key = (step, detail)
    cached = facts.class_cache.get(key, _MISSING)
    if cached is not _MISSING:
        return cached
    value = ctx.model.variant_class(step, detail, facts)
    facts.class_cache[key] = value
    return value


_MISSING = object()


@dataclass(frozen=True)
class ReducedSpace(FaultSpace):
    """The survivor subset of a single-fault base space.

    Enumerates the base space, drops every point with a dead proof
    (and, under crash-deterministic oracles, every guaranteed-crash
    point), keeps one representative per equivalence class when
    ``merge`` is set, and renumbers the survivors ``0..R-1`` so the
    engine's streaming/partitioning machinery applies unchanged.
    """

    base: FaultSpace
    allow_crash: bool = True
    merge: bool = False

    @property
    def cap_policy(self) -> str:  # type: ignore[override]
        return self.base.cap_policy

    def enumerate(self, ctx: SpaceContext) -> Iterator[FaultPoint]:
        order = 0
        seen: set = set()
        for point in self.base.enumerate(ctx):
            step = point.steps[0]
            detail = point.details[0]
            verdict = _prune(ctx, step, detail)
            if verdict is not None and (
                verdict.kind == "dead"
                or (verdict.kind == "crash" and self.allow_crash)
            ):
                continue
            if self.merge:
                key = _class_key(ctx, step, detail)
                if key is not None:
                    if key in seen:
                        continue
                    seen.add(key)
            yield FaultPoint(order, point.steps, point.details)
            order += 1

    def describe(self) -> str:
        return f"reduced({self.base.describe()})"


def _strip_leading_dead(
    ctx: SpaceContext, point: FaultPoint, allow_crash: bool
):
    """Walk a tuple's components past its provably-dead prefix.

    Returns ``("baseline", None)`` when every component is dead (no
    divergence ever happens, so the run is the bad baseline),
    ``("crash", None)`` for a static crash at the first live
    component, ``("live", index)`` at the first component that
    diverges — or ``None`` when a stripped fault has not settled by
    the divergence point, which voids the proof.
    """
    settled = -1.0
    for index in range(len(point.steps)):
        step = point.steps[index]
        detail = point.details[index]
        verdict = _prune(ctx, step, detail)
        if verdict is not None and verdict.kind == "dead":
            settled = max(settled, verdict.settled)
            continue
        if settled >= step:
            return None
        if (
            verdict is not None
            and verdict.kind == "crash"
            and allow_crash
        ):
            return ("crash", None)
        return ("live", index)
    return ("baseline", None)


def _tuple_disposition(
    ctx: SpaceContext,
    point: FaultPoint,
    began: dict,
    allow_crash: bool,
):
    """Elision decision for one k-fault tuple.

    ``None`` means the tuple must be executed.  Otherwise returns
    ``("baseline", None)``, ``("crash", None)``, or ``("probe", key)``
    — the last only when the first live component has a probed
    single-fault outcome *and* every later component's step is at or
    past the probe run's end, so the extra faults had no substrate.
    """
    stripped = _strip_leading_dead(ctx, point, allow_crash)
    if stripped is None:
        return None
    kind, index = stripped
    if kind != "live":
        return (kind, None)
    key = (point.steps[index], point.details[index])
    ends = began.get(key)
    if ends is None:
        return None
    if all(step >= ends for step in point.steps[index + 1:]):
        return ("probe", key)
    return None


@dataclass(frozen=True)
class ReducedTupleSpace(FaultSpace):
    """The survivor subset of a k-fault product space.

    ``probes`` carries ``((step, detail), resume point)`` pairs for
    the probed first-live components — data only, so the space still
    pickles in O(probes), independent of the point population.
    """

    base: FaultSpace
    probes: tuple = ()
    allow_crash: bool = True

    @property
    def cap_policy(self) -> str:  # type: ignore[override]
        return self.base.cap_policy

    def enumerate(self, ctx: SpaceContext) -> Iterator[FaultPoint]:
        began = dict(self.probes)
        order = 0
        for point in self.base.enumerate(ctx):
            if (
                _tuple_disposition(ctx, point, began, self.allow_crash)
                is not None
            ):
                continue
            yield FaultPoint(order, point.steps, point.details)
            order += 1

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
            "merged_points",
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
        base: FaultSpace,
        space: FaultSpace,
        baseline_outcome: str,
        allow_crash: bool,
        merge: bool = False,
        probe_outcomes: Optional[dict] = None,
        probe_stats: Optional[ExecutionStats] = None,
    ):
        self.ctx = ctx
        self.base = base
        self.space = space
        self.baseline_outcome = baseline_outcome
        self.allow_crash = allow_crash
        self.merge = merge
        self.probe_outcomes = probe_outcomes or {}
        self.probe_stats = probe_stats or ExecutionStats()
        self._tuple = isinstance(space, ReducedTupleSpace)
        # certificate accumulators (filled by expand)
        self._full = 0
        self._executed = 0
        self._dead = 0
        self._crashed = 0
        self._merged = 0
        self._dominated = 0
        self._dead_reasons: dict[str, int] = {}
        self._dead_examples: list[dict] = []
        self._classes: dict = {}

    # -- expansion -----------------------------------------------------

    def expand(self, outcomes) -> Iterator[tuple[FaultPoint, str]]:
        """Merge the executed survivor outcomes (in enumeration order)
        back into the full base enumeration, yielding every base point
        with its verdict."""
        if self._tuple:
            return self._expand_tuple(outcomes)
        return self._expand_single(outcomes)

    @staticmethod
    def _take(executed, point: FaultPoint):
        reduced, outcome = next(executed)
        if (
            reduced.steps != point.steps
            or reduced.details != point.details
        ):
            raise RuntimeError(
                "reduced enumeration out of sync with its base space: "
                f"expected {point.steps}/{point.details}, executed "
                f"{reduced.steps}/{reduced.details}"
            )
        return outcome

    def _note_dead(self, point: FaultPoint, verdict) -> None:
        self._dead += 1
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

    def _expand_single(self, outcomes):
        ctx = self.ctx
        executed = iter(outcomes)
        classes = self._classes
        for point in self.base.enumerate(ctx):
            self._full += 1
            step = point.steps[0]
            detail = point.details[0]
            verdict = _prune(ctx, step, detail)
            if verdict is not None and verdict.kind == "dead":
                self._note_dead(point, verdict)
                yield point, self.baseline_outcome
                continue
            if (
                verdict is not None
                and verdict.kind == "crash"
                and self.allow_crash
            ):
                self._crashed += 1
                yield point, CRASHED
                continue
            key = None
            if self.merge:
                key = _class_key(ctx, step, detail)
                if key is not None and key in classes:
                    entry = classes[key]
                    entry["members"] += 1
                    self._merged += 1
                    yield point, entry["outcome"]
                    continue
            outcome = self._take(executed, point)
            if key is not None:
                classes[key] = {
                    "key": repr(key),
                    "representative": {
                        "step": step,
                        "detail": _detail_to_json(detail),
                    },
                    "outcome": outcome,
                    "members": 1,
                }
            self._executed += 1
            yield point, outcome

    def _expand_tuple(self, outcomes):
        ctx = self.ctx
        executed = iter(outcomes)
        began = dict(self.space.probes)
        for point in self.base.enumerate(ctx):
            self._full += 1
            disposition = _tuple_disposition(
                ctx, point, began, self.allow_crash
            )
            if disposition is None:
                self._executed += 1
                yield point, self._take(executed, point)
                continue
            kind, key = disposition
            if kind == "baseline":
                self._dead += 1
                yield point, self.baseline_outcome
            elif kind == "crash":
                self._crashed += 1
                yield point, CRASHED
            else:
                self._dominated += 1
                yield point, self.probe_outcomes[key][0]

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
            "merged_points": self._merged,
            "dominated_points": self._dominated,
            "dead_reasons": dict(sorted(self._dead_reasons.items())),
            "dead_examples": self._dead_examples,
            "baseline_outcome": self.baseline_outcome,
            "analysis_steps": facts.scan_steps if facts else 0,
        }
        if self.merge:
            classes = [
                entry
                for entry in self._classes.values()
                if entry["members"] > 1
            ]
            payload["class_count"] = len(classes)
            payload["classes"] = classes[:EXAMPLE_CAP]
        if self._tuple:
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
    exact).
    """
    if ctx.facts is None:
        return None, "no-analysis-context"
    baseline = getattr(faulter, "bad_baseline", None)
    if baseline is None:
        return None, "no-baseline"
    if baseline.reason == MAX_STEPS:
        return None, "unterminated-baseline"
    if not isinstance(space, _SINGLE_SPACES + _TUPLE_SPACES):
        return None, f"unsupported-space:{space.describe()}"
    allow_crash = isinstance(
        faulter.oracle, (MarkerOracle, ExitCodeOracle)
    )
    baseline_outcome = faulter.classify(baseline)
    if isinstance(space, _SINGLE_SPACES):
        merge = space.cap_policy == TOTAL_CAP
        reduced = ReducedSpace(
            space, allow_crash=allow_crash, merge=merge
        )
        plan = ReductionPlan(
            ctx,
            space,
            reduced,
            baseline_outcome,
            allow_crash,
            merge=merge,
        )
        return plan, None
    if space.cap_policy != TOTAL_CAP:
        return None, "suffix-cap-tuple-space"
    uses: dict = {}
    for point in space.enumerate(ctx):
        stripped = _strip_leading_dead(ctx, point, allow_crash)
        if stripped is None or stripped[0] != "live":
            continue
        index = stripped[1]
        key = (point.steps[index], point.details[index])
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
    reduced = ReducedTupleSpace(
        space, probes=probes, allow_crash=allow_crash
    )
    plan = ReductionPlan(
        ctx,
        space,
        reduced,
        baseline_outcome,
        allow_crash,
        probe_outcomes=probe_outcomes,
        probe_stats=probe_stats,
    )
    return plan, None
