"""Fault-space equivalence reduction for single-fault campaigns.

A campaign over ``N`` fault points pays one emulated run per point,
but some points provably cannot change what the oracle observes: a
``reg-bitflip`` into a register that is overwritten before any read, a
``skip`` of an instruction whose definitions are all dead, an encoding
flip that no longer decodes.  This module settles those points without
running them, using the per-step def/use facts of
:mod:`repro.analysis.traceflow`, and emits a
:class:`ReductionCertificate` that counts every settled point and
why — so the reduced campaign's report still covers the **full**
space, point for point, and the certificate is checkable against the
unreduced run, ``Faulter.run_campaign(model, reduce=False)``.

A point whose fault has a *dead* proof is bit-identical to the
unfaulted continuation, so it takes the bad baseline's verdict; a
point with a *crash* proof (undecodable mutated encoding) takes
``CRASHED`` under oracles that classify crashes deterministically.

The rule is applied per point inside the backend's outcome stream
(``SequentialBackend.stream``, which fleet workers run too): every
proof is a deterministic function of (image, bad input), so a worker
re-derives the same proofs for its own partition, and the parent
folds the workers' tallies instead of disposing anything itself.
k-fault tuple spaces run unreduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from repro.emu.machine import MAX_STEPS
from repro.faulter.executor import EXAMPLE_CAP, ExecutionStats
from repro.faulter.oracle import ExitCodeOracle, MarkerOracle
from repro.faulter.report import CRASHED, _detail_to_json
from repro.faulter.space import (
    ExhaustiveSpace,
    FaultPoint,
    FaultSpace,
    KFaultProductSpace,
    ProductSpace,
    SpaceContext,
    WindowedSpace,
)

_MISSING = object()


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
    the example list is capped at :data:`EXAMPLE_CAP` entries.
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
        for label in ("dead_points", "crash_points"):
            count = self.payload.get(label, 0)
            if count:
                parts.append(f"{label.split('_')[0]} {count}")
        detail = f" ({', '.join(parts)})" if parts else ""
        return (
            f"reduction: {self.full_points} -> "
            f"{self.executed_points} executed, "
            f"{self.speedup:.1f}x{detail}"
        )


class ReductionPlan:
    """One single-fault campaign's reduction: the per-point rule
    (:meth:`disposer`) and the certificate of what it settled.

    Built from the faulter and the campaign's context alone, so a
    fleet worker builds the same plan for its partition.
    """

    def __init__(self, faulter, ctx: SpaceContext):
        self.ctx = ctx
        self.allow_crash = isinstance(
            faulter.oracle, (MarkerOracle, ExitCodeOracle)
        )
        self.baseline_outcome = faulter.classify(faulter.bad_baseline)

    def disposer(
        self, stats: ExecutionStats
    ) -> Callable[[FaultPoint], Optional[str]]:
        """``dispose(point)``: the point's proven outcome, or ``None``
        when it must run.

        Each fault's proof comes from the model's reduction hook,
        memoized in the trace facts; every settled point is tallied
        into ``stats`` (the certificate's counts and examples).  The
        facts, memo and hook are bound once here, so a campaign's
        per-point loop pays one call per point.
        """
        facts = self.ctx.facts
        proofs = facts.prune_cache
        prune = self.ctx.model.prune_variant
        baseline = self.baseline_outcome
        allow_crash = self.allow_crash
        reasons = stats.dead_reasons
        examples = stats.dead_examples

        def dispose(point: FaultPoint) -> Optional[str]:
            key = (point.steps[0], point.details[0])
            proof = proofs.get(key, _MISSING)
            if proof is _MISSING:
                proof = proofs[key] = prune(key[0], key[1], facts)
            if proof is None:
                return None
            if proof.kind == "dead":
                stats.dead_points += 1
                reasons[proof.reason] = reasons.get(proof.reason, 0) + 1
                if len(examples) < EXAMPLE_CAP:
                    examples.append(
                        {
                            "step": key[0],
                            "detail": _detail_to_json(key[1]),
                            "reason": proof.reason,
                            "settled": _json_settled(proof.settled),
                        }
                    )
                return baseline
            if proof.kind == "crash" and allow_crash:
                stats.crash_points += 1
                return CRASHED
            return None

        return dispose

    def certificate(
        self, space: FaultSpace, full_points: int, stats: ExecutionStats
    ) -> ReductionCertificate:
        """The certificate of a campaign over ``space`` that emitted
        ``full_points`` outcomes and tallied its proofs into ``stats``.

        ``analysis_steps`` counts the proof scans this process ran on
        the trace so far (fleet workers scan their own copies).  The
        ``reduced_space`` and ``dominated_points`` keys keep their
        single-fault values, so certificates stay comparable with
        those recorded when k-fault tuples were reduced too.
        """
        return ReductionCertificate(
            {
                "enabled": True,
                "space": space.describe(),
                "reduced_space": f"reduced({space.describe()})",
                "cap_policy": space.cap_policy,
                "full_points": full_points,
                "executed_points": full_points - stats.proven_points,
                "dead_points": stats.dead_points,
                "crash_points": stats.crash_points,
                "dominated_points": 0,
                "dead_reasons": dict(sorted(stats.dead_reasons.items())),
                "dead_examples": stats.dead_examples,
                "baseline_outcome": self.baseline_outcome,
                "analysis_steps": self.ctx.facts.scan_steps,
            }
        )


def plan_reduction(
    faulter, ctx: SpaceContext, space: FaultSpace
) -> tuple[Optional[ReductionPlan], Optional[str]]:
    """Build a :class:`ReductionPlan` for one campaign, or explain why
    reduction does not apply: ``(plan, None)`` or ``(None, reason)``.

    Gates, in order: the context must carry trace facts; the bad
    baseline must have terminated (an unterminated baseline makes
    "identical to the unfaulted continuation" cap-relative); the space
    must be a single-fault exhaustive or windowed enumerator (tuple
    spaces run unreduced).
    """
    if ctx.facts is None:
        return None, "no-analysis-context"
    if faulter.bad_baseline.reason == MAX_STEPS:
        return None, "unterminated-baseline"
    if isinstance(space, (KFaultProductSpace, ProductSpace)):
        return None, "tuple-space"
    if not isinstance(space, (ExhaustiveSpace, WindowedSpace)):
        return None, f"unsupported-space:{space.describe()}"
    return ReductionPlan(faulter, ctx), None
