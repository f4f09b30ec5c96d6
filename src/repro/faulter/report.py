"""Vulnerability reports produced by fault campaigns.

This module also owns the campaign *vocabulary* — the three outcome
classes of Section IV-B.1, the :class:`Fault` record, and the outcome
classifier — so the campaign drivers, the engine, and worker processes
can all share it without importing each other.  The vocabulary is
fault-model-agnostic: a :class:`Fault` names its model (any member of
the ``repro.faulter.models`` registry, encoding or state family) and
carries the model's opaque detail tuple, and the differential rollups
key on those names, so new models flow through reporting untouched.

:class:`CampaignReportBuilder` assembles a report *incrementally*:
the engine folds each ``(point, outcome)`` row into it as execution
streams them in enumeration order, so a campaign never holds more
than its reorder window of pending points in memory.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.provenance import ProvenanceMap

SUCCESS = "success"
CRASHED = "crash"
IGNORED = "ignored"

# differential point classes (countermeasure evaluation)
ELIMINATED = "eliminated"
SURVIVING = "surviving"
INTRODUCED = "introduced"
UNMAPPED = "unmapped"

DIFF_STATUSES = (ELIMINATED, SURVIVING, INTRODUCED, UNMAPPED)


@dataclass(frozen=True)
class Fault:
    """One concrete injected fault."""

    model: str
    trace_index: int
    address: int
    mnemonic: str
    detail: tuple = ()

    def describe(self) -> str:
        base = f"t={self.trace_index}"
        if self.detail:
            base += f" {self.detail}"
        return f"{self.model}[{base}]"

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "trace_index": self.trace_index,
            "address": self.address,
            "mnemonic": self.mnemonic,
            "detail": _detail_to_json(self.detail),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Fault":
        return cls(
            model=payload["model"],
            trace_index=payload["trace_index"],
            address=payload["address"],
            mnemonic=payload["mnemonic"],
            detail=_detail_from_json(payload.get("detail", [])),
        )


@dataclass(frozen=True)
class FaultOutcome:
    fault: Fault
    outcome: str


def _detail_to_json(detail):
    """Fault details are nested tuples of ints; JSON has only lists."""
    if isinstance(detail, tuple):
        return [_detail_to_json(item) for item in detail]
    return detail


def _detail_from_json(detail):
    if isinstance(detail, list):
        return tuple(_detail_from_json(item) for item in detail)
    return detail


@dataclass
class VulnerablePoint:
    """A static instruction with at least one successful fault."""

    address: int
    mnemonic: str
    faults: list["Fault"] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.faults)


@dataclass
class CampaignReport:
    """Outcome of one faulter campaign (one binary x one fault model)."""

    target: str
    model: str
    trace_length: int
    total_faults: int
    outcomes: Counter = field(default_factory=Counter)
    successes: list["Fault"] = field(default_factory=list)
    all_outcomes: list = field(default_factory=list)
    # Execution metadata (backend, reorder window, emulated-step
    # counts, ...).  Excluded from equality: the same campaign run on
    # different backends must compare bit-identical.
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def vulnerable(self) -> bool:
        return bool(self.successes)

    def vulnerable_points(self) -> list[VulnerablePoint]:
        """Successful faults grouped by static instruction address."""
        by_address: dict[int, VulnerablePoint] = {}
        for fault in self.successes:
            point = by_address.get(fault.address)
            if point is None:
                point = VulnerablePoint(fault.address, fault.mnemonic)
                by_address[fault.address] = point
            point.faults.append(fault)
        return sorted(by_address.values(), key=lambda p: p.address)

    def vulnerable_addresses(self) -> list[int]:
        return [point.address for point in self.vulnerable_points()]

    def summary(self) -> str:
        lines = [
            f"fault campaign: target={self.target} model={self.model}",
            f"  trace length       : {self.trace_length}",
            f"  faults injected    : {self.total_faults}",
        ]
        for outcome in ("success", "crash", "ignored"):
            lines.append(f"  {outcome:<19}: {self.outcomes.get(outcome, 0)}")
        points = self.vulnerable_points()
        lines.append(f"  vulnerable points  : {len(points)}")
        for point in points:
            details = ", ".join(f.describe() for f in point.faults[:4])
            more = "" if point.count <= 4 else f", +{point.count - 4} more"
            lines.append(
                f"    {point.address:#x} {point.mnemonic:<8} "
                f"{point.count:>3} fault(s): {details}{more}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Lossless, JSON-safe serialization (see :meth:`from_dict`)."""
        return {
            "target": self.target,
            "model": self.model,
            "trace_length": self.trace_length,
            "total_faults": self.total_faults,
            "outcomes": dict(self.outcomes),
            "successes": [fault.to_dict() for fault in self.successes],
            "all_outcomes": [
                {"fault": o.fault.to_dict(), "outcome": o.outcome}
                for o in self.all_outcomes
            ],
            "meta": dict(self.meta),
            "vulnerable_points": [
                {
                    "address": point.address,
                    "mnemonic": point.mnemonic,
                    "fault_count": point.count,
                }
                for point in self.vulnerable_points()
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignReport":
        """Rebuild a report serialized by :meth:`to_dict`.

        Round-trips losslessly (``from_dict(r.to_dict()) == r``), which
        is what lets reports cross process boundaries and land in
        benchmark artifacts as plain JSON.
        """
        return cls(
            target=payload["target"],
            model=payload["model"],
            trace_length=payload["trace_length"],
            total_faults=payload["total_faults"],
            outcomes=Counter(payload.get("outcomes", {})),
            successes=[
                Fault.from_dict(f) for f in payload.get("successes", [])
            ],
            all_outcomes=[
                FaultOutcome(Fault.from_dict(o["fault"]), o["outcome"])
                for o in payload.get("all_outcomes", [])
            ],
            meta=dict(payload.get("meta", {})),
        )


class CampaignReportBuilder:
    """Streaming, enumeration-order assembly of a
    :class:`CampaignReport`.

    The engine calls :meth:`add` once per executed fault point, in
    enumeration order (backends guarantee that ordering through their
    reorder windows), and :meth:`finish` seals the report.  Folding a
    row touches only counters and the success list, so assembly is
    O(successes) resident instead of O(population).

    ``fault_for`` lazily materializes the :class:`Fault` record for a
    point; it is only invoked for successes (or for every row when
    ``collect_outcomes`` is set), keeping the common crash/ignored
    path allocation-free.
    """

    def __init__(
        self,
        target: str,
        model: str,
        trace_length: int,
        fault_for: Callable[[object], Fault],
        collect_outcomes: bool = False,
    ):
        self._report: Optional[CampaignReport] = CampaignReport(
            target=target,
            model=model,
            trace_length=trace_length,
            total_faults=0,
        )
        self._fault_for = fault_for
        self._collect = collect_outcomes
        self._last_order: Optional[int] = None

    def add(self, point, outcome: str) -> None:
        """Fold one executed fault point into the report."""
        report = self._report
        if report is None:
            raise ValueError("builder already finished")
        order = point.order
        if self._last_order is not None and order < self._last_order:
            raise ValueError(
                "outcome stream out of enumeration order: "
                f"{order} after {self._last_order}"
            )
        self._last_order = order
        report.total_faults += 1
        report.outcomes[outcome] += 1
        fault = None
        if outcome == SUCCESS or self._collect:
            fault = self._fault_for(point)
        if outcome == SUCCESS:
            report.successes.append(fault)
        if self._collect:
            report.all_outcomes.append(FaultOutcome(fault, outcome))

    def finish(self, meta: Optional[dict] = None) -> CampaignReport:
        """Seal and return the assembled report."""
        report = self._report
        if report is None:
            raise ValueError("builder already finished")
        if meta is not None:
            report.meta = dict(meta)
        self._report = None
        return report


# ---------------------------------------------------------------------------
# differential countermeasure evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiffPoint:
    """One classified point of a before/after campaign comparison.

    Baseline vulnerable points are classified ``eliminated``,
    ``surviving`` or ``unmapped`` (``original_address`` is the
    baseline point's address); post-hardening points with no baseline
    counterpart are ``introduced`` (``original_address`` is the
    pre-rewrite address they attribute to, if any).
    ``rewritten_addresses`` lists the post-hardening vulnerable
    addresses that map to this point (empty for eliminated/unmapped).
    """

    model: str
    status: str
    original_address: Optional[int]
    rewritten_addresses: tuple = ()
    mnemonic: str = ""
    baseline_faults: int = 0
    hardened_faults: int = 0
    section: str = "?"

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "status": self.status,
            "original_address": self.original_address,
            "rewritten_addresses": list(self.rewritten_addresses),
            "mnemonic": self.mnemonic,
            "baseline_faults": self.baseline_faults,
            "hardened_faults": self.hardened_faults,
            "section": self.section,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DiffPoint":
        return cls(
            model=payload["model"],
            status=payload["status"],
            original_address=payload.get("original_address"),
            rewritten_addresses=tuple(
                payload.get("rewritten_addresses", [])),
            mnemonic=payload.get("mnemonic", ""),
            baseline_faults=payload.get("baseline_faults", 0),
            hardened_faults=payload.get("hardened_faults", 0),
            section=payload.get("section", "?"),
        )


@dataclass
class DifferentialReport:
    """Point-level join of a baseline campaign against a post-hardening
    campaign through a :class:`~repro.provenance.ProvenanceMap`.

    Invariant (per model): every baseline vulnerable point appears as
    exactly one ``eliminated``/``surviving``/``unmapped`` point, so
    those three classes sum to the baseline vulnerable-point count;
    ``introduced`` points are additional post-hardening points with no
    vulnerable baseline counterpart.
    """

    target: str
    models: list[str] = field(default_factory=list)
    points: list["DiffPoint"] = field(default_factory=list)
    meta: dict = field(default_factory=dict, compare=False)

    # -- rollups -----------------------------------------------------------

    def counts(self, model: Optional[str] = None,
               section: Optional[str] = None) -> Counter:
        """Status census, optionally restricted to a model/section."""
        census: Counter = Counter({status: 0 for status in DIFF_STATUSES})
        for point in self.points:
            if model is not None and point.model != model:
                continue
            if section is not None and point.section != section:
                continue
            census[point.status] += 1
        return census

    def by_model(self) -> dict[str, Counter]:
        return {model: self.counts(model=model) for model in self.models}

    def by_section(self) -> dict[str, Counter]:
        sections = sorted({point.section for point in self.points})
        return {section: self.counts(section=section)
                for section in sections}

    def baseline_points(self, model: Optional[str] = None) -> int:
        """Number of baseline vulnerable points covered by the join."""
        census = self.counts(model=model)
        return census[ELIMINATED] + census[SURVIVING] + census[UNMAPPED]

    def eliminated_percent(self, model: Optional[str] = None) -> float:
        baseline = self.baseline_points(model)
        if baseline == 0:
            return 100.0
        return 100.0 * self.counts(model=model)[ELIMINATED] / baseline

    # -- rendering ---------------------------------------------------------

    def table(self) -> str:
        """Human-readable before/after comparison."""
        # local import: reduction imports the campaign vocabulary
        from repro.faulter.reduction import ReductionCertificate

        lines = [
            f"differential evaluation: target={self.target} "
            f"models={','.join(self.models) or '-'}"
        ]
        reduction = self.meta.get("reduction", {})
        for model in self.models:
            census = self.counts(model=model)
            lines.append(
                f"  [{model}] baseline points: "
                f"{self.baseline_points(model)}  "
                f"eliminated={census[ELIMINATED]} "
                f"surviving={census[SURVIVING]} "
                f"introduced={census[INTRODUCED]} "
                f"unmapped={census[UNMAPPED]} "
                f"({self.eliminated_percent(model):.0f}% eliminated)")
            for side in ("baseline", "hardened"):
                cert = reduction.get(model, {}).get(side)
                if cert:
                    summary = ReductionCertificate(cert).summary()
                    lines.append(f"    {side:<10} {summary}")
            for point in self.points:
                if point.model != model:
                    continue
                where = ("-" if point.original_address is None
                         else f"{point.original_address:#x}")
                moved = ",".join(f"{a:#x}"
                                 for a in point.rewritten_addresses)
                detail = f" -> {moved}" if moved else ""
                lines.append(
                    f"    {point.status:<10} {where:>10} "
                    f"{point.mnemonic:<8} [{point.section}] "
                    f"base={point.baseline_faults} "
                    f"hard={point.hardened_faults}{detail}")
        by_section = self.by_section()
        if by_section:
            lines.append("  by section:")
            for section, census in by_section.items():
                rendered = " ".join(f"{status}={census[status]}"
                                    for status in DIFF_STATUSES)
                lines.append(f"    {section:<12} {rendered}")
        return "\n".join(lines)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        """Lossless, JSON-safe serialization (see :meth:`from_dict`)."""
        return {
            "target": self.target,
            "models": list(self.models),
            "points": [point.to_dict() for point in self.points],
            "rollup_by_model": {
                model: dict(census)
                for model, census in self.by_model().items()
            },
            "rollup_by_section": {
                section: dict(census)
                for section, census in self.by_section().items()
            },
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DifferentialReport":
        """Rebuild a report serialized by :meth:`to_dict`.

        Round-trips losslessly (``from_dict(r.to_dict()) == r``); the
        rollups are derived data and are recomputed, not read back.
        """
        return cls(
            target=payload["target"],
            models=list(payload.get("models", [])),
            points=[DiffPoint.from_dict(p)
                    for p in payload.get("points", [])],
            meta=dict(payload.get("meta", {})),
        )


def differential_report(
    baseline: dict[str, CampaignReport],
    hardened: dict[str, CampaignReport],
    provenance: ProvenanceMap,
    target: str = "target",
    section_of_original: Optional[Callable[[int], str]] = None,
    section_of_rewritten: Optional[Callable[[int], str]] = None,
) -> DifferentialReport:
    """Join per-model campaign pairs through a provenance map.

    Models present on only one side are skipped (recorded in
    ``meta["models_skipped"]``).  ``section_of_original`` /
    ``section_of_rewritten`` resolve addresses to section names for the
    per-section rollups (defaulting to ``"?"``).
    """
    def _section(resolver, address):
        if resolver is None or address is None:
            return "?"
        return resolver(address)

    models = [model for model in baseline if model in hardened]
    skipped = sorted((set(baseline) | set(hardened)) - set(models))
    points: list[DiffPoint] = []
    for model in models:
        base_points = {p.address: p
                       for p in baseline[model].vulnerable_points()}
        base_keys = {address: provenance.normalize_original(address)
                     for address in base_points}
        vulnerable_keys = {key for key in base_keys.values()
                           if key is not None}

        # attribute every post-hardening point to its original key
        survivors: dict[int, list[VulnerablePoint]] = {}
        intro_groups: dict[tuple, list[VulnerablePoint]] = {}
        intro_keys: dict[tuple, Optional[int]] = {}
        for point in hardened[model].vulnerable_points():
            key = provenance.to_original(point.address)
            if key is not None and key in vulnerable_keys:
                survivors.setdefault(key, []).append(point)
            else:
                group = (("mapped", key) if key is not None
                         else ("raw", point.address))
                intro_groups.setdefault(group, []).append(point)
                intro_keys[group] = key

        for address in sorted(base_points):
            base_point = base_points[address]
            key = base_keys[address]
            if key is None:
                status, mapped = UNMAPPED, []
            elif key in survivors:
                status, mapped = SURVIVING, survivors[key]
            else:
                status, mapped = ELIMINATED, []
            points.append(DiffPoint(
                model=model,
                status=status,
                original_address=address,
                rewritten_addresses=tuple(
                    sorted(p.address for p in mapped)),
                mnemonic=base_point.mnemonic,
                baseline_faults=base_point.count,
                hardened_faults=sum(p.count for p in mapped),
                section=_section(section_of_original, address),
            ))

        for group in sorted(intro_groups, key=lambda g: g[1]):
            mapped = intro_groups[group]
            key = intro_keys[group]
            section = (_section(section_of_original, key)
                       if key is not None else
                       _section(section_of_rewritten, mapped[0].address))
            points.append(DiffPoint(
                model=model,
                status=INTRODUCED,
                original_address=key,
                rewritten_addresses=tuple(
                    sorted(p.address for p in mapped)),
                mnemonic=mapped[0].mnemonic,
                baseline_faults=0,
                hardened_faults=sum(p.count for p in mapped),
                section=section,
            ))

    meta = {
        "provenance_path": provenance.path,
        "provenance_counts": provenance.counts(),
    }
    if skipped:
        meta["models_skipped"] = skipped
    reduction: dict[str, dict] = {}
    for model in models:
        sides = {}
        for side, report in (("baseline", baseline[model]),
                             ("hardened", hardened[model])):
            cert = report.meta.get("reduction")
            if cert:
                sides[side] = dict(cert)
        if sides:
            reduction[model] = sides
    if reduction:
        meta["reduction"] = reduction
    return DifferentialReport(
        target=target, models=models, points=points, meta=meta)
