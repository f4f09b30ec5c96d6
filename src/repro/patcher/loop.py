"""The Faulter+Patcher fixpoint loop (Fig. 2 of the paper).

Iteration: run the faulter under the chosen fault models, map every
successful fault back to its GTIRB entry, patch the unprotected ones,
reassemble, and repeat — until no successful faults remain, only
residual (already-protected) points are left, or the iteration cap is
hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.binfmt.image import Executable
from repro.disasm.recover import disassemble
from repro.disasm.roundtrip import reassemble_with_map
from repro.disasm.units import build_plan
from repro.faulter.campaign import CampaignRunner
from repro.faulter.oracle import coerce_oracle
from repro.faulter.report import CampaignReport
from repro.gtirb.ir import Module
from repro.patcher.patcher import Patcher
from repro.provenance import (
    KIND_DERIVED, KIND_INSN, ProvenanceMap, with_unit_rollups)


def provenance_from_tag_map(tag_map: dict, plan=None) -> ProvenanceMap:
    """Build the original->rewritten map from the assembler's tag map.

    Every ``InsnEntry`` that survived the rewrite carries its original
    decoded address; pattern-emitted entries attribute to the original
    site they protect via ``root_site()``.  Entries with no original
    counterpart (the injected fault handler) carry no mapping.  With a
    :class:`~repro.disasm.units.RewritePlan` the map is composed from
    per-unit maps and carries per-function rollups.
    """
    provenance = ProvenanceMap(path="patcher")
    for entry, address in tag_map.items():
        original = entry.root_site().address
        if original is None:
            continue
        kind = KIND_INSN if entry.origin is None else KIND_DERIVED
        provenance.add(original, address, kind=kind)
    if plan is not None:
        provenance = with_unit_rollups(provenance, plan)
    return provenance


@dataclass
class IterationStats:
    """One round of fault-patch-reassemble."""

    iteration: int
    vulnerable_points: int
    patched: int
    residual: int
    text_size: int
    reports: dict[str, CampaignReport] = field(default_factory=dict)

    def __str__(self):
        return (f"iter {self.iteration}: vulnerable={self.vulnerable_points} "
                f"patched={self.patched} residual={self.residual} "
                f"text={self.text_size}B")


@dataclass
class HardenResult:
    """Outcome of the Faulter+Patcher loop."""

    hardened: Executable
    module: Module
    original_text_size: int
    hardened_text_size: int
    iterations: list[IterationStats]
    final_reports: dict[str, CampaignReport]
    converged: bool
    original_sites: int = 0
    remaining_sites: int = 0
    emergent_points: int = 0
    provenance: ProvenanceMap = field(default_factory=lambda:
                                      ProvenanceMap(path="patcher"))

    @property
    def overhead_percent(self) -> float:
        """Code-size overhead, the paper's Table V metric."""
        if self.original_text_size == 0:
            return 0.0
        return 100.0 * (self.hardened_text_size - self.original_text_size) \
            / self.original_text_size

    @property
    def site_reduction_percent(self) -> float:
        """How many of the originally vulnerable program points were
        fixed (the paper's "number of vulnerable points" metric)."""
        if self.original_sites == 0:
            return 100.0
        return 100.0 * (self.original_sites - self.remaining_sites) \
            / self.original_sites

    def residual_vulnerabilities(self) -> dict[str, int]:
        return {model: len(report.vulnerable_points())
                for model, report in self.final_reports.items()}

    def to_dict(self) -> dict:
        """JSON-friendly summary (for CI dashboards / automation)."""
        return {
            "approach": "faulter+patcher",
            "converged": self.converged,
            "original_text_size": self.original_text_size,
            "hardened_text_size": self.hardened_text_size,
            "overhead_percent": round(self.overhead_percent, 2),
            "original_sites": self.original_sites,
            "remaining_sites": self.remaining_sites,
            "emergent_points": self.emergent_points,
            "provenance": self.provenance.to_dict(),
            "iterations": [
                {
                    "iteration": s.iteration,
                    "vulnerable": s.vulnerable_points,
                    "patched": s.patched,
                    "residual": s.residual,
                }
                for s in self.iterations
            ],
            "final_reports": {
                model: report.to_dict()
                for model, report in self.final_reports.items()
            },
        }

    def report(self) -> str:
        lines = [
            "Faulter+Patcher hardening report",
            f"  text size: {self.original_text_size}B -> "
            f"{self.hardened_text_size}B "
            f"({self.overhead_percent:+.2f}%)",
            f"  converged: {self.converged}",
            f"  vulnerable sites: {self.original_sites} -> "
            f"{self.remaining_sites} "
            f"({self.site_reduction_percent:.0f}% fixed, "
            f"{self.emergent_points} emergent point(s) in patterns)",
        ]
        for stats in self.iterations:
            lines.append(f"  {stats}")
        for model, report in self.final_reports.items():
            lines.append(
                f"  final[{model}]: "
                f"{len(report.vulnerable_points())} vulnerable point(s), "
                f"{report.outcomes.get('success', 0)} successful fault(s)")
        return "\n".join(lines)


class FaulterPatcherLoop:
    """Drives the iterative, simulation-guided hardening of one binary.

    ``grant_marker`` is the fault-detection oracle: raw ``bytes`` keep
    the historical stdout-marker check, and any
    :class:`~repro.faulter.oracle.Oracle` swaps in a different
    success predicate for the loop's campaigns.

    Every campaign runs through ``campaigns``, a
    :class:`~repro.faulter.campaign.CampaignRunner` bound to the same
    inputs and oracle (its ``max_steps`` and engine config apply); by
    default a fresh one with the default budget and config.  Passing
    the runner of a wider evaluation lets its memo skip the loop's
    repeated campaigns.
    """

    def __init__(self,
                 exe: Executable,
                 good_input: bytes,
                 bad_input: bytes,
                 grant_marker,
                 models: Sequence[str] = ("skip",),
                 max_iterations: int = 8,
                 symbolization: str = "refined",
                 name: str = "target",
                 campaigns: Optional[CampaignRunner] = None):
        self.original = exe
        self.models = list(models)
        self.max_iterations = max_iterations
        self.symbolization = symbolization
        self.name = name
        if campaigns is None:
            campaigns = CampaignRunner(good_input, bad_input,
                                       grant_marker)
        elif ((campaigns.good_input, campaigns.bad_input,
               campaigns.oracle)
              != (good_input, bad_input, coerce_oracle(grant_marker))):
            raise ValueError("campaigns is bound to other inputs or "
                             "another oracle than the loop")
        self.campaigns = campaigns

    def run(self) -> HardenResult:
        module = disassemble(self.original, mode=self.symbolization)
        plan = build_plan(module)
        patcher = Patcher(module)
        exe, tag_map = reassemble_with_map(module)
        original_text_size = self.original.code_size()

        iterations: list[IterationStats] = []
        reports: dict[str, CampaignReport] = {}
        converged = False
        original_sites: set = set()
        by_address: dict = {}
        for iteration in range(1, self.max_iterations + 1):
            reports = self.campaigns.reports(
                exe, self.models, self.name, single_fault=True)
            by_address = {addr: entry for entry, addr in tag_map.items()}

            vulnerable = {}
            for report in reports.values():
                for point in report.vulnerable_points():
                    vulnerable.setdefault(point.address, point)
            if iteration == 1:
                original_sites = {
                    id(by_address[a].root_site())
                    for a in vulnerable if a in by_address}
            if not vulnerable:
                converged = True
                iterations.append(IterationStats(
                    iteration, 0, 0, 0, exe.code_size(), reports))
                break

            patched = residual = 0
            for unit, addresses in _stream_by_unit(plan, vulnerable,
                                                   by_address):
                if unit is not None and unit.opaque:
                    residual += len(addresses)  # preserved byte-for-byte
                    continue
                for address in addresses:
                    entry = by_address.get(address)
                    if entry is None or entry.protected:
                        residual += 1
                        continue
                    if patcher.patch_entry(entry):
                        patched += 1
                    else:
                        residual += 1
            iterations.append(IterationStats(
                iteration, len(vulnerable), patched, residual,
                exe.code_size(), reports))
            if patched == 0:
                break  # nothing more can be fixed (paper's exit arrow)
            exe, tag_map = reassemble_with_map(module)

        remaining_sites: set = set()
        emergent = 0
        for report in reports.values():
            for point in report.vulnerable_points():
                entry = by_address.get(point.address)
                if entry is None:
                    emergent += 1
                    continue
                root = id(entry.root_site())
                if root in original_sites:
                    remaining_sites.add(root)
                else:
                    emergent += 1
        return HardenResult(
            hardened=exe,
            module=module,
            original_text_size=original_text_size,
            hardened_text_size=exe.code_size(),
            iterations=iterations,
            final_reports=reports,
            converged=converged,
            original_sites=len(original_sites),
            remaining_sites=len(remaining_sites),
            emergent_points=emergent,
            provenance=provenance_from_tag_map(tag_map, plan),
        )


def _stream_by_unit(plan, vulnerable, by_address):
    """Group vulnerable (rewritten) addresses by their rewrite unit.

    Attribution goes through each entry's original root site, since
    reassembly shifts rewritten addresses; unmapped addresses (emergent
    points in injected code) stream last under unit ``None``.
    """
    grouped: dict = {}
    for address in sorted(vulnerable):
        entry = by_address.get(address)
        unit = None
        if entry is not None:
            original = entry.root_site().address
            if original is not None:
                unit = plan.unit_at(original)
        grouped.setdefault(
            None if unit is None else unit.name, (unit, []))[1].append(
                address)
    ordered = [u.name for u in plan.units if u.name in grouped]
    if None in grouped:
        ordered.append(None)
    return [grouped[name] for name in ordered]
