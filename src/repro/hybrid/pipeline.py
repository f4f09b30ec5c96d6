"""End-to-end Hybrid hardening (Fig. 3, upper path)."""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Sequence

from repro.binfmt.image import Executable
from repro.disasm.units import build_plan
from repro.emu.machine import run_executable, run_inputs
from repro.errors import ReproError, RewriteError
from repro.faulter.campaign import Faulter
from repro.faulter.report import CampaignReport
from repro.hybrid.branch_harden import HardeningStats, harden_branches
from repro.ir.passes.instcount import instruction_histogram
from repro.ir.passes.pass_manager import standard_cleanup
from repro.ir.verifier import verify
from repro.lift.lifter import Lifter
from repro.lower.isel import split_critical_edges
from repro.lower.pipeline import lower_module
from repro.provenance import ProvenanceMap, with_unit_rollups


@dataclass
class HybridResult:
    """Outcome of the hybrid lift-harden-lower pipeline.

    ``lower_unhardened`` builds the lift+lower translation without
    countermeasures; only the translation-overhead figures read it, so
    :attr:`lowered_unhardened` is lowered on first read, then kept.
    """

    hardened: Executable
    original_text_size: int
    hardened_text_size: int
    lower_unhardened: Callable[[], Executable] = field(repr=False,
                                                       compare=False)
    hardening: HardeningStats = field(default_factory=HardeningStats)
    ir_histogram_before: Counter = field(default_factory=Counter)
    ir_histogram_after: Counter = field(default_factory=Counter)
    final_reports: dict[str, CampaignReport] = field(default_factory=dict)
    provenance: ProvenanceMap = field(default_factory=lambda:
                                      ProvenanceMap(path="lower"))

    @cached_property
    def lowered_unhardened(self) -> Executable:
        """The unhardened lift+lower translation (Section IV-D)."""
        return self.lower_unhardened()

    @property
    def unhardened_lowered_size(self) -> int:
        return self.lowered_unhardened.code_size()

    @property
    def overhead_percent(self) -> float:
        """Total code-size overhead vs the original binary (Table V).

        A degenerate empty-``.text`` input has nothing to compare
        against; rollups report 0.0 instead of dividing by zero.
        """
        if self.original_text_size == 0:
            return 0.0
        return 100.0 * (self.hardened_text_size -
                        self.original_text_size) / self.original_text_size

    @property
    def translation_overhead_percent(self) -> float:
        """Overhead from lift+lower alone ("the mere act of lifting...
        adds extra overhead", Section IV-D).  Guarded like
        :attr:`overhead_percent` for empty-``.text`` inputs."""
        if self.original_text_size == 0:
            return 0.0
        return 100.0 * (self.unhardened_lowered_size -
                        self.original_text_size) / self.original_text_size

    def to_dict(self) -> dict:
        """JSON-friendly summary (for CI dashboards / automation)."""
        return {
            "approach": "hybrid",
            "original_text_size": self.original_text_size,
            "hardened_text_size": self.hardened_text_size,
            "overhead_percent": round(self.overhead_percent, 2),
            "translation_overhead_percent": round(
                self.translation_overhead_percent, 2),
            "branches_hardened": self.hardening.branches_hardened,
            "validation_blocks": self.hardening.validation_blocks,
            "ir_delta": dict(self.ir_histogram_after
                             - self.ir_histogram_before),
            "provenance": self.provenance.to_dict(),
            "final_reports": {
                model: report.to_dict()
                for model, report in self.final_reports.items()
            },
        }

    def report(self) -> str:
        lines = [
            "Hybrid hardening report",
            f"  text size: {self.original_text_size}B -> "
            f"{self.hardened_text_size}B ({self.overhead_percent:+.2f}%)",
            f"  of which lift+lower alone: "
            f"{self.translation_overhead_percent:+.2f}%",
            f"  branches hardened: {self.hardening.branches_hardened}",
        ]
        for model, report in self.final_reports.items():
            lines.append(
                f"  final[{model}]: "
                f"{len(report.vulnerable_points())} vulnerable point(s)")
        return "\n".join(lines)


def hybrid_harden(exe: Executable,
                  good_input: bytes,
                  bad_input: bytes,
                  grant_marker,
                  name: str = "target",
                  models: Sequence[str] = (),
                  uid_seed: int = 0x9E3779B9,
                  branch_filter=None,
                  fold_constants: bool = True,
                  max_steps: int = 100_000,
                  original_runs=None) -> HybridResult:
    """Lift, harden conditional branches, lower, validate.

    ``grant_marker`` accepts raw marker ``bytes`` or any
    :class:`~repro.faulter.oracle.Oracle` (consumed by the optional
    ``models`` re-fault campaigns; validation compares behaviour).

    ``models`` optionally re-runs fault campaigns against the hardened
    binary (reported in ``final_reports``), each capped at
    ``max_steps`` emulated steps.  ``fold_constants`` lets the
    cleanup pipeline fold the pass's UID xor instructions into imm32
    constants after the histograms are taken (the Table IV census is
    measured on the unfolded form, as the paper reports it).
    ``original_runs`` is the original's ``(good, bad)`` pair of
    :class:`~repro.emu.machine.RunResult`, when the caller has it
    (``Target`` does); otherwise validation runs the original too.
    """
    lifter = Lifter(exe)
    ir_module = lifter.lift()
    standard_cleanup().run(ir_module)
    function = ir_module.function("entry")
    histogram_before = instruction_histogram(function)

    # the hardened layout depends on hardening the split CFG that
    # lowering would see (the split names and places the new blocks)
    split_critical_edges(function)
    verify(ir_module)
    stats = harden_branches(ir_module, uid_seed,
                            branch_filter=branch_filter)
    verify(ir_module)
    histogram_after = instruction_histogram(function)
    if fold_constants:
        from repro.ir.passes.constfold import constant_fold
        from repro.ir.passes.dce import dce
        constant_fold(function)
        dce(function)
        verify(ir_module)

    hardened, provenance = lower_module(ir_module, exe,
                                        trap_after_jmp=True,
                                        with_provenance=True)
    _carry_dynamic(hardened, exe)
    provenance = with_unit_rollups(provenance, build_plan(lifter.gtirb))
    _validate(hardened, exe, good_input, bad_input, name, original_runs)
    _warn_unguarded_blocks(branch_filter)

    result = HybridResult(
        hardened=hardened,
        original_text_size=exe.code_size(),
        hardened_text_size=hardened.code_size(),
        lower_unhardened=partial(_lower_plain, exe),
        hardening=stats,
        ir_histogram_before=histogram_before,
        ir_histogram_after=histogram_after,
        provenance=provenance,
    )
    if models:
        faulter = Faulter(hardened, good_input, bad_input, grant_marker,
                          name=f"{name}-hybrid", max_steps=max_steps)
        result.final_reports = {
            m: faulter.run_campaign(m) for m in models}
    return result


class GuidedBranchFilter:
    """Branch filter restricting hardening to faulter-flagged blocks.

    Matches on the lifter's ``guest_address`` block metadata — *not* on
    block names: lifters are free to name blocks however they like, and
    the historical ``g<hex>_...`` name parsing silently disabled all
    hardening when the naming scheme changed.  ``matched``/
    :meth:`unmatched` expose which vulnerable guest blocks the pass
    actually saw, so callers can warn about unguarded ones.
    """

    def __init__(self, vulnerable_blocks):
        self.vulnerable_blocks = frozenset(vulnerable_blocks)
        self.matched: set[int] = set()

    def __call__(self, block, terminator) -> bool:
        address = getattr(block, "guest_address", None)
        if address is None or address not in self.vulnerable_blocks:
            return False
        self.matched.add(address)
        return True

    def unmatched(self) -> frozenset:
        """Vulnerable guest blocks the hardening pass never reached."""
        return self.vulnerable_blocks - self.matched


def faulter_guided_filter(exe: Executable, good_input: bytes,
                          bad_input: bytes, grant_marker: bytes,
                          models: Sequence[str] = ("skip",)):
    """Branch filter protecting only faulter-flagged code (future work).

    The paper's conclusion proposes an iterative countermeasure
    insertion for the Hybrid methodology; this helper runs the faulter
    on the original binary and returns a ``branch_filter`` that hardens
    only branches in guest blocks containing a vulnerable point.
    Vulnerable points that cannot be attributed to a guest block are
    reported via :mod:`warnings` instead of being silently dropped.
    """
    from repro.disasm.recover import disassemble

    faulter = Faulter(exe, good_input, bad_input, grant_marker)
    module = disassemble(exe)
    vulnerable_blocks: set[int] = set()
    for model in models:
        report = faulter.run_campaign(model)
        for point in report.vulnerable_points():
            try:
                _, block, _ = module.find_instruction(point.address)
            except RewriteError:
                warnings.warn(
                    f"vulnerable point {point.address:#x} ({model}) "
                    f"maps to no guest block; it will not guide "
                    f"hardening", stacklevel=2)
                continue
            vulnerable_blocks.add(block.address)

    return GuidedBranchFilter(vulnerable_blocks)


def _warn_unguarded_blocks(branch_filter) -> None:
    """Surface guided-filter blocks the hardening pass never saw."""
    unmatched = getattr(branch_filter, "unmatched", None)
    if not callable(unmatched):
        return
    missing = unmatched()
    if missing:
        rendered = ", ".join(f"{address:#x}"
                             for address in sorted(missing))
        warnings.warn(
            f"faulter-flagged guest block(s) {rendered} were not "
            f"reached by branch hardening (no conditional branch, or "
            f"block not lifted)", stacklevel=2)


def _lower_plain(exe: Executable) -> Executable:
    """Lift ``exe``, clean it up and lower it with no countermeasures:
    the translation alone, whose size is the overhead of "the mere act
    of lifting" (Section IV-D)."""
    ir_module = Lifter(exe).lift()
    standard_cleanup().run(ir_module)
    lowered = lower_module(ir_module, exe)
    _carry_dynamic(lowered, exe)
    return lowered


def _carry_dynamic(hardened: Executable, original: Executable) -> None:
    """Carry a PIE original's dynamic tables onto the lowered output.

    Lowering pins data sections at their original addresses but
    regenerates code at a new base, so only entries anchored entirely
    in non-executable sections survive; code-anchored relocations and
    dynamic code symbols are dropped (their layout no longer exists).
    """
    if not original.pie:
        return
    data_sections = {s.name for s in original.sections
                     if not s.executable}

    def data_anchored(reloc) -> bool:
        if reloc.section not in data_sections:
            return False
        return not reloc.anchored or reloc.target_section in data_sections

    hardened.pie = True
    hardened.relocations = [r for r in original.relocations
                            if data_anchored(r)]
    hardened.dynamic_symbols = [s for s in original.dynamic_symbols
                                if s.section in data_sections]


def _validate(hardened, original, good_input, bad_input, name,
              original_runs=None):
    if original_runs is None:
        original_runs = run_inputs(original, (good_input, bad_input))
    for label, stdin, want in zip(("good", "bad"), (good_input, bad_input),
                                  original_runs):
        got = run_executable(hardened, stdin=stdin)
        if want.behavior() != got.behavior():
            raise ReproError(
                f"{name}: hybrid hardening changed {label}-input "
                f"behaviour: {want} vs {got}")
