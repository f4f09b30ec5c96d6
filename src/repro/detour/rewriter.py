"""Patch-based detour instrumentation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.binfmt.image import Executable, Section, SymbolDef
from repro.errors import DecodingError, RewriteError
from repro.isa.decoder import decode
from repro.isa.encoder import encode
from repro.isa.insn import Instruction, Mnemonic
from repro.isa.operands import Imm, Mem
from repro.isa.registers import RIP
from repro.provenance import KIND_DERIVED, KIND_INSN, ProvenanceMap

JMP_REL32_LEN = 5
NOP = 0x90
PAGE = 0x1000


@dataclass
class DetourStats:
    patched: int = 0
    refused: int = 0
    trampoline_bytes: int = 0


class DetourRewriter:
    """Applies patch-based detours to an executable in place.

    Usage::

        rewriter = DetourRewriter(exe)
        rewriter.instrument(address, lambda displaced: [  # instrumentation
            displaced[0].insn_copy...,
        ])
        hardened = rewriter.finish()

    ``instrument`` callbacks receive the displaced instructions and
    return the instrumentation instruction list executed *before* them
    (the paper's trampoline order: instrumentation, replaced
    instruction, branch back).
    """

    def __init__(self, exe: Executable):
        self.exe = exe
        text = exe.section(".text")
        self.text_addr = text.addr
        self.text = bytearray(text.data)
        self.trampoline = bytearray()
        self.trampoline_base = self._pick_trampoline_base()
        self.stats = DetourStats()
        self.plan = None  # optional RewritePlan for per-unit rollups
        self._branch_targets = self._collect_branch_targets()
        self._patched_ranges: list[tuple[int, int]] = []
        # .text addresses never move under detouring; displaced
        # instructions additionally gain exact trampoline mappings
        self.provenance = ProvenanceMap(path="detour")
        if self.text:
            self.provenance.add_identity(
                self.text_addr, self.text_addr + len(self.text))

    # -- public ------------------------------------------------------------

    def instrument(self, address: int,
                   instrumentation: Callable[[list[Instruction]],
                                             list[Instruction]]) -> bool:
        """Detour the instruction(s) starting at ``address``."""
        displaced = self._displaced_window(address)
        if displaced is None:
            self.stats.refused += 1
            return False
        window_len = sum(i.length for i in displaced)
        resume = address + window_len

        entry = self.trampoline_base + len(self.trampoline)
        body: list[bytes] = []
        position = entry
        injected = instrumentation(displaced)
        for index, insn in enumerate(injected + displaced):
            code = self._reencode_at(insn, position)
            body.append(code)
            if insn.address is not None:
                # instrumentation copies protect their site (derived);
                # the displaced originals relocate verbatim (insn)
                kind = KIND_DERIVED if index < len(injected) \
                    else KIND_INSN
                self.provenance.add(insn.address, position, kind=kind)
            position += len(code)
        # jmp back to the resume point
        back = encode(Instruction(
            Mnemonic.JMP, (Imm(resume - (position + JMP_REL32_LEN), 4),)))
        body.append(back)
        self.trampoline += b"".join(body)

        # overwrite the original window: jmp trampoline + NOP padding
        offset = address - self.text_addr
        jump = encode(Instruction(
            Mnemonic.JMP,
            (Imm(entry - (address + JMP_REL32_LEN), 4),)))
        patch = jump + bytes([NOP]) * (window_len - JMP_REL32_LEN)
        self.text[offset:offset + window_len] = patch
        self._patched_ranges.append((address, address + window_len))
        self.stats.patched += 1
        self.stats.trampoline_bytes = len(self.trampoline)
        return True

    def finish(self) -> Executable:
        """Produce the instrumented executable (adds ``.detour``)."""
        sections = []
        for section in self.exe.sections:
            if section.name == ".text":
                sections.append(Section(
                    ".text", section.addr, bytes(self.text),
                    flags=section.flags))
            else:
                sections.append(section)
        if self.trampoline:
            sections.append(Section(
                ".detour", self.trampoline_base, bytes(self.trampoline),
                flags="rx"))
        symbols = list(self.exe.symbols)
        if self.trampoline:
            symbols.append(SymbolDef("fi_detour", self.trampoline_base,
                                     ".detour"))
        # .text addresses are stable under detouring, so the dynamic
        # tables of a PIE input carry over unchanged.
        return Executable(entry=self.exe.entry, sections=sections,
                          symbols=symbols, pie=self.exe.pie,
                          relocations=list(self.exe.relocations),
                          dynamic_symbols=list(self.exe.dynamic_symbols))

    # -- internals -----------------------------------------------------------

    def _pick_trampoline_base(self) -> int:
        top = max(s.end for s in self.exe.sections)
        return (top + PAGE - 1) // PAGE * PAGE + PAGE

    def _collect_branch_targets(self) -> set[int]:
        """Branch targets of every decodable ``.text`` instruction.

        Decoding stays in lockstep with instruction boundaries: on a
        :class:`DecodingError` (data embedded in ``.text``, exotic
        encodings) the walk resynchronizes at the next known-good
        boundary — the next ``.text`` symbol — instead of sliding one
        byte forward, which would decode garbage mid-blob and mint
        phantom branch targets (spuriously refusing legal detours).

        Past the last symbol the walk falls back to the conservative
        one-byte slide: it may over-approximate (phantom targets only
        ever *refuse* detours, which is safe), but it never drops a
        real target the window-overlap check depends on — important
        for stripped binaries, where no boundaries exist at all.
        """
        targets = set()
        boundaries = sorted(
            symbol.value - self.text_addr
            for symbol in self.exe.recovery_symbols()
            if symbol.section == ".text"
            and 0 <= symbol.value - self.text_addr < len(self.text))
        offset = 0
        while offset < len(self.text):
            try:
                insn = decode(self.text, offset,
                              self.text_addr + offset)
            except DecodingError:
                resume = next((b for b in boundaries if b > offset),
                              None)
                offset = resume if resume is not None else offset + 1
                continue
            target = insn.branch_target()
            if target is not None:
                targets.add(target)
            offset += insn.length
        return targets

    def _displaced_window(self, address: int) -> Optional[list]:
        """Instructions from ``address`` covering >= 5 bytes, if legal."""
        if any(start <= address < end
               for start, end in self._patched_ranges):
            return None
        displaced = []
        position = address
        while position - address < JMP_REL32_LEN:
            offset = position - self.text_addr
            if offset >= len(self.text):
                return None
            try:
                insn = decode(self.text, offset, position)
            except DecodingError:
                return None
            if insn.is_control_flow:
                return None  # keep it simple: never displace branches
            displaced.append(insn)
            position += insn.length
            # a branch target inside the window would jump into the
            # middle of our patch bytes
            if any(address < t < position for t in self._branch_targets):
                return None
        return displaced

    def _reencode_at(self, insn: Instruction, new_address: int) -> bytes:
        """Re-encode an instruction for a new location.

        RIP-relative operands are re-based; everything else is
        position-independent in the subset.
        """
        operands = []
        changed = False
        for operand in insn.operands:
            if isinstance(operand, Mem) and operand.is_rip_relative:
                if insn.address is None:
                    raise RewriteError("cannot rebase unplaced insn")
                target = insn.address + insn.length + operand.disp
                # length may change with the new displacement; iterate
                operands.append(("rip", operand, target))
                changed = True
            else:
                operands.append(("keep", operand, None))
        if not changed:
            return insn.raw if insn.raw else encode(insn)
        # fixpoint on the encoded length (disp32 is stable, so one pass)
        new_ops = []
        provisional = encode(insn.with_operands(*[
            o if kind == "keep" else Mem(RIP, None, 1, 0, o.size)
            for kind, o, _ in operands]))
        length = len(provisional)
        for kind, operand, target in operands:
            if kind == "keep":
                new_ops.append(operand)
            else:
                disp = target - (new_address + length)
                new_ops.append(Mem(RIP, None, 1, disp, operand.size))
        return encode(insn.with_operands(*new_ops))


def _duplication_rewriter(exe: Executable) -> DetourRewriter:
    """Detour every idempotent data instruction into a run-twice
    trampoline (the duplication countermeasure, Section III-B).

    Consumes the unit stream from :func:`recover_plan` instead of a
    raw linear decode of ``.text``: opaque (undecodable) units are
    skipped and preserved, sweep-recovered units on stripped inputs
    are instrumented like any function, and the resulting provenance
    map composes per-unit rollups.
    """
    from repro.disasm.units import recover_plan
    from repro.patcher.patterns import _is_idempotent
    from repro.provenance import with_unit_rollups

    rewriter = DetourRewriter(exe)
    _, plan = recover_plan(exe)
    rewriter.plan = plan
    for unit in plan.code_units():
        for block in unit.blocks:
            if not block.is_code:
                continue
            for entry in block.entries:
                insn = entry.insn
                if not insn.is_control_flow and \
                        insn.mnemonic is not Mnemonic.SYSCALL and \
                        _is_idempotent(entry):
                    rewriter.instrument(
                        insn.address, lambda displaced: [displaced[0]])
    rewriter.provenance = with_unit_rollups(rewriter.provenance, plan)
    return rewriter


def duplicate_with_detours(exe: Executable) -> tuple[Executable,
                                                     DetourStats]:
    """Apply the duplication countermeasure via detours.

    Every idempotent data instruction is displaced into a trampoline
    that executes it twice — the detour-flavoured equivalent of the
    inline duplication the patcher performs, used by the Section III-B
    comparison benchmark.
    """
    rewriter = _duplication_rewriter(exe)
    return rewriter.finish(), rewriter.stats


@dataclass
class DetourResult:
    """Outcome of detour-based hardening (duplication via trampolines).

    Mirrors the surface of ``HardenResult``/``HybridResult`` so the
    countermeasure-evaluation loop treats all three rewriting paths
    uniformly.
    """

    hardened: Executable
    original_text_size: int
    hardened_text_size: int
    stats: DetourStats = field(default_factory=DetourStats)
    provenance: ProvenanceMap = field(default_factory=lambda:
                                      ProvenanceMap(path="detour"))
    final_reports: dict = field(default_factory=dict)

    @property
    def overhead_percent(self) -> float:
        """Code-size overhead (original text + trampoline bytes)."""
        if self.original_text_size == 0:
            return 0.0
        return 100.0 * (self.hardened_text_size -
                        self.original_text_size) \
            / self.original_text_size

    def to_dict(self) -> dict:
        return {
            "approach": "detour",
            "original_text_size": self.original_text_size,
            "hardened_text_size": self.hardened_text_size,
            "overhead_percent": round(self.overhead_percent, 2),
            "patched": self.stats.patched,
            "refused": self.stats.refused,
            "trampoline_bytes": self.stats.trampoline_bytes,
            "provenance": self.provenance.to_dict(),
            "final_reports": {
                model: report.to_dict()
                for model, report in self.final_reports.items()
            },
        }

    def report(self) -> str:
        lines = [
            "Detour hardening report",
            f"  text size: {self.original_text_size}B -> "
            f"{self.hardened_text_size}B "
            f"({self.overhead_percent:+.2f}%)",
            f"  detours: {self.stats.patched} patched, "
            f"{self.stats.refused} refused, "
            f"{self.stats.trampoline_bytes}B trampoline",
        ]
        for model, report in self.final_reports.items():
            lines.append(
                f"  final[{model}]: "
                f"{len(report.vulnerable_points())} vulnerable "
                f"point(s)")
        return "\n".join(lines)


def detour_harden(exe: Executable,
                  good_input: bytes,
                  bad_input: bytes,
                  grant_marker,
                  name: str = "target",
                  models=(),
                  max_steps: int = 100_000,
                  original_runs=None) -> DetourResult:
    """Duplication-via-detours hardening with behaviour validation.

    ``grant_marker`` accepts raw marker ``bytes`` or any
    :class:`~repro.faulter.oracle.Oracle` (consumed by the optional
    ``models`` re-fault campaigns; validation compares behaviour).

    ``models`` optionally re-runs fault campaigns against the hardened
    binary (reported in ``final_reports``), each capped at
    ``max_steps`` emulated steps, mirroring the other two hardening
    entry points.  ``original_runs`` is the original's ``(good, bad)``
    pair of :class:`~repro.emu.machine.RunResult`, when the caller has
    it (``Target`` does); otherwise validation runs the original too.
    """
    from repro.emu.machine import run_executable, run_inputs

    rewriter = _duplication_rewriter(exe)
    hardened = rewriter.finish()
    if original_runs is None:
        original_runs = run_inputs(exe, (good_input, bad_input))
    for label, stdin, want in zip(("good", "bad"), (good_input, bad_input),
                                  original_runs):
        got = run_executable(hardened, stdin=stdin)
        if want.behavior() != got.behavior():
            raise RewriteError(
                f"{name}: detour hardening changed {label}-input "
                f"behaviour: {want} vs {got}")

    result = DetourResult(
        hardened=hardened,
        original_text_size=exe.code_size(),
        hardened_text_size=hardened.code_size(),
        stats=rewriter.stats,
        provenance=rewriter.provenance,
    )
    if models:
        from repro.faulter.campaign import Faulter

        faulter = Faulter(hardened, good_input, bad_input, grant_marker,
                          name=f"{name}-detour", max_steps=max_steps)
        result.final_reports = {
            model: faulter.run_campaign(model) for model in models}
    return result
