"""Full-duplication comparator (the paper's >=300% strawman baseline).

"Duplicating every instruction, which is the go-to protection scheme
against fault injection, implies at least 300% overhead in code size
(since for each instruction, it will add another copy of the
instruction and a comparison procedure between their results)."

The benchmarks and tests measure the paper's approaches against this
scheme, applied honestly at the machine level so the baseline binary
still runs: idempotent instructions are re-executed into a dead
scratch register and compared; non-idempotent ALU updates are computed
twice into two scratch registers, compared, then committed.
Instructions the scheme cannot duplicate (control flow, stack
manipulation, system calls, or sites without enough dead registers) are
left in place and counted.  Scratch registers come from
:class:`RegisterLiveness`, a backward register liveness over the CFG.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gtirb.cfg import CFG, build_cfg
from repro.gtirb.ir import CodeBlock, InsnEntry, Module
from repro.isa.cond import Cond
from repro.isa.insn import Instruction, Mnemonic
from repro.isa.metadata import effects
from repro.isa.operands import Reg
from repro.isa.registers import all_gpr64, reg, sub_register
from repro.patcher.patcher import Patcher
from repro.patcher.patterns import PatchBuilder, _operand_regs, _uses_rsp

ALL_REGS = frozenset(all_gpr64())


class RegisterLiveness:
    """Per-block register liveness query object.

    Registers are tracked at 64-bit GPR granularity (sub-register
    reads/writes touch the parent).  Unknown control flow (indirect
    jumps, returns) conservatively treats every register as live.
    """

    def __init__(self, module: Module):
        self.module = module
        self.cfg: CFG = build_cfg(module)
        self._live_in: dict[int, frozenset] = {}
        self._effects_cache: dict[int, list] = {}
        self._compute()

    def live_in(self, block: CodeBlock) -> frozenset:
        return self._live_in.get(block.uid, ALL_REGS)

    def live_out(self, block: CodeBlock) -> frozenset:
        edges = self.cfg.successors(block)
        if not edges:
            return frozenset()
        out = set()
        for edge in edges:
            if edge.dst is None:
                return ALL_REGS
            out |= self.live_in(edge.dst)
        return frozenset(out)

    def live_after(self, block: CodeBlock, index: int) -> frozenset:
        """Registers live immediately after ``block.entries[index]``."""
        live = set(self.live_out(block))
        for entry in reversed(block.entries[index + 1:]):
            eff = effects(entry.insn)
            live -= eff.writes
            live |= eff.reads
        return frozenset(live)

    def dead_after(self, block: CodeBlock, index: int) -> frozenset:
        """Registers provably dead after the entry (safe scratch picks)."""
        return ALL_REGS - self.live_after(block, index)

    # ------------------------------------------------------------------

    def _block_effects(self, block: CodeBlock) -> list:
        cached = self._effects_cache.get(block.uid)
        if cached is None:
            cached = [effects(e.insn) for e in block.entries]
            self._effects_cache[block.uid] = cached
        return cached

    def _transfer(self, block: CodeBlock, live_out: frozenset) -> frozenset:
        live = set(live_out)
        for eff in reversed(self._block_effects(block)):
            live -= eff.writes
            live |= eff.reads
        return frozenset(live)

    def _compute(self):
        blocks = self.module.code_blocks()
        for block in blocks:
            self._live_in[block.uid] = frozenset()
        changed = True
        while changed:
            changed = False
            for block in reversed(blocks):
                new_value = self._transfer(block, self.live_out(block))
                if new_value != self._live_in[block.uid]:
                    self._live_in[block.uid] = new_value
                    changed = True


_DUPLICABLE_IDEMPOTENT = {Mnemonic.MOV, Mnemonic.LEA, Mnemonic.MOVZX,
                          Mnemonic.SETCC, Mnemonic.CMP, Mnemonic.TEST}
_DUPLICABLE_ALU = {Mnemonic.ADD, Mnemonic.SUB, Mnemonic.XOR, Mnemonic.AND,
                   Mnemonic.OR, Mnemonic.IMUL, Mnemonic.INC, Mnemonic.DEC}

RSP = reg("rsp")
RBP = reg("rbp")


@dataclass
class DuplicationStats:
    duplicated: int = 0
    skipped: int = 0

    @property
    def total(self) -> int:
        return self.duplicated + self.skipped


def duplicate_everything(module: Module) -> DuplicationStats:
    """Apply the duplication scheme to every eligible instruction."""
    patcher = Patcher(module)
    stats = DuplicationStats()
    targets = [
        entry
        for block in module.text().code_blocks()
        for entry in list(block.entries)
        if not entry.protected
    ]
    for entry in targets:
        if _duplicate_entry(patcher, entry):
            stats.duplicated += 1
        else:
            stats.skipped += 1
    return stats


def _duplicate_entry(patcher: Patcher, entry: InsnEntry) -> bool:
    insn = entry.insn
    mnemonic = insn.mnemonic
    located = patcher._locate(entry)
    if located is None:
        return False
    section, block, index = located
    if _uses_rsp(entry):
        return False

    liveness = RegisterLiveness(patcher.module)
    dead = liveness.dead_after(block, index)
    dead = frozenset(r for r in dead if r not in (RSP, RBP))
    used = set()
    for operand in insn.operands:
        used |= _operand_regs(operand)
    scratch_candidates = sorted(
        (r for r in dead if r not in used), key=lambda r: r.name)
    flags_live = patcher.flag_liveness().live_after(block, index)
    if flags_live:
        # the verification compare would corrupt live flags
        scratch_candidates = []

    # registers that can be shadowed through a push/pop spill when no
    # dead register is available (any GPR not touched by the insn)
    spillable = [r for r in all_gpr64()
                 if r not in used and r not in (RSP, RBP)]

    builder = PatchBuilder(patcher.module, patcher.ensure_faulthandler(),
                           site=entry)
    built = False
    if mnemonic in _DUPLICABLE_IDEMPOTENT:
        built = _duplicate_idempotent(builder, entry, scratch_candidates,
                                      [] if flags_live else spillable)
    elif mnemonic in _DUPLICABLE_ALU and not flags_live and \
            len(scratch_candidates) >= 2:
        built = _duplicate_alu(builder, entry, scratch_candidates)
    if not built:
        return False
    patcher._splice(section, block, index, builder)
    patcher._invalidate()
    return True


def _duplicate_idempotent(builder: PatchBuilder, entry: InsnEntry,
                          scratch, spillable) -> bool:
    """insn ; insn' (into a shadow register) ; compare ; verify."""
    insn = entry.insn
    builder.copy_original(entry)
    dst = insn.operands[0] if insn.operands else None
    if insn.mnemonic in (Mnemonic.CMP, Mnemonic.TEST):
        builder.copy_original(entry)  # re-execution re-derives the flags
        return True
    shadow_reg = scratch[0] if scratch else None
    spilled = False
    if shadow_reg is None and spillable:
        shadow_reg = spillable[0]
        spilled = True
    if isinstance(dst, Reg) and shadow_reg is not None and \
            len(insn.operands) == 2:
        shadow = Reg(sub_register(shadow_reg, dst.size))
        if spilled:
            builder.insn(Mnemonic.PUSH, Reg(shadow_reg))
        duplicate = InsnEntry(
            Instruction(insn.mnemonic, (shadow, insn.operands[1]),
                        cond=insn.cond),
            dict(entry.sym_operands), protected=True,
            origin=entry.root_site())
        builder.items.append(("insn", duplicate))
        builder.insn(Mnemonic.CMP, dst, shadow)
        ok = builder.module.fresh_symbol("fi_dup_ok", None)
        builder.jump_to(ok, cond=Cond.E)
        builder.call_faulthandler()
        builder.items.append(("label", ok))
        if spilled:
            builder.insn(Mnemonic.POP, Reg(shadow_reg))
        return True
    builder.copy_original(entry)  # plain re-execution
    return True


def _duplicate_alu(builder: PatchBuilder, entry: InsnEntry,
                   scratch) -> bool:
    """Compute twice into scratches, compare, commit."""
    insn = entry.insn
    dst = insn.operands[0] if insn.operands else None
    if not isinstance(dst, Reg) or dst.size != 8:
        builder.copy_original(entry)  # e.g. memory destination: keep
        return True
    s1, s2 = Reg(scratch[0]), Reg(scratch[1])
    syms = dict(entry.sym_operands)
    source = insn.operands[1] if len(insn.operands) > 1 else None

    def shadow_op(shadow: Reg):
        builder.insn(Mnemonic.MOV, shadow, dst)
        if source is not None:
            builder.items.append(("insn", InsnEntry(
                Instruction(insn.mnemonic, (shadow, source)),
                syms, protected=True, origin=entry.root_site())))
        else:
            builder.insn(insn.mnemonic, shadow)

    shadow_op(s1)
    shadow_op(s2)
    builder.insn(Mnemonic.CMP, s1, s2)
    ok = builder.module.fresh_symbol("fi_dup_ok", None)
    builder.jump_to(ok, cond=Cond.E)
    builder.call_faulthandler()
    builder.items.append(("label", ok))
    builder.insn(Mnemonic.MOV, dst, s1)
    return True
