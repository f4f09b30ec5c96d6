"""MIR peephole cleanups: copy propagation, dead defs, self-moves.

These run between instruction selection and register allocation (plus a
post-allocation self-move sweep) and are what keeps the lift+lower
translation overhead in a realistic band rather than a naive-codegen
explosion.
"""

from __future__ import annotations

from collections import Counter

from repro.isa.registers import Register
from repro.lower.mir import MFunction, MImm, MInsn, MMem, OPCODES, VReg

_INT32_MIN, _INT32_MAX = -(1 << 31), (1 << 31) - 1

# ops whose rhs/source position accepts an imm32
_IMM_RHS_OK = {"mov", "add", "sub", "and", "or", "xor", "cmp", "test",
               "store", "syscall"}

_PURE_OPS = {"mov", "load", "setcc", "cmov", "add", "sub", "and", "or",
             "xor", "imul", "shl", "shr", "sar", "neg", "not"}


def _fits32(value: int) -> bool:
    return _INT32_MIN <= value <= _INT32_MAX


def copy_propagate(mfn: MFunction) -> int:
    """Forward, per-block propagation of ``mov dst, src`` copies."""
    rewrites = 0
    for block in mfn.blocks:
        copies: dict[VReg, object] = {}

        def resolve(operand):
            seen = set()
            while isinstance(operand, VReg) and operand in copies and \
                    operand not in seen:
                seen.add(operand)
                operand = copies[operand]
            return operand

        for insn in block.insns:
            n_defs, reads_dst = OPCODES[insn.op]
            for index, operand in enumerate(insn.operands):
                is_def_slot = (index == 0 and n_defs == 1)
                if isinstance(operand, MMem) and \
                        isinstance(operand.base, VReg):
                    base = resolve(operand.base)
                    if isinstance(base, VReg) and \
                            base is not operand.base:
                        insn.operands[index] = MMem(base, operand.disp)
                        rewrites += 1
                    continue
                if is_def_slot or not isinstance(operand, VReg):
                    continue
                value = resolve(operand)
                if value is operand:
                    continue
                if isinstance(value, VReg):
                    insn.operands[index] = value
                    rewrites += 1
                elif isinstance(value, MImm):
                    if insn.op in _IMM_RHS_OK and index >= 1 and \
                            _fits32(value.value):
                        insn.operands[index] = value
                        rewrites += 1
            # update the copy environment
            defs = insn.defs()
            for defined in defs:
                copies.pop(defined, None)
                for key in [k for k, v in copies.items()
                            if isinstance(v, VReg) and v == defined]:
                    copies.pop(key)
            if insn.op == "mov":
                dst, src = insn.operands
                if isinstance(dst, VReg) and \
                        isinstance(src, (VReg, MImm)) and src != dst:
                    copies[dst] = src
    return rewrites


def eliminate_dead_defs(mfn: MFunction) -> int:
    """Remove pure instructions whose results nobody reads.

    Removing an instruction only lowers use counts, so a worklist
    reaches the fixpoint that sweeping the function until nothing
    changes would: the counts are taken once and kept current, and a
    removal re-examines only the pure definers of the registers it
    read.
    """
    every_use: list[VReg] = []
    definers: dict[VReg, list[MInsn]] = {}
    facts: dict[int, tuple] = {}  # id(pure definer) -> (uses, defs)
    work: list[MInsn] = []
    for block in mfn.blocks:
        for insn in block.insns:
            uses = insn.uses()
            every_use += uses
            if insn.op not in _PURE_OPS:
                continue
            defs = insn.defs()
            if defs:
                facts[id(insn)] = (uses, defs)
                work.append(insn)
                for defined in defs:
                    definers.setdefault(defined, []).append(insn)
    use_counts = Counter(every_use)
    removed: set[int] = set()
    while work:
        insn = work.pop()
        if id(insn) in removed:
            continue
        uses, defs = facts[id(insn)]
        # dead: every read of its results is its own (``add v, v``)
        if any(use_counts[d] != uses.count(d) for d in defs):
            continue
        removed.add(id(insn))
        for used in uses:
            use_counts[used] -= 1
        for used in dict.fromkeys(uses):
            work.extend(definers.get(used, ()))
    if removed:
        for block in mfn.blocks:
            block.insns = [insn for insn in block.insns
                           if id(insn) not in removed]
    return len(removed)


def remove_self_moves(mfn: MFunction) -> int:
    """Post-allocation: drop ``mov r, r``."""
    removed = 0
    for block in mfn.blocks:
        kept = []
        for insn in block.insns:
            if insn.op == "mov":
                dst, src = insn.operands
                if isinstance(dst, Register) and isinstance(src, Register) \
                        and dst is src:
                    removed += 1
                    continue
            kept.append(insn)
        block.insns = kept
    return removed


def optimize_mir(mfn: MFunction) -> dict:
    """Pre-allocation pipeline; returns a small stats dict."""
    stats = {"copy_prop": 0, "dead": 0}
    for _ in range(3):
        stats["copy_prop"] += copy_propagate(mfn)
        removed = eliminate_dead_defs(mfn)
        stats["dead"] += removed
        if not removed:
            break
    return stats
