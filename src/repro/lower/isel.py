"""Instruction selection: SSA IR -> MIR with virtual registers.

All SSA values live in 64-bit virtual registers, zero-extended to their
IR width.  Sub-64-bit operations re-mask their results; signed
comparisons and arithmetic shifts sign-extend their inputs first.  Phis
are lowered to parallel-safe copy sequences in predecessors (critical
edges must be split beforehand).
"""

from __future__ import annotations

from repro.errors import LowerError
from repro.ir.instructions import (
    Alloca, BinOp, Br, Call, CondBr, ICmp, IntToPtr, Load, Phi, PtrToInt,
    Ret, Select, SExt, Store, Switch, Trunc, Unreachable, ZExt)
from repro.ir.module import BasicBlock, Function
from repro.ir.values import Constant, Undef
from repro.isa.cond import Cond
from repro.lower.mir import MBlock, MFunction, MImm, MInsn, MMem, VReg

_PRED_TO_COND = {
    "eq": Cond.E, "ne": Cond.NE,
    "ult": Cond.B, "ule": Cond.BE, "ugt": Cond.A, "uge": Cond.AE,
    "slt": Cond.L, "sle": Cond.LE, "sgt": Cond.G, "sge": Cond.GE,
}
_SIGNED_PREDS = {"slt", "sle", "sgt", "sge"}

_INT32_MIN, _INT32_MAX = -(1 << 31), (1 << 31) - 1


def split_critical_edges(function: Function) -> int:
    """Split edges from multi-successor blocks into multi-pred blocks."""
    count = 0
    predecessors = function.predecessor_map()
    for block in list(function.blocks):
        terminator = block.terminator
        if terminator is None:
            continue
        successors = terminator.successors()
        if len(successors) < 2:
            continue
        for successor in list(dict.fromkeys(successors)):
            preds = predecessors[id(successor)]
            if len(preds) < 2 or not successor.phis():
                continue
            middle = function.add_block(
                function.fresh_name("crit"), after=block)
            middle.copy_guest_origin(block)
            middle.append(Br(successor))
            terminator.replace_successor(successor, middle)
            for phi in successor.phis():
                phi.replace_incoming_block(block, middle)
            preds[preds.index(block)] = middle
            predecessors[id(middle)] = [block]
            count += 1
    return count


class ISel:
    """Selects MIR for one IR function."""

    def __init__(self, function: Function):
        self.fn = function
        self.mfn = MFunction(function.name)
        self.values: dict[int, VReg] = {}
        self.block_names: dict[int, str] = {}
        self._fused: set[int] = set()  # icmp/xor ids folded into branches

    # -- value mapping -----------------------------------------------------

    def vreg_of(self, value) -> VReg:
        key = id(value)
        if key not in self.values:
            self.values[key] = self.mfn.new_vreg()
        return self.values[key]

    def operand(self, value, block: MBlock):
        """MIR operand for an IR value; constants fold into immediates."""
        if isinstance(value, Constant):
            return MImm(value.unsigned
                        if value.type.bits < 64 else value.value)
        if isinstance(value, Undef):
            return MImm(0)
        return self.vreg_of(value)

    def as_vreg(self, value, block: MBlock) -> VReg:
        """Force an IR value into a virtual register."""
        operand = self.operand(value, block)
        if isinstance(operand, VReg):
            return operand
        fresh = self.mfn.new_vreg()
        block.append(MInsn("mov", [fresh, operand]))
        return fresh

    def _imm_or_vreg(self, value, block: MBlock):
        """Immediate if it fits imm32, else a register."""
        operand = self.operand(value, block)
        if isinstance(operand, MImm) and not (
                _INT32_MIN <= operand.value <= _INT32_MAX):
            return self.as_vreg(value, block)
        return operand

    # -- driver ------------------------------------------------------------

    def run(self) -> MFunction:
        self.fn.renumber()
        for block in self.fn.blocks:
            name = f"L{block.name}"
            self.block_names[id(block)] = name
            self.mfn.blocks.append(MBlock(
                name,
                guest_address=block.guest_address,
                guest_size=block.guest_size,
                guest_derived=block.guest_derived))
        for block, mblock in zip(self.fn.blocks, self.mfn.blocks):
            self._select_block(block, mblock)
        return self.mfn

    def _select_block(self, block: BasicBlock, mblock: MBlock):
        for instruction in block.instructions:
            if isinstance(instruction, Phi):
                self.vreg_of(instruction)  # assigned by predecessors
                continue
            if instruction.is_terminator:
                self._phi_copies(block, mblock)
                self._terminator(instruction, mblock)
                return
            self._select(instruction, mblock)
        raise LowerError(f"block {block.name} has no terminator")

    # -- phi copies -----------------------------------------------------------

    def _phi_copies(self, block: BasicBlock, mblock: MBlock):
        copies = []
        for successor in block.successors():
            for phi in successor.phis():
                value = phi.incoming_for(block)
                if value is None:
                    raise LowerError(
                        f"phi in {successor.name} missing incoming for "
                        f"{block.name}")
                copies.append((self.vreg_of(phi), value))
        if not copies:
            return
        # two-phase parallel copy: stage sources in temporaries first
        staged = []
        for destination, value in copies:
            temp = self.mfn.new_vreg()
            mblock.append(MInsn("mov",
                                [temp, self.operand(value, mblock)]))
            staged.append((destination, temp))
        for destination, temp in staged:
            mblock.append(MInsn("mov", [destination, temp]))

    # -- terminators ----------------------------------------------------------

    def _label(self, block: BasicBlock) -> str:
        return self.block_names[id(block)]

    def _terminator(self, instruction, mblock: MBlock):
        if isinstance(instruction, Br):
            mblock.append(MInsn("jmp", [self._label(instruction.target)]))
            return
        if isinstance(instruction, CondBr):
            fused = self._fusable_compare(instruction.cond)
            if fused is not None:
                icmp, invert = fused
                cond = _PRED_TO_COND[icmp.pred]
                if invert:
                    cond = cond.inverted
                self._emit_compare(icmp, mblock)
                mblock.append(MInsn(
                    "jcc", [self._label(instruction.if_true)], cond=cond))
            else:
                value = self.as_vreg(instruction.cond, mblock)
                mblock.append(MInsn("cmp", [value, MImm(0)]))
                mblock.append(MInsn(
                    "jcc", [self._label(instruction.if_true)],
                    cond=Cond.NE))
            mblock.append(MInsn("jmp",
                                [self._label(instruction.if_false)]))
            return
        if isinstance(instruction, Switch):
            value = self.as_vreg(instruction.value, mblock)
            if len(instruction.cases) == 1:
                # invert: fall through toward the case, jump to default
                constant, target = instruction.cases[0]
                case_operand = self._imm_or_vreg(constant, mblock)
                mblock.append(MInsn("cmp", [value, case_operand]))
                mblock.append(MInsn(
                    "jcc", [self._label(instruction.default)],
                    cond=Cond.NE))
                mblock.append(MInsn("jmp", [self._label(target)]))
                return
            for constant, target in instruction.cases:
                case_operand = self._imm_or_vreg(constant, mblock)
                mblock.append(MInsn("cmp", [value, case_operand]))
                mblock.append(MInsn("jcc", [self._label(target)],
                                    cond=Cond.E))
            mblock.append(MInsn("jmp",
                                [self._label(instruction.default)]))
            return
        if isinstance(instruction, (Ret, Unreachable)):
            mblock.append(MInsn("ud2" if isinstance(instruction,
                                                    Unreachable)
                                else "hlt", []))
            return
        raise LowerError(f"unhandled terminator {instruction.opcode}")

    # -- ordinary instructions -----------------------------------------------

    def _fusable_compare(self, cond):
        """(icmp, inverted) when the branch can consume flags directly.

        Requires the condition (and, for the xor-inverted form, the
        inner icmp) to have the branch as its only user, so skipping
        the standalone materialization is safe.
        """
        if isinstance(cond, ICmp) and len(cond.users) == 1:
            self._fused.add(id(cond))
            return cond, False
        if isinstance(cond, BinOp) and cond.op == "xor" and \
                len(cond.users) == 1 and \
                isinstance(cond.rhs, Constant) and \
                cond.rhs.unsigned == 1 and \
                isinstance(cond.lhs, ICmp) and len(cond.lhs.users) == 1:
            self._fused.add(id(cond))
            self._fused.add(id(cond.lhs))
            return cond.lhs, True
        return None

    def _emit_compare(self, i: ICmp, mblock: MBlock):
        """The cmp part of an icmp (shared by setcc and fused forms)."""
        bits = i.lhs.type.bits
        if i.pred in _SIGNED_PREDS and bits < 64:
            lhs = self._sign_extend_to_64(i.lhs, bits, mblock)
            rhs = self._sign_extend_to_64(i.rhs, bits, mblock)
        else:
            lhs = self.as_vreg(i.lhs, mblock)
            rhs = self._imm_or_vreg(i.rhs, mblock)
        mblock.append(MInsn("cmp", [lhs, rhs]))

    def _select(self, i, mblock: MBlock):
        if id(i) in self._fused:
            return  # folded into the consuming conditional branch
        if isinstance(i, BinOp):
            self._binop(i, mblock)
        elif isinstance(i, ICmp):
            self._icmp(i, mblock)
        elif isinstance(i, (ZExt, IntToPtr, PtrToInt)):
            source = self.operand(i.value, mblock)
            mblock.append(MInsn("mov", [self.vreg_of(i), source]))
        elif isinstance(i, SExt):
            self._sext(i, mblock)
        elif isinstance(i, Trunc):
            dst = self.vreg_of(i)
            mblock.append(MInsn("mov",
                                [dst, self.operand(i.value, mblock)]))
            if i.type.bits < 64:
                self._mask(dst, i.type.bits, mblock)
        elif isinstance(i, Load):
            base = self.as_vreg(i.pointer, mblock)
            mblock.append(MInsn("load", [self.vreg_of(i), MMem(base)],
                                width=i.type.bits // 8))
        elif isinstance(i, Store):
            self._store(i, mblock)
        elif isinstance(i, Select):
            cond, if_true, if_false = i.operands
            dst = self.vreg_of(i)
            mblock.append(MInsn("mov",
                                [dst, self.operand(if_false, mblock)]))
            true_reg = self.as_vreg(if_true, mblock)
            mblock.append(MInsn("cmp", [self.as_vreg(cond, mblock),
                                        MImm(0)]))
            mblock.append(MInsn("cmov", [dst, true_reg], cond=Cond.NE))
        elif isinstance(i, Call):
            self._call(i, mblock)
        elif isinstance(i, Alloca):
            raise LowerError(
                "alloca survived mem2reg; cannot lower stack slots")
        else:
            raise LowerError(f"unhandled instruction {i.opcode}")

    def _mask(self, dst: VReg, bits: int, mblock: MBlock):
        if bits >= 64:
            return
        if bits == 32:
            mask_reg = self.mfn.new_vreg()
            mblock.append(MInsn("mov", [mask_reg, MImm(0xFFFFFFFF)]))
            mblock.append(MInsn("and", [dst, mask_reg]))
        else:
            mblock.append(MInsn("and", [dst, MImm((1 << bits) - 1)]))

    def _sign_extend_to_64(self, value, bits: int, mblock: MBlock) -> VReg:
        reg = self.as_vreg(value, mblock)
        if bits >= 64:
            return reg
        extended = self.mfn.new_vreg()
        mblock.append(MInsn("mov", [extended, reg]))
        mblock.append(MInsn("shl", [extended, MImm(64 - bits)]))
        mblock.append(MInsn("sar", [extended, MImm(64 - bits)]))
        return extended

    def _binop(self, i: BinOp, mblock: MBlock):
        bits = i.type.bits
        dst = self.vreg_of(i)
        op = i.op
        if op in ("shl", "lshr", "ashr"):
            self._shift(i, mblock)
            return
        if op in ("udiv", "urem"):
            raise LowerError("integer division is not in the subset")
        mblock.append(MInsn("mov", [dst, self.operand(i.lhs, mblock)]))
        rhs = self._imm_or_vreg(i.rhs, mblock)
        mir_op = {"add": "add", "sub": "sub", "mul": "imul",
                  "and": "and", "or": "or", "xor": "xor"}[op]
        if mir_op == "imul" and isinstance(rhs, MImm):
            rhs = self.as_vreg(i.rhs, mblock)
        mblock.append(MInsn(mir_op, [dst, rhs]))
        if bits < 64 and op in ("add", "sub", "mul", "xor"):
            self._mask(dst, bits, mblock)

    def _shift(self, i: BinOp, mblock: MBlock):
        bits = i.type.bits
        dst = self.vreg_of(i)
        op = i.op
        if op == "ashr" and bits < 64:
            source = self._sign_extend_to_64(i.lhs, bits, mblock)
        else:
            source = self.as_vreg(i.lhs, mblock)
        mblock.append(MInsn("mov", [dst, source]))
        mir_op = {"shl": "shl", "lshr": "shr", "ashr": "sar"}[op]
        if isinstance(i.rhs, Constant):
            amount = i.rhs.unsigned & 63
            mblock.append(MInsn(mir_op, [dst, MImm(amount)]))
        else:
            mblock.append(MInsn(mir_op,
                                [dst, self.as_vreg(i.rhs, mblock)]))
        if bits < 64:
            self._mask(dst, bits, mblock)

    def _icmp(self, i: ICmp, mblock: MBlock):
        self._emit_compare(i, mblock)
        mblock.append(MInsn("setcc", [self.vreg_of(i)],
                            cond=_PRED_TO_COND[i.pred]))

    def _sext(self, i: SExt, mblock: MBlock):
        bits = i.value.type.bits
        extended = self._sign_extend_to_64(i.value, bits, mblock)
        dst = self.vreg_of(i)
        mblock.append(MInsn("mov", [dst, extended]))
        if i.type.bits < 64:
            self._mask(dst, i.type.bits, mblock)

    def _store(self, i: Store, mblock: MBlock):
        base = self.as_vreg(i.pointer, mblock)
        width = i.value.type.bits // 8
        operand = self.operand(i.value, mblock)
        if isinstance(operand, MImm) and not (
                _INT32_MIN <= operand.value <= _INT32_MAX and width >= 4
                or -128 <= operand.value <= 255 and width == 1):
            operand = self.as_vreg(i.value, mblock)
        mblock.append(MInsn("store", [MMem(base), operand], width=width))

    def _call(self, i: Call, mblock: MBlock):
        if i.callee == "syscall":
            args = [self._imm_or_vreg(a, mblock) for a in i.operands]
            while len(args) < 4:
                args.append(MImm(0))
            mblock.append(MInsn("syscall", [self.vreg_of(i)] + args))
            return
        if i.callee == "abort":
            mblock.append(MInsn("abort", []))
            return
        if i.callee == "halt":
            mblock.append(MInsn("hlt", []))
            return
        raise LowerError(f"unknown callee @{i.callee}")
