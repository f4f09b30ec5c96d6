"""Constant folding for binops, icmps, casts and selects."""

from __future__ import annotations

from repro.errors import IRError
from repro.ir.instructions import (
    BinOp, ICmp, Select, SExt, Trunc, ZExt)
from repro.ir.module import Function
from repro.ir.values import Constant


def _signed(value: int, bits: int) -> int:
    value &= (1 << bits) - 1
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def _fold_binop(i: BinOp) -> int:
    bits = i.type.bits
    mask = i.type.mask
    a = i.lhs.unsigned
    b = i.rhs.unsigned
    op = i.op
    if op == "add":
        return (a + b) & mask
    if op == "sub":
        return (a - b) & mask
    if op == "mul":
        return (a * b) & mask
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "shl":
        return (a << b) & mask if b < bits else 0
    if op == "lshr":
        return a >> b if b < bits else 0
    if op == "ashr":
        shift = min(b, bits - 1)
        return (_signed(a, bits) >> shift) & mask
    if op == "udiv":
        return (a // b) & mask if b else 0
    if op == "urem":
        return (a % b) & mask if b else 0
    raise IRError(f"cannot fold {op}")


def _fold_icmp(i: ICmp) -> bool:
    bits = i.lhs.type.bits
    a, b = i.lhs.unsigned, i.rhs.unsigned
    sa, sb = _signed(a, bits), _signed(b, bits)
    return {
        "eq": a == b, "ne": a != b,
        "ult": a < b, "ule": a <= b, "ugt": a > b, "uge": a >= b,
        "slt": sa < sb, "sle": sa <= sb, "sgt": sa > sb, "sge": sa >= sb,
    }[i.pred]


def _algebraic(i: BinOp):
    """Identity simplifications (``xor x,x -> 0`` and friends).

    Besides shrinking code, folding ``xor x, x`` removes a
    single-instruction zeroing idiom that an instruction-skip fault
    could otherwise corrupt.
    """
    lhs, rhs = i.lhs, i.rhs
    same = lhs is rhs
    rhs_zero = isinstance(rhs, Constant) and rhs.unsigned == 0
    rhs_one = isinstance(rhs, Constant) and rhs.unsigned == 1
    if i.op in ("xor", "sub") and same:
        return Constant(i.type, 0)
    if i.op in ("and", "or") and same:
        return lhs
    if i.op in ("add", "sub", "or", "xor", "shl", "lshr", "ashr") and \
            rhs_zero:
        return lhs
    if i.op == "and" and rhs_zero:
        return Constant(i.type, 0)
    if i.op == "mul" and rhs_one:
        return lhs
    if i.op == "mul" and rhs_zero:
        return Constant(i.type, 0)
    return None


def constant_fold(function: Function) -> bool:
    changed = False
    progress = True
    while progress:
        progress = False
        for block in function.blocks:
            erased = False
            for instruction in block.instructions:
                replacement = None
                if isinstance(instruction, BinOp) and \
                        isinstance(instruction.lhs, Constant) and \
                        isinstance(instruction.rhs, Constant):
                    replacement = Constant(instruction.type,
                                           _fold_binop(instruction))
                elif isinstance(instruction, BinOp):
                    replacement = _algebraic(instruction)
                elif isinstance(instruction, ICmp) and \
                        isinstance(instruction.lhs, Constant) and \
                        isinstance(instruction.rhs, Constant):
                    replacement = Constant(instruction.type,
                                           1 if _fold_icmp(instruction)
                                           else 0)
                elif isinstance(instruction, (ZExt, Trunc)) and \
                        isinstance(instruction.value, Constant):
                    replacement = Constant(
                        instruction.type,
                        instruction.value.unsigned & instruction.type.mask)
                elif isinstance(instruction, SExt) and \
                        isinstance(instruction.value, Constant):
                    replacement = Constant(instruction.type,
                                           instruction.value.value)
                elif isinstance(instruction, Select) and \
                        isinstance(instruction.operands[0], Constant):
                    cond, if_true, if_false = instruction.operands
                    chosen = if_true if cond.unsigned else if_false
                    if isinstance(chosen, Constant):
                        replacement = chosen
                if replacement is not None:
                    instruction.replace_all_uses_with(replacement)
                    instruction.unlink()
                    erased = True
            if erased:
                block.purge_unlinked()
                progress = True
                changed = True
    return changed
