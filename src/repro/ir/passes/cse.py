"""Common subexpression elimination (block-local value numbering).

Redundancy-based fault countermeasures are *intentional* common
subexpressions: the branch-hardening pass computes the edge checksum
twice and re-evaluates the comparison precisely so that one fault
cannot corrupt both copies.  A standard CSE pass would merge them and
silently undo the protection — the reason the paper's LLVM
implementation must mark its duplicates volatile.

Instructions carrying ``no_merge=True`` are therefore never unified
(unless ``respect_no_merge=False``, which exists for the ablation that
demonstrates the protection collapsing).
"""

from __future__ import annotations

from repro.ir.instructions import (
    BinOp, Call, ICmp, Load, SExt, Store, Trunc, ZExt)
from repro.ir.module import Function
from repro.ir.values import Constant, Value

_COMMUTATIVE = {"add", "mul", "and", "or", "xor"}


def _operand_key(value: Value):
    """Constants compare by value, everything else by identity."""
    if isinstance(value, Constant):
        return ("const", str(value.type), value.value)
    return ("val", id(value))


def _key(instruction, memory_epoch: int):
    if isinstance(instruction, BinOp):
        lhs = _operand_key(instruction.lhs)
        rhs = _operand_key(instruction.rhs)
        if instruction.op in _COMMUTATIVE and rhs < lhs:
            lhs, rhs = rhs, lhs
        return ("binop", instruction.op, lhs, rhs,
                str(instruction.type))
    if isinstance(instruction, ICmp):
        return ("icmp", instruction.pred,
                _operand_key(instruction.lhs),
                _operand_key(instruction.rhs))
    if isinstance(instruction, (ZExt, SExt, Trunc)):
        return (instruction.opcode, _operand_key(instruction.value),
                str(instruction.type))
    if isinstance(instruction, Load):
        # loads are only redundant within one memory epoch
        return ("load", _operand_key(instruction.pointer),
                str(instruction.type), memory_epoch)
    return None


def cse(function: Function, respect_no_merge: bool = True) -> bool:
    """Eliminate block-local redundant computations."""
    changed = False
    for block in function.blocks:
        available: dict = {}
        memory_epoch = 0
        erased = False
        for instruction in block.instructions:
            if isinstance(instruction, Store) or (
                    isinstance(instruction, Call)
                    and not getattr(instruction, "readonly", False)):
                memory_epoch += 1
            key = _key(instruction, memory_epoch)
            if key is None:
                continue
            if respect_no_merge and getattr(instruction, "no_merge",
                                            False):
                continue
            existing = available.get(key)
            if existing is not None:
                instruction.replace_all_uses_with(existing)
                instruction.unlink()
                erased = True
            else:
                available[key] = instruction
        if erased:
            block.purge_unlinked()
            changed = True
    return changed
