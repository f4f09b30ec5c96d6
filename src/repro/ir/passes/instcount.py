"""Instruction histograms (the Table IV metric)."""

from __future__ import annotations

from collections import Counter

from repro.ir.instructions import BinOp, ICmp
from repro.ir.module import Function


def instruction_histogram(function: Function) -> Counter:
    """Count instructions by concrete opcode (binops by operator)."""
    histogram: Counter = Counter()
    for instruction in function.instructions():
        if isinstance(instruction, BinOp):
            histogram[instruction.op] += 1
        elif isinstance(instruction, ICmp):
            histogram["icmp"] += 1
        else:
            histogram[instruction.opcode] += 1
    return histogram
