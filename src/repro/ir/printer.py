"""Textual rendering of the IR (LLVM-flavoured)."""

from __future__ import annotations

from repro.ir.instructions import (
    Alloca, BinOp, Br, Call, CondBr, ICmp, Load, Phi, Ret, Select, Store,
    Switch, Trunc, Unreachable, ZExt, SExt, IntToPtr, PtrToInt)
from repro.ir.module import BasicBlock, Function


def print_function(function: Function) -> str:
    function.renumber()
    args = ", ".join(f"{a.type} %{a.name}" for a in function.args)
    ret = function.type.ret if hasattr(function.type, "ret") else "void"
    lines = [f"define {ret} @{function.name}({args}) {{"]
    for block in function.blocks:
        lines.append(f"{block.name}:")
        for instruction in block.instructions:
            lines.append(f"  {_render(instruction)}")
    lines.append("}")
    return "\n".join(lines)


def _value(value) -> str:
    if isinstance(value, BasicBlock):
        return f"label %{value.name}"
    return value.short_name()


def _render(i) -> str:
    if isinstance(i, BinOp):
        return (f"{i.short_name()} = {i.op} {i.type} "
                f"{_value(i.lhs)}, {_value(i.rhs)}")
    if isinstance(i, ICmp):
        return (f"{i.short_name()} = icmp {i.pred} {i.lhs.type} "
                f"{_value(i.lhs)}, {_value(i.rhs)}")
    if isinstance(i, (ZExt, SExt, Trunc)):
        return (f"{i.short_name()} = {i.opcode} {i.value.type} "
                f"{_value(i.value)} to {i.type}")
    if isinstance(i, (IntToPtr, PtrToInt)):
        return (f"{i.short_name()} = {i.opcode} {_value(i.value)} "
                f"to {i.type}")
    if isinstance(i, Alloca):
        return f"{i.short_name()} = alloca {i.allocated_type}"
    if isinstance(i, Load):
        return f"{i.short_name()} = load {i.type}, ptr {_value(i.pointer)}"
    if isinstance(i, Store):
        return (f"store {i.value.type} {_value(i.value)}, "
                f"ptr {_value(i.pointer)}")
    if isinstance(i, Select):
        cond, t, f = i.operands
        return (f"{i.short_name()} = select i1 {_value(cond)}, "
                f"{t.type} {_value(t)}, {f.type} {_value(f)}")
    if isinstance(i, Phi):
        arms = ", ".join(f"[ {_value(v)}, %{b.name} ]"
                         for v, b in i.incoming())
        return f"{i.short_name()} = phi {i.type} {arms}"
    if isinstance(i, Call):
        args = ", ".join(f"{a.type} {_value(a)}" for a in i.operands)
        prefix = f"{i.short_name()} = " if str(i.type) != "void" else ""
        return f"{prefix}call {i.type} @{i.callee}({args})"
    if isinstance(i, Br):
        return f"br label %{i.target.name}"
    if isinstance(i, CondBr):
        return (f"br i1 {_value(i.cond)}, label %{i.if_true.name}, "
                f"label %{i.if_false.name}")
    if isinstance(i, Switch):
        cases = ", ".join(f"{c.type} {c.value} -> %{b.name}"
                          for c, b in i.cases)
        return (f"switch {i.value.type} {_value(i.value)}, "
                f"default %{i.default.name} [{cases}]")
    if isinstance(i, Ret):
        if i.operands:
            return f"ret {i.operands[0].type} {_value(i.operands[0])}"
        return "ret void"
    if isinstance(i, Unreachable):
        return "unreachable"
    return f"; unknown {i.opcode}"
