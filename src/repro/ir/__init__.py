"""SSA compiler IR (the reproduction's LLVM-IR substitute).

A typed SSA IR with the module/function/basic-block/instruction
hierarchy the paper highlights as the reason to lift binaries: explicit
use-def chains, a builder, a verifier, a textual printer, and a pass
manager with the standard cleanup passes (mem2reg, DCE, constant
folding, CFG simplification).  The IR interpreter the tests run lifted
code on lives beside them, in ``tests/ir_interp.py``.

The hybrid countermeasure of Section V-B is implemented as a pass over
this IR, exactly as the paper implements it as an LLVM optimization
pass.
"""

from repro.ir.types import (
    IntType, PointerType, VoidType, FunctionType,
    I1, I8, I16, I32, I64, PTR, VOID,
)
from repro.ir.values import Value, Constant, Argument, Undef
from repro.ir.module import IRModule, Function, BasicBlock
from repro.ir.instructions import (
    Alloca, BinOp, Br, Call, CondBr, ICmp, IntToPtr, Load, Phi,
    PtrToInt, Ret, Select, SExt, Store, Switch, Trunc, Unreachable, ZExt,
    Instruction,
)
from repro.ir.builder import IRBuilder
from repro.ir.verifier import verify
from repro.ir.printer import print_function

__all__ = [
    "IntType", "PointerType", "VoidType", "FunctionType",
    "I1", "I8", "I16", "I32", "I64", "PTR", "VOID",
    "Value", "Constant", "Argument", "Undef",
    "IRModule", "Function", "BasicBlock",
    "Alloca", "BinOp", "Br", "Call", "CondBr", "ICmp", "IntToPtr",
    "Load", "Phi", "PtrToInt", "Ret", "Select", "SExt", "Store",
    "Switch", "Trunc", "Unreachable", "ZExt", "Instruction",
    "IRBuilder", "verify", "print_function",
]
