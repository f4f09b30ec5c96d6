"""IR interpreter: the tests' reference for lifted code.

Mirrors the CPU emulator's observable behaviour, so a lifted function
run here must match the binary run under emulation.
"""

from __future__ import annotations

from typing import Optional

from repro.emu.machine import CRASH, EXIT, HALT, MAX_STEPS, Machine, RunResult
from repro.emu.memory import Memory
from repro.emu.syscalls import IOState
from repro.errors import IRError, MemoryFault
from repro.ir.instructions import (
    Alloca, BinOp, Br, Call, CondBr, ICmp, IntToPtr, Load, Phi, PtrToInt,
    Ret, Select, SExt, Store, Switch, Trunc, Unreachable, ZExt)
from repro.ir.module import Function
from repro.ir.values import Constant, Undef

_MASK64 = (1 << 64) - 1


class _Exit(Exception):
    def __init__(self, code):
        self.code = code


class _Abort(Exception):
    pass


class _Halt(Exception):
    pass


def _signed(value: int, bits: int) -> int:
    value &= (1 << bits) - 1
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


class Interpreter:
    """Executes one IR function."""

    def __init__(self, memory: Optional[Memory] = None,
                 stdin: bytes = b""):
        self.memory = memory if memory is not None else Memory()
        self.io = IOState(stdin)
        self._allocas: dict[int, int] = {}
        self._alloca_mem: dict[int, int] = {}
        self._next_alloca = 0x1000_0000_0000  # synthetic alloca space

    # -- public ------------------------------------------------------------

    def run(self, function: Function, args=(),
            max_steps: int = 1_000_000) -> RunResult:
        env: dict[int, int] = {}
        for argument, value in zip(function.args, args):
            env[id(argument)] = value & _MASK64
        block = function.entry
        previous = None
        steps = 0
        reason, code, detail = MAX_STEPS, None, ""
        try:
            while steps < max_steps:
                next_block = None
                for instruction in block.instructions:
                    steps += 1
                    result = self._step(instruction, env, previous, block)
                    if isinstance(result, tuple) and result and \
                            result[0] == "branch":
                        next_block = result[1]
                        break
                    if isinstance(result, tuple) and result and \
                            result[0] == "return":
                        return RunResult(EXIT, exit_code=0,
                                         stdout=bytes(self.io.stdout),
                                         stderr=bytes(self.io.stderr),
                                         steps=steps)
                if next_block is None:
                    raise IRError(f"block {block.name} fell through")
                previous, block = block, next_block
        except _Exit as exc:
            reason, code = EXIT, exc.code
        except _Halt:
            reason = HALT
        except _Abort:
            reason, code = EXIT, 134  # SIGABRT-flavoured exit
            detail = "abort"
        except MemoryFault as exc:
            reason, detail = CRASH, str(exc)
        return RunResult(reason, exit_code=code,
                         stdout=bytes(self.io.stdout),
                         stderr=bytes(self.io.stderr),
                         steps=steps, crash_detail=detail)

    # -- evaluation -----------------------------------------------------------

    def _value(self, value, env):
        if isinstance(value, Constant):
            return value.unsigned
        if isinstance(value, Undef):
            return 0
        key = id(value)
        if key not in env:
            raise IRError(f"use of unevaluated value {value.short_name()}")
        return env[key]

    def _step(self, i, env, previous, block):
        if isinstance(i, Phi):
            if previous is None:
                raise IRError("phi in entry block")
            value = i.incoming_for(previous)
            if value is None:
                raise IRError(f"phi missing incoming for {previous.name}")
            env[id(i)] = self._value(value, env)
            return None
        if isinstance(i, BinOp):
            env[id(i)] = self._binop(i, env)
            return None
        if isinstance(i, ICmp):
            env[id(i)] = 1 if self._icmp(i, env) else 0
            return None
        if isinstance(i, ZExt):
            env[id(i)] = self._value(i.value, env) & i.value.type.mask
            return None
        if isinstance(i, SExt):
            value = _signed(self._value(i.value, env), i.value.type.bits)
            env[id(i)] = value & i.type.mask
            return None
        if isinstance(i, Trunc):
            env[id(i)] = self._value(i.value, env) & i.type.mask
            return None
        if isinstance(i, (IntToPtr, PtrToInt)):
            env[id(i)] = self._value(i.value, env) & _MASK64
            return None
        if isinstance(i, Alloca):
            address = self._next_alloca
            self._next_alloca += 16
            self.memory.map(address, 16, "rw")
            env[id(i)] = address
            return None
        if isinstance(i, Load):
            address = self._value(i.pointer, env)
            width = i.type.bits // 8
            data = self.memory.read(address, width)
            env[id(i)] = int.from_bytes(data, "little")
            return None
        if isinstance(i, Store):
            address = self._value(i.pointer, env)
            width = i.value.type.bits // 8
            value = self._value(i.value, env) & ((1 << (width * 8)) - 1)
            self.memory.write(address, value.to_bytes(width, "little"))
            return None
        if isinstance(i, Select):
            cond, if_true, if_false = i.operands
            chosen = if_true if self._value(cond, env) else if_false
            env[id(i)] = self._value(chosen, env)
            return None
        if isinstance(i, Call):
            env[id(i)] = self._call(i, env)
            return None
        if isinstance(i, Br):
            return ("branch", i.target)
        if isinstance(i, CondBr):
            taken = i.if_true if self._value(i.cond, env) else i.if_false
            return ("branch", taken)
        if isinstance(i, Switch):
            value = self._value(i.value, env)
            for constant, target in i.cases:
                if constant.unsigned == value:
                    return ("branch", target)
            return ("branch", i.default)
        if isinstance(i, Ret):
            return ("return",)
        if isinstance(i, Unreachable):
            raise IRError("executed unreachable")
        raise IRError(f"cannot interpret {i.opcode}")

    def _binop(self, i: BinOp, env) -> int:
        bits = i.type.bits
        mask = i.type.mask
        a = self._value(i.lhs, env)
        b = self._value(i.rhs, env)
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
            return (a << (b % bits)) & mask if b < bits else 0
        if op == "lshr":
            return a >> b if b < bits else 0
        if op == "ashr":
            if b >= bits:
                b = bits - 1
            return (_signed(a, bits) >> b) & mask
        if op == "udiv":
            return (a // b) & mask if b else 0
        if op == "urem":
            return (a % b) & mask if b else 0
        raise IRError(f"unknown binop {op}")

    def _icmp(self, i: ICmp, env) -> bool:
        bits = i.lhs.type.bits
        a = self._value(i.lhs, env)
        b = self._value(i.rhs, env)
        sa, sb = _signed(a, bits), _signed(b, bits)
        return {
            "eq": a == b, "ne": a != b,
            "ult": a < b, "ule": a <= b, "ugt": a > b, "uge": a >= b,
            "slt": sa < sb, "sle": sa <= sb, "sgt": sa > sb,
            "sge": sa >= sb,
        }[i.pred]

    # -- intrinsics -----------------------------------------------------------

    def _call(self, i: Call, env) -> int:
        name = i.callee
        if name == "syscall":
            return self._syscall([self._value(a, env) for a in i.operands])
        if name == "abort":
            raise _Abort()
        if name == "halt":
            raise _Halt()
        raise IRError(f"unknown callee @{name}")

    def _syscall(self, args) -> int:
        number, rdi, rsi, rdx = (list(args) + [0] * 4)[:4]
        if number == 0:  # read
            data = self.io.stdin[self.io.stdin_pos:self.io.stdin_pos + rdx]
            if data:
                self.memory.write(rsi, data)
            self.io.stdin_pos += len(data)
            return len(data)
        if number == 1:  # write
            data = self.memory.read(rsi, rdx) if rdx else b""
            if rdi == 1:
                self.io.stdout += data
            elif rdi == 2:
                self.io.stderr += data
            else:
                return (-9) & _MASK64
            return len(data)
        if number in (60, 231):
            raise _Exit(rdi & 0xFF)
        return (-38) & _MASK64  # ENOSYS


def guest_memory(exe) -> Memory:
    """The emulator's initial memory image for ``exe``."""
    return Machine(exe).memory
