"""Interpreter edge cases and error paths."""

import pytest

from repro.errors import IRError
from repro.ir import Constant, Function, FunctionType, I8, I64, IRBuilder
from repro.ir.types import VOID
from tests.ir_interp import Interpreter


def fn_with_entry():
    fn = Function("f", FunctionType("void", ()))
    return fn, fn.add_block("entry")


def exit_with(b, value):
    b.call(VOID, "syscall", [b.i64(60), value, b.i64(0), b.i64(0)])
    b.unreachable()


class TestArithmeticEdges:
    @pytest.mark.parametrize("op,a,b,expected", [
        ("add", (1 << 64) - 1, 1, 0),          # wraparound
        ("sub", 0, 1, (1 << 64) - 1),
        ("mul", 1 << 63, 2, 0),
        ("shl", 1, 63, 1 << 63),
        ("lshr", 1 << 63, 63, 1),
        ("ashr", 1 << 63, 63, (1 << 64) - 1),  # sign fill
        ("udiv", 7, 2, 3),
        ("urem", 7, 2, 1),
        ("udiv", 7, 0, 0),                     # div-by-zero -> 0
    ])
    def test_binops(self, op, a, b, expected):
        fn, entry = fn_with_entry()
        builder = IRBuilder(entry)
        result = builder.binop(op, Constant(I64, a), Constant(I64, b))
        masked = builder.and_(result, Constant(I64, 0xFF))
        exit_with(builder, masked)
        run = Interpreter().run(fn)
        assert run.exit_code == expected & 0xFF

    def test_i8_wraps(self):
        fn, entry = fn_with_entry()
        b = IRBuilder(entry)
        total = b.add(Constant(I8, 200), Constant(I8, 100))
        exit_with(b, b.zext(total, I64))
        assert Interpreter().run(fn).exit_code == (300 & 0xFF)

    def test_sext_of_negative(self):
        fn, entry = fn_with_entry()
        b = IRBuilder(entry)
        wide = b.sext(Constant(I8, -1), I64)
        masked = b.and_(wide, b.i64(0x7F))
        exit_with(b, masked)
        assert Interpreter().run(fn).exit_code == 0x7F


class TestRuntimeErrors:
    def test_unmapped_memory_is_crash(self):
        fn, entry = fn_with_entry()
        b = IRBuilder(entry)
        pointer = b.inttoptr(b.i64(0xDEAD0000))
        b.load(I64, pointer, "x")
        b.ret()
        result = Interpreter().run(fn)
        assert result.reason == "crash"
        assert "fault" in result.crash_detail

    def test_max_steps(self):
        fn = Function("f", FunctionType("void", ()))
        entry = fn.add_block("entry")
        loop = fn.add_block("loop")
        b = IRBuilder(entry)
        b.br(loop)
        b.set_block(loop)
        b.br(loop)
        result = Interpreter().run(fn, max_steps=50)
        assert result.reason == "max-steps"

    def test_abort_intrinsic(self):
        fn, entry = fn_with_entry()
        b = IRBuilder(entry)
        b.call(VOID, "abort", [])
        b.unreachable()
        result = Interpreter().run(fn)
        assert result.exit_code == 134

    def test_unknown_intrinsic_raises(self):
        fn, entry = fn_with_entry()
        b = IRBuilder(entry)
        b.call(I64, "frobnicate", [])
        b.ret()
        with pytest.raises(IRError, match="frobnicate"):
            Interpreter().run(fn)

    def test_ret_terminates_cleanly(self):
        fn, entry = fn_with_entry()
        IRBuilder(entry).ret()
        result = Interpreter().run(fn)
        assert result.reason == "exit"
        assert result.exit_code == 0


class TestIO:
    def test_write_to_stderr(self):
        fn, entry = fn_with_entry()
        b = IRBuilder(entry)
        from repro.emu.memory import Memory
        memory = Memory()
        memory.load(0x5000, b"oops", "rw")
        b.call(I64, "syscall", [b.i64(1), b.i64(2), b.i64(0x5000),
                                b.i64(4)])
        b.ret()
        interp = Interpreter(memory)
        result = interp.run(fn)
        assert result.stderr == b"oops"

    def test_read_consumes_stdin(self):
        fn, entry = fn_with_entry()
        b = IRBuilder(entry)
        from repro.emu.memory import Memory
        memory = Memory()
        memory.map(0x5000, 0x100, "rw")
        got = b.call(I64, "syscall", [b.i64(0), b.i64(0), b.i64(0x5000),
                                      b.i64(8)], "n")
        exit_with(b, got)
        result = Interpreter(memory, stdin=b"abc").run(fn)
        assert result.exit_code == 3
