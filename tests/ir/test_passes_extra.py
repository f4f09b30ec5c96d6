"""Additional pass tests: algebraic folding, CFG cleanup, dominators."""

import pytest

from repro.errors import IRError
from repro.ir import (
    Constant, Function, FunctionType, I1, I64, IRBuilder, verify)
from repro.ir.passes import constant_fold, dce, simplify_cfg
from repro.ir.verifier import dominators
from tests.ir_interp import Interpreter


def fn_with_entry(name="f"):
    fn = Function(name, FunctionType("void", ()))
    return fn, fn.add_block("entry")


class TestAlgebraicFolding:
    def exit_with(self, builder, value):
        from repro.ir.types import VOID
        builder.call(VOID, "syscall",
                     [builder.i64(60), value, builder.i64(0),
                      builder.i64(0)])
        builder.unreachable()

    def test_xor_self_is_zero(self):
        fn, entry = fn_with_entry()
        b = IRBuilder(entry)
        unknown = b.add(b.i64(1), b.i64(2))  # placeholder non-constant
        zero = b.xor(unknown, unknown)
        result = b.add(zero, b.i64(11))
        self.exit_with(b, result)
        constant_fold(fn)
        dce(fn)
        verify(fn)
        from repro.ir.passes import instruction_histogram
        assert instruction_histogram(fn).get("xor", 0) == 0
        assert Interpreter().run(fn).exit_code == 11

    @pytest.mark.parametrize("op,rhs,expected", [
        ("add", 0, 7), ("sub", 0, 7), ("or", 0, 7), ("xor", 0, 7),
        ("shl", 0, 7), ("mul", 1, 7), ("mul", 0, 0), ("and", 0, 0),
    ])
    def test_identities(self, op, rhs, expected):
        fn, entry = fn_with_entry()
        b = IRBuilder(entry)
        unknown = b.add(b.i64(3), b.i64(4))  # 7, but folded later
        value = b.binop(op, unknown, b.i64(rhs))
        self.exit_with(b, value)
        constant_fold(fn)
        verify(fn)
        assert Interpreter().run(fn).exit_code == expected


class TestSimplifyCFGWithPhis:
    def test_constant_branch_fixes_phi(self):
        from repro.ir.types import VOID
        fn = Function("f", FunctionType("void", ()))
        entry = fn.add_block("entry")
        left = fn.add_block("left")
        right = fn.add_block("right")
        join = fn.add_block("join")
        b = IRBuilder(entry)
        b.condbr(Constant(I1, 1), left, right)
        b.set_block(left)
        b.br(join)
        b.set_block(right)
        b.br(join)
        b.set_block(join)
        phi = b.phi(I64)
        phi.add_incoming(b.i64(4), left)
        phi.add_incoming(b.i64(5), right)
        b.call(VOID, "syscall", [b.i64(60), phi, b.i64(0), b.i64(0)])
        b.unreachable()
        verify(fn)
        simplify_cfg(fn)
        verify(fn)
        assert Interpreter().run(fn).exit_code == 4

    def test_loop_not_merged_away(self):
        from repro.ir.types import VOID
        fn = Function("f", FunctionType("void", ()))
        entry = fn.add_block("entry")
        loop = fn.add_block("loop")
        done = fn.add_block("done")
        b = IRBuilder(entry)
        b.br(loop)
        b.set_block(loop)
        counter = b.phi(I64, "i")
        bumped = b.add(counter, b.i64(1))
        counter.add_incoming(b.i64(0), entry)
        counter.add_incoming(bumped, loop)
        cond = b.icmp("ult", bumped, b.i64(5))
        b.condbr(cond, loop, done)
        b.set_block(done)
        b.call(VOID, "syscall", [b.i64(60), bumped, b.i64(0),
                                 b.i64(0)])
        b.unreachable()
        verify(fn)
        simplify_cfg(fn)
        verify(fn)
        assert Interpreter().run(fn).exit_code == 5


class TestVerifierDiagnostics:
    def test_phi_missing_incoming(self):
        fn = Function("f", FunctionType("void", ()))
        entry = fn.add_block("entry")
        other = fn.add_block("other")
        join = fn.add_block("join")
        b = IRBuilder(entry)
        b.condbr(Constant(I1, 1), other, join)
        b.set_block(other)
        b.br(join)
        b.set_block(join)
        phi = b.phi(I64)
        phi.add_incoming(b.i64(1), other)  # entry edge missing
        b.ret()
        with pytest.raises(IRError, match="phi"):
            verify(fn)

    def test_empty_block_rejected(self):
        fn = Function("f", FunctionType("void", ()))
        entry = fn.add_block("entry")
        IRBuilder(entry).ret()
        fn.add_block("empty")
        with pytest.raises(IRError, match="empty|terminator"):
            verify(fn)


class TestDominators:
    def test_diamond(self):
        fn = Function("f", FunctionType("void", ()))
        entry = fn.add_block("entry")
        left = fn.add_block("left")
        right = fn.add_block("right")
        join = fn.add_block("join")
        b = IRBuilder(entry)
        b.condbr(Constant(I1, 1), left, right)
        for block in (left, right):
            b.set_block(block)
            b.br(join)
        b.set_block(join)
        b.ret()
        doms = dominators(fn)
        assert id(entry) in doms[id(join)]
        assert id(left) not in doms[id(join)]
        assert id(entry) in doms[id(left)]
