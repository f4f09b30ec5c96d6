"""IR construction, verification, printing, interpretation."""

import pytest

from repro.errors import IRError
from repro.ir import (
    Constant, Function, FunctionType, I1, I64, IRBuilder, verify,
    print_function)
from repro.ir.passes import (
    constant_fold, dce, instruction_histogram, mem2reg, simplify_cfg)
from repro.ir.passes.pass_manager import standard_cleanup
from tests.ir_interp import Interpreter


def make_function(name="f"):
    function = Function(name, FunctionType("void", ()))
    return function


class TestConstruction:
    def test_simple_arith_runs(self):
        fn = make_function()
        entry = fn.add_block("entry")
        b = IRBuilder(entry)
        x = b.add(b.i64(40), b.i64(2))
        b.call("void" and __import__("repro.ir.types",
                                     fromlist=["VOID"]).VOID,
               "syscall", [b.i64(60), x, b.i64(0), b.i64(0)])
        b.unreachable()
        verify(fn)
        result = Interpreter().run(fn)
        assert result.exit_code == 42

    def test_verifier_catches_missing_terminator(self):
        fn = make_function()
        entry = fn.add_block("entry")
        IRBuilder(entry).add(Constant(I64, 1), Constant(I64, 2))
        with pytest.raises(IRError):
            verify(fn)

    def test_verifier_catches_dominance_violation(self):
        fn = make_function()
        entry = fn.add_block("entry")
        other = fn.add_block("other")
        exit_block = fn.add_block("exit")
        b = IRBuilder(entry)
        b.condbr(b.icmp("eq", b.i64(1), b.i64(1)), other, exit_block)
        b.set_block(other)
        value = b.add(b.i64(1), b.i64(2))
        b.br(exit_block)
        b.set_block(exit_block)
        b.add(value, b.i64(3))  # value does not dominate here
        b.ret()
        with pytest.raises(IRError):
            verify(fn)

    def test_use_def_tracking(self):
        fn = make_function()
        entry = fn.add_block("entry")
        b = IRBuilder(entry)
        x = b.add(b.i64(1), b.i64(2))
        y = b.add(x, x)
        b.ret()
        assert y in x.users
        replacement = b.i64(3)
        x.replace_all_uses_with(replacement)
        assert y.operands == (replacement, replacement)
        assert not x.uses


class TestControlFlow:
    def build_branchy(self, cond_value):
        fn = make_function()
        entry = fn.add_block("entry")
        then = fn.add_block("then")
        other = fn.add_block("else")
        join = fn.add_block("join")
        b = IRBuilder(entry)
        cond = b.icmp("ult", b.i64(cond_value), b.i64(10))
        b.condbr(cond, then, other)
        b.set_block(then)
        b.br(join)
        b.set_block(other)
        b.br(join)
        b.set_block(join)
        phi = b.phi(I64)
        phi.add_incoming(b.i64(1), then)
        phi.add_incoming(b.i64(2), other)
        from repro.ir.types import VOID
        b.call(VOID, "syscall", [b.i64(60), phi, b.i64(0), b.i64(0)])
        b.unreachable()
        verify(fn)
        return fn

    def test_phi_both_arms(self):
        assert Interpreter().run(self.build_branchy(5)).exit_code == 1
        assert Interpreter().run(self.build_branchy(50)).exit_code == 2

    def test_switch(self):
        from repro.ir.types import VOID
        fn = make_function()
        entry = fn.add_block("entry")
        cases = [fn.add_block(f"case{i}") for i in range(3)]
        b = IRBuilder(entry)
        sw = b.switch(b.i64(2), cases[0])
        sw.add_case(b.i64(1), cases[1])
        sw.add_case(b.i64(2), cases[2])
        for i, block in enumerate(cases):
            b.set_block(block)
            b.call(VOID, "syscall", [b.i64(60), b.i64(i), b.i64(0),
                                     b.i64(0)])
            b.unreachable()
        verify(fn)
        assert Interpreter().run(fn).exit_code == 2


class TestPasses:
    def test_mem2reg_promotes(self):
        from repro.ir.types import VOID
        fn = make_function()
        entry = fn.add_block("entry")
        loop = fn.add_block("loop")
        done = fn.add_block("done")
        b = IRBuilder(entry)
        slot = b.alloca(I64, "x")
        b.store(b.i64(0), slot)
        b.br(loop)
        b.set_block(loop)
        current = b.load(I64, slot)
        bumped = b.add(current, b.i64(3))
        b.store(bumped, slot)
        cond = b.icmp("ult", bumped, b.i64(12))
        b.condbr(cond, loop, done)
        b.set_block(done)
        final = b.load(I64, slot)
        b.call(VOID, "syscall", [b.i64(60), final, b.i64(0), b.i64(0)])
        b.unreachable()
        verify(fn)
        before = Interpreter().run(fn).exit_code

        assert mem2reg(fn)
        verify(fn)
        histogram = instruction_histogram(fn)
        assert histogram.get("alloca", 0) == 0
        assert histogram.get("load", 0) == 0
        assert histogram.get("phi", 0) >= 1
        assert Interpreter().run(fn).exit_code == before == 12

    def test_constfold_and_dce(self):
        fn = make_function()
        entry = fn.add_block("entry")
        b = IRBuilder(entry)
        x = b.add(b.i64(2), b.i64(3))
        y = b.mul(x, b.i64(4))
        b.add(y, b.i64(1))  # dead
        from repro.ir.types import VOID
        b.call(VOID, "syscall", [b.i64(60), y, b.i64(0), b.i64(0)])
        b.unreachable()
        assert constant_fold(fn)
        dce(fn)  # constfold may have already erased the dead add
        verify(fn)
        assert instruction_histogram(fn).get("add", 0) == 0
        assert Interpreter().run(fn).exit_code == 20

    def test_simplifycfg_merges_and_prunes(self):
        from repro.ir.types import VOID
        fn = make_function()
        entry = fn.add_block("entry")
        mid = fn.add_block("mid")
        dead = fn.add_block("dead")
        b = IRBuilder(entry)
        b.condbr(b.const(I1, 1), mid, dead)
        b.set_block(mid)
        b.call(VOID, "syscall", [b.i64(60), b.i64(9), b.i64(0), b.i64(0)])
        b.unreachable()
        b.set_block(dead)
        b.ret()
        assert constant_fold(fn) or True
        assert simplify_cfg(fn)
        verify(fn)
        assert len(fn.blocks) == 1
        assert Interpreter().run(fn).exit_code == 9

    def test_standard_cleanup_pipeline(self):
        from repro.ir.types import VOID
        fn = make_function()
        entry = fn.add_block("entry")
        b = IRBuilder(entry)
        slot = b.alloca(I64)
        b.store(b.i64(5), slot)
        value = b.load(I64, slot)
        b.call(VOID, "syscall", [b.i64(60), value, b.i64(0), b.i64(0)])
        b.unreachable()
        standard_cleanup().run(fn)
        verify(fn)
        assert Interpreter().run(fn).exit_code == 5


class TestPrinter:
    def test_prints_parse_worthy_text(self):
        fn = make_function("demo")
        entry = fn.add_block("entry")
        b = IRBuilder(entry)
        x = b.add(b.i64(1), b.i64(2), "x")
        b.icmp("eq", x, b.i64(3), "c")
        b.ret()
        text = print_function(fn)
        assert "define" in text
        assert "add i64 1, 2" in text
        assert "icmp eq i64" in text


class TestUseLists:
    def test_users_are_distinct_in_first_use_order(self):
        fn = make_function()
        b = IRBuilder(fn.add_block("entry"))
        x = b.add(b.i64(1), b.i64(2))
        twice = b.add(x, x)
        scaled = b.mul(b.i64(3), x)
        again = b.add(x, x)
        b.ret()
        assert x.uses == [twice, twice, scaled, again, again]
        assert [id(user) for user in x.users] == \
            [id(twice), id(scaled), id(again)]
        twice.set_operand(0, b.i64(4))
        assert [id(user) for user in x.users] == \
            [id(twice), id(scaled), id(again)]


def _erasure_heavy_function():
    """Slots, loads, stores, repeats and dead values over a loop."""
    from repro.ir.types import VOID
    fn = make_function()
    entry = fn.add_block("entry")
    loop = fn.add_block("loop")
    done = fn.add_block("done")
    b = IRBuilder(entry)
    slots = [b.alloca(I64, f"s{i}") for i in range(4)]
    for i, slot in enumerate(slots):
        b.store(b.i64(i), slot)
    b.br(loop)
    b.set_block(loop)
    for _ in range(8):
        for slot in slots:
            value = b.load(I64, slot)
            repeat = b.add(value, b.i64(1))
            b.add(value, b.i64(1))            # CSE merges it
            b.mul(repeat, repeat)             # dead
            b.store(b.add(repeat, b.i64(0)), slot)
    counter = b.load(I64, slots[0])
    b.condbr(b.icmp("ult", counter, b.i64(40)), loop, done)
    b.set_block(done)
    total = b.load(I64, slots[0])
    for slot in slots[1:]:
        total = b.add(total, b.load(I64, slot))
    b.call(VOID, "syscall", [b.i64(60), b.and_(total, b.i64(0xFF)),
                             b.i64(0), b.i64(0)])
    b.unreachable()
    return fn


class TestErasure:
    def test_passes_leave_consistent_use_lists(self):
        from collections import Counter
        from repro.ir.passes import cse
        from repro.ir.passes.pass_manager import PassManager
        fn = _erasure_heavy_function()
        verify(fn)
        expected = Interpreter().run(fn).exit_code
        before = list(fn.instructions())
        PassManager([("mem2reg", mem2reg), ("constfold", constant_fold),
                     ("cse", cse), ("dce", dce)]).run(fn)
        live = list(fn.instructions())
        live_ids = {id(instruction) for instruction in live}
        erased = [i for i in before if id(i) not in live_ids]
        assert len(erased) > len(live)
        for instruction in erased:
            assert instruction.parent is None
            assert instruction.operands == ()
        operand_counts = Counter()
        values = {}
        for instruction in live:
            assert instruction in instruction.parent.instructions
            values[id(instruction)] = instruction
            for operand in instruction.operands:
                operand_counts[(id(operand), id(instruction))] += 1
                values[id(operand)] = operand
        for value in values.values():
            for user in value.uses:
                assert id(user) in live_ids
            assert Counter((id(value), id(user)) for user in value.uses) \
                == Counter({key: n for key, n in operand_counts.items()
                            if key[0] == id(value)})
        assert Interpreter().run(fn).exit_code == expected

    def test_mem2reg_leaves_the_recursion_limit_alone(self, monkeypatch):
        import sys

        def refuse(limit):
            raise AssertionError("mem2reg changed the recursion limit")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        fn = _erasure_heavy_function()
        assert mem2reg(fn)
        verify(fn)


class TestVerifierChecks:
    def test_use_before_def_in_one_block(self):
        fn = make_function()
        entry = fn.add_block("entry")
        b = IRBuilder(entry)
        x = b.add(b.i64(1), b.i64(2))
        y = b.add(x, b.i64(3))
        b.ret()
        entry.instructions.remove(y)
        entry.insert(0, y)
        with pytest.raises(IRError, match="before its definition"):
            verify(fn)

    def test_cross_block_def_that_does_not_dominate(self):
        fn = make_function()
        entry = fn.add_block("entry")
        left = fn.add_block("left")
        right = fn.add_block("right")
        b = IRBuilder(entry)
        b.condbr(b.icmp("eq", b.i64(1), b.i64(1)), left, right)
        b.set_block(left)
        value = b.add(b.i64(1), b.i64(2))
        b.ret()
        b.set_block(right)
        b.add(value, b.i64(3))
        b.ret()
        with pytest.raises(IRError, match="does not dominate"):
            verify(fn)

    def test_detached_value(self):
        from repro.ir.instructions import BinOp
        fn = make_function()
        b = IRBuilder(fn.add_block("entry"))
        detached = BinOp("add", b.i64(1), b.i64(2))
        b.add(detached, b.i64(3))
        b.ret()
        with pytest.raises(IRError, match="detached"):
            verify(fn)

    def test_phi_after_non_phi(self):
        from repro.ir.instructions import Phi
        fn = make_function()
        entry = fn.add_block("entry")
        join = fn.add_block("join")
        b = IRBuilder(entry)
        b.br(join)
        b.set_block(join)
        b.add(b.i64(1), b.i64(2))
        phi = Phi(I64)
        phi.add_incoming(b.i64(1), entry)
        join.append(phi)  # the builder would place it first
        b.ret()
        with pytest.raises(IRError, match="phi after non-phi"):
            verify(fn)

    def test_instruction_placed_twice(self):
        fn = make_function()
        entry = fn.add_block("entry")
        b = IRBuilder(entry)
        x = b.add(b.i64(1), b.i64(2))
        b.add(x, b.i64(3))
        entry.instructions.append(x)
        b.ret()
        with pytest.raises(IRError, match="placed twice"):
            verify(fn)
