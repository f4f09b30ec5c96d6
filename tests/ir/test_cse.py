"""CSE pass unit tests, including the volatile-duplicate contract."""

from repro.ir import Constant, Function, FunctionType, I64, IRBuilder, verify
from repro.ir.passes import cse, dce, instruction_histogram
from repro.ir.types import VOID
from tests.ir_interp import Interpreter


def fn_with_entry():
    fn = Function("f", FunctionType("void", ()))
    return fn, fn.add_block("entry")


def exit_with(b, value):
    b.call(VOID, "syscall", [b.i64(60), value, b.i64(0), b.i64(0)])
    b.unreachable()


class TestBasicCSE:
    def test_merges_identical_binops(self):
        fn, entry = fn_with_entry()
        b = IRBuilder(entry)
        base = b.call(I64, "syscall", [b.i64(39), b.i64(0), b.i64(0),
                                       b.i64(0)], "pid")  # opaque value
        x = b.add(base, b.i64(5))
        y = b.add(base, b.i64(5))
        total = b.add(x, y)
        exit_with(b, total)
        assert cse(fn)
        dce(fn)
        verify(fn)
        assert instruction_histogram(fn)["add"] == 2  # x reused, 1 sum

    def test_commutative_matching(self):
        fn, entry = fn_with_entry()
        b = IRBuilder(entry)
        base = b.call(I64, "syscall", [b.i64(39), b.i64(0), b.i64(0),
                                       b.i64(0)], "v")
        x = b.add(base, b.i64(3))
        y = b.add(Constant(I64, 3), base)  # commuted
        exit_with(b, b.add(x, y))
        assert cse(fn)

    def test_constants_compared_by_value(self):
        fn, entry = fn_with_entry()
        b = IRBuilder(entry)
        x = b.xor(Constant(I64, 10), Constant(I64, 3))
        y = b.xor(Constant(I64, 10), Constant(I64, 3))  # fresh objects
        exit_with(b, b.add(x, y))
        assert cse(fn)
        dce(fn)
        assert instruction_histogram(fn)["xor"] == 1

    def test_loads_not_merged_across_stores(self):
        fn, entry = fn_with_entry()
        b = IRBuilder(entry)
        pointer = b.inttoptr(b.i64(0x5000))
        first = b.load(I64, pointer)
        b.store(b.i64(99), pointer)
        second = b.load(I64, pointer)  # different memory epoch
        exit_with(b, b.add(first, second))
        changed = cse(fn)
        histogram = instruction_histogram(fn)
        assert histogram["load"] == 2  # must NOT merge

    def test_loads_merged_within_epoch(self):
        fn, entry = fn_with_entry()
        b = IRBuilder(entry)
        pointer = b.inttoptr(b.i64(0x5000))
        first = b.load(I64, pointer)
        second = b.load(I64, pointer)
        exit_with(b, b.add(first, second))
        assert cse(fn)
        dce(fn)
        assert instruction_histogram(fn)["load"] == 1

    def test_semantics_preserved(self):
        from repro.emu.memory import Memory
        fn, entry = fn_with_entry()
        b = IRBuilder(entry)
        pointer = b.inttoptr(b.i64(0x5000))
        x = b.load(I64, pointer)
        y = b.load(I64, pointer)
        exit_with(b, b.add(x, y))
        memory = Memory()
        memory.load(0x5000, (21).to_bytes(8, "little"), "rw")
        before = Interpreter(memory).run(fn).exit_code
        cse(fn)
        dce(fn)
        memory2 = Memory()
        memory2.load(0x5000, (21).to_bytes(8, "little"), "rw")
        after = Interpreter(memory2).run(fn).exit_code
        assert before == after == 42


class TestVolatileContract:
    def test_no_merge_respected(self):
        fn, entry = fn_with_entry()
        b = IRBuilder(entry)
        x = b.xor(Constant(I64, 10), Constant(I64, 3))
        y = b.xor(Constant(I64, 10), Constant(I64, 3))
        y.no_merge = True
        exit_with(b, b.add(x, y))
        cse(fn)
        assert instruction_histogram(fn)["xor"] == 2

    def test_no_merge_ignorable_for_ablation(self):
        fn, entry = fn_with_entry()
        b = IRBuilder(entry)
        x = b.xor(Constant(I64, 10), Constant(I64, 3))
        y = b.xor(Constant(I64, 10), Constant(I64, 3))
        y.no_merge = True
        exit_with(b, b.add(x, y))
        cse(fn, respect_no_merge=False)
        dce(fn)
        assert instruction_histogram(fn)["xor"] == 1

    def test_hardening_marks_its_instructions(self):
        from repro.asm import assemble
        from repro.hybrid import harden_branches
        from repro.ir.passes.pass_manager import standard_cleanup
        from repro.lift import Lifter
        source = """
        .text
        .global _start
        _start:
            xor rax, rax
            xor rdi, rdi
            lea rsi, [rel buf]
            mov rdx, 8
            syscall
            mov rbx, qword ptr [buf]   # opaque: survives constfold
            cmp rbx, 1
            je a
            mov rdi, 1
        a:
            mov rax, 60
            syscall
        .bss
        buf: .zero 8
        """
        ir = Lifter(assemble(source)).lift()
        standard_cleanup().run(ir)
        harden_branches(ir)
        fn = ir.function("entry")
        marked = [i for i in fn.instructions()
                  if getattr(i, "no_merge", False)]
        assert len(marked) >= 12  # two checksum chains + C2 clone
