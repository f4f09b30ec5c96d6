"""Lifter tests: differential equivalence and error handling."""

import pytest

from repro.asm import assemble
from repro.emu import run_executable
from repro.errors import LiftError
from repro.ir import verify
from repro.lift import Lifter, lift_executable
from repro.workloads import bootloader, corpus, pincheck
from tests.ir_interp import Interpreter, guest_memory


def differential(exe, stdin=b""):
    """Run binary under the emulator and its lifted IR under the
    interpreter; both observable behaviours must match."""
    ir = lift_executable(exe)
    verify(ir)
    emu = run_executable(exe, stdin=stdin)
    interp = Interpreter(guest_memory(exe), stdin=stdin).run(
        ir.function("entry"))
    assert emu.reason == interp.reason
    assert emu.exit_code == interp.exit_code
    assert emu.stdout == interp.stdout
    assert emu.stderr == interp.stderr
    return ir


class TestDifferential:
    @pytest.mark.parametrize("name", ["exit42", "arith", "memwrites",
                                      "call_ret", "setcc_cmov"])
    def test_corpus(self, name):
        differential(corpus.build(name))

    def test_echo(self):
        differential(corpus.build("echo4"), stdin=b"wxyz")

    @pytest.mark.parametrize("stdin_kind", ["good", "bad", "short"])
    def test_pincheck(self, stdin_kind):
        wl = pincheck.workload()
        stdin = {"good": wl.good_input, "bad": wl.bad_input,
                 "short": b"1"}[stdin_kind]
        differential(wl.build(), stdin=stdin)

    @pytest.mark.parametrize("stdin_kind", ["good", "bad"])
    def test_bootloader(self, stdin_kind):
        wl = bootloader.workload()
        stdin = wl.good_input if stdin_kind == "good" else wl.bad_input
        differential(wl.build(), stdin=stdin)

    def test_rich_pincheck(self):
        wl = pincheck.workload(rich=True)
        differential(wl.build(), stdin=wl.good_input)
        differential(wl.build(), stdin=wl.bad_input)


class TestStructure:
    def test_cleanup_promotes_all_state(self):
        ir = lift_executable(corpus.build("arith"))
        from repro.ir.passes import instruction_histogram
        histogram = instruction_histogram(ir.function("entry"))
        assert histogram.get("alloca", 0) == 0

    def test_inlining_duplicates_callee(self):
        # call_ret calls bump twice -> two inlined copies
        ir = Lifter(corpus.build("call_ret")).lift()
        names = [b.name for b in ir.function("entry").blocks]
        inlined = [n for n in names if "_i1_" in n]
        assert len(inlined) >= 2

    def test_entry_address_recorded(self):
        exe = corpus.build("exit42")
        ir = Lifter(exe).lift()
        assert ir.aux["entry_address"] == exe.entry


class TestErrors:
    def test_recursion_rejected(self):
        source = """
        .text
        .global _start
        _start:
            call self
            mov rax, 60
            syscall
        self:
            call self
            ret
        """
        with pytest.raises(LiftError, match="recursi"):
            Lifter(assemble(source)).lift()

    def test_indirect_call_rejected(self):
        with pytest.raises(LiftError, match="indirect"):
            Lifter(corpus.build("indirect")).lift()

    def test_pushfq_rejected(self):
        with pytest.raises(LiftError, match="pushfq|RFLAGS"):
            Lifter(corpus.build("stack_ops")).lift()

    def test_parity_condition_rejected(self):
        source = """
        .text
        .global _start
        _start:
            cmp rax, 1
            jp odd
            mov rdi, 0
        odd:
            mov rax, 60
            syscall
        """
        with pytest.raises(LiftError, match="parity"):
            Lifter(assemble(source)).lift()
