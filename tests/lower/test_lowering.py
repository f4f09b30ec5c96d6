"""Backend tests: lowering differentials, spilling, peepholes."""

import pytest

from repro.asm import assemble
from repro.emu import run_executable
from repro.lower import lower_executable
from repro.lower.mir import MFunction, MImm, MInsn, VReg
from repro.lower.peephole import (
    copy_propagate, eliminate_dead_defs, remove_self_moves)
from repro.lower.regalloc import POOL, allocate, rewrite_spills
from repro.workloads import bootloader, corpus, pincheck


def roundtrip(exe, stdin=b""):
    lowered = lower_executable(exe)
    original = run_executable(exe, stdin=stdin)
    regenerated = run_executable(lowered, stdin=stdin)
    assert original.behavior() == regenerated.behavior(), (
        f"{original} vs {regenerated}")
    return lowered


class TestDifferential:
    @pytest.mark.parametrize("name", ["exit42", "arith", "memwrites",
                                      "call_ret", "setcc_cmov"])
    def test_corpus(self, name):
        roundtrip(corpus.build(name))

    def test_echo(self):
        roundtrip(corpus.build("echo4"), stdin=b"abcd")

    @pytest.mark.parametrize("rich", [False, True])
    def test_pincheck_both_inputs(self, rich):
        wl = pincheck.workload(rich=rich)
        exe = wl.build()
        lowered = lower_executable(exe)
        for stdin in (wl.good_input, wl.bad_input):
            want = run_executable(exe, stdin=stdin)
            got = run_executable(lowered, stdin=stdin)
            assert want.behavior() == got.behavior()

    def test_bootloader_both_inputs(self):
        wl = bootloader.workload(rich=True)
        exe = wl.build()
        lowered = lower_executable(exe)
        for stdin in (wl.good_input, wl.bad_input):
            want = run_executable(exe, stdin=stdin)
            got = run_executable(lowered, stdin=stdin)
            assert want.behavior() == got.behavior()


class TestRegisterPressure:
    def test_spilling_program(self):
        """More live values than pool registers forces spills; the
        result must still be correct."""
        # sum 12 values kept live simultaneously
        regs = ["rbx", "rcx", "rdx", "rsi", "rdi",
                "r8", "r9", "r10", "r11", "r12", "r13", "r14"]
        lines = [f"    mov {r}, {i + 1}" for i, r in enumerate(regs)]
        adds = [f"    add rax, {r}" for r in regs]
        source = (".text\n.global _start\n_start:\n    xor rax, rax\n"
                  + "\n".join(lines) + "\n" + "\n".join(adds)
                  + "\n    mov rdi, rax\n    mov rax, 60\n    syscall\n")
        exe = assemble(source)
        expected = sum(range(1, 13))
        assert run_executable(exe).exit_code == expected
        lowered = roundtrip(exe)
        assert run_executable(lowered).exit_code == expected


class TestPeephole:
    def test_copy_propagation_rewrites_uses(self):
        mfn = MFunction("f")
        from repro.lower.mir import MBlock
        block = MBlock("b")
        mfn.blocks.append(block)
        v0, v1, v2 = VReg(0), VReg(1), VReg(2)
        block.append(MInsn("mov", [v0, MImm(5)]))
        block.append(MInsn("mov", [v1, v0]))
        block.append(MInsn("add", [v2, v1]))
        copy_propagate(mfn)
        # the chain v1 -> v0 -> 5 resolves all the way to the immediate
        assert block.insns[2].operands[1] == MImm(5)

    def test_dead_def_elimination(self):
        mfn = MFunction("f")
        from repro.lower.mir import MBlock
        block = MBlock("b")
        mfn.blocks.append(block)
        used, dead = VReg(0), VReg(1)
        block.append(MInsn("mov", [used, MImm(1)]))
        block.append(MInsn("mov", [dead, MImm(2)]))
        block.append(MInsn("cmp", [used, MImm(0)]))
        removed = eliminate_dead_defs(mfn)
        assert removed == 1
        assert all(i.operands[0] is not dead for i in block.insns)

    def test_copy_of_a_redefined_source_is_forgotten(self):
        from repro.lower.mir import MBlock
        mfn = MFunction("f")
        block = MBlock("b")
        mfn.blocks.append(block)
        v0, v1, v2, v3 = (VReg(i) for i in range(4))
        block.append(MInsn("mov", [v1, v0]))
        block.append(MInsn("mov", [v2, v0]))
        block.append(MInsn("add", [v0, MImm(1)]))  # v1, v2 no longer copy v0
        block.append(MInsn("mov", [v3, v1]))
        block.append(MInsn("add", [v3, v2]))
        copy_propagate(mfn)
        assert block.insns[3].operands == [v3, v1]
        assert block.insns[4].operands == [v3, v2]

    def test_self_move_removal_post_ra(self):
        from repro.isa.registers import reg
        from repro.lower.mir import MBlock
        mfn = MFunction("f")
        block = MBlock("b")
        mfn.blocks.append(block)
        rbx = reg("rbx")
        block.append(MInsn("mov", [rbx, rbx]))
        block.append(MInsn("hlt", []))
        assert remove_self_moves(mfn) == 1
        assert len(block.insns) == 1


class TestRegalloc:
    def test_disjoint_intervals_share_registers(self):
        from repro.lower.mir import MBlock
        mfn = MFunction("f")
        block = MBlock("b")
        mfn.blocks.append(block)
        vregs = [mfn.new_vreg() for _ in range(30)]
        for vreg in vregs:  # sequential def+use: intervals don't overlap
            block.append(MInsn("mov", [vreg, MImm(1)]))
            block.append(MInsn("cmp", [vreg, MImm(0)]))
        block.append(MInsn("hlt", []))
        allocation = allocate(mfn)
        assert allocation.frame_slots == 0  # everything fits the pool
        used = set(allocation.assignment.values())
        assert used <= set(POOL)

    def test_overlapping_intervals_spill(self):
        from repro.lower.mir import MBlock
        mfn = MFunction("f")
        block = MBlock("b")
        mfn.blocks.append(block)
        vregs = [mfn.new_vreg() for _ in range(len(POOL) + 3)]
        for vreg in vregs:
            block.append(MInsn("mov", [vreg, MImm(1)]))
        accumulator = mfn.new_vreg()
        block.append(MInsn("mov", [accumulator, MImm(0)]))
        for vreg in vregs:  # all simultaneously live here
            block.append(MInsn("add", [accumulator, vreg]))
        block.append(MInsn("hlt", []))
        allocation = allocate(mfn)
        assert allocation.frame_slots >= 3
        rewrite_spills(mfn, allocation)  # must not run out of scratch


class TestPeepholeWork:
    """Op-count guard: dead-def elimination does work linear in the code."""

    def test_dead_chain_takes_linear_use_counting(self, monkeypatch):
        from repro.lower.mir import MBlock
        n = 300
        chain = [MInsn("mov", [VReg(0), MImm(1)])] + [
            MInsn("mov", [VReg(i), VReg(i - 1)]) for i in range(1, n)]
        mfn = MFunction("f")
        block = MBlock("b", chain + [MInsn("hlt", [])])
        mfn.blocks.append(block)
        original = MInsn.uses
        calls = []

        def counting(insn):
            calls.append(insn)
            assert len(calls) <= 2 * (n + 1), "use counts recomputed"
            return original(insn)

        monkeypatch.setattr(MInsn, "uses", counting)
        assert eliminate_dead_defs(mfn) == n
        assert [insn.op for insn in block.insns] == ["hlt"]
