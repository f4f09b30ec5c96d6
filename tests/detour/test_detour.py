"""Patch-based detour rewriter tests."""

import pytest

from repro.asm import assemble
from repro.detour import DetourRewriter
from repro.detour.rewriter import duplicate_with_detours
from repro.emu import run_executable
from repro.emu.effects import SkipEffect
from repro.isa.decoder import decode
from repro.isa.insn import Mnemonic
from repro.workloads import bootloader, corpus, pincheck


class TestInstrument:
    def test_single_patch_preserves_behavior(self):
        exe = corpus.build("arith")
        rewriter = DetourRewriter(exe)
        # patch the first instruction (mov rax, 3 -- 7 bytes)
        assert rewriter.instrument(exe.entry, lambda displaced: [])
        patched = rewriter.finish()
        assert run_executable(patched).exit_code == 52

    def test_patch_point_becomes_jmp(self):
        exe = corpus.build("arith")
        rewriter = DetourRewriter(exe)
        rewriter.instrument(exe.entry, lambda displaced: [])
        patched = rewriter.finish()
        text = patched.section(".text")
        insn = decode(text.data, 0, text.addr)
        assert insn.mnemonic is Mnemonic.JMP
        assert insn.branch_target() == rewriter.trampoline_base

    def test_trampoline_section_added(self):
        exe = corpus.build("arith")
        rewriter = DetourRewriter(exe)
        rewriter.instrument(exe.entry, lambda displaced: [])
        patched = rewriter.finish()
        detour = patched.section(".detour")
        assert detour.executable
        assert len(detour.data) > 0
        # original data sections untouched (the scheme's selling point)
        assert not patched.has_section(".data") or \
            patched.section(".data").addr == exe.section(".data").addr

    def test_refuses_overlapping_patch(self):
        exe = corpus.build("arith")
        rewriter = DetourRewriter(exe)
        assert rewriter.instrument(exe.entry, lambda displaced: [])
        assert not rewriter.instrument(exe.entry,
                                       lambda displaced: [])
        assert rewriter.stats.refused == 1

    def test_refuses_branch_into_window(self):
        source = """
        .text
        .global _start
        _start:
            mov rbx, 1
            nop
        target:
            nop
            nop
            nop
            jmp target
        """
        exe = assemble(source)
        rewriter = DetourRewriter(exe)
        # patching the nop@+7 would swallow 'target'
        nop_addr = exe.symbol("target").value - 1
        assert not rewriter.instrument(nop_addr, lambda d: [])

    def test_rip_relative_rebased(self):
        source = """
        .text
        .global _start
        _start:
            mov rdi, qword ptr [rel value]
            mov rax, 60
            syscall
        .data
        value: .quad 23
        """
        exe = assemble(source)
        rewriter = DetourRewriter(exe)
        assert rewriter.instrument(exe.entry, lambda d: [])
        patched = rewriter.finish()
        assert run_executable(patched).exit_code == 23


class TestDuplicateWithDetours:
    @pytest.mark.parametrize("name", ["exit42", "arith", "memwrites"])
    def test_corpus_behavior_preserved(self, name):
        exe = corpus.build(name)
        baseline = run_executable(exe, stdin=b"abcd")
        patched, stats = duplicate_with_detours(exe)
        result = run_executable(patched, stdin=b"abcd")
        assert baseline.behavior() == result.behavior()
        assert stats.patched > 0

    def test_case_studies(self):
        for wl in (pincheck.workload(), bootloader.workload()):
            exe = wl.build()
            patched, _ = duplicate_with_detours(exe)
            good = run_executable(patched, stdin=wl.good_input)
            bad = run_executable(patched, stdin=wl.bad_input)
            assert wl.grant_marker in good.stdout
            assert wl.grant_marker not in bad.stdout

    def test_performance_degradation_measurable(self):
        """The paper's Section III-B claim: detouring costs control
        transfers at every patch point."""
        wl = pincheck.workload()
        exe = wl.build()
        baseline = run_executable(exe, stdin=wl.good_input)
        patched, stats = duplicate_with_detours(exe)
        result = run_executable(patched, stdin=wl.good_input)
        assert result.steps >= baseline.steps + 2 * 2  # >=2 dynamic hits

    def test_skip_protection_works(self):
        """Skipping one copy of a detour-duplicated mov is harmless."""
        from repro.emu import Machine
        source = """
        .text
        .global _start
        _start:
            mov rdi, qword ptr [rel value]
            mov rax, 60
            syscall
        .data
        value: .quad 7
        """
        exe = assemble(source)
        patched, stats = duplicate_with_detours(exe)
        assert stats.patched >= 1
        machine = Machine(patched)
        trace = machine.run(record_trace=True).trace
        # find the duplicated loads in the trampoline and skip the first
        detour_steps = [i for i, a in enumerate(trace)
                        if a >= patched.section(".detour").addr]
        target = detour_steps[0]
        result = Machine(patched).run(fault_plan={target: SkipEffect()})
        assert result.exit_code == 7  # second copy healed the skip
