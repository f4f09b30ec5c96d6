"""Hybrid approach tests: the hardening pass, pipeline, duplication."""

import hashlib
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType

import pytest

from repro.asm import assemble
from repro.binfmt import read_elf, write_elf
from repro.emu import run_executable
from repro.hybrid import BranchHardening, harden_branches, hybrid_harden
from repro.ir import verify
from repro.ir.instructions import Switch
from repro.ir.passes.pass_manager import standard_cleanup
from repro.lift import Lifter
from repro.workloads import bootloader, corpus, pincheck
from tests.duplication import duplicate_everything
from tests.ir_interp import Interpreter, guest_memory

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

BRANCHY = """
.text
.global _start
_start:
    xor rax, rax
    xor rdi, rdi
    lea rsi, [rel buf]
    mov rdx, 1
    syscall
    movzx rbx, byte ptr [buf]
    cmp rbx, 65
    je yes
    mov rdi, 2
    mov rax, 60
    syscall
yes:
    mov rdi, 1
    mov rax, 60
    syscall
.bss
buf: .zero 8
"""


@dataclass
class BootloaderFixture:
    """A committed bootloader ELF and its inputs (see
    ``tests/fixtures/README.md``), shaped like a workload."""

    name: str
    good_input: bytes = bytes.fromhex("0d141b222930373e")
    bad_input: bytes = bytes.fromhex("0d141b223930373f")
    grant_marker: bytes = bootloader.BOOT_MARKER

    def build(self):
        return read_elf((FIXTURES / self.name).read_bytes())


def lifted(exe):
    ir = Lifter(exe).lift()
    standard_cleanup().run(ir)
    return ir


class TestBranchHardeningPass:
    def test_behaviour_preserved_in_interpreter(self):
        exe = assemble(BRANCHY)
        ir = lifted(exe)
        harden_branches(ir)
        verify(ir)
        for stdin, expected in ((b"A", 1), (b"B", 2)):
            result = Interpreter(guest_memory(exe), stdin=stdin).run(
                ir.function("entry"))
            assert result.exit_code == expected

    def test_uids_are_distinct_and_nonzero(self):
        ir = lifted(assemble(BRANCHY))
        hardening = BranchHardening()
        hardening.run(ir)
        uids = list(hardening.stats.uids.values())
        assert len(set(uids)) == len(uids)
        assert all(uid != 0 for uid in uids)
        assert all(uid < (1 << 31) for uid in uids)

    def test_validation_structure(self):
        ir = lifted(assemble(BRANCHY))
        stats = harden_branches(ir)
        fn = ir.function("entry")
        switches = [i for i in fn.instructions()
                    if isinstance(i, Switch)]
        assert len(switches) == 4 * stats.branches_hardened
        assert stats.validation_blocks == 4 * stats.branches_hardened
        assert stats.fault_response_blocks == \
            2 * stats.branches_hardened

    def test_checksum_algebra(self):
        """The mask construction must select constT when the condition
        is true and constF when false, for any UIDs."""
        import random
        random.seed(7)
        for _ in range(50):
            uid_s, uid_t, uid_f = (random.getrandbits(31) or 1
                                   for _ in range(3))
            for cond in (0, 1):
                mask = (cond - 1) & ((1 << 64) - 1)
                const_t = uid_t ^ uid_s
                const_f = uid_f ^ uid_s
                checksum = ((~mask & const_t) | (mask & const_f)) \
                    & ((1 << 64) - 1)
                assert checksum == (const_t if cond else const_f)

    def test_branch_filter(self):
        ir = lifted(assemble(BRANCHY))
        stats = harden_branches(ir,
                                branch_filter=lambda b, t: False)
        assert stats.branches_hardened == 0
        ir2 = lifted(assemble(BRANCHY))
        stats2 = harden_branches(ir2)
        assert stats2.branches_hardened >= 1

    def test_pass_is_reentrant_on_new_functions(self):
        hardening = BranchHardening()
        for _ in range(2):
            ir = lifted(assemble(BRANCHY))
            hardening.run(ir)
            verify(ir)


class TestHybridPipeline:
    def test_pincheck_end_to_end(self):
        wl = pincheck.workload()
        result = hybrid_harden(wl.build(), wl.good_input, wl.bad_input,
                               wl.grant_marker, name=wl.name)
        good = run_executable(result.hardened, stdin=wl.good_input)
        bad = run_executable(result.hardened, stdin=wl.bad_input)
        assert wl.grant_marker in good.stdout
        assert wl.grant_marker not in bad.stdout
        assert result.overhead_percent > \
            result.translation_overhead_percent

    def test_skip_campaign_clean(self):
        wl = bootloader.workload()
        result = hybrid_harden(wl.build(), wl.good_input, wl.bad_input,
                               wl.grant_marker, name=wl.name,
                               models=("skip",))
        assert not result.final_reports["skip"].vulnerable

    def test_histograms_recorded(self):
        wl = pincheck.workload()
        result = hybrid_harden(wl.build(), wl.good_input, wl.bad_input,
                               wl.grant_marker, name=wl.name)
        delta = result.ir_histogram_after - result.ir_histogram_before
        assert delta["switch"] == 4 * result.hardening.branches_hardened

    def test_report_renders(self):
        wl = pincheck.workload()
        result = hybrid_harden(wl.build(), wl.good_input, wl.bad_input,
                               wl.grant_marker, name=wl.name)
        text = result.report()
        assert "Hybrid hardening report" in text
        assert "lift+lower alone" in text

    @pytest.mark.parametrize("workload, digest", [
        (pincheck, "58f5fe8d10dce779418e000eea0629d2"
                   "24d7a93dd1f990a966c03e70c60df481"),
        (bootloader, "3dd551d039bf0fa80750bc9df3907f04"
                     "49c5652982141bb491bc26b4b0bfa1c2"),
        pytest.param(pincheck.workload(rich=True),
                     "207aa31fe28bc229b4bad254b6698fd5"
                     "4da0516fee92e6658cf59c6576e06dbe", id="pincheck-rich"),
        pytest.param(corpus.workload(),
                     "646a3c6133fb829b822c54d5a5588334"
                     "b338ef962d80c12bbf4d6fe995ce4d0e", id="gatecheck"),
        pytest.param(corpus.exitgate_workload(),
                     "477c0618139b02be9d2b846439931079"
                     "041461d9911f9f4a964b420607f5653b", id="exitgate"),
        pytest.param(bootloader.workload(rich=True),
                     "a7d97ca624a8703e07efded1c6108a94"
                     "d254708f1a531c57094fbcb0c12a7970",
                     id="secure-bootloader-rich"),
        pytest.param(BootloaderFixture("bootloader_pie.elf"),
                     "dedf931cf08fb7037d76aba5dc0dd9a0"
                     "0a13c20e99a2c4f4485a796257922658",
                     id="bootloader_pie.elf"),
        pytest.param(BootloaderFixture("bootloader_stripped.elf"),
                     "797152c4186074e8e9e7737007dbddca"
                     "5bf997d2707570b5756b48b146e2a448",
                     id="bootloader_stripped.elf"),
    ])
    def test_hardened_bytes_are_pinned(self, workload, digest):
        # the IR passes' results (phi order included) reach the ELF;
        # a module stands for its default workload
        wl = workload.workload() if isinstance(workload, ModuleType) \
            else workload
        result = hybrid_harden(wl.build(), wl.good_input, wl.bad_input,
                               wl.grant_marker, name=wl.name)
        assert hashlib.sha256(
            write_elf(result.hardened)).hexdigest() == digest

    @pytest.mark.parametrize("workload, size, percent", [
        (pincheck, 346, 107.1856),
        (bootloader, 355, 69.8565),
    ])
    def test_translation_overhead_is_pinned(self, workload, size,
                                            percent):
        wl = workload.workload()
        result = hybrid_harden(wl.build(), wl.good_input, wl.bad_input,
                               wl.grant_marker, name=wl.name)
        assert result.unhardened_lowered_size == size
        assert round(result.translation_overhead_percent, 4) == percent

    def test_unhardened_lowering_runs_on_first_read(self, monkeypatch):
        from repro.hybrid import pipeline
        calls = []
        original = pipeline.lower_module

        def counting(*args, **kwargs):
            calls.append(kwargs.get("trap_after_jmp", False))
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, "lower_module", counting)
        wl = pincheck.workload()
        result = hybrid_harden(wl.build(), wl.good_input, wl.bad_input,
                               wl.grant_marker, name=wl.name)
        assert calls == [True]
        overhead = result.translation_overhead_percent
        assert calls == [True, False]
        assert result.translation_overhead_percent == overhead
        assert result.to_dict()["translation_overhead_percent"] == \
            round(overhead, 2)
        assert calls == [True, False]

    def test_unhardened_lowering_matches_an_eager_one(self):
        """On the PIE fixture the on-demand lowering equals lowering
        the cleaned-up lift at once, dynamic tables carried over."""
        from repro.hybrid.pipeline import _carry_dynamic
        from repro.lower import lower_module
        fixture = BootloaderFixture("bootloader_pie.elf")
        exe = fixture.build()
        reference = lower_module(lifted(exe), exe)
        _carry_dynamic(reference, exe)
        assert reference.pie and reference.relocations
        result = hybrid_harden(exe, fixture.good_input, fixture.bad_input,
                               fixture.grant_marker, name=fixture.name)
        assert write_elf(result.lowered_unhardened) == write_elf(reference)


class TestDuplicationBaseline:
    def test_overhead_at_least_triple(self):
        from repro.disasm import disassemble, reassemble
        wl = pincheck.workload()
        exe = wl.build()
        module = disassemble(exe)
        stats = duplicate_everything(module)
        rebuilt = reassemble(module)
        overhead = (rebuilt.code_size() - exe.code_size()) \
            / exe.code_size()
        assert overhead >= 3.0
        assert stats.duplicated > 0

    def test_duplicated_binary_behaviour(self):
        from repro.disasm import disassemble, reassemble
        wl = bootloader.workload()
        module = disassemble(wl.build())
        duplicate_everything(module)
        rebuilt = reassemble(module)
        good = run_executable(rebuilt, stdin=wl.good_input)
        assert wl.grant_marker in good.stdout

    def test_duplication_detects_skip_of_duplicable_mov(self):
        from repro.disasm import disassemble, reassemble
        source = """
        .text
        .global _start
        _start:
            mov rbx, qword ptr [value]
            mov rdi, rbx
            mov rax, 60
            syscall
        .data
        value: .quad 7
        """
        module = disassemble(assemble(source))
        duplicate_everything(module)
        rebuilt = reassemble(module)
        from repro.emu import Machine
        from repro.emu.effects import SkipEffect
        result = Machine(rebuilt).run(fault_plan={0: SkipEffect()})
        # either detected (42) or self-healed by the duplicate (7)
        assert result.exit_code in (7, 42)
