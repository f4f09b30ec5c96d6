"""Reassembleable-disassembly round trips: behaviour must be preserved."""

import random
from pathlib import Path

import pytest

from repro.binfmt import read_elf, write_elf
from repro.disasm import disassemble, pretty_print, reassemble
from repro.disasm.roundtrip import rewrite
from repro.emu import run_executable
from repro.errors import ReproError
from repro.workloads import bootloader, corpus, pincheck


def roundtrip_behavior(exe, stdin=b""):
    before = run_executable(exe, stdin=stdin)
    module = disassemble(exe)
    after = run_executable(reassemble(module), stdin=stdin)
    return before, after


class TestCorpusRoundtrips:
    @pytest.mark.parametrize("name", ["exit42", "arith", "stack_ops",
                                      "call_ret", "indirect", "memwrites",
                                      "setcc_cmov"])
    def test_behavior_preserved(self, name):
        before, after = roundtrip_behavior(corpus.build(name))
        assert before.behavior() == after.behavior()

    def test_echo_roundtrip(self):
        before, after = roundtrip_behavior(corpus.build("echo4"),
                                           stdin=b"wxyz")
        assert before.behavior() == after.behavior()


class TestCaseStudyRoundtrips:
    def test_pincheck_good_and_bad(self):
        wl = pincheck.workload()
        exe = wl.build()
        module = disassemble(exe)
        rebuilt = reassemble(module)
        for stdin in (wl.good_input, wl.bad_input):
            before = run_executable(exe, stdin=stdin)
            after = run_executable(rebuilt, stdin=stdin)
            assert before.behavior() == after.behavior()

    def test_bootloader_good_and_bad(self):
        wl = bootloader.workload()
        exe = wl.build()
        rebuilt = reassemble(disassemble(exe))
        for stdin in (wl.good_input, wl.bad_input):
            before = run_executable(exe, stdin=stdin)
            after = run_executable(rebuilt, stdin=stdin)
            assert before.behavior() == after.behavior()

    def test_stripped_binary_roundtrip(self):
        wl = pincheck.workload()
        exe = wl.build().stripped()
        rebuilt = reassemble(disassemble(exe))
        result = run_executable(rebuilt, stdin=wl.good_input)
        assert wl.grant_marker in result.stdout

    def test_pie_fixture_stays_pie(self):
        """``rewrite`` of a PIE keeps it position-independent, with
        its relocations and dynamic symbols, and keeps its behaviour
        on the fixture's campaign inputs (tests/fixtures/README.md)."""
        fixture = Path(__file__).resolve().parents[1] / "fixtures"
        exe = read_elf((fixture / "bootloader_pie.elf").read_bytes())
        rebuilt = read_elf(write_elf(rewrite(exe)))
        assert exe.pie and rebuilt.pie
        assert [(r.section, r.rtype) for r in rebuilt.relocations] == \
            [(r.section, r.rtype) for r in exe.relocations]
        assert rebuilt.dynamic_symbols == exe.dynamic_symbols
        for stdin in ("0d141b222930373e", "0d141b223930373f"):
            before = run_executable(exe, stdin=bytes.fromhex(stdin))
            after = run_executable(rebuilt, stdin=bytes.fromhex(stdin))
            assert before.behavior() == after.behavior()

    def test_double_roundtrip(self):
        wl = pincheck.workload()
        once = reassemble(disassemble(wl.build()))
        twice = reassemble(disassemble(once))
        result = run_executable(twice, stdin=wl.good_input)
        assert wl.grant_marker in result.stdout


class TestModuleStructure:
    def test_blocks_and_symbols(self):
        wl = pincheck.workload()
        module = disassemble(wl.build())
        text = module.text()
        assert len(text.code_blocks()) >= 5
        assert module.entry is not None
        assert module.has_symbol("expected_pin")

    def test_branch_symbolized(self):
        wl = pincheck.workload()
        module = disassemble(wl.build())
        branch_exprs = [
            entry.sym_operands[0]
            for block in module.text().code_blocks()
            for entry in block.entries
            if entry.insn.is_branch and 0 in entry.sym_operands
        ]
        assert branch_exprs, "no symbolized branches found"
        assert all(e.kind == "branch" for e in branch_exprs)

    def test_pointer_table_symbolized(self):
        module = disassemble(corpus.build("indirect"))
        sym_words = module.aux["symbolized_words"]
        assert sym_words >= 1  # the .quad set9 entry

    def test_pretty_print_is_parseable_text(self):
        wl = bootloader.workload()
        text = pretty_print(disassemble(wl.build()))
        assert ".section .text" in text
        assert ".entry" in text
        assert "syscall" in text


class TestSymbolizationModes:
    def test_refined_preserves_decoy(self):
        """The planted decoy constant survives refined rewriting."""
        from repro.emu import run_executable
        wl = bootloader.workload()
        exe = wl.build()
        rebuilt = reassemble(disassemble(exe, mode="refined"))
        result = run_executable(rebuilt, stdin=wl.good_input)
        assert wl.grant_marker in result.stdout

    def test_naive_symbolizes_more_words(self):
        wl = bootloader.workload()
        exe = wl.build()
        refined = disassemble(exe, mode="refined")
        naive = disassemble(exe, mode="naive")
        assert naive.aux["symbolized_words"] >= \
            refined.aux["symbolized_words"]


class TestMutatedText:
    @pytest.mark.parametrize("workload", [pincheck, bootloader],
                             ids=["pincheck", "bootloader"])
    def test_mutants_fail_typed(self, workload):
        """Seeded mutants with 1-4 random ``.text`` bytes either
        rewrite or raise a ReproError; nothing untyped escapes
        ``rewrite``, even when the entry leaves every recovered block.
        """
        elf = write_elf(workload.workload().build())
        rng = random.Random(0)
        for _ in range(150):
            exe = read_elf(elf)
            text = exe.section(".text")
            mutant = bytearray(text.data)
            for _ in range(rng.randint(1, 4)):
                mutant[rng.randrange(len(mutant))] = rng.randrange(256)
            text.data = bytes(mutant)
            try:
                rewrite(exe)
            except ReproError:
                pass
