"""Pretty-printer unit tests: rendering rules and error diagnostics."""

import pytest

from repro.disasm.pprint import pretty_print, render_instruction
from repro.errors import RewriteError
from repro.gtirb.ir import (
    CodeBlock, DataBlock, GSection, InsnEntry, Module, SymExpr, Symbol)
from repro.isa import Cond, Imm, Mem, Mnemonic, Reg, reg
from repro.isa.insn import insn
from repro.isa.registers import RIP


def entry_of(instruction, syms=None):
    return InsnEntry(instruction, dict(syms or {}))


class TestInstructionRendering:
    def test_plain_forms(self):
        rax, rbx = Reg(reg("rax")), Reg(reg("rbx"))
        cases = [
            (insn(Mnemonic.MOV, rax, rbx), "mov rax, rbx"),
            (insn(Mnemonic.CMP, rax, Imm(-5)), "cmp rax, -5"),
            (insn(Mnemonic.RET), "ret"),
            (insn(Mnemonic.SETCC, Reg(reg("cl")), cond=Cond.B),
             "setb cl"),
            (insn(Mnemonic.MOV, rax,
                  Mem(base=reg("rsp"), disp=-8, size=8)),
             "mov rax, qword ptr [rsp-8]"),
        ]
        for instruction, expected in cases:
            assert render_instruction(entry_of(instruction)) == expected

    def test_movabs_rendering(self):
        big = insn(Mnemonic.MOV, Reg(reg("rax")), Imm(1 << 40, 8))
        assert render_instruction(entry_of(big)).startswith("movabs")

    def test_symbolic_branch(self):
        target = Symbol("there")
        jump = insn(Mnemonic.JMP, Imm(0, 4))
        text = render_instruction(
            entry_of(jump, {0: SymExpr("branch", target)}))
        assert text == "jmp there"

    def test_symbolic_mem_with_addend(self):
        sym = Symbol("buf")
        load = insn(Mnemonic.MOV, Reg(reg("rax")),
                    Mem(base=RIP, disp=0, size=8))
        text = render_instruction(
            entry_of(load, {1: SymExpr("mem", sym, 4)}))
        assert text == "mov rax, qword ptr [rel buf+4]"

    def test_symbolic_imm(self):
        sym = Symbol("fn")
        mov = insn(Mnemonic.MOV, Reg(reg("rbx")), Imm(0, 8))
        text = render_instruction(
            entry_of(mov, {1: SymExpr("imm", sym)}))
        assert text == "mov rbx, offset fn"

    def test_unsymbolized_rip_is_error(self):
        load = insn(Mnemonic.MOV, Reg(reg("rax")),
                    Mem(base=RIP, disp=0x10, size=8))
        with pytest.raises(RewriteError, match="RIP"):
            render_instruction(entry_of(load))


class TestModuleRendering:
    def _module(self):
        module = Module(name="unit")
        block = CodeBlock(entries=[
            entry_of(insn(Mnemonic.MOV, Reg(reg("rax")), Imm(60))),
            entry_of(insn(Mnemonic.SYSCALL)),
        ])
        module.sections.append(GSection(".text", [block], "rx"))
        data = DataBlock(address=0x402000, items=[
            b"\x01\x02",
            (SymExpr("mem", Symbol("start_sym")), 8),
        ])
        module.sections.append(GSection(".data", [data], "rw"))
        start = module.add_symbol("start_sym", block, is_global=True)
        module.entry = start
        return module

    def test_sections_and_labels(self):
        text = pretty_print(self._module())
        assert ".entry start_sym" in text
        assert ".global start_sym" in text
        assert "start_sym:" in text
        assert ".section .text" in text
        assert ".section .data" in text

    def test_data_directives(self):
        text = pretty_print(self._module())
        assert ".byte 0x01, 0x02" in text
        assert ".quad start_sym" in text

    def test_zero_fill_rendering(self):
        module = self._module()
        module.section(".data").blocks.append(
            DataBlock(zero_fill=True, zero_size=32))
        assert ".zero 32" in pretty_print(module)

    def test_missing_entry_rejected(self):
        module = self._module()
        module.entry = None
        with pytest.raises(RewriteError, match="entry"):
            pretty_print(module)
