"""Assembler parser unit tests: syntax, errors, operand forms."""

import pytest

from repro.asm import parse_source
from repro.asm.source import DataStmt, InsnStmt, LabelDef, SpaceStmt
from repro.errors import AsmError
from repro.isa import Imm, Label
from repro.isa.registers import RIP


def first_insn(source, section=".text"):
    program = parse_source(source)
    return next(item.insn for item in program.items(section)
                if isinstance(item, InsnStmt))


class TestComments:
    def test_hash_and_semicolon(self):
        program = parse_source(
            ".text\nstart:  # a comment\n  nop ; trailing\n")
        items = program.items(".text")
        assert isinstance(items[0], LabelDef)
        assert isinstance(items[1], InsnStmt)

    def test_comment_chars_inside_strings(self):
        program = parse_source('.data\nmsg: .ascii "a#b;c"\n')
        stmt = next(i for i in program.items(".data")
                    if isinstance(i, DataStmt))
        assert stmt.parts[0] == b"a#b;c"


class TestOperands:
    def test_memory_forms(self):
        insn = first_insn(".text\n mov rax, qword ptr [rbx+rcx*8-24]\n")
        memop = insn.operands[1]
        assert memop.base.name == "rbx"
        assert memop.index.name == "rcx"
        assert memop.scale == 8
        assert memop.disp == -24

    def test_rel_symbol(self):
        insn = first_insn(".text\n lea rsi, [rel target]\n")
        memop = insn.operands[1]
        assert memop.base is RIP
        assert isinstance(memop.disp, Label)
        assert memop.disp.name == "target"

    def test_absolute_symbol_with_addend(self):
        insn = first_insn(".text\n mov rax, qword ptr [thing+16]\n")
        memop = insn.operands[1]
        assert memop.base is None
        assert memop.disp == Label("thing", 16)

    def test_size_inference_from_register(self):
        insn = first_insn(".text\n mov al, [rsi]\n")
        assert insn.operands[1].size == 1
        insn = first_insn(".text\n mov [rsi], ebx\n")
        assert insn.operands[0].size == 4

    def test_explicit_size_wins(self):
        insn = first_insn(".text\n cmp byte ptr [rsi], 10\n")
        assert insn.operands[0].size == 1

    def test_offset_keyword(self):
        insn = first_insn(".text\n mov rbx, offset thing\n")
        assert insn.operands[1] == Label("thing", 0)

    def test_movabs_forces_imm64(self):
        insn = first_insn(".text\n movabs rax, 5\n")
        assert insn.operands[1] == Imm(5, 8)

    def test_char_and_hex_literals(self):
        insn = first_insn(".text\n cmp al, 'Z'\n")
        assert insn.operands[1].value == 90
        insn = first_insn(".text\n mov rbx, 0xBEEF\n")
        assert insn.operands[1].value == 0xBEEF

    def test_negative_scaled_expression(self):
        program = parse_source(".equ N, 4\n.text\n mov rbx, N*2+1\n")
        insn = next(i.insn for i in program.items(".text")
                    if isinstance(i, InsnStmt))
        assert insn.operands[1].value == 9


class TestDirectives:
    def test_data_values_with_expressions(self):
        program = parse_source(".data\n.equ K, 3\nv: .long K*2, 7\n")
        stmt = next(i for i in program.items(".data")
                    if isinstance(i, DataStmt))
        assert stmt.parts[0] == (6).to_bytes(4, "little")
        assert stmt.parts[1] == (7).to_bytes(4, "little")

    def test_asciz_appends_nul(self):
        program = parse_source('.data\ns: .asciz "hi"\n')
        stmt = next(i for i in program.items(".data")
                    if isinstance(i, DataStmt))
        assert stmt.parts[0] == b"hi\x00"

    def test_escape_sequences(self):
        program = parse_source('.data\ns: .ascii "a\\nb\\x21"\n')
        stmt = next(i for i in program.items(".data")
                    if isinstance(i, DataStmt))
        assert stmt.parts[0] == b"a\nb!"

    def test_space_directive(self):
        program = parse_source(".bss\nbuf: .zero 32\n")
        stmt = next(i for i in program.items(".bss")
                    if isinstance(i, SpaceStmt))
        assert stmt.size == 32

    def test_entry_directive(self):
        program = parse_source(".entry main\n.text\nmain: ret\n")
        assert program.entry == "main"


class TestErrors:
    @pytest.mark.parametrize("source", [
        ".text\n bogus rax\n",                    # unknown mnemonic
        ".text\n mov rax, [rbx\n",                # unterminated bracket
        ".text\n mov byte ptr rax, 1\n",          # size on register
        ".text\n mov rax, [rbx+rcx+rdx+rsi]\n",   # too many registers
        ".equ X, )(\n",                           # bad expression
    ])
    def test_rejects(self, source):
        with pytest.raises(AsmError):
            parse_source(source)

    def test_rsp_index_rejected(self):
        with pytest.raises((AsmError, ValueError)):
            parse_source(".text\n mov rax, [rbx+rsp*2]\n")
