"""Assembler + ELF writer/reader integration tests."""

import random

import pytest

from repro.asm import assemble, assemble_to_elf
from repro.binfmt import read_elf
from repro.errors import AsmError, LinkError, ReproError
from repro.isa import Mnemonic, decode
from repro.isa.decoder import decode_all

HELLO = """
.section .text
.global _start
_start:
    mov rax, 1          # write
    mov rdi, 1
    lea rsi, [rel msg]
    mov rdx, msg_len
    syscall
    mov rax, 60         # exit
    xor rdi, rdi
    syscall
.section .data
msg: .ascii "hi!\\n"
.equ msg_len, 4
"""


class TestBasicAssembly:
    def test_assembles_and_links(self):
        exe = assemble(HELLO)
        text = exe.section(".text")
        assert text.addr == 0x401000
        assert exe.entry == text.addr
        data = exe.section(".data")
        assert data.data == b"hi!\n"

    def test_rip_relative_points_at_msg(self):
        exe = assemble(HELLO)
        text = exe.section(".text")
        instructions = list(decode_all(text.data, text.addr))
        lea = next(i for i in instructions if i.mnemonic is Mnemonic.LEA)
        target = lea.end_address + lea.operands[1].disp
        assert target == exe.symbol("msg").value

    def test_elf_roundtrip(self):
        exe = assemble(HELLO)
        parsed = read_elf(assemble_to_elf(HELLO))
        assert parsed.entry == exe.entry
        assert parsed.section(".text").data == exe.section(".text").data
        assert parsed.section(".data").data == exe.section(".data").data
        assert parsed.symbol("_start").value == exe.symbol("_start").value
        assert parsed.symbol("_start").is_global

    def test_local_labels_not_exported(self):
        source = """
        .text
        .global _start
        _start:
            jmp .loop
        .loop:
            jmp .loop
        """
        exe = assemble(source)
        names = {s.name for s in exe.symbols}
        assert ".loop" not in names
        assert "_start" in names


class TestDirectives:
    def test_quad_pointer_table(self):
        source = """
        .text
        .global _start
        _start:
            ret
        .data
        table: .quad _start, table
        """
        exe = assemble(source)
        data = exe.section(".data").data
        start = int.from_bytes(data[:8], "little")
        self_ptr = int.from_bytes(data[8:16], "little")
        assert start == exe.symbol("_start").value
        assert self_ptr == exe.symbol("table").value

    def test_align(self):
        source = """
        .text
        .global _start
        _start:
            ret
        .data
        a: .byte 1
        .align 8
        b: .byte 2
        """
        exe = assemble(source)
        assert exe.symbol("b").value % 8 == 0

    def test_bss_is_nobits(self):
        source = """
        .text
        .global _start
        _start:
            ret
        .bss
        buf: .zero 64
        """
        exe = assemble(source)
        bss = exe.section(".bss")
        assert bss.nobits
        assert bss.mem_size == 64
        parsed = read_elf(assemble_to_elf(source))
        assert parsed.section(".bss").nobits

    def test_equ_expressions(self):
        source = """
        .equ A, 4
        .equ B, A*2+1
        .text
        .global _start
        _start:
            mov rax, B
            ret
        """
        exe = assemble(source)
        text = exe.section(".text").data
        instruction = decode(text)
        assert instruction.operands[1].value == 9

    def test_char_literal(self):
        source = """
        .text
        .global _start
        _start:
            cmp al, 'A'
            ret
        """
        exe = assemble(source)
        instruction = decode(exe.section(".text").data)
        assert instruction.operands[1].value == ord("A")


class TestErrors:
    def test_undefined_symbol(self):
        with pytest.raises(LinkError):
            assemble(".text\n.global _start\n_start:\n jmp nowhere\n")

    def test_duplicate_label(self):
        with pytest.raises(AsmError):
            assemble(".text\n_start:\n_start:\n ret\n")

    def test_unknown_mnemonic(self):
        with pytest.raises(AsmError):
            assemble(".text\n_start:\n frobnicate rax\n")

    def test_missing_entry(self):
        with pytest.raises(LinkError):
            assemble(".text\nmain:\n ret\n")

    def test_symbolic_disp_with_base_rejected(self):
        with pytest.raises(AsmError):
            assemble(".text\n_start:\n mov rax, [rbx+msg]\n ret\n"
                     ".data\nmsg: .byte 1\n")

    @pytest.mark.parametrize("body, line", [
        ("lea", 4),
        ("lea rax", 4),
        ("push", 4),
        ("jmp a, b", 4),
        ("mov eax, [rax+rax*3]", 4),
        ("mov eax, [rax+rsp*2]", 4),
        ("nop\n    mov ra, 60\n    movzx eax, byte ptr [ra]", 5),
    ])
    def test_bad_operands_name_their_line(self, body, line):
        with pytest.raises(AsmError, match=f"^line {line}: "):
            assemble(f".text\n.globl _start\n_start:\n    {body}\n")

    def test_mutated_sources_raise_only_library_errors(self):
        """Seeded mutations of a small program — dropped, duplicated
        and swapped tokens and characters — either assemble or raise a
        :class:`ReproError`, never a bare Python exception."""
        rng = random.Random(2024)
        tokens = HELLO.replace(",", " , ").replace("[", " [ ") \
            .replace("]", " ] ").split(" ")
        pool = sorted(set(tokens) | {"*3", "*8", "+", "-", "rsp", "al",
                                     "byte ptr", "0x7fffffffffff",
                                     "push", "lea", ".equ", ":"})
        for _ in range(400):
            mutated = list(tokens)
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(len(mutated))
                action = rng.randrange(4)
                if action == 0:
                    del mutated[at]
                elif action == 1:
                    mutated.insert(at, rng.choice(pool))
                elif action == 2:
                    mutated[at] = rng.choice(pool)
                else:
                    other = rng.randrange(len(mutated))
                    mutated[at], mutated[other] = \
                        mutated[other], mutated[at]
            source = " ".join(mutated)
            if rng.random() < 0.5:
                cut = rng.randrange(len(source))
                source = source[:cut] + source[cut + 1:]
            try:
                assemble(source)
            except ReproError:
                pass


class TestBranches:
    def test_forward_and_backward(self):
        source = """
        .text
        .global _start
        _start:
            jmp fwd
        back:
            ret
        fwd:
            jmp back
        """
        exe = assemble(source)
        text = exe.section(".text")
        instructions = list(decode_all(text.data, text.addr))
        assert instructions[0].branch_target() == exe.symbol("fwd").value
        assert instructions[-1].branch_target() == exe.symbol("back").value

    def test_call_and_offset(self):
        source = """
        .text
        .global _start
        _start:
            call fn
            mov rbx, offset fn
            ret
        fn:
            ret
        """
        exe = assemble(source)
        text = exe.section(".text")
        instructions = list(decode_all(text.data, text.addr))
        assert instructions[0].branch_target() == exe.symbol("fn").value
        assert instructions[1].operands[1].value == exe.symbol("fn").value


class TestSingleLength:
    """Each instruction's encoded length is computed once, in layout."""

    SOURCE = HELLO + """
.section .text
loop:
    cmp rax, 3
    jne loop
    call loop
    mov rbx, offset msg
    mov qword ptr [rel msg], 7
"""

    @staticmethod
    def _counting(monkeypatch, adjust=0):
        from repro.asm import assembler
        original = assembler.encoded_length
        calls = []

        def counting(insn):
            calls.append(insn)
            return original(insn) + adjust

        monkeypatch.setattr(assembler, "encoded_length", counting)
        return calls

    def test_encoded_length_once_per_instruction(self, monkeypatch):
        from repro.asm.assembler import assemble_with_map
        from repro.asm.parser import parse_source
        from repro.asm.source import InsnStmt
        program = parse_source(self.SOURCE)
        statements = [item for name in program.sections
                      for item in program.items(name)
                      if isinstance(item, InsnStmt)]
        expected = assemble(self.SOURCE)
        calls = self._counting(monkeypatch)
        exe, _ = assemble_with_map(program)
        assert len(calls) == len(statements)
        assert exe.section(".text").data == expected.section(".text").data

    def test_stability_check_compares_the_layout_length(self, monkeypatch):
        self._counting(monkeypatch, adjust=1)
        with pytest.raises(LinkError, match="unstable encoding"):
            assemble(self.SOURCE)
