"""Byte-exact decoder coverage for encodings the encoder never emits.

Single-bit flips reach these alternate encodings (rel8 jumps, byte-form
ALU, accumulator-immediate shortcuts, shift-by-one), so the decoder and
emulator must handle them even though the assembler's canonical output
does not use them.
"""

import pytest

from repro.errors import DecodingError
from repro.isa import Mnemonic, decode
from repro.isa.cond import Cond
from repro.isa.operands import Mem


def b(*values):
    return bytes(values)


class TestAlternateEncodings:
    def test_rel8_jmp(self):
        insn = decode(b(0xEB, 0x10), 0, 0x1000)
        assert insn.mnemonic is Mnemonic.JMP
        assert insn.branch_target() == 0x1012

    def test_rel8_jcc(self):
        insn = decode(b(0x74, 0xFE), 0, 0x1000)  # je $-2 (self loop)
        assert insn.mnemonic is Mnemonic.JCC
        assert insn.cond is Cond.E
        assert insn.branch_target() == 0x1000

    def test_accumulator_imm_shortcuts(self):
        # 3C ib: cmp al, imm8
        insn = decode(b(0x3C, 0x41))
        assert insn.mnemonic is Mnemonic.CMP
        assert insn.operands[0].register.name == "al"
        assert insn.operands[1].value == 0x41
        # 05 id: add eax, imm32
        insn = decode(b(0x05, 0x01, 0x00, 0x00, 0x00))
        assert insn.mnemonic is Mnemonic.ADD
        assert insn.operands[0].register.name == "eax"

    def test_b0_byte_mov(self):
        insn = decode(b(0xB0, 0x7F))  # mov al, 0x7f
        assert insn.mnemonic is Mnemonic.MOV
        assert insn.operands[0].register.name == "al"

    def test_shift_by_one_form(self):
        insn = decode(b(0x48, 0xD1, 0xE0))  # shl rax, 1
        assert insn.mnemonic is Mnemonic.SHL
        assert insn.operands[1].value == 1

    def test_shift_by_cl_form(self):
        insn = decode(b(0x48, 0xD3, 0xE8))  # shr rax, cl
        assert insn.mnemonic is Mnemonic.SHR
        assert insn.operands[1].register.name == "cl"

    def test_push_pop_memory(self):
        insn = decode(b(0xFF, 0x33))  # push qword ptr [rbx]
        assert insn.mnemonic is Mnemonic.PUSH
        assert isinstance(insn.operands[0], Mem)
        insn = decode(b(0x8F, 0x03))  # pop qword ptr [rbx]
        assert insn.mnemonic is Mnemonic.POP

    def test_indirect_jmp_through_memory(self):
        insn = decode(b(0xFF, 0x23))  # jmp qword ptr [rbx]
        assert insn.mnemonic is Mnemonic.JMP
        assert isinstance(insn.operands[0], Mem)
        assert insn.branch_target() is None


class TestRejections:
    @pytest.mark.parametrize("blob", [
        b(0x66, 0x90),         # operand-size prefix
        b(0xF0, 0x90),         # lock prefix
        b(0x0F, 0xA2),         # cpuid (outside subset)
        b(0xFF, 0x38),         # FF /7 undefined
        b(0x8F, 0x48),         # 8F /1 undefined
        b(0xD1, 0x30),         # shift group /6 undefined
        b(0x48,),              # lone REX
    ])
    def test_unsupported(self, blob):
        with pytest.raises(DecodingError):
            decode(blob)

    def test_high_byte_registers_rejected(self):
        # 88 E0 = mov al, ah without REX: ah is outside the subset
        with pytest.raises(DecodingError):
            decode(b(0x88, 0xE0))

    def test_rex_turns_code_4_into_spl(self):
        insn = decode(b(0x40, 0x88, 0xE0))  # mov al, spl with REX
        assert insn.operands[1].register.name == "spl"

    def test_truncated_instruction(self):
        with pytest.raises(DecodingError):
            decode(b(0x48, 0x8B))  # mov r64, r/m64 with no ModRM


class TestEmulatorRunsAlternateForms:
    def test_rel8_loop_executes(self):
        """A hand-encoded rel8 loop must run on the emulator."""
        from repro.binfmt.image import Executable, Section
        from repro.emu import run_executable
        # mov ecx, 3; dec ecx; jne -3 ; mov eax,60; xor edi,edi; syscall
        code = (b(0xB9, 0x03, 0x00, 0x00, 0x00) +      # mov ecx, 3
                b(0xFF, 0xC9) +                        # dec ecx
                b(0x75, 0xFC) +                        # jne rel8 -4
                b(0xB8, 0x3C, 0x00, 0x00, 0x00) +      # mov eax, 60
                b(0x31, 0xFF) +                        # xor edi, edi
                b(0x0F, 0x05))                         # syscall
        exe = Executable(entry=0x401000, sections=[
            Section(".text", 0x401000, code, flags="rx")])
        result = run_executable(exe)
        assert result.reason == "exit"
        assert result.exit_code == 0
