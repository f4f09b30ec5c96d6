"""Fine-grained CPU semantics: sub-registers, addressing, faults."""

from repro.asm import assemble
from repro.emu import Machine, run_executable
from repro.emu.cpu import CPU
from repro.emu.effects import FetchEffect
from repro.emu.memory import Memory
from repro.isa import reg
from repro.isa.decoder import decode


class RedecodeEffect(FetchEffect):
    """Re-decode the fetched bytes after ``mutate(raw)`` edits them."""

    def __init__(self, mutate):
        self.mutate = mutate

    def apply(self, machine, insn):
        raw = bytearray(machine.memory.fetch(insn.address, 15))
        self.mutate(raw)
        return decode(bytes(raw), 0, insn.address)


def run_source(source, stdin=b"", max_steps=10_000):
    return run_executable(assemble(source), stdin=stdin,
                          max_steps=max_steps)


class TestSubRegisters:
    def test_32bit_write_zeroes_upper(self):
        result = run_source("""
        .text
        .global _start
        _start:
            movabs rbx, 0xffffffffffffffff
            mov ebx, 5              # upper 32 bits must clear
            mov rdi, rbx
            mov rax, 60
            syscall
        """)
        assert result.exit_code == 5

    def test_8bit_write_preserves_upper(self):
        result = run_source("""
        .text
        .global _start
        _start:
            mov rbx, 0x1200
            mov bl, 0x34            # keeps bit 8..63
            shr rbx, 8
            mov rdi, rbx
            mov rax, 60
            syscall
        """)
        assert result.exit_code == 0x12

    def test_cpu_read_write_views(self):
        cpu = CPU(Memory())
        cpu.write_reg(reg("rax"), 0x1122334455667788)
        assert cpu.read_reg(reg("eax")) == 0x55667788
        assert cpu.read_reg(reg("al")) == 0x88
        cpu.write_reg(reg("al"), 0xFF)
        assert cpu.read_reg(reg("rax")) == 0x11223344556677FF


class TestAddressing:
    def test_scaled_index(self):
        result = run_source("""
        .text
        .global _start
        _start:
            lea rsi, [rel table]
            mov rcx, 2
            mov rdi, qword ptr [rsi+rcx*8]
            mov rax, 60
            syscall
        .data
        table: .quad 10, 20, 30, 40
        """)
        assert result.exit_code == 30

    def test_rip_relative_is_position_of_next_insn(self):
        exe = assemble("""
        .text
        .global _start
        _start:
            mov rdi, qword ptr [rel value]
            mov rax, 60
            syscall
        .data
        value: .quad 9
        """)
        machine = Machine(exe)
        insn = machine.fetch_decode(exe.entry)
        target = insn.end_address + insn.operands[1].disp
        assert target == exe.symbol("value").value

    def test_negative_displacement(self):
        result = run_source("""
        .text
        .global _start
        _start:
            lea rsi, [rel anchor]
            mov rdi, qword ptr [rsi-8]
            mov rax, 60
            syscall
        .data
        before: .quad 17
        anchor: .quad 0
        """)
        assert result.exit_code == 17


class TestStack:
    def test_push_imm_sign_extends(self):
        result = run_source("""
        .text
        .global _start
        _start:
            push -1
            pop rbx
            mov rdi, 0
            cmp rbx, -1
            jne bad
            mov rdi, 1
        bad:
            mov rax, 60
            syscall
        """)
        assert result.exit_code == 1

    def test_red_zone_survives(self):
        # write below rsp, shift rsp into the red zone, read back
        result = run_source("""
        .text
        .global _start
        _start:
            mov qword ptr [rsp-64], 33
            lea rsp, [rsp-128]
            mov rdi, qword ptr [rsp+64]
            lea rsp, [rsp+128]
            mov rax, 60
            syscall
        """)
        assert result.exit_code == 33


class TestCmov:
    def test_cmov_taken_and_not_taken(self):
        result = run_source("""
        .text
        .global _start
        _start:
            mov rdi, 1
            mov rbx, 9
            cmp rbx, 9
            cmove rdi, rbx      # taken -> rdi = 9
            mov rcx, 50
            cmp rbx, 0
            cmove rdi, rcx      # not taken
            mov rax, 60
            syscall
        """)
        assert result.exit_code == 9


class TestFaultRealism:
    def test_bitflip_can_change_instruction_length(self):
        """A flip that turns one instruction into a longer one consumes
        following bytes — execution continues at the new boundary."""
        exe = assemble("""
        .text
        .global _start
        _start:
            nop
            nop
            mov rax, 60
            mov rdi, 7
            syscall
        """)
        machine = Machine(exe)

        def flip_to_longer(raw):
            raw[0] = 0x48  # REX prefix swallows the next byte

        result = machine.run(
            fault_plan={0: RedecodeEffect(flip_to_longer)})
        # either still exits (resynced) or crashes; never hangs
        assert result.reason in ("exit", "crash")

    def test_undecodable_flip_crashes(self):
        exe = assemble("""
        .text
        .global _start
        _start:
            mov rax, 60
            mov rdi, 0
            syscall
        """)
        machine = Machine(exe)

        def clobber(raw):
            raw[:] = b"\x06" + bytes(14)

        result = machine.run(fault_plan={0: RedecodeEffect(clobber)})
        assert result.reason == "crash"
        assert "invalid opcode" in result.crash_detail

    def test_imul_and_movzx(self):
        result = run_source("""
        .text
        .global _start
        _start:
            mov rbx, -3
            imul rbx, rbx        # 9
            mov byte ptr [rel scratch], 200
            movzx rdi, byte ptr [rel scratch]
            add rdi, rbx         # 209
            mov rax, 60
            syscall
        .data
        scratch: .byte 0
        """)
        assert result.exit_code == 209
