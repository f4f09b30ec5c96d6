"""Symbolization unit tests: reference kinds, splitting, aux data."""

import pytest

from repro.asm import assemble
from repro.disasm import disassemble
from repro.gtirb.ir import SymExpr


def module_of(source, mode="refined"):
    return disassemble(assemble(source), mode=mode)


class TestReferenceKinds:
    def test_branch_kind(self):
        module = module_of("""
        .text
        .global _start
        _start:
            jmp next
        next:
            mov rax, 60
            mov rdi, 0
            syscall
        """)
        jmp_entry = module.text().code_blocks()[0].entries[-1]
        expr = jmp_entry.sym_operands[0]
        assert expr.kind == "branch"
        assert expr.symbol.name == "next"

    def test_mem_rip_kind(self):
        module = module_of("""
        .text
        .global _start
        _start:
            lea rsi, [rel blob]
            mov rax, 60
            mov rdi, 0
            syscall
        .data
        blob: .byte 1
        """)
        lea = module.text().code_blocks()[0].entries[0]
        expr = lea.sym_operands[1]
        assert expr.kind == "mem"
        assert expr.symbol.name == "blob"

    def test_mem_absolute_kind(self):
        module = module_of("""
        .text
        .global _start
        _start:
            mov rdx, qword ptr [blob]
            mov rax, 60
            mov rdi, 0
            syscall
        .data
        blob: .quad 9
        """)
        mov = module.text().code_blocks()[0].entries[0]
        assert mov.sym_operands[1].kind == "mem"

    def test_imm_kind_movabs(self):
        module = module_of("""
        .text
        .global _start
        _start:
            mov rbx, offset blob
            mov rax, 60
            mov rdi, 0
            syscall
        .data
        blob: .quad 9
        """)
        mov = module.text().code_blocks()[0].entries[0]
        assert mov.sym_operands[1].kind == "imm"


class TestDataSplitting:
    SOURCE = """
    .text
    .global _start
    _start:
        lea rsi, [rel second]
        mov rax, 60
        mov rdi, 0
        syscall
    .data
    first:  .quad 1, 2
    second: .quad 3
    third:  .byte 9
    """

    def test_split_at_referenced_addresses(self):
        module = module_of(self.SOURCE)
        data = module.section(".data")
        addresses = [b.address for b in data.blocks]
        # split points at first (symbol), second (referenced), third
        assert module.symbol("second").referent in data.blocks
        assert len(data.blocks) >= 3

    def test_block_sizes_partition_section(self):
        module = module_of(self.SOURCE)
        data = module.section(".data")
        total = sum(b.byte_size() for b in data.blocks)
        assert total == 8 * 3 + 1

    def test_bss_splitting(self):
        module = module_of("""
        .text
        .global _start
        _start:
            lea rsi, [rel buf_b]
            mov rax, 60
            mov rdi, 0
            syscall
        .bss
        buf_a: .zero 16
        buf_b: .zero 8
        """)
        bss = module.section(".bss")
        assert all(b.zero_fill for b in bss.blocks)
        assert sum(b.zero_size for b in bss.blocks) == 24
        assert module.symbol("buf_b").referent.zero_size == 8


class TestAuxData:
    def test_mode_recorded(self):
        wl_source = """
        .text
        .global _start
        _start:
            mov rax, 60
            mov rdi, 0
            syscall
        """
        assert module_of(wl_source).aux["symbolization_mode"] == \
            "refined"
        assert module_of(wl_source, mode="naive") \
            .aux["symbolization_mode"] == "naive"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            module_of(".text\n.global _start\n_start:\n ret\n",
                      mode="psychic")

    def test_pointer_chain_in_data(self):
        """A data pointer to data that itself is only referenced by the
        pointer (one level of indirection, fixpoint scan)."""
        module = module_of("""
        .text
        .global _start
        _start:
            mov rax, qword ptr [head]
            mov rax, 60
            mov rdi, 0
            syscall
        .data
        head: .quad tail
        tail: .quad 77
        """)
        head_block = module.symbol("head").referent
        expr = next(item[0] for item in head_block.items
                    if isinstance(item, tuple))
        assert isinstance(expr, SymExpr)
        assert expr.symbol.name == "tail"
