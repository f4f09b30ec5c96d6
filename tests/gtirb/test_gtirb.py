"""GTIRB IR and CFG unit tests."""

import pytest

from repro.disasm import disassemble
from repro.errors import RewriteError
from repro.gtirb import CodeBlock, DataBlock, build_cfg
from repro.gtirb.ir import InsnEntry
from repro.isa.insn import Instruction, Mnemonic
from repro.workloads import pincheck


@pytest.fixture
def module():
    return disassemble(pincheck.build())


class TestModule:
    def test_find_instruction(self, module):
        entry_addr = 0x401000
        section, block, index = module.find_instruction(entry_addr)
        assert section.name == ".text"
        assert block.entries[index].address == entry_addr

    def test_find_missing_instruction(self, module):
        with pytest.raises(RewriteError):
            module.find_instruction(0x123456)

    def test_symbol_management(self, module):
        block = module.text().code_blocks()[0]
        symbol = module.add_symbol("my_label", block)
        assert module.symbol("my_label") is symbol
        assert symbol in module.symbols_for(block)
        with pytest.raises(RewriteError):
            module.add_symbol("my_label", block)

    def test_fresh_symbol_uniqueness(self, module):
        a = module.fresh_symbol("tmp", None)
        b = module.fresh_symbol("tmp", None)
        assert a.name != b.name

    def test_text_size_matches_encoding(self, module):
        exe = pincheck.build()
        assert module.text_size() == exe.code_size()

    def test_instruction_count(self, module):
        assert module.instruction_count() > 20


class TestBlocks:
    def test_terminator_detection(self):
        ret_block = CodeBlock(entries=[
            InsnEntry(Instruction(Mnemonic.RET, ()))])
        assert ret_block.terminator() is not None
        plain = CodeBlock(entries=[
            InsnEntry(Instruction(Mnemonic.NOP, ()))])
        assert plain.terminator() is None

    def test_data_block_sizes(self):
        data = DataBlock(items=[b"abc", b"defg"])
        assert data.byte_size() == 7
        zeros = DataBlock(zero_fill=True, zero_size=64)
        assert zeros.byte_size() == 64

    def test_entry_copy_is_independent(self):
        entry = InsnEntry(Instruction(Mnemonic.NOP, ()))
        clone = entry.copy()
        clone.protected = True
        assert not entry.protected

    def test_root_site_chain(self):
        original = InsnEntry(Instruction(Mnemonic.NOP, ()))
        derived = InsnEntry(Instruction(Mnemonic.NOP, ()),
                            origin=original)
        assert derived.root_site() is original
        assert original.root_site() is original


class TestCFG:
    def test_edge_kinds(self, module):
        cfg = build_cfg(module)
        kinds = {e.kind for e in cfg.edges}
        assert "branch" in kinds
        assert "fallthrough" in kinds

    def test_conditional_branch_has_two_successors(self, module):
        cfg = build_cfg(module)
        for block in module.text().code_blocks():
            terminator = block.terminator()
            if terminator and terminator.insn.mnemonic is Mnemonic.JCC:
                kinds = sorted(e.kind for e in cfg.successors(block))
                assert kinds == ["branch", "fallthrough"]

    def test_predecessors_inverse_of_successors(self, module):
        cfg = build_cfg(module)
        for edge in cfg.edges:
            if edge.dst is not None:
                assert edge in cfg.predecessors(edge.dst)

    def test_dot_rendering(self, module):
        dot = build_cfg(module).to_dot(module)
        assert dot.startswith("digraph")
        assert "->" in dot


class TestFunctions:
    def test_function_discovery(self):
        from repro.disasm.functions import find_functions
        from repro.workloads import corpus
        module = disassemble(corpus.build("call_ret"))
        functions = find_functions(module)
        names = {f.name for f in functions}
        assert "_start" in names
        assert "bump" in names
        total_blocks = sum(len(f.blocks) for f in functions)
        assert total_blocks == len(module.text().code_blocks())

    def test_data_pointer_roots(self):
        from repro.disasm.functions import find_functions
        from repro.workloads import corpus
        module = disassemble(corpus.build("indirect"))
        functions = find_functions(module)
        assert any(f.name == "set9" for f in functions)
