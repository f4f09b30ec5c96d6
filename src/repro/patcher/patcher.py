"""Patch application: splice hardened patterns into a GTIRB module."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.flagliveness import FlagLiveness
from repro.errors import RewriteError
from repro.gtirb.ir import (
    CodeBlock, DataBlock, GSection, InsnEntry, Module, SymExpr, Symbol)
from repro.isa.insn import Instruction, Mnemonic
from repro.isa.operands import Imm, Reg
from repro.isa.registers import reg
from repro.patcher.patterns import PatchBuilder, select_pattern

FAULTHANDLER_NAME = "fi_faulthandler"
FAULT_MESSAGE = b"FAULT DETECTED\n"
FAULT_EXIT_CODE = 42


@dataclass
class PatchRecord:
    """Log entry for one applied (or refused) patch."""

    address: Optional[int]
    mnemonic: str
    applied: bool
    reason: str = ""


class Patcher:
    """Applies localized protection patterns to a module."""

    def __init__(self, module: Module):
        self.module = module
        self.log: list[PatchRecord] = []
        self._flags: Optional[FlagLiveness] = None
        self._handler: Optional[Symbol] = None

    # -- fault handler injection ------------------------------------------

    def ensure_faulthandler(self) -> Symbol:
        """Inject the fault-response routine once (write + exit(42))."""
        if self._handler is not None:
            return self._handler
        if self.module.has_symbol(FAULTHANDLER_NAME):
            self._handler = self.module.symbol(FAULTHANDLER_NAME)
            return self._handler

        message = DataBlock(items=[FAULT_MESSAGE])
        data_section = self._data_section()
        data_section.blocks.append(message)
        msg_symbol = self.module.add_symbol("fi_fault_msg", message)

        rax, rdi, rsi, rdx = (Reg(reg(n)) for n in
                              ("rax", "rdi", "rsi", "rdx"))
        entries = [
            InsnEntry(Instruction(Mnemonic.MOV, (rax, Imm(1))),
                      protected=True),
            InsnEntry(Instruction(Mnemonic.MOV, (rdi, Imm(2))),
                      protected=True),
            InsnEntry(Instruction(Mnemonic.MOV, (rsi, Imm(0, 8))),
                      {1: SymExpr("imm", msg_symbol)}, protected=True),
            InsnEntry(Instruction(Mnemonic.MOV,
                                  (rdx, Imm(len(FAULT_MESSAGE)))),
                      protected=True),
            InsnEntry(Instruction(Mnemonic.SYSCALL, ()), protected=True),
            InsnEntry(Instruction(Mnemonic.MOV, (rax, Imm(60))),
                      protected=True),
            InsnEntry(Instruction(Mnemonic.MOV,
                                  (rdi, Imm(FAULT_EXIT_CODE))),
                      protected=True),
            InsnEntry(Instruction(Mnemonic.SYSCALL, ()), protected=True),
        ]
        block = CodeBlock(entries=entries)
        self.module.text().blocks.append(block)
        self._handler = self.module.add_symbol(FAULTHANDLER_NAME, block)
        self._invalidate()
        return self._handler

    def _data_section(self) -> GSection:
        for section in self.module.sections:
            if section.name == ".data":
                return section
        section = GSection(".data", [], "rw")
        # keep .bss last if present
        bss_index = next(
            (i for i, s in enumerate(self.module.sections)
             if s.name == ".bss"), len(self.module.sections))
        self.module.sections.insert(bss_index, section)
        return section

    # -- patching ------------------------------------------------------------

    def flag_liveness(self) -> FlagLiveness:
        if self._flags is None:
            self._flags = FlagLiveness(self.module)
        return self._flags

    def _invalidate(self):
        self._flags = None

    def patch_entry(self, entry: InsnEntry) -> bool:
        """Patch the block entry object in place.  True on success."""
        located = self._locate(entry)
        if located is None:
            raise RewriteError("entry not found in module")
        section, block, index = located
        if entry.protected:
            self._log(entry, False, "already protected")
            return False
        pattern = select_pattern(entry)
        if pattern is None:
            self._log(entry, False,
                      f"no pattern for {entry.insn.mnemonic}")
            return False
        flags_live = self.flag_liveness().live_after(block, index)
        builder = PatchBuilder(self.module, self.ensure_faulthandler(),
                               site=entry)
        if not pattern(builder, entry, flags_live):
            self._log(entry, False, "pattern not applicable")
            return False
        self._splice(section, block, index, builder)
        self._log(entry, True,
                  f"flags {'live' if flags_live else 'dead'}")
        self._invalidate()
        return True

    def _locate(self, entry: InsnEntry):
        for section in self.module.sections:
            if "x" not in section.flags:
                continue
            for block in section.blocks:
                if not block.is_code:
                    continue
                for index, candidate in enumerate(block.entries):
                    if candidate is entry:
                        return section, block, index
        return None

    def _log(self, entry: InsnEntry, applied: bool, reason: str):
        self.log.append(PatchRecord(entry.address, entry.insn.name,
                                    applied, reason))

    # -- splicing ------------------------------------------------------------

    def _splice(self, section: GSection, block: CodeBlock, index: int,
                builder: PatchBuilder):
        """Replace ``block.entries[index]`` with the builder's items."""
        pre = block.entries[:index]
        post = block.entries[index + 1:]

        # chunk items at label boundaries
        chunks: list[tuple[list[Symbol], list[InsnEntry]]] = [([], [])]
        for kind, payload in builder.items:
            if kind == "label":
                if chunks[-1][1]:
                    chunks.append(([payload], []))
                else:
                    chunks[-1][0].append(payload)
            else:
                chunks[-1][1].append(payload)

        block.entries = pre + chunks[0][1]
        for symbol in chunks[0][0]:
            # labels before any instruction of the first chunk would
            # alias the patched block's start; bind them to it
            symbol.referent = block

        position = section.blocks.index(block)
        new_blocks: list[CodeBlock] = []
        for symbols, entries in chunks[1:]:
            new_block = CodeBlock(entries=entries)
            for symbol in symbols:
                symbol.referent = new_block
            new_blocks.append(new_block)

        continuation = builder._continuation
        if post or continuation is not None:
            post_block = CodeBlock(entries=post)
            if continuation is not None:
                continuation.referent = post_block
            new_blocks.append(post_block)
        section.blocks[position + 1:position + 1] = new_blocks
