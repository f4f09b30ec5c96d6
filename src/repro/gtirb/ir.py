"""Core GTIRB-like IR classes."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from repro.errors import RewriteError
from repro.isa.insn import Instruction

_uid_counter = itertools.count()


@dataclass(eq=False)
class Symbol:
    """A named reference to a block (or a bare address before linking).

    Identity-based equality: two symbols with the same name are still
    distinct objects unless they are literally the same symbol.
    """

    name: str
    referent: Optional[Union["CodeBlock", "DataBlock"]] = None
    is_global: bool = False

    def __repr__(self):
        return f"Symbol({self.name})"


@dataclass(frozen=True)
class SymExpr:
    """Symbolic expression attached to one instruction operand.

    ``kind`` says which syntactic position it replaces when printing:

    * ``"branch"`` — the target of a direct jmp/jcc/call,
    * ``"mem"``    — the displacement of a memory operand (RIP-relative
      or absolute),
    * ``"imm"``    — an absolute address materialized as an immediate.
    """

    kind: str
    symbol: Symbol
    addend: int = 0

    def __str__(self):
        if self.addend:
            sign = "+" if self.addend >= 0 else "-"
            return f"{self.symbol.name}{sign}{abs(self.addend)}"
        return self.symbol.name


@dataclass(eq=False)
class InsnEntry:
    """One instruction plus the symbolic expressions on its operands.

    ``sym_operands`` maps operand index -> :class:`SymExpr`.  The
    concrete displacement/immediate values inside ``insn`` are the
    original decoded ones; printing prefers the symbolic form so the
    reference survives layout changes.

    ``protected`` marks entries emitted by a protection pattern; the
    Faulter+Patcher loop refuses to patch them again and reports any
    remaining successful faults there as residual vulnerabilities.
    ``origin`` links pattern-emitted entries back to the original
    vulnerable entry they protect, so campaigns can attribute residual
    faults to original program sites (the paper's "vulnerable points").
    """

    insn: Instruction
    sym_operands: dict[int, SymExpr] = field(default_factory=dict)
    protected: bool = False
    origin: object = field(default=None, repr=False)

    @property
    def address(self) -> Optional[int]:
        return self.insn.address

    def copy(self) -> "InsnEntry":
        return InsnEntry(self.insn, dict(self.sym_operands),
                         protected=self.protected, origin=self.origin)

    def root_site(self) -> "InsnEntry":
        """The original entry this one protects (itself if original)."""
        return self.origin if self.origin is not None else self

    def __str__(self):
        return str(self.insn)


@dataclass(eq=False)
class CodeBlock:
    """A straight-line run of instructions (basic block granularity)."""

    address: Optional[int] = None
    entries: list[InsnEntry] = field(default_factory=list)
    uid: int = field(default_factory=lambda: next(_uid_counter))

    @property
    def is_code(self) -> bool:
        return True

    def instructions(self) -> list[Instruction]:
        return [entry.insn for entry in self.entries]

    def terminator(self) -> Optional[InsnEntry]:
        if self.entries and self.entries[-1].insn.is_control_flow:
            return self.entries[-1]
        return None

    def find(self, address: int) -> Optional[int]:
        """Index of the entry whose original address is ``address``."""
        for index, entry in enumerate(self.entries):
            if entry.address == address:
                return index
        return None

    def byte_size(self) -> int:
        from repro.isa.encoder import encoded_length
        return sum(encoded_length(e.insn) for e in self.entries)

    def __repr__(self):
        where = f"{self.address:#x}" if self.address is not None else "new"
        return f"CodeBlock({where}, {len(self.entries)} insns)"


@dataclass(eq=False)
class DataBlock:
    """A run of data bytes, possibly containing symbolic words.

    ``items`` are ``bytes`` chunks or ``(SymExpr, size)`` pairs;
    ``zero_fill`` marks NOBITS (.bss) blocks whose extent is
    ``zero_size``.
    """

    address: Optional[int] = None
    items: list = field(default_factory=list)
    zero_fill: bool = False
    zero_size: int = 0
    uid: int = field(default_factory=lambda: next(_uid_counter))

    @property
    def is_code(self) -> bool:
        return False

    def byte_size(self) -> int:
        if self.zero_fill:
            return self.zero_size
        total = 0
        for item in self.items:
            total += len(item) if isinstance(item, bytes) else item[1]
        return total

    def __repr__(self):
        where = f"{self.address:#x}" if self.address is not None else "new"
        return f"DataBlock({where}, {self.byte_size()} bytes)"


@dataclass
class GSection:
    """An ordered sequence of blocks belonging to one output section."""

    name: str
    blocks: list = field(default_factory=list)
    flags: str = "r"

    def code_blocks(self) -> list[CodeBlock]:
        return [b for b in self.blocks if b.is_code]


@dataclass
class Module:
    """A rewritable program: sections, symbols, entry.

    ``pie`` records that the module was recovered from a
    position-independent image; reassembly keeps it one.
    """

    name: str = "module"
    sections: list[GSection] = field(default_factory=list)
    symbols: list[Symbol] = field(default_factory=list)
    entry: Optional[Symbol] = None
    aux: dict = field(default_factory=dict)
    pie: bool = False

    # -- lookup ------------------------------------------------------------

    def section(self, name: str) -> GSection:
        for section in self.sections:
            if section.name == name:
                return section
        raise KeyError(f"no section {name!r}")

    def text(self) -> GSection:
        return self.section(".text")

    def symbol(self, name: str) -> Symbol:
        for symbol in self.symbols:
            if symbol.name == name:
                return symbol
        raise KeyError(f"no symbol {name!r}")

    def has_symbol(self, name: str) -> bool:
        return any(s.name == name for s in self.symbols)

    def symbols_for(self, block) -> list[Symbol]:
        return [s for s in self.symbols if s.referent is block]

    def add_symbol(self, name: str, referent, is_global=False) -> Symbol:
        if self.has_symbol(name):
            raise RewriteError(f"symbol {name!r} already exists")
        symbol = Symbol(name, referent, is_global)
        self.symbols.append(symbol)
        return symbol

    def fresh_symbol(self, prefix: str, referent) -> Symbol:
        index = 0
        while self.has_symbol(f"{prefix}_{index}"):
            index += 1
        return self.add_symbol(f"{prefix}_{index}", referent)

    # -- traversal -----------------------------------------------------------

    def all_blocks(self) -> Iterable:
        for section in self.sections:
            yield from section.blocks

    def code_blocks(self) -> list[CodeBlock]:
        blocks = []
        for section in self.sections:
            if "x" in section.flags:
                blocks.extend(section.code_blocks())
        return blocks

    def find_instruction(self, address: int):
        """Locate an original instruction address.

        Returns ``(section, block, entry_index)`` or raises
        :class:`~repro.errors.RewriteError`.
        """
        for section in self.sections:
            for block in section.blocks:
                if not block.is_code:
                    continue
                index = block.find(address)
                if index is not None:
                    return section, block, index
        raise RewriteError(f"no instruction at address {address:#x}")

    # -- statistics -----------------------------------------------------------

    def text_size(self) -> int:
        """Code bytes in executable sections (paper's overhead metric)."""
        return sum(
            block.byte_size()
            for section in self.sections if "x" in section.flags
            for block in section.blocks)

    def instruction_count(self) -> int:
        return sum(len(b.entries) for b in self.code_blocks())
