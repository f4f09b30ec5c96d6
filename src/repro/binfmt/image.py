"""In-memory model of a linked executable."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional


@dataclass
class Section:
    """A loadable section.

    ``data`` holds file content; for NOBITS (``.bss``) sections ``data``
    is empty and ``mem_size`` carries the zero-initialized extent.
    """

    name: str
    addr: int
    data: bytes = b""
    mem_size: Optional[int] = None
    flags: str = "r"  # subset of "rwx"
    nobits: bool = False

    def __post_init__(self):
        if self.mem_size is None:
            self.mem_size = len(self.data)

    @property
    def end(self) -> int:
        return self.addr + self.mem_size

    @property
    def executable(self) -> bool:
        return "x" in self.flags

    @property
    def writable(self) -> bool:
        return "w" in self.flags

    def contains(self, address: int) -> bool:
        return self.addr <= address < self.end


@dataclass
class SymbolDef:
    """A linked symbol (label) with its resolved address."""

    name: str
    value: int
    section: str
    is_global: bool = False
    is_func: bool = False


@dataclass
class Relocation:
    """A dynamic relocation, anchored to sections on both sides.

    ``section``/``offset`` locate the patched word (``r_offset`` is
    recomputed from the section's final address at write time).  For
    ``R_X86_64_RELATIVE`` the addend is a virtual address inside the
    image; ``target_section``/``target_offset`` anchor it so the writer
    can re-derive the addend after sections move.  When no anchor could
    be established the raw ``addend`` is preserved as-is.
    """

    section: str
    offset: int
    rtype: int
    symbol: str = ""
    addend: int = 0
    target_section: str = ""
    target_offset: int = 0

    @property
    def anchored(self) -> bool:
        return bool(self.target_section)


@dataclass
class Executable:
    """A linked executable image: sections + symbols + entry point.

    Position-independent (``ET_DYN``) images carry ``pie=True`` plus
    their dynamic symbols and relocations; addresses stay absolute
    (the bundled loader maps PIEs at bias 0), so all consumers can
    treat both flavours uniformly.
    """

    entry: int
    sections: list[Section] = field(default_factory=list)
    symbols: list[SymbolDef] = field(default_factory=list)
    pie: bool = False
    relocations: list[Relocation] = field(default_factory=list)
    dynamic_symbols: list[SymbolDef] = field(default_factory=list)

    def section(self, name: str) -> Section:
        for section in self.sections:
            if section.name == name:
                return section
        raise KeyError(f"no section named {name!r}")

    def has_section(self, name: str) -> bool:
        return any(s.name == name for s in self.sections)

    def section_at(self, address: int) -> Optional[Section]:
        for section in self.sections:
            if section.contains(address):
                return section
        return None

    def symbol(self, name: str) -> SymbolDef:
        for sym in self.symbols:
            if sym.name == name:
                return sym
        raise KeyError(f"no symbol named {name!r}")

    def recovery_symbols(self) -> list[SymbolDef]:
        """Static symbols plus dynamic ones not shadowing a static name.

        Code recovery treats both tables as boundary/naming ground
        truth; on stripped PIEs the dynamic table is all that is left.
        """
        merged = list(self.symbols)
        seen = {(s.name, s.value) for s in merged}
        for sym in self.dynamic_symbols:
            if (sym.name, sym.value) not in seen:
                merged.append(sym)
                seen.add((sym.name, sym.value))
        return merged

    def address_ranges(self) -> list[tuple[int, int]]:
        """Sorted (start, end) ranges of all loadable sections."""
        return sorted((s.addr, s.end) for s in self.sections)

    def stripped(self) -> "Executable":
        """Copy without static symbols (exercises symbol-free recovery).

        Like ``strip(1)``, the dynamic table survives — it is part of
        the loadable image, not debug metadata.
        """
        return replace(self, symbols=[], sections=list(self.sections),
                       relocations=list(self.relocations),
                       dynamic_symbols=list(self.dynamic_symbols))

    def read(self, address: int, size: int) -> bytes:
        """Read bytes from the image at a virtual address."""
        section = self.section_at(address)
        if section is None:
            raise KeyError(f"address {address:#x} not in any section")
        offset = address - section.addr
        if section.nobits:
            return bytes(size)
        chunk = section.data[offset:offset + size]
        if len(chunk) < size:
            chunk += bytes(size - len(chunk))
        return chunk

    def code_size(self) -> int:
        """Total size of executable sections (the paper's overhead metric)."""
        return sum(s.mem_size for s in self.sections if s.executable)
