"""Two-pass assembler and static linker.

Pass 1 lays out every section item at a stable offset (symbolic operands
always take their canonical wide encodings, so lengths never change
between passes).  Pass 2 resolves symbols against the final section
addresses and encodes instructions and data relocations.

Section placement mirrors a classic static link: ``.text`` at
``0x401000``, the remaining sections on consecutive page boundaries,
``.bss`` last as NOBITS.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asm.parser import parse_source
from repro.asm.source import (
    AlignStmt, DataStmt, InsnStmt, LabelDef, Program, SpaceStmt)
from repro.binfmt import elfdefs
from repro.binfmt.image import Executable, Relocation, Section, SymbolDef
from repro.binfmt.writer import write_elf
from repro.errors import AsmError, EncodingError, LinkError
from repro.isa.encoder import encode, encoded_length
from repro.isa.insn import Instruction, Mnemonic
from repro.isa.operands import Imm, Label, Mem, is_symbolic
from repro.isa.registers import RIP

PAGE = 0x1000
TEXT_BASE = 0x401000

_SECTION_FLAGS = {
    ".text": "rx",
    ".rodata": "r",
    ".data": "rw",
    ".bss": "rw",
}
_SECTION_ORDER = [".text", ".rodata", ".data", ".bss"]


@dataclass
class _Fixup:
    """A pending data relocation inside a section blob."""

    section: str
    offset: int
    symbol: str
    addend: int
    size: int


def _section_rank(name: str) -> tuple[int, str]:
    try:
        return _SECTION_ORDER.index(name), name
    except ValueError:
        return len(_SECTION_ORDER) - 1, name  # unknown sections before .bss


def assemble(source: str | Program, pie: bool = False) -> Executable:
    """Assemble and link ``source`` into an executable image."""
    exe, _ = assemble_with_map(source, pie=pie)
    return exe


def assemble_with_map(source: str | Program, pie: bool = False):
    """Assemble and also return ``{InsnStmt.tag: final_address}``.

    The rewriting loop uses the map to translate fault addresses in the
    freshly linked binary back to the GTIRB entries that produced them.

    With ``pie=True`` the image is marked position-independent: every
    pointer-sized data word that resolves through a symbol becomes an
    ``R_X86_64_RELATIVE`` relocation (both sides section-anchored), and
    global symbols are exported through the dynamic symbol table — the
    writer then emits an ``ET_DYN`` image.
    """
    program = parse_source(source) if isinstance(source, str) else source

    ordered = sorted(program.sections, key=_section_rank)
    if ".bss" in ordered:
        ordered.remove(".bss")
        ordered.append(".bss")

    # ---- pass 1: offsets within each section ---------------------------
    offsets: dict[str, dict[int, int]] = {}
    lengths: dict[str, dict[int, int]] = {}  # encoded InsnStmt lengths
    sizes: dict[str, int] = {}
    symbols: dict[str, tuple[str, int]] = {}  # name -> (section, offset)
    for name in ordered:
        position = 0
        table: dict[int, int] = {}
        lengths[name] = insn_lengths = {}
        for index, item in enumerate(program.items(name)):
            if isinstance(item, AlignStmt):
                remainder = position % item.alignment
                if remainder:
                    position += item.alignment - remainder
            table[index] = position
            if isinstance(item, LabelDef):
                if item.name in symbols:
                    raise AsmError(
                        f"line {item.line}: duplicate label {item.name!r}")
                symbols[item.name] = (name, position)
            elif isinstance(item, InsnStmt):
                try:
                    insn_lengths[index] = encoded_length(item.insn)
                except EncodingError as exc:
                    raise AsmError(f"line {item.line}: {exc}") from None
                position += insn_lengths[index]
            elif isinstance(item, DataStmt):
                position += item.size()
            elif isinstance(item, SpaceStmt):
                position += item.size
        offsets[name] = table
        sizes[name] = position

    # ---- section address assignment -------------------------------------
    addresses: dict[str, int] = {}
    cursor = program.text_base
    for name in ordered:
        pinned = program.section_addresses.get(name)
        if pinned is not None:
            addresses[name] = pinned
            continue
        addresses[name] = cursor
        cursor = (cursor + max(sizes[name], 1) + PAGE - 1) // PAGE * PAGE
    for name, addr in addresses.items():
        for other, other_addr in addresses.items():
            if name < other and sizes[name] and sizes[other]:
                if addr < other_addr + sizes[other] and \
                        other_addr < addr + sizes[name]:
                    raise LinkError(
                        f"sections {name} and {other} overlap "
                        f"({addr:#x}/{sizes[name]}B vs "
                        f"{other_addr:#x}/{sizes[other]}B)")

    symbol_addr = {
        sym: addresses[section] + offset
        for sym, (section, offset) in symbols.items()
    }

    def resolve(label: Label, line: int) -> int:
        if label.name in symbol_addr:
            return symbol_addr[label.name] + label.addend
        if label.name in program.constants:
            # .equ defined after use parses as a symbol; treat as const
            return program.constants[label.name] + label.addend
        raise LinkError(f"line {line}: undefined symbol {label.name!r}")

    # ---- pass 2: encode ----------------------------------------------------
    sections: list[Section] = []
    relocations: list[Relocation] = []
    for name in ordered:
        if sizes[name] == 0:
            continue  # nothing emitted into this section
        blob = bytearray()
        base = addresses[name]
        is_text = _SECTION_FLAGS.get(name, "rw") == "rx" or name == ".text"
        nobits_only = True
        for index, item in enumerate(program.items(name)):
            expected = offsets[name][index]
            if len(blob) < expected:
                filler = b"\x90" if is_text else b"\x00"
                blob += filler * (expected - len(blob))
            if isinstance(item, InsnStmt):
                nobits_only = False
                length = lengths[name][index]
                resolved = _resolve_insn(item.insn, base + expected + length,
                                         resolve, item.line)
                try:
                    code = encode(resolved)
                except EncodingError as exc:
                    raise AsmError(f"line {item.line}: {exc}") from None
                if len(code) != length:
                    raise LinkError(
                        f"line {item.line}: unstable encoding for "
                        f"'{item.insn}'")
                blob += code
            elif isinstance(item, DataStmt):
                nobits_only = False
                for part in item.parts:
                    if isinstance(part, bytes):
                        blob += part
                    else:
                        sym, addend, size = part
                        value = resolve(Label(sym, addend), item.line)
                        if pie and size == 8 and sym in symbols:
                            target_section, target_off = symbols[sym]
                            relocations.append(Relocation(
                                section=name,
                                offset=len(blob),
                                rtype=elfdefs.R_X86_64_RELATIVE,
                                addend=value,
                                target_section=target_section,
                                target_offset=target_off + addend,
                            ))
                        blob += (value % (1 << (size * 8))).to_bytes(
                            size, "little")
            elif isinstance(item, SpaceStmt):
                blob += bytes(item.size)
        mem_size = max(sizes[name], len(blob))
        nobits = name == ".bss" and nobits_only
        sections.append(Section(
            name=name,
            addr=base,
            data=b"" if nobits else bytes(blob),
            mem_size=mem_size,
            flags=_SECTION_FLAGS.get(name, "rw"),
            nobits=nobits,
        ))

    # ---- symbols and entry -------------------------------------------------
    symdefs = []
    for sym, (section, offset) in symbols.items():
        if sym.startswith("."):
            continue  # local labels stay out of the symbol table
        symdefs.append(SymbolDef(
            name=sym,
            value=symbol_addr[sym],
            section=section,
            is_global=sym in program.globals,
            is_func=section == ".text" and sym in program.globals,
        ))
    if program.entry not in symbol_addr:
        raise LinkError(f"undefined entry point {program.entry!r}")
    exe = Executable(
        entry=symbol_addr[program.entry],
        sections=sections,
        symbols=symdefs,
        pie=pie,
        relocations=relocations,
        dynamic_symbols=[s for s in symdefs if s.is_global] if pie else [],
    )
    tag_map = {}
    for name in ordered:
        base = addresses[name]
        for index, item in enumerate(program.items(name)):
            if isinstance(item, InsnStmt) and item.tag is not None:
                tag_map[item.tag] = base + offsets[name][index]
    return exe, tag_map


def _resolve_insn(instruction: Instruction, end: int, resolve,
                  line: int) -> Instruction:
    """Replace Label operands with concrete displacements/addresses.

    ``end`` is the address just past the instruction (rip-relative
    operands count from it); an instruction without symbolic operands
    comes back as it is.
    """
    if not any(map(is_symbolic, instruction.operands)):
        return instruction
    new_ops = []
    for op in instruction.operands:
        if isinstance(op, Label):
            target = resolve(op, line)
            if instruction.mnemonic in (Mnemonic.JMP, Mnemonic.JCC,
                                        Mnemonic.CALL):
                new_ops.append(Imm(target - end, 4))
            elif instruction.mnemonic is Mnemonic.MOV:
                new_ops.append(Imm(target, 8))  # movabs materialization
            else:
                new_ops.append(Imm(target, 4))  # imm32 address reference
        elif isinstance(op, Mem) and isinstance(op.disp, Label):
            target = resolve(op.disp, line)
            if op.is_rip_relative:
                new_ops.append(Mem(RIP, None, 1, target - end, op.size))
            else:
                new_ops.append(Mem(None, op.index, op.scale, target,
                                   op.size))
        else:
            new_ops.append(op)
    return instruction.with_operands(*new_ops)


def assemble_to_elf(source: str | Program, pie: bool = False) -> bytes:
    """Assemble ``source`` and serialize the result to ELF bytes."""
    return write_elf(assemble(source, pie=pie))
