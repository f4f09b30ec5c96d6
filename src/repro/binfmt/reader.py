"""Parse ELF64 bytes back into an :class:`~repro.binfmt.image.Executable`."""

from __future__ import annotations

import struct

from repro.binfmt import elfdefs as d
from repro.binfmt.image import Executable, Relocation, Section, SymbolDef
from repro.errors import ElfError, UnsupportedBinaryError


def _cstr(blob: bytes, offset: int) -> str:
    try:
        end = blob.index(b"\x00", offset)
        return blob[offset:end].decode()
    except ValueError as exc:  # no terminator, or not UTF-8
        raise ElfError(f"bad string at offset {offset:#x}") from exc


def _unpack(
    layout: struct.Struct, blob: bytes, offset: int, what: str
) -> tuple:
    try:
        return layout.unpack_from(blob, offset)
    except (struct.error, OverflowError) as exc:
        raise ElfError(f"{what} at {offset:#x} lies past the end") from exc


def _header(shdrs: list, index: int, what: str) -> tuple:
    try:
        return shdrs[index]
    except IndexError as exc:
        raise ElfError(f"{what}: no section header {index}") from exc


def read_elf(blob: bytes) -> Executable:
    """Parse an ELF64 executable produced by :func:`write_elf` (or
    compatible enough: little-endian EXEC or DYN for x86-64 with
    section headers)."""
    if blob[:4] != d.ELF_MAGIC:
        raise ElfError("bad ELF magic")
    fields = _unpack(d.EHDR, blob, 0, "ELF header")
    if blob[4] != d.ELFCLASS64 or blob[5] != d.ELFDATA2LSB:
        raise ElfError("only little-endian ELF64 is supported")
    (_, e_type, e_machine, _, e_entry, _, e_shoff, _, _, _, _,
     e_shentsize, e_shnum, e_shstrndx) = fields
    if e_machine != d.EM_X86_64:
        raise UnsupportedBinaryError(
            f"unsupported machine {e_machine} (only x86-64)",
            e_machine=e_machine)
    if e_type not in (d.ET_EXEC, d.ET_DYN):
        raise UnsupportedBinaryError(
            f"unsupported ELF type {e_type} "
            "(only ET_EXEC and ET_DYN executables)",
            e_type=e_type)
    if e_shnum == 0:
        raise ElfError("missing section headers")

    shdrs = [
        _unpack(d.SHDR, blob, e_shoff + i * e_shentsize, "section header")
        for i in range(e_shnum)
    ]
    shstr_off = _header(shdrs, e_shstrndx, "e_shstrndx")[4]

    sections: list[Section] = []
    index_to_name: dict[int, str] = {}
    symtab = None
    strtab_off = None
    dynsym = None
    dynstr_off = None
    rela_tables: list[tuple[int, int, int]] = []
    for index, sh in enumerate(shdrs):
        (sh_name, sh_type, sh_flags, sh_addr, sh_offset, sh_size,
         sh_link, _, _, sh_entsize) = sh
        name = _cstr(blob, shstr_off + sh_name)
        index_to_name[index] = name
        if sh_type == d.SHT_SYMTAB:
            symtab = (sh_offset, sh_size, sh_entsize or d.SYM.size)
            strtab_off = _header(shdrs, sh_link, name)[4]
        elif sh_type == d.SHT_DYNSYM:
            dynsym = (sh_offset, sh_size, sh_entsize or d.SYM.size)
            dynstr_off = _header(shdrs, sh_link, name)[4]
        elif sh_type == d.SHT_RELA:
            rela_tables.append((sh_offset, sh_size,
                                sh_entsize or d.RELA.size))
        if not sh_flags & d.SHF_ALLOC:
            continue
        nobits = sh_type == d.SHT_NOBITS
        data = b"" if nobits else blob[sh_offset:sh_offset + sh_size]
        sections.append(Section(
            name=name,
            addr=sh_addr,
            data=data,
            mem_size=sh_size,
            flags=d.shf_to_section_flags(sh_flags),
            nobits=nobits,
        ))

    def parse_symbols(table, str_off):
        offset, size, entsize = table
        result: list[SymbolDef] = []
        count = size // entsize
        for i in range(1, count):
            st_name, st_info, _, st_shndx, st_value, _ = _unpack(
                d.SYM, blob, offset + i * entsize, "symbol"
            )
            name = _cstr(blob, str_off + st_name)
            if not name:
                continue
            result.append(SymbolDef(
                name=name,
                value=st_value,
                section=index_to_name.get(st_shndx, ""),
                is_global=(st_info >> 4) == d.STB_GLOBAL,
                is_func=(st_info & 0xF) == d.STT_FUNC,
            ))
        return result

    symbols = parse_symbols(symtab, strtab_off) if symtab else []
    dynamic_symbols = parse_symbols(dynsym, dynstr_off) if dynsym else []

    def section_anchor(address: int) -> tuple[str, int]:
        for section in sections:
            if section.contains(address):
                return section.name, address - section.addr
        return "", address

    # Positional name list (keeps empty entries) for r_info sym indices.
    dynsym_names = [""]
    if dynsym:
        offset, size, entsize = dynsym
        for i in range(1, size // entsize):
            st_name = _unpack(d.SYM, blob, offset + i * entsize, "symbol")[0]
            dynsym_names.append(_cstr(blob, dynstr_off + st_name))

    relocations: list[Relocation] = []
    for offset, size, entsize in rela_tables:
        for i in range(size // entsize):
            r_offset, r_info, r_addend = _unpack(
                d.RELA, blob, offset + i * entsize, "relocation"
            )
            rtype = d.rela_type(r_info)
            symindex = d.rela_sym(r_info)
            symbol = ""
            if 0 < symindex < len(dynsym_names):
                symbol = dynsym_names[symindex]
            site_section, site_offset = section_anchor(r_offset)
            target_section, target_offset = "", 0
            if rtype == d.R_X86_64_RELATIVE:
                target_section, target_offset = section_anchor(r_addend)
            relocations.append(Relocation(
                section=site_section,
                offset=site_offset if site_section else r_offset,
                rtype=rtype,
                symbol=symbol,
                addend=r_addend,
                target_section=target_section,
                target_offset=target_offset,
            ))

    return Executable(
        entry=e_entry,
        sections=sections,
        symbols=symbols,
        pie=e_type == d.ET_DYN,
        relocations=relocations,
        dynamic_symbols=dynamic_symbols,
    )
