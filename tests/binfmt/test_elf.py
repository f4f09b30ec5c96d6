"""ELF64 writer/reader unit and property tests."""

import random
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.binfmt import Executable, Section, SymbolDef, read_elf, write_elf
from repro.binfmt import elfdefs as d
from repro.errors import ElfError, ReproError

PIE = Path(__file__).resolve().parents[1] / "fixtures" / "bootloader_pie.elf"


def simple_exe(text=b"\x90\xC3", data=b"hello"):
    return Executable(
        entry=0x401000,
        sections=[
            Section(".text", 0x401000, text, flags="rx"),
            Section(".data", 0x402000, data, flags="rw"),
            Section(".bss", 0x403000, b"", mem_size=64, flags="rw",
                    nobits=True),
        ],
        symbols=[
            SymbolDef("_start", 0x401000, ".text", is_global=True,
                      is_func=True),
            SymbolDef("local_thing", 0x402001, ".data"),
        ],
    )


class TestWellFormedness:
    def test_header_fields(self):
        blob = write_elf(simple_exe())
        assert blob[:4] == b"\x7fELF"
        assert blob[4] == d.ELFCLASS64
        assert blob[5] == d.ELFDATA2LSB
        (e_type,) = __import__("struct").unpack_from("<H", blob, 16)
        assert e_type == d.ET_EXEC

    def test_segment_alignment_congruence(self):
        blob = write_elf(simple_exe())
        import struct
        e_phoff, = struct.unpack_from("<Q", blob, 32)
        e_phnum, = struct.unpack_from("<H", blob, 56)
        for index in range(e_phnum):
            (p_type, _, p_offset, p_vaddr, _, _, _, p_align) = \
                struct.unpack_from("<IIQQQQQQ", blob,
                                   e_phoff + index * 56)
            if p_type == d.PT_LOAD:
                assert p_offset % p_align == p_vaddr % p_align

    def test_roundtrip(self):
        exe = simple_exe()
        parsed = read_elf(write_elf(exe))
        assert parsed.entry == exe.entry
        assert parsed.section(".text").data == b"\x90\xC3"
        assert parsed.section(".data").data == b"hello"
        bss = parsed.section(".bss")
        assert bss.nobits and bss.mem_size == 64
        start = parsed.symbol("_start")
        assert start.is_global and start.is_func
        local = parsed.symbol("local_thing")
        assert not local.is_global

    def test_bad_magic_rejected(self):
        with pytest.raises(ElfError):
            read_elf(b"NOPE" + bytes(60))

    def test_wrong_machine_rejected(self):
        blob = bytearray(write_elf(simple_exe()))
        blob[18] = 0x03  # EM_386
        with pytest.raises(ElfError):
            read_elf(bytes(blob))

    def test_truncated_header_rejected(self):
        with pytest.raises(ElfError):
            read_elf(d.ELF_MAGIC)

    def test_zero_symbol_entsize_reads_as_standard(self):
        """A symbol table with ``sh_entsize`` 0 used to divide by
        zero; it reads with the standard entry size instead."""
        blob = bytearray(write_elf(simple_exe()))
        fields = d.EHDR.unpack_from(blob, 0)
        e_shoff, e_shentsize, e_shnum = fields[6], fields[11], fields[12]
        for index in range(e_shnum):
            offset = e_shoff + index * e_shentsize
            header = list(d.SHDR.unpack_from(blob, offset))
            if header[1] == d.SHT_SYMTAB:
                header[9] = 0
                d.SHDR.pack_into(blob, offset, *header)
                break
        else:
            pytest.fail("no symbol table written")
        assert read_elf(bytes(blob)).symbol("_start").is_func

    def test_mutants_fail_typed(self):
        """Seeded 1-8 byte mutants of a real PIE either parse or raise
        a ReproError; nothing untyped escapes the parser."""
        blob = PIE.read_bytes()
        rng = random.Random(0)
        for _ in range(200):
            mutant = bytearray(blob)
            for _ in range(rng.randint(1, 8)):
                mutant[rng.randrange(len(mutant))] = rng.randrange(256)
            try:
                read_elf(bytes(mutant))
            except ReproError:
                pass

    @given(st.binary(min_size=1, max_size=512),
           st.binary(min_size=0, max_size=512))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, text, data):
        exe = simple_exe(text=text, data=data)
        parsed = read_elf(write_elf(exe))
        assert parsed.section(".text").data == text
        assert parsed.section(".data").data == data


class TestExecutableModel:
    def test_section_at(self):
        exe = simple_exe()
        assert exe.section_at(0x401001).name == ".text"
        assert exe.section_at(0x403010).name == ".bss"
        assert exe.section_at(0x500000) is None

    def test_read_across_padding(self):
        exe = simple_exe()
        assert exe.read(0x402000, 5) == b"hello"
        assert exe.read(0x403000, 8) == bytes(8)  # NOBITS reads zero

    def test_stripped_loses_symbols(self):
        exe = simple_exe().stripped()
        assert exe.symbols == []
        assert exe.entry == 0x401000

    def test_code_size_counts_executable_only(self):
        exe = simple_exe()
        assert exe.code_size() == 2
