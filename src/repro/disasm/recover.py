"""Code discovery and block construction (stage 1-2 of Fig. 1)."""

from __future__ import annotations

from repro.binfmt.image import Executable
from repro.disasm.symbolize import symbolize
from repro.errors import DecodingError, RewriteError
from repro.gtirb.ir import CodeBlock, DataBlock, GSection, InsnEntry, Module
from repro.isa.decoder import decode
from repro.isa.insn import Instruction, Mnemonic

_BLOCK_ENDERS = (Mnemonic.JMP, Mnemonic.JCC, Mnemonic.CALL, Mnemonic.RET,
                 Mnemonic.HLT, Mnemonic.UD2, Mnemonic.INT3)


def disassemble(exe: Executable, mode: str = "refined") -> Module:
    """Recover a rewritable :class:`Module` from a linked executable.

    ``mode`` selects the symbolization heuristics (``"refined"`` or
    ``"naive"``, see package docstring).
    """
    text = exe.section(".text")
    instructions = _discover(exe, text)
    leaders = _find_leaders(exe, instructions, text)
    module = Module(name="recovered", pie=exe.pie)

    text_blocks = _build_blocks(exe, text, instructions, leaders)
    module.sections.append(GSection(".text", text_blocks, "rx"))
    for section in exe.sections:
        if section.name == ".text" or "x" in section.flags:
            continue
        if section.nobits:
            block = DataBlock(address=section.addr, zero_fill=True,
                              zero_size=section.mem_size)
        else:
            data = section.data
            if section.mem_size > len(data):
                data = data + bytes(section.mem_size - len(data))
            block = DataBlock(address=section.addr, items=[data])
        module.sections.append(GSection(section.name, [block],
                                        section.flags))

    symbolize(module, exe, mode=mode)
    return module


# ---------------------------------------------------------------------------


def _text_symbols(exe: Executable):
    """Static and dynamic symbols anchored in ``.text``."""
    return [s for s in exe.recovery_symbols() if s.section == ".text"]


def _discover(exe: Executable, text) -> dict[int, Instruction]:
    """Recursive-descent discovery of instructions in ``.text``."""
    roots = [exe.entry]
    roots += [s.value for s in _text_symbols(exe)]
    instructions: dict[int, Instruction] = {}
    worklist = [a for a in roots if text.contains(a)]
    while worklist:
        address = worklist.pop()
        while text.contains(address) and address not in instructions:
            offset = address - text.addr
            try:
                insn = decode(text.data, offset, address)
            except DecodingError:
                break  # leave the rest of this path to the sweep stage
            instructions[address] = insn
            target = insn.branch_target()
            if target is not None and text.contains(target):
                worklist.append(target)
            if insn.mnemonic in (Mnemonic.JMP, Mnemonic.RET, Mnemonic.HLT,
                                 Mnemonic.UD2, Mnemonic.INT3):
                break
            address += insn.length
    return instructions


def _find_leaders(exe: Executable, instructions, text) -> set[int]:
    """Block leader addresses: entry, targets, post-terminator, symbols."""
    leaders = {exe.entry}
    leaders.update(s.value for s in _text_symbols(exe))
    for address, insn in instructions.items():
        target = insn.branch_target()
        if target is not None and text.contains(target):
            leaders.add(target)
        if insn.mnemonic in _BLOCK_ENDERS:
            leaders.add(address + insn.length)
    return {a for a in leaders if a in instructions or a == exe.entry}


def _build_blocks(exe: Executable, text, instructions, leaders):
    """Partition discovered instructions into address-ordered blocks.

    Gaps between discovered runs are linearly swept; bytes that do not
    decode become data-in-text blocks (e.g. alignment padding).
    """
    placed: list[tuple[int, object]] = []
    addresses = sorted(instructions)
    current: list[InsnEntry] = []
    current_start = None
    previous_end = None

    def flush():
        nonlocal current, current_start
        if current:
            placed.append((current_start, CodeBlock(current_start, current)))
        current = []
        current_start = None

    for address in addresses:
        insn = instructions[address]
        if address in leaders or previous_end != address:
            flush()
        if current_start is None:
            current_start = address
        if previous_end is not None and address < previous_end:
            raise RewriteError(
                f"overlapping instructions at {address:#x}")
        current.append(InsnEntry(insn))
        previous_end = address + insn.length
        if insn.mnemonic in _BLOCK_ENDERS:
            flush()
            previous_end_after = previous_end
            previous_end = previous_end_after
    flush()

    # sweep uncovered byte ranges
    covered = sorted(
        (i, i + instructions[i].length) for i in addresses)
    gaps = []
    cursor = text.addr
    for start, end in covered:
        if start > cursor:
            gaps.append((cursor, start))
        cursor = max(cursor, end)
    if cursor < text.addr + len(text.data):
        gaps.append((cursor, text.addr + len(text.data)))
    for start, end in gaps:
        blob = text.data[start - text.addr:end - text.addr]
        swept = _sweep(blob, start)
        placed.extend(swept)

    placed.sort(key=lambda pair: pair[0])
    return [block for _, block in placed]


def _sweep(blob: bytes, address: int):
    """Linear sweep over a gap; undecodable tails become data blocks."""
    placed = []
    entries: list[InsnEntry] = []
    start = address
    offset = 0
    while offset < len(blob):
        try:
            insn = decode(blob, offset, address + offset)
        except DecodingError:
            break
        entries.append(InsnEntry(insn))
        offset += insn.length
        if insn.mnemonic in _BLOCK_ENDERS:
            placed.append((start, CodeBlock(start, entries)))
            entries = []
            start = address + offset
    if entries:
        placed.append((start, CodeBlock(start, entries)))
        start = address + offset
    if offset < len(blob):
        placed.append((address + offset,
                       DataBlock(address + offset, [blob[offset:]])))
    return placed
