"""Symbolization: turn concrete addresses back into symbolic references.

This is the heart of reassembleable disassembly (Section III-C of the
paper): after linking, every reference is a bare integer, and the
rewriter must decide which integers are *addresses* (to be re-expressed
as symbols that survive layout shifts) and which are plain constants.

Two heuristic sets are implemented:

* ``naive``   — UROBOROS-style: any aligned data word or in-range
  immediate whose integer value falls inside a mapped section becomes
  ``anchor+addend``.  Demonstrably wrong on address-looking constants
  (see the planted ``decoy_value`` in the bootloader workload).
* ``refined`` — Ddisasm-style: a code reference must land on a
  recovered block leader; a data reference must land on a recognized
  item start (an address referenced by code, a symbol, or another
  accepted pointer).  In-range ALU immediates stay constants.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.binfmt import elfdefs
from repro.binfmt.image import Executable
from repro.errors import RewriteError
from repro.gtirb.ir import (
    DataBlock, InsnEntry, Module, SymExpr, Symbol)
from repro.isa.insn import Mnemonic
from repro.isa.operands import Imm, Mem


@dataclass
class _Ref:
    kind: str          # branch | mem | imm
    entry: InsnEntry
    op_index: int
    target: int


def symbolize(module: Module, exe: Executable, mode: str = "refined"):
    """Attach symbolic expressions to ``module`` (mutates it)."""
    if mode not in ("refined", "naive"):
        raise ValueError(f"unknown symbolization mode {mode!r}")

    text_section = module.text()
    code_by_addr = {b.address: b for b in text_section.blocks if b.is_code}
    ranges = exe.address_ranges()

    def in_ranges(value: int) -> bool:
        return any(start <= value < end for start, end in ranges)

    # ---- collect code-side references ---------------------------------
    refs: list[_Ref] = []
    for block in text_section.blocks:
        if not block.is_code:
            continue
        for entry in block.entries:
            refs.extend(_entry_refs(entry, in_ranges, mode))

    # ---- data sections: split points and pointer scan ---------------------
    known_symbols = exe.recovery_symbols()
    anchors: set[int] = set(code_by_addr)
    anchors.update(s.value for s in known_symbols)
    data_sections = [s for s in module.sections if s.name != ".text"]
    raw = {}
    for section in data_sections:
        block = section.blocks[0]
        raw[section.name] = (block.address, None if block.zero_fill
                             else b"".join(block.items),
                             block.byte_size())

    split_points: dict[str, set[int]] = {
        s.name: {raw[s.name][0]} for s in data_sections}
    sym_words: dict[str, dict[int, int]] = {
        s.name: {} for s in data_sections}

    def note_target(value: int):
        for section in data_sections:
            base, _, size = raw[section.name]
            if base <= value < base + size:
                split_points[section.name].add(value)
                return
        # targets in .text are anchored to code blocks, no split needed

    for sym in known_symbols:
        note_target(sym.value)
    for ref in refs:
        note_target(ref.target)
        anchors.add(ref.target)

    # Dynamic relocations are symbolization ground truth: each RELATIVE
    # entry marks a pointer-sized word whose value is an address, even
    # when no heuristic would accept it (stripped PIEs).
    for reloc in exe.relocations:
        if reloc.rtype != elfdefs.R_X86_64_RELATIVE:
            continue
        if reloc.section not in sym_words:
            continue
        base, data, _ = raw[reloc.section]
        if data is None or reloc.offset + 8 > len(data):
            continue
        value = int.from_bytes(
            data[reloc.offset:reloc.offset + 8], "little")
        sym_words[reloc.section][reloc.offset] = value
        anchors.add(value)
        note_target(value)

    # pointer scan to fixpoint: accepted pointers create new anchors
    changed = True
    while changed:
        changed = False
        for section in data_sections:
            base, data, _ = raw[section.name]
            if data is None:
                continue  # NOBITS: nothing to scan
            words = sym_words[section.name]
            for offset in range(0, len(data) - 7, 8):
                if offset in words:
                    continue
                value = int.from_bytes(data[offset:offset + 8], "little")
                if not in_ranges(value):
                    continue
                if mode == "refined" and value not in anchors:
                    continue
                words[offset] = value
                anchors.add(value)
                note_target(value)
                changed = True

    # drop scanned words that a split point would tear apart
    for section in data_sections:
        base, _, _ = raw[section.name]
        words = sym_words[section.name]
        for offset in list(words):
            word_start = base + offset
            if any(word_start < point < word_start + 8
                   for point in split_points[section.name]):
                del words[offset]

    # ---- rebuild data blocks between split points -------------------------
    data_by_addr: dict[int, DataBlock] = {}
    for section in data_sections:
        base, data, size = raw[section.name]
        points = sorted(split_points[section.name] | {base + size})
        blocks = []
        for start, end in zip(points, points[1:]):
            if end <= start:
                continue
            if data is None:
                block = DataBlock(address=start, zero_fill=True,
                                  zero_size=end - start)
            else:
                block = DataBlock(address=start, items=_slice_items(
                    data, base, start, end, sym_words[section.name]))
            blocks.append(block)
            data_by_addr[start] = block
        section.blocks = blocks

    # ---- create symbols and attach expressions ------------------------------
    name_by_addr = {}
    for sym in known_symbols:
        name_by_addr.setdefault(sym.value, sym.name)
    global_names = {s.name for s in known_symbols if s.is_global}
    made: dict[int, Symbol] = {}

    def symbol_for(target: int) -> Symbol | None:
        if target in made:
            return made[target]
        referent = code_by_addr.get(target) or data_by_addr.get(target)
        addend_base = None
        if referent is None:
            if mode == "naive":
                addend_base = _containing(
                    target, code_by_addr, data_by_addr)
                if addend_base is None:
                    return None
                referent_addr, referent = addend_base
            else:
                return None
        name = name_by_addr.get(
            getattr(referent, "address", None) or target,
            f".L_{getattr(referent, 'address', target):x}")
        base_addr = referent.address
        if base_addr in made:
            return made[base_addr]
        symbol = Symbol(name, referent, is_global=name in global_names)
        module.symbols.append(symbol)
        made[base_addr] = symbol
        return symbol

    unresolved = []
    for ref in refs:
        symbol = symbol_for(ref.target)
        if symbol is None:
            unresolved.append(ref)
            continue
        addend = ref.target - symbol.referent.address
        if ref.kind == "branch" and addend != 0:
            unresolved.append(ref)
            continue
        ref.entry.sym_operands[ref.op_index] = SymExpr(
            ref.kind, symbol, addend)

    for section in data_sections:
        _, data, _ = raw[section.name]
        if data is None:
            continue
        for block in section.blocks:
            block.items = [
                _to_symexpr(item, symbol_for) for item in block.items]

    # ---- entry symbol ---------------------------------------------------
    entry_block = code_by_addr.get(exe.entry)
    entry_name = name_by_addr.get(exe.entry)
    if exe.entry in made:
        module.entry = made[exe.entry]
    elif entry_block is not None:
        module.entry = module.add_symbol(entry_name or "_start",
                                         entry_block, is_global=True)
        made[exe.entry] = module.entry
    else:
        raise RewriteError(
            f"entry point {exe.entry:#x} lies in no recovered code block")
    module.entry.is_global = True

    # name remaining symbol-bearing exe symbols for readability
    for sym in known_symbols:
        if sym.value in made or sym.value not in code_by_addr and \
                sym.value not in data_by_addr:
            continue
        symbol_for(sym.value)

    module.aux["symbolization_mode"] = mode
    module.aux["unresolved_refs"] = [
        (r.kind, r.target) for r in unresolved]
    module.aux["symbolized_words"] = sum(
        len(words) for words in sym_words.values())


def _entry_refs(entry: InsnEntry, in_ranges, mode: str) -> list[_Ref]:
    insn = entry.insn
    refs = []
    if insn.mnemonic in (Mnemonic.JMP, Mnemonic.JCC, Mnemonic.CALL):
        target = insn.branch_target()
        if target is not None:
            refs.append(_Ref("branch", entry, 0, target))
            return refs
    for index, operand in enumerate(insn.operands):
        if isinstance(operand, Mem):
            if operand.is_rip_relative:
                target = insn.end_address + operand.disp
                refs.append(_Ref("mem", entry, index, target))
            elif operand.base is None and operand.index is None and \
                    in_ranges(operand.disp):
                refs.append(_Ref("mem", entry, index, operand.disp))
        elif isinstance(operand, Imm):
            is_movabs = (insn.mnemonic is Mnemonic.MOV and
                         operand.size == 8)
            if is_movabs and in_ranges(operand.value):
                refs.append(_Ref("imm", entry, index, operand.value))
            elif mode == "naive" and operand.size >= 4 and \
                    in_ranges(operand.value):
                # UROBOROS-style: any in-range immediate is a pointer
                refs.append(_Ref("imm", entry, index, operand.value))
    return refs


def _slice_items(data: bytes, base: int, start: int, end: int,
                 words: dict[int, int]) -> list:
    """Cut [start, end) out of a section blob, marking pointer words."""
    items = []
    offset = start - base
    stop = end - base
    while offset < stop:
        if offset in words and offset + 8 <= stop:
            items.append(("symword", words[offset]))
            offset += 8
            continue
        next_word = min(
            (w for w in words if offset < w < stop and w + 8 <= stop),
            default=stop)
        items.append(data[offset:next_word])
        offset = next_word
    return items


def _to_symexpr(item, symbol_for):
    if isinstance(item, tuple) and item[0] == "symword":
        value = item[1]
        symbol = symbol_for(value)
        if symbol is None:
            return value.to_bytes(8, "little")
        addend = value - symbol.referent.address
        return (SymExpr("mem", symbol, addend), 8)
    return item


def _containing(target: int, code_by_addr, data_by_addr):
    """Naive-mode anchor: the block whose range contains ``target``."""
    best = None
    for addr, block in list(code_by_addr.items()) + \
            list(data_by_addr.items()):
        if addr <= target < addr + block.byte_size():
            if best is None or addr > best[0]:
                best = (addr, block)
    return best
