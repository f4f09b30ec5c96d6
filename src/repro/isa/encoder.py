"""Instruction encoder: :class:`~repro.isa.insn.Instruction` -> bytes.

Implements genuine x86-64 machine encodings (REX prefixes, ModRM, SIB,
displacements, immediates) for the supported subset.  Symbolic operands
(:class:`~repro.isa.operands.Label`) must be resolved before encoding;
the assembler guarantees this.

Encoding-form selection is deterministic so that instruction lengths can
be computed in the assembler's first pass:

* relative branches always use the rel32 forms,
* ALU immediates use the imm8 form only when ``Imm.size == 1`` or the
  value was literal and fits a signed byte (the assembler canonicalizes
  this into ``Imm.size``),
* ``mov r64, imm`` uses ``C7 /0 id`` for values fitting a signed 32-bit
  immediate and the ``B8+rd io`` (movabs) form otherwise or when
  ``Imm.size == 8`` is forced (used for address materialization, which
  gives the symbolizer real work to do).
"""

from __future__ import annotations

import struct

from repro.errors import EncodingError
from repro.isa.insn import Instruction, Mnemonic
from repro.isa.operands import Imm, Label, Mem, Reg

REX_W = 0x8
REX_R = 0x4
REX_X = 0x2
REX_B = 0x1

_ALU_BASE = {
    Mnemonic.ADD: 0x00,
    Mnemonic.OR: 0x08,
    Mnemonic.AND: 0x20,
    Mnemonic.SUB: 0x28,
    Mnemonic.XOR: 0x30,
    Mnemonic.CMP: 0x38,
}
_ALU_EXT = {
    Mnemonic.ADD: 0,
    Mnemonic.OR: 1,
    Mnemonic.AND: 4,
    Mnemonic.SUB: 5,
    Mnemonic.XOR: 6,
    Mnemonic.CMP: 7,
}
_SHIFT_EXT = {Mnemonic.SHL: 4, Mnemonic.SHR: 5, Mnemonic.SAR: 7}


def _check_resolved(operand):
    if isinstance(operand, Label):
        raise EncodingError(f"unresolved symbolic operand {operand}")
    if isinstance(operand, Mem) and isinstance(operand.disp, Label):
        raise EncodingError(f"unresolved displacement in {operand}")


def _pack_imm(value: int, size: int) -> bytes:
    """Pack a signed/unsigned immediate of ``size`` bytes."""
    limit = 1 << (size * 8)
    if not (-(limit // 2) <= value < limit):
        raise EncodingError(f"immediate {value:#x} does not fit {size} bytes")
    return (value % limit).to_bytes(size, "little")


def _disp_mode(disp: int, base_code: int) -> tuple[int, bytes]:
    """Choose ModRM ``mod`` bits and displacement bytes for a base reg."""
    if disp == 0 and (base_code & 7) != 5:
        return 0, b""
    if -128 <= disp <= 127:
        return 1, struct.pack("<b", disp)
    return 2, struct.pack("<i", disp)


def _mem_modrm(reg_field: int, mem: Mem) -> tuple[int, bytes]:
    """Encode ModRM(+SIB+disp) for a memory operand.

    Returns ``(rex_bits, encoded_bytes)`` where ``rex_bits`` carries the
    R/X/B extension flags required by the operand.
    """
    rex = REX_R if reg_field >= 8 else 0
    disp = mem.disp
    if mem.is_rip_relative:
        modrm = ((reg_field & 7) << 3) | 0b101
        return rex, bytes([modrm]) + struct.pack("<i", disp)
    base, index = mem.base, mem.index
    needs_sib = (
        index is not None or base is None or (base.code & 7) == 4)
    if not needs_sib:
        if base.code >= 8:
            rex |= REX_B
        mod, disp_bytes = _disp_mode(disp, base.code)
        modrm = (mod << 6) | ((reg_field & 7) << 3) | (base.code & 7)
        return rex, bytes([modrm]) + disp_bytes
    scale_bits = {1: 0, 2: 1, 4: 2, 8: 3}[mem.scale]
    if index is not None:
        if index.code >= 8:
            rex |= REX_X
        index_bits = index.code & 7
    else:
        index_bits = 0b100
    if base is None:
        sib = (scale_bits << 6) | (index_bits << 3) | 0b101
        modrm = ((reg_field & 7) << 3) | 0b100
        return rex, bytes([modrm, sib]) + struct.pack("<i", disp)
    if base.code >= 8:
        rex |= REX_B
    mod, disp_bytes = _disp_mode(disp, base.code)
    sib = (scale_bits << 6) | (index_bits << 3) | (base.code & 7)
    modrm = (mod << 6) | ((reg_field & 7) << 3) | 0b100
    return rex, bytes([modrm, sib]) + disp_bytes


def _rm_modrm(reg_field: int, rm) -> tuple[int, bytes]:
    """ModRM for a register-or-memory operand."""
    if isinstance(rm, Reg):
        rex = REX_R if reg_field >= 8 else 0
        if rm.register.code >= 8:
            rex |= REX_B
        modrm = (0b11 << 6) | ((reg_field & 7) << 3) | (rm.register.code & 7)
        return rex, bytes([modrm])
    if not isinstance(rm, Mem):
        raise EncodingError("a register or memory operand is required, "
                            "not an immediate or symbol")
    return _mem_modrm(reg_field, rm)


def _needs_rex_presence(*operands) -> bool:
    for op in operands:
        if isinstance(op, Reg) and op.register.needs_rex_presence:
            return True
    return False


def _assemble(opcode: bytes, rex: int, tail: bytes,
              force_rex: bool = False) -> bytes:
    if rex or force_rex:
        return bytes([0x40 | rex]) + opcode + tail
    return opcode + tail


def _op_width(insn: Instruction) -> int:
    """Common operand width in bytes (1, 4 or 8) for sized operands."""
    sizes = {
        op.size for op in insn.operands
        if isinstance(op, (Reg, Mem))
    }
    if not sizes:
        return 8
    if len(sizes) > 1 and insn.mnemonic not in (Mnemonic.MOVZX,):
        raise EncodingError(f"operand size mismatch in '{insn}'")
    return max(sizes)


def _imm_fits8(imm: Imm) -> bool:
    if imm.size == 1:
        return True
    if imm.size == 0:
        return -128 <= imm.value <= 127
    return False


def encode(insn: Instruction) -> bytes:
    """Encode ``insn`` to machine code bytes.

    Raises :class:`~repro.errors.EncodingError` for unsupported forms or
    unresolved symbolic operands.
    """
    for operand in insn.operands:
        _check_resolved(operand)
    handler = _HANDLERS.get(insn.mnemonic)
    if handler is None:
        raise EncodingError(f"unsupported mnemonic {insn.mnemonic}")
    count = _OPERAND_COUNTS.get(insn.mnemonic)
    if count is not None and len(insn.operands) != count:
        raise EncodingError(f"'{insn.name}' takes {count} operand(s), "
                            f"got {len(insn.operands)}")
    return handler(insn)


# --------------------------------------------------------------------------
# per-mnemonic handlers
# --------------------------------------------------------------------------

def _enc_alu(insn: Instruction) -> bytes:
    base = _ALU_BASE[insn.mnemonic]
    ext = _ALU_EXT[insn.mnemonic]
    dst, src = insn.operands
    width = _op_width(insn)
    wbit = REX_W if width == 8 else 0
    force_rex = _needs_rex_presence(dst, src)
    if isinstance(src, Reg):
        # rm, reg form
        opcode = base + (1 if width != 1 else 0)
        rex, modrm = _rm_modrm(src.register.code, dst)
        return _assemble(bytes([opcode]), rex | wbit, modrm, force_rex)
    if isinstance(src, Mem) and isinstance(dst, Reg):
        opcode = base + (3 if width != 1 else 2)
        rex, modrm = _rm_modrm(dst.register.code, src)
        return _assemble(bytes([opcode]), rex | wbit, modrm, force_rex)
    if isinstance(src, Imm):
        rex, modrm = _rm_modrm(ext, dst)
        if width == 1:
            return _assemble(bytes([0x80]), rex, modrm
                             + _pack_imm(src.value, 1), force_rex)
        if _imm_fits8(src):
            return _assemble(bytes([0x83]), rex | wbit,
                             modrm + _pack_imm(src.value, 1), force_rex)
        return _assemble(bytes([0x81]), rex | wbit,
                         modrm + _pack_imm(src.value, 4), force_rex)
    raise EncodingError(f"unsupported operand combination in '{insn}'")


def _enc_test(insn: Instruction) -> bytes:
    dst, src = insn.operands
    width = _op_width(insn)
    wbit = REX_W if width == 8 else 0
    force_rex = _needs_rex_presence(dst, src)
    if isinstance(src, Reg):
        opcode = 0x85 if width != 1 else 0x84
        rex, modrm = _rm_modrm(src.register.code, dst)
        return _assemble(bytes([opcode]), rex | wbit, modrm, force_rex)
    if isinstance(src, Imm):
        rex, modrm = _rm_modrm(0, dst)
        if width == 1:
            return _assemble(bytes([0xF6]), rex,
                             modrm + _pack_imm(src.value, 1), force_rex)
        return _assemble(bytes([0xF7]), rex | wbit,
                         modrm + _pack_imm(src.value, 4), force_rex)
    raise EncodingError(f"unsupported operand combination in '{insn}'")


def _enc_mov(insn: Instruction) -> bytes:
    dst, src = insn.operands
    width = _op_width(insn)
    wbit = REX_W if width == 8 else 0
    force_rex = _needs_rex_presence(dst, src)
    if isinstance(src, Reg):
        opcode = 0x89 if width != 1 else 0x88
        rex, modrm = _rm_modrm(src.register.code, dst)
        return _assemble(bytes([opcode]), rex | wbit, modrm, force_rex)
    if isinstance(src, Mem) and isinstance(dst, Reg):
        opcode = 0x8B if width != 1 else 0x8A
        rex, modrm = _rm_modrm(dst.register.code, src)
        return _assemble(bytes([opcode]), rex | wbit, modrm, force_rex)
    if isinstance(src, Imm):
        if width == 1:
            rex, modrm = _rm_modrm(0, dst)
            return _assemble(bytes([0xC6]), rex,
                             modrm + _pack_imm(src.value, 1), force_rex)
        fits32 = -(1 << 31) <= src.value < (1 << 31)
        if isinstance(dst, Reg) and (src.size == 8 or
                                     (width == 8 and not fits32)):
            # movabs r64, imm64
            rex = REX_W | (REX_B if dst.register.code >= 8 else 0)
            opcode = bytes([0xB8 + (dst.register.code & 7)])
            return _assemble(opcode, rex, _pack_imm(src.value, 8))
        if isinstance(dst, Reg) and width == 4:
            rex = REX_B if dst.register.code >= 8 else 0
            opcode = bytes([0xB8 + (dst.register.code & 7)])
            return _assemble(opcode, rex, _pack_imm(src.value, 4), force_rex)
        rex, modrm = _rm_modrm(0, dst)
        return _assemble(bytes([0xC7]), rex | wbit,
                         modrm + _pack_imm(src.value, 4), force_rex)
    raise EncodingError(f"unsupported operand combination in '{insn}'")


def _enc_movzx(insn: Instruction) -> bytes:
    dst, src = insn.operands
    if not isinstance(dst, Reg) or dst.size == 1:
        raise EncodingError(f"movzx destination must be r32/r64 in '{insn}'")
    if not isinstance(src, (Reg, Mem)) or src.size != 1:
        raise EncodingError(f"movzx source must be 8-bit in '{insn}'")
    wbit = REX_W if dst.size == 8 else 0
    rex, modrm = _rm_modrm(dst.register.code, src)
    force_rex = _needs_rex_presence(src)
    return _assemble(bytes([0x0F, 0xB6]), rex | wbit, modrm, force_rex)


def _enc_lea(insn: Instruction) -> bytes:
    dst, src = insn.operands
    if not isinstance(dst, Reg) or not isinstance(src, Mem):
        raise EncodingError(f"lea expects reg, mem in '{insn}'")
    wbit = REX_W if dst.size == 8 else 0
    rex, modrm = _rm_modrm(dst.register.code, src)
    return _assemble(bytes([0x8D]), rex | wbit, modrm)


def _enc_imul(insn: Instruction) -> bytes:
    dst, src = insn.operands
    if not isinstance(dst, Reg) or dst.size == 1:
        raise EncodingError(f"imul destination must be r32/r64 in '{insn}'")
    wbit = REX_W if dst.size == 8 else 0
    rex, modrm = _rm_modrm(dst.register.code, src)
    return _assemble(bytes([0x0F, 0xAF]), rex | wbit, modrm)


def _enc_unary_f7(ext: int):
    def handler(insn: Instruction) -> bytes:
        (dst,) = insn.operands
        width = _op_width(insn)
        wbit = REX_W if width == 8 else 0
        rex, modrm = _rm_modrm(ext, dst)
        opcode = 0xF7 if width != 1 else 0xF6
        return _assemble(bytes([opcode]), rex | wbit, modrm,
                         _needs_rex_presence(dst))
    return handler


def _enc_incdec(ext: int):
    def handler(insn: Instruction) -> bytes:
        (dst,) = insn.operands
        width = _op_width(insn)
        wbit = REX_W if width == 8 else 0
        rex, modrm = _rm_modrm(ext, dst)
        opcode = 0xFF if width != 1 else 0xFE
        return _assemble(bytes([opcode]), rex | wbit, modrm,
                         _needs_rex_presence(dst))
    return handler


def _enc_shift(insn: Instruction) -> bytes:
    dst, amount = insn.operands
    ext = _SHIFT_EXT[insn.mnemonic]
    width = _op_width(Instruction(insn.mnemonic, (dst,)))
    wbit = REX_W if width == 8 else 0
    rex, modrm = _rm_modrm(ext, dst)
    force_rex = _needs_rex_presence(dst)
    if isinstance(amount, Imm):
        opcode = 0xC1 if width != 1 else 0xC0
        return _assemble(bytes([opcode]), rex | wbit,
                         modrm + _pack_imm(amount.value, 1), force_rex)
    if isinstance(amount, Reg) and amount.register.name == "cl":
        opcode = 0xD3 if width != 1 else 0xD2
        return _assemble(bytes([opcode]), rex | wbit, modrm, force_rex)
    raise EncodingError(f"shift amount must be imm8 or cl in '{insn}'")


def _enc_push(insn: Instruction) -> bytes:
    (src,) = insn.operands
    if isinstance(src, Reg):
        if src.size != 8:
            raise EncodingError("push takes a 64-bit register")
        rex = REX_B if src.register.code >= 8 else 0
        return _assemble(bytes([0x50 + (src.register.code & 7)]), rex, b"")
    if isinstance(src, Imm):
        if _imm_fits8(src):
            return bytes([0x6A]) + _pack_imm(src.value, 1)
        return bytes([0x68]) + _pack_imm(src.value, 4)
    if isinstance(src, Mem):
        rex, modrm = _rm_modrm(6, src)
        return _assemble(bytes([0xFF]), rex, modrm)
    raise EncodingError(f"unsupported push operand in '{insn}'")


def _enc_pop(insn: Instruction) -> bytes:
    (dst,) = insn.operands
    if isinstance(dst, Reg):
        if dst.size != 8:
            raise EncodingError("pop takes a 64-bit register")
        rex = REX_B if dst.register.code >= 8 else 0
        return _assemble(bytes([0x58 + (dst.register.code & 7)]), rex, b"")
    if isinstance(dst, Mem):
        rex, modrm = _rm_modrm(0, dst)
        return _assemble(bytes([0x8F]), rex, modrm)
    raise EncodingError(f"unsupported pop operand in '{insn}'")


def _enc_jmp(insn: Instruction) -> bytes:
    (target,) = insn.operands
    if isinstance(target, Imm):
        return bytes([0xE9]) + _pack_imm(target.value, 4)
    rex, modrm = _rm_modrm(4, target)
    return _assemble(bytes([0xFF]), rex, modrm)


def _enc_jcc(insn: Instruction) -> bytes:
    (target,) = insn.operands
    if not isinstance(target, Imm):
        raise EncodingError("conditional jumps are direct-only")
    return bytes([0x0F, 0x80 + insn.cond.value]) + _pack_imm(target.value, 4)


def _enc_call(insn: Instruction) -> bytes:
    (target,) = insn.operands
    if isinstance(target, Imm):
        return bytes([0xE8]) + _pack_imm(target.value, 4)
    rex, modrm = _rm_modrm(2, target)
    return _assemble(bytes([0xFF]), rex, modrm)


def _enc_setcc(insn: Instruction) -> bytes:
    (dst,) = insn.operands
    if not isinstance(dst, (Reg, Mem)) or dst.size != 1:
        raise EncodingError(f"setcc needs an 8-bit destination in '{insn}'")
    rex, modrm = _rm_modrm(0, dst)
    return _assemble(bytes([0x0F, 0x90 + insn.cond.value]), rex, modrm,
                     _needs_rex_presence(dst))


def _enc_cmovcc(insn: Instruction) -> bytes:
    dst, src = insn.operands
    if not isinstance(dst, Reg) or dst.size == 1:
        raise EncodingError(f"cmovcc destination must be r32/r64 in '{insn}'")
    wbit = REX_W if dst.size == 8 else 0
    rex, modrm = _rm_modrm(dst.register.code, src)
    return _assemble(bytes([0x0F, 0x40 + insn.cond.value]), rex | wbit, modrm)


def _fixed(code: bytes):
    def handler(insn: Instruction) -> bytes:
        if insn.operands:
            raise EncodingError(f"'{insn.name}' takes no operands")
        return code
    return handler


_HANDLERS = {
    Mnemonic.ADD: _enc_alu,
    Mnemonic.OR: _enc_alu,
    Mnemonic.AND: _enc_alu,
    Mnemonic.SUB: _enc_alu,
    Mnemonic.XOR: _enc_alu,
    Mnemonic.CMP: _enc_alu,
    Mnemonic.TEST: _enc_test,
    Mnemonic.MOV: _enc_mov,
    Mnemonic.MOVZX: _enc_movzx,
    Mnemonic.LEA: _enc_lea,
    Mnemonic.IMUL: _enc_imul,
    Mnemonic.NOT: _enc_unary_f7(2),
    Mnemonic.NEG: _enc_unary_f7(3),
    Mnemonic.INC: _enc_incdec(0),
    Mnemonic.DEC: _enc_incdec(1),
    Mnemonic.SHL: _enc_shift,
    Mnemonic.SHR: _enc_shift,
    Mnemonic.SAR: _enc_shift,
    Mnemonic.PUSH: _enc_push,
    Mnemonic.POP: _enc_pop,
    Mnemonic.PUSHFQ: _fixed(bytes([0x9C])),
    Mnemonic.POPFQ: _fixed(bytes([0x9D])),
    Mnemonic.JMP: _enc_jmp,
    Mnemonic.JCC: _enc_jcc,
    Mnemonic.CALL: _enc_call,
    Mnemonic.RET: _fixed(bytes([0xC3])),
    Mnemonic.SETCC: _enc_setcc,
    Mnemonic.CMOVCC: _enc_cmovcc,
    Mnemonic.NOP: _fixed(bytes([0x90])),
    Mnemonic.SYSCALL: _fixed(bytes([0x0F, 0x05])),
    Mnemonic.HLT: _fixed(bytes([0xF4])),
    Mnemonic.INT3: _fixed(bytes([0xCC])),
    Mnemonic.UD2: _fixed(bytes([0x0F, 0x0B])),
}

# operand counts of the handlers that unpack a fixed number of operands
_OPERAND_COUNTS = {
    **dict.fromkeys(
        (Mnemonic.ADD, Mnemonic.OR, Mnemonic.AND, Mnemonic.SUB,
         Mnemonic.XOR, Mnemonic.CMP, Mnemonic.TEST, Mnemonic.MOV,
         Mnemonic.MOVZX, Mnemonic.LEA, Mnemonic.IMUL, Mnemonic.SHL,
         Mnemonic.SHR, Mnemonic.SAR, Mnemonic.CMOVCC), 2),
    **dict.fromkeys(
        (Mnemonic.NOT, Mnemonic.NEG, Mnemonic.INC, Mnemonic.DEC,
         Mnemonic.PUSH, Mnemonic.POP, Mnemonic.JMP, Mnemonic.JCC,
         Mnemonic.CALL, Mnemonic.SETCC), 1),
}


def encoded_length(insn: Instruction) -> int:
    """Length in bytes of the encoding of ``insn``.

    Symbolic operands are assumed to take their canonical wide forms
    (rel32 / disp32 / imm32 / imm64-movabs), matching what the assembler
    emits after resolution, so the result is stable across passes.
    """
    resolved = _resolve_placeholder(insn)
    return len(encode(resolved))


def _resolve_placeholder(insn: Instruction) -> Instruction:
    """Replace symbolic operands with size-stable dummies."""
    new_ops = []
    for op in insn.operands:
        if isinstance(op, Label):
            if insn.mnemonic in (Mnemonic.JMP, Mnemonic.JCC, Mnemonic.CALL):
                new_ops.append(Imm(0x1000, 4))
            elif insn.mnemonic is Mnemonic.MOV:
                # address materialization -> movabs imm64
                new_ops.append(Imm(0, 8))
            else:
                new_ops.append(Imm(0x7FFFFF0, 4))  # imm32 address reference
        elif isinstance(op, Mem) and isinstance(op.disp, Label):
            new_ops.append(Mem(op.base, op.index, op.scale, 0x7FFFFF0,
                               op.size))
        else:
            new_ops.append(op)
    return insn.with_operands(*new_ops)
