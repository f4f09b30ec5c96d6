"""RFLAGS model and arithmetic flag computation.

The six status flags the subset needs (CF, PF, AF, ZF, SF, OF) with the
architectural RFLAGS bit layout, plus helpers computing flag effects for
each ALU operation class at 1/4/8-byte widths.
"""

from __future__ import annotations


#: PF lookup: PARITY_TABLE[b] is True when byte ``b`` has even parity.
PARITY_TABLE = tuple(
    bin(byte).count("1") % 2 == 0 for byte in range(256))


def _parity(value: int) -> bool:
    """PF: even parity of the low byte."""
    return PARITY_TABLE[value & 0xFF]


class Flags:
    """Mutable status-flag state."""

    __slots__ = ("cf", "pf", "af", "zf", "sf", "of")

    def __init__(self):
        self.cf = False
        self.pf = False
        self.af = False
        self.zf = False
        self.sf = False
        self.of = False

    def copy(self) -> "Flags":
        # every slot is assigned below, so skip __init__'s defaults
        other = object.__new__(Flags)
        other.cf, other.pf, other.af = self.cf, self.pf, self.af
        other.zf, other.sf, other.of = self.zf, self.sf, self.of
        return other

    def to_rflags(self) -> int:
        """Architectural RFLAGS value (bit 1 always set, IF set)."""
        value = 0x2 | (1 << 9)
        if self.cf:
            value |= 1 << 0
        if self.pf:
            value |= 1 << 2
        if self.af:
            value |= 1 << 4
        if self.zf:
            value |= 1 << 6
        if self.sf:
            value |= 1 << 7
        if self.of:
            value |= 1 << 11
        return value

    def from_rflags(self, value: int):
        self.cf = bool(value & (1 << 0))
        self.pf = bool(value & (1 << 2))
        self.af = bool(value & (1 << 4))
        self.zf = bool(value & (1 << 6))
        self.sf = bool(value & (1 << 7))
        self.of = bool(value & (1 << 11))

    def set_logic_result(self, result: int, width_bits: int):
        """Flag effects of AND/OR/XOR/TEST."""
        self.cf = False
        self.of = False
        self.af = False
        self.zf = result == 0
        self.sf = bool(result >> (width_bits - 1))
        self.pf = _parity(result)

    def set_add(self, a: int, b: int, width_bits: int) -> int:
        mask = (1 << width_bits) - 1
        result = (a + b) & mask
        self.cf = (a + b) > mask
        self.af = ((a & 0xF) + (b & 0xF)) > 0xF
        sign = 1 << (width_bits - 1)
        self.of = bool((~(a ^ b)) & (a ^ result) & sign)
        self.zf = result == 0
        self.sf = bool(result & sign)
        self.pf = _parity(result)
        return result

    def set_sub(self, a: int, b: int, width_bits: int) -> int:
        mask = (1 << width_bits) - 1
        result = (a - b) & mask
        self.cf = a < b
        self.af = (a & 0xF) < (b & 0xF)
        sign = 1 << (width_bits - 1)
        self.of = bool((a ^ b) & (a ^ result) & sign)
        self.zf = result == 0
        self.sf = bool(result & sign)
        self.pf = _parity(result)
        return result

    def set_inc(self, a: int, width_bits: int) -> int:
        """INC: like ADD 1 but CF is preserved."""
        saved_cf = self.cf
        result = self.set_add(a, 1, width_bits)
        self.cf = saved_cf
        return result

    def set_dec(self, a: int, width_bits: int) -> int:
        saved_cf = self.cf
        result = self.set_sub(a, 1, width_bits)
        self.cf = saved_cf
        return result

    def set_neg(self, a: int, width_bits: int) -> int:
        result = self.set_sub(0, a, width_bits)
        self.cf = a != 0
        return result

    def set_imul(self, a: int, b: int, width_bits: int) -> int:
        """Two-operand signed multiply; CF=OF on overflow."""
        mask = (1 << width_bits) - 1
        sign = 1 << (width_bits - 1)
        sa = a - (1 << width_bits) if a & sign else a
        sb = b - (1 << width_bits) if b & sign else b
        full = sa * sb
        result = full & mask
        truncated = result - (1 << width_bits) if result & sign else result
        overflow = truncated != full
        self.cf = overflow
        self.of = overflow
        self.zf = result == 0
        self.sf = bool(result & sign)
        self.pf = _parity(result)
        self.af = False
        return result

    def set_shl(self, a: int, count: int, width_bits: int) -> int:
        count &= 0x3F if width_bits == 64 else 0x1F
        if count == 0:
            return a
        mask = (1 << width_bits) - 1
        result = (a << count) & mask
        self.cf = bool((a >> (width_bits - count)) & 1) if \
            count <= width_bits else False
        sign = 1 << (width_bits - 1)
        if count == 1:
            self.of = bool(result & sign) != self.cf
        self.zf = result == 0
        self.sf = bool(result & sign)
        self.pf = _parity(result)
        return result

    def set_shr(self, a: int, count: int, width_bits: int) -> int:
        count &= 0x3F if width_bits == 64 else 0x1F
        if count == 0:
            return a
        result = a >> count
        self.cf = bool((a >> (count - 1)) & 1)
        sign = 1 << (width_bits - 1)
        if count == 1:
            self.of = bool(a & sign)
        self.zf = result == 0
        self.sf = bool(result & sign)
        self.pf = _parity(result)
        return result

    def set_sar(self, a: int, count: int, width_bits: int) -> int:
        count &= 0x3F if width_bits == 64 else 0x1F
        if count == 0:
            return a
        sign = 1 << (width_bits - 1)
        signed = a - (1 << width_bits) if a & sign else a
        result = (signed >> count) & ((1 << width_bits) - 1)
        self.cf = bool((signed >> (count - 1)) & 1)
        if count == 1:
            self.of = False
        self.zf = result == 0
        self.sf = bool(result & sign)
        self.pf = _parity(result)
        return result

    def __repr__(self):
        bits = "".join(
            name.upper() if getattr(self, name) else name
            for name in ("cf", "pf", "af", "zf", "sf", "of"))
        return f"<Flags {bits}>"
