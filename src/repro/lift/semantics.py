"""Per-instruction translation: x86-64 subset -> IR.

Documented approximations (safe for the supported workloads, checked by
the differential tests):

* AF and PF are not modeled (no workload reads them; ``jp``/``jnp``
  raise :class:`LiftError`),
* ``imul`` leaves CF/OF false,
* variable (``cl``) shift counts update only ZF/SF,
* ``pushfq``/``popfq`` are rejected — they require materializing the
  full RFLAGS image, which original (pre-hardening) binaries in our
  corpus never do.
"""

from __future__ import annotations

from repro.errors import LiftError
from repro.ir.builder import IRBuilder
from repro.ir.types import I1, I8, I64, IntType, int_type
from repro.ir.values import Constant
from repro.isa.cond import Cond
from repro.isa.insn import Instruction
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import reg as reg_by_name
from repro.lift.state import GuestState

RSP = reg_by_name("rsp")


class InstructionTranslator:
    """Translates non-control-flow instructions and condition codes."""

    def __init__(self, state: GuestState, builder: IRBuilder):
        self.state = state
        self.builder = builder

    # -- operand helpers ------------------------------------------------------

    def address_of(self, mem: Mem, insn: Instruction):
        b = self.builder
        if mem.is_rip_relative:
            return Constant(I64, insn.address + insn.length + mem.disp)
        address = None
        if mem.base is not None:
            address = self.state.read_reg(b, mem.base)
        if mem.index is not None:
            index = self.state.read_reg(b, mem.index)
            if mem.scale != 1:
                index = b.mul(index, Constant(I64, mem.scale))
            address = index if address is None else b.add(address, index)
        disp = mem.disp if isinstance(mem.disp, int) else 0
        if address is None:
            return Constant(I64, disp)
        if disp:
            address = b.add(address, Constant(I64, disp))
        return address

    def read(self, operand, insn: Instruction, width: int):
        """Operand value as IntType(width*8)."""
        b = self.builder
        vtype = int_type(width * 8)
        if isinstance(operand, Reg):
            value = self.state.read_reg(b, operand.register)
            return self._coerce(value, vtype)
        if isinstance(operand, Imm):
            return Constant(vtype, operand.value)
        pointer = b.inttoptr(self.address_of(operand, insn))
        return b.load(int_type(operand.size * 8), pointer)

    def write(self, operand, insn: Instruction, value):
        b = self.builder
        if isinstance(operand, Reg):
            expected = int_type(operand.register.size * 8)
            self.state.write_reg(b, operand.register,
                                 self._coerce(value, expected))
            return
        pointer = b.inttoptr(self.address_of(operand, insn))
        b.store(self._coerce(value, int_type(operand.size * 8)), pointer)

    def _coerce(self, value, vtype: IntType):
        if value.type == vtype:
            return value
        if value.type.bits > vtype.bits:
            return self.builder.trunc(value, vtype)
        return self.builder.zext(value, vtype)

    @staticmethod
    def _width(insn: Instruction) -> int:
        for operand in insn.operands:
            if isinstance(operand, (Reg, Mem)):
                return operand.size
        return 8

    # -- flag model -----------------------------------------------------------

    def lift_flags(self, kind: str, a, c, result):
        """Store the lifted ZF/SF/CF/OF of one flag writer.

        ``kind`` is ``add``, ``sub``, ``inc``, ``dec`` or ``neg`` (the
        operation ``result = a op c``; ``c`` is 1 for inc/dec, and neg
        is ``0 - c``), ``logic`` (also ``imul``: CF/OF cleared), or
        ``shl``/``lshr``/``ashr`` with ``c`` the masked immediate count
        (``None`` for a run-time count: ZF/SF only).
        """
        b = self.builder
        state = self.state
        zero = Constant(result.type, 0)
        if kind == "sub":
            # ZF of a subtraction is equality of the inputs: lift it as
            # a *direct* compare so the hardening pass duplicates the
            # comparison itself instead of sharing one subtraction
            # result (and DCE can drop the subtraction when only ZF is
            # consumed).
            state.write_flag(b, "zf", b.icmp("eq", a, c))
        else:
            state.write_flag(b, "zf", b.icmp("eq", result, zero))
        state.write_flag(b, "sf", b.icmp("slt", result, zero))
        if kind in ("add", "inc"):
            if kind == "add":
                state.write_flag(b, "cf", b.icmp("ult", result, a))
            self._set_of_from_signs(b.not_(b.xor(a, c)), b.xor(a, result))
        elif kind in ("sub", "dec", "neg"):
            if kind == "sub":
                state.write_flag(b, "cf", b.icmp("ult", a, c))
            elif kind == "neg":
                state.write_flag(b, "cf", b.icmp("ne", c, zero))
            self._set_of_from_signs(b.xor(a, c), b.xor(a, result))
        elif kind == "logic":
            state.write_flag_const(b, "cf", 0)
            state.write_flag_const(b, "of", 0)
        elif c is not None:
            shift = a.type.bits - c if kind == "shl" else c - 1
            carry_bit = b.lshr(a, Constant(a.type, shift))
            carry = b.and_(carry_bit, Constant(a.type, 1))
            state.write_flag(b, "cf", b.icmp("ne", carry, zero))

    def _set_of_from_signs(self, x1, x2):
        """OF = sign bit of (x1 & x2)."""
        b = self.builder
        combined = b.and_(x1, x2)
        self.state.write_flag(
            b, "of", b.icmp("slt", combined, Constant(combined.type, 0)))

    def cond_value(self, cond: Cond):
        """The branch condition as an i1 value (paper's cmp_res)."""
        b = self.builder
        s = self.state
        base = cond.value & ~1

        if base == 0x0:
            value = s.read_flag(b, "of")
        elif base == 0x2:
            value = s.read_flag(b, "cf")
        elif base == 0x4:
            value = s.read_flag(b, "zf")
        elif base == 0x6:
            value = b.or_(s.read_flag(b, "cf"), s.read_flag(b, "zf"))
        elif base == 0x8:
            value = s.read_flag(b, "sf")
        elif base == 0xA:
            raise LiftError("parity conditions are not supported")
        elif base == 0xC:
            value = b.xor(s.read_flag(b, "sf"), s.read_flag(b, "of"))
        else:  # 0xE
            value = b.or_(s.read_flag(b, "zf"),
                          b.xor(s.read_flag(b, "sf"),
                                s.read_flag(b, "of")))
        if cond.value & 1:
            value = b.xor(value, Constant(I1, 1))
        return value

    # -- instruction translation ---------------------------------------------

    def translate(self, insn: Instruction):
        """Translate a non-control-flow instruction (mutates state)."""
        handler = getattr(self, f"_lift_{insn.mnemonic.name.lower()}",
                          None)
        if handler is None:
            raise LiftError(f"cannot lift '{insn}'")
        handler(insn)

    def _lift_mov(self, insn):
        width = self._width(insn)
        self.write(insn.operands[0], insn,
                   self.read(insn.operands[1], insn, width))

    def _lift_movzx(self, insn):
        dst, src = insn.operands
        value = self.read(src, insn, 1)
        self.write(dst, insn, self._coerce(
            value, int_type(dst.register.size * 8)))

    def _lift_lea(self, insn):
        dst, src = insn.operands
        self.write(dst, insn, self.address_of(src, insn))

    # arithmetic --------------------------------------------------------------

    def _arith(self, insn, op: str):
        b = self.builder
        width = self._width(insn)
        a = self.read(insn.operands[0], insn, width)
        c = self.read(insn.operands[1], insn, width)
        result = b.binop(op, a, c)
        self.lift_flags(op, a, c, result)
        return result

    def _lift_add(self, insn):
        self.write(insn.operands[0], insn, self._arith(insn, "add"))

    def _lift_sub(self, insn):
        self.write(insn.operands[0], insn, self._arith(insn, "sub"))

    def _lift_cmp(self, insn):
        self._arith(insn, "sub")

    def _logic(self, insn, op: str):
        b = self.builder
        width = self._width(insn)
        a = self.read(insn.operands[0], insn, width)
        c = self.read(insn.operands[1], insn, width)
        result = b.binop(op, a, c)
        self.lift_flags("logic", a, c, result)
        return result

    def _lift_and(self, insn):
        self.write(insn.operands[0], insn, self._logic(insn, "and"))

    def _lift_or(self, insn):
        self.write(insn.operands[0], insn, self._logic(insn, "or"))

    def _lift_xor(self, insn):
        self.write(insn.operands[0], insn, self._logic(insn, "xor"))

    def _lift_test(self, insn):
        self._logic(insn, "and")

    def _lift_imul(self, insn):
        b = self.builder
        width = self._width(insn)
        a = self.read(insn.operands[0], insn, width)
        c = self.read(insn.operands[1], insn, width)
        result = b.mul(a, c)
        self.lift_flags("logic", a, c, result)  # approximation: CF/OF
        self.write(insn.operands[0], insn, result)

    def _lift_inc(self, insn):
        b = self.builder
        width = self._width(insn)
        a = self.read(insn.operands[0], insn, width)
        one = Constant(a.type, 1)
        result = b.add(a, one)
        self.lift_flags("inc", a, one, result)  # CF preserved by inc
        self.write(insn.operands[0], insn, result)

    def _lift_dec(self, insn):
        b = self.builder
        width = self._width(insn)
        a = self.read(insn.operands[0], insn, width)
        one = Constant(a.type, 1)
        result = b.sub(a, one)
        self.lift_flags("dec", a, one, result)
        self.write(insn.operands[0], insn, result)

    def _lift_neg(self, insn):
        b = self.builder
        width = self._width(insn)
        a = self.read(insn.operands[0], insn, width)
        zero = Constant(a.type, 0)
        result = b.sub(zero, a)
        self.lift_flags("neg", zero, a, result)
        self.write(insn.operands[0], insn, result)

    def _lift_not(self, insn):
        b = self.builder
        width = self._width(insn)
        a = self.read(insn.operands[0], insn, width)
        self.write(insn.operands[0], insn, b.not_(a))

    def _shift(self, insn, op: str):
        b = self.builder
        width = self._width(insn)
        bits = width * 8
        a = self.read(insn.operands[0], insn, width)
        amount = insn.operands[1]
        if isinstance(amount, Imm):
            count = amount.value & (0x3F if bits == 64 else 0x1F)
            if count == 0:
                return a
            result = b.binop(op, a, Constant(a.type, count))
            self.lift_flags(op, a, count, result)
            return result
        # variable count: result + ZF/SF only (documented approximation)
        count = self._coerce(self.read(amount, insn, 1), a.type)
        masked = b.and_(count, Constant(a.type,
                                        0x3F if bits == 64 else 0x1F))
        result = b.binop(op, a, masked)
        self.lift_flags(op, a, None, result)
        return result

    def _lift_shl(self, insn):
        self.write(insn.operands[0], insn, self._shift(insn, "shl"))

    def _lift_shr(self, insn):
        self.write(insn.operands[0], insn, self._shift(insn, "lshr"))

    def _lift_sar(self, insn):
        self.write(insn.operands[0], insn, self._shift(insn, "ashr"))

    # stack -------------------------------------------------------------------

    def _lift_push(self, insn):
        b = self.builder
        value = self._coerce(self.read(insn.operands[0], insn, 8), I64)
        rsp = self.state.read_reg(b, RSP)
        new_rsp = b.sub(rsp, Constant(I64, 8))
        self.state.write_reg(b, RSP, new_rsp)
        b.store(value, b.inttoptr(new_rsp))

    def _lift_pop(self, insn):
        b = self.builder
        rsp = self.state.read_reg(b, RSP)
        value = b.load(I64, b.inttoptr(rsp))
        self.state.write_reg(b, RSP, b.add(rsp, Constant(I64, 8)))
        self.write(insn.operands[0], insn, value)

    # conditional data movement -----------------------------------------------

    def _lift_setcc(self, insn):
        b = self.builder
        cond = self.cond_value(insn.cond)
        self.write(insn.operands[0], insn, b.zext(cond, I8))

    def _lift_cmovcc(self, insn):
        b = self.builder
        dst = insn.operands[0]
        width = dst.register.size
        cond = self.cond_value(insn.cond)
        current = self.read(dst, insn, width)
        alternative = self.read(insn.operands[1], insn, width)
        self.write(dst, insn, b.select(cond, alternative, current))

    def _lift_nop(self, insn):
        pass

    def _lift_pushfq(self, insn):
        raise LiftError("pushfq requires full RFLAGS materialization")

    def _lift_popfq(self, insn):
        raise LiftError("popfq requires full RFLAGS materialization")
