"""Lift a superblock body to optimized single-block IR.

The register and memory dataflow comes straight from
:class:`repro.lift.semantics.InstructionTranslator` — the same
translation the rewriter uses, kept honest by the differential tests.
The lifter's *flag* model, however, is documented as approximate (no
AF/PF, ``imul`` clears CF/OF, variable shifts update only ZF/SF), and
no body instruction reads a flag (flag readers end a superblock), so
:class:`_BodyTranslator` does not build it at all.  Instead, every flag
writer deposits a readonly ``flag_*`` marker call capturing the exact
operand values the interpreter's :class:`~repro.emu.flagops.Flags`
methods would see; codegen replays those methods at block commit.
``flag_materialization`` prunes the markers to the live tail first, so
a block ending in ``cmp``/``test`` typically replays a single update
("batched flag materialization").

The body is built in SSA form directly.  :class:`GuestState` and the
translator are the rewriter's, unchanged, but they emit through
:class:`_SlotBuilder`, which keeps the state's allocas out of the IR.
A superblock body is one basic block, so the value a slot holds is
simply the last value stored to it: a slot store records the value and
a slot load returns it, which is exactly what mem2reg would compute
from the alloca form (on-the-fly SSA construction, Braun et al., CC
2013, without control flow).  Guest state enters through a readonly
``reg_in`` marker emitted on a register's first read and leaves
through a ``reg_out`` marker for each register the body wrote.  Both
always exist for ``rsp``, which a ``call``/``ret`` terminator needs.
Guest memory loads and stores are emitted as usual.  mem2reg stays
first in ``_PIPELINE`` as a guard and finds no allocas.
"""

from __future__ import annotations

from repro.analysis.flagliveness import ALL_FLAGS, flag_materialization
from repro.ir.builder import IRBuilder
from repro.ir.instructions import Alloca
from repro.ir.module import Function
from repro.ir.passes import PassManager, constant_fold, cse, dce, mem2reg
from repro.ir.types import I8, I64, VOID, FunctionType
from repro.ir.values import Constant
from repro.isa.insn import Instruction, Mnemonic
from repro.isa.operands import Imm
from repro.lift.semantics import InstructionTranslator
from repro.lift.state import GuestState
from repro.isa.registers import Register, all_gpr64
from repro.isa.registers import reg as reg_by_name

_RSP = reg_by_name("rsp")
_INC_DEC_FLAGS = frozenset({"pf", "af", "zf", "sf", "of"})
_SHIFT_FLAGS = frozenset({"cf", "pf", "zf", "sf"})

_PIPELINE = PassManager([
    ("mem2reg", mem2reg),
    ("constfold", constant_fold),
    ("cse", cse),
    ("dce", dce),
])


class _SlotBuilder(IRBuilder):
    """Forwards :class:`GuestState` slot traffic to SSA values.

    Slots are allocas that never enter the block.  ``current`` maps
    each slot to the value it holds; a register slot reads as its
    ``reg_in`` marker until the body stores to it, and ``written``
    records the slots stored to since :meth:`bind_registers`.
    """

    def __init__(self, block):
        super().__init__(block)
        self.current: dict[Alloca, object] = {}
        self.registers: dict[Alloca, Register] = {}
        self.written: set[Alloca] = set()

    def bind_registers(self, reg_slots: dict):
        """Make each register slot read as ``reg_in`` until stored.

        Called after :class:`GuestState` has initialized its slots, so
        those initial stores neither reach the IR nor count as writes.
        """
        for register in all_gpr64():
            slot = reg_slots[register.name]
            self.current[slot] = None
            self.registers[slot] = register
        self.written.clear()

    def alloca(self, allocated_type, name=""):
        slot = Alloca(allocated_type, name)
        self.current[slot] = None
        return slot

    def load(self, vtype, pointer, name=""):
        if pointer not in self.current:
            return super().load(vtype, pointer, name)
        value = self.current[pointer]
        if value is None:
            register = self.registers[pointer]
            value = self.current[pointer] = self.call(
                I64, "reg_in", [Constant(I64, register.code)],
                name=f"in_{register.name}", readonly=True)
        return value

    def store(self, value, pointer):
        if pointer not in self.current:
            return super().store(value, pointer)
        self.current[pointer] = value
        self.written.add(pointer)
        return None


class _BodyTranslator(InstructionTranslator):
    """The rewriter's translator without its lifted flag model.

    Compiled blocks take their flags from the ``flag_*`` markers only,
    so the approximate flag IR would be built just for DCE to drop.
    """

    def lift_flags(self, kind, a, c, result):
        pass


class _FlagMarkers:
    """Collects ``flag_*`` marker calls with their define sets."""

    def __init__(self, translator: InstructionTranslator,
                 builder: IRBuilder):
        self.translator = translator
        self.builder = builder
        self.specs: list[tuple[frozenset, frozenset, object]] = []

    def _emit(self, kind: str, args, bits: int,
              may: frozenset, definite: frozenset):
        call = self.builder.call(
            VOID, f"flag_{kind}", list(args) + [Constant(I64, bits)],
            readonly=True)
        self.specs.append((may, definite, call))

    def capture(self, insn: Instruction):
        """Emit the marker for ``insn`` (before its translation)."""
        translator = self.translator
        builder = self.builder
        mnemonic = insn.mnemonic
        width = translator._width(insn)
        bits = width * 8

        def read(index):
            return translator.read(insn.operands[index], insn, width)

        if mnemonic is Mnemonic.ADD:
            self._emit("add", (read(0), read(1)), bits,
                       ALL_FLAGS, ALL_FLAGS)
        elif mnemonic in (Mnemonic.SUB, Mnemonic.CMP):
            self._emit("sub", (read(0), read(1)), bits,
                       ALL_FLAGS, ALL_FLAGS)
        elif mnemonic in (Mnemonic.AND, Mnemonic.TEST, Mnemonic.OR,
                          Mnemonic.XOR):
            op = ("and" if mnemonic in (Mnemonic.AND, Mnemonic.TEST)
                  else mnemonic.name.lower())
            result = builder.binop(op, read(0), read(1))
            self._emit("logic", (result,), bits, ALL_FLAGS, ALL_FLAGS)
        elif mnemonic is Mnemonic.IMUL:
            self._emit("imul", (read(0), read(1)), bits,
                       ALL_FLAGS, ALL_FLAGS)
        elif mnemonic is Mnemonic.INC:
            self._emit("inc", (read(0),), bits,
                       _INC_DEC_FLAGS, _INC_DEC_FLAGS)
        elif mnemonic is Mnemonic.DEC:
            self._emit("dec", (read(0),), bits,
                       _INC_DEC_FLAGS, _INC_DEC_FLAGS)
        elif mnemonic is Mnemonic.NEG:
            self._emit("neg", (read(0),), bits, ALL_FLAGS, ALL_FLAGS)
        elif mnemonic in (Mnemonic.SHL, Mnemonic.SHR, Mnemonic.SAR):
            amount = insn.operands[1]
            kind = mnemonic.name.lower()
            if isinstance(amount, Imm):
                masked = amount.value & (0x3F if bits == 64 else 0x1F)
                if masked == 0:
                    return  # architecturally no flag update at all
                defined = _SHIFT_FLAGS | ({"of"} if masked == 1
                                          else frozenset())
                self._emit(kind, (read(0),
                                  Constant(I8, amount.value & 0xFF)),
                           bits, defined, defined)
            else:
                # run-time count: may update everything but AF, or
                # nothing at all when the masked count is zero
                count = translator.read(amount, insn, 1)
                self._emit(kind, (read(0), count), bits,
                           _SHIFT_FLAGS | {"of"}, frozenset())

    def prune(self):
        """Erase markers outside the live tail (batched materialization)."""
        keep = set(flag_materialization(
            [(may, definite) for may, definite, _ in self.specs]))
        for index, (_, _, call) in enumerate(self.specs):
            if index not in keep:
                call.unlink()
        self.builder.block.purge_unlinked()


def lift_superblock(body: list[Instruction], start: int) -> Function:
    """Build and optimize the IR function for one superblock body."""
    function = Function(f"sb_{start:x}", FunctionType(VOID, ()))
    block = function.add_block("body")
    builder = _SlotBuilder(block)
    state = GuestState(builder)
    builder.bind_registers(state.reg_slots)
    # rsp always enters, read or not: codegen loads it up front for a
    # call/ret terminator
    state.read_reg(builder, _RSP)
    translator = _BodyTranslator(state, builder)

    markers = _FlagMarkers(translator, builder)
    for insn in body:
        markers.capture(insn)
        translator.translate(insn)
    markers.prune()

    for register in all_gpr64():
        slot = state.reg_slots[register.name]
        if slot in builder.written or register is _RSP:
            builder.call(
                VOID, "reg_out",
                [Constant(I64, register.code),
                 state.read_reg(builder, register)],
                readonly=True)
    builder.ret()

    _PIPELINE.run(function)
    return function
