"""IR instruction set."""

from __future__ import annotations

from typing import Optional

from repro.errors import IRError
from repro.ir.types import I1, I64, PTR, VOID
from repro.ir.values import Constant, Value

BINOPS = {"add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "ashr",
          "udiv", "urem"}
ICMP_PREDS = {"eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sle",
              "sgt", "sge"}


class Instruction(Value):
    """Base instruction: a Value with operands and a parent block.

    ``no_merge`` marks intentionally redundant computations (the
    hardening pass's duplicated checksums); optimization passes that
    unify equal expressions must leave them alone.
    """

    opcode = "instruction"
    is_terminator = False

    def __init__(self, vtype, operands=(), name: str = ""):
        super().__init__(vtype, name)
        self.parent = None  # BasicBlock
        self.no_merge = False
        self._operands: list[Value] = []
        for operand in operands:
            self._add_operand(operand)

    # -- operand management -------------------------------------------------

    @property
    def operands(self) -> tuple:
        return tuple(self._operands)

    def _add_operand(self, operand: Value):
        if not isinstance(operand, Value):
            raise IRError(f"operand {operand!r} is not a Value")
        self._operands.append(operand)
        operand.add_use(self)

    def set_operand(self, index: int, operand: Value):
        old = self._operands[index]
        old.remove_use(self)
        self._operands[index] = operand
        operand.add_use(self)

    def replace_operand(self, old: Value, new: Value):
        for index, operand in enumerate(self._operands):
            if operand is old:
                self.set_operand(index, new)

    def drop_operands(self):
        for operand in self._operands:
            operand.remove_use(self)
        self._operands = []

    # -- classification ------------------------------------------------------

    def successors(self) -> list:
        return []

    def has_side_effects(self) -> bool:
        return isinstance(self, (Store, Call, Ret, Br, CondBr, Switch,
                                 Unreachable))

    def erase(self):
        """Remove from parent block and drop operand uses."""
        if self.parent is not None:
            self.parent.instructions.remove(self)
        self.unlink()

    def unlink(self):
        """Erase, but leave the block's instruction list to the caller.

        Removing from the list is O(block) per instruction, so passes
        that erase many instructions unlink each one and then rebuild
        the list once with :meth:`BasicBlock.purge_unlinked`.
        """
        self.parent = None
        self.drop_operands()


class BinOp(Instruction):
    def __init__(self, op: str, lhs: Value, rhs: Value, name=""):
        if op not in BINOPS:
            raise IRError(f"unknown binop {op!r}")
        if lhs.type != rhs.type:
            raise IRError(f"binop type mismatch: {lhs.type} vs {rhs.type}")
        super().__init__(lhs.type, (lhs, rhs), name)
        self.op = op

    opcode = "binop"

    @property
    def lhs(self):
        return self._operands[0]

    @property
    def rhs(self):
        return self._operands[1]


class ICmp(Instruction):
    opcode = "icmp"

    def __init__(self, pred: str, lhs: Value, rhs: Value, name=""):
        if pred not in ICMP_PREDS:
            raise IRError(f"unknown icmp predicate {pred!r}")
        if lhs.type != rhs.type:
            raise IRError(f"icmp type mismatch: {lhs.type} vs {rhs.type}")
        super().__init__(I1, (lhs, rhs), name)
        self.pred = pred

    @property
    def lhs(self):
        return self._operands[0]

    @property
    def rhs(self):
        return self._operands[1]


class _Cast(Instruction):
    def __init__(self, value: Value, to_type, name=""):
        super().__init__(to_type, (value,), name)

    @property
    def value(self):
        return self._operands[0]


class ZExt(_Cast):
    opcode = "zext"


class SExt(_Cast):
    opcode = "sext"


class Trunc(_Cast):
    opcode = "trunc"


class IntToPtr(_Cast):
    opcode = "inttoptr"

    def __init__(self, value: Value, name=""):
        super().__init__(value, PTR, name)


class PtrToInt(_Cast):
    opcode = "ptrtoint"

    def __init__(self, value: Value, name=""):
        super().__init__(value, I64, name)


class Alloca(Instruction):
    opcode = "alloca"

    def __init__(self, allocated_type, name=""):
        super().__init__(PTR, (), name)
        self.allocated_type = allocated_type


class Load(Instruction):
    opcode = "load"

    def __init__(self, vtype, pointer: Value, name=""):
        super().__init__(vtype, (pointer,), name)

    @property
    def pointer(self):
        return self._operands[0]


class Store(Instruction):
    opcode = "store"

    def __init__(self, value: Value, pointer: Value):
        super().__init__(VOID, (value, pointer))

    @property
    def value(self):
        return self._operands[0]

    @property
    def pointer(self):
        return self._operands[1]


class Select(Instruction):
    opcode = "select"

    def __init__(self, cond: Value, if_true: Value, if_false: Value,
                 name=""):
        if if_true.type != if_false.type:
            raise IRError("select arm type mismatch")
        super().__init__(if_true.type, (cond, if_true, if_false), name)


class Phi(Instruction):
    """SSA phi; incoming blocks tracked alongside operand values."""

    opcode = "phi"

    def __init__(self, vtype, name=""):
        super().__init__(vtype, (), name)
        self.incoming_blocks: list = []

    def add_incoming(self, value: Value, block):
        self._add_operand(value)
        self.incoming_blocks.append(block)

    def incoming(self) -> list[tuple[Value, object]]:
        return list(zip(self._operands, self.incoming_blocks))

    def incoming_for(self, block) -> Optional[Value]:
        for value, pred in self.incoming():
            if pred is block:
                return value
        return None

    def replace_incoming_block(self, old, new):
        self.incoming_blocks = [new if b is old else b
                                for b in self.incoming_blocks]

    def remove_incoming(self, block):
        for index in reversed(range(len(self.incoming_blocks))):
            if self.incoming_blocks[index] is block:
                operand = self._operands[index]
                operand.remove_use(self)
                del self._operands[index]
                del self.incoming_blocks[index]


class Call(Instruction):
    """Direct call to an intrinsic or function by name.

    ``readonly`` declares that the callee neither writes memory nor
    observes prior writes, so memory-sensitive passes (CSE's load
    epoch) may look straight through it.  Readonly calls still count
    as side-effecting for DCE: they are ordering markers (the JIT's
    flag/register intrinsics) that must survive even when unused.
    """

    opcode = "call"

    def __init__(self, vtype, callee: str, args=(), name="",
                 readonly: bool = False):
        super().__init__(vtype, tuple(args), name)
        self.callee = callee
        self.readonly = readonly


class Br(Instruction):
    opcode = "br"
    is_terminator = True

    def __init__(self, target):
        super().__init__(VOID, ())
        self.target = target

    def successors(self):
        return [self.target]

    def replace_successor(self, old, new):
        if self.target is old:
            self.target = new


class CondBr(Instruction):
    opcode = "condbr"
    is_terminator = True

    def __init__(self, cond: Value, if_true, if_false):
        if cond.type != I1:
            raise IRError("condbr condition must be i1")
        super().__init__(VOID, (cond,))
        self.if_true = if_true
        self.if_false = if_false

    @property
    def cond(self):
        return self._operands[0]

    def successors(self):
        return [self.if_true, self.if_false]

    def replace_successor(self, old, new):
        if self.if_true is old:
            self.if_true = new
        if self.if_false is old:
            self.if_false = new


class Switch(Instruction):
    """``switch value, default [case -> block, ...]``."""

    opcode = "switch"
    is_terminator = True

    def __init__(self, value: Value, default):
        super().__init__(VOID, (value,))
        self.default = default
        self.cases: list[tuple[Constant, object]] = []

    @property
    def value(self):
        return self._operands[0]

    def add_case(self, constant: Constant, block):
        self.cases.append((constant, block))

    def successors(self):
        return [self.default] + [block for _, block in self.cases]

    def replace_successor(self, old, new):
        if self.default is old:
            self.default = new
        self.cases = [(c, new if b is old else b) for c, b in self.cases]


class Ret(Instruction):
    opcode = "ret"
    is_terminator = True

    def __init__(self, value: Optional[Value] = None):
        super().__init__(VOID, (value,) if value is not None else ())


class Unreachable(Instruction):
    opcode = "unreachable"
    is_terminator = True

    def __init__(self):
        super().__init__(VOID, ())
