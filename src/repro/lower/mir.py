"""Machine IR: virtual-register instructions close to final assembly."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.isa.cond import Cond
from repro.isa.registers import Register


@dataclass(frozen=True)
class VReg:
    """Virtual register (64-bit)."""

    id: int

    def __str__(self):
        return f"v{self.id}"


@dataclass(frozen=True)
class MImm:
    value: int

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class MMem:
    """Memory operand: one register base, constant displacement."""

    base: Union[VReg, Register]
    disp: int = 0

    def __str__(self):
        if self.disp:
            return f"[{self.base}{self.disp:+d}]"
        return f"[{self.base}]"


MOperand = Union[VReg, Register, MImm, MMem, str]  # str = label


# opcode -> (n_defs, reads_dst) — two-address ALU ops read their dst.
OPCODES = {
    "mov": (1, False),       # mov dst, src
    "load": (1, False),      # mov dst, [mem]        (width)
    "store": (0, False),     # mov [mem], src        (width)
    "add": (1, True),
    "sub": (1, True),
    "and": (1, True),
    "or": (1, True),
    "xor": (1, True),
    "imul": (1, True),
    "shl": (1, True),        # shift by imm or by rcx (emitted as cl)
    "shr": (1, True),
    "sar": (1, True),
    "neg": (1, True),
    "not": (1, True),
    "cmp": (0, False),
    "test": (0, False),
    "setcc": (1, False),     # setcc dst8 + movzx dst, dst8
    "cmov": (1, True),       # cmovcc dst, src
    "jmp": (0, False),       # jmp label
    "jcc": (0, False),       # jcc label
    "syscall": (1, False),   # pseudo: dst, rax, rdi, rsi, rdx sources
    "abort": (0, False),     # call to the fault-response stub
    "hlt": (0, False),
    "ud2": (0, False),
}

TERMINATORS = {"jmp", "hlt", "ud2"}


@dataclass
class MInsn:
    """One machine instruction (pre-register-allocation)."""

    op: str
    operands: list = field(default_factory=list)
    cond: Optional[Cond] = None
    width: int = 8  # load/store access width

    def defs(self) -> list[VReg]:
        n_defs, _ = OPCODES[self.op]
        if n_defs and isinstance(self.operands[0], VReg):
            return [self.operands[0]]
        return []

    def uses(self) -> list[VReg]:
        n_defs, reads_dst = OPCODES[self.op]
        used: list[VReg] = []
        for index, operand in enumerate(self.operands):
            if index == 0 and n_defs and not reads_dst and \
                    self.op != "store":
                # pure definition
                if isinstance(operand, MMem) and \
                        isinstance(operand.base, VReg):
                    used.append(operand.base)
                continue
            if isinstance(operand, VReg):
                used.append(operand)
            elif isinstance(operand, MMem) and \
                    isinstance(operand.base, VReg):
                used.append(operand.base)
        return used

    def __str__(self):
        rendered = ", ".join(str(o) for o in self.operands)
        cond = f".{self.cond.suffix}" if self.cond else ""
        return f"{self.op}{cond} {rendered}".strip()


@dataclass
class MBlock:
    name: str
    insns: list[MInsn] = field(default_factory=list)
    # guest provenance carried down from the IR block (see
    # repro.ir.module.BasicBlock): original address/extent + whether
    # the block is derived countermeasure code
    guest_address: Optional[int] = None
    guest_size: int = 0
    guest_derived: bool = False

    def append(self, insn: MInsn) -> MInsn:
        self.insns.append(insn)
        return insn


@dataclass
class MFunction:
    name: str
    blocks: list[MBlock] = field(default_factory=list)
    _vreg_counter: itertools.count = field(
        default_factory=itertools.count)

    def new_vreg(self) -> VReg:
        return VReg(next(self._vreg_counter))

    def instruction_count(self) -> int:
        return sum(len(b.insns) for b in self.blocks)

    def __str__(self):
        lines = [f"mfunction {self.name}:"]
        for block in self.blocks:
            lines.append(f"{block.name}:")
            lines.extend(f"    {i}" for i in block.insns)
        return "\n".join(lines)
