"""Operand model for the x86-64 subset.

Four operand kinds:

* :class:`Reg` — a register view,
* :class:`Imm` — an immediate (also used for branch displacements once
  resolved),
* :class:`Mem` — a memory reference ``[base + index*scale + disp]`` with
  an explicit access ``size``; ``base`` may be the RIP pseudo-register
  for RIP-relative addressing,
* :class:`Label` — a not-yet-resolved symbolic reference; the assembler
  and the GTIRB layer replace these with concrete values before
  encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.isa.registers import RIP, Register


@dataclass(frozen=True)
class Reg:
    """Register operand."""

    register: Register

    @property
    def size(self) -> int:
        return self.register.size

    def __str__(self):
        return self.register.name


@dataclass(frozen=True)
class Imm:
    """Immediate operand.

    ``value`` is the signed Python integer; ``size`` the encoded width
    in bytes (chosen by the encoder when zero).
    """

    value: int
    size: int = 0

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class Label:
    """Symbolic operand, resolved by the assembler/rewriter.

    ``addend`` supports ``sym+4`` style references.  When used as a
    branch target it resolves to a relative displacement; when used as
    an immediate or displacement it resolves through a relocation.
    """

    name: str
    addend: int = 0

    def __str__(self):
        if self.addend:
            sign = "+" if self.addend >= 0 else "-"
            return f"{self.name}{sign}{abs(self.addend)}"
        return self.name


@dataclass(frozen=True)
class Mem:
    """Memory operand ``size ptr [base + index*scale + disp]``.

    ``disp`` may be an int or a :class:`Label` (resolved before
    encoding).  RIP-relative references use ``base=RIP`` and carry the
    target in ``disp`` (int offset after resolution).
    """

    base: Optional[Register] = None
    index: Optional[Register] = None
    scale: int = 1
    disp: Union[int, Label] = 0
    size: int = 8

    def __post_init__(self):
        if self.scale not in (1, 2, 4, 8):
            raise ValueError(f"invalid scale {self.scale}")
        if self.index is not None and self.index.name == "rsp":
            raise ValueError("rsp cannot be an index register")

    @property
    def is_rip_relative(self) -> bool:
        return self.base is RIP

    def __str__(self):
        size_name = {1: "byte", 2: "word", 4: "dword", 8: "qword"}[self.size]
        parts = []
        if self.base is not None:
            parts.append(self.base.name)
        if self.index is not None:
            part = self.index.name
            if self.scale != 1:
                part += f"*{self.scale}"
            parts.append(part)
        disp = self.disp
        if isinstance(disp, Label):
            parts.append(str(disp))
        elif disp or not parts:
            parts.append(str(disp))
        body = ""
        for i, part in enumerate(parts):
            if i and not part.startswith("-"):
                body += "+"
            body += part
        return f"{size_name} ptr [{body}]"


Operand = Union[Reg, Imm, Mem, Label]


def is_symbolic(operand: Operand) -> bool:
    """True for a :class:`Label` or a memory operand displaced by one."""
    return isinstance(operand, Label) or (
        isinstance(operand, Mem) and isinstance(operand.disp, Label))
