"""IR containers: module, function, basic block."""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from repro.errors import IRError
from repro.ir.instructions import Instruction, Phi
from repro.ir.types import FunctionType
from repro.ir.values import Argument, Value


class BasicBlock(Value):
    """A label + straight-line instruction list ending in a terminator."""

    def __init__(self, name: str = ""):
        super().__init__("label", name)
        self.parent: Optional[Function] = None
        self.instructions: list[Instruction] = []
        # guest provenance metadata (set by the lifter, propagated by
        # transforms): the original address/extent this block lifts,
        # and whether the block is countermeasure code *derived* from
        # that guest block rather than a translation of it
        self.guest_address: Optional[int] = None
        self.guest_size: int = 0
        self.guest_derived: bool = False

    def set_guest_origin(self, address: Optional[int], size: int = 0,
                         derived: bool = False) -> None:
        """Attach (or propagate) guest provenance metadata."""
        self.guest_address = address
        self.guest_size = size
        self.guest_derived = derived

    def copy_guest_origin(self, other: "BasicBlock",
                          derived: bool = True) -> None:
        """Inherit another block's guest origin (for inserted blocks)."""
        self.set_guest_origin(other.guest_address, other.guest_size,
                              derived=derived or other.guest_derived)

    # -- structure -----------------------------------------------------------

    def append(self, instruction: Instruction) -> Instruction:
        instruction.parent = self
        self.instructions.append(instruction)
        return instruction

    def insert(self, index: int, instruction: Instruction) -> Instruction:
        instruction.parent = self
        self.instructions.insert(index, instruction)
        return instruction

    def purge_unlinked(self) -> None:
        """Drop every instruction :meth:`Instruction.unlink` detached."""
        self.instructions[:] = [instruction
                                for instruction in self.instructions
                                if instruction.parent is self]

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def successors(self) -> list["BasicBlock"]:
        terminator = self.terminator
        return terminator.successors() if terminator else []

    def phis(self) -> list[Phi]:
        return [i for i in self.instructions if isinstance(i, Phi)]

    def non_phi_index(self) -> int:
        for index, instruction in enumerate(self.instructions):
            if not isinstance(instruction, Phi):
                return index
        return len(self.instructions)

    def short_name(self) -> str:
        return f"%{self.name}"

    def __repr__(self):
        return f"BasicBlock({self.name}, {len(self.instructions)} insns)"


class Function(Value):
    """A function: arguments + ordered basic blocks."""

    def __init__(self, name: str, ftype: FunctionType,
                 arg_names: Iterable[str] = ()):
        super().__init__(ftype, name)
        self.blocks: list[BasicBlock] = []
        names = list(arg_names)
        self.args = [
            Argument(param, names[i] if i < len(names) else f"arg{i}", i)
            for i, param in enumerate(ftype.params)
        ]
        self._name_counter = itertools.count()

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def add_block(self, name: str = "",
                  after: Optional[BasicBlock] = None) -> BasicBlock:
        block = BasicBlock(name or self.fresh_name("bb"))
        block.parent = self
        if after is None:
            self.blocks.append(block)
        else:
            self.blocks.insert(self.blocks.index(after) + 1, block)
        return block

    def remove_block(self, block: BasicBlock):
        for instruction in list(block.instructions):
            instruction.drop_operands()
        self.blocks.remove(block)
        block.parent = None

    def predecessor_map(self) -> dict[int, list[BasicBlock]]:
        """``{id(block): predecessors}`` from one sweep over the CFG.

        Each list holds a block's distinct predecessors in
        ``self.blocks`` order (a branch naming one target twice counts
        once); every block has an entry.  Passes that edit the CFG keep
        the map current themselves instead of rebuilding it.
        """
        predecessors: dict[int, list[BasicBlock]] = {
            id(block): [] for block in self.blocks}
        for block in self.blocks:
            for successor in dict.fromkeys(block.successors()):
                predecessors.setdefault(id(successor), []).append(block)
        return predecessors

    def fresh_name(self, prefix: str = "v") -> str:
        return f"{prefix}{next(self._name_counter)}"

    def instructions(self):
        for block in self.blocks:
            yield from block.instructions

    def instruction_count(self) -> int:
        return sum(len(b.instructions) for b in self.blocks)

    def release(self) -> None:
        """Break the IR's reference cycles, leaving the function empty.

        Use-def lists, operand lists and parent links make every
        function a web of cycles that only the cyclic collector would
        reclaim; once nothing reads the IR any more, clearing them
        lets reference counting free it at once.
        """
        for argument in self.args:
            argument.uses = []
        for block in self.blocks:
            for instruction in block.instructions:
                instruction._operands = []
                instruction.uses = []
                instruction.parent = None
            block.instructions = []
            block.uses = []
            block.parent = None
        self.blocks = []

    def renumber(self):
        """Assign sequential names to unnamed values (pre-printing)."""
        counter = itertools.count()
        for block in self.blocks:
            if not block.name:
                block.name = f"bb{next(counter)}"
        for instruction in self.instructions():
            if instruction.type != "label" and \
                    str(instruction.type) != "void" and \
                    not instruction.name:
                instruction.name = f"t{next(counter)}"


class IRModule:
    """A translation unit: functions + named intrinsic declarations."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: list[Function] = []
        self.aux: dict = {}

    def add_function(self, function: Function) -> Function:
        self.functions.append(function)
        return function

    def function(self, name: str) -> Function:
        for function in self.functions:
            if function.name == name:
                return function
        raise KeyError(f"no function named {name!r}")
