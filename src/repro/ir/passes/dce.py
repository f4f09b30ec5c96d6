"""Dead code elimination: drop unused, side-effect-free instructions."""

from __future__ import annotations

from repro.ir.instructions import Load
from repro.ir.module import Function


def dce(function: Function, *, remove_dead_loads: bool = True) -> bool:
    """Iteratively remove values nobody uses."""
    changed = False
    progress = True
    while progress:
        progress = False
        for block in function.blocks:
            erased = False
            for instruction in reversed(block.instructions):
                if instruction.is_terminator:
                    continue
                if instruction.has_side_effects():
                    continue
                if isinstance(instruction, Load) and not remove_dead_loads:
                    continue
                if instruction.uses:
                    continue
                instruction.unlink()
                erased = True
            if erased:
                block.purge_unlinked()
                progress = True
                changed = True
    return changed
