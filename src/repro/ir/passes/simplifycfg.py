"""CFG cleanup: unreachable blocks, constant branches, block merging."""

from __future__ import annotations

from repro.ir.instructions import Br, CondBr
from repro.ir.module import Function
from repro.ir.values import Constant


def simplify_cfg(function: Function) -> bool:
    changed = False
    changed |= _fold_constant_branches(function)
    changed |= _remove_unreachable(function)
    changed |= _merge_straight_lines(function)
    return changed


def _fold_constant_branches(function: Function) -> bool:
    changed = False
    for block in function.blocks:
        terminator = block.terminator
        if isinstance(terminator, CondBr) and \
                isinstance(terminator.cond, Constant):
            taken = (terminator.if_true if terminator.cond.unsigned
                     else terminator.if_false)
            dropped = (terminator.if_false if terminator.cond.unsigned
                       else terminator.if_true)
            terminator.erase()
            block.append(Br(taken))
            if dropped is not taken:
                for phi in dropped.phis():
                    phi.remove_incoming(block)
            changed = True
    return changed


def _remove_unreachable(function: Function) -> bool:
    reachable = set()
    stack = [function.entry]
    while stack:
        block = stack.pop()
        if id(block) in reachable:
            continue
        reachable.add(id(block))
        stack.extend(block.successors())
    dead = [b for b in function.blocks if id(b) not in reachable]
    for block in dead:
        for successor in block.successors():
            if id(successor) in reachable:
                for phi in successor.phis():
                    phi.remove_incoming(block)
        function.remove_block(block)
    return bool(dead)


def _merge_straight_lines(function: Function) -> bool:
    changed = False
    # kept current across merges: the survivor takes the absorbed
    # block's place among its successors' predecessors
    predecessors = function.predecessor_map()
    progress = True
    while progress:
        progress = False
        for block in list(function.blocks):
            terminator = block.terminator
            if not isinstance(terminator, Br):
                continue
            successor = terminator.target
            if successor is block or successor is function.entry:
                continue
            if len(predecessors[id(successor)]) != 1:
                continue
            if successor.phis():
                for phi in successor.phis():
                    value = phi.incoming_for(block)
                    phi.replace_all_uses_with(value)
                    phi.erase()
            terminator.erase()
            # merging adjacent guest blocks extends the survivor's
            # guest extent, keeping block-level provenance contiguous
            if block.guest_address is not None and \
                    successor.guest_address is not None and \
                    not (block.guest_derived or
                         successor.guest_derived) and \
                    block.guest_address + block.guest_size == \
                    successor.guest_address:
                block.guest_size += successor.guest_size
            moved, successor.instructions = successor.instructions, []
            for instruction in moved:
                block.append(instruction)
            # successors of the merged block may hold phi references
            for next_block in dict.fromkeys(block.successors()):
                for phi in next_block.phis():
                    phi.replace_incoming_block(successor, block)
                preds = predecessors[id(next_block)]
                preds[preds.index(successor)] = block
            del predecessors[id(successor)]
            function.remove_block(successor)
            progress = True
            changed = True
    return changed
