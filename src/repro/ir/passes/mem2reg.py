"""Promote non-escaping allocas to SSA registers.

Classic SSA construction: phi placement on iterated dominance frontiers
followed by a dominator-tree renaming walk.  This is the pass that turns
the lifter's explicit guest-state slots (registers, flags) into clean
SSA values the branch-hardening pass can work with.
"""

from __future__ import annotations

from repro.ir.instructions import Alloca, Load, Phi, Store
from repro.ir.module import BasicBlock, Function
from repro.ir.values import Undef
from repro.ir.verifier import _dom_tree


def _promotable(alloca: Alloca) -> bool:
    for user in alloca.users:
        if isinstance(user, Load):
            continue
        if isinstance(user, Store) and user.pointer is alloca and \
                user.value is not alloca:
            continue
        return False
    return True


def mem2reg(function: Function) -> bool:
    allocas = [i for i in function.entry.instructions
               if isinstance(i, Alloca) and _promotable(i)]
    if not allocas:
        return False

    # phi insertion leaves the CFG as it is: one predecessor map serves
    predecessors = function.predecessor_map()
    idom = _dom_tree(function, predecessors)
    reachable = set(idom)
    children: dict[int, list[BasicBlock]] = {}
    for block in function.blocks:
        if id(block) not in idom:
            continue
        parent = idom[id(block)]
        if parent is not block:
            children.setdefault(id(parent), []).append(block)

    frontiers = _dominance_frontiers(function, idom, predecessors)

    # --- phi placement ---------------------------------------------------
    phi_sites: dict[int, dict[int, Phi]] = {id(a): {} for a in allocas}
    for alloca in allocas:
        work = [user.parent for user in alloca.users
                if isinstance(user, Store)]
        placed: set[int] = set()
        while work:
            block = work.pop()
            for frontier_block in frontiers.get(id(block), {}).values():
                if id(frontier_block) in placed or \
                        id(frontier_block) not in reachable:
                    continue
                placed.add(id(frontier_block))
                phi = Phi(alloca.allocated_type,
                          function.fresh_name(alloca.name or "m2r"))
                frontier_block.insert(0, phi)
                phi_sites[id(alloca)][id(frontier_block)] = phi
                work.append(frontier_block)

    phi_owner = {
        id(phi): alloca
        for alloca in allocas
        for phi in phi_sites[id(alloca)].values()
    }

    # --- renaming walk over the dominator tree ------------------------------
    # explicit stack, children pushed in reverse: the same preorder a
    # recursive walk takes, so phi incoming order does not depend on it;
    # incoming maps id(alloca) -> its current value
    incoming_keys = {id(a) for a in allocas}
    stack = [(function.entry, {})]
    while stack:
        block, incoming = stack.pop()
        incoming = dict(incoming)
        for instruction in block.instructions:
            if isinstance(instruction, Load):
                slot = id(instruction.pointer)
                if slot in incoming_keys:
                    value = incoming.get(slot)
                    if value is None:
                        value = Undef(instruction.type)
                    instruction.replace_all_uses_with(value)
                    instruction.unlink()
            elif isinstance(instruction, Store):
                slot = id(instruction.pointer)
                if slot in incoming_keys:
                    incoming[slot] = instruction.value
                    instruction.unlink()
            elif isinstance(instruction, Phi) and \
                    id(instruction) in phi_owner:
                incoming[id(phi_owner[id(instruction)])] = instruction
        block.purge_unlinked()
        for successor in block.successors():
            for phi in successor.phis():
                alloca = phi_owner.get(id(phi))
                if alloca is None:
                    continue
                value = incoming.get(id(alloca))
                if value is None:
                    value = Undef(phi.type)
                phi.add_incoming(value, block)
        for child in reversed(children.get(id(block), ())):
            stack.append((child, incoming))

    for alloca in allocas:
        alloca.unlink()
    function.entry.purge_unlinked()
    return True


def _dominance_frontiers(function: Function, idom, predecessors) -> dict:
    """``{id(block): {id(frontier block): block}}``, in discovery order."""
    frontiers: dict[int, dict[int, BasicBlock]] = {}
    for block in function.blocks:
        if id(block) not in idom:
            continue
        preds = [p for p in predecessors[id(block)] if id(p) in idom]
        if len(preds) < 2:
            continue
        for pred in preds:
            runner = pred
            while runner is not idom[id(block)]:
                frontiers.setdefault(id(runner), {})[id(block)] = block
                runner = idom[id(runner)]
    return frontiers
