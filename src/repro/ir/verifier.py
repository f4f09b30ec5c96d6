"""IR structural and SSA-dominance verifier."""

from __future__ import annotations

from repro.errors import IRError
from repro.ir.instructions import Instruction, Phi
from repro.ir.module import BasicBlock, Function, IRModule
from repro.ir.values import Argument, Constant, Undef


def verify(target) -> None:
    """Verify a module or function; raises :class:`IRError` on failure."""
    if isinstance(target, IRModule):
        for function in target.functions:
            _verify_function(function)
        return
    _verify_function(target)


def _verify_function(function: Function):
    if not function.blocks:
        raise IRError(f"{function.name}: no basic blocks")
    block_set = set(map(id, function.blocks))

    for block in function.blocks:
        if not block.instructions:
            raise IRError(f"{function.name}/{block.name}: empty block")
        terminator = block.terminator
        if terminator is None:
            raise IRError(
                f"{function.name}/{block.name}: missing terminator")
        seen_non_phi = False
        for instruction in block.instructions:
            if instruction.is_terminator and instruction is not terminator:
                raise IRError(
                    f"{function.name}/{block.name}: terminator in the "
                    f"middle of the block")
            if not isinstance(instruction, Phi):
                seen_non_phi = True
            elif seen_non_phi:
                raise IRError(
                    f"{function.name}/{block.name}: phi after non-phi")
            if instruction.parent is not block:
                raise IRError(
                    f"{function.name}/{block.name}: bad parent link on "
                    f"{instruction.opcode}")
        for successor in block.successors():
            if id(successor) not in block_set:
                raise IRError(
                    f"{function.name}/{block.name}: successor "
                    f"{successor.name} not in function")

    _verify_phis(function)
    _verify_dominance(function)


def _verify_phis(function: Function):
    predecessors = {
        id(block): block.predecessors() for block in function.blocks}
    for block in function.blocks:
        preds = predecessors[id(block)]
        for phi in block.phis():
            incoming = phi.incoming_blocks
            if len(incoming) != len(preds):
                raise IRError(
                    f"{function.name}/{block.name}: phi has "
                    f"{len(incoming)} incoming, block has "
                    f"{len(preds)} predecessor(s)")
            for pred in preds:
                if phi.incoming_for(pred) is None:
                    raise IRError(
                        f"{function.name}/{block.name}: phi missing "
                        f"incoming for {pred.name}")


def _dom_tree(function: Function) -> dict:
    """Immediate-dominator map via iterative dataflow (Cooper et al.)."""
    # iterative depth-first postorder: a recursive closure would refer
    # to itself and leave a reference cycle behind every call
    order: list[BasicBlock] = []
    seen = {id(function.entry)}
    stack = [(function.entry, iter(function.entry.successors()))]
    while stack:
        block, successors = stack[-1]
        for successor in successors:
            if id(successor) not in seen:
                seen.add(id(successor))
                stack.append((successor, iter(successor.successors())))
                break
        else:
            stack.pop()
            order.append(block)
    order.reverse()  # reverse postorder
    index = {id(b): i for i, b in enumerate(order)}
    idom: dict[int, BasicBlock] = {id(function.entry): function.entry}

    def intersect(a, b):
        while a is not b:
            while index[id(a)] > index[id(b)]:
                a = idom[id(a)]
            while index[id(b)] > index[id(a)]:
                b = idom[id(b)]
        return a

    changed = True
    while changed:
        changed = False
        for block in order[1:]:
            preds = [p for p in block.predecessors() if id(p) in idom]
            if not preds:
                continue
            new_idom = preds[0]
            for pred in preds[1:]:
                new_idom = intersect(pred, new_idom)
            if idom.get(id(block)) is not new_idom:
                idom[id(block)] = new_idom
                changed = True
    return idom


def dominators(function: Function) -> dict:
    """Public dominance query: {id(block): set of dominator block ids}."""
    idom = _dom_tree(function)
    result: dict[int, set] = {}
    for block in function.blocks:
        if id(block) not in idom:
            result[id(block)] = set()  # unreachable
            continue
        doms = {id(block)}
        current = block
        while idom[id(current)] is not current:
            current = idom[id(current)]
            doms.add(id(current))
        result[id(block)] = doms
    return result


def _verify_dominance(function: Function):
    doms = dominators(function)
    positions = {}
    for block in function.blocks:
        for index, instruction in enumerate(block.instructions):
            positions[id(instruction)] = (block, index)
    if len(positions) != function.instruction_count():
        # the same-block fast path below relies on single placement
        raise IRError(f"{function.name}: instruction placed twice")

    for block in function.blocks:
        if not doms[id(block)]:
            continue  # unreachable block: skip SSA checks
        defined_here: set[int] = set()
        for index, instruction in enumerate(block.instructions):
            if isinstance(instruction, Phi):
                for value, pred in instruction.incoming():
                    _check_reaches(function, value, pred,
                                   len(pred.instructions), positions,
                                   doms, instruction)
            else:
                for value in instruction._operands:
                    # the common case inline: defined earlier in this
                    # block; everything else takes the full check
                    if id(value) not in defined_here:
                        _check_reaches(function, value, block, index,
                                       positions, doms, instruction)
            defined_here.add(id(instruction))


def _check_reaches(function, value, use_block, use_index, positions,
                   doms, user):
    if isinstance(value, (Constant, Argument, Undef, BasicBlock)):
        return
    if not isinstance(value, Instruction):
        return
    location = positions.get(id(value))
    if location is None:
        raise IRError(
            f"{function.name}: use of detached value in "
            f"{user.opcode} ({use_block.name})")
    def_block, def_index = location
    if def_block is use_block:
        if def_index >= use_index:
            raise IRError(
                f"{function.name}/{use_block.name}: {user.opcode} uses "
                f"value before its definition")
        return
    if id(def_block) not in doms[id(use_block)]:
        raise IRError(
            f"{function.name}/{use_block.name}: definition in "
            f"{def_block.name} does not dominate use in {use_block.name}")
