"""Op-count guards: CFG analyses do work linear in the function.

The verifier and the CFG-editing passes share one predecessor map per
run (``Function.predecessor_map``).  These guards count successor
queries on a large synthetic function and time nothing; a per-block
predecessor scan would make quadratically many and trips the budget
early instead of running to the end.
"""

import pytest

from repro.ir import Function, FunctionType, I64, IRBuilder, verify
from repro.ir.module import BasicBlock
from repro.ir.passes import simplify_cfg
from repro.lower.isel import split_critical_edges


def _chain(units: int) -> Function:
    """Alternating diamonds and triangles, joined by straight links.

    Every join holds a phi; a triangle's edge from its head straight
    into the join is critical.  Four blocks (diamond) or three
    (triangle) per unit, plus the entry and the exit.
    """
    fn = Function("f", FunctionType("void", ()))
    head = fn.add_block("entry")
    b = IRBuilder(head)
    value = b.add(b.i64(0), b.i64(1))
    for unit in range(units):
        b.set_block(head)
        left = fn.add_block()
        right = fn.add_block() if unit % 2 == 0 else None
        join = fn.add_block()
        b.condbr(b.icmp("ne", value, b.i64(unit)), left, right or join)
        b.set_block(left)
        b.br(join)
        if right is not None:
            b.set_block(right)
            b.br(join)
        b.set_block(join)
        phi = b.phi(I64)
        phi.add_incoming(value, left)
        phi.add_incoming(b.i64(unit), right or head)
        value = b.add(phi, b.i64(1))
        head = fn.add_block()
        b.br(head)
    b.set_block(head)
    b.ret()
    return fn


UNITS = 572  # about 2,000 blocks


def _edges(fn: Function) -> int:
    return sum(len(set(block.successors())) for block in fn.blocks)


@pytest.fixture
def successor_budget(monkeypatch):
    """Count ``BasicBlock.successors`` calls; fail past the budget."""
    original = BasicBlock.successors
    state = {"calls": 0, "budget": None}

    def counting(self):
        state["calls"] += 1
        if state["budget"] is not None and \
                state["calls"] > state["budget"]:
            raise AssertionError(
                f"more than {state['budget']} successor queries")
        return original(self)

    def arm(budget: int) -> dict:
        state["calls"], state["budget"] = 0, budget
        monkeypatch.setattr(BasicBlock, "successors", counting)
        return state

    return arm


def test_verify_makes_linear_successor_queries(successor_budget):
    fn = _chain(UNITS)
    blocks, edges = len(fn.blocks), _edges(fn)
    assert blocks > 2000
    state = successor_budget(2 * (blocks + edges))
    verify(fn)
    assert state["calls"] <= 3 * blocks


def test_cfg_passes_make_linear_successor_queries(successor_budget):
    fn = _chain(UNITS)
    triangles = UNITS // 2
    blocks, edges = len(fn.blocks), _edges(fn)
    successor_budget(2 * (blocks + edges))
    assert split_critical_edges(fn) == triangles
    successor_budget(4 * (blocks + edges))
    assert simplify_cfg(fn)
    # each join absorbed the link block that heads the next unit
    successor_budget(None)
    verify(fn)


def test_predecessor_map_orders_and_deduplicates():
    fn = Function("f", FunctionType("void", ()))
    entry, late, target = (fn.add_block(name)
                           for name in ("entry", "late", "target"))
    early = fn.add_block("early", after=entry)
    b = IRBuilder(entry)
    b.condbr(b.icmp("eq", b.i64(0), b.i64(0)), late, early)
    b.set_block(early)
    b.condbr(b.icmp("eq", b.i64(1), b.i64(0)), target, target)
    b.set_block(late)
    b.br(target)
    b.set_block(target)
    b.ret()
    predecessors = fn.predecessor_map()
    # function.blocks order (early before late), one entry per block
    assert predecessors[id(target)] == [early, late]
    assert predecessors[id(entry)] == []
    verify(fn)
