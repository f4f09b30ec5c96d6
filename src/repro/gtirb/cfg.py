"""Control-flow graph over GTIRB code blocks.

Edge kinds follow GTIRB: ``fallthrough``, ``branch`` (direct jump,
conditional or not), ``call``, ``return``, ``indirect``.  The CFG drives
the flag-liveness analysis used by the patcher and the Fig. 4/5 CFG
benches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.gtirb.ir import CodeBlock, Module
from repro.isa.insn import Mnemonic
from repro.isa.operands import Imm


@dataclass(frozen=True)
class Edge:
    src: CodeBlock
    dst: Optional[CodeBlock]  # None for unresolved (indirect) targets
    kind: str                 # fallthrough | branch | call | return | indirect

    def __repr__(self):
        def name(block):
            if block is None:
                return "?"
            return f"{block.address:#x}" if block.address is not None \
                else f"blk{block.uid}"
        return f"Edge({name(self.src)} -{self.kind}-> {name(self.dst)})"


class CFG:
    """Adjacency over code blocks."""

    def __init__(self):
        self.edges: list[Edge] = []
        self._succ: dict[int, list[Edge]] = {}
        self._pred: dict[int, list[Edge]] = {}

    def add(self, edge: Edge):
        self.edges.append(edge)
        self._succ.setdefault(edge.src.uid, []).append(edge)
        if edge.dst is not None:
            self._pred.setdefault(edge.dst.uid, []).append(edge)

    def successors(self, block: CodeBlock) -> list[Edge]:
        return self._succ.get(block.uid, [])

    def predecessors(self, block: CodeBlock) -> list[Edge]:
        return self._pred.get(block.uid, [])

    def to_dot(self, module: Module) -> str:
        """Graphviz rendering (used by the Fig. 4/5 benches)."""
        lines = ["digraph cfg {", "  node [shape=box fontname=monospace];"]

        def label(block):
            syms = module.symbols_for(block)
            title = syms[0].name if syms else (
                f"{block.address:#x}" if block.address is not None
                else f"blk{block.uid}")
            body = "\\l".join(str(e.insn) for e in block.entries)
            return f"{title}\\l----\\l{body}\\l"

        blocks = {b.uid: b for b in module.code_blocks()}
        for uid, block in blocks.items():
            lines.append(f'  b{uid} [label="{label(block)}"];')
        for edge in self.edges:
            if edge.dst is None:
                continue
            style = {"fallthrough": "dashed", "call": "dotted"}.get(
                edge.kind, "solid")
            lines.append(
                f"  b{edge.src.uid} -> b{edge.dst.uid} "
                f'[style={style} label="{edge.kind}"];')
        lines.append("}")
        return "\n".join(lines)


def build_cfg(module: Module) -> CFG:
    """Construct the CFG from block order + symbolic branch targets."""
    cfg = CFG()
    for section in module.sections:
        if "x" not in section.flags:
            continue
        blocks = section.code_blocks()
        order = {b.uid: i for i, b in enumerate(blocks)}
        for block in blocks:
            terminator = block.terminator()
            next_block = (blocks[order[block.uid] + 1]
                          if order[block.uid] + 1 < len(blocks) else None)
            if terminator is None:
                if next_block is not None:
                    cfg.add(Edge(block, next_block, "fallthrough"))
                continue
            insn = terminator.insn
            target = _direct_target(terminator)
            if insn.mnemonic is Mnemonic.JMP:
                if target is not None:
                    cfg.add(Edge(block, target, "branch"))
                else:
                    cfg.add(Edge(block, None, "indirect"))
            elif insn.mnemonic is Mnemonic.JCC:
                if target is not None:
                    cfg.add(Edge(block, target, "branch"))
                else:
                    cfg.add(Edge(block, None, "indirect"))
                if next_block is not None:
                    cfg.add(Edge(block, next_block, "fallthrough"))
            elif insn.mnemonic is Mnemonic.CALL:
                cfg.add(Edge(block, target, "call"))
                if next_block is not None:
                    cfg.add(Edge(block, next_block, "fallthrough"))
            elif insn.mnemonic is Mnemonic.RET:
                cfg.add(Edge(block, None, "return"))
            # hlt/ud2/int3: no successors
    return cfg


def _direct_target(entry) -> Optional[CodeBlock]:
    expr = entry.sym_operands.get(0)
    if expr is not None and isinstance(expr.symbol.referent, CodeBlock):
        return expr.symbol.referent
    if entry.insn.operands and isinstance(entry.insn.operands[0], Imm):
        return None  # direct but unsymbolized (shouldn't happen post-recovery)
    return None
