"""Superblock carving: a straight-line run plus an optional terminator.

A superblock is keyed by its static start address, so one compilation
serves *every* visit that reaches the address while the underlying code
bytes are unchanged (the compiler's coherence hooks evict blocks that
self-modifying code touches).  The body may only contain instructions
whose register/memory dataflow the lifter models bit-exactly; anything
flag-*reading*, privileged, or indirect ends the block.

Direct ``jmp``/``jcc``/``call``/``ret`` are compiled in as the block
terminator: the next PC is computed from exact committed flags (``jcc``)
or exact stack traffic (``call``/``ret``), which keeps hot loop bodies
inside the compiled tier instead of bouncing to the precise stepper on
every back edge.  The flag readers of the countermeasure idioms —
``setcc r8``, ``pushfq``, ``popfq`` (the patcher's Table I-III patterns,
the hybrid lowering's materialized conditions) — terminate a block the
same way, reading the replayed flags at its end.

A flag reader never enters a *body*.  The body's flag markers are
pruned to the live tail assuming every flag is read at the block's
end, and the JIT's DCE drops guest loads that only fed pruned markers
(the known load-elision defect, ``tests/test_known_defects.py``); a
reader mid-body would change which markers are pruned, and with them
which loads, and so the campaign reports.
"""

from __future__ import annotations

from repro.errors import DecodingError, EmulationError
from repro.isa.insn import Instruction, Mnemonic
from repro.isa.operands import Imm, Mem, Reg

#: Upper bound on body length; superblocks this long amortize the
#: per-block dispatch overhead while keeping compile time per block low.
MAX_BODY = 32

_TWO_OPERAND = {
    Mnemonic.MOV, Mnemonic.ADD, Mnemonic.SUB, Mnemonic.CMP,
    Mnemonic.AND, Mnemonic.OR, Mnemonic.XOR, Mnemonic.TEST,
    Mnemonic.IMUL, Mnemonic.SHL, Mnemonic.SHR, Mnemonic.SAR,
}
_ONE_OPERAND = {
    Mnemonic.INC, Mnemonic.DEC, Mnemonic.NEG, Mnemonic.NOT,
    Mnemonic.PUSH, Mnemonic.POP,
}


def compilable_body(insn: Instruction) -> bool:
    """Can ``insn`` be part of a superblock body?"""
    mnemonic = insn.mnemonic
    operands = insn.operands
    if mnemonic is Mnemonic.NOP:
        return True
    if mnemonic in _TWO_OPERAND:
        return len(operands) == 2
    if mnemonic is Mnemonic.MOVZX:
        return len(operands) == 2 and isinstance(operands[0], Reg)
    if mnemonic is Mnemonic.LEA:
        return (len(operands) == 2 and isinstance(operands[0], Reg)
                and isinstance(operands[1], Mem))
    if mnemonic in _ONE_OPERAND:
        return len(operands) == 1
    return False


def compilable_terminator(insn: Instruction) -> bool:
    """Can ``insn`` terminate a superblock with a computed next-PC?"""
    mnemonic = insn.mnemonic
    if mnemonic in (Mnemonic.JMP, Mnemonic.JCC, Mnemonic.CALL):
        return (len(insn.operands) == 1
                and isinstance(insn.operands[0], Imm))
    if mnemonic in (Mnemonic.RET, Mnemonic.PUSHFQ, Mnemonic.POPFQ):
        return not insn.operands
    if mnemonic is Mnemonic.SETCC:
        return (len(insn.operands) == 1
                and isinstance(insn.operands[0], Reg))
    return False


def carve(machine, address: int):
    """Decode the superblock starting at ``address``.

    Returns ``(body, terminator)`` where ``body`` is a (possibly empty)
    list of straight-line instructions and ``terminator`` is a direct
    branch instruction or ``None``.  Decoding shares ``fetch_decode``'s
    cache, so carving doubles as a cache warmer.
    """
    body: list[Instruction] = []
    terminator = None
    cursor = address
    while len(body) < MAX_BODY:
        try:
            insn = machine.fetch_decode(cursor)
        except (DecodingError, EmulationError):
            break
        if compilable_body(insn):
            body.append(insn)
            cursor = insn.address + insn.length
            continue
        if compilable_terminator(insn):
            terminator = insn
        break
    return body, terminator
