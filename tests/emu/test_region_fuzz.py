"""Tier agreement on hot loops: compiled regions against the precise CPU.

Seeded random loops, built through ``repro.asm``, run far enough that
their cycle becomes a region (``REGION_VISITS`` visits of its head),
then get their step budget cut at every offset of one iteration.  At
each cut the compiled machine must equal the precise one: registers,
rip, RFLAGS, the bytes the run changed (its memory journal) and the
error the run ended with.

The loops mix ALU ops and compares (the partial flag writers
``inc``/``dec`` among them), shifts by 0, 1, n and ``cl``, ``setcc``,
``pushfq``/``popfq``, byte and qword loads and stores, forward
branches inside the body, one load that faults on a chosen iteration
and one store into the loop's own code on another.

Tier-1 runs ``PROGRAMS`` programs from a fixed seed; set
``REGION_FUZZ_PROGRAMS`` to run more.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.asm import assemble
from repro.emu.flagops import PARITY_TABLE, Flags
from repro.emu.jit import TraceCompiler
from repro.emu.jit.codegen import _lazy_flag, _marker_defines
from repro.emu.jit.compiler import REGION_VISITS
from repro.emu.machine import Machine
from repro.isa.cond import Cond

SEED = 20261020
PROGRAMS = int(os.environ.get("REGION_FUZZ_PROGRAMS", "50"))

#: Iterations of every loop; the cuts fall in iteration ``CUT``, after
#: the region has formed.
ITERATIONS = REGION_VISITS + 8
CUT = REGION_VISITS + 3

#: Registers the random body may write, by width.  r13 (fault and
#: store addresses), r14 (data base), r15 (loop index) and rsp stay out.
REGS = {8: ["rax", "rbx", "rcx", "rdx", "rsi", "rdi", "r8", "r9"],
        4: ["eax", "ebx", "ecx", "edx", "esi", "edi", "r8d", "r9d"],
        1: ["al", "bl", "cl", "dl", "sil", "dil"]}
CONDS = [cond.suffix for cond in Cond]
DATA = 128            # bytes of random data the body loads and stores
UNMAPPED = 1 << 40    # an offset from the data base nothing maps


class _Program:
    """One random loop: its source, and the iterations that fault."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.labels = 0
        self.fault_at = rng.choice([CUT, CUT, rng.randrange(ITERATIONS),
                                    None])
        self.store_at = rng.choice([CUT, rng.randrange(ITERATIONS),
                                    None, None])
        body = [self._segment() for _ in range(rng.randrange(1, 4))]
        special = ["    mov r13, qword ptr [r14+r15*8+FAULTS]",
                   f"    mov {self._reg(8)}, qword ptr [r14+r13+"
                   f"{rng.randrange(0, DATA - 8)}]"]
        special += ["    mov r13, qword ptr [r14+r15*8+STORES]",
                    f"    mov byte ptr [r13], {self._reg(1)}"]
        body.insert(rng.randrange(len(body) + 1), special)
        lines = [".text", ".global _start", "_start:",
                 "    lea r14, [rel data]", "    xor r15d, r15d"]
        lines += [f"    mov {reg}, {rng.getrandbits(64)}"
                  for reg in REGS[8]]
        lines += ["loop:"]
        for segment in body:
            lines += segment
        lines += ["site:", f"    add rbx, {rng.randrange(1, 100)}"]
        lines += rng.choice([
            ["    inc r15", f"    cmp r15, {ITERATIONS}", "    jne loop"],
            ["    add r15, 1", f"    cmp r15, {ITERATIONS}",
             "    jb loop"],
        ])
        lines += ["    mov rdi, rax", "    mov eax, 60", "    syscall"]
        data = [rng.randrange(256) for _ in range(DATA)]
        faults = [UNMAPPED if i == self.fault_at else 0
                  for i in range(ITERATIONS)]
        stores = ["site" if i == self.store_at else "scratch"
                  for i in range(ITERATIONS)]
        lines += [".data", "data:",
                  "    .byte " + ", ".join(map(str, data))]
        lines += [f"    .quad {value}" for value in faults]
        lines += [f"    .quad {label}" for label in stores]
        lines += ["scratch:", "    .quad 0"]
        source = "\n".join(lines)
        source = source.replace("FAULTS", str(DATA))
        self.source = source.replace("STORES", str(DATA + 8 * ITERATIONS))

    def _reg(self, width: int) -> str:
        return self.rng.choice(REGS[width])

    def _line(self) -> list:
        rng = self.rng
        width = rng.choice((8, 8, 4, 1))
        dst, src = self._reg(width), self._reg(width)
        imm = str(rng.randrange(256) if width == 1 else rng.randrange(1000))
        shift = rng.choice(["0", "1", str(rng.randrange(2, 70)), "cl"])
        offset = rng.randrange(DATA - 8)
        choices = [
            [f"{rng.choice(['add', 'sub', 'and', 'or', 'xor', 'cmp', 'test'])}"
             f" {dst}, {rng.choice([src, imm])}"],
            [f"{rng.choice(['inc', 'dec'])} {dst}"],
            [f"{rng.choice(['inc', 'dec', 'neg', 'not'])} {dst}"],
            [f"{rng.choice(['shl', 'shr', 'sar'])} {dst}, {shift}"],
            [f"mov {dst}, {rng.choice([src, imm])}"],
            [f"mov {self._reg(8)}, qword ptr [r14+{offset}]"],
            [f"movzx {self._reg(4)}, byte ptr [r14+{offset}]"],
            [f"mov qword ptr [r14+{offset}], {self._reg(8)}"],
            [f"mov byte ptr [r14+{offset}], {self._reg(1)}"],
            [f"set{rng.choice(CONDS)} {self._reg(1)}"],
            ["pushfq", f"pop {self._reg(8)}"],
            [f"push {self._reg(8)}", "popfq"],
        ]
        if width != 1:
            choices.append([f"imul {dst}, {src}"])
        return rng.choice(choices)

    def _segment(self) -> list:
        """Straight-line lines, perhaps skipped by a forward branch."""
        rng = self.rng
        lines = []
        for _ in range(rng.randrange(1, 7)):
            lines += [f"    {line}" for line in self._line()]
        if rng.random() < 0.4:
            self.labels += 1
            label = f"skip{self.labels}"
            cut = rng.randrange(len(lines) + 1)
            lines[cut:cut] = [f"    j{rng.choice(CONDS)} {label}"]
            lines.append(f"{label}:")
        return lines


def _machine(image) -> Machine:
    machine = Machine(image)
    text = image.section(".text")
    # the loop's own code must be writable for its self-modifying store
    machine.memory.map(text.addr, len(text.data), "rwx")
    machine.memory.journal_begin()
    return machine


def _run(image, limit: int, compiled: bool):
    machine = _machine(image)
    compiler = TraceCompiler().attach(machine) if compiled else None
    result = machine.run(max_steps=limit)
    cpu = machine.cpu
    state = (tuple(cpu.regs), cpu.rip, cpu.flags.to_rflags(),
             machine.memory.journal_changes(), result.reason,
             result.exit_code, result.crash_detail, result.steps)
    return state, compiler


def _cuts(image) -> range:
    """Every step offset of iteration ``CUT`` (of the last iteration
    the precise run reaches, if it ends sooner)."""
    machine = _machine(image)
    result = machine.run(max_steps=ITERATIONS * 200, record_trace=True)
    head = image.symbol("loop").value
    starts = [step for step, rip in enumerate(result.trace) if rip == head]
    starts.append(len(result.trace))
    index = min(CUT, len(starts) - 2)
    return range(starts[index], starts[index + 1] + 1)


_PROGRAMS = [_Program(random.Random(f"{SEED}/{index}"))
             for index in range(PROGRAMS)]


@pytest.mark.parametrize("index", range(PROGRAMS))
def test_region_matches_precise_at_every_cut(index):
    program = _PROGRAMS[index]
    image = assemble(program.source)
    region_steps = 0
    for limit in _cuts(image):
        precise, _ = _run(image, limit, compiled=False)
        compiled, compiler = _run(image, limit, compiled=True)
        assert compiled == precise, (limit, program.source)
        region_steps = max(region_steps, compiler.region_steps)
    if program.fault_at is None or program.fault_at >= CUT:
        if program.store_at is None or program.store_at >= CUT:
            # nothing stopped the loop early: its region ran
            assert region_steps > 0, program.source


def test_lazy_flags_match_flagops():
    """Each flag a region reads straight from a marker equals what the
    marker's ``Flags.set_*`` method sets, on random operands at every
    width; a flag the marker may leave alone is never read from it."""
    rng = random.Random(SEED)
    methods = {"logic": "set_logic_result", "add": "set_add",
               "sub": "set_sub", "inc": "set_inc", "dec": "set_dec",
               "neg": "set_neg", "imul": "set_imul", "shl": "set_shl",
               "shr": "set_shr", "sar": "set_sar"}
    arity = {"logic": 1, "inc": 1, "dec": 1, "neg": 1}
    for _ in range(300):
        for kind, method in methods.items():
            bits = rng.choice((8, 16, 32, 64))
            mask = (1 << bits) - 1
            values = [rng.choice((0, 1, mask, mask >> 1, (mask >> 1) + 1,
                                  rng.getrandbits(bits)))
                      for _ in range(arity.get(kind, 2))]
            if kind in ("shl", "shr", "sar"):
                values[1] = rng.choice((0, 1, 2, bits - 1, bits, 33, 63,
                                        rng.randrange(256)))
            args = [repr(value) for value in values]
            _, definite = _marker_defines(kind, args, bits)
            for initial in (0, 0xFFF):
                flags = Flags()
                flags.from_rflags(initial)
                getattr(flags, method)(*values, bits)
                for name in definite:
                    expr = _lazy_flag(kind, args, bits, name)
                    got = eval(expr, {"_PT": PARITY_TABLE})
                    assert got == getattr(flags, name), (kind, values,
                                                         bits, name)
                before = Flags()
                before.from_rflags(initial)
                for name in {"cf", "pf", "af", "zf", "sf", "of"} - definite:
                    assert getattr(flags, name) == getattr(before, name)


def test_evicting_a_member_evicts_its_region():
    """A write to any member's bytes drops the region from its head and
    frees every member to join another; the run still ends as the
    precise one does."""
    image = assemble("\n".join([
        ".text", ".global _start", "_start:", "    mov ecx, 200",
        "loop:", "    add rax, rcx", "    test rcx, 1", "    je skip",
        "member:", "    inc rbx",
        "skip:", "    dec ecx", "    jne loop",
        "    mov rdi, rbx", "    mov eax, 60", "    syscall"]))
    machine = Machine(image)
    compiler = TraceCompiler().attach(machine)
    machine.run(max_steps=REGION_VISITS * 6)
    assert compiler.regions == 1 and compiler.region_steps > 0
    heads = [block for block in compiler._blocks.values()
             if block is not None and block.region is not None]
    assert len(heads) == 1
    region = heads[0].region
    members = [compiler._blocks[start] for start, _ in region.spans]
    assert all(member.member_of is region for member in members)
    address = image.symbol("member").value
    machine.memory.poke(address, machine.memory.peek(address, 1))
    assert all(member.region is None and member.member_of is None
               for member in members)
    result = machine.run()
    precise = Machine(image)
    expected = precise.run()
    assert (result.exit_code, machine.cpu.regs) == \
        (expected.exit_code, precise.cpu.regs)
