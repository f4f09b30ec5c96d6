"""The trace compiler: block cache, execution loop, coherence, stats.

Each compiler maps static start addresses to blocks, so one compilation
serves the baseline trace *and* every faulted suffix that passes
through the same code — which is where ~95% of campaign steps are
spent.  Below the per-compiler maps sits one process-wide map from a
block's code (the raw bytes of every carved instruction) to the
lowered step function, so every compiler in the process — each
executor of each campaign, the patcher loop's refaults, a forked
fleet worker — lifts and lowers a given code once.
A lowered block is position-independent (its exits are relative to
the start it reads from ``cpu.rip``), so the same code at another
address — zero padding reached by a faulted jump, a rewritten image's
shifted copy of the original — shares one entry.  Only a body with a
rip-relative operand, whose lowering folds an absolute address into
its IR, keys on its start address as well (:func:`_code_key`).  The
key is the code itself and lowering reads nothing else from the
image, so shared entries never go stale and need no coherence; the
per-compiler maps keep it, event-driven:

* ``on_exec_write`` (wired through ``Machine._on_exec_write``) evicts
  every block overlapping a write to executable memory (and the region
  holding it) and, if the write hit the running block or any member of
  the running region, aborts it with :class:`BlockInvalidated` so
  nothing stale commits;
* ``attach`` binds the compiler to a freshly constructed machine
  (pristine image) and is how one block cache survives the engine's
  machine resets: it evicts only blocks compiled while the image was
  dirty — a block compiled from pristine bytes is valid on every fresh
  machine, because any write that could have changed its bytes already
  evicted it when it happened.

Aborted blocks (guest fault or self-modification) roll back their
journaled memory writes and return control to the precise stepper,
which re-executes from the block entry and reproduces the exact
architectural crash state — compiled execution never commits partial
blocks.

A block that heads a cycle of compiled blocks runs, after
:data:`REGION_VISITS` visits, the blocks on its cycles as one *region*
function (``codegen.lower_region``): registers stay in locals from
member to member and flags are computed only where a member's
terminator reads them, or materialized where control leaves the
region.  The region checks the step budget before each member, and an
abort rolls back and hands the precise stepper exactly one member.
Regions exit to absolute addresses, so the process-wide region map is
keyed by every member's start and code; they are formed afresh in each
compiler and never exported.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import DecodingError, EmulationError, IRError, LiftError
from repro.emu.flagops import PARITY_TABLE
from repro.emu.jit.codegen import (
    JitUnsupported, Render, lower_region, lower_superblock)
from repro.emu.jit.lift import lift_superblock
from repro.emu.jit.superblock import carve
from repro.isa.operands import Mem

_UNCOMPILED = object()

#: Capacity of the process-wide lowered-block map, evicted LRU-first;
#: about 3.7x the codes the whole seed-0 bootloader bench lowers
#: (1,122, summed over its stage processes).
SHARED_CAPACITY = 4096

# _code_key -> (step, writes_memory, source, render), or None for a
# block that does not lift or lower
_SHARED: OrderedDict = OrderedDict()

#: Visits after which a block that heads a cycle of compiled blocks
#: runs the blocks on its cycles as one region
#: (:meth:`TraceCompiler._form_region`).
REGION_VISITS = 64

#: Most blocks one region holds.
MAX_MEMBERS = 16

#: Region terminators: a region never holds a call or ret.
_MEMBER_TERMINATORS = (None, "JMP", "JCC", "SETCC", "PUSHFQ", "POPFQ")

# tuple of members' (start, code) -> (region_fn, source); regions exit
# to absolute addresses, so the key holds every member's start
_SHARED_REGIONS: OrderedDict = OrderedDict()


def _code_key(start: int, insns):
    """The shared-map key of a carved block: its code bytes.

    A rip-relative operand folds its absolute address into the IR
    (``InstructionTranslator.address_of``), so such a block is keyed
    by ``(start, code)`` and is shared only at its own address.
    """
    code = b"".join(insn.raw for insn in insns)
    for insn in insns:
        for operand in insn.operands:
            if isinstance(operand, Mem) and operand.is_rip_relative:
                return start, code
    return code


def _shared_get(key, shared=None):
    shared = _SHARED if shared is None else shared
    entry = shared.get(key, _UNCOMPILED)
    if entry is not _UNCOMPILED:
        shared.move_to_end(key)
    return entry


def _joinable(block) -> bool:
    """Can ``block`` join a region?"""
    return (block is not None and block.member_of is None
            and block.render is not None
            and block.render.mnemonic in _MEMBER_TERMINATORS)


def _shared_put(key, entry, shared=None) -> None:
    shared = _SHARED if shared is None else shared
    shared[key] = entry
    while len(shared) > SHARED_CAPACITY:
        shared.popitem(last=False)


def _lowered(start: int, body, terminator, insns):
    """``(step, writes_memory, source, render)`` for a carved block, or
    ``None``.

    Lifts and lowers only on a miss in the process-wide map; a block
    that fails to lift or lower is remembered as ``None``.  The IR is
    released once lowered, so reference counting frees it.
    """
    key = _code_key(start, insns)
    entry = _shared_get(key)
    if entry is _UNCOMPILED:
        function = None
        try:
            function = lift_superblock(body, start)
            entry = lower_superblock(function, body, terminator)
        except (LiftError, IRError, JitUnsupported):
            entry = None
        if function is not None:
            function.release()
        _shared_put(key, entry)
    return entry


class BlockInvalidated(Exception):
    """Raised mid-block when a store hits the running block's bytes.

    Deliberately *not* an :class:`EmulationError`: it must tunnel out
    of ``Memory.write`` without being classified as a guest fault.
    """


@dataclass
class SuperBlock:
    """One compiled superblock."""

    start: int
    limit: int                       # end address (exclusive)
    count: int                       # guest instructions per execution
    step: Callable                   # fn(cpu, mem, flags)
    writes_memory: bool
    tainted: bool                    # compiled after the image went dirty
    insns: tuple = field(default=())  # body + terminator, decode order
    source: str = ""
    render: Optional[Render] = None  # for composing regions
    visits: int = field(default=0, compare=False)
    # the region this block heads, and the one holding it
    region: Optional["Region"] = field(default=None, repr=False,
                                       compare=False)
    member_of: Optional["Region"] = field(default=None, repr=False,
                                          compare=False)

    @property
    def spans(self) -> tuple:
        return ((self.start, self.limit),)


@dataclass(eq=False)
class Region:
    """A hot loop of blocks run as one function (``lower_region``).

    It names its members by their spans, so blocks and regions form no
    reference cycle.
    """

    run: Callable                    # fn(cpu, mem, flags, limit)
    spans: tuple                     # each member's (start, limit), head first


class TraceCompiler:
    """Compiles and runs superblocks for a family of machines.

    One instance is shared across all replays of one campaign worker;
    its counters accumulate until :meth:`drain_into` moves them into an
    :class:`~repro.faulter.engine.ExecutionStats`.
    """

    def __init__(self):
        self._blocks: dict[int, Optional[SuperBlock]] = {}
        self._active: Optional[SuperBlock] = None
        self._dirty = False
        self.compiled_steps = 0
        self.region_steps = 0
        self.regions = 0
        self.divergences = 0
        self.compile_seconds = 0.0
        self.compiled_blocks = 0

    # -- machine binding ----------------------------------------------

    def attach(self, machine) -> "TraceCompiler":
        """Bind to a machine whose memory holds the pristine image."""
        self._evict_if(lambda block: block is None or block.tainted)
        self._dirty = False
        machine.jit = self
        return self

    # -- coherence ----------------------------------------------------

    def _evict_if(self, stale) -> None:
        for start in [s for s, b in self._blocks.items() if stale(b)]:
            block = self._blocks.pop(start)
            if block is not None and block.member_of is not None:
                # evicting a member evicts its region
                for member_start, _ in block.member_of.spans:
                    member = self._blocks.get(member_start, block)
                    member.region = member.member_of = None

    def on_exec_write(self, address: int, size: int) -> None:
        """A write landed in executable memory."""
        self._dirty = True
        end = address + size
        if self._blocks:
            self._evict_if(lambda block: block is None or
                           (block.start < end and address < block.limit))
        active = self._active
        if active is not None and any(start < end and address < limit
                                      for start, limit in active.spans):
            # deactivated first: rolling the store back writes here too
            self._active = None
            raise BlockInvalidated()

    def runnable(self, address: int) -> bool:
        """False when the block at ``address`` is known uncompilable,
        so :meth:`execute` would run nothing there."""
        return self._blocks.get(address, _UNCOMPILED) is not None

    # -- compilation --------------------------------------------------

    def _compile_at(self, machine, address: int) -> Optional[SuperBlock]:
        started = time.perf_counter()
        body, terminator = carve(machine, address)
        insns = tuple(body) + (
            (terminator,) if terminator is not None else ())
        lowered = (_lowered(address, body, terminator, insns)
                   if insns else None)
        block = None
        if lowered is not None:
            step, writes_memory, source, render = lowered
            last = insns[-1]
            block = SuperBlock(
                start=address,
                limit=last.address + last.length,
                count=len(insns),
                step=step,
                writes_memory=writes_memory,
                tainted=self._dirty,
                insns=insns,
                source=source,
                render=render,
            )
        self._blocks[address] = block
        if block is not None:
            self.compiled_blocks += 1
        self.compile_seconds += time.perf_counter() - started
        return block

    # -- execution ----------------------------------------------------

    def execute(self, machine, limit: int) -> int:
        """Run compiled blocks from the current PC, up to ``limit`` steps.

        Returns the number of guest instructions executed (possibly 0).
        Never over-steps: a block longer than the remaining budget is
        left to the precise stepper, which is what keeps fault windows
        exact.
        """
        executed = 0
        cpu = machine.cpu
        memory = machine.memory
        flags = cpu.flags
        lookup = self._blocks.get
        while executed < limit:
            block = lookup(cpu.rip, _UNCOMPILED)
            if block is _UNCOMPILED:
                block = self._compile_at(machine, cpu.rip)
            if block is None or block.count > limit - executed:
                break
            region = block.region
            if region is not None:
                self._active = region
                done = region.run(cpu, memory, flags, limit - executed)
                self._active = None
                if done < 0:
                    # a member aborted, its entry state committed: the
                    # precise stepper re-executes it
                    executed += ~done
                    self.region_steps += ~done
                    self.divergences += 1
                    break
                executed += done
                self.region_steps += done
                continue
            block.visits += 1
            if block.visits == REGION_VISITS:
                self._form_region(block)
            if block.writes_memory:
                mark = memory.journal_mark()
                self._active = block
                try:
                    block.step(cpu, memory, flags)
                except (BlockInvalidated, EmulationError):
                    # Roll back so the precise stepper re-executes the
                    # block from scratch and lands on the authentic
                    # fault (or safely re-runs the self-modifying
                    # store).
                    self._active = None
                    memory.journal_rollback_to(mark)
                    self.divergences += 1
                    break
                self._active = None
                memory.journal_release(mark)
            else:
                # A block with no stores cannot invalidate itself and
                # leaves nothing to roll back; skip the bookkeeping.
                try:
                    block.step(cpu, memory, flags)
                except EmulationError:
                    self.divergences += 1
                    break
            executed += block.count
        self.compiled_steps += executed
        return executed

    # -- regions ------------------------------------------------------

    def _successors(self, block) -> list:
        """``block``'s successors that could join a region, hottest
        first (a jcc's taken edge on a tie)."""
        render = block.render
        fallthrough = (block.start + render.size) % (1 << 64)
        if render.mnemonic == "JMP":
            starts = [(block.start + render.target) % (1 << 64)]
        elif render.mnemonic == "JCC":
            starts = [(block.start + render.target) % (1 << 64)]
            if fallthrough != starts[0]:
                starts.append(fallthrough)
        else:
            starts = [fallthrough]
        successors = [self._blocks.get(start) for start in starts]
        successors = [successor for successor in successors
                      if _joinable(successor)]
        successors.sort(key=lambda successor: -successor.visits)
        return successors

    def _form_region(self, head) -> None:
        """Run the blocks on cycles through ``head`` as one region, if
        there are any.

        The region's members are the blocks reachable from ``head`` and
        reaching it again, over blocks that are compiled, end in a
        region terminator and belong to no region: the first
        :data:`MAX_MEMBERS` reachable ones, depth-first, hottest
        successor first.
        """
        if not _joinable(head):
            return
        reachable = [head]
        seen = {head.start}
        successors = {}
        stack = [head]
        while stack:
            block = stack.pop()
            successors[block.start] = self._successors(block)
            found = [successor for successor in successors[block.start]
                     if successor.start not in seen]
            found = found[:MAX_MEMBERS - len(reachable)]
            seen.update(successor.start for successor in found)
            reachable += found
            stack += reversed(found)
        # the reachable blocks that reach the head again
        loops = {head.start}
        while True:
            closing = {block.start for block in reachable
                       if any(successor.start in loops for successor
                              in successors.get(block.start, ()))}
            if closing <= loops:
                break
            loops |= closing
        if not any(successor.start in loops
                   for successor in successors[head.start]):
            return
        members = [block for block in reachable if block.start in loops]
        started = time.perf_counter()
        key = tuple((member.start,
                     b"".join(insn.raw for insn in member.insns))
                    for member in members)
        entry = _shared_get(key, _SHARED_REGIONS)
        if entry is _UNCOMPILED:
            entry = lower_region(
                [(member.start, member.render) for member in members],
                (BlockInvalidated, EmulationError))
            _shared_put(key, entry, _SHARED_REGIONS)
        region = Region(run=entry[0],
                        spans=tuple((member.start, member.limit)
                                    for member in members))
        head.region = region
        for member in members:
            member.member_of = region
        self.regions += 1
        self.compile_seconds += time.perf_counter() - started

    # -- serialization ------------------------------------------------
    #
    # ``lower_superblock`` compiles to a plain Python source string
    # executed into a namespace, so a block cache serializes as those
    # sources plus the instruction addresses to re-decode.  Re-loading
    # costs one exec() per block instead of the full carve -> lift ->
    # IR-optimize -> lower pipeline.

    def export_blocks(self) -> dict:
        """Serializable payload of every live untainted block."""
        blocks = []
        for start in sorted(self._blocks):
            block = self._blocks[start]
            if block is None or block.tainted or not block.source:
                continue
            blocks.append({
                "start": block.start,
                "limit": block.limit,
                "count": block.count,
                "writes_memory": block.writes_memory,
                "source": block.source,
                "render": block.render,
                "addresses": [insn.address for insn in block.insns],
            })
        return {"blocks": blocks}

    def import_blocks(self, machine, payload) -> int:
        """Recompile serialized block sources against ``machine``.

        The payload is keyed by the image digest and the code digest,
        so the machine's pristine bytes match the ones the sources were
        lowered from, by this very lowering;
        each block's instructions are nevertheless re-decoded from the
        live memory and cross-checked against the recorded geometry —
        any mismatch (or any error at all) skips that block and the
        compiler derives it from scratch on demand.  A block already
        in the process-wide map (keyed by :func:`_code_key`, as on
        compilation) reuses its step function instead of executing
        the source again, so one position-independent source serves
        every start it is imported at.  Returns the number of blocks
        imported.
        """
        if not isinstance(payload, dict):
            return 0
        imported = 0
        for spec in payload.get("blocks", ()):
            try:
                start = spec["start"]
                if start in self._blocks:
                    continue
                insns = [machine.fetch_decode(address)
                         for address in spec["addresses"]]
                last = insns[-1]
                if (len(insns) != spec["count"]
                        or insns[0].address != start
                        or last.address + last.length != spec["limit"]):
                    continue
                key = _code_key(start, insns)
                entry = _shared_get(key)
                if entry is None:
                    continue
                if entry is _UNCOMPILED:
                    namespace: dict = {"_PT": PARITY_TABLE}
                    exec(compile(spec["source"], f"<jit:{start:#x}>",
                                 "exec"), namespace)
                    render = spec.get("render")
                    entry = (namespace.pop("superblock"),
                             bool(spec["writes_memory"]), spec["source"],
                             render if isinstance(render, Render)
                             else None)
                    _shared_put(key, entry)
                step, writes_memory, source, render = entry
                block = SuperBlock(
                    start=start,
                    limit=spec["limit"],
                    count=spec["count"],
                    step=step,
                    writes_memory=writes_memory,
                    tainted=False,
                    insns=tuple(insns),
                    source=source,
                    render=render,
                )
            except (KeyError, IndexError, TypeError, ValueError,
                    SyntaxError, DecodingError, EmulationError):
                continue
            self._blocks[start] = block
            imported += 1
        return imported

    # -- stats --------------------------------------------------------

    def drain_into(self, stats) -> None:
        """Fold-and-reset counters into an ``ExecutionStats``."""
        stats.compiled_steps += self.compiled_steps
        stats.region_steps += self.region_steps
        stats.regions += self.regions
        stats.divergences += self.divergences
        stats.compile_seconds += self.compile_seconds
        self.compiled_steps = 0
        self.region_steps = 0
        self.regions = 0
        self.divergences = 0
        self.compile_seconds = 0.0
