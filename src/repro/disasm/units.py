"""Per-function rewrite units over a recovered module.

The :class:`RewritePlan` is the shared currency between the disassembler
and everything above it: hardening approaches consume a stream of
:class:`RewriteUnit`\\ s instead of re-walking ``.text`` themselves, and
provenance maps roll their census up per unit.  Function recovery
(:mod:`repro.disasm.functions`) provides the primary boundaries; blocks
it does not own — linear-sweep islands on stripped inputs — fall back to
contiguous ``sweep`` units, and undecodable regions become ``opaque``
units that are preserved byte-for-byte rather than treated as fatal.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.binfmt.image import Executable
from repro.disasm.functions import find_functions
from repro.disasm.recover import disassemble
from repro.gtirb.ir import Module

ORIGIN_FUNCTION = "function"
ORIGIN_SWEEP = "sweep"
ORIGIN_DATA = "data"


@dataclass(frozen=True)
class RewriteUnit:
    """One independently rewritable region of code (or preserved data).

    ``opaque`` units hold bytes the recovery could not prove are
    instructions; rewriters must copy them unchanged and never
    instrument inside them.
    """

    name: str
    start: int
    end: int
    blocks: tuple = ()
    opaque: bool = False
    origin: str = ORIGIN_FUNCTION

    @property
    def size(self) -> int:
        return self.end - self.start

    def instruction_count(self) -> int:
        return sum(len(b.entries) for b in self.blocks if b.is_code)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "opaque": self.opaque,
            "origin": self.origin,
            "instructions": self.instruction_count(),
        }


@dataclass
class RewritePlan:
    """Address-ordered rewrite units covering the text section.

    Function blocks may interleave, so lookup goes through *extents* —
    maximal contiguous address ranges each owned by one unit.
    """

    units: list[RewriteUnit] = field(default_factory=list)
    extents: list[tuple[int, int, RewriteUnit]] = field(default_factory=list)

    def __post_init__(self):
        self.extents.sort(key=lambda e: e[0])
        self._starts = [e[0] for e in self.extents]

    def unit_at(self, address: int):
        """The unit owning ``address``, or ``None`` outside the plan."""
        index = bisect_right(self._starts, address) - 1
        if index < 0:
            return None
        start, end, unit = self.extents[index]
        return unit if start <= address < end else None

    def slice(self, start: int, end: int):
        """Split ``[start, end)`` at unit boundaries.

        Yields ``(s, e, unit_or_None)`` sub-ranges in address order;
        ``None`` marks bytes no unit owns.
        """
        cursor = start
        for ext_start, ext_end, unit in self.extents:
            if ext_end <= cursor or ext_start >= end:
                continue
            if ext_start > cursor:
                yield cursor, ext_start, None
            stop = min(ext_end, end)
            yield max(cursor, ext_start), stop, unit
            cursor = stop
        if cursor < end:
            yield cursor, end, None

    def code_units(self) -> list[RewriteUnit]:
        return [u for u in self.units if not u.opaque]

    def opaque_units(self) -> list[RewriteUnit]:
        return [u for u in self.units if u.opaque]

    def coverage(self) -> int:
        """Total bytes covered by extents."""
        return sum(end - start for start, end, _ in self.extents)

    def to_dict(self) -> dict:
        return {"units": [u.to_dict() for u in self.units]}


def build_plan(module: Module) -> RewritePlan:
    """Derive a :class:`RewritePlan` from a recovered module.

    Recovered functions become units named after their entry symbol;
    code blocks no function owns are grouped into contiguous ``sweep``
    units; data blocks inside ``.text`` (undecodable bytes) become
    ``opaque`` units.
    """
    functions = find_functions(module)
    owner: dict[int, RewriteUnit] = {}
    units: list[RewriteUnit] = []
    for info in functions:
        placed = [b for b in info.blocks if b.address is not None]
        if not placed:
            continue
        unit = RewriteUnit(
            name=info.name,
            start=min(b.address for b in placed),
            end=max(b.address + b.byte_size() for b in placed),
            blocks=tuple(placed),
            origin=ORIGIN_FUNCTION,
        )
        units.append(unit)
        for block in placed:
            owner[block.uid] = unit

    text_blocks = sorted(
        (b for b in module.text().blocks if b.address is not None),
        key=lambda b: b.address)

    # Unowned code blocks: contiguous runs become sweep-derived units.
    run: list = []

    def flush_run():
        if not run:
            return
        unit = RewriteUnit(
            name=f"sweep_{run[0].address:#x}",
            start=run[0].address,
            end=run[-1].address + run[-1].byte_size(),
            blocks=tuple(run),
            origin=ORIGIN_SWEEP,
        )
        units.append(unit)
        for block in run:
            owner[block.uid] = unit
        run.clear()

    for block in text_blocks:
        if block.uid in owner:
            flush_run()
            continue
        if not block.is_code:
            flush_run()
            unit = RewriteUnit(
                name=f"opaque_{block.address:#x}",
                start=block.address,
                end=block.address + block.byte_size(),
                blocks=(block,),
                opaque=True,
                origin=ORIGIN_DATA,
            )
            units.append(unit)
            owner[block.uid] = unit
            continue
        if run and run[-1].address + run[-1].byte_size() != block.address:
            flush_run()
        run.append(block)
    flush_run()

    # Extents: coalesce consecutive same-owner blocks.
    extents: list[tuple[int, int, RewriteUnit]] = []
    for block in text_blocks:
        unit = owner.get(block.uid)
        if unit is None:
            continue
        start = block.address
        end = start + block.byte_size()
        if extents and extents[-1][2] is unit and extents[-1][1] == start:
            extents[-1] = (extents[-1][0], end, unit)
        else:
            extents.append((start, end, unit))

    units.sort(key=lambda u: u.start)
    return RewritePlan(units=units, extents=extents)


def recover_plan(exe: Executable, mode: str = "refined"):
    """Disassemble ``exe`` and build its rewrite plan.

    Returns ``(module, plan)``; works on stripped inputs, where plan
    units come from entry-reachability and sweep recovery instead of
    symbols.
    """
    module = disassemble(exe, mode=mode)
    plan = build_plan(module)
    return module, plan
