"""RewriteUnit/RewritePlan recovery over bundled workloads and
fixtures.

The plan is the shared currency of the per-function pipeline, so the
invariants below are what every consumer (patcher, detour, hybrid,
per-unit provenance) leans on: total text coverage, disjoint extents,
interleaving-safe lookup, and graceful degradation on stripped input.
"""

from pathlib import Path

import pytest

from repro.binfmt import read_elf
from repro.disasm.units import (
    ORIGIN_DATA,
    ORIGIN_FUNCTION,
    RewritePlan,
    RewriteUnit,
    recover_plan,
)
from repro.workloads import bootloader, corpus, pincheck

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def plan_of(exe):
    _, plan = recover_plan(exe)
    return plan


class TestPlanInvariants:
    @pytest.mark.parametrize("build", [
        lambda: pincheck.build(),
        lambda: pincheck.build(rich=True),
        lambda: bootloader.build(),
        lambda: corpus.build("call_ret"),
        lambda: corpus.build("jump_table"),
    ])
    def test_total_coverage(self, build):
        exe = build()
        plan = plan_of(exe)
        assert plan.coverage() == exe.code_size()

    def test_extents_disjoint_and_sorted(self):
        plan = plan_of(pincheck.build(rich=True))
        for (s1, e1, _), (s2, e2, _) in zip(plan.extents,
                                            plan.extents[1:]):
            assert s1 < e1 <= s2 < e2

    def test_unit_at_resolves_every_extent_byte(self):
        plan = plan_of(bootloader.build(rich=True))
        for start, end, unit in plan.extents:
            assert plan.unit_at(start) is unit
            assert plan.unit_at(end - 1) is unit
        below = plan.extents[0][0] - 1
        assert plan.unit_at(below) is None

    def test_function_units_named_after_symbols(self):
        plan = plan_of(pincheck.build(rich=True))
        names = {u.name for u in plan.units
                 if u.origin == ORIGIN_FUNCTION}
        assert {"_start", "write_all", "scrub"} <= names

    def test_slice_splits_at_boundaries(self):
        plan = plan_of(pincheck.build(rich=True))
        lo = plan.extents[0][0]
        hi = plan.extents[-1][1]
        pieces = list(plan.slice(lo, hi))
        assert sum(e - s for s, e, _ in pieces) == hi - lo
        covered = [p for p in pieces if p[2] is not None]
        assert len(covered) == len(plan.extents)


class TestStrippedRecovery:
    def test_stripped_fixture_still_covered(self):
        exe = read_elf(
            (FIXTURES / "bootloader_stripped.elf").read_bytes())
        assert not exe.symbols
        plan = plan_of(exe)
        assert plan.coverage() == exe.code_size()
        assert plan.code_units()

    def test_pie_fixture_units_match_symbol_build(self):
        pie = read_elf((FIXTURES / "bootloader_pie.elf").read_bytes())
        plan = plan_of(pie)
        assert [u.start for u in plan.units] == \
            [u.start for u in plan_of(bootloader.build(size=8)).units]


class TestOpaqueUnits:
    @staticmethod
    def _undecodable_exe():
        from repro.binfmt.image import Executable, Section, SymbolDef

        # exit(0) followed by bytes no x86-64 decoder accepts: the
        # recovery must preserve them opaquely, not reject the binary
        text = (bytes.fromhex("b83c000000bf000000000f05")
                + b"\x06\x07" * 3)
        return Executable(
            entry=0x401000,
            sections=[Section(".text", 0x401000, text, flags="rx")],
            symbols=[SymbolDef("_start", 0x401000, ".text",
                               is_global=True, is_func=True)])

    def test_undecodable_region_is_opaque_not_fatal(self):
        exe = self._undecodable_exe()
        plan = plan_of(exe)
        assert plan.coverage() == exe.code_size()
        opaque = plan.opaque_units()
        assert opaque
        for unit in opaque:
            assert unit.origin == ORIGIN_DATA
            assert unit.instruction_count() == 0

    def test_opaque_lookup(self):
        plan = plan_of(self._undecodable_exe())
        unit = plan.opaque_units()[0]
        assert plan.unit_at(unit.start) is unit
        assert plan.unit_at(unit.end - 1) is unit


class TestPlanShape:
    def test_to_dict(self):
        plan = plan_of(pincheck.build())
        payload = plan.to_dict()
        assert payload["units"]
        for entry in payload["units"]:
            assert set(entry) >= {"name", "start", "end", "opaque",
                                  "origin", "instructions"}

    def test_manual_plan_interleaved_extents(self):
        # two functions whose blocks interleave: lookup must follow
        # extents, not [start, end) spans
        a = RewriteUnit("a", 0x100, 0x300)
        b = RewriteUnit("b", 0x180, 0x280)
        plan = RewritePlan(units=[a, b], extents=[
            (0x100, 0x180, a), (0x180, 0x280, b), (0x280, 0x300, a)])
        assert plan.unit_at(0x150) is a
        assert plan.unit_at(0x200) is b
        assert plan.unit_at(0x290) is a
        assert plan.unit_at(0x300) is None
