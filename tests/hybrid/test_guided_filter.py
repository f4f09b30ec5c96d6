"""Faulter-guided branch filter (metadata-based) and degenerate-input
guards for the hybrid result rollups."""

import warnings
from types import SimpleNamespace

import pytest

from repro.errors import RewriteError
from repro.hybrid.pipeline import (
    GuidedBranchFilter,
    HybridResult,
    faulter_guided_filter,
    hybrid_harden,
)
from repro.lift.lifter import Lifter
from repro.workloads import pincheck


@pytest.fixture(scope="module")
def wl():
    return pincheck.workload()


class TestGuidedBranchFilter:
    def test_matches_on_block_metadata_not_names(self, wl):
        """Renaming every lifted block must not disable the filter —
        the historical name-parsing bug silently hardened nothing."""
        exe = wl.build()
        branch_filter = faulter_guided_filter(
            exe, wl.good_input, wl.bad_input, wl.grant_marker)
        assert branch_filter.vulnerable_blocks

        ir_module = Lifter(exe).lift()
        flagged = []
        for block in ir_module.function("entry").blocks:
            block.name = f"renamed_{block.name}"  # no g<hex> prefix
            if block.guest_address in branch_filter.vulnerable_blocks:
                flagged.append(block)
        assert flagged
        assert branch_filter(flagged[0], None) is True
        assert branch_filter.matched == {flagged[0].guest_address}

    def test_blocks_without_metadata_are_skipped(self):
        branch_filter = GuidedBranchFilter({0x1000})

        class Bare:
            pass

        assert branch_filter(Bare(), None) is False

    def test_guided_hybrid_hardens_vulnerable_branch(self, wl):
        exe = wl.build()
        branch_filter = faulter_guided_filter(
            exe, wl.good_input, wl.bad_input, wl.grant_marker)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no unmatched-block warning
            result = hybrid_harden(
                exe, wl.good_input, wl.bad_input, wl.grant_marker,
                branch_filter=branch_filter)
        assert result.hardening.branches_hardened >= 1
        assert not branch_filter.unmatched()

    def test_warns_when_flagged_block_never_reached(self, wl):
        exe = wl.build()
        branch_filter = GuidedBranchFilter({0xDEAD_BEEF})
        with pytest.warns(UserWarning, match="0xdeadbeef"):
            result = hybrid_harden(
                exe, wl.good_input, wl.bad_input, wl.grant_marker,
                branch_filter=branch_filter)
        assert result.hardening.branches_hardened == 0

    def test_warns_when_point_maps_to_no_block(self, wl, monkeypatch):
        from repro.gtirb.ir import Module

        def no_block(self, address):
            raise RewriteError(f"no instruction at {address:#x}")

        monkeypatch.setattr(Module, "find_instruction", no_block)
        with pytest.warns(UserWarning, match="maps to no guest block"):
            branch_filter = faulter_guided_filter(
                wl.build(), wl.good_input, wl.bad_input,
                wl.grant_marker)
        assert not branch_filter.vulnerable_blocks


class TestOverheadGuards:
    def _result(self, original, hardened, lowered):
        return HybridResult(
            hardened=None,
            original_text_size=original,
            hardened_text_size=hardened,
            lower_unhardened=lambda: SimpleNamespace(
                code_size=lambda: lowered),
        )

    def test_empty_text_overheads_are_zero(self):
        result = self._result(0, 128, 64)
        assert result.overhead_percent == 0.0
        assert result.translation_overhead_percent == 0.0
        assert result.to_dict()["overhead_percent"] == 0.0

    def test_normal_overheads_unchanged(self):
        result = self._result(100, 250, 150)
        assert result.overhead_percent == 150.0
        assert result.translation_overhead_percent == 50.0
