"""Faulter campaign tests against the case studies."""

import pytest

from repro.errors import ReproError
from repro.faulter import Faulter, model_by_name
from repro.workloads import bootloader, pincheck


@pytest.fixture(scope="module")
def pincheck_faulter():
    wl = pincheck.workload()
    return Faulter(wl.build(), wl.good_input, wl.bad_input, wl.grant_marker,
                   name=wl.name)


@pytest.fixture(scope="module")
def bootloader_faulter():
    wl = bootloader.workload(size=8)
    return Faulter(wl.build(), wl.good_input, wl.bad_input, wl.grant_marker,
                   name=wl.name)


class TestBaselines:
    def test_baselines_established(self, pincheck_faulter):
        assert b"GRANTED" in pincheck_faulter.good_baseline.stdout
        assert b"DENIED" in pincheck_faulter.bad_baseline.stdout

    def test_rejects_broken_oracle(self):
        wl = pincheck.workload()
        with pytest.raises(ReproError):
            Faulter(wl.build(), wl.good_input, wl.good_input,
                    wl.grant_marker)

    def test_trace_is_nonempty(self, pincheck_faulter):
        trace = pincheck_faulter.trace()
        assert trace[0] == 0x401000
        assert len(trace) > 10


class TestSkipCampaign:
    def test_pincheck_is_vulnerable_to_skip(self, pincheck_faulter):
        report = pincheck_faulter.run_campaign("skip")
        assert report.vulnerable
        assert report.outcomes["success"] >= 1
        # the paper: vulnerabilities stem from compare/jump instructions
        mnemonics = {p.mnemonic for p in report.vulnerable_points()}
        assert mnemonics & {"cmp", "jne", "je", "jmp", "mov"}

    def test_bootloader_is_vulnerable_to_skip(self, bootloader_faulter):
        report = bootloader_faulter.run_campaign("skip")
        assert report.vulnerable

    def test_skip_fault_count_equals_trace_length(self, pincheck_faulter):
        report = pincheck_faulter.run_campaign("skip")
        assert report.total_faults == report.trace_length

    def test_outcome_counts_are_consistent(self, pincheck_faulter):
        report = pincheck_faulter.run_campaign("skip")
        assert sum(report.outcomes.values()) == report.total_faults


class TestBitFlipCampaign:
    def test_pincheck_is_vulnerable_to_bitflip(self, pincheck_faulter):
        report = pincheck_faulter.run_campaign("bitflip")
        assert report.vulnerable
        # bit flips inject many more faults than skips
        assert report.total_faults > report.trace_length * 8

    def test_bitflips_produce_crashes(self, pincheck_faulter):
        report = pincheck_faulter.run_campaign("bitflip")
        assert report.outcomes["crash"] > 0

    def test_trace_window_restricts_faults(self, pincheck_faulter):
        full = pincheck_faulter.run_campaign("bitflip")
        windowed = pincheck_faulter.run_campaign(
            "bitflip", trace_window=range(5))
        assert windowed.total_faults < full.total_faults


class TestDeterminism:
    def test_campaign_is_deterministic(self, pincheck_faulter):
        first = pincheck_faulter.run_campaign("skip")
        second = pincheck_faulter.run_campaign("skip")
        assert first.successes == second.successes
        assert first.outcomes == second.outcomes

    def test_journal_leaves_master_clean(self, pincheck_faulter):
        # running a campaign must not corrupt subsequent baselines
        pincheck_faulter.run_campaign("skip")
        good = pincheck_faulter._run(pincheck_faulter.good_input)
        assert pincheck_faulter.oracle.marker in good.stdout


class TestModels:
    def test_model_lookup(self):
        assert model_by_name("skip").name == "skip"
        assert model_by_name("bitflip").name == "bitflip"
        with pytest.raises(KeyError):
            model_by_name("nope")

    def test_stuck0_model_runs(self, pincheck_faulter):
        report = pincheck_faulter.run_campaign("stuck0")
        assert report.total_faults > 0

    def test_report_rendering(self, pincheck_faulter):
        report = pincheck_faulter.run_campaign("skip")
        text = report.summary()
        assert "vulnerable points" in text
        assert report.to_dict()["model"] == "skip"
