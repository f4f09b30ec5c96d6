"""Provenance maps and differential countermeasure evaluation."""

import json

import pytest

from repro.api import Target
from repro.faulter import engine
from repro.faulter.report import (
    CampaignReport,
    DiffPoint,
    DifferentialReport,
    ELIMINATED,
    Fault,
    INTRODUCED,
    SURVIVING,
    UNMAPPED,
    differential_report,
)
from repro.provenance import (
    KIND_BLOCK,
    KIND_DERIVED,
    KIND_INSN,
    ProvenanceEntry,
    ProvenanceMap,
)
from repro.workloads import bootloader, corpus, pincheck


class TestProvenanceMap:
    def test_point_entries(self):
        prov = ProvenanceMap(path="patcher")
        prov.add(0x1000, 0x2000)
        prov.add(0x1000, 0x2010, kind=KIND_DERIVED)
        assert prov.to_original(0x2000) == 0x1000
        assert prov.to_original(0x2010) == 0x1000
        assert prov.to_original(0x2001) is None
        assert prov.normalize_original(0x1000) == 0x1000
        assert prov.normalize_original(0x1001) is None
        assert prov.to_rewritten(0x1000) == [0x2000, 0x2010]

    def test_identity_regions(self):
        prov = ProvenanceMap(path="detour")
        prov.add_identity(0x1000, 0x1100)
        assert prov.to_original(0x1050) == 0x1050
        assert prov.to_original(0x1100) is None  # exclusive end
        assert prov.normalize_original(0x10FF) == 0x10FF

    def test_exact_entry_wins_over_identity(self):
        prov = ProvenanceMap(path="detour")
        prov.add_identity(0x1000, 0x1100)
        prov.add(0x1010, 0x1020)
        assert prov.to_original(0x1020) == 0x1010

    def test_block_ranges_resolve_to_block_head(self):
        prov = ProvenanceMap(path="lower")
        prov.add_range(0x1000, 0x1010, 0x8000, 0x8040)
        assert prov.to_original(0x8000) == 0x1000
        assert prov.to_original(0x803F) == 0x1000
        assert prov.to_original(0x8040) is None
        # every original address inside the block keys on the head
        assert prov.normalize_original(0x1000) == 0x1000
        assert prov.normalize_original(0x100F) == 0x1000
        assert prov.normalize_original(0x1010) is None

    def test_rejects_bad_input(self):
        prov = ProvenanceMap()
        with pytest.raises(ValueError):
            prov.add(0x1000, 0x2000, kind="bogus")
        with pytest.raises(ValueError):
            prov.add_range(0x1000, 0x1000, 0x2000, 0x2010)
        with pytest.raises(ValueError):
            prov.add_identity(5, 5)

    def test_counts(self):
        prov = ProvenanceMap()
        prov.add(1, 2)
        prov.add(1, 3, kind=KIND_DERIVED)
        prov.add_range(0x10, 0x20, 0x30, 0x40, kind=KIND_BLOCK)
        prov.add_identity(0, 1)
        assert prov.counts() == {
            KIND_INSN: 1, KIND_DERIVED: 1, KIND_BLOCK: 1,
            "identity_regions": 1}

    def test_roundtrip(self):
        prov = ProvenanceMap(path="lower", meta={"note": "x"})
        prov.add(1, 2)
        prov.add_range(0x10, 0x20, 0x30, 0x40, kind=KIND_DERIVED)
        prov.add_identity(0x100, 0x200)
        payload = json.loads(json.dumps(prov.to_dict()))
        assert ProvenanceMap.from_dict(payload) == prov

    def test_entry_roundtrip_preserves_ranges(self):
        entry = ProvenanceEntry(1, 2, KIND_BLOCK, 3, 4)
        assert ProvenanceEntry.from_dict(entry.to_dict()) == entry


def _report(model, successes, target="t", trace_length=10):
    faults = [Fault(model, i, address, "mov")
              for i, address in enumerate(successes)]
    report = CampaignReport(target=target, model=model,
                            trace_length=trace_length,
                            total_faults=trace_length)
    report.successes = faults
    return report


class TestDifferentialJoin:
    def test_all_four_classes(self):
        prov = ProvenanceMap(path="patcher")
        prov.add(0x10, 0x110)          # eliminated
        prov.add(0x20, 0x120)          # surviving
        prov.add(0x40, 0x140)          # original, never vulnerable
        # 0x30 has no mapping at all -> unmapped
        baseline = {"skip": _report("skip", [0x10, 0x20, 0x30])}
        hardened = {"skip": _report(
            "skip", [0x120, 0x140, 0x999])}  # survive, intro, intro
        diff = differential_report(baseline, hardened, prov)

        by_status = {}
        for point in diff.points:
            by_status.setdefault(point.status, []).append(point)
        assert [p.original_address for p in by_status[ELIMINATED]] \
            == [0x10]
        assert [p.original_address for p in by_status[SURVIVING]] \
            == [0x20]
        assert by_status[SURVIVING][0].rewritten_addresses == (0x120,)
        assert [p.original_address for p in by_status[UNMAPPED]] \
            == [0x30]
        introduced = sorted(by_status[INTRODUCED],
                            key=lambda p: p.rewritten_addresses)
        assert introduced[0].original_address == 0x40
        assert introduced[1].original_address is None
        assert introduced[1].rewritten_addresses == (0x999,)

    def test_invariant_baseline_partition(self):
        prov = ProvenanceMap()
        prov.add(0x10, 0x110)
        baseline = {"skip": _report("skip", [0x10, 0x20, 0x30, 0x30])}
        hardened = {"skip": _report("skip", [])}
        diff = differential_report(baseline, hardened, prov)
        census = diff.counts(model="skip")
        points = len(baseline["skip"].vulnerable_points())
        assert census[ELIMINATED] + census[SURVIVING] \
            + census[UNMAPPED] == points == diff.baseline_points("skip")

    def test_model_mismatch_recorded(self):
        prov = ProvenanceMap()
        baseline = {"skip": _report("skip", []),
                    "bitflip": _report("bitflip", [])}
        hardened = {"skip": _report("skip", [])}
        diff = differential_report(baseline, hardened, prov)
        assert diff.models == ["skip"]
        assert diff.meta["models_skipped"] == ["bitflip"]

    def test_multiple_rewrites_aggregate_on_one_survivor(self):
        prov = ProvenanceMap()
        prov.add(0x10, 0x110)
        prov.add(0x10, 0x120, kind=KIND_DERIVED)
        baseline = {"skip": _report("skip", [0x10])}
        hardened = {"skip": _report("skip", [0x110, 0x120, 0x120])}
        diff = differential_report(baseline, hardened, prov)
        (survivor,) = [p for p in diff.points if p.status == SURVIVING]
        assert survivor.rewritten_addresses == (0x110, 0x120)
        assert survivor.hardened_faults == 3

    def test_sections_from_resolvers(self):
        prov = ProvenanceMap()
        prov.add(0x10, 0x110)
        baseline = {"skip": _report("skip", [0x10])}
        hardened = {"skip": _report("skip", [0x999])}
        diff = differential_report(
            baseline, hardened, prov,
            section_of_original=lambda a: ".text",
            section_of_rewritten=lambda a: ".detour")
        sections = {p.status: p.section for p in diff.points}
        assert sections == {ELIMINATED: ".text", INTRODUCED: ".detour"}
        assert set(diff.by_section()) == {".text", ".detour"}

    def test_roundtrip_lossless(self):
        prov = ProvenanceMap(path="patcher")
        prov.add(0x10, 0x110)
        baseline = {"skip": _report("skip", [0x10, 0x20])}
        hardened = {"skip": _report("skip", [0x110])}
        diff = differential_report(baseline, hardened, prov,
                                   target="demo")
        payload = json.loads(json.dumps(diff.to_dict()))
        assert DifferentialReport.from_dict(payload) == diff
        assert payload["rollup_by_model"]["skip"]["surviving"] == 1

    def test_table_renders(self):
        diff = DifferentialReport(
            target="demo", models=["skip"],
            points=[DiffPoint("skip", ELIMINATED, 0x10, (), "cmp",
                              2, 0, ".text")])
        rendered = diff.table()
        assert "eliminated=1" in rendered
        assert "0x10" in rendered
        assert ".text" in rendered


WORKLOADS = {
    "pincheck": pincheck.workload,
    "bootloader": lambda: bootloader.workload(size=8),
    "corpus": corpus.workload,
}


class TestEvaluateCountermeasures:
    """The paper's evaluation loop over all bundled workloads, both
    rewriting approaches and the skip+bitflip fault models."""

    @pytest.fixture(scope="class")
    def evaluations(self):
        results = {}
        for wl_name, factory in WORKLOADS.items():
            wl = factory()
            for approach in ("faulter+patcher", "hybrid"):
                target = Target(wl.build(), wl.good_input,
                                wl.bad_input, wl.grant_marker,
                                name=wl.name)
                results[wl_name, approach] = target.evaluate(
                    approach=approach, models=("skip", "bitflip"))
        return results

    @pytest.mark.parametrize("wl_name", list(WORKLOADS))
    @pytest.mark.parametrize("approach", ["faulter+patcher", "hybrid"])
    @pytest.mark.parametrize("model", ["skip", "bitflip"])
    def test_baseline_partition_invariant(self, evaluations, wl_name,
                                          approach, model):
        """Every baseline vulnerable point lands in exactly one of
        eliminated/surviving/unmapped."""
        evaluation = evaluations[wl_name, approach]
        census = evaluation.diff.counts(model=model)
        baseline = len(
            evaluation.baseline_reports[model].vulnerable_points())
        assert census[ELIMINATED] + census[SURVIVING] \
            + census[UNMAPPED] == baseline
        assert baseline > 0  # every bundled workload is attackable

    @pytest.mark.parametrize("wl_name", list(WORKLOADS))
    @pytest.mark.parametrize("approach", ["faulter+patcher", "hybrid"])
    def test_skip_model_fully_eliminated(self, evaluations, wl_name,
                                         approach):
        """Both hardening approaches defeat the model they were built
        against on every bundled workload."""
        evaluation = evaluations[wl_name, approach]
        census = evaluation.diff.counts(model="skip")
        assert census[SURVIVING] == 0
        assert census[UNMAPPED] == 0
        assert evaluation.diff.eliminated_percent("skip") == 100.0

    @pytest.mark.parametrize("wl_name", list(WORKLOADS))
    @pytest.mark.parametrize("approach", ["faulter+patcher", "hybrid"])
    def test_diff_roundtrips(self, evaluations, wl_name, approach):
        diff = evaluations[wl_name, approach].diff
        payload = json.loads(json.dumps(diff.to_dict()))
        assert DifferentialReport.from_dict(payload) == diff

    @pytest.mark.parametrize("wl_name", list(WORKLOADS))
    @pytest.mark.parametrize("approach", ["faulter+patcher", "hybrid"])
    def test_provenance_roundtrips(self, evaluations, wl_name,
                                   approach):
        provenance = evaluations[wl_name, approach].provenance
        payload = json.loads(json.dumps(provenance.to_dict()))
        assert ProvenanceMap.from_dict(payload) == provenance
        assert provenance.entries  # all paths emit real mappings

    def test_evaluation_to_dict_json_safe(self, evaluations):
        evaluation = evaluations["pincheck", "faulter+patcher"]
        payload = json.loads(json.dumps(evaluation.to_dict()))
        assert payload["approach"] == "faulter+patcher"
        assert payload["diff"]["models"] == ["skip", "bitflip"]
        assert payload["harden"]["provenance"]["path"] == "patcher"

    def test_detour_approach_end_to_end(self):
        wl = corpus.workload()
        target = Target(wl.build(), wl.good_input, wl.bad_input,
                        wl.grant_marker, name=wl.name)
        evaluation = target.evaluate(approach="detour",
                                     models=("skip",))
        census = evaluation.diff.counts(model="skip")
        baseline = len(
            evaluation.baseline_reports["skip"].vulnerable_points())
        assert census[ELIMINATED] + census[SURVIVING] \
            + census[UNMAPPED] == baseline
        assert evaluation.provenance.path == "detour"

    def test_streaming_knobs_reach_both_campaigns(self, monkeypatch):
        monkeypatch.setattr(engine, "MAX_RESIDENT_POINTS", 7)
        wl = pincheck.workload()
        evaluation = wl.target().evaluate(models=("skip",))
        for report in (evaluation.baseline_reports["skip"],
                       evaluation.hardened_reports["skip"]):
            assert report.meta["peak_resident_points"] <= 7
