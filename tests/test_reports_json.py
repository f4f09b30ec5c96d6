"""JSON serialization of hardening results."""

import json

import pytest

from repro.api import Target
from repro.workloads import pincheck


@pytest.fixture(scope="module")
def wl():
    return pincheck.workload()


class TestJsonExport:
    def test_faulter_patcher_to_dict(self, wl):
        result = Target(wl.build(), wl.good_input, wl.bad_input,
                        wl.grant_marker).harden(
            approach="faulter+patcher", fault_models=("skip",))
        payload = result.to_dict()
        text = json.dumps(payload)  # must be JSON-safe
        decoded = json.loads(text)
        assert decoded["approach"] == "faulter+patcher"
        assert decoded["converged"] is True
        assert decoded["final_reports"]["skip"]["model"] == "skip"
        assert decoded["iterations"][0]["patched"] >= 1

    def test_hybrid_to_dict(self, wl):
        result = Target(wl.build(), wl.good_input, wl.bad_input,
                        wl.grant_marker).harden(
            approach="hybrid", fault_models=("skip",))
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["approach"] == "hybrid"
        assert payload["branches_hardened"] >= 1
        assert payload["overhead_percent"] > \
            payload["translation_overhead_percent"]
        assert payload["ir_delta"]["switch"] == \
            4 * payload["branches_hardened"]

    def test_campaign_report_to_dict(self, wl):
        from repro.faulter import Faulter
        report = Faulter(wl.build(), wl.good_input, wl.bad_input,
                         wl.grant_marker).run_campaign("skip")
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["trace_length"] == report.trace_length
        assert payload["vulnerable_points"][0]["mnemonic"] == "cmp"
