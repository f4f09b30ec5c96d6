"""Hardening binaries with no symbol table (the paper's scenario:
legacy binaries, lost sources — symbols are a luxury)."""

from repro.emu import run_executable
from repro.faulter import Faulter
from repro.patcher import FaulterPatcherLoop
from repro.workloads import bootloader, pincheck


class TestStrippedHardening:
    def test_pincheck_stripped_loop_converges(self):
        wl = pincheck.workload()
        stripped = wl.build().stripped()
        assert stripped.symbols == []
        result = FaulterPatcherLoop(
            stripped, wl.good_input, wl.bad_input, wl.grant_marker,
            models=("skip",), name="stripped-pincheck").run()
        assert result.converged
        good = run_executable(result.hardened, stdin=wl.good_input)
        bad = run_executable(result.hardened, stdin=wl.bad_input)
        assert wl.grant_marker in good.stdout
        assert wl.grant_marker not in bad.stdout

    def test_bootloader_stripped_loop_converges(self):
        wl = bootloader.workload()
        stripped = wl.build().stripped()
        result = FaulterPatcherLoop(
            stripped, wl.good_input, wl.bad_input, wl.grant_marker,
            models=("skip",), name="stripped-bootloader").run()
        assert result.converged

    def test_stripped_hybrid(self):
        from repro.hybrid import hybrid_harden
        wl = pincheck.workload()
        stripped = wl.build().stripped()
        result = hybrid_harden(stripped, wl.good_input, wl.bad_input,
                               wl.grant_marker, name="stripped",
                               models=("skip",))
        assert not result.final_reports["skip"].vulnerable

    def test_campaigns_equal_with_and_without_symbols(self):
        """Symbols are cosmetic: the faulter must find the same faults."""
        wl = pincheck.workload()
        exe = wl.build()
        with_syms = Faulter(exe, wl.good_input, wl.bad_input,
                            wl.grant_marker).run_campaign("skip")
        without = Faulter(exe.stripped(), wl.good_input, wl.bad_input,
                          wl.grant_marker).run_campaign("skip")
        assert with_syms.outcomes == without.outcomes
        assert [f.address for f in with_syms.successes] == \
            [f.address for f in without.successes]


class TestOracle:
    def test_classification_categories(self):
        wl = pincheck.workload()
        faulter = Faulter(wl.build(), wl.good_input, wl.bad_input,
                          wl.grant_marker)
        report = faulter.run_campaign("bitflip",
                                      collect_outcomes=True)
        outcomes = {o.outcome for o in report.all_outcomes}
        assert outcomes == {"success", "crash", "ignored"}

    def test_crash_includes_runaway_execution(self):
        """Faults that cause loops are classified as crashes (the
        paper ignores them)."""
        wl = pincheck.workload()
        faulter = Faulter(wl.build(), wl.good_input, wl.bad_input,
                          wl.grant_marker)
        report = faulter.run_campaign("bitflip")
        assert report.outcomes["crash"] > 0

    def test_grant_marker_definition_of_success(self):
        from repro.emu.machine import RunResult
        wl = pincheck.workload()
        faulter = Faulter(wl.build(), wl.good_input, wl.bad_input,
                          wl.grant_marker)
        granted = RunResult("exit", exit_code=0,
                            stdout=b"ACCESS GRANTED\n")
        denied = RunResult("exit", exit_code=1,
                           stdout=b"ACCESS DENIED\n")
        crashed = RunResult("crash", crash_detail="x")
        assert faulter.classify(granted) == "success"
        assert faulter.classify(denied) == "ignored"
        assert faulter.classify(crashed) == "crash"
        # a crash that still printed the marker counts as success:
        # the privileged operation already happened
        leaky = RunResult("crash", stdout=b"ACCESS GRANTED\n")
        assert faulter.classify(leaky) == "success"
