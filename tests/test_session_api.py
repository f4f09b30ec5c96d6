"""Session API tests: Target/Oracle/EngineConfig, the hardening
registry, and the CLI knob plumbing."""

import json

import pytest

from repro.api import EngineConfig, Target
from repro.cli import build_parser, main
from repro.emu.machine import run_executable
from repro.faulter import engine
from repro.faulter.engine import CampaignEngine
from repro.faulter.oracle import (
    AllOf, AnyOf, ExitCodeOracle, MarkerOracle, MemoryPredicateOracle,
    coerce_oracle, oracle_from_dict)
from repro.faulter.report import CRASHED, IGNORED, SUCCESS
from repro.hardening import (
    HARDENING_APPROACHES, HardeningApproach, approach_by_name,
    register_approach)
from repro.workloads import bootloader, corpus, pincheck
from tests.reference import reference_report

WORKLOADS = {"pincheck": pincheck.workload,
             "bootloader": bootloader.workload}


@pytest.fixture(params=sorted(WORKLOADS))
def wl(request):
    return WORKLOADS[request.param]()


class FakeRun:
    """Duck-typed RunResult for oracle unit tests."""

    def __init__(self, reason="exit", exit_code=0, stdout=b"",
                 memory=None):
        self.reason = reason
        self.exit_code = exit_code
        self.stdout = stdout
        self.memory = memory or {}

    @property
    def crashed(self):
        return self.reason in ("crash", "max-steps")


def _stable(payload):
    """Strip wall-clock timing from report payloads before comparing.

    ``meta["compile_seconds"]`` measures real compilation time and is
    the single non-deterministic report field; everything else must
    stay bit-identical.
    """
    if isinstance(payload, dict):
        return {key: _stable(value) for key, value in payload.items()
                if key != "compile_seconds"}
    if isinstance(payload, list):
        return [_stable(value) for value in payload]
    return payload


# ---------------------------------------------------------------------------
# EngineConfig
# ---------------------------------------------------------------------------


class TestEngineConfig:
    def test_roundtrip_lossless_and_json_safe(self):
        config = EngineConfig(
            backend="multiprocess", workers=3,
            k_faults=2, samples=50, seed=7,
            cache_dir="/tmp/r2r-cache")
        payload = json.loads(json.dumps(config.to_dict()))
        assert EngineConfig.from_dict(payload) == config

    def test_default_roundtrip(self):
        assert EngineConfig.from_dict(
            EngineConfig().to_dict()) == EngineConfig()

    def test_validation_at_construction(self):
        with pytest.raises(ValueError, match="unknown backend"):
            EngineConfig(backend="quantum")
        with pytest.raises(ValueError, match="workers"):
            EngineConfig(backend="sequential", workers=4)
        with pytest.raises(ValueError, match="k_faults"):
            EngineConfig(k_faults=0)
        # malformed numbers fail here, not deep inside the fleet
        for key, value in [("workers", 2.5), ("workers", True),
                           ("k_faults", "2"), ("samples", 1.0),
                           ("samples", False), ("seed", "x"),
                           ("seed", None)]:
            with pytest.raises(ValueError, match=key):
                EngineConfig(**{key: value})
        with pytest.raises(ValueError, match="workers"):
            EngineConfig.from_dict({"workers": "2"})

    @pytest.mark.parametrize("key, value", [
        ("max_resident_point", 8),    # a typo
        ("max_resident_points", 8),   # knobs this version no longer has
        ("chunk_units", True),
        ("checkpoint_interval", 64),
        ("trace_compile", False),
        ("reduce", False),
    ])
    def test_from_dict_rejects_unknown_keys(self, key, value):
        """A misspelt or retired knob must not silently run the
        defaults."""
        payload = {**EngineConfig().to_dict(), key: value}
        with pytest.raises(ValueError, match=key):
            EngineConfig.from_dict(payload)
        with pytest.raises(ValueError, match=key):
            pincheck.workload().target().campaign(
                ("skip",), config={key: value})

    def test_backend_instance_not_serializable(self):
        from repro.faulter.engine import SequentialBackend
        # the config names a backend; an instance is not a name
        with pytest.raises(ValueError, match="unknown backend"):
            EngineConfig(backend=SequentialBackend())

    def test_resolve_picks_multiprocess_for_workers(self):
        from repro.faulter.engine import MultiprocessBackend
        backend = EngineConfig(workers=2).resolve()
        assert isinstance(backend, MultiprocessBackend)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


class TestOracles:
    def test_marker_classification(self):
        oracle = MarkerOracle(b"GRANTED")
        assert oracle.classify(FakeRun(stdout=b"ACCESS GRANTED")) \
            == SUCCESS
        assert oracle.classify(FakeRun(stdout=b"DENIED")) == IGNORED
        assert oracle.classify(
            FakeRun(reason="crash", stdout=b"DENIED")) == CRASHED
        # the marker wins even when the run also crashed
        assert oracle.classify(
            FakeRun(reason="crash", stdout=b"GRANTED")) == SUCCESS

    def test_exit_code_classification(self):
        oracle = ExitCodeOracle(0)
        assert oracle.classify(FakeRun(exit_code=0)) == SUCCESS
        assert oracle.classify(FakeRun(exit_code=7)) == IGNORED
        assert oracle.classify(FakeRun(reason="crash")) == CRASHED
        # max-steps exhaustion with a matching nominal code is a
        # crash, not a grant
        assert oracle.classify(
            FakeRun(reason="max-steps", exit_code=0)) == CRASHED

    def test_memory_predicate_classification(self):
        oracle = MemoryPredicateOracle(0x1000, 2, equals=b"GO")
        assert oracle.watches() == ((0x1000, 2),)
        hit = FakeRun(memory={(0x1000, 2): b"GO"})
        miss = FakeRun(memory={(0x1000, 2): b"NO"})
        absent = FakeRun()
        assert oracle.classify(hit) == SUCCESS
        assert oracle.classify(miss) == IGNORED
        assert oracle.classify(absent) == IGNORED

    def test_memory_predicate_callable(self):
        oracle = MemoryPredicateOracle(
            0x1000, 1, predicate=lambda data: data[0] & 1 == 1)
        assert oracle.classify(
            FakeRun(memory={(0x1000, 1): b"\x03"})) == SUCCESS
        assert oracle.classify(
            FakeRun(memory={(0x1000, 1): b"\x02"})) == IGNORED
        with pytest.raises(ValueError, match="serializable"):
            oracle.to_dict()

    def test_memory_predicate_needs_exactly_one(self):
        with pytest.raises(ValueError, match="exactly one"):
            MemoryPredicateOracle(0x1000, 2)
        with pytest.raises(ValueError, match="exactly one"):
            MemoryPredicateOracle(0x1000, 2, equals=b"GO",
                                  predicate=lambda d: True)

    def test_composites(self):
        marker = MarkerOracle(b"OK")
        code = ExitCodeOracle(0)
        both = AllOf(marker, code)
        either = AnyOf(marker, code)
        granted = FakeRun(stdout=b"OK", exit_code=0)
        half = FakeRun(stdout=b"OK", exit_code=1)
        neither = FakeRun(stdout=b"NO", exit_code=1)
        assert both.classify(granted) == SUCCESS
        assert both.classify(half) == IGNORED
        assert either.classify(half) == SUCCESS
        assert either.classify(neither) == IGNORED
        with pytest.raises(ValueError, match="at least one"):
            AllOf()

    def test_composite_watches_deduped(self):
        a = MemoryPredicateOracle(0x1000, 2, equals=b"GO")
        b = MemoryPredicateOracle(0x1000, 2, equals=b"GO")
        c = MemoryPredicateOracle(0x2000, 4, equals=b"\0\0\0\0")
        assert AllOf(a, b, c).watches() == ((0x1000, 2), (0x2000, 4))

    @pytest.mark.parametrize("oracle", [
        MarkerOracle(b"ACCESS \xff GRANTED"),
        ExitCodeOracle(42),
        MemoryPredicateOracle(0x404000, 8, equals=b"\x00\xffsecret"),
        AllOf(MarkerOracle(b"A"), ExitCodeOracle(0)),
        AnyOf(MarkerOracle(b"A"),
              AllOf(ExitCodeOracle(1), MarkerOracle(b"B"))),
    ])
    def test_serialization_roundtrip(self, oracle):
        payload = json.loads(json.dumps(oracle.to_dict()))
        assert oracle_from_dict(payload) == oracle

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown oracle kind"):
            oracle_from_dict({"kind": "astrology"})

    def test_coercion(self):
        assert coerce_oracle(b"MARK") == MarkerOracle(b"MARK")
        oracle = ExitCodeOracle(3)
        assert coerce_oracle(oracle) is oracle
        with pytest.raises(TypeError, match="Oracle"):
            coerce_oracle(42)

    def test_memory_watch_capture_end_to_end(self):
        """Machine.run captures watched ranges into RunResult.memory."""
        wl = corpus.exitgate_workload()
        exe = wl.build()
        tok = exe.symbol("tok_buf").value
        result = run_executable(exe, stdin=b"GO",
                                watches=((tok, 2),))
        assert result.memory[(tok, 2)] == b"GO"
        oracle = MemoryPredicateOracle(tok, 2, equals=b"GO")
        assert oracle.classify(result) == SUCCESS


# ---------------------------------------------------------------------------
# non-marker oracle campaigns (acceptance criterion)
# ---------------------------------------------------------------------------


class TestExitCodeCampaign:
    def test_streaming_campaign_finds_vulnerabilities(self, monkeypatch):
        monkeypatch.setattr(engine, "MAX_RESIDENT_POINTS", 4)
        wl = corpus.exitgate_workload()
        reports = wl.target().campaign(("skip",))
        report = reports["skip"]
        assert report.vulnerable
        assert 0 < report.meta["peak_resident_points"] <= 4

    def test_backends_bit_identical_under_exit_oracle(self):
        """The oracle crosses process boundaries (pickled to
        workers)."""
        target = corpus.exitgate_workload().target()
        reference = reference_report(target.faulter(), "skip")
        sequential = target.campaign(("skip",))["skip"]
        multi = target.campaign(
            ("skip",),
            EngineConfig(backend="multiprocess", workers=2))["skip"]
        assert sequential == reference
        assert multi == reference

    def test_full_differential_loop(self):
        wl = corpus.exitgate_workload()
        evaluation = wl.target().evaluate(models=("skip",))
        census = evaluation.diff.counts(model="skip")
        assert census["eliminated"] >= 1
        assert census["surviving"] == 0

    def test_memory_oracle_campaign(self):
        """A memory-predicate oracle drives a campaign end-to-end:
        grant means 'the token buffer holds the magic token when the
        run ends'."""
        wl = corpus.exitgate_workload()
        exe = wl.build()
        tok = exe.symbol("tok_buf").value
        oracle = MemoryPredicateOracle(tok, 2, equals=b"GO")
        target = Target(exe, b"GO", b"NO", oracle, name="memgate")
        report = target.campaign(("skip",))["skip"]
        # a skip of the read-length check cannot rewrite the buffer,
        # so this oracle sees *no* successful faults -- unlike the
        # exit-code oracle over the identical binary
        exit_report = wl.target().campaign(("skip",))["skip"]
        assert not report.vulnerable
        assert exit_report.vulnerable
        assert report.total_faults == exit_report.total_faults
        # a callable predicate has no serial form, yet campaigns
        # through it like the equivalent equals= oracle
        callable_oracle = MemoryPredicateOracle(
            tok, 2, predicate=lambda data: data == b"GO")
        assert Target(exe, b"GO", b"NO", callable_oracle,
                      name="memgate").campaign(("skip",))["skip"] == report

    def test_broken_exit_oracle_rejected(self):
        from repro.errors import ReproError
        wl = corpus.exitgate_workload()
        with pytest.raises(ReproError, match="good input"):
            Target(wl.build(), b"XX", b"NO",
                   ExitCodeOracle(0)).campaign(("skip",))


# ---------------------------------------------------------------------------
# campaign reuse inside evaluate
# ---------------------------------------------------------------------------

APPROACHES = ("faulter+patcher", "hybrid", "detour")
MEMO_MODELS = ("skip", "bitflip")


def _evaluate_counting(target, **kwargs):
    """``target.evaluate(**kwargs)`` and how many campaigns it ran."""
    calls = []
    run = CampaignEngine.run

    def counting(self, *args, **kw):
        calls.append(self.faulter.name)
        return run(self, *args, **kw)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CampaignEngine, "run", counting)
        evaluation = target.evaluate(**kwargs)
    return evaluation, len(calls)


@pytest.fixture(scope="module")
def memo_evaluations():
    wl = pincheck.workload()
    return wl, {
        approach: _evaluate_counting(
            wl.target(), approach=approach, models=MEMO_MODELS,
            harden_models=MEMO_MODELS)
        for approach in APPROACHES}


def _memo_tags(reports):
    return {model: report.meta["memo"]
            for model, report in reports.items()}


class TestEvaluationMemo:
    @pytest.mark.parametrize("approach", APPROACHES)
    def test_reports_equal_fresh_campaigns(self, memo_evaluations,
                                           approach):
        wl, evaluations = memo_evaluations
        evaluation, _ = evaluations[approach]
        hardened = Target(evaluation.hardened, wl.good_input,
                          wl.bad_input, wl.grant_marker,
                          name=f"{wl.name}-hardened")
        assert evaluation.baseline_reports == \
            wl.target().campaign(MEMO_MODELS)
        assert evaluation.hardened_reports == \
            hardened.campaign(MEMO_MODELS)

    def test_each_distinct_campaign_runs_once(self, memo_evaluations):
        _, evaluations = memo_evaluations
        counts = {approach: calls
                  for approach, (_, calls) in evaluations.items()}
        # faulter+patcher: baseline 2 + loop 3 iterations x 2 + re-fault
        # 2 = 10 campaigns, of which the loop's first iteration and the
        # re-fault repeat earlier ones
        assert counts == {"faulter+patcher": 6, "hybrid": 4,
                          "detour": 4}

    def test_loop_reuses_baseline_and_last_iteration(self,
                                                     memo_evaluations):
        _, evaluations = memo_evaluations
        evaluation, _ = evaluations["faulter+patcher"]
        iterations = evaluation.result.iterations
        assert len(iterations) == 3
        assert _memo_tags(evaluation.baseline_reports) == \
            {"skip": "miss", "bitflip": "miss"}
        assert _memo_tags(iterations[0].reports) == \
            {"skip": "hit", "bitflip": "hit"}
        assert iterations[0].reports == evaluation.baseline_reports
        assert _memo_tags(evaluation.result.final_reports) == \
            {"skip": "miss", "bitflip": "miss"}
        assert _memo_tags(evaluation.hardened_reports) == \
            {"skip": "hit", "bitflip": "hit"}

    def test_mutating_a_hit_leaves_the_loop_reports(self):
        wl = pincheck.workload()
        evaluation = wl.target().evaluate(models=("skip",))
        final = evaluation.result.final_reports["skip"]
        before = final.to_dict()
        hit = evaluation.hardened_reports["skip"]
        assert hit.meta["memo"] == "hit"
        hit.target = "mutated"
        hit.successes.append(None)
        hit.outcomes["success"] += 1
        hit.meta["reduction"]["enabled"] = "mutated"
        assert final.to_dict() == before

    def test_back_to_back_evaluations_share_nothing(self):
        target = pincheck.workload().target()
        for _ in range(2):
            evaluation, calls = _evaluate_counting(
                target, models=MEMO_MODELS, harden_models=MEMO_MODELS)
            assert calls == 6
            assert _memo_tags(evaluation.baseline_reports) == \
                {"skip": "miss", "bitflip": "miss"}

    def test_k_fault_evaluation_gets_no_hit(self):
        """The loop patches single-fault points whatever the config
        says, so a pair evaluation shares no campaign with it."""
        config = EngineConfig(k_faults=2, samples=40, seed=3)
        evaluation, calls = _evaluate_counting(
            pincheck.workload().target(), models=("skip",),
            config=config)
        loop_reports = [report
                        for stats in evaluation.result.iterations
                        for report in stats.reports.values()]
        everything = (list(evaluation.baseline_reports.values())
                      + loop_reports
                      + list(evaluation.hardened_reports.values()))
        assert calls == len(everything)
        assert {report.meta["memo"] for report in everything} == {"miss"}
        assert evaluation.hardened_reports["skip"].target.endswith(
            "(pairs)")


@pytest.mark.parametrize("approach", APPROACHES)
def test_harden_honours_the_target_step_budget(approach):
    """Regression: the hardening campaigns used to run under the
    default 100,000 steps whatever the target's ``max_steps``."""
    from repro.errors import ReproError
    wl = pincheck.workload()
    exe = wl.build()
    good_steps = run_executable(exe, stdin=wl.good_input).steps
    bad_steps = run_executable(exe, stdin=wl.bad_input).steps
    assert bad_steps < good_steps
    target = Target(exe, wl.good_input, wl.bad_input, wl.grant_marker,
                    max_steps=good_steps - 1)
    with pytest.raises(ReproError, match="good input"):
        target.harden(approach, fault_models=("skip",))


# ---------------------------------------------------------------------------
# hardening-approach registry
# ---------------------------------------------------------------------------


class _StubResult:
    def __init__(self, exe):
        self.hardened = exe
        self.provenance = None

    def report(self):
        return "stub"


class TestApproachRegistry:
    def test_builtins_registered(self):
        for name in ("faulter+patcher", "hybrid", "detour"):
            entry = approach_by_name(name)
            assert entry.provenance
            assert callable(entry.harden)
        assert approach_by_name(
            "faulter+patcher").consumes_fault_models
        assert not approach_by_name("detour").consumes_fault_models

    def test_unknown_approach(self):
        with pytest.raises(ValueError, match="faulter"):
            approach_by_name("magic")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already"):
            register_approach(HardeningApproach(
                name="detour", harden=lambda *a, **k: None))

    def test_third_party_approach_plugs_in(self):
        calls = {}

        def noop_harden(exe, good, bad, oracle, *, models, name,
                        **kwargs):
            calls.update(models=models, name=name, oracle=oracle)
            return _StubResult(exe)

        register_approach(HardeningApproach(
            name="test-noop", harden=noop_harden,
            provenance="identity"))
        try:
            wl = pincheck.workload()
            result = wl.target().harden(approach="test-noop",
                                        fault_models=("bitflip",))
            assert isinstance(result, _StubResult)
            assert calls["models"] == ("bitflip",)
            assert calls["name"] == wl.name
            assert calls["oracle"] == MarkerOracle(wl.grant_marker)
            # CLI --approach choices derive from the registry
            parser = build_parser()
            args = parser.parse_args(
                ["harden", "t", "-o", "out", "--approach",
                 "test-noop", "--good", "00", "--bad", "01",
                 "--marker", "M"])
            assert args.approach == "test-noop"
        finally:
            del HARDENING_APPROACHES["test-noop"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["harden", "t", "-o", "out", "--approach",
                 "test-noop", "--good", "00", "--bad", "01",
                 "--marker", "M"])


# ---------------------------------------------------------------------------
# CLI: shared parents, parser-owned defaults, knob forwarding
# ---------------------------------------------------------------------------


class TestCLIKnobs:
    def test_model_default_owned_by_parser(self):
        parser = build_parser()
        args = parser.parse_args(
            ["fault", "t", "--good", "00", "--bad", "01",
             "--marker", "M"])
        assert args.model == ["skip"]

    def test_model_append_replaces_default(self):
        parser = build_parser()
        args = parser.parse_args(
            ["fault", "t", "--good", "00", "--bad", "01",
             "--marker", "M", "--model", "bitflip",
             "--model", "stuck0"])
        assert args.model == ["bitflip", "stuck0"]
        # and the shared default list was not mutated by the append
        again = parser.parse_args(
            ["fault", "t", "--good", "00", "--bad", "01",
             "--marker", "M"])
        assert again.model == ["skip"]

    def test_engine_knobs_shared_across_subcommands(self):
        parser = build_parser()
        for sub in (["fault", "t"],
                    ["harden", "t", "-o", "o"],
                    ["compare", "pincheck"]):
            args = parser.parse_args(
                sub + ["--good", "00", "--bad", "01", "--marker", "M",
                       "--backend", "multiprocess", "--workers", "2",
                       "--no-artifact-cache"])
            assert args.backend == "multiprocess"
            assert args.workers == 2
            assert args.artifact_cache is False

    def test_harden_evaluate_forwards_engine_knobs(self, capsys,
                                                   tmp_path,
                                                   monkeypatch):
        """Regression: ``r2r harden --evaluate`` used to silently
        drop every engine knob (the parser never accepted them)."""
        from repro.binfmt import write_elf
        import repro.cli as cli

        wl = pincheck.workload()
        target_path = tmp_path / "t.elf"
        output = tmp_path / "out.elf"
        target_path.write_bytes(write_elf(wl.build()))

        seen = {}
        original = cli.Target.evaluate

        def spy(self, **kwargs):
            seen.update(kwargs)
            return original(self, **kwargs)

        monkeypatch.setattr(cli.Target, "evaluate", spy)
        code = main(["harden", str(target_path), "-o", str(output),
                     "--evaluate", "--good", "text:1234",
                     "--bad", "text:6789",
                     "--marker", "ACCESS GRANTED",
                     "--backend", "sequential"])
        assert code == 0
        config = seen["config"]
        assert config.backend == "sequential"
        assert output.exists()
        assert "differential evaluation" in capsys.readouterr().out

    def test_evaluate_honours_k_fault_config(self):
        """Regression: evaluate used to silently ignore the
        multi-fault knobs its EngineConfig carried."""
        wl = pincheck.workload()
        config = EngineConfig(k_faults=2, samples=40, seed=3)
        evaluation = wl.target().evaluate(approach="detour",
                                          models=("skip",),
                                          config=config)
        base = evaluation.baseline_reports["skip"]
        hard = evaluation.hardened_reports["skip"]
        # both campaigns ran as sampled pair campaigns, exactly like
        # Target.campaign with the same config
        assert base.target.endswith("(pairs)")
        assert hard.target.endswith("(pairs)")
        direct = wl.target().campaign(("skip",), config)["skip"]
        assert _stable(direct.to_dict()) == _stable(base.to_dict())

    def test_plain_harden_rejects_engine_knobs(self, capsys,
                                               tmp_path):
        """Regression: ``r2r harden`` without --evaluate used to
        accept the shared engine knobs and silently drop them."""
        from repro.binfmt import write_elf

        wl = pincheck.workload()
        target_path = tmp_path / "t.elf"
        target_path.write_bytes(write_elf(wl.build()))
        code = main(["harden", str(target_path), "-o",
                     str(tmp_path / "out.elf"),
                     "--good", "text:1234", "--bad", "text:6789",
                     "--marker", "ACCESS GRANTED",
                     "--backend", "multiprocess"])
        assert code == 2
        assert "--evaluate" in capsys.readouterr().err

    def test_harden_evaluate_rejects_conflicting_knobs(self, capsys,
                                                       tmp_path):
        from repro.binfmt import write_elf

        wl = pincheck.workload()
        target_path = tmp_path / "t.elf"
        target_path.write_bytes(write_elf(wl.build()))
        code = main(["harden", str(target_path), "-o",
                     str(tmp_path / "out.elf"), "--evaluate",
                     "--good", "text:1234", "--bad", "text:6789",
                     "--marker", "ACCESS GRANTED",
                     "--backend", "sequential", "--workers", "2"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_compare_exitgate_uses_workload_oracle(self, capsys):
        """`r2r compare exitgate`: the whole differential loop under
        an exit-code oracle, no --marker anywhere."""
        code = main(["compare", "exitgate", "--model", "skip"])
        out = capsys.readouterr().out
        assert code == 0
        assert "differential evaluation" in out
        assert "eliminated=" in out
