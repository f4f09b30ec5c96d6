"""Artifact store: content addressing, corruption robustness, and the
cache-on/off x cold/warm bit-identity matrix."""

import os
import pickle

import pytest

from repro.faulter import EngineConfig, Faulter
from repro.faulter.artifacts import (
    _MAGIC,
    ArtifactStats,
    ArtifactStore,
    default_cache_dir,
    digest_key,
    facts_key,
    flags_key,
    image_digest,
    jit_key,
    trace_key,
)
from repro.faulter import artifacts, engine
from repro.faulter.engine import (
    MultiprocessBackend, shutdown_fleet)
from repro.workloads import pincheck
from tests.reference import reference_report


@pytest.fixture(scope="module")
def wl():
    return pincheck.workload()


@pytest.fixture(scope="module")
def exe(wl):
    return wl.build()


def make_faulter(wl, exe, store=None):
    return Faulter(exe, wl.good_input, wl.bad_input, wl.grant_marker,
                   name=wl.name, artifacts=store)


class TestKeys:
    def test_digest_key_is_stable(self):
        assert digest_key(b"a", 1, None) == digest_key(b"a", 1, None)

    def test_parts_do_not_alias(self):
        # length prefixes keep b"ab"+b"c" distinct from b"a"+b"bc"
        assert digest_key(b"ab", b"c") != digest_key(b"a", b"bc")

    def test_every_input_lands_in_the_key(self):
        base = trace_key("img", b"bad", 100)
        assert trace_key("other", b"bad", 100) != base
        assert trace_key("img", b"worse", 100) != base
        assert trace_key("img", b"bad", 99) != base

    def test_kinds_never_collide(self):
        keys = {trace_key("img", b"x", 1), flags_key("img", b"x", 1),
                facts_key("img", b"x", 1, "skip"), jit_key("img")}
        assert len(keys) == 4

    def test_image_digest_tracks_bytes(self):
        assert image_digest(b"elf") == image_digest(b"elf")
        assert image_digest(b"elf") != image_digest(b"elf2")

    def test_default_cache_dir_honors_xdg(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_cache_dir() == tmp_path / "r2r" / "artifacts"
        monkeypatch.delenv("XDG_CACHE_HOME")
        assert str(default_cache_dir()).endswith(
            os.path.join(".cache", "r2r", "artifacts"))


class TestStore:
    def test_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.save("trace", "k" * 64, [1, 2, 3])
        # fresh store: no in-memory memo, must hit the disk
        fresh = ArtifactStore(tmp_path)
        assert fresh.load("trace", "k" * 64) == [1, 2, 3]
        assert fresh.stats.hits == 1

    def test_missing_file_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.load("trace", "nope") is None
        assert store.stats.misses == 1

    def _payload_path(self, store, kind="trace", key="k" * 64):
        store.save(kind, key, [1, 2, 3])
        return store.root / kind / f"{key}.art"

    @pytest.mark.parametrize("mutate", [
        lambda raw: raw[:5],                       # truncated header
        lambda raw: raw[:-3],                      # truncated body
        lambda raw: b"junk" + raw[4:],             # clobbered magic
        lambda raw: raw[:50] + bytes([raw[50] ^ 0xFF]) + raw[51:],
        lambda raw: b"",                           # empty file
        lambda raw: _MAGIC + b"short",             # header only
    ])
    def test_corruption_is_a_silent_miss(self, tmp_path, mutate):
        store = ArtifactStore(tmp_path)
        path = self._payload_path(store)
        path.write_bytes(mutate(path.read_bytes()))
        fresh = ArtifactStore(tmp_path)
        assert fresh.load("trace", "k" * 64) is None
        assert fresh.stats.misses == 1

    def test_unpicklable_body_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = self._payload_path(store)
        body = b"\x80\x05not a pickle"
        import hashlib
        path.write_bytes(_MAGIC + hashlib.sha256(body).digest() + body)
        assert ArtifactStore(tmp_path).load("trace", "k" * 64) is None

    def test_validate_rejection_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("trace", "k" * 64, {"wrong": "type"})
        fresh = ArtifactStore(tmp_path)
        got = fresh.load("trace", "k" * 64,
                         validate=lambda p: isinstance(p, list))
        assert got is None
        assert fresh.stats.misses == 1

    def test_load_or_derive_times_the_builder(self, tmp_path):
        store = ArtifactStore(tmp_path)
        built = store.load_or_derive("trace", "k" * 64, lambda: [7])
        assert built == [7]
        assert store.stats.misses == 1 and store.stats.saves == 1
        again = store.load_or_derive("trace", "k" * 64,
                                     lambda: pytest.fail("rederived"))
        assert again == [7]
        assert store.stats.hits == 1

    def test_unpicklable_payload_save_fails_quietly(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.save("trace", "k" * 64, lambda: None) is False

    def test_info_and_clear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("trace", "a" * 64, [1])
        store.save("jit", "b" * 64, {"blocks": []})
        census = store.info()
        assert census["entries"] == 2
        assert set(census["kinds"]) == {"trace", "jit"}
        assert store.clear() == 2
        assert ArtifactStore(tmp_path).info()["entries"] == 0
        # clearing again is a no-op, not an error
        assert store.clear() == 0

    def test_stats_delta_and_merge(self):
        stats = ArtifactStats(hits=2, misses=1, saves=1,
                              derive_seconds=0.5)
        before = stats.snapshot()
        stats.hits += 3
        stats.derive_seconds += 0.25
        delta = stats.delta(before)
        assert delta["hits"] == 3 and delta["misses"] == 0
        assert delta["derive_seconds"] == pytest.approx(0.25)
        other = ArtifactStats()
        other.merge(delta)
        assert other.hits == 3


class TestConfigKnobs:
    def test_off_by_default(self):
        assert EngineConfig().artifact_store() is None

    def test_enabled_at_default_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        store = EngineConfig(artifact_cache=True).artifact_store()
        assert store is not None
        assert store.root == tmp_path / "r2r" / "artifacts"

    def test_cache_dir_implies_enabled(self, tmp_path):
        store = EngineConfig(cache_dir=str(tmp_path)).artifact_store()
        assert store is not None and store.root == tmp_path

    def test_explicit_off_wins(self):
        assert EngineConfig(
            artifact_cache=False).artifact_store() is None

    def test_off_conflicts_with_cache_dir(self, tmp_path):
        with pytest.raises(ValueError):
            EngineConfig(artifact_cache=False, cache_dir=str(tmp_path))

    def test_dict_roundtrip(self, tmp_path):
        config = EngineConfig(artifact_cache=True,
                              cache_dir=str(tmp_path),
                              backend="multiprocess")
        again = EngineConfig.from_dict(config.to_dict())
        assert again == config


MATRIX_MODELS = ("skip", "bitflip", "reg-bitflip")


class TestBitIdentityMatrix:
    """cache on/off x cold/warm x sequential/multiprocess x 3 models."""

    @pytest.fixture(scope="class")
    def baselines(self, wl, exe):
        faulter = make_faulter(wl, exe)
        return {model: reference_report(faulter, model)
                for model in MATRIX_MODELS}

    @pytest.mark.parametrize("model", MATRIX_MODELS)
    def test_cold_then_warm_sequential(self, wl, exe, tmp_path,
                                       baselines, model):
        root = tmp_path / "seq"
        cold = make_faulter(wl, exe, ArtifactStore(root)) \
            .run_campaign(model)
        assert cold == baselines[model]
        warm_store = ArtifactStore(root)
        warm = make_faulter(wl, exe, warm_store) \
            .run_campaign(model)
        assert warm == baselines[model]
        meta = warm.meta["artifacts"]
        assert meta["enabled"] and meta["hits"] > 0
        assert meta["misses"] == 0 and meta["saves"] == 0

    @pytest.mark.parametrize("model", MATRIX_MODELS)
    def test_cold_then_warm_multiprocess(self, wl, exe, tmp_path,
                                         baselines, model):
        root = tmp_path / "mp"
        backend = MultiprocessBackend(workers=2)
        cold = make_faulter(wl, exe, ArtifactStore(root)) \
            .run_campaign(model, backend=backend)
        assert cold == baselines[model]
        warm = make_faulter(wl, exe, ArtifactStore(root)) \
            .run_campaign(model, backend=backend)
        assert warm == baselines[model]
        assert warm.meta["artifacts"]["enabled"]

    def test_report_equality_ignores_artifact_meta(self, wl, exe,
                                                   tmp_path,
                                                   baselines):
        cached = make_faulter(
            wl, exe, ArtifactStore(tmp_path / "meta")) \
            .run_campaign("skip")
        uncached = make_faulter(wl, exe).run_campaign("skip")
        assert cached == uncached == baselines["skip"]
        assert cached.meta["artifacts"] != uncached.meta["artifacts"]


class TestEndToEndRobustness:
    def test_corrupt_every_artifact_then_rerun(self, wl, exe,
                                               tmp_path):
        """Flipping bytes in every stored artifact must silently fall
        back to re-derivation with an identical report."""
        store = ArtifactStore(tmp_path)
        baseline = reference_report(make_faulter(wl, exe), "skip")
        cold = make_faulter(wl, exe, store).run_campaign("skip")
        assert cold == baseline
        corrupted = 0
        for kind_dir in store.root.iterdir():
            for path in kind_dir.iterdir():
                raw = bytearray(path.read_bytes())
                raw[len(raw) // 2] ^= 0xFF
                path.write_bytes(bytes(raw))
                corrupted += 1
        assert corrupted > 0
        rerun_store = ArtifactStore(tmp_path)
        rerun = make_faulter(wl, exe, rerun_store).run_campaign("skip")
        assert rerun == baseline
        meta = rerun.meta["artifacts"]
        assert meta["misses"] > 0 and meta["saves"] > 0

    def test_stale_digest_falls_back(self, wl, exe, tmp_path):
        """An artifact whose body pickles fine but was recorded for
        different content (stale digest file swapped in) must be
        rejected by the body hash, not trusted."""
        store = ArtifactStore(tmp_path)
        faulter = make_faulter(wl, exe, store)
        baseline = reference_report(make_faulter(wl, exe), "skip")
        cold = faulter.run_campaign("skip")
        assert cold == baseline
        trace_dir = store.root / "trace"
        [path] = list(trace_dir.iterdir())
        # a valid-looking payload under the *wrong* outer digest: the
        # body hash no longer matches the stored header
        body = pickle.dumps([0xBAD])
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - len(body)] + body
                         if len(raw) > len(body) else raw[:8] + body)
        rerun = make_faulter(wl, exe, ArtifactStore(tmp_path)) \
            .run_campaign("skip")
        assert rerun == baseline

    def test_wrong_payload_type_is_revalidated(self, wl, exe,
                                               tmp_path):
        """A well-formed artifact holding the wrong shape (e.g. a dict
        where the trace list belongs) fails validation and re-derives."""
        store = ArtifactStore(tmp_path)
        cold_faulter = make_faulter(wl, exe, store)
        baseline = reference_report(make_faulter(wl, exe), "skip")
        assert cold_faulter.run_campaign("skip") == baseline
        trace_dir = store.root / "trace"
        [path] = list(trace_dir.iterdir())
        key = path.stem
        # overwrite through the store so magic/digest are valid
        poisoned = ArtifactStore(tmp_path)
        poisoned.save("trace", key, {"not": "a trace"})
        rerun = make_faulter(wl, exe, ArtifactStore(tmp_path)) \
            .run_campaign("skip")
        assert rerun == baseline

    def test_reduction_proofs_are_cached_and_reloaded(self, wl, exe,
                                                      tmp_path):
        """A campaign persists its prune verdicts under the
        ``facts`` kind; a later cold process loads them instead of
        re-running the traceflow analysis — identically."""
        store = ArtifactStore(tmp_path)
        baseline = reference_report(make_faulter(wl, exe), "skip")
        assert make_faulter(wl, exe, store) \
            .run_campaign("skip") == baseline
        facts_dir = store.root / "facts"
        assert any(facts_dir.iterdir())
        warm_store = ArtifactStore(tmp_path)
        before = warm_store.stats.snapshot()
        assert make_faulter(wl, exe, warm_store) \
            .run_campaign("skip") == baseline
        delta = warm_store.stats.delta(before)
        assert delta["hits"] > 0 and delta["misses"] == 0

    def test_other_code_orphans_jit_and_facts(self, wl, exe, tmp_path,
                                              monkeypatch):
        """Lowered block sources and reduction proofs saved by one
        version of the code are misses for another."""
        faulter = make_faulter(wl, exe, ArtifactStore(tmp_path))
        faulter.run_campaign("skip")
        keys = {
            "jit": lambda: jit_key(faulter.image_digest()),
            "facts": lambda: facts_key(faulter.image_digest(),
                                       wl.bad_input, len(faulter.trace()),
                                       "skip"),
        }
        store = ArtifactStore(tmp_path)
        for kind, key in keys.items():
            assert store.load(kind, key()) is not None
        monkeypatch.setattr(artifacts, "code_digest", lambda: "other")
        for kind, key in keys.items():
            assert store.load(kind, key()) is None
        rerun = make_faulter(wl, exe, ArtifactStore(tmp_path)) \
            .run_campaign("skip")
        assert rerun == reference_report(make_faulter(wl, exe), "skip")
        assert rerun.meta["artifacts"]["saves"] > 0

    @pytest.mark.parametrize("backend", ["sequential", "multiprocess"])
    def test_unwritable_cache_dir_changes_nothing(self, wl, exe,
                                                  tmp_path, backend):
        """A cache directory that cannot exist (its parent is a
        regular file, which binds root too) only costs misses."""
        from repro.api import Target
        blocker = tmp_path / "file"
        blocker.write_bytes(b"")
        target = Target(exe, wl.good_input, wl.bad_input,
                        wl.grant_marker, name=wl.name)
        config = {"backend": backend}
        if backend == "multiprocess":
            config["workers"] = 2
        cached = target.campaign(("skip",), config=EngineConfig(
            cache_dir=str(blocker / "cache"), **config))["skip"]
        off = target.campaign(("skip",), config=EngineConfig(
            artifact_cache=False, **config))["skip"]
        assert cached == off
        assert off.meta["artifacts"] == {"enabled": False}
        meta = cached.meta["artifacts"]
        assert meta["misses"] > 0 and meta["saves"] == 0

    def test_evaluate_with_cache_matches_without(self, wl, exe,
                                                 tmp_path):
        from repro.api import Target
        plain = Target(exe, wl.good_input, wl.bad_input,
                       wl.grant_marker, name=wl.name) \
            .evaluate(models=("skip",))
        cached = Target(exe, wl.good_input, wl.bad_input,
                        wl.grant_marker, name=wl.name) \
            .evaluate(models=("skip",),
                      config=EngineConfig(cache_dir=str(tmp_path)))
        assert cached.baseline_reports == plain.baseline_reports
        assert cached.hardened_reports == plain.hardened_reports
        assert cached.diff.counts() == plain.diff.counts()

    def test_target_follows_a_later_cache_off_config(self, wl, exe,
                                                     tmp_path):
        """A ``Target`` keeps one faulter across calls; a later call
        whose config turns the cache off must neither read nor write
        the earlier call's store."""
        from repro.api import Target
        target = Target(exe, wl.good_input, wl.bad_input,
                        wl.grant_marker, name=wl.name)
        cached = target.campaign(
            ("skip",), config=EngineConfig(cache_dir=str(tmp_path)))
        assert cached["skip"].meta["artifacts"]["enabled"]
        stored = sorted(tmp_path.rglob("*"))
        off = target.campaign(
            ("bitflip",), config=EngineConfig(artifact_cache=False))
        assert off["bitflip"].meta["artifacts"] == {"enabled": False}
        assert sorted(tmp_path.rglob("*")) == stored

    def test_warm_worker_follows_a_later_cache_off_campaign(
            self, wl, exe, tmp_path, monkeypatch):
        """A fleet worker memoizes its context, and the executors in
        it, per target; a later campaign on the same target without a
        store must neither read nor write the earlier campaign's store.
        One worker and a small window make the fleet path (several
        partitions, one process) deterministic."""
        def snapshot():
            return {path: path.read_bytes()
                    for path in tmp_path.rglob("*") if path.is_file()}

        shutdown_fleet()  # workers fork with the patched window
        monkeypatch.setattr(engine, "MAX_RESIDENT_POINTS", 64)
        backend = MultiprocessBackend(workers=1)
        try:
            cached = make_faulter(wl, exe, ArtifactStore(tmp_path)) \
                .run_campaign("bitflip", trace_window=range(6),
                              backend=backend)
            assert cached.meta["artifacts"]["enabled"]
            stored = snapshot()
            assert stored
            off = make_faulter(wl, exe).run_campaign(
                "bitflip", backend=backend)
        finally:
            shutdown_fleet()
        assert off == reference_report(make_faulter(wl, exe), "bitflip")
        assert off.meta["artifacts"] == {"enabled": False}
        assert snapshot() == stored


def teardown_module(module):
    shutdown_fleet()
