"""The fault campaign driver (the *faulter* of Fig. 2).

Protocol, following Section IV-B.1:

1. run the "good" and "bad" inputs to establish baseline behaviours
   (the good run must exhibit the privileged marker, the bad run must
   not — otherwise there is nothing to protect),
2. record the bad input's execution trace,
3. for each offset in the trace and each fault the model can express
   there, re-run with that single fault injected and classify the
   outcome:

   * ``success`` — the privileged behaviour appears (a vulnerability),
   * ``crash``   — invalid opcode, memory fault, or runaway execution,
   * ``ignored`` — still behaves like a bad input.

The paper forks each fault simulation; we snapshot CPU/IO state and
journal memory writes at the fault point instead, replaying only the
suffix of the trace for each fault (see ``repro.emu.memory``).

The "privileged behaviour appeared" decision is delegated to a
pluggable :class:`~repro.faulter.oracle.Oracle` — a raw ``bytes``
marker still works everywhere (it coerces to the default
:class:`~repro.faulter.oracle.MarkerOracle`), but exit-code and
memory-predicate oracles open workloads whose grant path never
prints.

All campaign flavors route through the unified engine
(:mod:`repro.faulter.engine`): a campaign is a
:class:`~repro.faulter.space.FaultSpace` executed on an
:class:`~repro.faulter.engine.ExecutionBackend`.  Every method below
takes an optional backend instance; ``None`` means a default
:class:`~repro.faulter.engine.SequentialBackend`.

:class:`CampaignRunner` runs campaigns the way an
:class:`~repro.faulter.engine.EngineConfig` asks, over any number of
images, and never runs the same campaign twice in its lifetime.
"""

from __future__ import annotations

import json
from copy import deepcopy
from typing import Optional, Sequence

from repro.binfmt.image import Executable
from repro.binfmt.reader import read_elf
from repro.binfmt.writer import write_elf
from repro.emu.machine import Machine
from repro.errors import ReproError
from repro.faulter import artifacts as artifacts_mod
from repro.faulter.artifacts import ArtifactStore
from repro.faulter.engine import (
    CampaignEngine,
    EngineConfig,
    ExecutionBackend,
    derive_trace,
)
from repro.faulter.models import FaultModel, model_by_name
from repro.faulter.oracle import Oracle, coerce_oracle
from repro.faulter.report import (
    CRASHED,
    IGNORED,
    SUCCESS,
    CampaignReport,
    Fault,
    FaultOutcome,
)
from repro.faulter.space import (
    ExhaustiveSpace,
    KFaultProductSpace,
    WindowedSpace,
)

__all__ = [
    "SUCCESS",
    "CRASHED",
    "IGNORED",
    "CampaignRunner",
    "Fault",
    "FaultOutcome",
    "Faulter",
]


class Faulter:
    """Runs fault campaigns against one binary."""

    def __init__(
        self,
        image: Executable | bytes,
        good_input: bytes,
        bad_input: bytes,
        oracle: Oracle | bytes,
        name: str = "target",
        max_steps: int = 100_000,
        artifacts: Optional[ArtifactStore] = None,
    ):
        self.image = image
        self.good_input = good_input
        self.bad_input = bad_input
        self.oracle = coerce_oracle(oracle)
        self.watches = self.oracle.watches()
        self.name = name
        self.max_steps = max_steps
        self._trace: Optional[list[int]] = None
        self._engine: Optional[CampaignEngine] = None
        self.artifacts = artifacts
        self._elf: Optional[bytes] = None
        self._image_key: Optional[str] = None
        self._validate_baseline()

    # A fleet job carries its Faulter: the image travels as its ELF
    # bytes and the validated baselines travel along, so a worker never
    # re-runs them; the trace and engine are re-derived per process.
    def __getstate__(self):
        return {**self.__dict__, "image": None, "_trace": None,
                "_engine": None, "_elf": self.elf_bytes()}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.image = read_elf(self._elf)

    # -- baselines --------------------------------------------------------

    def _run(self, stdin: bytes, **kwargs):
        return Machine(self.image, stdin=stdin).run(
            max_steps=self.max_steps, **kwargs
        )

    def _validate_baseline(self):
        good = self._run(self.good_input, watches=self.watches)
        bad = self._run(self.bad_input, watches=self.watches)
        if self.classify(good) != SUCCESS:
            raise ReproError(
                f"{self.name}: good input does not produce the "
                f"privileged behaviour under {self.oracle.describe()} "
                f"({good})"
            )
        if self.classify(bad) == SUCCESS:
            raise ReproError(
                f"{self.name}: bad input already produces the "
                f"privileged behaviour under "
                f"{self.oracle.describe()} — nothing to protect"
            )
        self.good_baseline = good
        self.bad_baseline = bad

    def classify(self, result) -> str:
        """Map a faulted run onto the paper's three outcome classes."""
        return self.oracle.classify(result)

    @property
    def continuation_cap(self) -> int:
        """Step budget for one faulted run (2x baseline + headroom)."""
        return self.bad_baseline.steps * 2 + 256

    # -- campaign ---------------------------------------------------------

    def elf_bytes(self) -> bytes:
        """The target image as ELF bytes (serialized once)."""
        if self._elf is None:
            image = self.image
            if isinstance(image, (bytes, bytearray)):
                self._elf = bytes(image)
            else:
                self._elf = write_elf(image)
        return self._elf

    def image_digest(self) -> str:
        """Content digest of the target image (computed once)."""
        if self._image_key is None:
            self._image_key = artifacts_mod.image_digest(self.elf_bytes())
        return self._image_key

    def trace(self) -> list[int]:
        """Instruction-address trace of the bad input (computed once,
        loaded from the artifact store when one is configured)."""
        if self._trace is None:
            self._trace = derive_trace(
                self.image,
                self.bad_input,
                self.max_steps,
                artifacts=self.artifacts,
                image_key=(self.image_digest()
                           if self.artifacts is not None else None),
            )
        return self._trace

    def engine(self) -> CampaignEngine:
        """The campaign engine bound to this target (shared contexts)."""
        if self._engine is None:
            self._engine = CampaignEngine(self)
        return self._engine

    def run_campaign(
        self,
        model: FaultModel | str,
        trace_window: Optional[Sequence[int]] = None,
        collect_outcomes: bool = False,
        backend: Optional[ExecutionBackend] = None,
        reduce: bool | None = None,
    ) -> CampaignReport:
        """Inject every fault ``model`` expresses along the bad-input
        trace.

        ``trace_window`` optionally restricts the dynamic offsets
        attacked (an iterable of trace indices) — the escape hatch
        for long traces.  ``backend`` is the execution
        backend (default: master-walk :class:`SequentialBackend`).
        ``reduce=False`` turns equivalence reduction off — the
        unreduced reference run for checks; the report covers the full
        space either way (see :mod:`repro.faulter.reduction`).
        """
        if trace_window is None:
            space = ExhaustiveSpace()
        else:
            space = WindowedSpace(indices=tuple(trace_window))
        return self.engine().run(
            model,
            space,
            backend=backend,
            collect_outcomes=collect_outcomes,
            reduce=reduce,
        )

    # -- multi-fault campaigns (extension) --------------------------------

    def run_k_fault_campaign(
        self,
        model: FaultModel | str,
        k: int = 2,
        samples: int = 200,
        seed: int = 0,
        backend: Optional[ExecutionBackend] = None,
        reduce: bool | None = None,
    ) -> CampaignReport:
        """``k`` faults per run, sampled along the bad-input trace.

        The paper notes the faulter is parametric in "the number of
        faults injected per run"; exhaustive k-fault products are
        O(population^k), so we sample deterministic random k-tuples.
        A countermeasure that defeats all single faults may still fall
        to a pair (e.g. skipping both duplicated compares).
        """
        space = KFaultProductSpace(k=k, samples=samples, seed=seed)
        return self.engine().run(
            model,
            space,
            backend=backend,
            target=_k_fault_target(self.name, k),
            reduce=reduce,
        )


def _k_fault_target(name: str, k: int) -> str:
    """The report ``target`` of a ``k``-fault campaign on ``name``."""
    return f"{name}(pairs)" if k == 2 else f"{name}({k}-faults)"


class CampaignRunner:
    """Campaigns for one good/bad input pair, oracle, step budget and
    :class:`~repro.faulter.engine.EngineConfig`, over any image.

    Every report is memoized for the life of the runner, so a campaign
    whose image bytes come back runs once.  ``Target.evaluate`` makes
    one runner per call and sends the baseline, every campaign of the
    Fig. 2 loop and the re-fault through it: loop iteration 1 faults
    the unpatched reassembly, which is byte-identical to the original,
    and the re-fault faults the loop's last image.

    The memo key holds everything that can change a report: the image
    digest, the good and bad inputs, the oracle, the model, the fault
    space (exhaustive, or k-fault with ``k``/``samples``/``seed``) and
    ``max_steps``.  It leaves out the execution knobs — backend and
    workers — because every setting of them yields a bit-identical
    report (``tests/reference.py`` is the proof); a knob that ever
    breaks that invariant must join the key.

    A hit skips building the :class:`Faulter` and returns an
    independent copy named after the caller, whose ``meta`` is the
    producing run's plus ``meta["memo"] = "hit"`` (misses carry
    ``"miss"``).  Keep runners short-lived: a memo shared across
    evaluations would turn an engine-vs-engine comparison into a
    comparison of one run with itself.
    """

    def __init__(
        self,
        good_input: bytes,
        bad_input: bytes,
        oracle: Oracle | bytes,
        max_steps: int = 100_000,
        config: Optional[EngineConfig] = None,
    ):
        self.good_input = good_input
        self.bad_input = bad_input
        self.oracle = coerce_oracle(oracle)
        self.max_steps = max_steps
        self.config = config if config is not None else EngineConfig()
        self._backend = self.config.resolve()
        self._artifacts = self.config.artifact_store()
        try:
            oracle_key = json.dumps(self.oracle.to_dict(), sort_keys=True)
        except ValueError:
            # a callable predicate has no serial form; the runner holds
            # the oracle for its whole life, so its identity is unique
            oracle_key = f"id:{id(self.oracle)}"
        self._key = (good_input, bad_input, oracle_key, max_steps)
        self._memo: dict[tuple, CampaignReport] = {}

    def reports(
        self,
        image: Executable,
        models: Sequence[FaultModel | str],
        name: str,
        *,
        single_fault: bool = False,
        faulter: Optional[Faulter] = None,
    ) -> dict[str, CampaignReport]:
        """``{model: report}`` for ``image`` under ``models``, with
        every report's ``target`` set to ``name``.

        ``single_fault`` runs exhaustive single-fault campaigns
        whatever ``config.k_faults`` says (the Fig. 2 loop patches
        single-fault points).  ``faulter`` is an already-built
        :class:`Faulter` for ``image`` with this runner's inputs,
        oracle and ``max_steps``; without one, the first miss builds
        it.
        """
        k = 1 if single_fault else self.config.k_faults
        if k == 1:
            space, target = ("exhaustive",), name
        else:
            config = self.config
            space = ("k-fault", k, config.samples, config.seed)
            target = _k_fault_target(name, k)
        if faulter is not None:
            digest = faulter.image_digest()
        else:
            digest = artifacts_mod.image_digest(write_elf(image))
        reports = {}
        for model in models:
            if isinstance(model, str):
                model = model_by_name(model)
            key = (digest, *self._key, model.name, space)
            stored = self._memo.get(key)
            if stored is not None:
                report = CampaignReport.from_dict(stored.to_dict())
                report.meta = {**deepcopy(stored.meta), "memo": "hit"}
            else:
                if faulter is None:
                    faulter = Faulter(
                        image,
                        self.good_input,
                        self.bad_input,
                        self.oracle,
                        name=name,
                        max_steps=self.max_steps,
                        artifacts=self._artifacts,
                    )
                report = self._run(faulter, model, k)
                report.meta["memo"] = "miss"
                self._memo[key] = report
            report.target = target
            reports[model.name] = report
        return reports

    def _run(
        self, faulter: Faulter, model: FaultModel, k: int
    ) -> CampaignReport:
        config, backend = self.config, self._backend
        if k > 1:
            return faulter.run_k_fault_campaign(
                model,
                k=k,
                samples=config.samples,
                seed=config.seed,
                backend=backend,
            )
        return faulter.run_campaign(model, backend=backend)
