"""Top-level session API.

One object — a :class:`Target` — bundles everything the paper's
pipeline re-threads through every step: the binary under test, the
good/bad campaign inputs, and the fault-detection :class:`Oracle`
deciding when a run counts as the privileged behaviour::

    from repro.api import EngineConfig, Target
    from repro.faulter.oracle import ExitCodeOracle

    target = Target(elf_bytes, good, bad, b"ACCESS GRANTED",
                    name="pincheck")          # bytes -> MarkerOracle
    # or: Target(path, good, bad, ExitCodeOracle(0), name="gate")
    # or: workload.target()

    reports = target.campaign(models=("skip", "bitflip"))
    result = target.harden(approach="faulter+patcher")
    evaluation = target.evaluate(
        approach="detour", models=("skip",),
        config=EngineConfig(backend="multiprocess", workers=4))
    print(evaluation.diff.table())

``EngineConfig`` replaces the per-call engine-knob sprawl (losslessly
serializable; validated at construction).  Hardening approaches live
in the :data:`repro.hardening.HARDENING_APPROACHES` registry —
``approach=`` strings, CLI choices, and the evaluation's dispatch all
derive from it, and :func:`repro.hardening.register_approach` plugs in
third-party rewriters without touching this module.

``Target.evaluate`` is the paper's actual evaluation loop (Tables
III-V): baseline campaign -> harden -> re-fault -> join the two
campaigns point-by-point through the rewrite's provenance map.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.binfmt.image import Executable
from repro.binfmt.reader import read_elf
from repro.binfmt.writer import write_elf
from repro.detour.rewriter import DetourResult
from repro.emu.machine import (
    DEFAULT_MAX_STEPS, MAX_STEPS, RunResult, run_inputs)
from repro.faulter.campaign import CampaignRunner, Faulter
from repro.faulter.engine import EngineConfig
from repro.faulter.oracle import (
    AllOf,
    AnyOf,
    ExitCodeOracle,
    MarkerOracle,
    MemoryPredicateOracle,
    Oracle,
    coerce_oracle,
    oracle_from_dict,
)
from repro.faulter.report import (
    CampaignReport,
    DifferentialReport,
    differential_report,
)
from repro.hardening import (
    HARDENING_APPROACHES,
    HardeningApproach,
    approach_by_name,
    register_approach,
)
from repro.hybrid.pipeline import HybridResult
from repro.patcher.loop import HardenResult
from repro.provenance import ProvenanceMap

__all__ = [
    "AllOf",
    "AnyOf",
    "EngineConfig",
    "EvaluationResult",
    "ExitCodeOracle",
    "HARDENING_APPROACHES",
    "HardeningApproach",
    "HardeningResult",
    "MarkerOracle",
    "MemoryPredicateOracle",
    "Oracle",
    "Target",
    "approach_by_name",
    "coerce_oracle",
    "hardened_elf",
    "oracle_from_dict",
    "register_approach",
]

HardeningResult = Union[HardenResult, HybridResult, DetourResult]


def _as_executable(
    image: Union[Executable, bytes, str, os.PathLike]
) -> Executable:
    if isinstance(image, (str, os.PathLike)):
        with open(image, "rb") as handle:
            return read_elf(handle.read())
    if isinstance(image, (bytes, bytearray)):
        return read_elf(bytes(image))
    return image


def _as_config(config) -> EngineConfig:
    if config is None:
        return EngineConfig()
    if isinstance(config, dict):
        return EngineConfig.from_dict(config)
    return config


def _section_namer(exe: Executable):
    def name_of(address: int) -> str:
        section = exe.section_at(address)
        return section.name if section is not None else "?"
    return name_of


class Target:
    """One binary under test, with its campaign inputs and oracle.

    ``image`` may be an :class:`Executable`, raw ELF bytes, or a
    filesystem path.  ``oracle`` is any
    :class:`~repro.faulter.oracle.Oracle`; raw ``bytes`` coerce to the
    default :class:`MarkerOracle` (the paper's stdout-marker check).
    The bound :class:`~repro.faulter.campaign.Faulter` — and therefore
    the validated baseline and the recorded bad-input trace — is
    created lazily on the first campaign and cached across
    ``campaign``/``evaluate`` calls.
    """

    def __init__(self,
                 image: Union[Executable, bytes, str, os.PathLike],
                 good_input: bytes,
                 bad_input: bytes,
                 oracle: Union[Oracle, bytes],
                 name: str = "target",
                 max_steps: int = 100_000):
        self.exe = _as_executable(image)
        self.good_input = good_input
        self.bad_input = bad_input
        self.oracle = coerce_oracle(oracle)
        self.name = name
        self.max_steps = max_steps
        self._faulter: Optional[Faulter] = None
        self._runs: Optional[tuple[RunResult, RunResult]] = None

    @classmethod
    def from_path(cls, path: Union[str, os.PathLike],
                  good_input: bytes, bad_input: bytes,
                  oracle: Union[Oracle, bytes],
                  name: Optional[str] = None,
                  max_steps: int = 100_000) -> "Target":
        """Load an ELF from ``path`` (named after it by default)."""
        return cls(path, good_input, bad_input, oracle,
                   name=name if name is not None else str(path),
                   max_steps=max_steps)

    def faulter(self) -> Faulter:
        """The campaign driver bound to this target (cached)."""
        if self._faulter is None:
            self._faulter = Faulter(
                self.exe, self.good_input, self.bad_input, self.oracle,
                name=self.name, max_steps=self.max_steps)
        return self._faulter

    def _original_runs(self) -> tuple[RunResult, RunResult]:
        """The original's good and bad runs, which the hardeners
        validate against (cached).

        The faulter's baselines are those runs when it exists and
        both terminated within ``run_executable``'s step budget;
        otherwise each input runs once here.
        """
        if self._runs is None:
            faulter = self._faulter
            runs = () if faulter is None else (faulter.good_baseline,
                                               faulter.bad_baseline)
            if not runs or any(run.reason == MAX_STEPS
                               or run.steps > DEFAULT_MAX_STEPS
                               for run in runs):
                runs = run_inputs(self.exe,
                                  (self.good_input, self.bad_input))
            self._runs = runs
        return self._runs

    # -- the paper's three methodologies ----------------------------------

    def campaign(self,
                 models: Sequence[str] = ("skip", "bitflip"),
                 config: Optional[EngineConfig] = None
                 ) -> dict[str, CampaignReport]:
        """Run fault campaigns (the faulter alone); {model: report}.

        ``models`` names members of the ``repro.faulter.models``
        registry — encoding faults (``skip``/``bitflip``/``stuck0``)
        and state faults (``reg-bitflip``/``flag-stuck``/
        ``mem-bitflip``/``branch-invert``) run through the same
        engine.  ``config`` carries every engine knob (backend,
        workers, multi-fault sampling, caching), as an
        :class:`EngineConfig` or its ``to_dict`` form;
        ``config.k_faults > 1`` switches to the sampled multi-fault
        campaign.
        """
        return self._original_reports(self._runner(config), models)

    def _runner(self, config) -> CampaignRunner:
        return CampaignRunner(self.good_input, self.bad_input,
                              self.oracle, max_steps=self.max_steps,
                              config=_as_config(config))

    def _original_reports(self, runner: CampaignRunner,
                          models: Sequence[str]
                          ) -> dict[str, CampaignReport]:
        """``runner``'s reports for the original image, run on the
        cached faulter.

        The cached faulter survives across ``campaign``/``evaluate``
        calls, so a store with the config's root is kept (its
        in-memory memo and stats stay warm), a root change swaps it,
        and a config with the cache off clears it.
        """
        faulter = self.faulter()
        store = runner.config.artifact_store()
        if store is None or faulter.artifacts is None \
                or faulter.artifacts.root != store.root:
            faulter.artifacts = store
        return runner.reports(self.exe, models, self.name,
                              faulter=faulter)

    def harden(self,
               approach: str = "faulter+patcher",
               fault_models: Sequence[str] = ("skip",),
               config: Optional[EngineConfig] = None,
               **kwargs) -> HardeningResult:
        """Harden with a registered approach; see
        :mod:`repro.hardening`.

        ``approach`` names an entry of ``HARDENING_APPROACHES``
        (built-ins: ``faulter+patcher`` — the iterative Fig. 2 loop,
        extra kwargs ``max_iterations``/``symbolization``; ``hybrid``
        — the Fig. 3 lift-harden-lower pipeline, extra kwargs
        ``uid_seed``/``branch_filter``/``fold_constants``; ``detour``
        — duplication through trampolines).  All results carry a
        :class:`~repro.provenance.ProvenanceMap` for differential
        evaluation.  Approaches that consume fault models while
        hardening (the Fig. 2 loop) iterate only on the
        *encoding-family* members of ``fault_models``, on the engine
        ``config`` (as :meth:`evaluate` does), or on a ``campaigns``
        runner the caller passes instead.  Every campaign the approach
        runs honours the target's ``max_steps``.
        """
        entry = approach_by_name(approach)
        if entry.consumes_fault_models:
            if "campaigns" not in kwargs:
                kwargs["campaigns"] = self._runner(config)
            elif config is not None:
                raise TypeError(
                    "harden() takes config= or campaigns=, not both")
        if entry.validates_behaviour:
            kwargs.setdefault("original_runs", self._original_runs())
        return entry.harden(
            self.exe, self.good_input, self.bad_input, self.oracle,
            models=tuple(fault_models), name=self.name,
            max_steps=self.max_steps, **kwargs)

    def evaluate(self,
                 approach: str = "faulter+patcher",
                 models: Sequence[str] = ("skip",),
                 config: Optional[EngineConfig] = None,
                 harden_models: Optional[Sequence[str]] = None,
                 **harden_kwargs) -> "EvaluationResult":
        """The full differential evaluation loop (Tables III-V).

        1. baseline fault campaigns (``models``) against the original,
        2. harden with ``approach`` (approaches that consume fault
           models iterate on ``harden_models``, default ``("skip",)``;
           the others harden unconditionally),
        3. re-fault the hardened binary under the same ``models`` and
           engine ``config`` (streaming engine, any backend;
           ``config.k_faults > 1`` runs both campaigns as sampled
           multi-fault campaigns, exactly like :meth:`campaign`),
        4. join both campaigns through the rewrite's provenance map
           into a :class:`~repro.faulter.report.DifferentialReport`
           classifying every point as eliminated/surviving/introduced/
           unmapped.

        State-family models are evaluation-only here: the patcher's
        duplication patterns are designed against fetch faults, so
        steps 1 and 3 campaign under every requested model while the
        Fig. 2 loop iterates on the encoding members — which is
        exactly how one asks whether a countermeasure survives data
        faults it was never designed for.

        Steps 1-3 share one :class:`~repro.faulter.campaign.
        CampaignRunner` built from ``config``, so no campaign runs
        twice within this call: the Fig. 2 loop's first image is
        byte-identical to the original, and the re-fault repeats the
        loop's last iteration.
        """
        runner = self._runner(config)
        baseline = self._original_reports(runner, models)

        if harden_models is None:
            harden_models = ("skip",)
        entry = approach_by_name(approach)
        # only approaches that *consume* fault models while hardening
        # receive them, with the runner their campaigns go through;
        # for the others they would merely duplicate step 3
        if entry.consumes_fault_models:
            fault_models = tuple(harden_models)
            harden_kwargs["campaigns"] = runner
        else:
            fault_models = ()
        if entry.validates_behaviour:
            harden_kwargs.setdefault("original_runs", self._original_runs())
        result = entry.harden(
            self.exe, self.good_input, self.bad_input, self.oracle,
            models=fault_models, name=self.name,
            max_steps=self.max_steps, **harden_kwargs)

        hardened = runner.reports(result.hardened, models,
                                  f"{self.name}-hardened")

        diff = differential_report(
            baseline, hardened, result.provenance, target=self.name,
            section_of_original=_section_namer(self.exe),
            section_of_rewritten=_section_namer(result.hardened))
        return EvaluationResult(
            approach=approach,
            result=result,
            baseline_reports=baseline,
            hardened_reports=hardened,
            diff=diff,
        )

    def __repr__(self):
        return (f"Target({self.name!r}, "
                f"oracle={self.oracle.describe()})")


def hardened_elf(result: HardeningResult) -> bytes:
    """Serialize a hardening result to ELF bytes."""
    return write_elf(result.hardened)


@dataclass
class EvaluationResult:
    """Outcome of one baseline -> harden -> re-fault -> diff cycle."""

    approach: str
    result: HardeningResult
    baseline_reports: dict[str, CampaignReport] = field(
        default_factory=dict)
    hardened_reports: dict[str, CampaignReport] = field(
        default_factory=dict)
    diff: DifferentialReport = field(
        default_factory=lambda: DifferentialReport(target="target"))

    @property
    def hardened(self) -> Executable:
        return self.result.hardened

    @property
    def provenance(self) -> ProvenanceMap:
        return self.result.provenance

    def to_dict(self) -> dict:
        return {
            "approach": self.approach,
            "harden": self.result.to_dict(),
            "baseline_reports": {
                model: report.to_dict()
                for model, report in self.baseline_reports.items()
            },
            "hardened_reports": {
                model: report.to_dict()
                for model, report in self.hardened_reports.items()
            },
            "diff": self.diff.to_dict(),
        }

    def report(self) -> str:
        return "\n".join((self.result.report(), self.diff.table()))
