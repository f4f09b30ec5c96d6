"""The hardening-approach registry.

Mirrors ``repro.faulter.models.MODELS``: each of the paper's rewriting
approaches — the iterative Fig. 2 faulter+patcher loop, the Fig. 3
lift-harden-lower hybrid, and the Section III-B trampoline detour — is
one :class:`HardeningApproach` entry carrying its harden callable and
its provenance contract.  ``approach=`` strings in the session API,
``r2r --approach`` CLI choices, and the differential evaluation's
dispatch all derive from this one table, and third-party approaches
plug in with :func:`register_approach` without touching ``repro.api``
or ``repro.cli``::

    from repro.hardening import HardeningApproach, register_approach

    register_approach(HardeningApproach(
        name="my-rewriter",
        harden=my_harden,            # (exe, good, bad, oracle,
                                     #  *, models, name, **kw) -> result
        provenance="identity",
        description="..."))

A harden callable returns a result object exposing ``hardened`` (the
rewritten :class:`~repro.binfmt.image.Executable`), ``provenance`` (a
:class:`~repro.provenance.ProvenanceMap` honouring the declared
contract — the differential evaluation joins campaigns through it),
and ``report()``.  ``**kw`` always carries ``max_steps``, the step
budget of any campaign the approach runs; ``Target.evaluate`` also
hands approaches that consume fault models ``campaigns``, the
:class:`~repro.faulter.campaign.CampaignRunner` of the evaluation, to
run their campaigns through, and ``Target`` hands approaches that
validate behaviour ``original_runs``, the original's good and bad
runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.detour.rewriter import detour_harden
from repro.faulter.campaign import CampaignRunner
from repro.faulter.models import model_by_name
from repro.hybrid.pipeline import hybrid_harden
from repro.patcher.loop import FaulterPatcherLoop


def encoding_family(models: Sequence) -> tuple:
    """Restrict ``models`` to the encoding family, defaulting to skip.

    The Fig. 2 patch loop's duplication patterns protect against fetch
    faults; iterating it on a state model would churn expensive
    campaigns it can never converge.  State models stay
    evaluation-only (see ``Target.evaluate``).
    """
    def family(model):
        if isinstance(model, str):
            return model_by_name(model).family
        return model.family

    return tuple(m for m in models if family(m) == "encoding") \
        or ("skip",)


@dataclass(frozen=True)
class HardeningApproach:
    """One registered way to rewrite a binary against faults.

    ``harden`` has the normalized signature
    ``(exe, good_input, bad_input, oracle, *, models, name, **kwargs)``
    and returns a result with ``hardened``/``provenance``/``report()``.
    ``consumes_fault_models`` marks approaches whose hardening loop
    *iterates* on fault campaigns (the Fig. 2 loop) — the differential
    evaluation forwards its ``harden_models`` only to those.
    ``provenance`` states the contract of the emitted provenance map
    (how original points join to rewritten ones).
    ``validates_behaviour`` marks approaches that check the hardened
    image against the original's behaviour on both inputs; ``Target``
    hands them the original's runs as ``original_runs``.
    """

    name: str
    harden: Callable
    consumes_fault_models: bool = False
    validates_behaviour: bool = False
    provenance: str = ""
    description: str = ""


HARDENING_APPROACHES: dict[str, HardeningApproach] = {}


def register_approach(approach: HardeningApproach,
                      replace: bool = False) -> HardeningApproach:
    """Add ``approach`` to the registry (error on duplicate names)."""
    if approach.name in HARDENING_APPROACHES and not replace:
        raise ValueError(
            f"hardening approach {approach.name!r} is already "
            "registered (pass replace=True to override)")
    HARDENING_APPROACHES[approach.name] = approach
    return approach


def approach_by_name(name: str) -> HardeningApproach:
    """Look up a registered approach by name."""
    try:
        return HARDENING_APPROACHES[name]
    except KeyError:
        raise ValueError(
            f"unknown approach {name!r}; pick one of "
            f"{tuple(sorted(HARDENING_APPROACHES))}") from None


# ---------------------------------------------------------------------------
# built-in approaches
# ---------------------------------------------------------------------------


def _harden_faulter_patcher(exe, good_input, bad_input, oracle, *,
                            models, name, max_steps, campaigns=None,
                            **kwargs):
    if campaigns is None:
        campaigns = CampaignRunner(good_input, bad_input, oracle,
                                   max_steps=max_steps)
    loop = FaulterPatcherLoop(
        exe, good_input, bad_input, oracle,
        models=encoding_family(models), name=name, campaigns=campaigns,
        **kwargs)
    return loop.run()


def _harden_hybrid(exe, good_input, bad_input, oracle, *, models,
                   name, **kwargs):
    return hybrid_harden(exe, good_input, bad_input, oracle,
                         name=name, models=models, **kwargs)


def _harden_detour(exe, good_input, bad_input, oracle, *, models,
                   name, **kwargs):
    return detour_harden(exe, good_input, bad_input, oracle,
                         name=name, models=models, **kwargs)


register_approach(HardeningApproach(
    name="faulter+patcher",
    harden=_harden_faulter_patcher,
    consumes_fault_models=True,
    provenance="instruction-exact (assembler tag map)",
    description="iterative simulation-guided patching (Fig. 2); "
                "campaigns on the encoding-family fault models drive "
                "each patch round",
))

register_approach(HardeningApproach(
    name="hybrid",
    harden=_harden_hybrid,
    validates_behaviour=True,
    provenance="guest block ranges (lifter metadata), derived points "
               "for synthesized code",
    description="lift to IR, harden conditional branches, lower "
                "(Fig. 3)",
))

register_approach(HardeningApproach(
    name="detour",
    harden=_harden_detour,
    validates_behaviour=True,
    provenance="identity .text plus exact trampoline mappings",
    description="duplication countermeasure via trampolines "
                "(Section III-B)",
))
