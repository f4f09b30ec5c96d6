"""Op-count guards for the master walk's per-point set-up.

A fault point pays for its own steps; the set-up its offset or its
detail shares with other points is paid once: one pre-fault snapshot
per offset, however many points it has, and one fault effect per
distinct detail.  Reports stay equal to the reference protocol.
"""

import pytest

from repro.emu.machine import Machine
from repro.faulter import Faulter, engine
from repro.faulter.models import MODELS
from repro.faulter.space import ExhaustiveSpace, KFaultProductSpace
from repro.workloads import pincheck
from tests.reference import reference_report


@pytest.fixture(scope="module")
def faulter():
    wl = pincheck.workload()
    return Faulter(wl.build(), wl.good_input, wl.bad_input,
                   wl.grant_marker)


def _counting(monkeypatch, owner, name):
    """Record the arguments of every call of ``owner.name``."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _points(faulter, model, space):
    return list(space.enumerate(faulter.engine().context(model)))


@pytest.mark.parametrize("model, space", [
    ("bitflip", ExhaustiveSpace()),
    ("reg-bitflip", ExhaustiveSpace()),
    ("skip", KFaultProductSpace(2, samples=200, seed=1)),
], ids=["bitflip", "reg-bitflip", "skip-k2"])
def test_one_snapshot_per_offset(monkeypatch, faulter, model, space):
    points = _points(faulter, model, space)
    assert len(points) <= engine.MAX_RESIDENT_POINTS  # one window
    offsets = {point.first_step for point in points}
    # offsets shared by many points are what the guard is about
    assert len(points) > 2 * len(offsets)
    snapshots = _counting(monkeypatch, Machine, "snapshot")
    report = faulter.engine().run(model, space, reduce=False,
                                  collect_outcomes=True)
    assert 0 < len(snapshots) <= len(offsets)
    assert report == reference_report(faulter, model, space,
                                      collect_outcomes=True)


@pytest.mark.parametrize("model", ["bitflip", "reg-bitflip", "skip"])
def test_one_effect_per_detail(monkeypatch, faulter, model):
    space = ExhaustiveSpace()
    details = {point.details[0]
               for point in _points(faulter, model, space)}
    effects = _counting(monkeypatch, type(MODELS[model]), "effect")
    faulter.engine().run(model, space, reduce=False)
    assert sorted(detail for _, detail in effects) == sorted(details)
