"""Translation validation: every hardening approach keeps behaviour.

Each image hardened by faulter+patcher, hybrid or detour must behave
like the original on inputs it was never hardened against: the
bundled good/bad pair, truncations, single-bit flips and random
inputs, drawn with a fixed seed.  Behaviour is the stop reason, exit
code, stdout and stderr of an unfaulted run.
"""

import random

import pytest

from repro.emu.machine import Machine
from repro.workloads import bootloader, pincheck

APPROACHES = ("faulter+patcher", "hybrid", "detour")
WORKLOADS = {"pincheck": pincheck.workload,
             "bootloader": bootloader.workload}
SEED = 8


def _inputs(good: bytes, bad: bytes, seed: int) -> list[bytes]:
    """16 inputs: the pair, 4 truncations, 6 bit flips, 4 random."""
    rng = random.Random(seed)
    inputs = [good, bad]
    for length in (0, 1, len(good) // 2, len(good) - 1):
        inputs.append(rng.choice((good, bad))[:length])
    for _ in range(6):
        flipped = bytearray(rng.choice((good, bad)))
        bit = rng.randrange(8 * len(flipped))
        flipped[bit // 8] ^= 1 << (bit % 8)
        inputs.append(bytes(flipped))
    for length in (len(good), len(good), len(good) + 3, 2):
        inputs.append(bytes(rng.randrange(256) for _ in range(length)))
    return inputs


def _behaviour(image, stdin: bytes) -> tuple:
    result = Machine(image, stdin=stdin).run()
    return result.reason, result.exit_code, result.stdout, result.stderr


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def workload(request):
    wl = WORKLOADS[request.param]()
    target = wl.target()
    hardened = {approach: target.harden(approach).hardened
                for approach in APPROACHES}
    return wl, target.exe, hardened


@pytest.mark.parametrize("approach", APPROACHES)
def test_hardened_image_behaves_like_the_original(workload, approach):
    wl, original, hardened = workload
    inputs = _inputs(wl.good_input, wl.bad_input, SEED)
    assert len(set(inputs)) == 16
    for stdin in inputs:
        assert _behaviour(hardened[approach], stdin) == _behaviour(
            original, stdin), stdin


def test_inputs_reach_both_verdicts(workload):
    # the inputs exercise the grant path and the deny path
    wl, original, _ = workload
    outputs = {wl.grant_marker in _behaviour(original, stdin)[2]
               for stdin in _inputs(wl.good_input, wl.bad_input, SEED)}
    assert outputs == {True, False}


def test_a_changed_program_is_caught():
    # negative control: a pincheck built for another pin diverges
    wl = pincheck.workload()
    other = pincheck.workload("1235").build()
    inputs = _inputs(wl.good_input, wl.bad_input, SEED)
    assert any(_behaviour(other, stdin) != _behaviour(wl.build(), stdin)
               for stdin in inputs)
