"""Seeded campaign inputs and the targets each workload runs on.

The workload seed draws everything a campaign consumes: the PIN
digits of the pincheck case study, the firmware bytes of the secure
bootloader, and the tamper byte that turns the firmware into the bad
input.  ``DEFAULT_SEED`` reproduces the inputs bundled with
``repro.workloads``, which is what the pinned expected file covers.
The program under test never sees the seed, only the generated
inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from repro.api import Target
from repro.workloads import bootloader, corpus, pincheck
from repro.workloads.base import Workload

DEFAULT_SEED = 0

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
# inputs of the committed fixtures (tests/fixtures/README.md)
FIXTURE_GOOD = bytes.fromhex("0d141b222930373e")
FIXTURE_BAD = bytes.fromhex("0d141b223930373f")

EVALUATE_MODELS = ("skip", "bitflip")
CAMPAIGN_MODELS = ("reg-bitflip", "mem-bitflip", "flag-stuck",
                   "branch-invert")


@dataclass(frozen=True)
class Inputs:
    pin: str
    firmware: bytes
    tamper: int


def draw(seed: int) -> Inputs:
    """The campaign inputs for ``seed``."""
    if seed == DEFAULT_SEED:
        return Inputs("1234", bootloader.default_firmware(16), 0x01)
    rng = random.Random(seed)
    return Inputs(
        pin="".join(rng.choice("0123456789") for _ in range(4)),
        firmware=bytes(rng.randrange(256) for _ in range(16)),
        tamper=rng.randrange(1, 256),
    )


def _tampered(firmware: bytes, tamper: int) -> bytes:
    # two corrupted bytes, as the bundled loader's own tamper: one
    # flipped bit could be compensated by a single instruction fault
    bad = bytearray(firmware)
    bad[-1] ^= tamper
    bad[len(bad) // 2] ^= 0x10
    return bytes(bad)


def _bootloader(firmware: bytes, tamper: int, rich: bool) -> Workload:
    if rich:
        firmware = bootloader.MAGIC + firmware[:14]
    return Workload(
        name="secure-bootloader" + ("-rich" if rich else ""),
        source=(bootloader.rich_source if rich
                else bootloader.source)(firmware),
        good_input=firmware,
        bad_input=_tampered(firmware, tamper),
        grant_marker=bootloader.BOOT_MARKER,
    )


def evaluate_target(workload: str, seed: int) -> Target:
    """The case study ``Target.evaluate`` runs on."""
    inputs = draw(seed)
    if workload == "bootloader":
        return _bootloader(inputs.firmware, inputs.tamper,
                           rich=False).target()
    return pincheck.workload(inputs.pin).target()


def campaign_target(workload: str, seed: int) -> Target:
    """The realistically sized variant the long campaigns run on."""
    inputs = draw(seed)
    if workload == "bootloader":
        return _bootloader(inputs.firmware, inputs.tamper,
                           rich=True).target()
    return pincheck.workload(inputs.pin, rich=True).target()


def harden_targets(workload: str, seed: int) -> list[Target]:
    """The four binaries the hardening-only stage rewrites."""
    inputs = draw(seed)
    if workload == "bootloader":
        fixtures = [
            Target.from_path(FIXTURES / name, FIXTURE_GOOD, FIXTURE_BAD,
                             bootloader.BOOT_MARKER, name=name)
            for name in ("bootloader_pie.elf", "bootloader_stripped.elf")
        ]
        return [
            _bootloader(inputs.firmware, inputs.tamper, rich).target()
            for rich in (False, True)
        ] + fixtures
    return [
        pincheck.workload(inputs.pin).target(),
        pincheck.workload(inputs.pin, rich=True).target(),
        corpus.workload().target(),
        corpus.exitgate_workload().target(),
    ]
