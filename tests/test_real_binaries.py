"""End-to-end hardening/evaluation on the committed ELF fixtures.

The real-binary frontier's acceptance bar: a PIE or stripped ELF
*file* — not an in-process build — flows through ``Target`` into
``harden``/``evaluate``/``compare`` with a composed per-unit
:class:`~repro.provenance.ProvenanceMap` and no ``unmapped`` baseline
points on the PIE fixture.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import Target
from repro.binfmt import read_elf, write_elf
from repro.emu.machine import run_executable

FIXTURES = Path(__file__).resolve().parent / "fixtures"
PIE = FIXTURES / "bootloader_pie.elf"
STRIPPED = FIXTURES / "bootloader_stripped.elf"
GOOD = bytes.fromhex("0d141b222930373e")
BAD = bytes.fromhex("0d141b223930373f")
MARKER = b"BOOT OK"


def target_for(path):
    return Target(path, GOOD, BAD, MARKER, name=path.name)


class TestFixtureBehaviour:
    @pytest.mark.parametrize("path", [PIE, STRIPPED])
    def test_baseline_behaviour(self, path):
        exe = read_elf(path.read_bytes())
        good = run_executable(exe, stdin=GOOD)
        bad = run_executable(exe, stdin=BAD)
        assert MARKER in good.stdout and good.exit_code == 0
        assert MARKER not in bad.stdout and bad.exit_code == 1

    def test_fixtures_match_generator(self):
        sys.path.insert(0, str(FIXTURES))
        try:
            import gen_fixtures
            assert write_elf(gen_fixtures.build_pie()) == \
                PIE.read_bytes()
            assert write_elf(gen_fixtures.build_stripped()) == \
                STRIPPED.read_bytes()
        finally:
            sys.path.remove(str(FIXTURES))


class TestEvaluateOnFixtures:
    @pytest.mark.parametrize("path", [PIE, STRIPPED])
    def test_patcher_eliminates_everything(self, path):
        evaluation = target_for(path).evaluate(models=("skip",))
        diff = evaluation.diff
        census = diff.counts(model="skip")
        assert diff.baseline_points("skip") > 0
        assert census["unmapped"] == 0
        assert census["surviving"] == 0
        assert census["eliminated"] == diff.baseline_points("skip")

    def test_pie_provenance_is_composed_per_unit(self):
        evaluation = target_for(PIE).evaluate(models=("skip",))
        units = evaluation.provenance.meta.get("units")
        assert units, "provenance must carry the per-unit census"
        assert all(isinstance(c, dict) for c in units.values())

    def test_pie_hardened_output_keeps_dynamic_tables(self):
        result = target_for(PIE).harden()
        assert result.hardened.pie
        reread = read_elf(write_elf(result.hardened))
        assert reread.pie
        assert reread.dynamic_symbols
        assert reread.relocations


class TestCliSmoke:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            capture_output=True, text=True,
            cwd=str(FIXTURES.parent.parent),
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})

    def test_compare_pie_fixture(self):
        proc = self._run(
            "compare", str(PIE), "--good", GOOD.hex(), "--bad",
            BAD.hex(), "--marker", "BOOT OK", "--model", "skip")
        assert proc.returncode == 0, proc.stderr
        assert "unmapped=0" in proc.stdout

    def test_fault_stripped_fixture(self):
        proc = self._run(
            "fault", str(STRIPPED), "--good", GOOD.hex(), "--bad",
            BAD.hex(), "--marker", "BOOT OK", "--model", "skip", "-v")
        assert proc.returncode == 1, proc.stderr  # vulnerable points
        assert "execution:" in proc.stdout
