"""Top-level API and command-line interface tests."""

import pytest

from repro.api import HARDENING_APPROACHES, Target, hardened_elf
from repro.binfmt import read_elf, write_elf
from repro.cli import main
from repro.emu import run_executable
from repro.workloads import pincheck


@pytest.fixture(scope="module")
def wl():
    return pincheck.workload()


def _target(wl, image=None):
    return Target(image if image is not None else wl.build(),
                  wl.good_input, wl.bad_input, wl.grant_marker)


class TestAPI:
    def test_campaign(self, wl):
        reports = _target(wl).campaign(models=("skip",))
        assert reports["skip"].vulnerable

    def test_accepts_raw_elf_bytes(self, wl):
        blob = write_elf(wl.build())
        reports = _target(wl, blob).campaign(models=("skip",))
        assert reports["skip"].total_faults > 0

    def test_harden_faulter_patcher(self, wl):
        result = _target(wl).harden(approach="faulter+patcher")
        assert result.converged
        rebuilt = read_elf(hardened_elf(result))
        good = run_executable(rebuilt, stdin=wl.good_input)
        assert wl.grant_marker in good.stdout

    def test_harden_hybrid(self, wl):
        result = _target(wl).harden(approach="hybrid")
        rebuilt = read_elf(hardened_elf(result))
        good = run_executable(rebuilt, stdin=wl.good_input)
        assert wl.grant_marker in good.stdout

    def test_unknown_approach(self, wl):
        with pytest.raises(ValueError, match="faulter"):
            _target(wl).harden(approach="magic")
        assert "hybrid" in HARDENING_APPROACHES
        assert "detour" in HARDENING_APPROACHES

    def test_harden_detour(self, wl):
        result = _target(wl).harden(approach="detour")
        assert result.stats.patched > 0
        rebuilt = read_elf(hardened_elf(result))
        good = run_executable(rebuilt, stdin=wl.good_input)
        assert wl.grant_marker in good.stdout

    def test_evaluate(self, wl):
        evaluation = _target(wl).evaluate(models=("skip",))
        census = evaluation.diff.counts(model="skip")
        assert census["eliminated"] >= 1
        assert census["surviving"] == 0
        assert "eliminated" in evaluation.report()


class TestCLI:
    def test_demo_pincheck(self, capsys, tmp_path):
        out = tmp_path / "hardened.elf"
        code = main(["demo", "pincheck", "--approach", "faulter+patcher",
                     "-o", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "converged: True" in captured.out
        assert out.exists()
        rebuilt = read_elf(out.read_bytes())
        assert run_executable(rebuilt, stdin=b"1234").exit_code == 0

    def test_fault_subcommand(self, capsys, tmp_path, wl):
        target = tmp_path / "t.elf"
        target.write_bytes(write_elf(wl.build()))
        code = main(["fault", str(target),
                     "--good", "text:1234", "--bad", "text:6789",
                     "--marker", "ACCESS GRANTED"])
        assert code == 1  # vulnerable -> nonzero
        assert "vulnerable points" in capsys.readouterr().out

    def test_harden_subcommand(self, capsys, tmp_path, wl):
        target = tmp_path / "t.elf"
        output = tmp_path / "out.elf"
        target.write_bytes(write_elf(wl.build()))
        code = main(["harden", str(target), "-o", str(output),
                     "--good", "text:1234", "--bad", "text:6789",
                     "--marker", "ACCESS GRANTED"])
        assert code == 0
        assert output.exists()

    def test_run_subcommand(self, capsys, tmp_path, wl):
        target = tmp_path / "t.elf"
        target.write_bytes(write_elf(wl.build()))
        code = main(["run", str(target), "--stdin", "text:1234"])
        assert code == 0
        assert "ACCESS GRANTED" in capsys.readouterr().out

    def test_disasm_subcommand(self, capsys, tmp_path, wl):
        target = tmp_path / "t.elf"
        target.write_bytes(write_elf(wl.build()))
        assert main(["disasm", str(target)]) == 0
        out = capsys.readouterr().out
        assert ".section .text" in out
        assert "expected_pin" in out

    def test_hex_input_decoding(self, capsys, tmp_path, wl):
        target = tmp_path / "t.elf"
        target.write_bytes(write_elf(wl.build()))
        code = main(["run", str(target), "--stdin", "31323334"])
        assert code == 0
        assert "GRANTED" in capsys.readouterr().out


class TestRegionCounters:
    """Hot-loop region counters reach ``report.meta`` and the CLI."""

    def test_bootloader_bitflip_pins_its_regions(self, capsys):
        # the execution line is the one the tier printed before regions
        # existed: regions move no step between compiled and precise
        code = main(["fault", "bootloader", "--model", "bitflip",
                     "--verbose"])
        out = capsys.readouterr().out
        assert code == 1
        assert ("  execution: 124853 compiled + 5013 precise steps, "
                "1070 memo hits (294 divergences") in out
        assert ("  regions: 1 formed, 109334 of the compiled steps in "
                "them\n") in out


class TestCompareCLI:
    def test_compare_bundled_pincheck(self, capsys):
        """The acceptance scenario: skip model, faulter+patcher."""
        code = main(["compare", "pincheck"])
        out = capsys.readouterr().out
        assert code == 0  # nothing survives, nothing introduced
        assert "differential evaluation" in out
        assert "eliminated=" in out and "unmapped=" in out

    def test_compare_file_target(self, capsys, tmp_path, wl):
        from repro.binfmt import write_elf

        target = tmp_path / "t.elf"
        target.write_bytes(write_elf(wl.build()))
        code = main(["compare", str(target),
                     "--good", "text:1234", "--bad", "text:6789",
                     "--marker", "ACCESS GRANTED"])
        assert code == 0
        assert "eliminated" in capsys.readouterr().out

    def test_compare_file_target_requires_inputs(self, tmp_path, wl):
        from repro.binfmt import write_elf

        target = tmp_path / "t.elf"
        target.write_bytes(write_elf(wl.build()))
        with pytest.raises(SystemExit, match="--good"):
            main(["compare", str(target)])

    def test_compare_broken_oracle_exits_2(self, capsys, tmp_path,
                                           wl):
        from repro.binfmt import write_elf

        target = tmp_path / "t.elf"
        target.write_bytes(write_elf(wl.build()))
        code = main(["compare", str(target),
                     "--good", "text:9999", "--bad", "text:6789",
                     "--marker", "ACCESS GRANTED"])
        assert code == 2  # ReproError -> clean error, not a traceback
        assert "error" in capsys.readouterr().err

    def test_harden_evaluate_flag(self, capsys, tmp_path, wl):
        from repro.binfmt import write_elf

        target = tmp_path / "t.elf"
        output = tmp_path / "out.elf"
        target.write_bytes(write_elf(wl.build()))
        code = main(["harden", str(target), "-o", str(output),
                     "--evaluate",
                     "--good", "text:1234", "--bad", "text:6789",
                     "--marker", "ACCESS GRANTED"])
        assert code == 0
        out = capsys.readouterr().out
        assert "differential evaluation" in out
        assert output.exists()
        rebuilt = read_elf(output.read_bytes())
        assert run_executable(rebuilt, stdin=b"1234").exit_code == 0


class TestCliErrors:
    """Exit 1 means "vulnerable"; a broken target or refused input
    must exit 2 with a one-line error, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["fault", "{elf}", "--good", "31", "--bad", "32",
         "--marker", "X"],
        ["compare", "{elf}", "--good", "31", "--bad", "32",
         "--marker", "X"],
        ["harden", "{elf}", "-o", "{out}", "--good", "31",
         "--bad", "32", "--marker", "X"],
        ["run", "{elf}"],
    ], ids=lambda argv: argv[0])
    def test_non_elf_target_exits_2(self, capsys, tmp_path, argv):
        bad = tmp_path / "bad.elf"
        bad.write_bytes(b"this is not an ELF file")
        out = tmp_path / "out.elf"
        code = main([arg.format(elf=bad, out=out) for arg in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"r2r {argv[0]}: error: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_refused_input_exits_2(self, capsys):
        """A good input that never grants is an error, not a
        vulnerable verdict."""
        code = main(["fault", "pincheck", "--good", "36373839"])
        assert code == 2
        assert capsys.readouterr().err.startswith("r2r fault: error: ")
