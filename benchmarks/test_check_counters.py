"""The exact counter gate: ``check_counters`` on small results."""

import json
import pathlib

import pytest

import check_counters

PINNED = {"counters": {"emu.steps.emulated": 500,
                       "ir.verify.calls": 40}}


def _result(correct=True, **values):
    counters = dict(PINNED["counters"], **{
        name.replace("__", "."): value for name, value in values.items()})
    return {"correct": correct, "failed": 0 if correct else 1,
            "metrics": {name: {"value": value, "unit": "count"}
                        for name, value in counters.items()
                        if value is not None}}


def test_identical_counters_pass():
    assert check_counters.compare(PINNED, _result()) == []


@pytest.mark.parametrize("value", [499, 501])
def test_any_counter_change_fails(value):
    failures = check_counters.compare(
        PINNED, _result(emu__steps__emulated=value))
    assert len(failures) == 1 and "emu.steps.emulated" in failures[0]


def test_missing_counter_fails():
    failures = check_counters.compare(
        PINNED, _result(ir__verify__calls=None))
    assert failures == ["ir.verify.calls: missing from the result"]


def test_incorrect_run_fails():
    failures = check_counters.compare(PINNED, _result(correct=False))
    assert len(failures) == 1 and "correct" in failures[0]


def _pinned_file(tmp_path):
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps({"workloads": {
        "pincheck": PINNED,
        "bootloader": {"counters": {"emu.steps.emulated": 900}}}}))
    return path


def test_reads_the_last_line_of_the_log(tmp_path, capsys):
    pinned = _pinned_file(tmp_path)
    log = tmp_path / "perfbench.log"
    log.write_text("emu.steps.emulated   500 count\n"
                   + json.dumps(_result()) + "\n")
    args = [str(pinned), str(log), "--workload", "pincheck"]
    assert check_counters.main(args) == 0
    log.write_text(json.dumps(_result(ir__verify__calls=41)) + "\n")
    assert check_counters.main(args) == 1
    assert "ir.verify.calls: 41 != pinned 40" in capsys.readouterr().out


def test_checks_the_named_workload_only(tmp_path, capsys):
    pinned = _pinned_file(tmp_path)
    log = tmp_path / "perfbench.log"
    log.write_text(json.dumps(_result()) + "\n")
    assert check_counters.main(
        [str(pinned), str(log), "--workload", "bootloader"]) == 1
    assert "emu.steps.emulated: 500 != pinned 900" in \
        capsys.readouterr().out
    with pytest.raises(SystemExit) as caught:
        check_counters.main([str(pinned), str(log), "--workload", "x"])
    assert caught.value.code == 2


def test_committed_file_pins_the_gated_counters():
    path = pathlib.Path(__file__).parent / "perfbench_counters.json"
    workloads = json.loads(path.read_text())["workloads"]
    assert set(workloads) == {"pincheck", "bootloader"}
    for name, pinned in workloads.items():
        assert f"--workload {name} --seed 0 --trace 1" in \
            pinned["command"]
        assert set(pinned["counters"]) == {
            "emu.steps.emulated", "emu.steps.compiled",
            "emu.steps.precise", "emu.jit.superblocks_compiled",
            "faulter.points.executed", "ir.verify.calls",
            "faulter.fleet.jobs"}
