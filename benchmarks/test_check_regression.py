"""The bench gate itself: ``check_regression.compare`` on small rows."""

import copy

import check_regression

ROW = {"faults_per_second": 1000.0, "emulated_steps": 500,
       "compiled_steps": 450, "precise_steps": 50}


def _bench(**rows):
    return {"backends": {name: dict(ROW, **row)
                         for name, row in rows.items()}}


def test_identical_runs_pass():
    bench = _bench(checkpointed={})
    assert check_regression.compare(bench, copy.deepcopy(bench),
                                    0.25) == []


def test_compiled_and_precise_steps_are_gated_exactly():
    baseline = _bench(checkpointed={})
    for field, value in (("compiled_steps", 449), ("compiled_steps", 451),
                         ("precise_steps", 49), ("precise_steps", 51)):
        fresh = _bench(checkpointed={field: value})
        failures = check_regression.compare(baseline, fresh, 0.25)
        assert len(failures) == 1 and field in failures[0]


def test_fewer_emulated_steps_pass_and_more_fail():
    baseline = _bench(checkpointed={})
    assert check_regression.compare(
        baseline, _bench(checkpointed={"emulated_steps": 499}), 0.25) == []
    assert check_regression.compare(
        baseline, _bench(checkpointed={"emulated_steps": 501}), 0.25)


def test_nondeterministic_rows_gate_only_throughput():
    (name,) = check_regression.NONDETERMINISTIC_STEP_ROWS
    baseline = _bench(**{name: {}})
    fresh = _bench(**{name: {"emulated_steps": 999,
                             "compiled_steps": 1, "precise_steps": 998}})
    assert check_regression.compare(baseline, fresh, 0.25) == []
    slow = _bench(**{name: {"faults_per_second": 10.0}})
    assert check_regression.compare(baseline, slow, 0.25)


def test_rows_without_step_split_are_not_gated_on_it():
    baseline = {"models": {"k2-reduced": {"faults_per_second": 5.0,
                                          "emulated_steps": 10}}}
    assert check_regression.compare(baseline, copy.deepcopy(baseline),
                                    0.25) == []
