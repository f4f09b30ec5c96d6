"""The bench gate itself: ``check_regression.compare`` on small rows."""

import copy

import check_regression

ROW = {"faults_per_second": 1000.0, "emulated_steps": 500,
       "compiled_steps": 450, "precise_steps": 50}


def _bench(**rows):
    """Backend rows over ``ROW``, next to the ``precise`` row that
    every faults/s figure is divided by."""
    rows = {"precise": {}, **rows}
    return {"backends": {name.replace("_", "-"): dict(ROW, **row)
                         for name, row in rows.items()}}


def test_identical_runs_pass():
    bench = _bench(trace_compiled={})
    assert check_regression.compare(bench, copy.deepcopy(bench),
                                    0.25) == []


def test_faults_per_second_are_gated_relative_to_precise():
    baseline = _bench(trace_compiled={})
    # trace-compiled alone 30% slower: the tier regressed
    fresh = _bench(trace_compiled={"faults_per_second": 700.0})
    failures = check_regression.compare(baseline, fresh, 0.25)
    assert len(failures) == 1 and "trace-compiled" in failures[0]
    # every row 40% slower: a slower host, not slower code
    slow_host = _bench(precise={"faults_per_second": 600.0},
                       trace_compiled={"faults_per_second": 600.0})
    assert check_regression.compare(baseline, slow_host, 0.25) == []


def test_compiled_and_precise_steps_are_gated_exactly():
    baseline = _bench(trace_compiled={})
    for field, value in (("compiled_steps", 449), ("compiled_steps", 451),
                         ("precise_steps", 49), ("precise_steps", 51)):
        fresh = _bench(trace_compiled={field: value})
        failures = check_regression.compare(baseline, fresh, 0.25)
        assert len(failures) == 1 and field in failures[0]


def test_fewer_emulated_steps_pass_and_more_fail():
    baseline = _bench(trace_compiled={})
    assert check_regression.compare(
        baseline, _bench(trace_compiled={"emulated_steps": 499}),
        0.25) == []
    assert check_regression.compare(
        baseline, _bench(trace_compiled={"emulated_steps": 501}), 0.25)


def test_warm_row_steps_are_gated_exactly():
    baseline = _bench(multiprocess_warm={})
    for field, value in (("emulated_steps", 501),
                         ("compiled_steps", 451),
                         ("precise_steps", 49)):
        fresh = _bench(multiprocess_warm={field: value})
        failures = check_regression.compare(baseline, fresh, 0.25)
        assert len(failures) == 1 and field.split("_")[0] in failures[0]
    slow = _bench(multiprocess_warm={"faults_per_second": 10.0})
    assert check_regression.compare(baseline, slow, 0.25)


def test_warm_speedup_gates_the_median_of_pairs():
    baseline = _bench(multiprocess={}, multiprocess_warm={})
    for median, failures in ((1.3, 0), (1.29, 1)):
        fresh = copy.deepcopy(baseline)
        fresh["backends"]["multiprocess-warm"]["speedup_over_cold"] = {
            "pairs": 5, "median": median,
            "ratios": [1.0, 1.1, median, 2.0, 2.1]}
        result = check_regression.compare(baseline, fresh, 0.25)
        assert len(result) == failures
        assert all("median speedup" in line for line in result)


def test_rows_missing_from_the_baseline_fail():
    """A fresh row the baseline lacks (say, a renamed one) would
    otherwise pass with nothing gated."""
    baseline = _bench(trace_compiled={})
    fresh = _bench(trace_compiled={}, precise_checkpointed={})
    failures = check_regression.compare(baseline, fresh, 0.25)
    assert len(failures) == 1 and "precise-checkpointed" in failures[0]
    models = {"models": {"k2-reduced": {"faults_per_second": 5.0}}}
    fresh_models = copy.deepcopy(models)
    fresh_models["models"]["reg-bitflip"] = {"faults_per_second": 5.0}
    failures = check_regression.compare(models, fresh_models, 0.25)
    assert len(failures) == 1 and "reg-bitflip" in failures[0]


def test_rows_without_step_split_are_not_gated_on_it():
    baseline = {"models": {"k2-reduced": {"faults_per_second": 5.0,
                                          "emulated_steps": 10}}}
    assert check_regression.compare(baseline, copy.deepcopy(baseline),
                                    0.25) == []
