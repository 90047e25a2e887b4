"""Tests of the benchmark's own helpers: percentiles, self time, failure counting."""

import json
import math
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import benchstats  # noqa: E402
import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def test_percentile_interpolates_like_numpy_linear():
    assert benchstats.percentile([4, 1, 3, 2], 50) == 2.5
    assert benchstats.percentile(list(range(1, 101)), 90) == pytest.approx(90.1)
    assert benchstats.percentile([7.0], 99) == 7.0
    assert benchstats.median([5, 1, 9]) == 5
    with pytest.raises(ValueError):
        benchstats.percentile([], 50)


@pytest.mark.parametrize(
    "n, preferred, expected",
    [
        (100, 95.0, 90.0),  # 5 beyond p95, 10 beyond p90
        (1000, 99.9, 99.0),
        (200, 95.0, 95.0),
        (40, 75.0, 75.0),
        (39, 75.0, 50.0),
        (5, 90.0, 50.0),  # too few ops: falls back to the median
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, preferred, expected):
    q = benchstats.tail_percentile(n, preferred)
    assert q == expected
    if q > 50.0:
        assert benchstats.beyond(n, q) >= benchstats.MIN_BEYOND


def _span(name, start, end, parent=None):
    return tracing.Span(name, start, end, parent=parent)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("a.root", 0, 100),
        _span("b.child", 10, 30, parent=0),
        _span("b.child", 40, 60, parent=0),
        _span("c.grandchild", 45, 55, parent=2),
    ]
    assert tracing.self_times(spans) == [60, 20, 10, 10]


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        _span("a.root", 0, 100),
        _span("b.child", 10, 50, parent=0),
        _span("b.child", 30, 70, parent=0),
        _span("b.child", 90, 120, parent=0),
    ]
    assert tracing.self_times(spans)[0] == 100 - 60 - 10


def test_install_wraps_every_binding_and_uninstall_restores():
    def helper(x):
        return 2 * x

    def work(x):
        return helper(x) + 1  # a closure reference, which install cannot reach

    home = types.ModuleType("home")
    home.work, home.helper = work, helper
    caller = types.ModuleType("caller")
    caller.work = work
    registry = {"run": work}
    tracer = tracing.Tracer()
    undo = tracing.install(
        tracer,
        [(home, "work", "home.work", lambda a, k, r: {"result": r}), (home, "helper", "home.helper", None)],
        [home, caller],
        [registry],
    )
    assert caller.work is not work and registry["run"] is caller.work
    tracer.op = 7
    assert registry["run"](3) == 7
    assert [s.name for s in tracer.spans] == ["home.work"]
    assert tracer.spans[0].attrs == {"result": 7} and tracer.spans[0].op == 7
    tracing.uninstall(undo)
    assert home.work is work and caller.work is work and registry["run"] is work and home.helper is helper


def test_missing_spans_is_an_error_list():
    spans = [_span("microsim.simulate", 0, 5)]
    assert layers.missing_spans(spans, ("microsim.simulate", "estimators.fit")) == ["estimators.fit"]


def test_per_layer_metrics_share_counts_and_unreached():
    op = tracing.Span("bench.op", 0, 1_000_000, op=0)
    sim = tracing.Span("microsim.simulate", 0, 600_000, parent=0, op=0,
                       attrs={"aggregation": "mean", "T": 20, "individuals": 1000})
    fit = tracing.Span("estimators.fit", 700_000, 900_000, parent=0, op=0,
                       attrs={"regularizer": "none", "iterations": 0, "converged": True})
    values, unreached = layers.per_layer_metrics([op, sim, fit], {0}, 1.05)
    assert set(values) == set(layers.UNITS)
    assert values["microsim.share"] == pytest.approx(0.6)
    assert values["estimators.share"] == pytest.approx(0.2)
    assert values["microsim.simulate.mean.T20.ms_p50"] == pytest.approx(0.6)
    assert values["microsim.simulate.calls_per_op"] == 1
    assert values["microsim.individuals"] == 1000
    assert values["microsim.ns_per_individual"] == pytest.approx(600.0)
    assert values["estimators.fit.converged_ratio"] == 1.0
    assert values["trace.overhead_ratio"] == 1.05
    assert "cli.build_parser.ms_p50" in unreached and values["cli.build_parser.ms_p50"] == 0.0


def _point(knob, mse=0.1, se=0.01, replications=2):
    return types.SimpleNamespace(
        knob=knob, observed_mse=mse, counterfactual_mse=mse, se_observed=se, se_counterfactual=se,
        replications=replications,
    )


def _sweep(*points):
    return types.SimpleNamespace(knob_name="S", points=points)


def test_sweep_checks_flag_nonfinite_wrong_replications_and_knobs():
    assert checks.sweep_problems([_sweep(_point(3))], (3,), 2) == []
    assert checks.sweep_problems([_sweep(_point(3, mse=math.nan))], (3,), 2)
    assert checks.sweep_problems([_sweep(_point(3, se=math.inf))], (3,), 2)
    assert checks.sweep_problems([_sweep(_point(3, replications=1))], (3,), 2)
    assert checks.sweep_problems([_sweep(_point(4))], (3,), 2)


def _weights(beta, objective=1.0):
    return json.dumps({"beta": beta, "objective_value": objective}).encode()


SERIES = b"time,observed,synthetic,gap\n1,1.0,0.5,0.5\n"


def test_cli_checks_count_exit_codes_nan_outputs_and_simplex():
    good = {"fit_simplex/weights.json": _weights([0.25, 0.75]), "fit_simplex/series.csv": SERIES}
    assert checks.cli_problems({"fit_simplex": 0}, good, ["fit_simplex"], True) == []
    assert checks.cli_problems({"fit_simplex": 3}, good, ["fit_simplex"], True) == ["fit_simplex: exit code 3"]
    off = {"fit_simplex/weights.json": _weights([-0.1, 1.1])}
    assert checks.cli_problems({"fit_simplex": 0}, off, ["fit_simplex"], True)
    assert checks.cli_problems({"fit_enet": 0}, {"fit_enet/weights.json": _weights([-0.1, 1.1])}, [], True) == []
    nan = {"fit_enet/weights.json": b'{"beta": [NaN], "objective_value": 1.0}'}
    assert checks.cli_problems({"fit_enet": 0}, nan, [], True)
    assert checks.cli_problems({"f": 0}, {"f/series.csv": b"time,observed,synthetic,gap\n1,nan,0,0\n"}, [], True)
    unverified = {"diagnose/diagnosis.json": b'{"verified": false}'}
    assert checks.cli_problems({"diagnose": 0}, unverified, [], True)
    assert checks.cli_problems({"diagnose": 0}, unverified, [], False) == []


def test_tally_counts_failed_ops_once_each():
    tally = checks.Tally()
    tally.add(0, [])
    tally.add(1, ["a", "b"])
    tally.add(2, ["c"])
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.failed_ratio == pytest.approx(2 / 3)
    assert tally.messages == ["op 1: a; b", "op 2: c"]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert spec["paths"] == ["perfbench"]
