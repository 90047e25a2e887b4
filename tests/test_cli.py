import contextlib
import csv
import io
import json
import linecache
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synthpanel
from synthpanel import cli
from synthpanel.cli import main
from synthpanel.estimators import REGULARIZERS
from synthpanel.evaluation import COVARIATE_ROWS


def run(args):
    return main([str(a) for a in args])


def write_panel_csv(path, groups, times, value, populations=None):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["group", "time", "outcome"] + (["population"] if populations else [])
        writer.writerow(header)
        for g in groups:
            for t in times:
                row = [g, t, value(g, t)]
                if populations:
                    row.append(populations[g])
                writer.writerow(row)


@pytest.fixture
def blend_panel(tmp_path):
    """Target is the exact midpoint of two donors."""
    path = tmp_path / "panel.csv"

    def value(g, t):
        series = {"a": 10.0 + t, "b": 20.0 - t}
        if g == "tgt":
            return 0.5 * series["a"] + 0.5 * series["b"]
        return series[g]

    write_panel_csv(path, ["tgt", "a", "b"], range(1, 9), value)
    return path


class TestFit:
    def test_simplex_weights_and_outputs(self, tmp_path, blend_panel, capsys):
        out = tmp_path / "run"
        code = run(["fit", "--panel", blend_panel, "--target", "tgt", "--t0", 6, "--out", out])
        assert code == 0
        weights = json.loads((out / "weights.json").read_text())
        beta = np.array(weights["beta"])
        assert beta.min() >= -1e-12 and abs(beta.sum() - 1.0) <= 1e-9
        assert np.allclose(beta, [0.5, 0.5], atol=1e-6)
        lines = (out / "series.csv").read_text().strip().splitlines()
        assert lines[0] == "time,observed,synthetic,gap"
        assert len(lines) == 9
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert manifest["parameters"]["regularizer"] == "simplex"
        assert "tau" in capsys.readouterr().out

    @pytest.mark.parametrize("regularizer", ["none", "ridge", "elastic_net", "simplex"])
    def test_weights_echo_the_library_fit(self, tmp_path, blend_panel, regularizer):
        out = tmp_path / "run"
        assert run(["fit", "--panel", blend_panel, "--target", "tgt", "--t0", 6, "--donors", "b,a",
                    "--regularizer", regularizer, "--out", out, "--quiet"]) == 0
        panel = synthpanel.from_csv(blend_panel, target="tgt", intervention_time=6)
        w = synthpanel.fit(panel, (2, 1), cfg=synthpanel.FitConfig(regularizer=regularizer))
        weights = json.loads((out / "weights.json").read_text())
        assert weights["donors"] == ["b", "a"]
        assert weights["beta"] == w.beta.tolist()
        assert weights["kkt_residual"] == w.kkt_residual
        assert weights["converged"] is w.converged is True
        assert weights["config"]["regularizer"] == regularizer

    def test_one_donor_product_per_fit(self, tmp_path, blend_panel, monkeypatch):
        # Count the calls through every synthpanel module that holds the function.
        original, calls = synthpanel.estimators.predict_counterfactual, []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "synthpanel" and getattr(module, "predict_counterfactual", None) is original:
                monkeypatch.setattr(module, "predict_counterfactual", counted)
        assert main(["fit", "--panel", str(blend_panel), "--target", "tgt", "--t0", "6",
                     "--out", str(tmp_path / "run"), "--quiet"]) == 0
        assert len(calls) == 1

    def test_duplicate_covariate_row_is_data_error(self, tmp_path, blend_panel, capsys):
        covariates = tmp_path / "covariates.csv"
        covariates.write_text("group,u\ntgt,1.0\na,0.5\nb,1.5\na,0.7\n")
        out = tmp_path / "run"
        assert run(["fit", "--panel", blend_panel, "--target", "tgt", "--t0", 6,
                    "--covariates", covariates, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "duplicate" in err and "line 5" in err and err.count("\n") == 1
        assert not out.exists()

    def test_missing_file_is_usage_error(self, capsys):
        assert run(["fit", "--panel", "/no/such/file.csv", "--target", "x", "--t0", 2]) == 1
        assert "/no/such/file.csv" in capsys.readouterr().err

    def test_bad_data_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("group,time,outcome\nA,1,1.0\nA,2,oops\n")
        assert run(["fit", "--panel", path, "--target", "A", "--t0", 1]) == 2

    @pytest.mark.parametrize("quiet", [True, False], ids=["quiet", "verbose"])
    def test_non_convergence_exit_code(self, tmp_path, capsys, quiet):
        # Asymmetric blend so the uniform initial point is not the optimum.
        path = tmp_path / "panel.csv"

        def value(g, t):
            series = {"a": 10.0 + t, "b": 20.0 - 2.0 * t}
            if g == "tgt":
                return 0.7 * series["a"] + 0.3 * series["b"]
            return series[g]

        write_panel_csv(path, ["tgt", "a", "b"], range(1, 9), value)
        out = tmp_path / "run"
        code = run(
            ["fit", "--panel", path, "--target", "tgt", "--t0", 6, "--out", out,
             "--max-iterations", 1, "--tolerance", 1e-16, *(["--quiet"] if quiet else [])]
        )
        assert code == 3
        assert json.loads((out / "weights.json").read_text())["converged"] is False
        captured = capsys.readouterr()
        if quiet:
            assert captured.out == captured.err == ""
        else:
            assert re.fullmatch(r"tau = \S+\n", captured.out)
            assert captured.err == "solver did not converge\n"

    def test_elastic_net_converges_on_prop99_sized_study(self, tmp_path):
        # Coordinate descent ran out of its 10 000 passes on this study (exit 3).
        bundle, out = tmp_path / "bundle", tmp_path / "fit"
        assert run(["simulate", "--seed", 38, "--donors", 38, "--periods", 31, "--t0", 19,
                    "--individuals", 300, "--out", bundle, "--quiet"]) == 0
        assert run(["fit", "--panel", bundle / "panel.csv", "--target", "target", "--t0", 19,
                    "--regularizer", "elastic_net", "--enet-lam1", 0.05, "--enet-lam2", 0.01,
                    "--out", out, "--quiet"]) == 0
        weights = json.loads((out / "weights.json").read_text())
        assert weights["converged"] is True and weights["kkt_residual"] <= weights["config"]["tolerance"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("regularizer", ["none", "ridge", "simplex", "elastic_net"])
    @pytest.mark.parametrize(
        "outcome",
        [
            lambda g, t: {"tgt": 1.0, "a": 2.0, "b": 0.5}[g] * t * 1e200,
            # Ordinary up to T0 = 6, then +-1.7e308: only the post-period gap overflows.
            lambda g, t: (
                {"tgt": 15.0, "a": 10.0 + t, "b": 20.0 - t}[g] if t <= 6 else (1.7e308 if g == "tgt" else -1.7e308)
            ),
            # Ordinary donors and a target of 1e160 t^2: every product is finite but the objective overflows.
            lambda g, t: {"tgt": 1e160 * t * t, "a": 10.0 + t, "b": 20.0 - t}[g],
        ],
        ids=["normal-equations", "post-period-gap", "objective"],
    )
    def test_overflowing_outcomes_are_data_error(self, tmp_path, capsys, regularizer, outcome):
        path = tmp_path / "panel.csv"
        write_panel_csv(path, ["tgt", "a", "b"], range(1, 9), outcome)
        out = tmp_path / "run"
        assert run(["fit", "--panel", path, "--target", "tgt", "--t0", 6, "--regularizer", regularizer,
                    "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("regularizer", ["none", "ridge", "simplex", "elastic_net"])
    def test_overflowing_covariates_are_data_error(self, tmp_path, capsys, regularizer):
        panel = tmp_path / "panel.csv"
        levels = {"tgt": 1.0, "a": 2.0, "b": 0.5, "c": 1.5}
        write_panel_csv(panel, list(levels), range(1, 9), lambda g, t: levels[g] + 0.1 * t)
        covariates = tmp_path / "covariates.csv"
        covariates.write_text("group,u\ntgt,1e308\na,1.7e308\nb,-1.7e308\nc,1e308\n")
        out = tmp_path / "run"
        assert run(["fit", "--panel", panel, "--target", "tgt", "--t0", 6, "--covariates", covariates,
                    "--regularizer", regularizer, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == "error: covariate 'u' is too large to standardize: its mean or sample variance overflows\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("regularizer", ["none", "simplex", "elastic_net"])
    def test_covariate_whose_spread_overflows_is_data_error(self, tmp_path, capsys, regularizer):
        # The row's mean is finite, but its squared deviations overflow the sample variance.
        panel = tmp_path / "panel.csv"
        levels = {"tgt": 1.0, "a": 2.0, "b": 0.5, "c": 1.5}
        write_panel_csv(panel, list(levels), range(1, 9), lambda g, t: levels[g] + 0.1 * t)
        covariates = tmp_path / "covariates.csv"
        covariates.write_text("group,u,wide\ntgt,1,1e200\na,2,-1e200\nb,3,0\nc,4,1\n")
        out = tmp_path / "run"
        assert run(["fit", "--panel", panel, "--target", "tgt", "--t0", 6, "--covariates", covariates,
                    "--regularizer", regularizer, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == "error: covariate 'wide' is too large to standardize: its mean or sample variance overflows\n"
        assert not out.exists()

    @pytest.mark.parametrize("byte_order_mark", ["", "\ufeff"], ids=["plain", "bom"])
    def test_config_file_and_unknown_key(self, tmp_path, blend_panel, byte_order_mark):
        good = tmp_path / "cfg.json"
        good.write_text(byte_order_mark + json.dumps({"regularizer": "none", "quiet": True}), encoding="utf-8")
        out = tmp_path / "run"
        code = run(["fit", "--panel", blend_panel, "--target", "tgt", "--t0", 6, "--out", out, "--config", good])
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["parameters"]["regularizer"] == "none"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mystery_knob": 1}))
        assert run(["fit", "--panel", blend_panel, "--target", "tgt", "--t0", 6, "--config", bad]) == 1


class TestSimulateDiagnose:
    def test_bundle_byte_identical(self, tmp_path):
        args = ["simulate", "--seed", 7, "--individuals", 100, "--quiet"]
        assert run(args + ["--out", tmp_path / "b1"]) == 0
        assert run(args + ["--out", tmp_path / "b2"]) == 0
        for name in ("panel.csv", "truth.json", "covariates_suitable.csv",
                     "covariates_unsuitable.csv", "manifest.json"):
            assert (tmp_path / "b1" / name).read_bytes() == (tmp_path / "b2" / name).read_bytes()

    @pytest.mark.parametrize(
        "edit, names",  # names: what the error line must name besides truth.json, if anything
        [
            (lambda truth: truth.pop("config"), ""),
            (lambda truth: truth.pop("true_S"), ""),
            (lambda truth: truth["config"].update(mystery=1), ""),
            (lambda truth: truth["compositions"][0].__setitem__(0, "a lot"), "the composition matrix"),
            (None, ""),
            (lambda truth: truth["config"].update(noise_sd=-1), ""),
            (lambda truth: truth["config"].update(T0=0), ""),
            (lambda truth: truth.update(conditional_mean=[row[:5] for row in truth["conditional_mean"]]), ""),
            (lambda truth: truth["compositions"][1].__setitem__(0, float("nan")), ""),
            (lambda truth: truth.update(group_labels=[]), ""),
            (lambda truth: truth["group_labels"].__setitem__(0, ["target"]), ""),
            (lambda truth: truth.update(group_labels="target"), ""),
            (lambda truth: truth["compositions"][0].pop(), "the composition matrix"),
            (lambda truth: truth["compositions"].__setitem__(1, [0.9 * p for p in truth["compositions"][1]]), ""),
            (lambda truth: truth["compositions"].__setitem__(2, [-0.1, 1.1] + [0.0] * 10), ""),
            (lambda truth: truth["compositions"].pop(), ""),
            (lambda truth: truth.update(true_S=[-1, 99, 200, 300, 400]), "category indices in 0..11"),
            # Entries that int() would truncate or convert to a category index.
            (lambda truth: truth.update(true_S=[1.9, 3.9, 4.9, 5.9, 10.9]), "category indices"),
            (lambda truth: truth.update(true_S=[True, *truth["true_S"][1:]]), "category indices"),
            (lambda truth: truth.update(true_S=[str(k) for k in truth["true_S"]]), "category indices"),
        ],
        ids=["no-config", "no-true-S", "unknown-config-key", "non-numeric-composition", "list-document",
             "negative-noise-sd", "zero-T0", "five-column-table", "nan-composition", "no-group-labels",
             "list-group-label", "string-group-labels", "ragged-compositions", "composition-sums-to-0.9",
             "negative-composition", "missing-composition-row", "true-S-out-of-range",
             "true-S-fractional", "true-S-boolean", "true-S-string"],
    )
    def test_malformed_truth_is_data_error(self, tmp_path, capsys, edit, names):
        bundle = tmp_path / "b"
        assert run(["simulate", "--individuals", 20, "--out", bundle, "--quiet"]) == 0
        truth = json.loads((bundle / "truth.json").read_text())
        if edit is None:
            truth = [truth]
        else:
            edit(truth)
        (bundle / "truth.json").write_text(json.dumps(truth))
        out = tmp_path / "d"
        assert run(["diagnose", "--bundle", bundle, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "truth.json" in err and names in err and err.count("\n") == 1
        assert not out.exists()

    def test_t0_outside_bundle_panel_is_data_error(self, tmp_path, capsys):
        bundle = tmp_path / "b"
        assert run(["simulate", "--individuals", 20, "--out", bundle, "--quiet"]) == 0
        header, *rows = (bundle / "panel.csv").read_text().splitlines(keepends=True)
        (bundle / "panel.csv").write_text(header + "".join(r for r in rows if int(r.split(",")[1]) <= 15))
        out = tmp_path / "d"
        assert run(["diagnose", "--bundle", bundle, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: {bundle / 'panel.csv'}: intervention_time must satisfy 1 <= T0 < T, got T0=15, T=15\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("order", ["shuffled", "sorted"])
    def test_diagnosis_ignores_panel_row_order(self, tmp_path, capsys, order):
        # truth.json's group_labels orders the groups; sorting the rows by group puts the target last.
        bundle = tmp_path / "b"
        assert run(["simulate", "--seed", 3, "--out", bundle, "--quiet"]) == 0
        assert run(["diagnose", "--bundle", bundle, "--out", tmp_path / "d0"]) == 0
        header, *rows = (bundle / "panel.csv").read_text().splitlines(keepends=True)
        if order == "sorted":
            rows.sort(key=lambda row: row.split(",")[0])
        else:
            rows = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
        (bundle / "panel.csv").write_text(header + "".join(rows))
        assert run(["diagnose", "--bundle", bundle, "--out", tmp_path / "d1"]) == 0
        first, second = capsys.readouterr().out.splitlines()
        assert first == second
        assert (tmp_path / "d0" / "diagnosis.json").read_bytes() == (tmp_path / "d1" / "diagnosis.json").read_bytes()

    @pytest.mark.parametrize("change", ["extra", "missing", "renamed"])
    def test_panel_groups_must_be_truth_groups(self, tmp_path, capsys, change):
        bundle = tmp_path / "b"
        assert run(["simulate", "--individuals", 20, "--out", bundle, "--quiet"]) == 0
        header, *rows = (bundle / "panel.csv").read_text().splitlines(keepends=True)
        kept = [row for row in rows if not row.startswith("donor_5,")]
        renamed = [row.replace("donor_5,", "donor_6,", 1) for row in rows if row.startswith("donor_5,")]
        rows = {"extra": rows + renamed, "missing": kept, "renamed": kept + renamed}[change]
        (bundle / "panel.csv").write_text(header + "".join(rows))
        out = tmp_path / "d"
        assert run(["diagnose", "--bundle", bundle, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bundle / 'panel.csv'}: groups [") and err.count("\n") == 1
        assert not out.exists()

    def test_diagnose_identified_bundle(self, tmp_path, capsys):
        assert run(["simulate", "--seed", 11, "--s-cardinality", 5, "--individuals", 50,
                    "--out", tmp_path / "b", "--quiet"]) == 0
        assert run(["diagnose", "--bundle", tmp_path / "b", "--out", tmp_path / "d"]) == 0
        doc = json.loads((tmp_path / "d" / "diagnosis.json").read_text())
        assert doc["invariant_set"]["a3_holds"] is True
        assert doc["invariant_set"]["S_cardinality"] == 5
        assert doc["oracle_weights"]["exists"] is True
        assert doc["verified"] is True


class TestSweepCommands:
    def test_sweep_s_row_count(self, tmp_path):
        out = tmp_path / "sweep"
        code = run(["sweep", "--knob", "S", "--from", 2, "--to", 11, "--replications", 2,
                    "--individuals", 40, "--seed", 5, "--out", out, "--quiet"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 11  # header + 10 knob values

    def test_sweep_bytes_reproducible(self, tmp_path):
        args = ["sweep", "--knob", "S", "--from", 2, "--to", 3, "--replications", 2,
                "--individuals", 40, "--seed", 9, "--quiet"]
        run(args + ["--out", tmp_path / "s1"])
        run(args + ["--out", tmp_path / "s2"])
        assert (tmp_path / "s1" / "sweep.csv").read_bytes() == (tmp_path / "s2" / "sweep.csv").read_bytes()
        assert (tmp_path / "s1" / "manifest.json").read_bytes() == (tmp_path / "s2" / "manifest.json").read_bytes()

    def test_sweep_t_writes_both_channels(self, tmp_path):
        out = tmp_path / "sweepT"
        code = run(["sweep", "--knob", "T", "--from", 8, "--to", 12, "--step", 4,
                    "--replications", 2, "--individuals", 40, "--seed", 3, "--out", out, "--quiet"])
        assert code == 0
        assert (out / "sweep_mean.csv").exists() and (out / "sweep_median.csv").exists()

    def test_covariates_command(self, tmp_path):
        out = tmp_path / "cov"
        code = run(["covariates", "--replications", 2, "--individuals", 60,
                    "--covariate-count", 2, "--seed", 4, "--out", out, "--quiet"])
        assert code == 0
        lines = (out / "covariates.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("outcome_only,")

    def test_covariates_without_covariates_names_the_experiment(self, tmp_path, capsys):
        out = tmp_path / "cov"
        assert run(["covariates", "--covariate-count", 0, "--replications", 2, "--out", out]) == 1
        assert capsys.readouterr() == ("", "error: the covariates experiment needs covariate_count >= 1\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, points",
        [
            (["sweep", "--knob", "S", "--from", 2, "--to", 3, "--periods", 5], 2),
            (["sweep", "--knob", "T", "--from", 4, "--to", 5], 2),
            (["covariates", "--periods", 5, "--t0", 3], 1),
        ],
        ids=["S", "T", "covariates"],
    )
    def test_underdetermined_warning_names_the_cli(self, tmp_path, args, points):
        # One warning per knob point, attributed to the command line front end, not the experiment engine.
        with pytest.warns(UserWarning, match="underdetermined") as record:
            assert run(args + ["--replications", 2, "--individuals", 40, "--out", tmp_path / "out", "--quiet"]) == 0
        assert len(record) == points
        assert all(w.filename == cli.__file__ and "run_experiment(" in linecache.getline(w.filename, w.lineno)
                   for w in record)


class TestAggregate:
    def test_custom_grouping(self, tmp_path):
        panel_path = tmp_path / "states.csv"
        write_panel_csv(
            panel_path,
            ["CA", "NV", "UT"],
            [1, 2],
            lambda g, t: {"CA": 50.0, "NV": 100.0, "UT": 120.0}[g] + t,
            populations={"CA": 3e7, "NV": 1e7, "UT": 8e5},
        )
        grouping = tmp_path / "grouping.json"
        grouping.write_text(json.dumps({"CA": "CA", "NV": "West", "UT": "West"}))
        out = tmp_path / "agg"
        code = run(["aggregate", "--panel", panel_path, "--target", "CA", "--t0", 1,
                    "--grouping", grouping, "--out", out, "--quiet"])
        assert code == 0
        text = (out / "aggregated.csv").read_text().splitlines()
        rows = {tuple(r.split(",")[:2]): float(r.split(",")[2]) for r in text[1:]}
        expected = (1e7 * 101.0 + 8e5 * 121.0) / 1.08e7
        assert rows[("West", "1")] == pytest.approx(expected, abs=1e-12)

    def test_default_census_grouping(self, tmp_path):
        from importlib import resources

        with resources.files("synthpanel").joinpath("data/census_divisions.json").open() as fh:
            census = json.load(fh)
        states = sorted(census["divisions"])
        panel_path = tmp_path / "states.csv"
        write_panel_csv(
            panel_path, states, [1988, 1989],
            lambda g, t: 100.0 + hash(g) % 7,
            populations={s: 1.0 + i for i, s in enumerate(states)},
        )
        out = tmp_path / "agg"
        code = run(["aggregate", "--panel", panel_path, "--target", "California",
                    "--t0", 1, "--out", out, "--quiet"])
        assert code == 0
        lines = (out / "aggregated.csv").read_text().strip().splitlines()
        groups = {line.split(",")[0] for line in lines[1:]}
        assert "California" in groups and "Pacific" not in groups
        assert len(groups) == 9

    def test_overflowing_population_is_data_error(self, tmp_path, capsys):
        panel_path = tmp_path / "states.csv"
        write_panel_csv(panel_path, ["CA", "NV", "UT"], [1, 2], lambda g, t: 1.0 + t,
                        populations={"CA": 3e7, "NV": 1e308, "UT": 1e308})
        grouping = tmp_path / "grouping.json"
        grouping.write_text(json.dumps({"CA": "CA", "NV": "West", "UT": "West"}))
        out = tmp_path / "agg"
        assert run(["aggregate", "--panel", panel_path, "--target", "CA", "--t0", 1,
                    "--grouping", grouping, "--out", out]) == 2
        assert capsys.readouterr().err == "error: total population of super-group 'West' is not finite\n"
        assert not out.exists()

    def test_group_mapped_to_target_label_is_data_error(self, tmp_path, capsys):
        # The target passes through alone; merging NV into it would change its outcomes.
        panel_path = tmp_path / "states.csv"
        write_panel_csv(panel_path, ["CA", "NV", "UT"], [1, 2], lambda g, t: 1.0 + t,
                        populations={"CA": 3e7, "NV": 1e7, "UT": 8e5})
        grouping = tmp_path / "grouping.json"
        grouping.write_text(json.dumps({"NV": "CA", "UT": "West"}))
        out = tmp_path / "agg"
        assert run(["aggregate", "--panel", panel_path, "--target", "CA", "--t0", 1,
                    "--grouping", grouping, "--out", out]) == 2
        assert capsys.readouterr().err == "error: group 'NV' is mapped to 'CA', the target's label\n"
        assert not out.exists()


    @pytest.mark.parametrize(
        "mapping, populations, message",
        [
            ({"B": "X"}, dict.fromkeys("ABCD", 1.0), "group 'C' missing from the grouping map"),
            ({"B": "X", "C": "X", "D": "Y"}, None, "no population given for group 'B'"),
        ],
        ids=["group-missing", "population-missing"],
    )
    def test_incomplete_grouping_is_data_error(self, tmp_path, capsys, mapping, populations, message):
        panel_path = tmp_path / "panel.csv"
        write_panel_csv(panel_path, ["A", "B", "C", "D"], [1, 2], lambda g, t: 1.0 + t, populations)
        grouping = tmp_path / "grouping.json"
        grouping.write_text(json.dumps({"A": "A", **mapping}))
        out = tmp_path / "agg"
        assert run(["aggregate", "--panel", panel_path, "--target", "A", "--t0", 1,
                    "--grouping", grouping, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


# The parameters each experiment sets itself or, drawing no covariates, cannot
# use, by CLI name: giving one is a usage error, and the manifest leaves them out.
EXPERIMENT_SETS = {
    ("sweep", "S"): ["s_cardinality", "t0", "shift", "covariate_count", "covariate_scale"],
    ("sweep", "T"): ["periods", "t0", "aggregation", "shift", "covariate_count", "covariate_scale"],
    ("covariates", None): ["shift"],
}


# Each command's required flags; a --config document may supply them instead.
REQUIRED_FLAGS = {"fit": ["panel", "target", "t0"], "aggregate": ["panel", "target", "t0"], "diagnose": ["bundle"]}


class TestUsage:
    def test_missing_required_flag(self, capsys):
        assert run(["fit", "--target", "x", "--t0", 2]) == 1
        assert "--panel" in capsys.readouterr().err

    @pytest.mark.parametrize("how", ["left-out", "null-in-config"])
    @pytest.mark.parametrize("command, name", [(c, name) for c, names in REQUIRED_FLAGS.items() for name in names])
    def test_required_flag_is_usage_error(self, tmp_path, blend_panel, capsys, command, name, how):
        # Every other required flag is given and valid, so the missing one is the run's only fault.
        values = {"panel": blend_panel, "target": "tgt", "t0": 6}
        args = [command, *(arg for key in REQUIRED_FLAGS[command] if key != name for arg in (f"--{key}", values[key]))]
        if how == "null-in-config":
            (tmp_path / "config.json").write_text(json.dumps({name: None}))
            args += ["--config", tmp_path / "config.json"]
        out = tmp_path / "out"
        assert run(args + ["--out", out]) == 1
        assert capsys.readouterr().err == f"error: --{name} is required\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "aggregate"])
    @pytest.mark.parametrize("t0", [0, 8])
    def test_t0_outside_panel_is_usage_error(self, tmp_path, capsys, command, t0):
        panel, grouping = tmp_path / "panel.csv", tmp_path / "grouping.json"
        write_panel_csv(panel, ["a", "b"], range(1, 9), lambda g, t: 1.0 + t, populations={"a": 1.0, "b": 2.0})
        grouping.write_text(json.dumps({"a": "a", "b": "b"}))
        extra = ["--grouping", grouping] if command == "aggregate" else []
        out = tmp_path / "out"
        assert run([command, "--panel", panel, "--target", "a", "--t0", t0, *extra, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: intervention_time must satisfy 1 <= T0 < T, got T0={t0}, T=8\n"
        assert not out.exists()

    def test_memory_error_while_writing_is_not_reported_as_usage(self, tmp_path, monkeypatch):
        # Exit 1 promises no output directory, so only a MemoryError raised before anything is written maps to it.
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "write_json", exhausted)
        with pytest.raises(MemoryError):
            run(["simulate", "--individuals", 50, "--out", tmp_path / "out"])

    @pytest.mark.parametrize(
        "args",
        [
            ["sweep", "--knob", "S", "--replications", 0],
            ["sweep", "--knob", "T", "--from", 8, "--to", 12, "--replications", 0],
            ["sweep", "--knob", "T", "--from", 12, "--to", 8],
            ["sweep", "--knob", "S", "--from", 5, "--to", 2],
            ["sweep", "--knob", "S", "--step", 0],
            ["covariates", "--replications", 0],
        ],
    )
    def test_empty_sweep_is_usage_error(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert run(args + ["--individuals", 40, "--out", out, "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--noise-sd", "--ramp-scale", "--shift", "--tolerance", "--ridge-lam"])
    def test_non_finite_parameter_is_usage_error(self, tmp_path, capsys, flag):
        out = tmp_path / "out"
        assert run(["sweep", "--knob", "S", "--from", 2, "--to", 2, "--replications", 1,
                    "--individuals", 40, flag, "nan", "--out", out, "--quiet"]) == 1
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "args",
        [
            # Noise of 1e200 overflows the normal equations: exit 2 before any output.
            *(["sweep", "--knob", "T", "--from", 20, "--to", 20, "--replications", 1, "--noise-sd", 1e200,
               "--regularizer", regularizer] for regularizer in ["none", "simplex", "elastic_net"]),
            # Noise of 1e80 leaves every MSE finite, but the spread of two of them overflows.
            ["sweep", "--knob", "T", "--from", 20, "--to", 20, "--replications", 2, "--noise-sd", 1e80],
            ["covariates", "--replications", 2, "--noise-sd", 1e80],
        ],
        ids=["none", "simplex", "elastic_net", "summary", "covariates-summary"],
    )
    def test_overflowing_sweep_is_data_error(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert run([*args, "--individuals", 5, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
        if args[0] == "covariates":  # the message names the covariate row whose summary overflowed
            assert any(f"at knob {row} " in err for row in COVARIATE_ROWS)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flag", ["--noise-sd", "--ramp-scale"])
    def test_overflowing_simulation_is_data_error(self, tmp_path, capsys, flag):
        out = tmp_path / "out"
        assert run(["simulate", "--individuals", 20, flag, 1e308, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("knob, bounds", [("S", [5, 2]), ("T", [12, 8])])
    def test_empty_knob_range_is_usage_error(self, tmp_path, capsys, knob, bounds):
        out = tmp_path / "out"
        assert run(["sweep", "--knob", knob, "--from", bounds[0], "--to", bounds[1], "--out", out]) == 1
        assert capsys.readouterr().err == "error: a sweep needs at least one knob value\n"
        assert not out.exists()

    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize(
        "command, knob, name", [(*key, name) for key, names in EXPERIMENT_SETS.items() for name in names]
    )
    def test_parameter_an_experiment_sets_is_usage_error(self, tmp_path, capsys, command, knob, name, how):
        # Given at its default value, on a run that succeeds without it.
        value = cli.COMMAND_PARAMS[command][name].default
        args = [command, *(["--knob", knob, "--from", 8, "--to", 9] if knob else []), "--replications", 1,
                "--individuals", 20]
        assert run(args + ["--out", tmp_path / "control", "--quiet"]) == 0
        if how == "flag":
            args += ["--" + name.replace("_", "-"), value]
        else:
            (tmp_path / "config.json").write_text(json.dumps({name: value}))
            args += ["--config", tmp_path / "config.json"]
        out = tmp_path / "out"
        assert run(args + ["--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and f" {name} " in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--periods", 10], ["--categories", 3]], ids=["periods", "categories"])
    def test_parameters_an_experiment_sets_have_no_default_to_fail(self, tmp_path, flags):
        # Once failed against the unused defaults t0 = 15 and s_cardinality = 5.
        assert run(["sweep", "--knob", "S", "--from", 2, "--to", 3, "--replications", 1, "--individuals", 20,
                    *flags, "--out", tmp_path / "out", "--quiet"]) == 0

    @pytest.mark.parametrize(
        "args, code, message",
        [
            (["--config", "{config}"], 2, "{config}: config must be a JSON object"),
            (["--donors", "zz"], 1, "unknown group label 'zz'"),
            (["--donors", "a,a"], 1, "donor indices must be distinct"),
        ],
        ids=["config-list", "unknown-donor", "repeated-donor"],
    )
    def test_rejected_fit_inputs(self, tmp_path, blend_panel, capsys, args, code, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(["regularizer", "none"]))
        out = tmp_path / "out"
        args = [str(a).format(config=config) for a in args]
        assert run(["fit", "--panel", blend_panel, "--target", "tgt", "--t0", 6, *args, "--out", out]) == code
        assert capsys.readouterr().err == f"error: {message.format(config=config)}\n"
        assert not out.exists()

    def test_unknown_knob(self, capsys):
        assert run(["sweep", "--knob", "Q"]) == 1

    @pytest.mark.parametrize(
        "command, document",
        [
            ("covariates", {"replications": "2"}),
            ("sweep", {"noise_sd": "1"}),
            ("sweep", {"periods": True}),
            ("sweep", {"knob": "Q"}),
            ("sweep", {"split": None}),
            ("simulate", {"seed": 1.5}),
            ("simulate", {"aggregation": "mode"}),
            ("simulate", {"quiet": 1}),
            ("fit", {"regularizer": "lasso"}),
            ("diagnose", {"tol": "1e-9"}),
            ("aggregate", {"t0": 1.0}),
        ],
    )
    def test_ill_typed_config_value_is_usage_error(self, tmp_path, capsys, command, document):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(document))
        out = tmp_path / "out"
        assert run([command, "--config", config, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_config_values_are_echoed_as_written(self, tmp_path):
        # An int for a float parameter is accepted and not coerced.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"noise_sd": 1, "shift": 0}))
        out = tmp_path / "out"
        assert run(["simulate", "--individuals", 20, "--config", config, "--out", out, "--quiet"]) == 0
        text = (out / "manifest.json").read_text()
        assert '"noise_sd": 1,' in text and '"shift": 0,' in text

    @pytest.mark.parametrize("args", [["--seed", -1], ["--config", "seed.json"]])
    def test_bad_seed_is_usage_error(self, tmp_path, capsys, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "seed.json").write_text(json.dumps({"seed": 1.5}))
        assert run(["simulate", "--individuals", 20, "--out", "out", *args]) == 1
        err = capsys.readouterr().err
        assert "seed" in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [["--tol", "nan"], ["--tol", "inf"], ["--verify-tol", "nan"]])
    def test_non_finite_tolerance_is_usage_error(self, tmp_path, capsys, args):
        assert run(["simulate", "--individuals", 20, "--out", tmp_path / "b", "--quiet"]) == 0
        out = tmp_path / "d"
        assert run(["diagnose", "--bundle", tmp_path / "b", *args, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "tolerance" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "document",
        [{"divisions": [1, 2]}, {"divisions": {"a": "AB", "b": "AB"}, "excluded": "Utah"}, {"a": 1}],
    )
    def test_malformed_grouping_is_data_error(self, tmp_path, capsys, document):
        panel = tmp_path / "panel.csv"
        write_panel_csv(panel, ["a", "b"], [1, 2], lambda g, t: 1.0 + t, populations={"a": 1.0, "b": 2.0})
        grouping = tmp_path / "grouping.json"
        grouping.write_text(json.dumps(document))
        out = tmp_path / "out"
        assert run(["aggregate", "--panel", panel, "--target", "a", "--t0", 1,
                    "--grouping", grouping, "--out", out]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()


class TestManifestRoundTrip:
    """A run is reproducible from its manifest alone."""

    @pytest.mark.parametrize(
        "args",
        [
            ["fit", "--panel", "{panel}", "--target", "tgt", "--t0", 6, "--regularizer", "ridge", "--ridge-lam", 0.5],
            ["simulate", "--seed", 3, "--individuals", 40, "--shift", 1.5, "--aggregation", "median"],
            ["sweep", "--knob", "S", "--from", 2, "--to", 3, "--replications", 2, "--individuals", 40],
            ["sweep", "--knob", "T", "--from", 8, "--to", 9, "--replications", 2, "--individuals", 40,
             "--regularizer", "simplex"],
            ["covariates", "--replications", 2, "--individuals", 40, "--covariate-count", 2, "--seed", 6],
            ["diagnose", "--bundle", "{bundle}", "--tol", 1e-8],
            ["aggregate", "--panel", "{panel}", "--target", "tgt", "--t0", 6, "--grouping", "{grouping}"],
        ],
        ids=["fit", "simulate", "sweep-S", "sweep-T", "covariates", "diagnose", "aggregate"],
    )
    def test_manifest_parameters_reproduce_outputs(self, tmp_path, args):
        panel = tmp_path / "panel.csv"
        write_panel_csv(panel, ["tgt", "a", "b"], range(1, 9),
                        lambda g, t: {"tgt": 15.0 + 0.1 * t * t, "a": 10.0 + t, "b": 20.0 - t}[g],
                        populations={"tgt": 3.0, "a": 1.0, "b": 2.0})
        grouping = tmp_path / "grouping.json"
        grouping.write_text(json.dumps({"tgt": "tgt", "a": "ab", "b": "ab"}))
        assert run(["simulate", "--individuals", 30, "--out", tmp_path / "bundle", "--quiet"]) == 0
        paths = {"panel": panel, "grouping": grouping, "bundle": tmp_path / "bundle"}
        args = [str(a).format(**paths) for a in args]

        first, second = tmp_path / "first", tmp_path / "second"
        assert run(args + ["--out", first, "--quiet"]) == 0
        parameters = json.loads((first / "manifest.json").read_text())["parameters"]
        # Every parameter but out, quiet and what the experiment sets itself.
        sets = EXPERIMENT_SETS.get((args[0], parameters.get("knob")), [])
        assert sorted(parameters) == sorted(set(cli.COMMAND_PARAMS[args[0]]) - {"out", "quiet", *sets})
        config = tmp_path / "parameters.json"
        config.write_text(json.dumps(parameters))
        assert run([args[0], "--config", config, "--out", second, "--quiet"]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        # Every CSV the CLI writes ends each row with CRLF.
        for name in (n for n in names if n.endswith(".csv")):
            data = (first / name).read_bytes()
            assert data.endswith(b"\r\n") and data.count(b"\n") == data.count(b"\r\n"), name


def run_python(argv, cwd):
    """(exit code, stdout, stderr) of a fresh interpreter run with ``argv`` and this synthpanel importable."""
    paths = [str(Path(synthpanel.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def run_alone(args, cwd):
    """(exit code, stdout, stderr) of the args run by `python -m synthpanel.cli` in a fresh process."""
    return run_python(["-m", "synthpanel.cli", *map(str, args)], cwd)


def directory_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())} if path.exists() else None


class TestSharedParser:
    """Every main() call in a process parses with the one parser; no call leaves state behind."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_leave_no_state(self, tmp_path, blend_panel, monkeypatch):
        fit = ["fit", "--panel", blend_panel, "--target", "tgt", "--t0", 6, "--out", "out"]
        sequence = [
            (fit + ["--regularizer", "ridge", "--ridge-lam", 0.5], 0),
            (["fit", "--regularizer", "ridge", "--donors", "a", "--t0", "six"], 1),
            (fit, 0),
            (["sweep", "--knob", "S", "--from", 2, "--to", 3, "--replications", 1, "--individuals", 20,
              "--out", "out"], 0),
        ]
        for k, (args, code) in enumerate(sequence):
            shared, alone = tmp_path / f"shared{k}", tmp_path / f"alone{k}"
            shared.mkdir()
            alone.mkdir()
            monkeypatch.chdir(shared)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                assert run(args) == code
            assert (code, stdout.getvalue(), stderr.getvalue()) == run_alone(args, alone)
            assert directory_bytes(shared / "out") == directory_bytes(alone / "out")
        manifest = json.loads((tmp_path / "shared2" / "out" / "manifest.json").read_text())
        assert manifest["parameters"]["regularizer"] == "simplex"
        assert manifest["parameters"]["donors"] is None


class TestEntryPoint:
    def test_help_lists_every_command(self, tmp_path):
        code, stdout, stderr = run_alone(["--help"], tmp_path)
        assert code == 0 and stderr == ""
        listed = re.findall(r"^    (\S+)", stdout, flags=re.MULTILINE)
        assert listed == list(cli.COMMANDS)

    def test_version(self, tmp_path):
        assert run_alone(["--version"], tmp_path) == (0, cli.VERSION_STRING + "\n", "")

    def test_import_leaves_numpy_random_unloaded(self, tmp_path):
        # microsim defines its seeding class on first use (_words_sequence), so importing the
        # package and its CLI, the start-up cost of every command, does not load numpy.random.
        code = "import sys, synthpanel, synthpanel.cli; print([m for m in sys.modules if 'numpy.random' in m])"
        assert run_python(["-c", code], tmp_path) == (0, "[]\n", "")

    def test_import_leaves_concurrent_futures_unloaded(self, tmp_path):
        # microsim builds its cell pool on first use, so importing the package and its CLI does not load it.
        code = "import sys, synthpanel, synthpanel.cli; print([m for m in sys.modules if m.startswith('concurrent')])"
        assert run_python(["-c", code], tmp_path) == (0, "[]\n", "")


class TestIOContract:
    """A missing input or an unusable --out exits 1; an unreadable, undecodable
    or malformed input file exits 2. Either way: one stderr line, no output."""

    @pytest.mark.parametrize(
        "case, code",
        [
            ("panel-is-directory", 2),
            ("panel-not-utf8", 2),
            ("config-is-directory", 2),
            ("bundle-is-file", 2),
            ("out-is-file", 1),
            ("out-under-file", 1),
        ],
    )
    def test_unusable_path(self, tmp_path, capsys, case, code):
        a_dir, a_file = tmp_path / "dir", tmp_path / "file.csv"
        a_dir.mkdir()
        a_file.write_bytes(b"group,time,outcome\nA,1,1.0\n\xff,2,1.0\n")
        out = tmp_path / "out"
        fit = ["fit", "--target", "A", "--t0", 1]
        simulate = ["simulate", "--individuals", 20]
        args = {
            "panel-is-directory": [*fit, "--panel", a_dir, "--out", out],
            "panel-not-utf8": [*fit, "--panel", a_file, "--out", out],
            "config-is-directory": [*simulate, "--config", a_dir, "--out", out],
            "bundle-is-file": ["diagnose", "--bundle", a_file, "--out", out],
            "out-is-file": [*simulate, "--out", a_file],
            "out-under-file": [*simulate, "--out", a_file / "sub"],
        }[case]
        assert run(args) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists() and a_file.is_file()


@pytest.fixture(scope="module")
def pristine_bundle(tmp_path_factory):
    bundle = tmp_path_factory.mktemp("pristine") / "bundle"
    assert run(["simulate", "--seed", 2, "--individuals", 20, "--covariate-count", 2,
                "--out", bundle, "--quiet"]) == 0
    return bundle


@settings(max_examples=30, deadline=None)
# A quote for the header's first byte makes the whole file one quoted header field.
@example(name="panel.csv", damage="flip", where=0.0, mask=ord("g") ^ ord('"'))
@example(name="panel.csv", damage="drop-last-period", where=0.0, mask=1)
@given(
    name=st.sampled_from(["truth.json", "panel.csv", "covariates_suitable.csv", "covariates_unsuitable.csv"]),
    damage=st.sampled_from(["truncate", "flip", "delete"]),
    where=st.floats(0.0, 1.0, exclude_max=True),
    mask=st.integers(1, 255),
)
def test_damaged_bundle_fails_cleanly(pristine_bundle, name, damage, where, mask):
    with tempfile.TemporaryDirectory() as scratch:
        bundle = Path(scratch) / "bundle"
        shutil.copytree(pristine_bundle, bundle)
        target = bundle / name
        data = bytearray(target.read_bytes())
        at = int(where * len(data))
        if damage == "delete":
            target.unlink()
        elif damage == "truncate":
            target.write_bytes(data[:at])
        elif damage == "drop-last-period":
            header, *rows = data.decode().splitlines(keepends=True)
            last = max(int(row.split(",")[1]) for row in rows)
            target.write_text(header + "".join(row for row in rows if int(row.split(",")[1]) != last))
        else:
            data[at] ^= mask
            target.write_bytes(bytes(data))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(["diagnose", "--bundle", bundle, "--out", Path(scratch) / "d", "--quiet"])
        assert (Path(scratch) / "d").exists() == (code == 0)
    # A deleted file is a missing input (exit 1); any other damage is a data error or harmless.
    assert code in ({1} if damage == "delete" else {0, 2})
    text = err.getvalue()
    assert "Traceback" not in text
    assert text.count("\n") == (0 if code == 0 else 1)
    if damage == "drop-last-period":
        assert code == 2
        assert text.endswith("truth.json: malformed study truth "
                             "(DataValidationError: panel dimensions do not match the study config)\n")


CONTRACT_INTS = {
    "seed": st.integers(-1, 2**64),
    "s_cardinality": st.integers(-1, 13),
    "periods": st.integers(-1, 12),
    "t0": st.integers(-1, 12),
    "categories": st.integers(-1, 13),
    "donors": st.integers(-1, 6),
    "individuals": st.integers(-1, 30),
    "covariate_count": st.integers(-1, 3),
    "max_iterations": st.integers(-1, 50),
    "replications": st.integers(-1, 2),
    "from_value": st.integers(-1, 12),
    "to_value": st.integers(-1, 12),
    "step": st.integers(-1, 4),
}
CONTRACT_FLOATS = st.one_of(
    st.sampled_from([0.0, -1.0, 1e-300, 1e300, 1e308, float("inf"), float("-inf"), float("nan")]),
    st.floats(-5.0, 5.0),
)
CONTRACT_STRINGS = {
    "panel": ["panel.csv", "huge.csv", "crowded.csv", "lopsided.csv", "bad.csv", "absent.csv"],
    "covariates": ["covariates.csv", "huge_covariates.csv", "bad.csv", "absent.csv"],
    "grouping": ["grouping.json", "bad_grouping.json", "absent.json"],
    "bundle": ["bundle", "panel.csv", "absent"],
    "target": ["tgt", "a", "zz"],
    "donors": ["a,b", "b", "tgt", "zz", "", "a,a"],
}
# Each command starts from small sizes, so that no example runs for long;
# generated flags come later and override them. A sweep's base also draws its
# knob: the T sweep sets its own periods, from horizons that the 0.75 split leaves
# a held-out period.
CONTRACT_SWEEP_BASE = {"S": ["--periods", 8, "--from", 2, "--to", 3], "T": ["--from", 6, "--to", 7]}
CONTRACT_BASE = {
    "fit": ["--panel", "panel.csv", "--target", "tgt", "--t0", 6],
    "simulate": ["--individuals", 20, "--periods", 8, "--t0", 6],
    "sweep": ["--individuals", 20, "--replications", 1],
    "covariates": ["--individuals", 20, "--replications", 1, "--covariate-count", 2],
    "diagnose": ["--bundle", "bundle"],
    "aggregate": ["--panel", "panel.csv", "--target", "tgt", "--t0", 6, "--grouping", "grouping.json"],
}


def contract_values(param):
    """Values, valid and not, that a generated flag or config entry gives ``param``."""
    if param.type is int:
        return CONTRACT_INTS[param.name]
    if param.type is float:
        return CONTRACT_FLOATS
    if param.choices is not None:
        return st.sampled_from([*param.choices, "bogus"])
    return st.sampled_from(CONTRACT_STRINGS[param.name])


@st.composite
def invocations(draw):
    """(argv, config document or None, quiet) for one generated CLI call."""
    command = draw(st.sampled_from(sorted(cli.COMMAND_PARAMS)))
    table = {name: p for name, p in cli.COMMAND_PARAMS[command].items() if name not in ("out", "quiet")}
    flags = draw(st.dictionaries(st.sampled_from(sorted(table)), st.none(), max_size=3))
    argv = [command, *CONTRACT_BASE[command]]
    if command == "sweep":
        knob = draw(st.sampled_from(sorted(CONTRACT_SWEEP_BASE)))
        argv += ["--knob", knob, *CONTRACT_SWEEP_BASE[knob]]
    for name in flags:
        param = table[name]
        argv.append(f"{param.flag}={draw(contract_values(param))}")
    quiet = draw(st.booleans())
    if quiet:
        argv.append("--quiet")
    junk = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(), max_size=2))
    config = None
    keys = draw(st.none() | st.sets(st.sampled_from([*sorted(table), "mystery"]), max_size=3))
    if keys is not None:
        config = {key: draw(junk | contract_values(table[key]) if key in table else junk) for key in sorted(keys)}
    return [str(a) for a in argv], config, quiet


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    series = {"tgt": lambda t: 15.0 + 0.1 * t * t, "a": lambda t: 10.0 + t, "b": lambda t: 20.0 - t}
    populations = {"tgt": 3.0, "a": 1.0, "b": 2.0}
    write_panel_csv(root / "panel.csv", list(series), range(1, 9), lambda g, t: series[g](t), populations)
    write_panel_csv(root / "huge.csv", list(series), range(1, 9), lambda g, t: series[g](t) * 1e300, populations)
    write_panel_csv(root / "crowded.csv", list(series), range(1, 9), lambda g, t: series[g](t),
                    {"tgt": 3.0, "a": 1e308, "b": 1e308})
    # A fit on it overflows only in its objective.
    write_panel_csv(root / "lopsided.csv", list(series), range(1, 9),
                    lambda g, t: 1e160 * t * t if g == "tgt" else series[g](t), populations)
    (root / "bad.csv").write_text("group,time,outcome\ntgt,1,x\n")
    (root / "covariates.csv").write_text("group,u,v\ntgt,1.0,2.0\na,0.5,1.0\nb,1.5,3.5\n")
    # Standardizing its one covariate overflows.
    (root / "huge_covariates.csv").write_text("group,u\ntgt,1e308\na,1.7e308\nb,-1.7e308\n")
    (root / "grouping.json").write_text(json.dumps({"tgt": "tgt", "a": "ab", "b": "ab"}))
    (root / "bad_grouping.json").write_text(json.dumps({"divisions": [1]}))
    assert run(["simulate", "--individuals", 20, "--covariate-count", 2, "--out", root / "bundle", "--quiet"]) == 0
    return root


def non_finite_numbers(path):
    """The numbers in a written CSV or JSON file that are not finite."""
    if path.suffix == ".json":
        def walk(value):
            if isinstance(value, dict):
                value = list(value.values())
            if isinstance(value, list):
                return [bad for item in value for bad in walk(item)]
            return [value] if isinstance(value, float) and not np.isfinite(value) else []
        return walk(json.loads(path.read_text()))
    numbers = []
    for row in csv.reader(io.StringIO(path.read_text())):
        for field in row:
            try:
                numbers.append(float(field))
            except ValueError:
                pass
    return [x for x in numbers if not np.isfinite(x)]


@settings(max_examples=60, deadline=None)
# Covariates whose standardization overflows.
@example(invocation=(["fit", *map(str, CONTRACT_BASE["fit"]), "--covariates", "huge_covariates.csv"], None, False))
# Median cells that stay finite while the suitable covariates' individuals overflow.
@example(invocation=(
    ["covariates", *map(str, CONTRACT_BASE["covariates"]), "--noise-sd=1e+308", "--aggregation=median"], None, False
))
# Sizes whose first array exceeds the address space (MemoryError) or numpy's index range (refused by SimConfig).
@example(invocation=(["simulate", *map(str, CONTRACT_BASE["simulate"]), "--individuals=1000000000000000"], None, False))
@example(invocation=(["simulate", *map(str, CONTRACT_BASE["simulate"]), "--individuals=100000000000000000000"], None,
                     False))
@example(invocation=(["simulate", *map(str, CONTRACT_BASE["simulate"]), "--periods=100000000000000"], None, False))
@example(invocation=(["simulate", *map(str, CONTRACT_BASE["simulate"]), "--categories=100000000000000"], None, False))
@given(invocation=invocations())
def test_cli_contract(contract_inputs, invocation):
    """Exit 0 with finite outputs, 3 with outputs and a note, or 1/2 with one error line and no output."""
    argv, config, quiet = invocation
    home = os.getcwd()
    os.chdir(contract_inputs)
    try:
        check_contract(argv, config, quiet)
    finally:
        os.chdir(home)


def check_contract(argv, config, quiet):
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "out"
        if config is not None:
            (Path(scratch) / "config.json").write_text(json.dumps(config))
            argv = argv + ["--config", str(Path(scratch) / "config.json")]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + ["--out", str(out)])
        err = stderr.getvalue()
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if code in (1, 2):
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not out.exists()
            return
        assert err == ("solver did not converge\n" if code == 3 and not quiet else "")
        for path in sorted(out.iterdir()):
            if path.suffix in (".csv", ".json"):
                assert non_finite_numbers(path) == [], path.name


# Outcome scales past the normal equations' range, subnormal, and zero; a panel's outcomes are a scale times
# numbers in [-1, 1].
CONTENT_SCALES = (1e300, -1e300, float(np.finfo(float).max), 1e-310, 5e-324, 0.0)
CONTENT_POPULATIONS = st.sampled_from([5e-324, 1e308]) | st.floats(5e-324, 1e308)


@st.composite
def panel_contents(draw):
    """(outcome series by group, target first; populations by group or None; T0) of one panel CSV.

    Each donor's series is drawn, constant or the target's own, and T0 is the first or the last
    period before the end.
    """
    periods = draw(st.integers(2, 6))
    t0 = draw(st.sampled_from([1, periods - 1]))
    scale = draw(st.sampled_from(CONTENT_SCALES))
    unit = st.floats(-1.0, 1.0)
    drawn = st.lists(unit, min_size=periods, max_size=periods)
    series = {"tgt": [scale * x for x in draw(drawn)]}
    for i in range(1, draw(st.integers(1, 3)) + 1):
        kind = draw(st.sampled_from(["drawn", "constant", "target"]))
        if kind == "drawn":
            series[f"d{i}"] = [scale * x for x in draw(drawn)]
        elif kind == "constant":
            series[f"d{i}"] = [scale * draw(unit)] * periods
        else:
            series[f"d{i}"] = series["tgt"]
    populations = draw(st.none() | st.fixed_dictionaries({group: CONTENT_POPULATIONS for group in series}))
    return series, populations, t0


@settings(max_examples=40, deadline=None, derandomize=True)
# Donor populations whose total overflows.
@example(contents=({"tgt": [1e300, -1e300], "d1": [1.0, 0.5], "d2": [5e-324, 0.0]},
                   {"tgt": 5e-324, "d1": 1e308, "d2": 1e308}, 1))
@given(contents=panel_contents())
def test_cli_contract_over_panel_contents(contents):
    """The CLI contract of test_cli_contract, for fit with each regularizer and for aggregate, on generated panels."""
    series, populations, t0 = contents
    with tempfile.TemporaryDirectory() as root:
        panel, grouping = Path(root) / "panel.csv", Path(root) / "grouping.json"
        periods = range(1, len(series["tgt"]) + 1)
        write_panel_csv(panel, list(series), periods, lambda g, t: series[g][t - 1], populations)
        grouping.write_text(json.dumps({group: "tgt" if group == "tgt" else "donors" for group in series}))
        base = ["--panel", str(panel), "--target", "tgt", "--t0", str(t0)]
        for regularizer in REGULARIZERS:
            check_contract(["fit", *base, f"--regularizer={regularizer}"], None, False)
        check_contract(["aggregate", *base, "--grouping", str(grouping)], None, False)
