import ast
import csv
import importlib
import json
import math
import pkgutil
import tempfile
import types
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synthpanel

from synthpanel import (
    DataValidationError,
    PanelData,
    UsageError,
    aggregate_divisions,
    aggregate_groups,
    from_csv,
    select_groups,
    to_csv,
)
from synthpanel.cli import main
from synthpanel.estimators import EffectEstimate, WeightVector
from synthpanel.evaluation import SplitEvaluation, SweepPoint, SweepResult, write_sweep_csv
from synthpanel.identification import InvariantSetReport, OracleWeights
from synthpanel.microsim import SimConfig, SimulatedStudy
from synthpanel.panel import aux_from_csv, aux_to_csv, standardize_rows
from synthpanel.panel import AuxMatrix


def write_rows(path, rows, header=("group", "time", "outcome")):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class TestFromCsv:
    def test_minimal_grid(self, tmp_path):
        path = tmp_path / "panel.csv"
        write_rows(
            path,
            [
                ("CA", 1, 1.0), ("CA", 2, 2.0), ("CA", 3, 3.0),
                ("NV", 1, 4.0), ("NV", 2, 5.0), ("NV", 3, 6.0),
            ],
        )
        panel = from_csv(path, target="CA", intervention_time=2)
        assert panel.n_groups == 2 and panel.n_periods == 3
        assert panel.target_label == "CA"
        assert panel.time_labels == (1, 2, 3)

    def test_missing_cell_named(self, tmp_path):
        path = tmp_path / "panel.csv"
        write_rows(path, [("CA", 1, 1.0), ("CA", 2, 2.0), ("NV", 1, 4.0)])
        with pytest.raises(DataValidationError, match=r"\(NV, 2\)"):
            from_csv(path, target="CA", intervention_time=1)

    def test_non_numeric_outcome_has_line_number(self, tmp_path):
        path = tmp_path / "panel.csv"
        write_rows(path, [("CA", 1, 1.0), ("CA", 2, "oops")])
        with pytest.raises(DataValidationError, match="line 3"):
            from_csv(path, target="CA", intervention_time=1)

    def test_unknown_target(self, tmp_path):
        path = tmp_path / "panel.csv"
        write_rows(path, [("CA", 1, 1.0), ("CA", 2, 2.0)])
        with pytest.raises(UsageError, match="TX"):
            from_csv(path, target="TX", intervention_time=1)

    def test_line_endings_and_quoted_fields(self, tmp_path):
        # Parsed as from a file opened with newline="": CRLF, lone CR and LF
        # all end a record, and a quoted field keeps its comma and newline.
        path = tmp_path / "panel.csv"
        path.write_bytes(
            b'group,time,outcome\r\n"Wash, DC",1,1.5\r"Wash, DC",2,2.5\n"a\r\nb",1,3\r\n"a\r\nb",2,4\r\n'
        )
        panel = from_csv(path, target="Wash, DC", intervention_time=1)
        assert panel.group_labels == ("Wash, DC", "a\r\nb")
        assert panel.outcomes.tolist() == [[1.5, 2.5], [3.0, 4.0]]

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # Spreadsheet programs save "CSV UTF-8" with a leading byte-order mark.
        path = tmp_path / "panel.csv"
        path.write_bytes(b"\xef\xbb\xbfgroup,time,outcome\r\nCA,1,1.5\r\nCA,2,2.5\r\n")
        panel = from_csv(path, target="CA", intervention_time=1)
        assert panel.group_labels == ("CA",) and panel.outcomes.tolist() == [[1.5, 2.5]]

    def test_unreadable_file_is_data_error(self, tmp_path):
        with pytest.raises(DataValidationError, match="cannot read"):
            from_csv(tmp_path, target="CA", intervention_time=1)
        path = tmp_path / "panel.csv"
        path.write_bytes(b"group,time,outcome\nCA,1,1.0\nCA,2,\xe9\n")
        with pytest.raises(DataValidationError, match="not UTF-8"):
            from_csv(path, target="CA", intervention_time=1)
        # An unclosed quote runs past the csv module's field size limit.
        path.write_text('group,time,outcome\n"CA,1,1.0\n' + "x" * 200_000 + "\n")
        with pytest.raises(DataValidationError, match="malformed CSV"):
            from_csv(path, target="CA", intervention_time=1)

    def test_duplicate_cell_rejected(self, tmp_path):
        path = tmp_path / "panel.csv"
        write_rows(path, [("CA", 1, 1.0), ("CA", 1, 2.0), ("CA", 2, 3.0)])
        with pytest.raises(DataValidationError, match="duplicate"):
            from_csv(path, target="CA", intervention_time=1)

    def test_prop99_sized_panel(self, tmp_path):
        # 39 donors + California over 1970-2000, program in 1988.
        path = tmp_path / "prop99.csv"
        years = range(1970, 2001)
        groups = ["California"] + [f"state_{i}" for i in range(39)]
        rows = [(g, y, 100.0 + i + 0.1 * (y - 1970)) for i, g in enumerate(groups) for y in years]
        write_rows(path, rows)
        panel = from_csv(path, target="California", intervention_time=19)
        assert panel.n_groups == 40
        assert panel.n_periods == 31
        assert panel.intervention_time == 19

    def test_population_column_round_trips(self, tmp_path):
        path = tmp_path / "panel.csv"
        write_rows(
            path,
            [("CA", 1, 1.5, 3e7), ("CA", 2, 2.5, 3e7), ("NV", 1, 4.25, 8e5), ("NV", 2, 5.5, 8e5)],
            header=("group", "time", "outcome", "population"),
        )
        panel = from_csv(path, target="CA", intervention_time=1)
        assert panel.populations == {"CA": 3e7, "NV": 8e5}

    def test_csv_round_trip_is_identity(self, tmp_path):
        rng = np.random.default_rng(3)
        panel = PanelData(
            outcomes=rng.normal(size=(3, 5)) * np.pi,
            group_labels=("a", "b", "c"),
            time_labels=(1990, 1991, 1995, 1996, 2000),
            target_index=1,
            intervention_time=3,
            populations={"a": 1.25, "b": 2.5, "c": 10.0 / 3.0},
        )
        path = tmp_path / "roundtrip.csv"
        to_csv(panel, path)
        back = from_csv(path, target="b", intervention_time=3)
        assert np.array_equal(back.outcomes, panel.outcomes)
        assert back.group_labels == panel.group_labels
        assert back.time_labels == panel.time_labels
        assert back.populations == panel.populations


HEADER = "group,time,outcome\n"
POP_HEADER = "group,time,outcome,population\n"
# The records of a 6-group x 20-period panel: what a field whose quote never closes runs over.
PANEL_ROWS = "".join(f"g{j},{t},1.0\r\n" for j in range(6) for t in range(1, 21))


def write_text(path, text):
    path.write_bytes(text.encode("utf-8"))
    return path


class TestFromCsvMessages:
    """Every rejection names its fault in full; with several faults the
    earliest line is reported."""

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("", DataValidationError, "{path}: empty file"),
            ("group,year,outcome\nCA,1,1.0\n", DataValidationError,
             "{path}: expected header 'group,time,outcome[,population]', got group,year,outcome"),
            ("group,time,outcome,population,x\nCA,1,1.0,2,3\n", DataValidationError,
             "{path}: expected header 'group,time,outcome[,population]', got group,time,outcome,population,x"),
            # A leading quote makes the rest of the file one header field; its first line is quoted.
            ('"roup,time,outcome\r\n' + PANEL_ROWS, DataValidationError,
             "{path}: expected header 'group,time,outcome[,population]', got roup,time,outcome..."),
            ("x" * 100 + "\nCA,1,1.0\n", DataValidationError,
             "{path}: expected header 'group,time,outcome[,population]', got " + "x" * 80 + "..."),
            ("group,time,outcome,weight\nCA,1,1.0,2\n", DataValidationError, "{path}: unknown fourth column 'weight'"),
            # Any other quoted field is bounded the same way.
            ('group,time,outcome,"population\r\n' + PANEL_ROWS, DataValidationError,
             "{path}: unknown fourth column 'population...'"),
            (HEADER + "CA,1,1.0\nCA,2\n", DataValidationError, "{path}: wrong field count on line 3"),
            (HEADER + "CA,1,1.0\n   \n", DataValidationError, "{path}: wrong field count on line 3"),
            (HEADER + "CA,1,1.0\nCA, 2.5 ,2.0\n", DataValidationError, "non-integer time '2.5' on line 3"),
            (HEADER + "CA,1,1.0\nCA,2, oops\n", DataValidationError, "non-numeric outcome 'oops' on line 3"),
            ('group,time,outcome\r\ng0,1,"1.0\r\n' + PANEL_ROWS, DataValidationError,
             "non-numeric outcome '1.0...' on line 2"),
            (HEADER + "CA,1,1.0\nCA,2," + "9" * 100 + "x\n", DataValidationError,
             f"non-numeric outcome '{'9' * 80}...' on line 3"),
            (HEADER + 'CA,"1\r\n2",1.0\n', DataValidationError, "non-integer time '1...' on line 2"),
            (HEADER + "CA,1,inf\n", DataValidationError, "non-finite outcome 'inf' on line 2"),
            (HEADER + "CA,1,1.0\nCA,2,nan\n", DataValidationError, "non-finite outcome 'nan' on line 3"),
            (HEADER + "CA,1,1.0\nCA, 1,2.0\n", DataValidationError, "{path}: duplicate cell (CA, 1) on line 3"),
            (POP_HEADER + "CA,1,1.0,lots\n", DataValidationError, "non-numeric population 'lots' on line 2"),
            (POP_HEADER + "CA,1,1.0,5\nCA,2,1.0,-inf\n", DataValidationError,
             "non-finite population '-inf' on line 3"),
            (POP_HEADER + "CA,1,1.0,5\nCA,2,2.0,6\n", DataValidationError,
             "{path}: conflicting population for 'CA' on line 3"),
            (HEADER + "CA,1,1.0\nCA,2,2.0\nNV,2,4.0\n", DataValidationError, "{path}: missing cell (NV, 1)"),
            (HEADER + "\n\n", DataValidationError, "{path}: no data rows"),
            (HEADER + "CA,1,1.0\nNV,1,2.0\n", UsageError, "target 'TX' not found among groups ['CA', 'NV']"),
        ],
        ids=[
            "empty-file", "bad-header", "long-header", "quoted-header", "overlong-header", "fourth-column",
            "quoted-fourth-column", "field-count", "blank-padded-row", "time", "outcome", "quoted-outcome",
            "overlong-outcome", "multiline-time", "outcome-inf", "outcome-nan", "duplicate",
            "population", "population-inf", "conflicting-population", "missing-cell", "no-rows", "unknown-target",
        ],
    )
    def test_single_fault_message(self, tmp_path, text, error, message):
        path = write_text(tmp_path / "panel.csv", text)
        target = "TX" if error is UsageError else "CA"
        with pytest.raises(error) as caught:
            from_csv(path, target=target, intervention_time=1)
        assert str(caught.value) == message.format(path=path)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("CA,1,1.0\nCA,2,oops\nCA,3\n", "non-numeric outcome 'oops' on line 3"),
            ("CA,1,1.0\nCA,1,2.0\nCA,x,3.0\n", "{path}: duplicate cell (CA, 1) on line 3"),
            ("CA,1,1.0\nCA,x,oops\n", "non-integer time 'x' on line 3"),
            ("CA,1,1.0\nNV,2,2.0\nNV,3,inf\n", "non-finite outcome 'inf' on line 4"),
            ("CA,1,1.0\nCA,2\nCA,1,2.0\n", "{path}: wrong field count on line 3"),
        ],
        ids=["outcome-then-count", "duplicate-then-time", "same-line", "row-before-missing-cell", "count-first"],
    )
    def test_first_faulty_line_is_reported(self, tmp_path, rows, message):
        path = write_text(tmp_path / "panel.csv", HEADER + rows)
        with pytest.raises(DataValidationError) as caught:
            from_csv(path, target="CA", intervention_time=1)
        assert str(caught.value) == message.format(path=path)

    def test_padded_fields_and_blank_lines(self, tmp_path):
        # Fields are stripped of whitespace (str.strip's set, \x1f included);
        # blank lines are skipped, and a blank or all-space population is absent.
        path = write_text(
            tmp_path / "panel.csv",
            " group , time , outcome , population \r\n\r\n CA , 1 , 1.5 , 3e7 \n\n"
            "CA,\t2\t,2.5,  \nNV,\x1f1\x1f,4.25,8e5\nNV,2,\x1f5.5 ,\n\n",
        )
        panel = from_csv(path, target="NV", intervention_time=1)
        assert panel.group_labels == ("CA", "NV")
        assert panel.time_labels == (1, 2)
        assert panel.outcomes.tolist() == [[1.5, 2.5], [4.25, 5.5]]
        assert panel.populations == {"CA": 3e7, "NV": 8e5}
        assert panel.target_index == 1


class TestPanelInvariants:
    def test_t0_bounds(self):
        with pytest.raises(DataValidationError, match=r"1 <= T0 < T, got T0=3, T=3"):
            PanelData(np.ones((2, 3)), ("a", "b"), (1, 2, 3), 0, intervention_time=3)
        with pytest.raises(DataValidationError, match=r"1 <= T0 < T, got T0=0, T=3"):
            PanelData(np.ones((2, 3)), ("a", "b"), (1, 2, 3), 0, intervention_time=0)

    def test_duplicate_labels(self):
        with pytest.raises(DataValidationError, match="group labels must be unique"):
            PanelData(np.ones((2, 3)), ("a", "a"), (1, 2, 3), 0, intervention_time=1)

    def test_times_strictly_increasing(self):
        with pytest.raises(DataValidationError, match="time labels must be strictly increasing"):
            PanelData(np.ones((2, 3)), ("a", "b"), (1, 3, 2), 0, intervention_time=1)

    @pytest.mark.parametrize(
        "outcomes, groups, times, target, message",
        [
            (np.ones(3), ("a",), (1, 2, 3), 0, "outcomes must be a 2-D"),
            (np.ones((0, 3)), (), (1, 2, 3), 0, "at least one group and one period"),
            (np.ones((2, 0)), ("a", "b"), (), 0, "at least one group and one period"),
            (np.ones((2, 3)), ("a",), (1, 2, 3), 0, "1 group labels for 2 rows"),
            (np.ones((2, 3)), ("a", "b"), (1, 2), 0, "2 time labels for 3 columns"),
            (np.ones((2, 3)), ("a", "b"), (1, 2, 3), 2, "target_index 2 out of range for 2 groups"),
            (np.ones((2, 3)), ("a", "b"), (1, 2, 3), -1, "target_index -1 out of range for 2 groups"),
        ],
    )
    def test_shape_and_labels(self, outcomes, groups, times, target, message):
        with pytest.raises(DataValidationError, match=message):
            PanelData(outcomes, groups, times, target, intervention_time=1)

    def test_selection_keeps_target(self, toy_panel):
        with pytest.raises(UsageError, match="selection must include the target 'tgt'"):
            select_groups(toy_panel, ["d1", "d2"])

    @pytest.mark.parametrize(
        "values, labels, message",
        [
            (np.ones(2), ("u",), "covariate values must be a 2-D"),
            (np.ones((2, 2)), ("u",), "1 covariate labels for 2 columns"),
        ],
    )
    def test_aux_matrix_shape(self, values, labels, message):
        with pytest.raises(DataValidationError, match=message):
            AuxMatrix(values, labels)

    def test_non_finite_rejected(self):
        bad = np.ones((2, 3))
        bad[1, 1] = np.nan
        with pytest.raises(DataValidationError):
            PanelData(bad, ("a", "b"), (1, 2, 3), 0, intervention_time=1)

    def test_outcomes_immutable(self, toy_panel):
        with pytest.raises(ValueError):
            toy_panel.outcomes[0, 0] = 99.0


# Each record, fields that make it valid, and each number it holds with the quantity its refusal names.
RECORDS = [
    (PanelData, dict(outcomes=np.ones((2, 3)), group_labels=("a", "b"), time_labels=(1, 2, 3), target_index=0,
                     intervention_time=1), {"outcomes": "the outcome matrix"}),
    (AuxMatrix, dict(values=np.ones((2, 1)), covariate_labels=("u",)), {"values": "the covariate matrix"}),
    (SimulatedStudy, dict(panel=PanelData(np.ones((2, 3)), ("a", "b"), (1, 2, 3), 0, intervention_time=1),
                          compositions=np.full((2, 2), 0.5), functions=np.ones((2, 3)), true_S=frozenset(),
                          aux_suitable=AuxMatrix(np.ones((2, 1)), ("u",)),
                          aux_unsuitable=AuxMatrix(np.ones((2, 1)), ("u",)),
                          config=SimConfig(S_cardinality=0, T=3, T0=1, seed=0, K=2, num_donors=1)),
     {"compositions": "the composition matrix", "functions": "the conditional-mean table"}),
    (EffectEstimate, dict(synthetic=np.ones(3), gap=np.zeros(3)),
     {"synthetic": "the synthetic series", "gap": "the gap series"}),
    (WeightVector, dict(donor_indices=(1,), beta=np.ones(1), objective_value=0.5, converged=True,
                        objective_trace=(0.5,), kkt_residual=0.0),
     {"beta": "the donor weights", "objective_value": "the fit's objective value",
      "kkt_residual": "the KKT residual"}),
    (SplitEvaluation, dict(observed_mse=1.0, counterfactual_mse=2.0, n_fit=3, underdetermined=False),
     {"observed_mse": "the observed MSE", "counterfactual_mse": "the counterfactual MSE"}),
    (SweepPoint, dict(knob=4, observed_mse=1.0, counterfactual_mse=2.0, se_observed=0.1, se_counterfactual=0.2,
                      replications=2),
     {name: f"{name} at knob 4"
      for name in ("observed_mse", "counterfactual_mse", "se_observed", "se_counterfactual")}),
    (OracleWeights, dict(donor_indices=(1, 2), beta=np.array([0.5, 0.5]), residual_norm=0.0, exists=True),
     {"beta": "the oracle weights"}),
    (InvariantSetReport, dict(S_indices=(0,), S_cardinality=1, donor_count=2, a3_holds=True, a4_holds=True,
                              per_category_max_gap=np.array([0.2, 0.0])),
     {"per_category_max_gap": "the category gaps"}),
]


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf, "ragged", "text"], ids=["nan", "inf", "-inf", "ragged", "text"]
)
@pytest.mark.parametrize(
    "record, fields, name, quantity",
    [pytest.param(record, fields, name, quantity, id=f"{record.__name__}.{name}")
     for record, fields, quantities in RECORDS for name, quantity in quantities.items()],
)
def test_records_refuse_non_finite_numbers(record, fields, name, quantity, bad):
    """frozen_array is every record's one rule for its numbers: one non-finite entry is refused, and so are
    ragged rows and text, naming the quantity."""
    record(**fields)
    value = np.array(fields[name], dtype=float)
    if bad == "ragged":
        value, problem = [[1.0, 2.0], [3.0]], "is not a rectangular array of numbers"
    elif bad == "text":
        value, problem = "a lot", "is not a rectangular array of numbers"
    else:
        value.flat[-1], problem = bad, "is not finite"
        value = value if value.ndim else float(value)
    with pytest.raises(DataValidationError) as caught:
        record(**{**fields, name: value})
    assert str(caught.value) == f"{quantity} {problem}"


class TestAggregation:
    def test_population_weighted_mean(self):
        panel = PanelData(
            np.array([[50.0, 60.0], [100.0, 110.0], [120.0, 130.0]]),
            ("CA", "NV", "UT"),
            (1, 2),
            0,
            intervention_time=1,
            populations={"CA": 3e7, "NV": 10e6, "UT": 0.8e6},
        )
        out = aggregate_groups(panel, {"CA": "CA", "NV": "West", "UT": "West"})
        expected = (10e6 * 100.0 + 0.8e6 * 120.0) / 10.8e6
        assert out.group_labels == ("CA", "West")
        assert out.outcomes[1, 0] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(101.48148148148148)

    def test_singleton_passthrough_exact(self, toy_panel):
        grouping = {g: g for g in toy_panel.group_labels}
        out = aggregate_groups(toy_panel, grouping)
        assert np.array_equal(out.outcomes, toy_panel.outcomes)
        assert out.target_label == toy_panel.target_label

    def test_commutes_with_time_average(self):
        rng = np.random.default_rng(8)
        panel = PanelData(
            rng.normal(size=(4, 6)),
            ("t", "a", "b", "c"),
            tuple(range(6)),
            0,
            intervention_time=3,
            populations={"t": 1.0, "a": 2.0, "b": 3.0, "c": 5.0},
        )
        grouping = {"t": "t", "a": "x", "b": "x", "c": "y"}
        agg = aggregate_groups(panel, grouping)
        # Averaging over time then aggregating must equal the reverse order.
        x_direct = (2.0 * panel.outcomes[1].mean() + 3.0 * panel.outcomes[2].mean()) / 5.0
        assert agg.outcomes[agg.group_index("x")].mean() == pytest.approx(x_direct, abs=1e-12)

    def test_missing_group_in_map(self, toy_panel):
        panel = replace(toy_panel, populations={"d1": 1.0, "d2": 1.0})
        with pytest.raises(DataValidationError, match="d3"):
            aggregate_groups(panel, {"tgt": "tgt", "d1": "x", "d2": "x"})

    def test_missing_population(self, toy_panel):
        grouping = {"tgt": "tgt", "d1": "x", "d2": "x", "d3": "x"}
        with pytest.raises(DataValidationError, match="population"):
            aggregate_groups(replace(toy_panel, populations={"d1": 1.0}), grouping)

    def test_nonpositive_population(self, toy_panel):
        grouping = {"tgt": "tgt", "d1": "x", "d2": "x", "d3": "x"}
        pops = {"d1": 1.0, "d2": 0.0, "d3": 1.0}
        with pytest.raises(DataValidationError, match="positive"):
            aggregate_groups(replace(toy_panel, populations=pops), grouping)

    def test_overflowing_total_population(self, toy_panel):
        # Each population is finite, but their sum is not.
        grouping = {"tgt": "tgt", "d1": "x", "d2": "x", "d3": "y"}
        pops = {"d1": 1e308, "d2": 1e308, "d3": 1.0}
        with pytest.raises(DataValidationError) as caught:
            aggregate_groups(replace(toy_panel, populations=pops), grouping)
        assert str(caught.value) == "total population of super-group 'x' is not finite"

    def test_census_divisions_drop_pacific(self):
        # Full 50-state + DC panel; excluded states removed, CA kept as target.
        with resources.files("synthpanel").joinpath("data/census_divisions.json").open() as fh:
            census = json.load(fh)
        divisions, excluded = census["divisions"], census["excluded"]
        assert len(divisions) == 51
        assert len(excluded) == 11
        states = sorted(divisions)
        panel = PanelData(
            np.arange(len(states) * 2, dtype=float).reshape(len(states), 2),
            tuple(states),
            (1, 2),
            states.index("California"),
            intervention_time=1,
            populations={s: float(i + 1) for i, s in enumerate(states)},
        )
        keep = [s for s in states if s == "California" or s not in excluded]
        assert len(keep) == 40  # California + 39 donors
        sub = select_groups(panel, keep)
        grouping = dict(divisions)
        grouping["California"] = "California"
        agg = aggregate_groups(sub, grouping)
        assert agg.n_groups == 9  # California + 8 divisions
        assert "Pacific" not in agg.group_labels
        assert set(agg.group_labels) - {"California"} == {
            "New England", "Mid-Atlantic", "East North Central", "West North Central",
            "South Atlantic", "East South Central", "West South Central", "Mountain",
        }


class TestAggregateDivisions:
    @staticmethod
    def states_csv(path):
        pops = {"CA": 3e7, "NV": 1e7, "UT": 8e5, "AZ": 7e6}
        write_rows(path, [(g, t, 100.0 * (i + 1) + t, pops[g]) for i, g in enumerate(pops) for t in (1, 2)],
                   header=("group", "time", "outcome", "population"))
        return from_csv(path, target="CA", intervention_time=1)

    @staticmethod
    def grouping(path, document):
        path.write_text(json.dumps(document))
        return path

    def test_census_map_matches_the_cli(self, tmp_path):
        # The census-shaped panel of test_cli's TestAggregate::test_default_census_grouping.
        with resources.files("synthpanel").joinpath("data/census_divisions.json").open() as fh:
            states = sorted(json.load(fh)["divisions"])
        path = tmp_path / "states.csv"
        write_rows(path, [(g, t, 100.0 + hash(g) % 7, 1.0 + i) for i, g in enumerate(states) for t in (1988, 1989)],
                   header=("group", "time", "outcome", "population"))
        out = tmp_path / "agg"
        assert main(["aggregate", "--panel", str(path), "--target", "California", "--t0", "1",
                     "--out", str(out), "--quiet"]) == 0
        to_csv(aggregate_divisions(from_csv(path, target="California", intervention_time=1)), tmp_path / "lib.csv")
        assert (tmp_path / "lib.csv").read_bytes() == (out / "aggregated.csv").read_bytes()

    def test_bare_map_keeps_the_target_alone(self, tmp_path):
        panel = self.states_csv(tmp_path / "states.csv")
        path = self.grouping(tmp_path / "g.json", {"NV": "West", "UT": "West", "AZ": "AZ"})
        merged = aggregate_divisions(panel, path)
        assert merged.group_labels == ("CA", "West", "AZ")
        assert merged.target_label == "CA"
        assert np.array_equal(merged.outcomes[[0, 2]], panel.outcomes[[0, 3]])
        assert merged.outcomes[1, 0] == pytest.approx((1e7 * 201.0 + 8e5 * 301.0) / 1.08e7, abs=1e-12)

    def test_excluded_donors_are_dropped_but_not_the_target(self, tmp_path):
        panel = self.states_csv(tmp_path / "states.csv")
        document = {"divisions": {"NV": "West", "UT": "West", "AZ": "West"}, "excluded": ["AZ", "CA"]}
        merged = aggregate_divisions(panel, self.grouping(tmp_path / "g.json", document))
        assert merged.group_labels == ("CA", "West")
        assert merged.populations == {"CA": 3e7, "West": 1.08e7}

    def test_donor_mapped_to_the_target_label(self, tmp_path):
        panel = self.states_csv(tmp_path / "states.csv")
        path = self.grouping(tmp_path / "g.json", {"divisions": {"NV": "CA", "UT": "West", "AZ": "West"}})
        with pytest.raises(DataValidationError) as caught:
            aggregate_divisions(panel, path)
        assert str(caught.value) == "group 'NV' is mapped to 'CA', the target's label"
        # An excluded donor is dropped before the check.
        path = self.grouping(tmp_path / "g.json", {"divisions": {"NV": "CA", "UT": "West", "AZ": "West"},
                                                   "excluded": ["NV"]})
        assert aggregate_divisions(panel, path).group_labels == ("CA", "West")

    @pytest.mark.parametrize("document", [[["a", "b"]], "CA", None])
    def test_non_object_document_names_the_grouping(self, tmp_path, document):
        panel = self.states_csv(tmp_path / "states.csv")
        path = self.grouping(tmp_path / "g.json", document)
        with pytest.raises(DataValidationError) as caught:
            aggregate_divisions(panel, path)
        assert str(caught.value) == f"{path}: grouping must be a JSON object"


class TestStandardize:
    def test_basic_row(self):
        z = standardize_rows([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]], ("u", "v"))
        assert np.allclose(z, [[-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]])

    def test_constant_row(self):
        z = standardize_rows([[5.0, 5.0, 5.0]], ("u",))
        assert np.array_equal(z, [[0.0, 0.0, 0.0]])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_row_whose_variance_overflows_is_refused(self):
        with pytest.raises(DataValidationError, match="^covariate 'wide' is too large to standardize"):
            standardize_rows([[1.0, 2.0, 3.0], [1e200, -1e200, 0.0]], ("u", "wide"))


class TestAuxCsv:
    def test_round_trip_reorders_rows(self, tmp_path):
        aux = AuxMatrix(values=np.array([[1.5, 2.5], [3.0, 4.0]]), covariate_labels=("u", "v"))
        path = tmp_path / "aux.csv"
        aux_to_csv(aux, ["g1", "g2"], path)
        back = aux_from_csv(path, ["g2", "g1"])
        assert np.array_equal(back.values, aux.values[::-1])
        assert back.covariate_labels == ("u", "v")

    def test_missing_group(self, tmp_path):
        aux = AuxMatrix(values=np.array([[1.0]]), covariate_labels=("u",))
        path = tmp_path / "aux.csv"
        aux_to_csv(aux, ["g1"], path)
        with pytest.raises(DataValidationError, match="g9"):
            aux_from_csv(path, ["g1", "g9"])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "{path}: empty file"),
            ("grp,u\ng1,1\n", "{path}: first column must be 'group'"),
            ("group,u\ng1,1\ng2\n", "{path}: wrong field count on line 3"),
            ("group,u\ng1,1\n\ng1,2\n", "{path}: duplicate covariate row for 'g1' on line 4"),
            ("group,u\ng1, x \n", "non-numeric covariate 'x' on line 2"),
            ("group,u,v\ng1,1,nan\n", "non-finite covariate 'nan' on line 2"),
            ('group,u,v\r\ng1,1.0,"2.0\r\n' + "".join(f"g{j},{j}.5,{j}.25\r\n" for j in range(2, 40)),
             "non-numeric covariate '2.0...' on line 2"),
            ("group,u\ng1,x\ng1,2\n", "non-numeric covariate 'x' on line 2"),
            ("group,u\ng1, 1 \n", "{path}: missing covariate rows for ['g2']"),
            ("group,u\ng1,\x1f1.5\n", "{path}: missing covariate rows for ['g2']"),
            (" group,u\ng1,1\n", "{path}: missing covariate rows for ['g2']"),
            ("group,u\n g1,1\n", "{path}: missing covariate rows for ['g2']"),
        ],
        ids=["empty-file", "header", "field-count", "duplicate", "non-numeric", "non-finite", "quoted", "first-line",
             "missing-row", "control-padded-value", "padded-header", "padded-label"],
    )
    def test_messages(self, tmp_path, text, message):
        path = write_text(tmp_path / "aux.csv", text)
        with pytest.raises(DataValidationError) as caught:
            aux_from_csv(path, ["g1", "g2"])
        assert str(caught.value) == message.format(path=path)


def test_only_panel_touches_files():
    """panel owns every file format: no other module imports csv or json, or calls open."""
    offenders = []
    for path in sorted(Path(synthpanel.__file__).parent.glob("*.py")):
        if path.name == "panel.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                modules = []
            offenders += [f"{path.name}: import {m}" for m in modules if m.split(".")[0] in ("csv", "json")]
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
                offenders.append(f"{path.name}:{node.lineno}: open()")
    assert offenders == []


def test_package_exports_each_modules_all():
    """The package's public names are exactly the union of its modules' ``__all__``, each the module's own
    object, re-exported by star imports alone: no module's name is dropped and no second list is kept."""
    declared = {}
    for info in pkgutil.iter_modules(synthpanel.__path__):
        module = importlib.import_module(f"synthpanel.{info.name}")
        declared |= {name: getattr(module, name) for name in getattr(module, "__all__", ())}
    public = {
        name: value
        for name, value in vars(synthpanel).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public) == sorted(declared)
    assert [name for name in declared if public[name] is not declared[name]] == []
    tree = ast.parse(Path(synthpanel.__file__).read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert set(imported) == {"*"}
    assert "__all__" not in vars(synthpanel)


# Float64 values whose text is easy to get wrong: signed zeros, the smallest subnormal, another subnormal,
# a small and a large value that repr writes in exponent form, and the largest finite floats.
FLOAT_EDGES = [0.0, -0.0, 5e-324, -2.2250738585072e-310, 1e-05, 1e16, np.finfo(np.float64).max.item(),
               -np.finfo(np.float64).max.item()]
float64_from_bits = st.integers(0, 2**64 - 1).map(lambda bits: np.uint64(bits).view(np.float64).item())


def float_bits(values) -> list[int]:
    return np.array(values, dtype=np.float64).view(np.uint64).tolist()


@settings(max_examples=40, deadline=None)
@given(st.lists(float64_from_bits.filter(math.isfinite), min_size=1, max_size=6))
@example(FLOAT_EDGES)
def test_csv_writers_write_floats_as_repr(values):
    """to_csv, aux_to_csv, write_sweep_csv and fit's series.csv write each float as ``repr(float(x))``, and the
    package's readers read it back bit-exact."""
    texts = [repr(v) for v in values]
    periods = range(1, len(values) + 2)
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        # The target holds the values after one ordinary pre-period; its one donor is all zeros, so a
        # simplex fit gives it weight 1, the synthetic series is 0.0 and the gap equals the outcome.
        panel = PanelData(np.array([[1.0, *values], [0.0] * len(periods)]), ("tgt", "d"), periods, 0, 1,
                          populations={"tgt": values[0], "d": values[-1]})
        to_csv(panel, scratch / "panel.csv")
        with open(scratch / "panel.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[2] for row in rows[1:len(periods)]] == texts
        assert [rows[0][3], rows[-1][3]] == [texts[0], texts[-1]]
        back = from_csv(scratch / "panel.csv", target="tgt", intervention_time=1)
        assert float_bits(back.outcomes) == float_bits(panel.outcomes)
        assert float_bits(list(back.populations.values())) == float_bits([values[0], values[-1]])

        aux = AuxMatrix(np.array([values, values[::-1]]), tuple(f"c{i}" for i in range(len(values))))
        aux_to_csv(aux, ["tgt", "d"], scratch / "aux.csv")
        with open(scratch / "aux.csv", newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh))[1][1:] == texts
        assert float_bits(aux_from_csv(scratch / "aux.csv", ["tgt", "d"]).values) == float_bits(aux.values)

        points = tuple(SweepPoint(k, v, -v, abs(v), v, 2) for k, v in enumerate(values))
        write_sweep_csv(SweepResult("S", points), scratch / "sweep.csv")
        with open(scratch / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows == [[str(k), repr(v), repr(-v), repr(abs(v)), repr(v), "2"] for k, v in enumerate(values)]
        assert float_bits([float(row[1]) for row in rows]) == float_bits(values)

        assert main(["fit", "--panel", str(scratch / "panel.csv"), "--target", "tgt", "--t0", "1",
                     "--out", str(scratch / "fit"), "--quiet"]) == 0
        with open(scratch / "fit" / "series.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[2:]
        assert rows == [[str(t), x, "0.0", x] for t, x in zip(periods[1:], texts)]
        assert float_bits([float(row[3]) for row in rows]) == float_bits(values)
