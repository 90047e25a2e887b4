"""Correctness checks applied to every op's outputs.

Each check returns a list of problems; an op with any problem counts as
failed. The checks read only result objects and output bytes, so they
carry no dependency on synthpanel itself.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Iterable, Mapping, Sequence

SIMPLEX_NEGATIVE_TOL = 1e-12
SIMPLEX_SUM_TOL = 1e-9


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def sweep_problems(results: Iterable, knobs: Sequence, replications: int) -> list[str]:
    """A SweepResult must carry the requested knobs, finite MSE and SE, and R replications."""
    problems = []
    for result in results:
        got = tuple(p.knob for p in result.points)
        if got != tuple(knobs):
            problems.append(f"{result.knob_name} sweep returned knobs {got}, expected {tuple(knobs)}")
        for p in result.points:
            for field in ("observed_mse", "counterfactual_mse", "se_observed", "se_counterfactual"):
                if not _finite(getattr(p, field)):
                    problems.append(f"{result.knob_name}={p.knob}: non-finite {field}")
            if p.replications != replications:
                problems.append(
                    f"{result.knob_name}={p.knob}: {p.replications} replications, expected {replications}"
                )
    return problems


def csv_problems(name: str, data: bytes, numeric_from: int = 1) -> list[str]:
    """Every field from column ``numeric_from`` on must parse as a finite number."""
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if len(rows) < 2:
        return [f"{name}: no data rows"]
    problems = []
    for line_no, row in enumerate(rows[1:], start=2):
        for text in row[numeric_from:]:
            if text == "":
                continue
            try:
                value = float(text)
            except ValueError:
                problems.append(f"{name}: non-numeric {text!r} on line {line_no}")
                continue
            if not math.isfinite(value):
                problems.append(f"{name}: non-finite {text!r} on line {line_no}")
    return problems


def weights_problems(name: str, data: bytes, simplex: bool) -> list[str]:
    """weights.json must hold finite weights; simplex fits must sit on the simplex."""
    document = json.loads(data)
    beta = document.get("beta", [])
    problems = []
    if not beta or not all(_finite(b) for b in beta):
        problems.append(f"{name}: missing or non-finite weights")
    if not _finite(document.get("objective_value")):
        problems.append(f"{name}: non-finite objective_value")
    if simplex and not problems:
        if min(beta) < -SIMPLEX_NEGATIVE_TOL or abs(math.fsum(beta) - 1.0) > SIMPLEX_SUM_TOL:
            problems.append(f"{name}: weights off the simplex (min {min(beta)!r}, sum {math.fsum(beta)!r})")
    return problems


def cli_problems(
    exit_codes: Mapping[str, int],
    files: Mapping[str, bytes],
    simplex_fits: Iterable[str],
    expect_verified: bool,
) -> list[str]:
    """Checks on one pass of CLI commands.

    ``exit_codes`` maps a command's output directory to its exit code;
    ``files`` maps "<dir>/<file>" to the bytes written there.
    """
    problems = [f"{step}: exit code {code}" for step, code in exit_codes.items() if code != 0]
    simplex_fits = set(simplex_fits)
    for path, data in files.items():
        step, _, filename = path.rpartition("/")
        if filename == "weights.json":
            problems += weights_problems(path, data, simplex=step in simplex_fits)
        elif filename == "series.csv":
            problems += csv_problems(path, data, numeric_from=1)
        elif filename == "aggregated.csv":
            problems += csv_problems(path, data, numeric_from=2)
        elif filename == "diagnosis.json" and expect_verified:
            if json.loads(data).get("verified") is not True:
                problems.append(f"{path}: verified is not true although |S| <= donors")
    return problems


class Tally:
    """Attempted and failed op counts, with the first few failure messages."""

    KEEP = 5

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, op: int, problems: Sequence[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < self.KEEP:
                self.messages.append(f"op {op}: " + "; ".join(problems))

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
