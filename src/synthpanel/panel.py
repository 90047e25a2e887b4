"""Panel-data model: validation, file formats, and group aggregation.

The canonical object is :class:`PanelData`, a complete J x T matrix of
group-level outcomes with a designated target group and a count of
pre-intervention periods. All types are immutable after construction and
all operations are pure. This module also opens every file the package
reads or writes; other modules only build the records.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DataValidationError, UsageError

__all__ = [
    "PanelData",
    "AuxMatrix",
    "from_csv",
    "to_csv",
    "aux_from_csv",
    "aggregate_groups",
    "select_groups",
    "aggregate_divisions",
]

CENSUS_DIVISIONS = Path(__file__).parent / "data" / "census_divisions.json"


def frozen_array(values, what: str) -> np.ndarray:
    """A read-only float copy of ``values``: how every record of the package holds its numbers,
    and the package's one finiteness rule: a NaN or infinity raises DataValidationError naming ``what``."""
    arr = np.array(values, dtype=float)
    if not np.isfinite(arr).all():
        raise DataValidationError(f"{what} is not finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PanelData:
    """Observed group-level outcomes for J groups over T ordered periods.

    ``outcomes[j, t]`` is the outcome of group ``j`` at the t-th period.
    ``intervention_time`` counts the pre-intervention periods, so periods
    with index ``< intervention_time`` are "pre" and the rest are "post".
    ``populations`` is an optional side table used only by aggregation.
    """

    outcomes: np.ndarray
    group_labels: tuple[str, ...]
    time_labels: tuple[int, ...]
    target_index: int
    intervention_time: int
    populations: Mapping[str, float] | None = field(default=None)

    def __post_init__(self):
        outcomes = frozen_array(self.outcomes, "the outcome matrix")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "group_labels", tuple(self.group_labels))
        object.__setattr__(self, "time_labels", tuple(int(t) for t in self.time_labels))
        if self.populations is not None:
            object.__setattr__(
                self, "populations", dict((k, float(v)) for k, v in self.populations.items())
            )
        if outcomes.ndim != 2:
            raise DataValidationError("outcomes must be a 2-D (group x time) matrix")
        j, t = outcomes.shape
        if j == 0 or t == 0:
            raise DataValidationError("panel must contain at least one group and one period")
        if len(self.group_labels) != j:
            raise DataValidationError(f"{len(self.group_labels)} group labels for {j} rows")
        if len(self.time_labels) != t:
            raise DataValidationError(f"{len(self.time_labels)} time labels for {t} columns")
        if len(set(self.group_labels)) != j:
            raise DataValidationError("group labels must be unique")
        if any(b <= a for a, b in zip(self.time_labels, self.time_labels[1:])):
            raise DataValidationError("time labels must be strictly increasing")
        if not 0 <= self.target_index < j:
            raise DataValidationError(f"target_index {self.target_index} out of range for {j} groups")
        if not 1 <= self.intervention_time < t:
            raise DataValidationError(
                f"intervention_time must satisfy 1 <= T0 < T, got T0={self.intervention_time}, T={t}"
            )

    @property
    def n_groups(self) -> int:
        return self.outcomes.shape[0]

    @property
    def n_periods(self) -> int:
        return self.outcomes.shape[1]

    @property
    def target_label(self) -> str:
        return self.group_labels[self.target_index]

    def group_index(self, label: str) -> int:
        try:
            return self.group_labels.index(label)
        except ValueError:
            raise UsageError(f"unknown group label {label!r}") from None

    def donor_indices(self) -> tuple[int, ...]:
        """All group indices except the target, in panel order."""
        return tuple(j for j in range(self.n_groups) if j != self.target_index)


def check_donors(donors: Sequence[int], target: int, n_groups: int) -> list[int]:
    """The donor indices as ints, once they are known to be a valid donor set.

    Valid: nonempty, distinct, each in ``0..n_groups-1`` and none equal to
    the target, which must itself be in range.
    """
    donors = [int(j) for j in donors]
    if not donors:
        raise UsageError("donor set must not be empty")
    if len(set(donors)) != len(donors):
        raise UsageError("donor indices must be distinct")
    for j in [target, *donors]:
        if not 0 <= j < n_groups:
            raise UsageError(f"group index {j} out of range for {n_groups} groups")
    if target in donors:
        raise UsageError("the target cannot be its own donor")
    return donors


@dataclass(frozen=True, eq=False)
class AuxMatrix:
    """Group-level auxiliary covariates, row-aligned with a panel's groups."""

    values: np.ndarray
    covariate_labels: tuple[str, ...]

    def __post_init__(self):
        values = frozen_array(self.values, "the covariate matrix")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "covariate_labels", tuple(self.covariate_labels))
        if values.ndim != 2:
            raise DataValidationError("covariate values must be a 2-D (group x covariate) matrix")
        if values.shape[1] != len(self.covariate_labels):
            raise DataValidationError(
                f"{len(self.covariate_labels)} covariate labels for {values.shape[1]} columns"
            )


def _shown(field: str) -> str:
    """An input field as messages quote it: to its first line break, at most 80 characters, "..." where
    cut. A quote that opens a field and is never closed runs the field to the end of the file."""
    shown = (field.splitlines() or [""])[0][:80]
    return shown if shown == field else shown + "..."


def _parse_float(text: str, line_no: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataValidationError(f"non-numeric {column} {_shown(text)!r} on line {line_no}") from None
    if not math.isfinite(value):
        raise DataValidationError(f"non-finite {column} {_shown(text)!r} on line {line_no}")
    return value


def _parse_int(text: str, line_no: int, column: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DataValidationError(f"non-integer {column} {_shown(text)!r} on line {line_no}") from None


def read_text(path) -> str:
    """The whole of a UTF-8 text file, line endings untranslated: the one place input files are opened.

    A leading byte-order mark, as spreadsheet programs write, is dropped.
    A missing file raises FileNotFoundError; any other failure to open or
    decode it raises DataValidationError naming the file."""
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8").removeprefix("\ufeff")
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise DataValidationError(f"{path}: cannot read ({exc.strerror or exc})") from None
    except UnicodeDecodeError as exc:
        raise DataValidationError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def read_json(path):
    """The JSON document in a file; invalid JSON raises DataValidationError."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataValidationError(f"{path}: invalid JSON ({exc})") from None


def _csv_rows(path) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """The stripped header of a CSV file, parsed whole as from a file opened with newline="",
    and a lazy iterator of its other (line number, record) pairs that skips blank records and
    raises on reaching one whose field count is not the header's."""
    try:
        rows = list(csv.reader(io.StringIO(read_text(path), newline="")))
    except csv.Error as exc:
        raise DataValidationError(f"{path}: malformed CSV ({exc})") from None
    if not rows:
        raise DataValidationError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]

    def records():
        width = len(header)
        for line_no, row in enumerate(rows[1:], start=2):
            if len(row) != width:
                if not row:
                    continue
                raise DataValidationError(f"{path}: wrong field count on line {line_no}")
            yield line_no, row

    return header, records()


def from_csv(path, target: str, intervention_time: int) -> PanelData:
    """Read a long-format panel CSV into a validated :class:`PanelData`.

    Schema (header required): ``group,time,outcome`` with an optional
    fourth ``population`` column. Every (group, time) cell must be present
    exactly once; rows may arrive in any order. Group order in the result
    follows first appearance in the file; periods are sorted. An unknown
    ``target`` or an ``intervention_time`` outside ``1..T-1`` is a UsageError.
    """
    header, records = _csv_rows(path)
    if header[:3] != ["group", "time", "outcome"] or len(header) > 4:
        raise DataValidationError(
            f"{path}: expected header 'group,time,outcome[,population]', got {_shown(','.join(header))}"
        )
    has_population = len(header) == 4 and header[3] == "population"
    if len(header) == 4 and not has_population:
        raise DataValidationError(f"{path}: unknown fourth column {_shown(header[3])!r}")

    # One pass over the records. A number is parsed as it stands and, only if
    # that fails, again from its stripped text, which either succeeds
    # (str.strip also removes \x1c-\x1f, which int and float do not skip) or
    # raises quoting that text. Each line is checked in full before the next,
    # so the first faulty line is the one reported.
    isfinite = math.isfinite
    series: dict[str, dict[int, float]] = {}  # group -> time -> outcome, groups in file order
    times: set[int] = set()
    populations: dict[str, float] = {}
    for line_no, row in records:
        group = row[0].strip()
        try:
            time = int(row[1])
        except ValueError:
            time = _parse_int(row[1].strip(), line_no, "time")
        try:
            outcome = float(row[2])
        except ValueError:
            outcome = math.nan
        if not isfinite(outcome):
            outcome = _parse_float(row[2].strip(), line_no, "outcome")
        cells = series.get(group)
        if cells is None:
            cells = series[group] = {}
        elif time in cells:
            raise DataValidationError(f"{path}: duplicate cell ({group}, {time}) on line {line_no}")
        cells[time] = outcome
        times.add(time)
        if has_population and (text := row[3].strip()):
            pop = _parse_float(text, line_no, "population")
            if populations.get(group, pop) != pop:
                raise DataValidationError(f"{path}: conflicting population for {group!r} on line {line_no}")
            populations[group] = pop

    if not series:
        raise DataValidationError(f"{path}: no data rows")
    time_labels = sorted(times)
    # The cells are distinct, so the grid is complete exactly when it has groups x periods of them.
    if sum(map(len, series.values())) != len(series) * len(time_labels):
        for group, cells in series.items():
            for time in time_labels:
                if time not in cells:
                    raise DataValidationError(f"{path}: missing cell ({group}, {time})")
    groups = tuple(series)
    if target not in series:
        raise UsageError(f"target {target!r} not found among groups {list(groups)}")
    if not 1 <= intervention_time < len(time_labels):
        raise UsageError(
            f"intervention_time must satisfy 1 <= T0 < T, got T0={intervention_time}, T={len(time_labels)}"
        )

    return PanelData(
        outcomes=np.array([[cells[t] for t in time_labels] for cells in series.values()]),
        group_labels=groups,
        time_labels=tuple(time_labels),
        target_index=groups.index(target),
        intervention_time=int(intervention_time),
        populations=populations if populations else None,
    )


def format_float(value: float) -> str:
    """Canonical (shortest round-trip) decimal form of a float."""
    return repr(float(value))


def _jsonable(value):
    """JSON form of the values json cannot encode: dataclasses and numpy data."""
    if is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_json(payload, path) -> None:
    """Canonical JSON file: sorted keys, indent 2, UTF-8 text, trailing newline.
    Dataclasses are written as objects of their fields, numpy data as lists and numbers."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, ensure_ascii=False, default=_jsonable)
        fh.write("\n")


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Canonical CSV file: UTF-8, comma-separated, CRLF row ends, every field written as given
    (callers format floats with :func:`format_float`)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def to_csv(panel: PanelData, path) -> None:
    """Write a panel back out in the long-format CSV schema."""
    populations = panel.populations

    def rows():
        for group, outcomes in zip(panel.group_labels, panel.outcomes):
            pop = [] if populations is None else [format_float(populations[group]) if group in populations else ""]
            for time, outcome in zip(panel.time_labels, outcomes):
                yield [group, str(time), format_float(outcome), *pop]

    write_csv(path, ["group", "time", "outcome"] + ([] if populations is None else ["population"]), rows())


def aux_to_csv(aux: AuxMatrix, group_labels: Sequence[str], path) -> None:
    """Write covariates as `group,<label>,...` with one row per group."""
    write_csv(
        path,
        ["group", *aux.covariate_labels],
        ([label, *map(format_float, aux.values[j])] for j, label in enumerate(group_labels)),
    )


def aux_from_csv(path, group_labels: Sequence[str]) -> AuxMatrix:
    """Read a covariate CSV, one row per group, reordering rows to match ``group_labels``.

    Header fields, group labels and numbers are read as in :func:`from_csv`."""
    header, records = _csv_rows(path)
    if not header or header[0] != "group":
        raise DataValidationError(f"{path}: first column must be 'group'")
    rows = {}
    for line_no, row in records:
        group = row[0].strip()
        if group in rows:
            raise DataValidationError(f"{path}: duplicate covariate row for {group!r} on line {line_no}")
        try:
            values = [float(v) for v in row[1:]]
        except ValueError:
            values = [math.nan]
        if not all(map(math.isfinite, values)):
            values = [_parse_float(v.strip(), line_no, "covariate") for v in row[1:]]
        rows[group] = values
    missing = [g for g in group_labels if g not in rows]
    if missing:
        raise DataValidationError(f"{path}: missing covariate rows for {missing}")
    return AuxMatrix(
        values=np.array([rows[g] for g in group_labels]),
        covariate_labels=tuple(header[1:]),
    )


def aggregate_groups(panel: PanelData, grouping: Mapping[str, str]) -> PanelData:
    """Merge groups into population-weighted super-groups.

    Each super-group outcome at time t is the population-weighted mean of
    its members' outcomes, weighted by the panel's ``populations``. A
    group mapped alone passes through unchanged (no weighting applied), so
    an identity map is exact; populations are only consulted for
    super-groups with more than one member. Super-group order follows the
    first appearance of a member in the panel. A group missing from the map,
    or a merged member without a positive population, is a DataValidationError.
    """
    populations = panel.populations or {}
    members: dict[str, list[int]] = {}
    for j, group in enumerate(panel.group_labels):
        if group not in grouping:
            raise DataValidationError(f"group {group!r} missing from the grouping map")
        members.setdefault(grouping[group], []).append(j)

    rows = []
    new_populations: dict[str, float] = {}
    for super_group, idx in members.items():
        if len(idx) == 1:
            rows.append(panel.outcomes[idx[0]])
            label = panel.group_labels[idx[0]]
            if label in populations:
                new_populations[super_group] = populations[label]
            continue
        weights = []
        for j in idx:
            label = panel.group_labels[j]
            if label not in populations:
                raise DataValidationError(f"no population given for group {label!r}")
            pop = populations[label]
            if pop <= 0:
                raise DataValidationError(f"population for {label!r} must be positive, got {pop}")
            weights.append(pop)
        total = sum(weights)
        if not math.isfinite(total):
            raise DataValidationError(f"total population of super-group {super_group!r} is not finite")
        weights = np.array(weights) / total
        rows.append(weights @ panel.outcomes[idx])
        new_populations[super_group] = total

    labels = tuple(members)
    return PanelData(
        outcomes=np.array(rows),
        group_labels=labels,
        time_labels=panel.time_labels,
        target_index=labels.index(grouping[panel.target_label]),
        intervention_time=panel.intervention_time,
        populations=new_populations or None,
    )


def select_groups(panel: PanelData, labels: Sequence[str]) -> PanelData:
    """Restrict a panel to the given groups (target must be kept)."""
    keep = [panel.group_index(label) for label in labels]
    if panel.target_index not in keep:
        raise UsageError(f"selection must include the target {panel.target_label!r}")
    kept_labels = tuple(panel.group_labels[j] for j in keep)
    populations = None
    if panel.populations is not None:
        populations = {g: panel.populations[g] for g in kept_labels if g in panel.populations}
    return replace(
        panel,
        outcomes=panel.outcomes[keep],
        group_labels=kept_labels,
        target_index=kept_labels.index(panel.target_label),
        populations=populations,
    )


def aggregate_divisions(panel: PanelData, grouping_path=None) -> PanelData:
    """Merge a panel's donors into divisions, as the grouping document at ``grouping_path`` says.

    The document (by default the packaged census map) is either a map of group labels to division
    labels or ``{"divisions": <map>, "excluded": [<group label>, ...]}``. Excluded donors are dropped
    and the target passes through alone, so a kept donor mapped to the target's label, which would
    merge it into the target, is a DataValidationError; the kept groups then go through
    :func:`select_groups` and :func:`aggregate_groups`.
    """
    path = CENSUS_DIVISIONS if grouping_path is None else grouping_path
    document = read_json(path)
    if not isinstance(document, dict):
        raise DataValidationError(f"{path}: grouping must be a JSON object")
    if "divisions" in document:
        grouping, excluded = document["divisions"], document.get("excluded", [])
    else:
        grouping, excluded = document, []
    if not isinstance(grouping, dict) or not all(isinstance(v, str) for v in grouping.values()):
        raise DataValidationError(f"{path}: divisions must map group labels to division labels")
    if not isinstance(excluded, list) or not all(isinstance(g, str) for g in excluded):
        raise DataValidationError(f"{path}: excluded must be a list of group labels")
    target, excluded = panel.target_label, set(excluded)
    panel = select_groups(panel, [g for g in panel.group_labels if g == target or g not in excluded])
    for group in panel.group_labels:
        if group != target and grouping.get(group) == target:
            raise DataValidationError(f"group {group!r} is mapped to {target!r}, the target's label")
    return aggregate_groups(panel, {**grouping, target: target})


def standardize_rows(matrix, labels: Sequence[str]) -> np.ndarray:
    """Shift and scale each row to mean 0, unit sample standard deviation.

    Constant rows (and rows of one entry) map to all-zeros. A row whose mean is
    finite but whose sample variance overflows has no scale; it raises
    DataValidationError naming the covariate ``labels`` gives that row.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    means = matrix.mean(axis=1)
    scales = matrix.std(axis=1, ddof=1) if matrix.shape[1] > 1 else np.zeros(matrix.shape[0])
    overflowed = np.flatnonzero(np.isfinite(means) & ~np.isfinite(scales))
    if overflowed.size:
        raise DataValidationError(
            f"covariate {_shown(labels[overflowed[0]])!r} spreads too widely to standardize: "
            "its sample variance overflows"
        )
    scales = np.where(scales > 0, scales, 1.0)
    return (matrix - means[:, None]) / scales[:, None]
