"""Command-line front end.

Commands: fit, simulate, sweep, covariates, diagnose, aggregate. Each
command computes and checks its results and returns them as an
:class:`Output`; :func:`_deliver` alone creates the output directory and
writes into it, with the run's full parameter set, so a rejected run leaves
no directory and a written run is reproducible from its directory alone.
Outputs are deterministic given config and seed. The argument parser is
built once per process and shared by every :func:`main` call in it.

Exit codes: 0 success, 1 usage error (a missing input file or an unusable
output directory included), 2 data-validation error (an input file that
cannot be read, decoded or parsed included), 3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import typing
from pathlib import Path

from . import __version__
from .errors import DataValidationError, UsageError
from .estimators import REGULARIZERS, FitConfig, estimate_effect, fit
from .evaluation import EXPERIMENTS, covariate_experiment, sweep_S, sweep_T_mean_median, write_sweep_csv
from .identification import minimal_invariant_set, solve_oracle_weights, verify_identification
from .microsim import (
    AGGREGATIONS,
    COMPOSITION_MODES,
    SimConfig,
    load_study_bundle,
    simulate_panel,
    write_study_bundle,
)
from .panel import aggregate_divisions, aux_from_csv, format_float, from_csv, read_json, to_csv, write_csv, write_json

VERSION_STRING = f"synthpanel {__version__}"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NO_CONVERGENCE = 3

class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through UsageError (exit 1)."""

    def error(self, message):
        raise UsageError(message)


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}


@dataclasses.dataclass(frozen=True)
class Param:
    """One command parameter: its config key, flag, type, default and help.

    ``field`` names the SimConfig or FitConfig field the parameter sets. A
    parameter whose default is None is optional and may also be null.
    """

    name: str
    type: type
    default: object = None
    help: str | None = None
    choices: tuple | None = None
    flag: str | None = None
    field: str | None = None

    def check(self, value) -> None:
        if value is None and self.default is None:
            return
        kinds = (int, float) if self.type is float else self.type
        if not isinstance(value, kinds) or (isinstance(value, bool) and self.type is not bool):
            raise UsageError(f"{self.name} must be {_TYPE_NAMES[self.type]}, got {value!r}")
        if self.choices is not None and value not in self.choices:
            raise UsageError(f"{self.name} must be one of {', '.join(self.choices)}, got {value!r}")

    def add_flag(self, parser) -> None:
        flag = self.flag or "--" + self.name.replace("_", "-")
        if self.type is bool:
            parser.add_argument(flag, dest=self.name, action="store_true", default=None, help=self.help)
        else:
            parser.add_argument(flag, dest=self.name, type=self.type, choices=self.choices, help=self.help)


def _params(*entries: Param) -> dict[str, Param]:
    return {param.name: param for param in entries}


_CHOICES = {"aggregation": AGGREGATIONS, "composition_mode": COMPOSITION_MODES, "regularizer": REGULARIZERS}


def _config_params(config_cls, names: dict[str, tuple[str, str | None]], **defaults) -> dict[str, Param]:
    """Entries for the fields of a config dataclass, keyed by CLI name.

    ``names`` maps each CLI name to (field, help). Type, default and
    choices come from the field, unless ``defaults`` overrides the default.
    """
    types = typing.get_type_hints(config_cls)
    fields = {f.name: f for f in dataclasses.fields(config_cls)}
    return {
        name: Param(name, types[f], defaults.get(name, fields[f].default), help_text, _CHOICES.get(f), field=f)
        for name, (f, help_text) in names.items()
    }


SIM_PARAMS = _config_params(
    SimConfig,
    {
        "seed": ("seed", "master seed (nonnegative integer)"),
        "s_cardinality": ("S_cardinality", "differing category count |S|"),
        "periods": ("T", "total periods T"),
        "t0": ("T0", "pre-intervention period count"),
        "categories": ("K", "cause category count K"),
        "donors": ("num_donors", "donor group count"),
        "individuals": ("N_per_group", "individuals per group per period"),
        "aggregation": ("aggregation", "cell reducer"),
        "composition_mode": ("composition_mode", "how group compositions are drawn"),
        "noise_sd": ("noise_sd", "individual noise standard deviation"),
        "shift": ("post_intervention_shift", "post-intervention shift on target individuals"),
        "covariate_count": ("covariate_count", "covariates per block"),
        "ramp_scale": ("ramp_scale", "scale of the late-horizon ramp"),
    },
    seed=0, s_cardinality=5, periods=20, t0=15,
)

FIT_PARAMS = _config_params(
    FitConfig,
    {
        "regularizer": ("regularizer", "weight constraint or penalty"),
        "ridge_lam": ("ridge_lam", "ridge penalty"),
        "enet_lam1": ("enet_lam1", "elastic-net L1 penalty"),
        "enet_lam2": ("enet_lam2", "elastic-net L2 penalty"),
        "max_iterations": ("max_iterations", "active-set pass cap"),
        "tolerance": ("tolerance", "largest relative KKT residual of a converged fit"),
        "covariate_scale": ("covariate_scale", "relative weight of covariate rows"),
    },
)

_CONFIG_PARAMS = {SimConfig: SIM_PARAMS, FitConfig: FIT_PARAMS}

COMMON_PARAMS = _params(
    Param("out", str, "out", "output directory (default: out)"),
    Param("quiet", bool, False, "suppress stdout chatter"),
)

PANEL_PARAMS = _params(
    Param("panel", str, help="long-format panel CSV"),
    Param("target", str, help="target group label"),
    Param("t0", int, help="pre-intervention period count"),
)

REPLICATION_PARAMS = _params(
    Param("replications", int, 100, "studies per knob value"),
    Param("split", float, 0.75, "fraction of periods in the fit window"),
)


def _command(*groups: dict[str, Param], **defaults) -> dict[str, Param]:
    """One command's table: the union of groups, with some defaults replaced."""
    table = {name: param for group in groups for name, param in group.items()}
    for name, default in defaults.items():
        table[name] = dataclasses.replace(table[name], default=default)
    return table


COMMAND_HELP = {
    "fit": "fit synthetic-control weights on a panel CSV",
    "simulate": "generate a study bundle with ground truth",
    "sweep": "replication sweep over S or T",
    "covariates": "outcome-only vs suitable vs unsuitable covariates",
    "diagnose": "identification report for a simulated bundle",
    "aggregate": "merge panel groups into super-groups",
}

COMMAND_PARAMS = {
    "fit": _command(
        COMMON_PARAMS,
        PANEL_PARAMS,
        _params(
            Param("donors", str, help="comma-separated donor labels (default: all non-target)"),
            Param("covariates", str, help="covariate CSV to stack into the fit"),
        ),
        FIT_PARAMS,
        regularizer="simplex",
    ),
    "simulate": _command(COMMON_PARAMS, SIM_PARAMS),
    "sweep": _command(
        COMMON_PARAMS,
        SIM_PARAMS,
        FIT_PARAMS,
        _params(
            Param("knob", str, "S", "swept parameter", choices=("S", "T")),
            Param("from_value", int, 2, "first knob value", flag="--from"),
            Param("to_value", int, 11, "last knob value (inclusive)", flag="--to"),
            Param("step", int, 1, "knob increment"),
        ),
        REPLICATION_PARAMS,
    ),
    "covariates": _command(COMMON_PARAMS, SIM_PARAMS, FIT_PARAMS, REPLICATION_PARAMS, periods=15, t0=11),
    "diagnose": _command(
        COMMON_PARAMS,
        _params(
            Param("bundle", str, help="directory written by `synthpanel simulate`"),
            Param("tol", float, 1e-9, "composition tolerance of the invariant set and oracle"),
            Param("verify_tol", float, 1e-8, "tolerance of the all-period verification"),
        ),
    ),
    "aggregate": _command(
        COMMON_PARAMS,
        PANEL_PARAMS,
        _params(Param("grouping", str, help="grouping JSON (default: packaged census divisions)")),
    ),
}


def _config(config_cls, params: dict, **fields):
    """The config_cls instance that the materialized params describe, ``fields`` set over them."""
    described = {param.field: params[name] for name, param in _CONFIG_PARAMS[config_cls].items() if name in params}
    return config_cls(**described | fields)


def _json_object(path) -> dict:
    document = read_json(path)
    if not isinstance(document, dict):
        raise DataValidationError(f"{path}: config must be a JSON object")
    return document


def _materialize(command: str, config_path, cli_values: dict) -> dict:
    """defaults < config file < explicit CLI flags; unknown keys rejected.

    Every value is checked against its table entry, and none is coerced,
    so the manifest echoes the config document as written. What an experiment
    sets (``EXPERIMENTS``; a sweep's knob too) is rejected if given, and left out,
    and so is covariate_scale where none of the experiment's evaluators stacks covariates.
    """
    table = COMMAND_PARAMS[command]
    # argparse yields exactly the table's keys.
    given = {key: value for key, value in cli_values.items() if value is not None}
    if config_path is not None:
        document = _json_object(config_path)
        unknown = sorted(set(document) - set(table))
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
        given = document | given
    merged = {name: given.get(name, param.default) for name, param in table.items()}
    for name, value in merged.items():
        table[name].check(value)
    if command in ("sweep", "covariates"):
        field, constants, evaluators = EXPERIMENTS[merged.get("knob", command)]
        sets = {*constants, field} if command == "sweep" else constants
        refused = dict.fromkeys(sets, "sets {} itself; leave it out")
        if not any(block for _, block in evaluators.values()):
            refused["covariate_scale"] = "draws no covariates; leave {} out"
        for name in (name for name, param in table.items() if param.field in refused):
            if name in given:
                label = f"sweep --knob {merged['knob']}" if command == "sweep" else command
                raise UsageError(f"{label} {refused[table[name].field].format(name)}")
            del merged[name]
    return merged


@dataclasses.dataclass(frozen=True)
class Output:
    """A command's results: their writer into a given output directory, the
    stdout line (``{out}`` there names that directory) and the exit code."""

    write: typing.Callable[[Path], None]
    summary: str
    code: int = EXIT_OK


def _deliver(command: str, params: dict, output: Output) -> int:
    """Write a command's results and manifest.json (its materialized parameters,
    defaults included) into --out; report; return the exit code. An OSError
    while writing is a usage error: --out cannot be used."""
    out = Path(params["out"])
    # out/quiet are execution context, not science config; leaving them out
    # keeps reruns byte-identical regardless of where results land.
    echoed = {k: v for k, v in params.items() if k not in ("out", "quiet")}
    try:
        out.mkdir(parents=True, exist_ok=True)
        output.write(out)
        write_json({"command": command, "parameters": echoed, "version": VERSION_STRING}, out / "manifest.json")
    except OSError as exc:
        raise UsageError(f"cannot write output directory {out}: {exc.strerror or exc}") from None
    if not params["quiet"]:
        print(output.summary.format(out=out))
        if output.code == EXIT_NO_CONVERGENCE:
            print("solver did not converge", file=sys.stderr)
    return output.code


def _require(params: dict, *keys) -> None:
    for key in keys:
        if params[key] is None:
            raise UsageError(f"--{key.replace('_', '-')} is required")


def cmd_fit(params: dict) -> Output:
    _require(params, "panel", "target", "t0")
    panel = from_csv(params["panel"], target=params["target"], intervention_time=params["t0"])
    if params["donors"]:
        labels = [d.strip() for d in params["donors"].split(",")]
        donors = tuple(panel.group_index(lbl) for lbl in labels)
    else:
        donors = panel.donor_indices()
    aux = None
    if params["covariates"] is not None:
        aux = aux_from_csv(params["covariates"], panel.group_labels)
    cfg = _config(FitConfig, params)
    weights = fit(panel, donors, aux, cfg)
    effect = estimate_effect(weights, panel)
    record = {
        "donors": [panel.group_labels[j] for j in weights.donor_indices],
        "beta": weights.beta,
        "objective_value": weights.objective_value,
        "converged": weights.converged,
        "kkt_residual": weights.kkt_residual,
        "config": cfg,
    }
    columns = (panel.outcomes[panel.target_index], effect.synthetic, effect.gap)
    series = [[time, *map(format_float, values)] for time, *values in zip(panel.time_labels, *columns)]

    def write(out: Path) -> None:
        write_json(record, out / "weights.json")
        write_csv(out / "series.csv", ["time", "observed", "synthetic", "gap"], series)

    return Output(
        write,
        f"tau = {format_float(effect.tau)}",
        EXIT_OK if weights.converged else EXIT_NO_CONVERGENCE,
    )


def cmd_simulate(params: dict) -> Output:
    study = simulate_panel(_config(SimConfig, params))
    return Output(
        lambda out: write_study_bundle(study, out),
        f"wrote study bundle to {{out}} (|S| = {len(study.true_S)})",
    )


def cmd_sweep(params: dict) -> Output:
    sweep = dict(replications=params["replications"], fit_cfg=_config(FitConfig, params), split=params["split"])
    if params["step"] < 1:
        raise UsageError("--step must be at least 1")
    values = tuple(range(params["from_value"], params["to_value"] + 1, params["step"]))
    if not values:
        raise UsageError("a sweep needs at least one knob value")
    field, constants, _ = EXPERIMENTS[params["knob"]]
    base = _config(SimConfig, params, **constants, **{field: values[0]})
    if params["knob"] == "S":
        results = {"sweep.csv": sweep_S(base, S_values=values, **sweep)}
    else:
        results = {f"sweep_{a}.csv": r for a, r in zip(AGGREGATIONS, sweep_T_mean_median(base, values, **sweep))}

    def write(out: Path) -> None:
        for name, result in results.items():
            write_sweep_csv(result, out / name)

    return Output(write, "wrote sweep results to {out}")


def cmd_covariates(params: dict) -> Output:
    result = covariate_experiment(
        _config(SimConfig, params, **EXPERIMENTS["covariates"][1]),
        replications=params["replications"],
        fit_cfg=_config(FitConfig, params),
        split=params["split"],
    )
    return Output(
        lambda out: write_sweep_csv(result, out / "covariates.csv"), "wrote covariate experiment to {out}"
    )


def cmd_diagnose(params: dict) -> Output:
    _require(params, "bundle")
    study = load_study_bundle(params["bundle"])
    donors = study.panel.donor_indices()
    report = minimal_invariant_set(study.compositions, study.panel.target_index, donors, tol=params["tol"])
    oracle = solve_oracle_weights(
        study.compositions, study.panel.target_index, donors, report.S_indices, tol=params["tol"]
    )
    verified = verify_identification(study, oracle, tol=params["verify_tol"])
    diagnosis = {
        "invariant_set": report,
        "oracle_weights": oracle,
        "verified": verified,
        "tol": params["tol"],
        "verify_tol": params["verify_tol"],
    }
    return Output(
        lambda out: write_json(diagnosis, out / "diagnosis.json"),
        f"|S| = {report.S_cardinality}, donors = {report.donor_count}, "
        f"a3 = {report.a3_holds}, a4 = {report.a4_holds}, "
        f"exists = {oracle.exists}, verified = {verified}",
    )


def cmd_aggregate(params: dict) -> Output:
    _require(params, "panel", "target", "t0")
    panel = from_csv(params["panel"], target=params["target"], intervention_time=params["t0"])
    aggregated = aggregate_divisions(panel, params["grouping"])
    return Output(
        lambda out: to_csv(aggregated, out / "aggregated.csv"),
        f"aggregated {panel.n_groups} groups into {aggregated.n_groups}",
    )


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process.

    argparse builds a help formatter, which reads the terminal size, for every
    flag it adds, so building costs more than many commands. Parsing leaves the
    parser as it was, so every call shares it; nothing may change it after it
    is built."""
    parser = _Parser(prog="synthpanel", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=VERSION_STRING)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in COMMAND_HELP.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON parameter document; CLI flags override it")
        for param in COMMAND_PARAMS[command].values():
            param.add_flag(p)
    return parser


COMMANDS = {
    "fit": cmd_fit,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "covariates": cmd_covariates,
    "diagnose": cmd_diagnose,
    "aggregate": cmd_aggregate,
}


def run(argv=None) -> int:
    parser = build_parser()
    namespace = vars(parser.parse_args(argv))
    command = namespace.pop("command")
    config_path = namespace.pop("config", None)
    params = _materialize(command, config_path, namespace)
    return _deliver(command, params, COMMANDS[command](params))


def main(argv=None) -> int:
    try:
        return run(argv)
    except UsageError as exc:
        message, code = str(exc), EXIT_USAGE
    except FileNotFoundError as exc:
        message, code = f"file not found: {exc.filename}", EXIT_USAGE
    except DataValidationError as exc:
        message, code = str(exc), EXIT_DATA
    # A message can quote input text that holds line breaks; it is still reported on one line.
    print("error:", "\\n".join(message.splitlines()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
