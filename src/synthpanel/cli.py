"""Command-line front end.

Commands: fit, simulate, sweep, covariates, diagnose, aggregate. Every
run materializes its full parameter set (defaults included) into a
manifest.json in the output directory, so a run is reproducible from its
manifest alone. Outputs are deterministic given config and seed: JSON is
written with sorted keys and no timestamps.

Exit codes: 0 success, 1 usage error, 2 data-validation error,
3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from . import __version__
from .errors import DataValidationError, UsageError
from .estimators import FitConfig, estimate_effect, fit, fit_result_to_json, predict_counterfactual
from .evaluation import covariate_experiment, sweep_S, sweep_T_mean_median, write_sweep_csv
from .identification import (
    minimal_invariant_set,
    report_to_json,
    solve_oracle_weights,
    verify_identification,
    weights_to_json,
)
from .microsim import SimConfig, load_study_bundle, simulate_panel, write_study_bundle
from .panel import aggregate_groups, aux_from_csv, format_float, from_csv, select_groups, to_csv

VERSION_STRING = f"synthpanel {__version__}"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NO_CONVERGENCE = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through UsageError (exit 1)."""

    def error(self, message):
        raise UsageError(message)


def _load_config_file(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataValidationError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(document, dict):
        raise DataValidationError(f"{path}: config must be a JSON object")
    return document


def _materialize(defaults: dict, config_path, cli_values: dict) -> dict:
    """defaults < config file < explicit CLI flags; unknown keys rejected."""
    merged = dict(defaults)
    if config_path is not None:
        document = _load_config_file(config_path)
        unknown = sorted(set(document) - set(defaults))
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
        merged.update(document)
    for key, value in cli_values.items():
        if value is not None:
            if key not in defaults:
                raise UsageError(f"unknown parameter {key!r}")
            merged[key] = value
    return merged


def _write_json(payload: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, ensure_ascii=False)
        fh.write("\n")


def _write_manifest(outdir: Path, command: str, params: dict) -> None:
    # out/quiet are execution context, not science config; leaving them out
    # keeps reruns byte-identical regardless of where results land.
    echoed = {k: v for k, v in params.items() if k not in ("out", "quiet")}
    _write_json({"command": command, "parameters": echoed, "version": VERSION_STRING}, outdir / "manifest.json")


def _outdir(params: dict) -> Path:
    out = Path(params["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fit_config(params: dict) -> FitConfig:
    return FitConfig(
        regularizer=params["regularizer"],
        ridge_lam=params["ridge_lam"],
        enet_lam1=params["enet_lam1"],
        enet_lam2=params["enet_lam2"],
        max_iterations=params["max_iterations"],
        tolerance=params["tolerance"],
        include_covariates=params.get("covariates") is not None,
        covariate_scale=params["covariate_scale"],
    )


def _sim_config(params: dict, **overrides) -> SimConfig:
    cfg = SimConfig(
        S_cardinality=params["s_cardinality"],
        T=params["periods"],
        T0=params["t0"],
        seed=params["seed"],
        K=params["categories"],
        num_donors=params["donors"],
        N_per_group=params["individuals"],
        aggregation=params["aggregation"],
        composition_mode=params["composition_mode"],
        noise_sd=params["noise_sd"],
        post_intervention_shift=params["shift"],
        covariate_count=params["covariate_count"],
        ramp_scale=params["ramp_scale"],
    )
    return replace(cfg, **overrides) if overrides else cfg


FIT_DEFAULTS = {
    "panel": None,
    "target": None,
    "t0": None,
    "donors": None,
    "covariates": None,
    "regularizer": "simplex",
    "ridge_lam": 0.0,
    "enet_lam1": 0.0,
    "enet_lam2": 0.0,
    "max_iterations": 10_000,
    "tolerance": 1e-10,
    "covariate_scale": 1.0,
    "out": "out",
    "quiet": False,
}

SIM_DEFAULTS = {
    "seed": 0,
    "s_cardinality": 5,
    "periods": 20,
    "t0": 15,
    "categories": 12,
    "donors": 5,
    "individuals": 2000,
    "aggregation": "mean",
    "composition_mode": "invariant_split",
    "noise_sd": 1.0,
    "shift": 0.0,
    "covariate_count": 10,
    "ramp_scale": 1.0,
    "out": "out",
    "quiet": False,
}


def _require(params: dict, *keys) -> None:
    for key in keys:
        if params[key] is None:
            raise UsageError(f"--{key.replace('_', '-')} is required")


def cmd_fit(params: dict) -> int:
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
    cfg = _fit_config(params)
    weights = fit(panel, donors, aux, cfg)
    effect = estimate_effect(weights, panel)
    synthetic = predict_counterfactual(weights, panel)

    outdir = _outdir(params)
    _write_json(fit_result_to_json(weights, panel, cfg), outdir / "weights.json")
    with open(outdir / "series.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("time,observed,synthetic,gap\n")
        observed = panel.outcomes[panel.target_index]
        for t, time in enumerate(panel.time_labels):
            gap = observed[t] - synthetic[t]
            fh.write(
                f"{time},{format_float(observed[t])},{format_float(synthetic[t])},{format_float(gap)}\n"
            )
    _write_manifest(outdir, "fit", params)
    if not params["quiet"]:
        print(f"tau = {format_float(effect.tau)}")
    if not weights.converged:
        if not params["quiet"]:
            print("solver did not converge", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_simulate(params: dict) -> int:
    study = simulate_panel(_sim_config(params))
    outdir = _outdir(params)
    write_study_bundle(study, outdir)
    _write_manifest(outdir, "simulate", params)
    if not params["quiet"]:
        print(f"wrote study bundle to {outdir} (|S| = {len(study.true_S)})")
    return EXIT_OK


def cmd_sweep(params: dict) -> int:
    fit_cfg = _fit_config({**params, "covariates": None})
    if params["step"] < 1:
        raise UsageError("--step must be at least 1")
    values = tuple(range(params["from_value"], params["to_value"] + 1, params["step"]))
    sweep = dict(replications=params["replications"], fit_cfg=fit_cfg, split=params["split"])
    if params["knob"] == "S":
        outputs = {"sweep.csv": sweep_S(_sim_config(params), S_values=values, **sweep)}
    elif params["knob"] == "T":
        mean_result, median_result = sweep_T_mean_median(_sim_config(params), T_values=values, **sweep)
        outputs = {"sweep_mean.csv": mean_result, "sweep_median.csv": median_result}
    else:
        raise UsageError(f"unknown sweep knob {params['knob']!r}; choose S or T")
    outdir = _outdir(params)
    for name, result in outputs.items():
        write_sweep_csv(result, outdir / name)
    _write_manifest(outdir, "sweep", params)
    if not params["quiet"]:
        print(f"wrote sweep results to {outdir}")
    return EXIT_OK


def cmd_covariates(params: dict) -> int:
    fit_cfg = _fit_config({**params, "covariates": None})
    result = covariate_experiment(
        _sim_config(params),
        replications=params["replications"],
        fit_cfg=fit_cfg,
        split=params["split"],
    )
    outdir = _outdir(params)
    write_sweep_csv(result, outdir / "covariates.csv")
    _write_manifest(outdir, "covariates", params)
    if not params["quiet"]:
        print(f"wrote covariate experiment to {outdir}")
    return EXIT_OK


def cmd_diagnose(params: dict) -> int:
    _require(params, "bundle")
    study = load_study_bundle(params["bundle"])
    donors = study.panel.donor_indices()
    report = minimal_invariant_set(study.compositions, study.panel.target_index, donors, tol=params["tol"])
    oracle = solve_oracle_weights(
        study.compositions, study.panel.target_index, donors, report.S_indices, tol=params["tol"]
    )
    verified = verify_identification(study, oracle, tol=params["verify_tol"])
    outdir = _outdir(params)
    _write_json(
        {
            "invariant_set": report_to_json(report),
            "oracle_weights": weights_to_json(oracle),
            "verified": verified,
            "tol": params["tol"],
            "verify_tol": params["verify_tol"],
        },
        outdir / "diagnosis.json",
    )
    _write_manifest(outdir, "diagnose", params)
    if not params["quiet"]:
        print(
            f"|S| = {report.S_cardinality}, donors = {report.donor_count}, "
            f"a3 = {report.a3_holds}, a4 = {report.a4_holds}, "
            f"exists = {oracle.exists}, verified = {verified}"
        )
    return EXIT_OK


def _load_grouping(path) -> tuple[dict, list]:
    if path is None:
        with resources.files("synthpanel").joinpath("data/census_divisions.json").open(
            encoding="utf-8"
        ) as fh:
            document = json.load(fh)
    else:
        document = _load_config_file(path)
    if "divisions" in document:
        return dict(document["divisions"]), list(document.get("excluded", []))
    return dict(document), []


def cmd_aggregate(params: dict) -> int:
    _require(params, "panel", "target", "t0")
    panel = from_csv(params["panel"], target=params["target"], intervention_time=params["t0"])
    grouping, excluded = _load_grouping(params["grouping"])
    keep = [
        g for g in panel.group_labels if g == panel.target_label or g not in set(excluded)
    ]
    panel = select_groups(panel, keep)
    grouping = dict(grouping)
    grouping[panel.target_label] = panel.target_label
    aggregated = aggregate_groups(panel, grouping)
    outdir = _outdir(params)
    to_csv(aggregated, outdir / "aggregated.csv")
    _write_manifest(outdir, "aggregate", params)
    if not params["quiet"]:
        print(f"aggregated {panel.n_groups} groups into {aggregated.n_groups}")
    return EXIT_OK


def _add_common(parser):
    parser.add_argument("--config", help="JSON parameter document; CLI flags override it")
    parser.add_argument("--out", help="output directory (default: out)")
    parser.add_argument("--quiet", action="store_true", default=None, help="suppress stdout chatter")


def _add_fit_flags(parser):
    parser.add_argument("--regularizer", choices=["none", "ridge", "elastic_net", "simplex"])
    parser.add_argument("--ridge-lam", dest="ridge_lam", type=float)
    parser.add_argument("--enet-lam1", dest="enet_lam1", type=float)
    parser.add_argument("--enet-lam2", dest="enet_lam2", type=float)
    parser.add_argument("--max-iterations", dest="max_iterations", type=int)
    parser.add_argument("--tolerance", type=float)
    parser.add_argument("--covariate-scale", dest="covariate_scale", type=float)


def _add_sim_flags(parser):
    parser.add_argument("--seed", type=int)
    parser.add_argument("--s-cardinality", dest="s_cardinality", type=int)
    parser.add_argument("--periods", type=int, help="total periods T")
    parser.add_argument("--t0", type=int, help="pre-intervention period count")
    parser.add_argument("--categories", type=int, help="cause category count K")
    parser.add_argument("--donors", type=int, help="donor group count")
    parser.add_argument("--individuals", type=int, help="individuals per group per period")
    parser.add_argument("--aggregation", choices=["mean", "median"])
    parser.add_argument("--composition-mode", dest="composition_mode", choices=["invariant_split", "dirichlet_mask"])
    parser.add_argument("--noise-sd", dest="noise_sd", type=float)
    parser.add_argument("--shift", type=float, help="post-intervention shift on target individuals")
    parser.add_argument("--covariate-count", dest="covariate_count", type=int)
    parser.add_argument("--ramp-scale", dest="ramp_scale", type=float)


def build_parser() -> _Parser:
    parser = _Parser(prog="synthpanel", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=VERSION_STRING)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit synthetic-control weights on a panel CSV")
    _add_common(p)
    p.add_argument("--panel", help="long-format panel CSV")
    p.add_argument("--target", help="target group label")
    p.add_argument("--t0", type=int, help="pre-intervention period count")
    p.add_argument("--donors", help="comma-separated donor labels (default: all non-target)")
    p.add_argument("--covariates", help="covariate CSV to stack into the fit")
    _add_fit_flags(p)

    p = sub.add_parser("simulate", help="generate a study bundle with ground truth")
    _add_common(p)
    _add_sim_flags(p)

    p = sub.add_parser("sweep", help="replication sweep over S or T")
    _add_common(p)
    _add_sim_flags(p)
    _add_fit_flags(p)
    p.add_argument("--knob", choices=["S", "T"])
    p.add_argument("--from", dest="from_value", type=int)
    p.add_argument("--to", dest="to_value", type=int)
    p.add_argument("--step", type=int)
    p.add_argument("--replications", type=int)
    p.add_argument("--split", type=float)

    p = sub.add_parser("covariates", help="outcome-only vs suitable vs unsuitable covariates")
    _add_common(p)
    _add_sim_flags(p)
    _add_fit_flags(p)
    p.add_argument("--replications", type=int)
    p.add_argument("--split", type=float)

    p = sub.add_parser("diagnose", help="identification report for a simulated bundle")
    _add_common(p)
    p.add_argument("--bundle", help="directory written by `synthpanel simulate`")
    p.add_argument("--tol", type=float)
    p.add_argument("--verify-tol", dest="verify_tol", type=float)

    p = sub.add_parser("aggregate", help="merge panel groups into super-groups")
    _add_common(p)
    p.add_argument("--panel", help="long-format panel CSV with population column")
    p.add_argument("--target", help="target group label (passes through unaggregated)")
    p.add_argument("--t0", type=int)
    p.add_argument("--grouping", help="grouping JSON (default: packaged census divisions)")

    return parser


COMMAND_DEFAULTS = {
    "fit": FIT_DEFAULTS,
    "simulate": SIM_DEFAULTS,
    "sweep": {
        **SIM_DEFAULTS,
        **{k: v for k, v in FIT_DEFAULTS.items() if k not in ("panel", "target", "t0", "donors", "covariates")},
        "regularizer": "none",
        "knob": "S",
        "from_value": 2,
        "to_value": 11,
        "step": 1,
        "replications": 100,
        "split": 0.75,
    },
    "covariates": {
        **SIM_DEFAULTS,
        **{k: v for k, v in FIT_DEFAULTS.items() if k not in ("panel", "target", "t0", "donors", "covariates")},
        "regularizer": "none",
        "periods": 15,
        "t0": 11,
        "replications": 100,
        "split": 0.75,
    },
    "diagnose": {"bundle": None, "tol": 1e-9, "verify_tol": 1e-8, "out": "out", "quiet": False},
    "aggregate": {"panel": None, "target": None, "t0": None, "grouping": None, "out": "out", "quiet": False},
}

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
    params = _materialize(COMMAND_DEFAULTS[command], config_path, namespace)
    return COMMANDS[command](params)


def main(argv=None) -> int:
    try:
        code = run(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        code = EXIT_USAGE
    except DataValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_DATA
    return code


if __name__ == "__main__":
    sys.exit(main())
