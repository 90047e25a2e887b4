"""Where the traced run wraps synthpanel, and the per-layer metrics it reports.

Span names are "<module>.<function>"; the module is the layer. Counts and
ratios are taken over the ops of the first traced cycle, whose inputs are
fixed by the workload seed, so they repeat exactly between runs; times
are taken over every traced op.
"""

from __future__ import annotations

import os

from benchstats import median
from tracing import Span, self_times

LAYERS = ("microsim", "estimators", "evaluation", "identification", "panel", "cli")
OP_SPAN = "bench.op"


def _config(args, kwargs, position, keyword):
    return kwargs[keyword] if keyword in kwargs else (args[position] if len(args) > position else None)


def _describe_simulate(args, kwargs, study):
    cfg = study.config
    return {
        "aggregation": cfg.aggregation,
        "T": cfg.T,
        # Individuals drawn: one per group, period and panel cell, plus one
        # per group for each suitable and each unsuitable covariate.
        "individuals": cfg.n_groups * cfg.N_per_group * (cfg.T + 2 * cfg.covariate_count),
    }


def _describe_fit(args, kwargs, weights):
    cfg = _config(args, kwargs, 3, "cfg")
    return {
        "regularizer": cfg.regularizer if cfg is not None else "none",
        "iterations": len(weights.objective_trace) - 1,
        "converged": bool(weights.converged),
    }


def _describe_split(args, kwargs, evaluation):
    return {"underdetermined": bool(evaluation.underdetermined)}


def _describe_verify(args, kwargs, verified):
    return {"verified": bool(verified)}


def _describe_read(args, kwargs, result):
    return {"bytes": os.path.getsize(_config(args, kwargs, 0, "path"))}


def _describe_write(args, kwargs, result):
    return {"bytes": os.path.getsize(_config(args, kwargs, 1, "path"))}


# (module, function, span name, describe)
TARGETS = (
    ("microsim", "simulate_panel", "microsim.simulate", _describe_simulate),
    ("microsim", "load_study_bundle", "microsim.load_bundle", None),
    ("estimators", "fit", "estimators.fit", _describe_fit),
    ("estimators", "predict_counterfactual", "estimators.predict", None),
    ("estimators", "estimate_effect", "estimators.effect", None),
    ("evaluation", "time_split_evaluate", "evaluation.time_split", _describe_split),
    ("evaluation", "sweep_S", "evaluation.sweep_S", None),
    ("evaluation", "sweep_T_mean_median", "evaluation.sweep_T", None),
    ("evaluation", "covariate_experiment", "evaluation.covariates", None),
    ("identification", "minimal_invariant_set", "identification.invariant_set", None),
    ("identification", "solve_oracle_weights", "identification.oracle", None),
    ("identification", "verify_identification", "identification.verify", _describe_verify),
    ("panel", "from_csv", "panel.from_csv", _describe_read),
    ("panel", "aux_from_csv", "panel.aux_from_csv", _describe_read),
    ("panel", "to_csv", "panel.to_csv", _describe_write),
    ("panel", "aggregate_groups", "panel.aggregate", None),
    ("panel", "select_groups", "panel.select", None),
    ("cli", "main", "cli.main", None),
    ("cli", "build_parser", "cli.build_parser", None),
    ("cli", "cmd_aggregate", "cli.aggregate", None),
    ("cli", "cmd_fit", "cli.fit", None),
    ("cli", "cmd_diagnose", "cli.diagnose", None),
)

SWEEP_SPANS = ("evaluation.sweep_S", "evaluation.sweep_T", "evaluation.covariates")
SIMULATE_KEYS = (("mean", 15),) + tuple((agg, t) for agg in ("mean", "median") for t in range(20, 91, 10))
REGULARIZERS = ("none", "elastic_net", "simplex")
CLI_COMMANDS = ("aggregate", "fit", "diagnose")
COUNTED = "count"
RATIO = "ratio"

# (name, unit, better): the traced run reports every one of these.
PER_LAYER = (
    *((f"microsim.simulate.{agg}.T{t}.ms_p50", "ms", "lower") for agg, t in SIMULATE_KEYS),
    ("microsim.simulate.calls_per_op", "calls/op", "lower"),
    ("microsim.individuals", COUNTED, "lower"),
    ("microsim.ns_per_individual", "ns", "lower"),
    ("microsim.share", RATIO, "lower"),
    ("microsim.load_bundle.ms_p50", "ms", "lower"),
    *((f"estimators.fit.{reg}.ms_p50", "ms", "lower") for reg in REGULARIZERS),
    *((f"estimators.fit.{reg}.iterations", COUNTED, "lower") for reg in REGULARIZERS),
    ("estimators.fit.converged_ratio", RATIO, "higher"),
    ("estimators.predict.ms_p50", "ms", "lower"),
    ("estimators.share", RATIO, "lower"),
    ("evaluation.time_split.self_ms_p50", "ms", "lower"),
    ("evaluation.sweep.self_share", RATIO, "lower"),
    ("evaluation.underdetermined_ratio", RATIO, "lower"),
    ("identification.invariant_set.ms_p50", "ms", "lower"),
    ("identification.oracle.ms_p50", "ms", "lower"),
    ("identification.verify.ms_p50", "ms", "lower"),
    ("identification.verified_ratio", RATIO, "higher"),
    ("panel.from_csv.ms_p50", "ms", "lower"),
    ("panel.to_csv.ms_p50", "ms", "lower"),
    ("panel.aux_from_csv.ms_p50", "ms", "lower"),
    ("panel.aggregate.ms_p50", "ms", "lower"),
    ("panel.bytes_read", "bytes_computed", "lower"),
    ("panel.bytes_written", "bytes_computed", "lower"),
    ("cli.build_parser.ms_p50", "ms", "lower"),
    *((f"cli.{cmd}.self_ms_p50", "ms", "lower") for cmd in CLI_COMMANDS),
    ("cli.share", RATIO, "lower"),
    ("trace.overhead_ratio", RATIO, "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def missing_spans(spans: list[Span], expected) -> list[str]:
    """Expected span names that recorded no call: an error, not a free layer."""
    seen = {span.name for span in spans}
    return [name for name in expected if name not in seen]


def per_layer_metrics(spans: list[Span], first_cycle: set[int], overhead_ratio: float) -> tuple[dict, list]:
    """Every PER_LAYER value, and the names of those no span reached (reported as 0)."""
    selfs = self_times(spans)
    ops_ns = sum(s.duration for s in spans if s.name == OP_SPAN)
    values: dict[str, float] = {}
    unreached: list[str] = []

    def picked(name, where=lambda s: True, first=False):
        return [
            (i, s) for i, s in enumerate(spans)
            if s.name == name and where(s) and (not first or s.op in first_cycle)
        ]

    def p50_ms(metric, name, where=lambda s: True, self_time=False):
        samples = [(selfs[i] if self_time else s.duration) / 1e6 for i, s in picked(name, where)]
        if not samples:
            unreached.append(metric)
        values[metric] = median(samples) if samples else 0.0

    def ratio(metric, name, key):
        flags = [bool(s.attrs.get(key)) for _, s in picked(name, first=True)]
        if not flags:
            unreached.append(metric)
        values[metric] = sum(flags) / len(flags) if flags else 0.0

    def share(metric, selected):
        values[metric] = sum(selfs[i] for i, s in enumerate(spans) if selected(s)) / ops_ns if ops_ns else 0.0

    for agg, t in SIMULATE_KEYS:
        p50_ms(f"microsim.simulate.{agg}.T{t}.ms_p50", "microsim.simulate",
               lambda s, agg=agg, t=t: s.attrs.get("aggregation") == agg and s.attrs.get("T") == t)
    first_ops = max(1, len(first_cycle))
    values["microsim.simulate.calls_per_op"] = len(picked("microsim.simulate", first=True)) / first_ops
    values["microsim.individuals"] = sum(s.attrs.get("individuals", 0) for _, s in picked("microsim.simulate", first=True))
    simulated = [s for _, s in picked("microsim.simulate")]
    individuals = sum(s.attrs.get("individuals", 0) for s in simulated)
    values["microsim.ns_per_individual"] = sum(s.duration for s in simulated) / individuals if individuals else 0.0
    share("microsim.share", lambda s: s.layer == "microsim")
    p50_ms("microsim.load_bundle.ms_p50", "microsim.load_bundle")

    for reg in REGULARIZERS:
        p50_ms(f"estimators.fit.{reg}.ms_p50", "estimators.fit", lambda s, reg=reg: s.attrs.get("regularizer") == reg)
        values[f"estimators.fit.{reg}.iterations"] = sum(
            s.attrs.get("iterations", 0) for _, s in picked("estimators.fit", lambda s, reg=reg: s.attrs.get("regularizer") == reg, first=True)
        )
    ratio("estimators.fit.converged_ratio", "estimators.fit", "converged")
    p50_ms("estimators.predict.ms_p50", "estimators.predict")
    share("estimators.share", lambda s: s.layer == "estimators")

    p50_ms("evaluation.time_split.self_ms_p50", "evaluation.time_split", self_time=True)
    share("evaluation.sweep.self_share", lambda s: s.name in SWEEP_SPANS)
    ratio("evaluation.underdetermined_ratio", "evaluation.time_split", "underdetermined")

    for fn in ("invariant_set", "oracle", "verify"):
        p50_ms(f"identification.{fn}.ms_p50", f"identification.{fn}")
    ratio("identification.verified_ratio", "identification.verify", "verified")

    for fn in ("from_csv", "to_csv", "aux_from_csv", "aggregate"):
        p50_ms(f"panel.{fn}.ms_p50", f"panel.{fn}")
    values["panel.bytes_read"] = sum(
        s.attrs.get("bytes", 0) for name in ("panel.from_csv", "panel.aux_from_csv") for _, s in picked(name, first=True)
    )
    values["panel.bytes_written"] = sum(s.attrs.get("bytes", 0) for _, s in picked("panel.to_csv", first=True))

    p50_ms("cli.build_parser.ms_p50", "cli.build_parser")
    for cmd in CLI_COMMANDS:
        p50_ms(f"cli.{cmd}.self_ms_p50", f"cli.{cmd}", self_time=True)
    share("cli.share", lambda s: s.layer == "cli")

    values["trace.overhead_ratio"] = overhead_ratio
    return values, unreached
