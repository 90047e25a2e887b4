"""The four benchmark workloads.

A workload turns the workload seed into inputs (``setup``), names the
inputs of op ``i`` (``inputs``, untimed), makes the one timed call into
synthpanel's public API (``call``) and checks that call's outputs
(``check``, untimed), returning the problems found and the output bytes
that feed the determinism check and the digest.

Ops cycle through a fixed list of knob values; op ``i`` of a run always
gets the same inputs for the same workload seed, so counts taken over
the first cycle repeat exactly. Every sweep study's seed is drawn from
the workload seed through the benchmark's own SeedSequence; the state
pipeline replays one fixed dataset (see StatePipeline).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from synthpanel import cli, estimators, evaluation, microsim, panel

import checks


def input_seed(seed: int, *key: int) -> int:
    """A study seed derived from the workload seed, keyed by integers."""
    state = np.random.SeedSequence(seed, spawn_key=key).generate_state(1, np.uint64)
    return int(state[0])


class Workload:
    name = ""
    unit = "studies"
    # Ops per cycle: the knob values an op cycles through.
    cycle = 1
    # Replications per sweep op (R).
    replications = 1
    # Preferred tail percentile for op_ms_tail at this workload's usual op count.
    tail_q = 90.0
    # Spans a traced run must record at least once.
    expected_spans: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)

    def units(self, i: int) -> int:
        """Studies (or pipeline passes) completed by op i."""
        raise NotImplementedError

    def inputs(self, i: int):
        raise NotImplementedError

    def call(self, inputs):
        raise NotImplementedError

    def check(self, i: int, result) -> tuple[list[str], bytes]:
        raise NotImplementedError


SWEEP_SPANS = ("microsim.simulate", "evaluation.time_split", "estimators.fit", "estimators.predict")


class _Sweep(Workload):
    """Shared check and output of the three sweep workloads."""

    def results(self, result) -> tuple:
        return (result,)

    def knobs(self, i: int) -> tuple:
        raise NotImplementedError

    def check(self, i, result):
        results = self.results(result)
        problems = checks.sweep_problems(results, self.knobs(i), self.replications)
        path = self.workdir / "sweep.csv"
        output = b""
        for res in results:
            evaluation.write_sweep_csv(res, path)
            output += path.read_bytes()
        return problems, output


class SSweep(_Sweep):
    name = "s_sweep"
    cycle = 10
    replications = 2
    tail_q = 95.0
    expected_spans = ("evaluation.sweep_S",) + SWEEP_SPANS

    def units(self, i):
        return self.replications

    def knobs(self, i):
        return (2 + i % self.cycle,)

    def inputs(self, i):
        base = microsim.SimConfig(S_cardinality=5, T=20, T0=15, seed=input_seed(self.seed, i), N_per_group=2000)
        return base, self.knobs(i)

    def call(self, inputs):
        base, values = inputs
        return evaluation.sweep_S(
            base, S_values=values, replications=self.replications, fit_cfg=estimators.FitConfig()
        )


class HorizonSweep(_Sweep):
    name = "horizon_sweep"
    cycle = 8
    replications = 1
    tail_q = 90.0
    expected_spans = ("evaluation.sweep_T",) + SWEEP_SPANS
    FIT = dict(regularizer="elastic_net", enet_lam1=0.05, enet_lam2=0.01)

    def units(self, i):
        return 2 * self.replications

    def knobs(self, i):
        return (20 + 10 * (i % self.cycle),)

    def results(self, result):
        return result

    def inputs(self, i):
        base = microsim.SimConfig(
            S_cardinality=5, T=20, T0=15, seed=input_seed(self.seed, i), N_per_group=2000, ramp_scale=0.0
        )
        return base, self.knobs(i)

    def call(self, inputs):
        base, values = inputs
        return evaluation.sweep_T_mean_median(
            base, T_values=values, replications=self.replications, fit_cfg=estimators.FitConfig(**self.FIT)
        )


class CovariateStudy(_Sweep):
    name = "covariate_study"
    cycle = 8
    replications = 2
    tail_q = 95.0
    expected_spans = ("evaluation.covariates",) + SWEEP_SPANS

    def units(self, i):
        return self.replications

    def knobs(self, i):
        return evaluation.COVARIATE_ROWS

    def inputs(self, i):
        return microsim.SimConfig(
            S_cardinality=5, T=15, T0=11, seed=input_seed(self.seed, i), N_per_group=2000, covariate_count=10
        )

    def call(self, base):
        return evaluation.covariate_experiment(
            base, replications=self.replications, fit_cfg=estimators.FitConfig(covariate_scale=0.15)
        )


class StatePipeline(Workload):
    """CLI passes over placebo bundles cut from one fixed Prop-99-shaped dataset.

    The dataset, meaning the 39 states' compositions and outcome functions
    and the survey microdata of every (state, year) cell, is fixed by
    DATASET_SEED, as the real Prop 99 panel is fixed. The workload seed
    draws the grouping inputs: the state populations, each bundle's
    division map and excluded donors, and the order of the bundles. A
    cycle is the in-space placebo study: every state is the target of one
    bundle, with the other 38 states as donors.

    The solvers' pass counts vary with the microdata, so a dataset drawn
    per seed made this workload's cost differ by up to 40% between seeds.
    """

    name = "state_pipeline"
    unit = "passes"
    cycle = 39
    tail_q = 90.0
    expected_spans = (
        "cli.main",
        "cli.build_parser",
        "cli.aggregate",
        "cli.fit",
        "cli.diagnose",
        "panel.from_csv",
        "panel.aux_from_csv",
        "panel.to_csv",
        "panel.select",
        "panel.aggregate",
        "estimators.fit",
        "estimators.effect",
        "estimators.predict",
        "microsim.load_bundle",
        "identification.invariant_set",
        "identification.oracle",
        "identification.verify",
    )
    DATASET_SEED = 1999
    S_CARDINALITY = 5
    DONORS = 38
    PERIODS = 31
    T0 = 19
    DIVISIONS = 8
    EXCLUDED = 2
    SIMPLEX_STEPS = ("fit_divisions", "fit_simplex")
    ENET = ("--enet-lam1", "0.2", "--enet-lam2", "0.05", "--tolerance", "1e-8")

    def units(self, i):
        return 1

    def bundle_dir(self, b: int) -> Path:
        return self.workdir / f"bundle{b}"

    def setup(self):
        super().setup()
        cfg = microsim.SimConfig(
            S_cardinality=self.S_CARDINALITY,
            T=self.PERIODS,
            T0=self.T0,
            seed=self.DATASET_SEED,
            num_donors=self.DONORS,
            N_per_group=2000,
        )
        dataset = microsim.simulate_panel(cfg)
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        populations = np.round(rng.lognormal(15.0, 1.0, cfg.n_groups))
        targets = rng.permutation(cfg.n_groups)
        self.commands = [
            self._write_bundle(b, int(target), dataset, populations, rng) for b, target in enumerate(targets)
        ]

    def _write_bundle(self, b, target, dataset, populations, rng):
        """Write bundle b, with the given state as the target; return its CLI steps."""
        n = dataset.config.n_groups
        order = [target] + [j for j in range(n) if j != target]
        labels = ("target",) + tuple(f"donor_{j}" for j in range(1, n))
        source = dataset.panel
        study = microsim.SimulatedStudy(
            panel=panel.PanelData(source.outcomes[order], labels, source.time_labels, 0, self.T0),
            compositions=tuple(dataset.compositions[j] for j in order),
            functions=dataset.functions,
            true_S=dataset.true_S,
            aux_suitable=panel.AuxMatrix(dataset.aux_suitable.values[order], dataset.aux_suitable.covariate_labels),
            aux_unsuitable=panel.AuxMatrix(
                dataset.aux_unsuitable.values[order], dataset.aux_unsuitable.covariate_labels
            ),
            config=dataset.config,
        )
        bundle = self.bundle_dir(b)
        microsim.write_study_bundle(study, bundle)
        with_population = panel.PanelData(
            study.panel.outcomes, labels, source.time_labels, 0, self.T0,
            populations=dict(zip(labels, populations[order].tolist())),
        )
        panel.to_csv(with_population, bundle / "panel_population.csv")
        donors = [labels[j] for j in rng.permutation(np.arange(1, n))]
        excluded, kept = donors[: self.EXCLUDED], donors[self.EXCLUDED :]
        divisions = {
            label: f"division_{k + 1}"
            for k, part in enumerate(np.array_split(np.array(kept), self.DIVISIONS))
            for label in part.tolist()
        }
        with open(bundle / "grouping.json", "w", encoding="utf-8") as fh:
            json.dump({"divisions": divisions, "excluded": excluded}, fh, sort_keys=True, indent=2)
        out = bundle / "out"
        common = ["--target", "target", "--t0", str(self.T0), "--quiet"]
        return [
            ("aggregate", ["aggregate", "--panel", str(bundle / "panel_population.csv"),
                           "--grouping", str(bundle / "grouping.json"), *common]),
            ("fit_divisions", ["fit", "--panel", str(out / "aggregate" / "aggregated.csv"),
                               "--regularizer", "simplex", *common]),
            ("fit_simplex", ["fit", "--panel", str(bundle / "panel.csv"), "--regularizer", "simplex", *common]),
            ("fit_enet", ["fit", "--panel", str(bundle / "panel.csv"), "--regularizer", "elastic_net", *self.ENET,
                          "--covariates", str(bundle / "covariates_suitable.csv"),
                          "--covariate-scale", "0.15", *common]),
            ("diagnose", ["diagnose", "--bundle", str(bundle), "--quiet"]),
        ]

    def inputs(self, i):
        out = self.bundle_dir(i % self.cycle) / "out"
        return [(step, [*argv, "--out", str(out / step)]) for step, argv in self.commands[i % self.cycle]]

    def call(self, steps):
        return {step: cli.main(argv) for step, argv in steps}

    def check(self, i, exit_codes):
        out = self.bundle_dir(i % self.cycle) / "out"
        files = {}
        for step in exit_codes:
            for path in sorted((out / step).iterdir()):
                files[f"{step}/{path.name}"] = path.read_bytes()
        problems = checks.cli_problems(
            exit_codes, files, self.SIMPLEX_STEPS, expect_verified=self.S_CARDINALITY <= self.DONORS
        )
        output = b"".join(name.encode() + b"\n" + data for name, data in files.items())
        return problems, output


WORKLOADS = {w.name: w for w in (SSweep, HorizonSweep, CovariateStudy, StatePipeline)}
