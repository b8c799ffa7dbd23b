"""The end-to-end validation campaign (Figure 1).

Steps:

1. build the model from publicly available information
   (:func:`cortex_a53_public_config` / :func:`cortex_a72_public_config`);
2. set latency parameters using lmbench micro-benchmarks;
3. best-effort guesses for the remaining unknowns (the public configs'
   defaults);
4. tune the unknown parameters with iterated racing over the targeted
   micro-benchmark suite;
5. inspect per-component errors; where a component still shows high
   error, apply the corresponding *model fix* (add the indirect
   predictor and GHB prefetcher options, initialise the anomalous
   arrays, replace a buggy decoder) and run another tuning round;
6. emit the tuned model.

The campaign reproduces the §IV-B staging: stage 1 races the *initial*
model's parameter list; the step-5 inspection then unlocks stage 2's
extended list.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field

from repro.components import domain_param_names
from repro.core.config import (
    SimConfig,
    cortex_a53_public_config,
    cortex_a72_public_config,
)
from repro.engine import AssignmentEvaluator, EvaluationEngine
from repro.engine.keys import config_token, decoder_token, overrides_token
from repro.hardware.board import FireflyRK3399, HardwareCore
from repro.hardware.lmbench import apply_latency_estimates, lat_mem_rd
from repro.isa.decoder import BuggyDecoder, Decoder
from repro.store.checkpoint import (
    SETUP_STAGE,
    irace_result_from_payload,
    irace_result_to_payload,
    stage_name,
)
from repro.tuning.cost import make_weighted_cost
from repro.tuning.irace import IraceResult, IraceTuner
from repro.tuning.parameters import ParamSpace
from repro.validation.steps import param_space_for
from repro.workloads.microbench import ALL_MICROBENCHMARKS, MICROBENCHMARKS

#: Step-5 component rounds: which workloads stress a component and which
#: perf metrics join the weighted cost. The paper: "instead of using the
#: CPI error only, a weighted cost function that includes both the branch
#: misprediction rate and the CPI can be used" (§III-A). The *parameters*
#: each round races are not listed here: every tunable's registry
#: declaration carries domain tags, and the round asks the registry for
#: its domain's parameters (:func:`repro.components.domain_param_names`).
_COMPONENT_ROUNDS = {
    "branch": {
        "workloads": ("CCa", "CCe", "CCh", "CCl", "CCm", "CF1", "CRd", "CRf",
                      "CRm", "CS1", "CS3", "MIP"),
        "weights": {"cpi": 1.0, "branch-mpki": 1.0},
    },
    "memory": {
        "workloads": ("MC", "MCS", "MD", "ML2", "ML2_BWld", "ML2_BWldst",
                      "ML2_BWst", "ML2_st", "MM", "MM_st", "M_Dyn"),
        "weights": {"cpi": 1.0, "l1d-mpki": 0.5, "l2-mpki": 0.5},
    },
    "execution": {
        "workloads": ("ED1", "EF", "EI", "EM1", "EM5", "DP1d", "DP1f",
                      "DPcvt", "DPT", "DPTd"),
        "weights": {"cpi": 1.0},
    },
    "store": {
        "workloads": ("STL2", "STL2b", "STc", "ML2_BWst", "MM_st"),
        "weights": {"cpi": 1.0},
    },
}


@dataclass(frozen=True)
class BudgetProfile:
    """Scaling knobs: trial budgets and workload scale."""

    name: str
    stage1_budget: int
    stage2_budget: int
    microbench_scale: float = 1.0
    first_test: int = 6
    n_elites: int = 3


PROFILES = {
    "fast": BudgetProfile("fast", 350, 350, first_test=5, n_elites=2),
    "default": BudgetProfile("default", 1000, 1400),
    "thorough": BudgetProfile("thorough", 3000, 4000),
    # The paper's 10K/100K budgets, for completeness (hours of runtime).
    "paper": BudgetProfile("paper", 10_000, 20_000),
}


@dataclass
class InspectionReport:
    """Step-5 output: per-category errors and recommended fixes."""

    per_benchmark: dict
    per_category: dict
    overall: float
    recommendations: list = field(default_factory=list)

    def summary(self) -> str:
        """Readable per-category error report with recommendations."""
        lines = [f"overall mean CPI error: {self.overall:.1%}"]
        for cat, err in sorted(self.per_category.items()):
            lines.append(f"  {cat:<14}{err:.1%}")
        for rec in self.recommendations:
            lines.append(f"  fix: {rec}")
        return "\n".join(lines)


@dataclass
class StageResult:
    """One tuning round."""

    stage: int
    irace: IraceResult
    tuned_config: SimConfig
    errors: dict
    inspection: InspectionReport


@dataclass
class CampaignResult:
    """Everything the campaign produced."""

    core: str
    profile: str
    public_config: SimConfig
    lmbench_config: SimConfig
    untuned_errors: dict
    stages: list
    final_config: SimConfig
    final_errors: dict

    @property
    def untuned_mean_error(self) -> float:
        """Mean CPI error of the public (vendor-documented) config."""
        return sum(self.untuned_errors.values()) / len(self.untuned_errors)

    @property
    def tuned_mean_error(self) -> float:
        """Mean CPI error after the final tuning stage."""
        return sum(self.final_errors.values()) / len(self.final_errors)

    def summary(self) -> str:
        """Readable before/after account of the whole campaign."""
        lines = [
            f"validation campaign: {self.core} ({self.profile} profile)",
            f"  untuned mean CPI error: {self.untuned_mean_error:.1%}",
        ]
        for stage in self.stages:
            mean = sum(stage.errors.values()) / len(stage.errors)
            lines.append(
                f"  stage {stage.stage}: tuned mean error {mean:.1%} "
                f"({stage.irace.unique_trials} unique trials, "
                f"{stage.irace.requested_trials} requested)"
            )
        lines.append(f"  final mean CPI error: {self.tuned_mean_error:.1%}")
        return "\n".join(lines)


class ValidationCampaign:
    """Drives the Figure-1 methodology for one board core."""

    def __init__(
        self,
        board: FireflyRK3399,
        core: str = "a53",
        profile: str = "default",
        seed: int = 0,
        verbose: bool = False,
        decoder: Decoder = None,
        workloads: list = None,
        jobs: int = 1,
        executor: str = None,
        store=None,
        run_id: str = None,
        race_mode: str = "sync",
        lookahead: int = 2,
    ) -> None:
        self.board = board
        self.hw: HardwareCore = board.core(core)
        self.core_name = core
        self.profile = PROFILES[profile] if isinstance(profile, str) else profile
        self.seed = seed
        self.verbose = verbose
        #: Race execution mode for the tuning stages (a parallelism
        #: knob, like ``jobs``: it never changes the tuned result —
        #: async races make bit-identical elimination decisions).
        self.race_mode = race_mode
        self.lookahead = lookahead
        #: Persistent experiment store + run identity. With both set the
        #: campaign writes stage-granular checkpoints under ``run_id``
        #: and ``run(resume=True)`` replays completed stages from them.
        self.run_id = run_id
        self.workloads = list(workloads) if workloads is not None else list(ALL_MICROBENCHMARKS)
        self._workload_by_name = {wl.name: wl for wl in self.workloads}
        #: Every trial — simulator run or hardware measurement — executes
        #: through the shared engine: one trace store, one
        #: content-addressed result cache, ``jobs``-way parallelism.
        self.engine = EvaluationEngine(
            hw=self.hw,
            workloads=self.workloads,
            scale=self.profile.microbench_scale,
            decoder=decoder,
            jobs=jobs,
            executor=executor,
            store=store,
        )
        self.store = self.engine.store
    # ------------------------------------------------------------------
    # Infrastructure
    # ------------------------------------------------------------------
    @property
    def workload_overrides(self) -> dict:
        """Per-workload kwargs overrides (step-5 fixes land here).

        This *is* the engine's overrides dict — the engine folds it into
        its cache keys — so both mutation and wholesale assignment reach
        the engine."""
        return self.engine.overrides

    @workload_overrides.setter
    def workload_overrides(self, value: dict) -> None:
        if value is not self.engine.overrides:
            self.engine.overrides.clear()
            self.engine.overrides.update(value or {})

    @property
    def decoder(self) -> Decoder:
        """The decoder library the *simulator* uses. Constructing the
        campaign with a :class:`BuggyDecoder` reproduces the decoder-bug
        study; the step-5 inspection will recommend replacing it."""
        return self.engine.decoder

    @decoder.setter
    def decoder(self, decoder: Decoder) -> None:
        self.engine.decoder = decoder

    def error_for(self, config: SimConfig, name: str) -> float:
        """Absolute relative CPI error of ``config`` on one workload."""
        return self.engine.evaluate(config, name)

    def evaluate(self, config: SimConfig) -> dict:
        """Per-workload CPI error of ``config`` over the whole suite.

        Submitted as one batch, so with ``jobs > 1`` the suite runs in
        parallel.
        """
        names = [wl.name for wl in self.workloads]
        costs = self.engine.evaluate_batch([(config, name) for name in names])
        return dict(zip(names, costs))

    def close(self) -> None:
        """Release engine resources (worker processes). The store, if
        any, is shared with the caller and stays open."""
        self.engine.close()

    # ------------------------------------------------------------------
    # Checkpoints (stage-granular, written to the store under run_id)
    # ------------------------------------------------------------------
    @property
    def _checkpointing(self) -> bool:
        return self.store is not None and self.run_id is not None

    def _trial_context(self, tag: str, config: SimConfig, weights: dict = None) -> str:
        """Store context for one tuning round's trial-cost memo.

        The memoised costs depend on everything the evaluator closes
        over — base config, decoder, per-workload overrides, cost
        weights, saturation — so all of it is folded into the token;
        two rounds share persisted costs only when genuinely identical.
        """
        if not self._checkpointing:
            return None
        ident = (
            config_token(config),
            decoder_token(self.engine.decoder),
            tuple(sorted(
                (name, overrides_token(ovr))
                for name, ovr in self.engine.overrides.items()
            )),
            tuple(sorted((weights or {}).items())),
            self.cost_saturation,
        )
        digest = hashlib.sha256(repr(ident).encode("utf-8")).hexdigest()[:16]
        return f"{self.run_id}/{tag}/{digest}"

    def _save_checkpoint(self, name: str, payload: dict) -> None:
        if self._checkpointing:
            self.store.put_checkpoint(self.run_id, name, payload)

    def _load_checkpoint(self, name: str):
        if not self._checkpointing:
            return None
        return self.store.get_checkpoint(self.run_id, name)

    def _stage_to_payload(self, stage_result: "StageResult") -> dict:
        return {
            "stage": stage_result.stage,
            "irace": irace_result_to_payload(stage_result.irace),
            "tuned_flat": stage_result.tuned_config.flatten(),
            "errors": stage_result.errors,
            "inspection": asdict(stage_result.inspection),
        }

    def _stage_from_payload(self, payload: dict, base_config: SimConfig) -> "StageResult":
        return StageResult(
            stage=payload["stage"],
            irace=irace_result_from_payload(payload["irace"]),
            tuned_config=base_config.with_updates(payload["tuned_flat"]),
            errors=dict(payload["errors"]),
            inspection=InspectionReport(**payload["inspection"]),
        )

    #: Per-instance cost saturation. Abstraction-error anomalies (the
    #: uninitialised-array kernels pre-fix) produce 10-30x errors that no
    #: configuration can remove; capping them keeps the tuner's mean cost
    #: from being hijacked by unfixable outliers while preserving their
    #: ordering. Raw (uncapped) errors are always reported.
    cost_saturation = 3.0

    def make_evaluator(self, base_config: SimConfig) -> AssignmentEvaluator:
        """The ``evaluate(assignment, instance)`` callable irace needs.

        Engine-backed: it also exposes ``evaluate_batch``, which lets the
        race submit each instance step's alive candidates as one
        parallel block.
        """
        return AssignmentEvaluator(
            self.engine, base_config, saturation=self.cost_saturation
        )

    # ------------------------------------------------------------------
    # Methodology steps
    # ------------------------------------------------------------------
    def step1_public_config(self) -> SimConfig:
        """Step #1: model from publicly available information."""
        if self.core_name in ("a53", "cortex-a53"):
            return cortex_a53_public_config()
        return cortex_a72_public_config()

    def step2_lmbench(self, config: SimConfig) -> SimConfig:
        """Step #2: measure cache/memory latencies and plug them in."""
        estimates = lat_mem_rd(self.hw, l1_size=config.l1d.size, l2_size=config.l2.size)
        if self.verbose:
            print(f"[campaign] lmbench estimates: {estimates.summary()}")
        return apply_latency_estimates(config, estimates)

    def step4_tune(self, config: SimConfig, stage: int, budget: int) -> tuple:
        """Step #4: race the unknown parameters; returns (config, result)."""
        space = param_space_for(config.core_type, stage=stage)
        initial = space.default_assignment(config.flatten())
        tuner = IraceTuner(
            space,
            self.make_evaluator(config),
            instances=[wl.name for wl in self.workloads],
            budget=budget,
            seed=self.seed + stage,
            n_elites=self.profile.n_elites,
            first_test=self.profile.first_test,
            initial_assignments=[initial],
            verbose=self.verbose,
            store=self.store,
            trial_context=self._trial_context(f"stage{stage}", config),
            race_mode=self.race_mode,
            lookahead=self.lookahead,
        )
        result = tuner.run()
        return config.with_updates(result.best_assignment), result

    def component_round(
        self,
        config: SimConfig,
        component: str,
        budget: int = 300,
        stage: int = 2,
    ) -> tuple:
        """Step-5 extra optimisation round focused on one component.

        Races only the parameters belonging to ``component`` (e.g. the
        branch-prediction unit), over the micro-benchmarks that stress
        it, under a *weighted* cost that mixes the component's perf
        metrics with CPI — the paper's recipe for polishing a component
        whose error a low overall average can mask. Returns
        ``(tuned_config, IraceResult)``.
        """
        try:
            spec = _COMPONENT_ROUNDS[component]
        except KeyError:
            raise ValueError(
                f"unknown component {component!r}; choose from {sorted(_COMPONENT_ROUNDS)}"
            ) from None
        round_names = domain_param_names(config.core_type, component, stage=stage)
        full_space = param_space_for(config.core_type, stage=stage)
        params = [p for p in full_space if p.name in round_names]
        space = ParamSpace(params)
        instances = [n for n in spec["workloads"] if n in self._workload_by_name]
        if not instances:
            raise ValueError(f"none of the {component!r} workloads are in this campaign")
        # The engine caches raw SimStats, so racing the same runs under
        # this weighted cost reuses any CPI-cost simulations already done.
        evaluator = AssignmentEvaluator(
            self.engine,
            config,
            cost=make_weighted_cost(spec["weights"]),
            saturation=self.cost_saturation,
        )

        tuner = IraceTuner(
            space,
            evaluator,
            instances=instances,
            budget=budget,
            seed=self.seed + 97,
            n_elites=self.profile.n_elites,
            first_test=min(self.profile.first_test, max(2, len(instances) - 1)),
            initial_assignments=[space.default_assignment(config.flatten())],
            verbose=self.verbose,
            store=self.store,
            trial_context=self._trial_context(
                f"component-{component}", config, weights=spec["weights"]
            ),
            race_mode=self.race_mode,
            lookahead=self.lookahead,
        )
        result = tuner.run()
        return config.with_updates(result.best_assignment), result

    def step5_inspect(self, errors: dict) -> InspectionReport:
        """Step #5: per-component error inspection and fix recommendations."""
        per_category: dict = {}
        counts: dict = {}
        for name, err in errors.items():
            category = self._workload_by_name[name].category
            per_category[category] = per_category.get(category, 0.0) + err
            counts[category] = counts.get(category, 0) + 1
        per_category = {c: per_category[c] / counts[c] for c in per_category}
        overall = sum(errors.values()) / len(errors)
        # Thresholds compare against the *median* error: a couple of
        # anomalous kernels can push the mean so high that every other
        # outlier hides below it.
        ordered = sorted(errors.values())
        typical = ordered[len(ordered) // 2]

        recommendations = []
        indirect_errs = [errors[n] for n in ("CS1", "CS3") if n in errors]
        if indirect_errs and max(indirect_errs) > max(2 * typical, 0.20):
            recommendations.append(
                "indirect-branch kernels (CS1/CS3) show outlier error: add "
                "indirect-branch predictor support and re-tune (stage 2 space)"
            )
        anomaly_errs = [errors[n] for n in ("MM", "M_Dyn") if n in errors]
        if anomaly_errs and max(anomaly_errs) > max(3 * typical, 0.50):
            recommendations.append(
                "uninitialised-array kernels (MM/M_Dyn) behave like cache hits "
                "on hardware (OS zero page): initialise the arrays prior to "
                "simulation"
            )
        dp_err = per_category.get("dataparallel", 0.0)
        if isinstance(self.decoder, BuggyDecoder) and dp_err > max(1.5 * typical, 0.15):
            recommendations.append(
                "data-parallel kernels show dependence-modelling error: the "
                "decoder library drops FP source operands — fix the decoder"
            )
        mem_err = per_category.get("memory", 0.0)
        if mem_err > max(1.5 * typical, 0.25):
            recommendations.append(
                "memory kernels still err: widen prefetcher/hashing options "
                "(GHB prefetching, address hashing) for the next round"
            )
        return InspectionReport(
            per_benchmark=dict(errors),
            per_category=per_category,
            overall=overall,
            recommendations=recommendations,
        )

    def apply_fixes(self, inspection: InspectionReport) -> None:
        """Apply the step-5 recommendations that change workloads/decoder."""
        for rec in inspection.recommendations:
            if "initialise the arrays" in rec:
                for name in ("MM", "M_Dyn"):
                    if name in self._workload_by_name:
                        self.workload_overrides[name] = {"initialized": True}
            if "fix the decoder" in rec:
                self.decoder = Decoder()

    # ------------------------------------------------------------------
    def run(self, stages: int = 2, resume: bool = False) -> CampaignResult:
        """Execute the full campaign; returns all artefacts.

        With a store and a run id attached, every completed unit of work
        (the lmbench/untuned setup, then each stage) is checkpointed;
        ``resume=True`` replays checkpointed units verbatim — the step-5
        fixes are re-applied from the restored inspections, so a live
        stage after restored ones sees the exact state the uninterrupted
        run would have had — and continues from the first missing one.
        """
        if resume and not self._checkpointing:
            raise ValueError("resume=True needs both a store and a run_id")
        public = self.step1_public_config()
        setup = self._load_checkpoint(SETUP_STAGE) if resume else None
        if setup is not None:
            lmbench_config = public.with_updates(setup["lmbench_flat"])
            untuned_errors = dict(setup["untuned_errors"])
            if self.verbose:
                print(f"[campaign] setup restored from checkpoint ({self.run_id})")
        else:
            lmbench_config = self.step2_lmbench(public)
            untuned_errors = self.evaluate(lmbench_config)
            self._save_checkpoint(SETUP_STAGE, {
                "lmbench_flat": lmbench_config.flatten(),
                "untuned_errors": untuned_errors,
            })
            if self.verbose:
                mean = sum(untuned_errors.values()) / len(untuned_errors)
                print(f"[campaign] untuned mean CPI error: {mean:.1%}")
        config = lmbench_config

        stage_results: list = []
        budgets = [self.profile.stage1_budget, self.profile.stage2_budget]
        for stage in range(1, stages + 1):
            payload = self._load_checkpoint(stage_name(stage)) if resume else None
            if payload is not None:
                stage_result = self._stage_from_payload(payload, public)
                config = stage_result.tuned_config
                inspection = stage_result.inspection
                if self.verbose:
                    print(f"[campaign] stage {stage} restored from checkpoint")
            else:
                budget = budgets[min(stage - 1, len(budgets) - 1)]
                config, irace_result = self.step4_tune(config, stage, budget)
                errors = self.evaluate(config)
                inspection = self.step5_inspect(errors)
                stage_result = StageResult(
                    stage=stage,
                    irace=irace_result,
                    tuned_config=config,
                    errors=errors,
                    inspection=inspection,
                )
                self._save_checkpoint(stage_name(stage), self._stage_to_payload(stage_result))
                if self.verbose:
                    print(f"[campaign] stage {stage}:\n{inspection.summary()}")
            stage_results.append(stage_result)
            if stage < stages:
                self.apply_fixes(inspection)

        final_errors = stage_results[-1].errors
        return CampaignResult(
            core=self.core_name,
            profile=self.profile.name,
            public_config=public,
            # Reuse the step-2 config computed above; re-running lmbench
            # here would repeat its hardware measurements for a field.
            lmbench_config=lmbench_config,
            untuned_errors=untuned_errors,
            stages=stage_results,
            final_config=config,
            final_errors=final_errors,
        )
