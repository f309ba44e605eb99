"""The benchmark's three workloads: ``analytic``, ``simulate`` and ``fleet``.

Each workload has four parts:

* ``inputs(seed)`` makes the inputs from the benchmark seed: sweep grids
  and simulation seeds.  Grids are the paper's (or the quick suite's)
  points, each moved by up to +-5 %, so the work per round does not
  depend on the seed while the values do;
* ``setup(inputs)`` builds the models (imports and Æmilia parsing
  happen here), the part reported as ``setup_s``;
* ``round(models, inputs, ops)`` is one timed round: every call goes
  through ``ops`` so failures are counted, and the phase boundaries are
  timed;
* ``check(models, inputs, outputs)`` runs after the timed region and
  returns the problems found (see :mod:`checks`).

Every round clears the generator's process-wide guard cache first, and
the analytic and simulate rounds build fresh methodology objects (fresh
state-space caches), so each round does the work of a fresh invocation
on already-parsed models.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

import checks
from repro.aemilia import expressions
from repro.casestudies import rpc, streaming
from repro.casestudies.fleet import POLICIES, build_model, DEFAULT_PARAMETERS
from repro.core import methodology as core_methodology
from repro.core.methodology import IncrementalMethodology
from repro.core.noninterference import check_noninterference
from repro.core.validation import exponential_plugin
from repro.ctmc.build import build_ctmc
from repro.ctmc.measures import evaluate_measure
from repro.ctmc.solvers import solve_steady_state
from repro.ctmc.steady_state import steady_state, steady_state_solution
from repro.experiments import extensions
from repro.fleet.flat import build_flat_topology
from repro.fleet.lumping import LumpedFleet
from repro.fleet.measures import evaluate_flat
from repro.fleet.solve import solve_fleet
from repro.lts.distinguish import verify_distinguishing
from repro.obs import metrics as obs_metrics

#: The program's default simulation seed (the paper's date).  The Sect.
#: 5.1 validations run on it whatever the benchmark seed: their verdict
#: is a statistical test, and seeded with 1..40 the streaming validation
#: fails on seed 16 (frames_lost 4.3 standard errors high), so a seeded
#: validation would make runs fail on some seeds only.
PAPER_SEED = 20040628

#: Iteration budget of the N = 9 fleet solve.  GMRES needs at most 200
#: matvecs at N <= 9; ``auto`` picks power iteration above 50,000 states,
#: which needs 18,514 (81 s), exhausts this budget and falls back.
FLEET_LARGE_BUDGET = 1_000


class OpLog:
    """Counts attempted and failed operations of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def run(self, name: str, call: Callable, *args, weight: int = 1, **kwargs):
        """Call ``call(*args, **kwargs)``; *weight* operations it stands for.

        A failure is recorded and yields ``None``: the run goes on and
        reports the failure instead of stopping.
        """
        self.attempted += weight
        try:
            return call(*args, **kwargs)
        except Exception as error:  # the benchmark reports every failure
            self.failed += weight
            self.errors.append(f"{name}: {type(error).__name__}: {error}")
            return None


def _jitter(rng: np.random.Generator, values, spread: float = 0.05) -> List[float]:
    return [
        float(value * (1.0 + rng.uniform(-spread, spread))) for value in values
    ]


def _events() -> float:
    registry = obs_metrics.get_registry()
    return registry.value("repro_sim_events_total") + registry.value(
        "repro_fastsim_events_total"
    )


class _SolutionCapture:
    """Keeps the distribution and generator of every Markovian solve.

    Rebinds the methodology module's ``steady_state_solution`` to a
    function that records ``(pi, backend, Q)``; the distributions are
    otherwise internal to the sweep.  Only the sparse generator is kept,
    not the CTMC object, so the capture adds little to the peak memory.
    """

    def __init__(self) -> None:
        self.solved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "_SolutionCapture":
        self._original = core_methodology.steady_state_solution

        def recording(ctmc, *args, **kwargs):
            solution = self._original(ctmc, *args, **kwargs)
            self.solved.append(
                (solution.pi, solution.report.method, ctmc.generator_matrix())
            )
            return solution

        core_methodology.steady_state_solution = recording
        return self

    def __exit__(self, *exc_info) -> None:
        core_methodology.steady_state_solution = self._original


# ---------------------------------------------------------------------------
# analytic: phases 1-2 of both case studies plus transient analysis
# ---------------------------------------------------------------------------

STREAMING_CAPACITIES = [4, 6, 8, 10, 12]


def analytic_inputs(seed: int) -> Dict[str, Any]:
    rng = np.random.default_rng([seed, 1])
    interior = np.sort(rng.uniform(10.0, 800.0, 998))
    return {
        "awake_periods": sorted(_jitter(rng, np.geomspace(10.0, 800.0, 12))),
        "timeouts": sorted(_jitter(rng, [0.5, 2.0, 5.0, 9.0, 11.0, 12.5, 15.0, 25.0])),
        # The dense grid keeps the paper's end points, so the parametric
        # elimination always covers the same domain.
        "dense": [10.0] + interior.tolist() + [800.0],
        "lifetime_timeouts": _jitter(rng, [1.0, 5.0]),
        "survival_times": sorted(_jitter(rng, [50.0, 150.0, 300.0])),
        "check_picks": rng.integers(0, 1 << 30, 4).tolist(),
    }


def analytic_setup(inputs) -> Dict[str, Any]:
    return {
        "rpc": rpc.family(),
        "streaming": streaming.family(),
        "rpc_simplified": rpc.functional.simplified_architecture(),
        "rpc_revised": rpc.functional.revised_architecture(),
    }


def analytic_round(models, inputs, ops: OpLog):
    expressions.GUARD_CACHE.clear()
    phases = {}
    out: Dict[str, Any] = {}
    started = time.perf_counter()
    out["rpc_simplified"] = ops.run(
        "noninterference rpc simplified", check_noninterference,
        models["rpc_simplified"], rpc.functional.HIGH_PATTERNS,
        rpc.functional.LOW_PATTERNS,
    )
    out["rpc_revised"] = ops.run(
        "noninterference rpc revised", check_noninterference,
        models["rpc_revised"], rpc.functional.HIGH_PATTERNS,
        rpc.functional.LOW_PATTERNS,
    )
    out["streaming_ni"] = ops.run(
        "noninterference streaming", check_noninterference,
        models["streaming"].functional_dpm,
        streaming.functional.HIGH_PATTERNS,
        streaming.functional.LOW_PATTERNS,
        const_overrides=streaming.functional.FUNCTIONAL_CAPACITIES,
    )
    phases["functional_s"] = time.perf_counter() - started

    started = time.perf_counter()
    stream = IncrementalMethodology(models["streaming"], workers=1)
    rpc_m = IncrementalMethodology(models["rpc"], workers=1)
    with _SolutionCapture() as capture:
        out["awake"] = ops.run(
            "streaming awake-period sweep", stream.sweep_markovian,
            "awake_period", inputs["awake_periods"], "dpm",
            weight=len(inputs["awake_periods"]),
        )
        out["streaming_nodpm"] = ops.run(
            "streaming NO-DPM point", stream.solve_markovian, "nodpm"
        )
        out["capacity"] = ops.run(
            "streaming capacity sweep", stream.sweep_markovian,
            "ap_capacity", STREAMING_CAPACITIES, "dpm",
            weight=len(STREAMING_CAPACITIES),
        )
        out["timeout"] = ops.run(
            "rpc timeout sweep", rpc_m.sweep_markovian,
            "shutdown_timeout", inputs["timeouts"], "dpm",
            weight=len(inputs["timeouts"]),
        )
        out["rpc_nodpm"] = ops.run(
            "rpc NO-DPM point", rpc_m.solve_markovian, "nodpm"
        )
    out["solved"] = capture.solved
    points = (
        len(inputs["awake_periods"]) + len(STREAMING_CAPACITIES)
        + len(inputs["timeouts"]) + 2
    )
    phases["markov_points_per_s"] = points / (time.perf_counter() - started)

    started = time.perf_counter()
    dense = IncrementalMethodology(models["streaming"], workers=1)
    out["dense"] = ops.run(
        "streaming dense sweep", dense.sweep_markovian,
        "awake_period", inputs["dense"], "dpm",
    )
    phases["dense_sweep_s"] = time.perf_counter() - started
    out["dense_method"] = (
        dense.solver_records[0]["method"] if dense.solver_records else None
    )

    out["lifetime"] = ops.run(
        "battery lifetime", extensions.battery_lifetime,
        timeouts=inputs["lifetime_timeouts"], capacity=15,
    )
    out["survival"] = ops.run(
        "battery survival", extensions.battery_survival,
        times=inputs["survival_times"], capacity=8,
    )
    return out, phases


def analytic_digest(out) -> Dict[str, Any]:
    def verdict(result):
        return [result.holds, result.formula.render() if result.formula else None]

    def lifetime(result):
        return [result.lifetimes, result.nodpm_lifetime]

    def survival(result):
        return [result.dpm_survival, result.nodpm_survival]

    shapes = dict.fromkeys(("rpc_simplified", "rpc_revised", "streaming_ni"), verdict)
    shapes.update(lifetime=lifetime, survival=survival)
    return {
        key: None if out[key] is None else shapes.get(key, lambda value: value)(out[key])
        for key in (
            "rpc_simplified", "rpc_revised", "streaming_ni", "awake",
            "streaming_nodpm", "capacity", "timeout", "rpc_nodpm", "dense",
            "lifetime", "survival",
        )
    }


def analytic_check(models, inputs, out) -> List[str]:
    problems: List[str] = []
    simplified = out["rpc_simplified"]
    if simplified is not None:
        problems += checks.check_verdict("rpc simplified", simplified.holds, False)
        if simplified.formula is not None:
            check = simplified.check
            problems += checks.check_formula(
                "rpc simplified",
                simplified.formula.render(),
                verify_distinguishing(
                    check.result, simplified.formula,
                    check.initial_first, check.initial_second,
                ),
            )
    for key, name in (("rpc_revised", "rpc revised"), ("streaming_ni", "streaming 2/2")):
        if out[key] is not None:
            problems += checks.check_verdict(name, out[key].holds, True)

    rng = np.random.default_rng(inputs["check_picks"])
    solved = out["solved"]
    for index, (pi, _method, generator) in enumerate(solved):
        problems += checks.check_distribution(
            f"markov point {index}", pi, generator
        )
    for index in sorted(rng.choice(len(solved), size=min(3, len(solved)), replace=False)):
        pi, method, generator = solved[index]
        if method == "closed_form":
            continue
        # The recurrent class is where pi is positive; solve it again.
        support = np.flatnonzero(pi > 0.0)
        second = "gmres" if method == "direct" else "direct"
        again = solve_steady_state(
            generator[support][:, support], method=second
        )
        problems += checks.check_vectors_agree(
            f"markov point {index} {method} vs {second}",
            pi[support], again.pi,
        )

    if out["dense"] is not None:
        if out["dense_method"] != "parametric":
            problems.append(
                f"dense sweep solved by {out['dense_method']!r}, not on the "
                f"parametric path"
            )
        direct = IncrementalMethodology(models["streaming"], workers=1, solver="direct")
        grid = inputs["dense"]
        for index in sorted(rng.choice(len(grid), size=3, replace=False)):
            expected = direct.solve_markovian("dpm", {"awake_period": grid[index]})
            problems += checks.check_agreement(
                f"dense point {index} vs direct solve",
                {name: series[index] for name, series in out["dense"].items()},
                expected, relative=True,
            )

    if out["survival"] is not None:
        survival = out["survival"]
        problems += checks.check_survival("survival DPM", survival.times, survival.dpm_survival)
        problems += checks.check_survival("survival NO-DPM", survival.times, survival.nodpm_survival)
    if out["lifetime"] is not None:
        lifetime = out["lifetime"]
        problems += checks.check_bounds(
            "battery lifetime",
            list(lifetime.lifetimes.values()) + [lifetime.nodpm_lifetime],
            1e-9, float("inf"),
        )
    return problems


# ---------------------------------------------------------------------------
# simulate: phase 3, general-model sweeps plus Sect. 5.1 validations
# ---------------------------------------------------------------------------

#: Power bounds of the measures (the models' lowest and highest level).
RPC_POWER = (0.0, 3.0)
STREAMING_POWER = (0.075, 1.6)


#: The Sect. 5.1 validations: (output key, family, point, settings), as
#: in the rpc fig5 and the streaming validation experiments.
VALIDATIONS = (
    ("rpc_validation", "rpc", {"shutdown_timeout": 5.0},
     {"run_length": 20_000.0, "warmup": 500.0, "relative_tolerance": 0.10}),
    ("streaming_validation", "streaming", {"awake_period": 50.0},
     {"run_length": 30_000.0, "warmup": 1_000.0, "relative_tolerance": 0.15}),
)


def simulate_inputs(seed: int) -> Dict[str, Any]:
    rng = np.random.default_rng([seed, 2])
    return {
        "timeouts": sorted(_jitter(rng, [0.5, 2.0, 5.0, 9.0, 11.0, 12.5, 15.0, 25.0])),
        "awake_periods": sorted(_jitter(rng, [10.0, 50.0, 100.0, 200.0, 400.0, 800.0])),
        "rpc_seed": int(rng.integers(1, 1 << 31)),
        "streaming_seed": int(rng.integers(1, 1 << 31)),
    }


def simulate_setup(inputs) -> Dict[str, Any]:
    return {"rpc": rpc.family(), "streaming": streaming.family()}


def simulate_round(models, inputs, ops: OpLog):
    expressions.GUARD_CACHE.clear()
    phases = {}
    out: Dict[str, Any] = {}
    events = _events()
    started = time.perf_counter()
    rpc_m = IncrementalMethodology(models["rpc"], workers=1)
    stream = IncrementalMethodology(models["streaming"], workers=1)
    out["rpc_general"] = ops.run(
        "rpc general sweep", rpc_m.sweep_general,
        "shutdown_timeout", inputs["timeouts"], "dpm",
        run_length=10_000.0, runs=4, warmup=500.0, seed=inputs["rpc_seed"],
        weight=len(inputs["timeouts"]),
    )
    out["streaming_general"] = ops.run(
        "streaming general sweep", stream.sweep_general,
        "awake_period", inputs["awake_periods"], "dpm",
        run_length=30_000.0, runs=3, warmup=2_000.0,
        seed=inputs["streaming_seed"], weight=len(inputs["awake_periods"]),
    )
    phases["general_sweep_s"] = time.perf_counter() - started

    started = time.perf_counter()
    for key, family, overrides, settings in VALIDATIONS:
        methodology = IncrementalMethodology(models[family], workers=1)
        out[key] = ops.run(
            f"{family} validation", methodology.validate, overrides,
            runs=30, seed=PAPER_SEED, engine="fast", **settings,
        )
    phases["validation_s"] = time.perf_counter() - started
    out["events"] = _events() - events
    return out, phases


def _validation_digest(report):
    if report is None:
        return None
    return {
        name: [value.analytic, value.simulated.mean, value.simulated.half_width]
        for name, value in report.measures.items()
    }


def simulate_digest(out) -> Dict[str, Any]:
    return {
        "rpc_general": out["rpc_general"],
        "streaming_general": out["streaming_general"],
        "rpc_validation": _validation_digest(out["rpc_validation"]),
        "streaming_validation": _validation_digest(out["streaming_validation"]),
    }


def simulate_check(models, inputs, out) -> List[str]:
    problems: List[str] = []
    rpc_series = out["rpc_general"]
    if rpc_series is not None:
        problems += checks.check_bounds("rpc waiting probability", rpc_series["waiting_time"], 0.0, 1.0)
        problems += checks.check_bounds("rpc power", rpc_series["energy"], *RPC_POWER)
        problems += checks.check_bounds("rpc throughput", rpc_series["throughput"], 0.0, float("inf"))
    stream_series = out["streaming_general"]
    if stream_series is not None:
        problems += checks.check_bounds("NIC power", stream_series["nic_power"], *STREAMING_POWER)
        for numerator, denominator in (("frames_lost", "frames_produced"), ("frame_misses", "frame_gets")):
            problems += checks.check_bounds(
                f"{numerator}/{denominator}",
                [a / b for a, b in zip(stream_series[numerator], stream_series[denominator]) if b > 0],
                0.0, 1.0,
            )
    for key, family, overrides, settings in VALIDATIONS:
        report = out[key]
        if report is None:
            continue
        # The analytic side again, from the exponential plug-in solved by
        # a different backend than the program's default.
        lts = IncrementalMethodology(models[family], workers=1).build_lts(
            "general", "dpm", overrides
        )
        ctmc = build_ctmc(exponential_plugin(lts))
        pi = steady_state(ctmc, method="gmres")
        analytic = {
            measure.name: evaluate_measure(ctmc, pi, measure)
            for measure in models[family].measures
        }
        problems += checks.check_agreement(
            f"{key} analytic values",
            {name: value.analytic for name, value in report.measures.items()},
            analytic, relative=True,
        )
        for name, value in report.measures.items():
            problems += checks.check_validation(
                f"{key} {name}", analytic[name], value.simulated.mean,
                value.simulated.half_width, settings["relative_tolerance"],
            )
    return problems


# ---------------------------------------------------------------------------
# fleet: lumped matrix-free solves, N = 6..8 x 4 policies, plus N = 9
# ---------------------------------------------------------------------------

FLEET_LADDER = (6, 7, 8)
FLEET_LARGE = 9
FLEET_ORACLE = (3, 4)


def fleet_inputs(seed: int) -> Dict[str, Any]:
    rng = np.random.default_rng([seed, 3])
    (arrival,) = _jitter(rng, [DEFAULT_PARAMETERS.arrival_rate], spread=0.02)
    return {"parameters": DEFAULT_PARAMETERS.override({"arrival_rate": arrival})}


def fleet_setup(inputs) -> Dict[str, Any]:
    parameters = inputs["parameters"]
    ladder = {
        (n, policy): build_model(n, policy, parameters)
        for n in FLEET_LADDER for policy in sorted(POLICIES)
    }
    return {
        "ladder": ladder,
        "large": build_model(FLEET_LARGE, "balanced", parameters),
    }


def fleet_round(models, inputs, ops: OpLog):
    expressions.GUARD_CACHE.clear()
    phases = {}
    out: Dict[str, Any] = {"ladder": {}}
    started = time.perf_counter()
    for key, model in models["ladder"].items():
        out["ladder"][key] = ops.run(
            f"fleet N={key[0]} {key[1]}", solve_fleet,
            model.topology, model.measures, keep_distribution=True,
        )
    phases["fleet_ladder_s"] = time.perf_counter() - started
    started = time.perf_counter()
    large = models["large"]
    out["large"] = ops.run(
        f"fleet N={FLEET_LARGE} auto", solve_fleet,
        large.topology, large.measures, method="auto",
        max_iterations=FLEET_LARGE_BUDGET, keep_distribution=True,
    )
    phases["fleet_large_s"] = time.perf_counter() - started
    return out, phases


def fleet_digest(out) -> Dict[str, Any]:
    solutions = {f"N={n} {policy}": out["ladder"][(n, policy)] for n, policy in out["ladder"]}
    solutions[f"N={FLEET_LARGE} auto"] = out["large"]
    return {
        key: None if solution is None else solution.measures
        for key, solution in solutions.items()
    }


def fleet_check(models, inputs, out) -> List[str]:
    problems: List[str] = []
    parameters = inputs["parameters"]
    for n in FLEET_ORACLE:
        for policy in sorted(POLICIES):
            model = build_model(n, policy, parameters)
            lumped = solve_fleet(model.topology, model.measures)
            flat = build_flat_topology(model.topology)
            oracle = steady_state_solution(flat.ctmc, method="sor")
            problems += checks.check_agreement(
                f"fleet N={n} {policy} lumped vs flat oracle",
                lumped.measures,
                evaluate_flat(model.measures, oracle.pi, flat),
            )
    for key, solution in sorted(out["ladder"].items()):
        if solution is not None:
            problems += checks.check_distribution(
                f"fleet N={key[0]} {key[1]}", solution.pi,
                LumpedFleet(models["ladder"][key].topology).operator(),
            )
    large = out["large"]
    if large is not None:
        # A solve by the other matrix-free backend (power, 81 s here) does
        # not fit in a run; the returned distribution is checked against
        # the operator directly instead.
        problems += checks.check_distribution(
            f"fleet N={FLEET_LARGE} auto", large.pi,
            LumpedFleet(models["large"].topology).operator(),
        )
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable
    setup: Callable
    round: Callable
    digest: Callable
    check: Callable


WORKLOADS = {
    "analytic": Workload(
        "analytic", analytic_inputs, analytic_setup, analytic_round,
        analytic_digest, analytic_check,
    ),
    "simulate": Workload(
        "simulate", simulate_inputs, simulate_setup, simulate_round,
        simulate_digest, simulate_check,
    ),
    "fleet": Workload(
        "fleet", fleet_inputs, fleet_setup, fleet_round, fleet_digest,
        fleet_check,
    ),
}
