"""Per-layer accounting for the benchmark's traced run.

The traced run wraps the public entry point of each layer in a span
opened from this file, around the call into the program; the program's
own spans stay as they are.  The program is not edited: the wrappers are
installed on every ``repro`` module that holds a reference to the entry
point, and removed again when the traced run ends.

A layer's self time is its span's duration minus the part covered by
nested *layer* spans (program spans in between are transparent).  Time
inside no layer span at all is reported as ``core.methodology.self_s``.
Counts come from span attributes (states, transitions, nnz, iterations,
matvecs) and from the program's own counters in ``repro.obs.metrics``
(cache events, simulated runs and events, parametric fallbacks).
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs import tracing


def _lts_counts(_state, lts, _args) -> Dict[str, int]:
    return {"states": lts.num_states, "transitions": lts.num_transitions}


def _ctmc_counts(_state, ctmc, _args) -> Dict[str, int]:
    # Nonzeros of the generator: off-diagonal transitions plus the diagonal.
    off_diagonal = sum(
        1 for transition in ctmc.transitions
        if transition.source != transition.target
    )
    return {"states": ctmc.num_states, "nnz": off_diagonal + ctmc.num_states}


def _matvecs_before(args, kwargs) -> int:
    operand = args[0] if args else kwargs.get("q")
    return int(getattr(operand, "matvec_count", 0))


def _solve_counts(before, solution, args) -> Dict[str, int]:
    report = solution.report
    return {
        "iterations": report.iterations,
        "matvecs": int(getattr(args[0], "matvec_count", 0)) - before,
        "power_calls": int(
            report.method == "power" or "power" in report.fallbacks
        ),
        "fallbacks": len(report.fallbacks),
    }


def _weak_counts(_state, _result, args) -> Dict[str, int]:
    return {"states": args[0].num_states}


def _lumping_counts(_state, _result, args) -> Dict[str, int]:
    return {"states": args[0].size}


#: (layer, module, attribute or Class.method, before-hook, count-hook).
#: The hooks run inside the span; ``before`` sees the call's arguments,
#: ``counts`` its state, result and arguments.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("aemilia.parse", "repro.aemilia.parser", "parse_architecture", None, None),
    ("aemilia.generate", "repro.aemilia.semantics",
     "StateSpaceGenerator.generate", None, _lts_counts),
    ("runtime.relabel", "repro.runtime.statespace_cache",
     "ParametricLTS.relabel", None, None),
    ("ctmc.build", "repro.ctmc.build", "build_ctmc", None, _ctmc_counts),
    ("ctmc.measures", "repro.ctmc.measures", "evaluate_measures", None, None),
    ("ctmc.measures", "repro.ctmc.measures", "evaluate_measure", None, None),
    ("ctmc.solve", "repro.ctmc.solvers", "solve_steady_state",
     _matvecs_before, _solve_counts),
    ("ctmc.parametric.build", "repro.ctmc.parametric",
     "build_parametric_solution", None, None),
    ("ctmc.parametric.eval", "repro.ctmc.parametric",
     "ParametricSolution.evaluate", None, None),
    ("ctmc.transient", "repro.ctmc.transient", "transient_distribution",
     None, None),
    ("ctmc.transient", "repro.ctmc.rewards", "mean_time_to_absorption",
     None, None),
    ("lts.weak", "repro.lts.weak", "weak_bisimulation", None, _weak_counts),
    ("lts.distinguish", "repro.lts.distinguish", "distinguishing_formula",
     None, None),
    ("lts.distinguish", "repro.lts.distinguish", "verify_distinguishing",
     None, None),
    ("sim.engine", "repro.sim.engine", "Simulator.run", None, None),
    ("sim.fastengine", "repro.sim.fastengine", "FastSimulator.run_many",
     None, None),
    ("fleet.lumping", "repro.fleet.lumping", "LumpedFleet.__init__",
     None, _lumping_counts),
    ("fleet.measures", "repro.fleet.measures", "evaluate_lumped", None, None),
)

LAYERS = frozenset(target[0] for target in TARGETS)

#: Program counters read around the traced run: metric name -> (family,
#: label filter).  A ``None`` filter sums every series of the family.
COUNTERS = {
    "runtime.cache.hits": ("repro_cache_events_total", {"kind": "hit"}),
    "runtime.cache.misses": ("repro_cache_events_total", {"kind": "miss"}),
    "ctmc.parametric.fallbacks": ("repro_parametric_fallbacks_total", None),
    "sim.engine.runs": ("repro_sim_runs_total", None),
    "sim.engine.events": ("repro_sim_events_total", None),
    "sim.fastengine.runs": ("repro_fastsim_runs_total", None),
    "sim.fastengine.events": ("repro_fastsim_events_total", None),
}

#: Reported per-layer metric -> (layer, field) of :func:`layer_totals`.
SPAN_METRICS = {
    "aemilia.parse.s": ("aemilia.parse", "s"),
    "aemilia.generate.calls": ("aemilia.generate", "calls"),
    "aemilia.generate.s": ("aemilia.generate", "s"),
    "aemilia.generate.states": ("aemilia.generate", "states"),
    "aemilia.generate.transitions": ("aemilia.generate", "transitions"),
    "runtime.relabel.calls": ("runtime.relabel", "calls"),
    "runtime.relabel.s": ("runtime.relabel", "s"),
    "ctmc.build.calls": ("ctmc.build", "calls"),
    "ctmc.build.s": ("ctmc.build", "s"),
    "ctmc.build.states": ("ctmc.build", "states"),
    "ctmc.build.nnz": ("ctmc.build", "nnz"),
    "ctmc.measures.calls": ("ctmc.measures", "calls"),
    "ctmc.measures.s": ("ctmc.measures", "s"),
    "ctmc.solve.calls": ("ctmc.solve", "calls"),
    "ctmc.solve.s": ("ctmc.solve", "s"),
    "ctmc.solve.iterations": ("ctmc.solve", "iterations"),
    "ctmc.solve.matvecs": ("ctmc.solve", "matvecs"),
    "ctmc.solve.power_calls": ("ctmc.solve", "power_calls"),
    "ctmc.solve.fallbacks": ("ctmc.solve", "fallbacks"),
    "ctmc.parametric.build_s": ("ctmc.parametric.build", "s"),
    "ctmc.parametric.evals": ("ctmc.parametric.eval", "calls"),
    "ctmc.parametric.eval_s": ("ctmc.parametric.eval", "s"),
    "ctmc.transient.calls": ("ctmc.transient", "calls"),
    "ctmc.transient.s": ("ctmc.transient", "s"),
    "lts.weak.calls": ("lts.weak", "calls"),
    "lts.weak.s": ("lts.weak", "s"),
    "lts.weak.states": ("lts.weak", "states"),
    "lts.distinguish.s": ("lts.distinguish", "s"),
    "sim.engine.s": ("sim.engine", "s"),
    "sim.fastengine.s": ("sim.fastengine", "s"),
    "fleet.lumping.calls": ("fleet.lumping", "calls"),
    "fleet.lumping.s": ("fleet.lumping", "s"),
    "fleet.lumping.states": ("fleet.lumping", "states"),
    "fleet.measures.s": ("fleet.measures", "s"),
}


#: The count attributes the hooks in :data:`TARGETS` set.
COUNT_FIELDS = frozenset(
    field for _layer, field in SPAN_METRICS.values()
) - {"s", "calls"}


def _wrap(layer: str, original: Callable, before, counts) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with tracing.span(layer) as span:
            state = before(args, kwargs) if before is not None else None
            result = original(*args, **kwargs)
            if counts is not None:
                span.set_attributes(**counts(state, result, args))
        return result

    return wrapper


class Instrumentation:
    """Installs the layer wrappers for the duration of a ``with`` block."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def _replace(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __enter__(self) -> "Instrumentation":
        try:
            self._install()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _install(self) -> None:
        loaded = [
            module for name, module in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
        ]
        for layer, module_name, attribute, before, counts in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._replace(
                    owner, method, _wrap(layer, original, before, counts)
                )
                continue
            original = getattr(module, attribute)
            wrapped = _wrap(layer, original, before, counts)
            # Rebind every module-level reference, so callers that did
            # ``from ... import name`` reach the wrapper too.
            for holder in loaded:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._replace(holder, name, wrapped)

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def counter_values() -> Dict[str, float]:
    """Current values of the program counters in :data:`COUNTERS`."""
    snapshot = obs_metrics.get_registry().snapshot()
    values = {}
    for metric, (family, wanted) in COUNTERS.items():
        total = 0.0
        for series in snapshot.get(family, {}).get("series", ()):
            labels = series.get("labels", {})
            if wanted is None or all(
                labels.get(key) == value for key, value in wanted.items()
            ):
                total += float(series.get("value", 0.0))
        values[metric] = total
    return values


def layer_totals(
    records: Iterable[Dict[str, Any]],
) -> Tuple[Dict[str, Dict[str, float]], float]:
    """Per-layer calls, self seconds and counts, plus top-level layer time.

    Returns ``(totals, covered)``: ``totals[layer]`` holds ``calls``
    (spans not nested in a span of the same layer), ``s`` (self time)
    and the summed count attributes; ``covered`` is the summed duration
    of layer spans nested in no other layer span.
    """
    records = list(records)
    by_id = {record["span"]: record for record in records}

    def enclosing_layer(record):
        parent = by_id.get(record.get("parent"))
        while parent is not None and parent["name"] not in LAYERS:
            parent = by_id.get(parent.get("parent"))
        return parent

    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float)
    )
    covered = 0.0
    for record in records:
        if record["name"] not in LAYERS:
            continue
        duration = record["end"] - record["start"]
        layer = totals[record["name"]]
        layer["s"] += duration
        parent = enclosing_layer(record)
        if parent is None:
            covered += duration
        else:
            totals[parent["name"]]["s"] -= duration
        if parent is None or parent["name"] != record["name"]:
            layer["calls"] += 1
        # Program code may attach its own attributes to the innermost
        # span, which can be a layer span: sum the benchmark's counts only.
        for key, value in record.get("attrs", {}).items():
            if key in COUNT_FIELDS:
                layer[key] += value
    return totals, covered
