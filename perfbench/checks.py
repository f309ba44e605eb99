"""Correctness checks run after each workload's timed region.

Every check returns a list of problems (empty when it passes).  Each one
compares a program output against a computation made apart from the
program, or against a property the method must have; none compares
against a stored copy of an earlier run's output.  The functions take
plain numbers and arrays, so ``perfbench/tests`` can show that each of
them rejects a perturbed result.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Mapping, Sequence

import numpy as np

#: The distinguishing formula printed in the paper (Sect. 3.1) for the
#: simplified rpc model: the client can send a request after which the
#: result can never be delivered.
PAPER_RPC_FORMULA = (
    "EXISTS_WEAK_TRANS(LABEL(C.send_rpc_packet#RCS.get_packet); "
    "REACHED_STATE_SAT(NOT(EXISTS_WEAK_TRANS("
    "LABEL(RSC.deliver_packet#C.receive_result_packet); "
    "REACHED_STATE_SAT(TRUE)))))"
)

#: The steady-state solver contract (docs/SOLVERS.md): a returned
#: distribution satisfies ``||pi Q||_inf <= 1e-10 * max(1, max|Q_ii|)``.
RESIDUAL_TOLERANCE = 1e-10

#: Largest deviation of ``sum(pi)`` from 1 accepted from a solver.
MASS_TOLERANCE = 1e-12

#: Agreement required between two independent solves of one chain.
AGREEMENT_TOLERANCE = 1e-9


def _compact(text: str) -> str:
    return "".join(text.split())


def check_verdict(name: str, holds: bool, expected: bool) -> List[str]:
    """A noninterference verdict must match the paper's."""
    if bool(holds) != expected:
        return [
            f"{name}: noninterference {'holds' if holds else 'fails'}, "
            f"the paper says it {'holds' if expected else 'fails'}"
        ]
    return []


def check_formula(name: str, rendered: str, verified: bool) -> List[str]:
    """The diagnostic formula is the paper's and separates the systems."""
    problems = []
    if _compact(rendered) != _compact(PAPER_RPC_FORMULA):
        problems.append(
            f"{name}: distinguishing formula {_compact(rendered)} differs "
            f"from the paper's {PAPER_RPC_FORMULA}"
        )
    if not verified:
        problems.append(
            f"{name}: the formula does not hold on the DPM system and "
            f"fail on the NO-DPM system"
        )
    return problems


def check_distribution(name: str, pi, generator) -> List[str]:
    """*pi* is a stationary distribution of *generator*.

    *generator* is a sparse generator matrix or a matrix-free operator
    with ``diagonal()``; the residual ``pi Q`` is computed here, not
    taken from the solver's report.
    """
    pi = np.asarray(pi, float).reshape(-1)
    problems = []
    if not np.all(np.isfinite(pi)):
        return [f"{name}: distribution has non-finite entries"]
    if pi.min(initial=0.0) < 0.0:
        problems.append(f"{name}: negative probability {pi.min():.3e}")
    mass = float(pi.sum())
    if abs(mass - 1.0) > MASS_TOLERANCE:
        problems.append(f"{name}: probabilities sum to {mass!r}, not 1")
    flow = np.asarray(generator.T @ pi, float).reshape(-1)
    residual = float(np.abs(flow).max(initial=0.0))
    scale = max(1.0, float(np.abs(generator.diagonal()).max(initial=0.0)))
    if not residual <= RESIDUAL_TOLERANCE * scale:
        problems.append(
            f"{name}: residual ||pi Q||_inf = {residual:.3e} exceeds "
            f"{RESIDUAL_TOLERANCE:.0e} * {scale:.3g}"
        )
    return problems


def check_agreement(
    name: str,
    values: Mapping[str, float],
    reference: Mapping[str, float],
    tolerance: float = AGREEMENT_TOLERANCE,
    relative: bool = False,
) -> List[str]:
    """Two computations of the same quantities agree to *tolerance*.

    With ``relative=True`` the bound scales with ``max(1e-300, |ref|)``
    (for measures spanning orders of magnitude), else it is absolute.
    """
    problems = []
    if set(values) != set(reference):
        return [
            f"{name}: compared {sorted(values)} against {sorted(reference)}"
        ]
    for key in sorted(reference):
        value, expected = float(values[key]), float(reference[key])
        bound = tolerance * (max(abs(expected), 1e-300) if relative else 1.0)
        if not abs(value - expected) <= bound:
            problems.append(
                f"{name}: {key} = {value!r} vs {expected!r} "
                f"(|diff| {abs(value - expected):.3e} > {bound:.3e})"
            )
    return problems


def check_vectors_agree(
    name: str, first, second, tolerance: float = AGREEMENT_TOLERANCE
) -> List[str]:
    """Two distributions of one chain agree entry by entry."""
    first = np.asarray(first, float).reshape(-1)
    second = np.asarray(second, float).reshape(-1)
    if first.shape != second.shape:
        return [f"{name}: shapes {first.shape} and {second.shape} differ"]
    gap = float(np.abs(first - second).max(initial=0.0))
    if not gap <= tolerance:
        return [f"{name}: max |pi1 - pi2| = {gap:.3e} > {tolerance:.0e}"]
    return []


def check_bounds(
    name: str, values: Iterable[float], low: float, high: float
) -> List[str]:
    """Every value is finite and lies in ``[low, high]``."""
    bad = [
        value for value in values
        if not (math.isfinite(value) and low <= value <= high)
    ]
    if bad:
        return [
            f"{name}: {len(bad)} value(s) outside [{low}, {high}], "
            f"e.g. {bad[0]!r}"
        ]
    return []


def check_survival(name: str, times: Sequence[float], values) -> List[str]:
    """A survival curve lies in [0, 1] and does not increase with time."""
    problems = check_bounds(name, values, 0.0, 1.0)
    order = sorted(range(len(times)), key=lambda index: times[index])
    ordered = [values[index] for index in order]
    for earlier, later in zip(ordered, ordered[1:]):
        if later > earlier + 1e-12:
            problems.append(
                f"{name}: survival rises from {earlier!r} to {later!r}"
            )
            break
    return problems


def check_validation(
    name: str,
    analytic: float,
    mean: float,
    half_width: float,
    relative_tolerance: float,
) -> List[str]:
    """The Sect. 5.1 criterion, evaluated here from the raw numbers.

    A measure validates when the analytic value lies in the simulated
    confidence interval, or within *relative_tolerance* of the mean
    (near-zero measures, whose intervals collapse).
    """
    inside = mean - half_width <= analytic <= mean + half_width
    scale = max(abs(analytic), abs(mean), 1e-12)
    close = abs(analytic - mean) / scale <= relative_tolerance
    if inside or close:
        return []
    return [
        f"{name}: analytic {analytic!r} outside {mean!r} +- {half_width!r} "
        f"and {abs(analytic - mean) / scale:.2%} away "
        f"(> {relative_tolerance:.0%})"
    ]
