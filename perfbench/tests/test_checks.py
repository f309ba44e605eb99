"""The benchmark's correctness checks reject perturbed results.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import checks  # noqa: E402
import layers  # noqa: E402


def birth_death():
    """A 3-state generator whose stationary distribution is (4, 2, 1) / 7."""
    q = sparse.csr_matrix(
        np.array([[-1.0, 1.0, 0.0], [2.0, -3.0, 1.0], [0.0, 2.0, -2.0]])
    )
    return q, np.array([4.0, 2.0, 1.0]) / 7.0


class MatrixFree(sparse_linalg.LinearOperator):
    """The matrix-free operand shape: matvec, rmatvec and diagonal()."""

    def __init__(self, q):
        super().__init__(float, q.shape)
        self.q = q

    def _matvec(self, x):
        return self.q @ x

    def _rmatvec(self, x):
        return self.q.T @ x

    def diagonal(self):
        return self.q.diagonal()


def test_verdict_rejects_a_flipped_verdict():
    assert checks.check_verdict("rpc simplified", False, expected=False) == []
    assert checks.check_verdict("rpc simplified", True, expected=False)
    assert checks.check_verdict("rpc revised", False, expected=True)


def test_formula_accepts_the_paper_formula_in_any_layout():
    indented = checks.PAPER_RPC_FORMULA.replace("; ", ";\n    ")
    assert checks.check_formula("rpc", indented, verified=True) == []


def test_formula_rejects_another_formula_or_a_failed_verification():
    other = checks.PAPER_RPC_FORMULA.replace("TRUE", "FALSE")
    assert checks.check_formula("rpc", other, verified=True)
    assert checks.check_formula(
        "rpc", checks.PAPER_RPC_FORMULA, verified=False
    )


@pytest.mark.parametrize("operand", ["sparse", "matrix-free"])
def test_distribution_accepts_the_stationary_distribution(operand):
    q, pi = birth_death()
    generator = q if operand == "sparse" else MatrixFree(q)
    assert checks.check_distribution("chain", pi, generator) == []


@pytest.mark.parametrize("operand", ["sparse", "matrix-free"])
def test_distribution_rejects_mass_other_than_one(operand):
    q, pi = birth_death()
    generator = q if operand == "sparse" else MatrixFree(q)
    problems = checks.check_distribution("chain", pi * 1.01, generator)
    assert any("sum to" in problem for problem in problems)


def test_distribution_rejects_negative_entries():
    q, pi = birth_death()
    perturbed = pi + np.array([0.2, 0.0, -0.2])
    problems = checks.check_distribution("chain", perturbed, q)
    assert any("negative" in problem for problem in problems)


def test_distribution_rejects_a_non_stationary_vector():
    q, _ = birth_death()
    problems = checks.check_distribution("chain", np.full(3, 1 / 3), q)
    assert any("residual" in problem for problem in problems)


def test_agreement_rejects_a_measure_off_by_1e_6():
    oracle = {"power": 0.734, "throughput": 1.2}
    assert checks.check_agreement("fleet", dict(oracle), oracle) == []
    close = dict(oracle, power=oracle["power"] + 1e-11)
    assert checks.check_agreement("fleet", close, oracle) == []
    off = dict(oracle, power=oracle["power"] + 1e-6)
    assert checks.check_agreement("fleet", off, oracle)


def test_agreement_rejects_different_measure_sets():
    assert checks.check_agreement("fleet", {"a": 1.0}, {"b": 1.0})


def test_relative_agreement_scales_with_the_value():
    reference = {"loss": 1e-3}
    assert checks.check_agreement(
        "dense", {"loss": 1e-3 * (1 + 1e-10)}, reference, relative=True
    ) == []
    assert checks.check_agreement(
        "dense", {"loss": 1e-3 * (1 + 1e-7)}, reference, relative=True
    )


def test_vectors_agree_rejects_a_moved_entry():
    _, pi = birth_death()
    assert checks.check_vectors_agree("pi", pi, pi.copy()) == []
    assert checks.check_vectors_agree("pi", pi, pi + [1e-6, -1e-6, 0.0])


def test_validation_rejects_an_estimate_outside_its_interval():
    assert checks.check_validation("energy", 1.0, 1.01, 0.02, 0.001) == []
    # Same estimate moved outside its interval and beyond the tolerance.
    assert checks.check_validation("energy", 1.0, 1.05, 0.02, 0.001)
    # Outside the interval but within the relative tolerance: accepted.
    assert checks.check_validation("energy", 1.0, 1.05, 0.02, 0.10) == []


def test_bounds_reject_values_outside_the_physical_range():
    assert checks.check_bounds("power", [0.1, 1.5], 0.075, 1.6) == []
    assert checks.check_bounds("power", [0.1, 1.7], 0.075, 1.6)
    assert checks.check_bounds("probability", [float("nan")], 0.0, 1.0)


def test_survival_rejects_an_increase_or_a_value_above_one():
    times = [50.0, 150.0, 300.0]
    assert checks.check_survival("survival", times, [1.0, 0.9, 0.5]) == []
    assert checks.check_survival("survival", times, [0.9, 0.95, 0.5])
    assert checks.check_survival("survival", times, [1.01, 0.9, 0.5])


def test_layer_totals_subtract_nested_layer_spans_only():
    records = [
        {"span": "a", "parent": None, "name": "ctmc.solve", "start": 0.0, "end": 10.0,
         "attrs": {"iterations": 3}},
        # A program span in between is transparent.
        {"span": "p", "parent": "a", "name": "solve", "start": 1.0, "end": 9.0},
        {"span": "b", "parent": "p", "name": "ctmc.build", "start": 2.0, "end": 6.0},
        {"span": "c", "parent": "b", "name": "ctmc.build", "start": 3.0, "end": 4.0},
        {"span": "d", "parent": None, "name": "lts.weak", "start": 20.0, "end": 21.0},
    ]
    totals, covered = layers.layer_totals(records)
    assert totals["ctmc.solve"]["s"] == pytest.approx(6.0)
    assert totals["ctmc.solve"]["iterations"] == 3
    assert totals["ctmc.build"]["s"] == pytest.approx(4.0)
    assert totals["ctmc.build"]["calls"] == 1
    assert covered == pytest.approx(11.0)


def test_instrumentation_records_layer_spans_and_restores_the_program():
    from repro.aemilia import parser, semantics
    from repro.casestudies.rpc import markovian
    from repro.obs import tracing

    original_parse = parser.parse_architecture
    original_generate = semantics.StateSpaceGenerator.generate
    tracer = tracing.Tracer()
    with layers.Instrumentation(), tracing.use_tracer(tracer):
        archi = markovian.dpm_architecture()
        lts = semantics.generate_lts(archi)
    assert parser.parse_architecture is original_parse
    assert markovian.parse_architecture is original_parse
    assert semantics.StateSpaceGenerator.generate is original_generate
    totals, _covered = layers.layer_totals(tracer.records())
    assert totals["aemilia.parse"]["calls"] == 1
    assert totals["aemilia.generate"]["calls"] == 1
    assert totals["aemilia.generate"]["states"] == lts.num_states
