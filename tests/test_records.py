"""The records' contract: immutable, checked when built, equal field for field.

The package's records are NamedTuples; the three decomp records that check
their fields are namedtuple subclasses whose ``__new__`` raises, and
``evaluation.Grid``, which owns a cached factor table, is a plain class
whose fields cannot be assigned.
"""

import pickle

import numpy as np
import pytest

from fracdecomp.acceptance import CheckResult
from fracdecomp.decomp import (
    DecompError,
    LinearTerm,
    NonlinearFactor,
    NonlinearOpSpec,
    NonlinearProduct,
    mldm_solve,
)
from fracdecomp.evaluation import (
    ConvergenceRow,
    EvalError,
    Grid,
    convergence_report,
    default_grid,
    grid_error,
)
from fracdecomp.problems import builtin, load_problem_file, validate_consistency

TWO_D_FILE = """\
domain = 0, 1
domain_y = 0, 1
exact = t*x*y + t^2*x
linear = 2x:-0.5, 2y:-0.5
nonlinear = u*u_y + 0.5*u^2*u_x - {t^alpha}*u_xx
"""


@pytest.fixture(scope="module")
def two_d_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("records") / "cubic2d.txt"
    path.write_text(TWO_D_FILE)
    return load_problem_file(path, 0.5)


def _records(spec):
    """One record of each kind, built from a solve of the spec."""
    trace = mldm_solve(spec, 1)
    grid = default_grid(spec, nx=5, ny=5, nt=3)
    row = convergence_report([trace], spec, grid)[0]
    product = spec.nonlinear.products[0]
    return [spec, spec.bd, spec.linear, spec.linear.terms[0], spec.nonlinear, product,
            product.factors[0], spec.h.terms[0], trace, trace.records[0], row,
            grid_error(trace.approximation, spec.exact, grid), validate_consistency(spec),
            CheckResult("gamma", True, 0.1, None, "ok"), grid]


def test_no_field_of_a_record_can_be_assigned(two_d_spec):
    records = _records(two_d_spec)
    assert len({type(r) for r in records}) == len(records)
    for record in records:
        names = ("xs", "ys", "ts") if isinstance(record, Grid) else record._fields
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)


@pytest.mark.parametrize("build, error, message", [
    (lambda: LinearTerm(3, "x", 1.0), DecompError, "linear term order 3 unsupported"),
    (lambda: LinearTerm(1, "z", 1.0), DecompError, "linear term variable 'z' unsupported"),
    (lambda: NonlinearFactor(3), DecompError, "nonlinear factor order 3 unsupported"),
    (lambda: NonlinearFactor(0, power=0), DecompError, "nonlinear factor power must be >= 1"),
    (lambda: NonlinearOpSpec(()), DecompError, "empty nonlinear operator; use None instead"),
    (lambda: NonlinearOpSpec((NonlinearProduct(1.0, (NonlinearFactor(0, power=3),
                                                     NonlinearFactor(1))),)),
     DecompError, "nonlinearity degree 4 beyond supported 3"),
    (lambda: Grid(np.linspace(0.0, 1.0, 1), None, np.linspace(0.0, 1.0, 3)),
     EvalError, "grid needs at least 2 x-points, got 1"),
])
def test_a_record_refuses_bad_fields_with_its_message(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


def test_a_checked_records_replace_checks_again():
    with pytest.raises(DecompError, match="linear term order 3 unsupported"):
        LinearTerm(0, "x", 1.0)._replace(order=3)
    with pytest.raises(DecompError, match="nonlinear factor power must be >= 1"):
        NonlinearFactor(1)._replace(power=0)
    spec = NonlinearOpSpec((NonlinearProduct(1.0, (NonlinearFactor(0),)),))
    with pytest.raises(DecompError, match="empty nonlinear operator"):
        spec._replace(products=())
    assert NonlinearFactor(1)._replace(var="y") == NonlinearFactor(1, "y")


def test_specs_survive_pickle_field_for_field(two_d_spec):
    for spec in (builtin("p7", alpha=0.75), two_d_spec):
        back = pickle.loads(pickle.dumps(spec))
        assert type(back) is type(spec)
        for name in spec._fields:
            assert getattr(back, name) == getattr(spec, name), name
        assert back == spec


def test_a_convergence_rows_grids_take_no_part_in_eq_or_repr():
    summary = ("mldm", 0.75, 2, 1e-3, 2e-3, 3e-3, 0.5)
    a = ConvergenceRow(*summary, np.linspace(0.0, 1.0, 7), np.zeros(7))
    b = ConvergenceRow(*summary, np.linspace(1.0, 2.0, 7), None)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != a._replace(iterations=3)
    text = repr(a)
    assert "array" not in text and "0.16666" not in text
    assert text == ("ConvergenceRow(method='mldm', alpha=0.75, iterations=2, max_abs=0.001, "
                    "l2=0.002, residual=0.003, seconds=0.5)")
