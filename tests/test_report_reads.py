"""The report's one read per trace, against the per-series reads it batches.

``convergence_report`` reads every partial sum of a trace, with the
derivatives its nonlinearity takes, in one read of the grid's factor table
(``evaluation._series_grids``). A list of that read sums the same bits read
alone or with others, so each partial sum's grids are those of
``_derivative_grids`` on it alone, bit for bit, and a partial sum that
cannot be read raises in its turn what the per-record loop raises. The
table reads each poly in ``sorted_items`` order, which sorts on monomial keys
kept once per process.
"""

import random

import numpy as np
import pytest

from fracdecomp import evaluation, symx
from fracdecomp.decomp import IterationRecord, SolveTrace, ladm_solve, mldm_solve
from fracdecomp.evaluation import (
    _derivative_grids,
    convergence_report,
    default_grid,
    residual,
)
from fracdecomp.grammar import parse_series
from fracdecomp.problems import builtin, load_problem_file
from fracdecomp.symx import Pow, Var, poly_of
from test_evaluation import TWO_D_FILE
from test_poly_reads import _assert_same_order, _random_coeff, _solver_series

PIDS = ["p1", "p2", "p3", "p4", "p5", "p6", "p7"]


def _keys(spec):
    return list(dict.fromkeys([(0, "x")] + spec.nonlinear.factor_keys()))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _alone(spec, traces):
    # each partial sum's grids read alone, through a table apart from the
    # report's, and its residual
    grid = default_grid(spec)
    return [(_derivative_grids(rec.partial_sum, _keys(spec), grid),
             residual(rec.partial_sum, spec, grid))
            for trace in traces for rec in trace.records]


def _assert_report_reads_each_series_as_alone(spec, traces, grid, alone):
    # the report's grids, recorded as it reads them, and its rows against
    # each partial sum read alone
    got, real = [], evaluation._series_grids

    def recording(series_list, *args, **kwargs):
        out = real(series_list, *args, **kwargs)
        got.extend(zip(series_list, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluation, "_series_grids", recording)
        rows = convergence_report(traces, spec, grid)
    bulk = {}
    for series, grids in got:   # the partial sums are read before any residual
        bulk.setdefault(id(series), grids)
    records = [rec for trace in traces for rec in trace.records]
    assert len(rows) == len(records) == len(alone)
    for row, rec, (want, res) in zip(rows, records, alone):
        have = bulk[id(rec.partial_sum)]
        assert list(have) == list(want) == _keys(spec)
        for key in want:
            assert _same_bits(have[key], want[key]), key
        assert _same_bits(row.values, want[0, "x"])
        assert row.residual == res


@pytest.mark.parametrize("pid", PIDS)
def test_report_grids_match_the_per_series_read(pid):
    for alpha in (0.5, 0.75, 1.0):
        spec = builtin(pid, alpha)
        traces = [ladm_solve(spec, 3), mldm_solve(spec, 3)]
        _assert_report_reads_each_series_as_alone(spec, traces, default_grid(spec),
                                                  _alone(spec, traces))


def test_report_grids_match_the_per_series_read_on_a_2d_file(tmp_path):
    path = tmp_path / "cubic2d.txt"
    path.write_text(TWO_D_FILE)
    for alpha in (0.5, 1.0):
        spec = load_problem_file(path, alpha)
        traces = [ladm_solve(spec, 1), mldm_solve(spec, 1)]
        _assert_report_reads_each_series_as_alone(spec, traces, default_grid(spec),
                                                  _alone(spec, traces))


def test_report_grids_keep_every_bit_when_lists_span_blocks(monkeypatch):
    # blocks of 1 and 3 monomials split the terms of each partial sum across
    # blocks; every running sum continues as in a read alone at the full block
    spec = builtin("p7", 0.75)
    traces = [ladm_solve(spec, 3), mldm_solve(spec, 3)]
    assert max(len(t.poly) for tr in traces for rec in tr.records
               for t in rec.partial_sum.terms) > 3
    alone = _alone(spec, traces)
    for rows in (1, 3):
        grid = default_grid(spec)
        monkeypatch.setattr(symx, "ROW_BLOCK", rows * grid.xs.size)
        _assert_report_reads_each_series_as_alone(spec, traces, grid, alone)


# ---------------------------------------------------------------------------
# errors in their turn
# ---------------------------------------------------------------------------


def _trace(spec, partials):
    zero = parse_series("0")
    records = tuple(IterationRecord(n, zero, zero, None, parse_series(text, spec.alpha), 0.0)
                    for n, text in enumerate(partials))
    return SolveTrace("ladm", spec.alpha, None, records, False, False)


def _per_record_report(traces, spec, grid, residuals):
    # the report as a loop over records: each partial sum's grids read alone,
    # then its residual, appended to residuals
    exact = evaluation.evaluate_series_grid(spec.exact, grid)
    coeff_grids = evaluation._coeff_grids(spec.nonlinear, grid)
    for trace in traces:
        for rec in trace.records:
            grids = _derivative_grids(rec.partial_sum, _keys(spec), grid)
            np.abs(grids[0, "x"] - exact)
            residuals.append(residual(rec.partial_sum, spec, grid, coeff_grids, grids))


# (nonlinearity, linear part, partial sums, rows the loop makes before it raises)
ERROR_CASES = {
    # record 1 has no value at x = 0
    "value_pole": ("u*u_x", "", ["t*x", "t*x + t^2*x^(-1)"], 1),
    # record 1's u_x has none there, and record 2 no value: the first raises
    "derivative_pole": ("u*u_x", "", ["t*x", "t*x + t^2*x^0.5", "t*x^(-2)"], 1),
    # record 0's residual takes u_xx of x^1.5, which has no value at x = 0,
    # before record 1's value pole is read
    "residual_first": ("u*u_x", "2x:-0.5", ["t*x^1.5", "t*x + t^2*x^(-1)"], 0),
    # ... and before record 1's u_x pole is read
    "residual_before_derivative": ("u*u_x", "2x:-0.5", ["t*x^1.5", "t*x + t^2*x^0.25"], 0),
    # record 1's overflow is not finite, and record 2 has no value
    "overflow": ("u*u_x", "", ["t*x", "t*exp(800*x)", "t*x^(-1)"], 1),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_report_raises_what_the_per_record_loop_raises(case, tmp_path):
    nonlinear, linear, partials, before = ERROR_CASES[case]
    path = tmp_path / f"{case}.txt"
    path.write_text(f"domain = 0, 1\nexact = t*x\nnonlinear = {nonlinear}\n"
                    + (f"linear = {linear}\n" if linear else ""))
    spec = load_problem_file(path, 0.5)
    traces = [_trace(spec, partials)]
    made = []
    with pytest.raises(Exception) as want:
        _per_record_report(traces, spec, default_grid(spec), made)
    # the loop raises past the records before the one the case names
    assert len(made) == before
    with pytest.raises(Exception) as got:
        convergence_report(traces, spec, default_grid(spec))
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# the table's monomial order
# ---------------------------------------------------------------------------


def _assert_order_twice(polys, monkeypatch):
    monkeypatch.setattr(symx, "_MONO_KEYS", {})
    kept = None
    for _ in range(2):   # the second pass sorts on kept keys only
        for p in polys:
            _assert_same_order(p)
            _assert_same_order(dict(reversed(list(p.items()))))
        if kept is None:
            kept = dict(symx._MONO_KEYS)
    assert set(symx._MONO_KEYS) == {m for p in polys if len(p) > 1 for m in p}
    assert len(symx._MONO_KEYS) == len(kept)
    assert all(symx._MONO_KEYS[m] is key for m, key in kept.items())


@pytest.mark.parametrize("pid", PIDS)
def test_table_order_is_sorted_items_on_solver_polys(pid, monkeypatch):
    _assert_order_twice([t.poly for _, s in _solver_series(pid) for t in s.terms], monkeypatch)


def test_table_order_is_sorted_items_on_random_polys(monkeypatch):
    rng = random.Random(9127)
    polys = [poly_of(_random_coeff(rng, rng.random() < 0.5, rng.choice([2, 5, 12, 30])))
             for _ in range(200)]
    # a lone monomial no other poly holds: one-monomial polys are not sorted
    polys.append(poly_of(Pow(Var("x"), 7.5)))
    _assert_order_twice(polys, monkeypatch)
