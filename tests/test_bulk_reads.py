"""Reads of many polys at once, against the one-poly reads they batch.

``symx.zero_decisions`` decides every new term of a canonicalization from one
read of the zero-check table; ``is_zero_expr`` and a read of one poly
are its one-poly case, checked bit for bit against a monomial loop in
``test_symx_batched.py`` and ``test_poly_reads.py``. Negation keeps each
term's decision. Each ``Grid`` owns one factor table on its space grid.
"""

import gc
import math
import pickle
import warnings
import weakref

import numpy as np
import pytest

from fracdecomp import fracterm, symx
from fracdecomp.decomp import ladm_solve, mldm_solve
from fracdecomp.evaluation import evaluate_series_grid, make_grid
from fracdecomp.fracterm import Series, TimeTerm, series_scale
from fracdecomp.grammar import parse_series
from fracdecomp.problems import builtin
from fracdecomp.symx import (
    Const,
    PowerDomainError,
    Pow,
    Sin,
    Var,
    evaluate,
    expr_of_poly,
    poly_of,
    poly_scale,
)
from test_poly_reads import _reference_zero_samples

X = Var("x")
PIDS = ["p1", "p2", "p3", "p4", "p5", "p6", "p7"]


# ---------------------------------------------------------------------------
# zero decisions in bulk
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pid", PIDS)
def test_bulk_zero_decisions_match_the_one_poly_check(pid, monkeypatch):
    # every poly _from_pairs decides while both methods solve at three orders:
    # the bulk decision is the one-poly decision, and the row the bulk read
    # summed is the one-poly read's and the monomial loop's, bit for bit
    batches, reads = [], []
    decide, read_rows = fracterm.zero_decisions, symx._ZERO_CHECK.read

    def recording_decide(polys):
        got = decide(polys)
        batches.append((list(polys), got))
        return got

    def recording_read(item_lists, orders=None, skip=()):
        item_lists = [list(items) for items in item_lists]
        rows, jets, read = read_rows(item_lists, orders, skip)
        reads.append((item_lists, rows.copy(), read))
        return rows, jets, read

    monkeypatch.setattr(fracterm, "zero_decisions", recording_decide)
    monkeypatch.setattr(symx._ZERO_CHECK, "read", recording_read)
    for alpha in (0.5, 0.75, 1.0):
        spec = builtin(pid, alpha)
        for solve in (ladm_solve, mldm_solve):
            solve(spec, 3)
    monkeypatch.undo()

    decided = 0
    for polys, got in batches:
        assert len(got) == len(polys)
        for p, zero in zip(polys, got):
            assert zero == symx.is_zero_expr(p), p
            decided += 1
    sampled = 0
    for item_lists, rows, read in reads:
        assert rows.shape == (len(item_lists), symx.SAMPLES)
        for items, row, ok in zip(item_lists, rows, read):
            p = dict(items)
            if not ok:
                with pytest.raises(PowerDomainError):
                    symx._ZERO_CHECK.read((p.items(),))
                continue
            assert row.tobytes() == symx._ZERO_CHECK.read((p.items(),))[0][0].tobytes()
            assert row.tobytes() == _reference_zero_samples(p).tobytes()
            sampled += 1
    assert decided >= 20 and sampled >= 20
    # a read serves a whole canonicalization, not one poly
    assert len(reads) < sampled


def test_one_batch_decides_each_poly_as_if_alone():
    # a sample that overflows, a poly the zero-check box cannot evaluate and
    # dust, in one read: each is decided as alone, and nothing warns
    overflow = poly_of(Const(1e300) * Pow(X, 200.0))
    off_box = poly_of(Pow(X - Const(3.0), 0.5) + X)
    dust = poly_of(Const(1e-14) * X + Const(1e-14) * Sin(X))
    batch = [overflow, off_box, dust]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = symx.zero_decisions(batch)
        alone = [symx.is_zero_expr(p) for p in batch]
        rows, _, read = symx._ZERO_CHECK.read([p.items() for p in batch],
                                              skip=PowerDomainError)
    assert got == alone == [False, False, True]
    assert read == [True, False, True]
    assert not np.isfinite(rows[0]).all()
    assert rows[2].tobytes() == _reference_zero_samples(dust).tobytes()
    # a constant and the empty poly take no read
    assert symx.zero_decisions([{(): 1e-13}, {}, {(): 2e-12}]) == [True, True, False]
    assert symx.zero_decisions([]) == []


def test_a_batch_longer_than_a_block_continues_each_sum(monkeypatch):
    # blocks of one and three monomials split the polys of one read across
    # blocks; each poly's running sum carries over, bit for bit
    polys = [poly_of(Const(0.1 * k) * X + Pow(X, 2.0) - Const(0.3) * Sin(Const(k) * X)
                     + Const(1e-3) * Pow(X, 3.5))
             for k in range(1, 7)]
    want = [_reference_zero_samples(p).tobytes() for p in polys]
    for rows_per_block in (1, 3, 1000):
        monkeypatch.setattr(symx, "ROW_BLOCK", rows_per_block * symx.SAMPLES)
        rows, _, read = symx._ZERO_CHECK.read([p.items() for p in polys])
        assert all(read) and [r.tobytes() for r in rows] == want


# ---------------------------------------------------------------------------
# negation keeps its decisions
# ---------------------------------------------------------------------------


def _dust_series():
    # two-monomial coefficients around the 1e-12 cut, so each is sampled
    pairs = []
    for mu, scale in enumerate((0.5, 0.99, 1.0, 1.01, 1.5, 3.0, 1e3)):
        a = 1e-12 * scale
        pairs.append((float(mu), {((X, 1.0),): a, ((X, 2.0),): -0.25 * a}))
    return Series([TimeTerm(mu, p) for mu, p in pairs])


def test_negation_keeps_the_terms_a_full_check_keeps(monkeypatch):
    spec = builtin("p7", 0.75)
    cases = [_dust_series()] + [rec.partial_sum for rec in mldm_solve(spec, 3).records]
    assert 0 < len(cases[0].terms) < 7
    checked = []
    real = fracterm.zero_decisions
    for s in cases:
        monkeypatch.setattr(fracterm, "zero_decisions",
                            lambda ps: checked.extend(ps) or real(ps))
        neg = series_scale(s, -1.0)
        monkeypatch.undo()
        assert checked == []
        full = fracterm._from_pairs([(t.mu, poly_scale(t.poly, -1.0)) for t in s.terms],
                                    s.truncated)
        assert neg.terms == full.terms and neg.truncated == full.truncated
        assert series_scale(neg, -1.0) == s


# ---------------------------------------------------------------------------
# one factor table per grid
# ---------------------------------------------------------------------------


def _tree_grid(series, grid):
    out = np.zeros((grid.xs.size, grid.ts.size))
    for term in series.terms:
        coeff = np.broadcast_to(np.asarray(
            evaluate(expr_of_poly(term.poly), {"x": grid.xs}), dtype=float), grid.xs.shape)
        out += coeff[:, None] * np.power(grid.ts, term.mu)
    return out


def test_grids_built_and_dropped_in_turn_share_no_rows():
    # the same shape on two domains: the second grid reads its own points,
    # never rows its predecessor built
    s = parse_series("x*t + sin(3*x)*t^2 + exp(x)*x^2 + 2", None)
    seen = []
    for domain in ((0.0, 1.0), (2.0, 5.0), (0.0, 1.0)):
        grid = make_grid(domain, nx=9, nt=3)
        got = evaluate_series_grid(s, grid)
        assert got.tobytes() == _tree_grid(s, grid).tobytes()
        table = grid.table
        assert table is grid.table
        assert all(table is not old for old in seen)
        assert np.array_equal(table._env["x"], grid.xs)
        seen.append(table)
        alive = weakref.ref(grid)
        del grid
        gc.collect()
        assert alive() is None


def test_a_pickled_grid_carries_no_rows():
    s = parse_series("x*t + sin(3*x)*t^2", None)
    grid = make_grid((0.0, 1.0), nx=9, nt=3)
    want = evaluate_series_grid(s, grid)
    assert "table" in vars(grid) and len(grid.table._factors) > 1
    blob = pickle.dumps(grid)
    assert b"FactorTable" not in blob
    back = pickle.loads(blob)
    assert "table" not in vars(back)
    assert evaluate_series_grid(s, back).tobytes() == want.tobytes()
    assert back.table is not grid.table


def test_a_grids_points_are_read_only():
    grid = make_grid((0.0, 1.0), nx=5, nt=3)
    with pytest.raises(ValueError):
        grid.xs[0] = math.pi
