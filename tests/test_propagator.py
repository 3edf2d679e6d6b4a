"""Damped-wave propagator: closed form, semigroup, decay, X^alpha norm."""

import inspect
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from scipy.linalg import expm

from _utils import constant_field, cosine_pair, mode_matrix, wave_residual_field, \
    weighted_sup_norm_loop
from sdnlw import propagator, spectral
from sdnlw.propagator import (
    apply_S,
    default_time_grid,
    determinant_defect,
    grid_tables,
    mode_sum_bound,
    propagator_tables,
    semigroup_defect,
    weighted_sup_norm,
    xalpha_norm,
)
from sdnlw.spectral import (
    bracket_table,
    gaussian_bump_pair,
    grad2_table,
    hnorm,
    lp_norm,
    mode_range,
    omega_table,
    pair_norm,
    quad_grid_size,
    random_pair,
    zero_pair,
)

RNG = np.random.default_rng(7)


class TestModeMatrix:
    def test_identity_at_t0(self):
        for n in ((0, 0), (1, 0), (3, -2)):
            assert np.max(np.abs(mode_matrix(n, 0.0) - np.eye(2))) < 1e-15

    def test_zero_mode_full_period(self):
        # omega_0 = sqrt(3)/2, so t = 4 pi / sqrt(3) is one full period
        t = 4 * np.pi / np.sqrt(3)
        m = mode_matrix((0, 0), t)
        expect = np.exp(-2 * np.pi / np.sqrt(3)) * np.eye(2)
        assert np.max(np.abs(m - expect)) < 1e-14

    def test_against_matrix_exponential_oracle(self):
        # generator of the first-order system for mode n
        for n, t in (((1, 0), 1.0), ((2, 3), 0.7), ((0, 0), 2.5)):
            lam = 1.0 + (2 * np.pi) ** 2 * (n[0] ** 2 + n[1] ** 2)
            gen = np.array([[0.0, 1.0], [-lam, -1.0]])
            oracle = expm(gen * t)
            assert np.max(np.abs(mode_matrix(n, t) - oracle)) < 1e-10

    @pytest.mark.parametrize("t", [np.nan, np.inf, -0.5])
    def test_tables_refuse_time_not_finite_and_nonnegative(self, t):
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            propagator_tables(4, t)

    def test_determinant_is_wronskian(self):
        for t in (0.1, 1.0, 5.0, 20.0):
            assert determinant_defect(16, t) < 1e-12

    def test_tiny_time_no_cancellation(self):
        m = mode_matrix((1, 0), 1e-9)
        assert np.max(np.abs(m - np.eye(2))) < 1e-7
        assert m[0, 1] == pytest.approx(1e-9, rel=1e-9)


class TestApplyS:
    def test_t0_identity(self):
        v = random_pair(6, RNG)
        assert np.array_equal(apply_S(v, 0.0), v)

    def test_semigroup_law(self):
        v = random_pair(16, RNG, batch=(10,))
        assert semigroup_defect(v, 1.3, 0.7) < 1e-11

    @pytest.mark.parametrize("t", [np.nan, np.inf, -0.5])
    def test_refuses_time_not_finite_and_nonnegative(self, t):
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            apply_S(random_pair(4, RNG), t)

    def test_zero_mode_pair_decay(self):
        v = zero_pair(2)
        v[0, 2, 2] = 1.0
        t = 4 * np.pi / np.sqrt(3)
        out = apply_S(v, t)
        assert out[0, 2, 2].real == pytest.approx(np.exp(-t / 2), rel=1e-13)
        assert abs(out[1, 2, 2]) < 1e-14

    def test_h_alpha_decay_constant(self):
        # |S(t) v|_{H^a} <= C e^{-t/2} |v|_{H^a} with C <~ 3 empirically
        v = random_pair(8, RNG, batch=(50,))
        for alpha in (0.25, 1.0):
            base = pair_norm(v, alpha, 2.0)
            for t in (0.5, 2.0, 7.0):
                ratio = pair_norm(apply_S(v, t), alpha, 2.0) / (np.exp(-t / 2) * base)
                assert np.max(ratio) <= 3.0

    def test_wave_equation_residual_order_h2(self):
        v = random_pair(6, RNG)
        res = [float(lp_norm(wave_residual_field(v, 0.8, h), 2.0))
               for h in (1e-2, 5e-3, 2.5e-3)]
        r1, r2 = res[0] / res[1], res[1] / res[2]
        assert 3.5 < r1 < 4.5 and 3.5 < r2 < 4.5


class TestXalphaNorm:
    def test_zero_pair(self):
        assert xalpha_norm(zero_pair(4), 0.25) == 0.0

    def test_dominates_t0_term(self):
        v = random_pair(8, RNG)
        t0 = pair_norm(v, 0.25, 2.0 / 0.25)
        assert xalpha_norm(v, 0.25) >= t0 - 1e-12

    def test_contraction_under_S(self):
        v = random_pair(8, RNG)
        base = xalpha_norm(v, 0.25)
        for tau in (0.25, 1.0, 4.0):  # grid multiples
            shifted = xalpha_norm(apply_S(v, tau), 0.25)
            assert shifted <= np.exp(-tau / 8) * base * (1.0 + 1e-9) + 1e-12

    def test_operator_decay_along_grid(self):
        v = random_pair(6, RNG, batch=(5,))
        base = xalpha_norm(v, 0.3)
        for t in (0.5, 1.5, 3.0, 10.0):
            val = xalpha_norm(apply_S(v, t), 0.3)
            assert np.all(val <= np.exp(-t / 8) * base * (1 + 1e-9))

    def test_weighted_sup_monotone_in_p_proxy(self):
        # the p = 16 Z-proxy dominates the p = 2 weighted sup for these fields
        v = random_pair(4, RNG)
        lo = weighted_sup_norm(v, 0.25, 2.0)
        hi = weighted_sup_norm(v, 0.25, 16.0)
        assert hi >= lo - 1e-12

    @pytest.mark.parametrize("dt_grid", [0.0, -0.25, np.nan, np.inf])
    def test_nonpositive_grid_step_rejected(self, dt_grid):
        v = random_pair(4, RNG)
        with pytest.raises(ValueError, match="dt_grid"):
            xalpha_norm(v, 0.25, dt_grid=dt_grid)

    def test_alpha_range_rejected(self):
        v = random_pair(4, RNG)
        with pytest.raises(ValueError, match="alpha"):
            xalpha_norm(v, 1.5)

    def test_p_below_two_rejected(self):
        with pytest.raises(ValueError, match="p >= 2"):
            weighted_sup_norm(random_pair(4, RNG), 0.25, 1.5)

    @pytest.mark.parametrize("fn", [xalpha_norm, weighted_sup_norm])
    def test_dt_grid_is_keyword_only(self, fn):
        # perfbench/spans.py counts the traced grid evaluations of
        # xalpha_norm and reads a third positional argument as t_star, so a
        # positional dt_grid would be miscounted there
        param = inspect.signature(fn).parameters["dt_grid"]
        assert param.kind is inspect.Parameter.KEYWORD_ONLY
        assert "t_star" not in inspect.signature(fn).parameters


# (T_STAR, dt_grid): T_STAR on the grid, off the grid, and a one-point grid
GRIDS = [(40.0, 1.0), (1.0, 0.3), (0.0, 0.25)]


def patch_t_star(monkeypatch, t_star):
    """Move the grid end for one test.  ``grid_tables`` is cached by
    (N, dt_grid) alone, so the test gets a cache of its own: no grid of
    another end is served to it, and none of its grids outlives it."""
    monkeypatch.setattr(propagator, "T_STAR", t_star)
    monkeypatch.setattr(propagator, "grid_tables",
                        lru_cache(maxsize=None)(grid_tables.__wrapped__))

# chunk budgets: one grid time per chunk, the default, the whole grid at once
BUDGETS = [1, spectral.CHUNK_BYTES, 1 << 40]


class TestChunkedSupNorm:
    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("t_star,dt_grid", GRIDS)
    @pytest.mark.parametrize("p", [2.0, 8.0, 16.0])
    @pytest.mark.parametrize("batch", [(1,), (7,), (2, 3)])
    def test_equals_per_point_loop(self, monkeypatch, batch, p, t_star, dt_grid,
                                   budget):
        monkeypatch.setattr(spectral, "CHUNK_BYTES", budget)
        patch_t_star(monkeypatch, t_star)
        v = random_pair(4, RNG, batch=batch)
        total = weighted_sup_norm(v, 0.25, p, dt_grid=dt_grid)
        assert np.array_equal(total, weighted_sup_norm_loop(v, 0.25, p, t_star, dt_grid))

    @pytest.mark.parametrize("t_star,dt_grid", GRIDS)
    @pytest.mark.parametrize("p", [2.0, 8.0, 16.0])
    def test_large_batch_equals_per_point_loop(self, monkeypatch, p, t_star, dt_grid):
        # 1000 paths at N=4 exceed the budget at one grid time: one per chunk
        patch_t_star(monkeypatch, t_star)
        v = random_pair(4, RNG, batch=(1000,))
        want = weighted_sup_norm_loop(v, 0.25, p, t_star, dt_grid)
        assert np.array_equal(weighted_sup_norm(v, 0.25, p, dt_grid=dt_grid), want)

    def test_unbatched_equals_batch_of_one(self):
        for N in (4, 8):
            for _ in range(10):
                v = random_pair(N, RNG)
                assert xalpha_norm(v, 0.25) == xalpha_norm(v[None], 0.25)[0]

    @pytest.mark.parametrize("p", [8.0, 16.0])
    @pytest.mark.parametrize("N", [2, 4, 8])
    @pytest.mark.parametrize("kind", ["bump", "random"])
    def test_unbatched_equals_per_point_loop(self, kind, N, p):
        # the loop's lone pair norms and the gathered rows agree in every bit
        # over amplitudes 1e-2 to 10^15.75 in quarter decades
        base = gaussian_bump_pair(N) if kind == "bump" else random_pair(N, RNG)
        for k in range(72):
            v = 10.0 ** (-2.0 + k / 4.0) * base
            assert weighted_sup_norm(v, 0.25, p) == weighted_sup_norm_loop(v, 0.25, p)

    def test_batch_rows_equal_lone_paths(self):
        v = random_pair(8, RNG, batch=(6,))
        together = xalpha_norm(v, 0.25)
        alone = np.array([xalpha_norm(row, 0.25) for row in v])
        assert np.array_equal(together, alone)
        stacked = xalpha_norm(v.reshape(2, 3, *v.shape[1:]), 0.25)
        assert np.array_equal(stacked.ravel(), together)

    def test_grid_tables_are_the_per_time_tables(self):
        grid, tables = grid_tables(4, 0.3)
        for i, t in enumerate(grid):
            for stacked, single in zip(tables, propagator_tables(4, float(t))):
                assert np.array_equal(stacked[i], single)


def _velocity_only():
    v = random_pair(4, RNG, batch=(5,))
    v[..., 0, :, :] = 0.0
    return v


def _constant():
    # u = 1, u_t = 0: the weighted norm grows at first (max at t = 0.25)
    v = zero_pair(4, (1,))
    v[0, 0] = constant_field(4, 1.0)
    return v


def _with_nan():
    v = random_pair(4, RNG, batch=(3,))
    v[1, 0, 4, 5] = np.nan
    return v


def _single_mode(n1, n2, component=0):
    # one coefficient without its conjugate partner: a non-Hermitian input
    v = zero_pair(4, (1,))
    v[0, component, 4 + n1, 4 + n2] = 1.0 - 0.5j
    return v


def _mixed_batch():
    # one slowly decaying path (the zero mode, u = 1) among small random
    # ones, and a NaN row
    v = 1e-3 * random_pair(4, RNG, batch=(9,))
    v[3] = 0.0
    v[3, 0, 4, 4] = 1.0
    v[6, 1, 2, 5] = np.nan
    return v


def _transformed_rows(monkeypatch, fn, *args):
    """fn(*args), and the bytes of each (path, grid time) row that X^alpha
    hands to the quadrature, the entries its mode-sum bound cannot skip."""
    rows = []

    def recording(evolved, *a, **kw):
        rows.extend(row.tobytes() for row in evolved)
        return pair_norm(evolved, *a, **kw)

    monkeypatch.setattr(propagator, "pair_norm", recording)
    return fn(*args), rows


PRUNE_INPUTS = {
    "velocity_only": _velocity_only,
    "constant": _constant,
    "cosine": lambda: cosine_pair(8, (2, 1))[None],
    "cosine_velocity": lambda: cosine_pair(8, (1, 0), component=1)[None],
    "bump": lambda: gaussian_bump_pair(8)[None],
    "zero": lambda: zero_pair(4, (3,)),
    "nan": _with_nan,
    # the c2r doubles a column n2 > 0 and ignores a column n2 < 0, which
    # the p = 2 Plancherel sum still sees
    "lone_mode_right": lambda: _single_mode(1, 2),
    "lone_mode_left": lambda: _single_mode(-1, -2),
    "lone_velocity_mode": lambda: _single_mode(2, 0, component=1),
    "mixed_batch": _mixed_batch,
}


class TestPrunedSupNorm:
    """Grid times whose Plancherel bound cannot raise the running max are
    skipped; the result must equal the unpruned per-point loop (random
    pairs are covered by TestChunkedSupNorm)."""

    @pytest.mark.parametrize("budget", [1, spectral.CHUNK_BYTES])
    @pytest.mark.parametrize("t_star", [0.0, 1.0, 40.0])
    @pytest.mark.parametrize("p", [2.0, 8.0, 16.0])
    @pytest.mark.parametrize("kind", sorted(PRUNE_INPUTS))
    def test_equals_per_point_loop(self, monkeypatch, kind, p, t_star, budget):
        monkeypatch.setattr(spectral, "CHUNK_BYTES", budget)
        patch_t_star(monkeypatch, t_star)
        v = PRUNE_INPUTS[kind]()
        total = weighted_sup_norm(v, 0.25, p)
        want = weighted_sup_norm_loop(v, 0.25, p, t_star)
        assert np.array_equal(total, want, equal_nan=True)

    @pytest.mark.parametrize("p", [2.0, 8.0, 16.0])
    @pytest.mark.parametrize("kind", sorted(PRUNE_INPUTS))
    def test_rows_equal_lone_paths(self, monkeypatch, kind, p):
        # at one grid time per chunk a path meets the same running max alone
        # and in a batch, so its value and its cost are its own
        monkeypatch.setattr(spectral, "CHUNK_BYTES", 1)
        v = PRUNE_INPUTS[kind]()
        total, rows = _transformed_rows(monkeypatch, weighted_sup_norm, v, 0.25, p)
        lone_rows = []
        for i, row in enumerate(v):
            alone, own = _transformed_rows(monkeypatch, weighted_sup_norm, row, 0.25, p)
            assert np.array_equal(total[i], alone, equal_nan=True)
            lone_rows += own
        assert Counter(rows) == Counter(lone_rows)

    @pytest.mark.parametrize("p", [2.0, 8.0, 16.0])
    @pytest.mark.parametrize("kind", ["lone_mode_right", "lone_mode_left",
                                      "lone_velocity_mode", "velocity_only",
                                      "mixed_batch"])
    def test_mode_sum_bound_covers_every_grid_time(self, kind, p):
        v = PRUNE_INPUTS[kind]()
        for t in default_time_grid(4.0, 0.25):
            evolved = apply_S(v, float(t))
            value = pair_norm(evolved, 0.25, p)
            # a lone mode meets the bound up to round-off, hence the slack
            bound = (1.0 + 1e-9) * mode_sum_bound(evolved, 0.25, p)
            ok = np.isnan(value) | (value <= bound)
            assert np.all(ok)

    def test_mode_sum_bound_is_tighter_than_plancherel(self):
        # for real fields sum_n |z_n| <= (2N+1) ||z||_2, and both sums are it
        v = random_pair(8, RNG, batch=(20,))
        for p in (2.0, 8.0):
            assert np.all(mode_sum_bound(v, 0.25, p)
                          <= 17 * hnorm(v, 0.25) * (1 + 1e-12))

    @pytest.mark.parametrize("p", [8.0, 16.0])
    def test_left_mode_transforms_no_grid_time(self, monkeypatch, p):
        # the c2r ignores columns n2 < 0, so the value is 0 at every grid
        # time and so is the half-spectrum bound: nothing to transform
        v = PRUNE_INPUTS["lone_mode_left"]()
        total, rows = _transformed_rows(monkeypatch, weighted_sup_norm, v, 0.25, p)
        assert rows == []
        assert np.array_equal(total, weighted_sup_norm_loop(v, 0.25, p))

    def test_velocity_mode_transforms_later_grid_times(self, monkeypatch):
        # u grows from zero, so the bound stays above the t = 0 value for a
        # while and grid times after t = 0 go through the transform
        monkeypatch.setattr(spectral, "CHUNK_BYTES", 1)
        v = PRUNE_INPUTS["lone_velocity_mode"]()
        _, rows = _transformed_rows(monkeypatch, weighted_sup_norm, v, 0.25, 8.0)
        assert len(rows) > 1

    def test_bump_transforms_fewer_grid_times(self, monkeypatch):
        # the (2N+1) ||.||_2 bound transformed two chunks of 12 grid times
        _, rows = _transformed_rows(monkeypatch, xalpha_norm, gaussian_bump_pair(8), 0.25)
        assert len(rows) < 24

    def test_bump_skips_chunks(self, monkeypatch):
        calls = []

        def counting(*args, **kw):
            calls.append(1)
            return pair_norm(*args, **kw)

        monkeypatch.setattr(propagator, "pair_norm", counting)
        v = gaussian_bump_pair(8)
        got = xalpha_norm(v, 0.25)
        per_chunk = spectral.CHUNK_BYTES // (quad_grid_size(8) ** 2 * 16)
        chunks = -(-propagator.default_time_grid().size // per_chunk)
        assert chunks == 14
        assert 1 <= len(calls) < chunks
        assert got == weighted_sup_norm_loop(v[None], 0.25, 8.0)[0]


class TestCachedTablesReadOnly:
    @pytest.mark.parametrize("table", [
        lambda: propagator_tables(4, 0.3).m11,
        lambda: grid_tables(4, 0.3)[0],
        lambda: grid_tables(4, 0.3)[1].m22,
        lambda: omega_table(4),
        lambda: bracket_table(4, 0.25),
        lambda: bracket_table(4, -0.75),
        lambda: propagator._half_spectrum_weights(4),
        lambda: grad2_table(4),
        lambda: mode_range(4),
    ])
    def test_in_place_write_raises(self, table):
        arr = table()
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            arr *= 2
