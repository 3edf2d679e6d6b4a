"""Lattice representation, transforms, dealiased products, and norms."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdnlw import spectral
from sdnlw.spectral import (
    ResolutionError,
    bracket_multiplier,
    dealiased_product,
    hermitize,
    integral,
    l2_inner,
    lp_norm,
    pair_norm,
    project_leq,
    quad_grid_size,
    random_field,
    random_pair,
    sobolev_norm,
    to_physical,
    to_spectral,
    zero_field,
)
from _utils import FFT_BACKENDS, constant_field, convolution_oracle, cosine_field, \
    cosine_pair, fft_backend, hermitian_defect, lp_norm_whole, to_physical_fancy, \
    to_spectral_fancy

RNG = np.random.default_rng(101)


class TestProjection:
    def test_mode_outside_square_is_killed(self):
        f = zero_field(4)
        f[4 + 3, 4] = 1.0
        f[4 - 3, 4] = 1.0
        assert np.all(project_leq(f, 2) == 0)

    def test_minus_one_gives_zero_field(self):
        f = random_field(4, RNG)
        assert np.all(project_leq(f, -1) == 0)

    def test_full_cutoff_is_identity(self):
        f = random_field(4, RNG)
        assert np.array_equal(project_leq(f, 4), f)
        assert np.array_equal(project_leq(f, 9), f)

    def test_idempotent_and_self_adjoint(self):
        f = random_field(6, RNG)
        g = random_field(6, RNG)
        p = project_leq(f, 3)
        assert np.array_equal(project_leq(p, 3), p)
        lhs = l2_inner(p, g)
        rhs = l2_inner(f, project_leq(g, 3))
        assert abs(lhs - rhs) < 1e-13


class TestBracketMultiplier:
    def test_zero_mode_sigma_one(self):
        f = constant_field(4, 1.0)
        g = bracket_multiplier(f, 1.0)
        assert g[4, 4] == pytest.approx(np.sqrt(0.75), abs=1e-15)

    def test_sigma_zero_is_identity(self):
        f = random_field(5, RNG)
        assert np.array_equal(bracket_multiplier(f, 0.0), f)

    def test_mode_10_sigma_minus_two(self):
        f = cosine_field(3, (1, 0))
        g = bracket_multiplier(f, -2.0)
        expect = 0.5 / (0.75 + 4 * np.pi**2)
        assert g[4, 3] == pytest.approx(expect, rel=1e-14)

    def test_multipliers_compose(self):
        f = random_field(6, RNG)
        back = bracket_multiplier(bracket_multiplier(f, 0.85), -0.85)
        assert np.max(np.abs(back - f)) < 1e-13


class TestTransforms:
    def test_constant_field(self):
        f = constant_field(3, 2.5)
        phys = to_physical(f, 9)
        assert np.allclose(phys, 2.5, atol=1e-14)

    def test_single_mode_evaluation(self):
        M = 12
        phys = to_physical(cosine_field(2, (1, 0)), M)
        j = np.arange(M)
        expect = np.cos(2 * np.pi * j / M)[:, None] * np.ones(M)[None, :]
        assert np.max(np.abs(phys - expect)) < 1e-14

    def test_round_trip_identity(self):
        f = random_field(8, RNG, batch=(3,))
        for M in (17, 26, 32):
            rt = to_spectral(to_physical(f, M), 8)
            assert np.max(np.abs(rt - f)) < 1e-12

    def test_resolution_error(self):
        f = random_field(8, RNG)
        with pytest.raises(ResolutionError):
            to_physical(f, 16)

    def test_hermitian_symmetry_preserved(self):
        f = random_field(6, RNG)
        for g in (project_leq(f, 3), bracket_multiplier(f, 0.4),
                  dealiased_product(f, f), to_spectral(to_physical(f, 20), 6)):
            assert hermitian_defect(g) < 1e-12


SEEDS = st.integers(0, 2**32 - 1)
BATCHES = st.lists(st.integers(1, 3), max_size=2).map(tuple)


class TestTransformProperties:
    @settings(deadline=None, max_examples=200)
    @given(N=st.integers(0, 16), extra=st.integers(0, 20), batch=BATCHES, seed=SEEDS)
    def test_slices_equal_fancy_index_oracle(self, N, extra, batch, seed):
        rng = np.random.default_rng(seed)
        K = 2 * N + 1
        M = K + extra
        # non-Hermitian coefficients and arbitrary (not band-limited) samples
        c = rng.standard_normal(batch + (K, K)) + 1j * rng.standard_normal(batch + (K, K))
        phys = rng.standard_normal(batch + (M, M))
        for backend in FFT_BACKENDS:  # each against that backend's 2-d calls
            with fft_backend(backend):
                assert np.array_equal(to_physical(c, M), to_physical_fancy(c, M))
                assert np.array_equal(to_spectral(phys, N), to_spectral_fancy(phys, N))

    def test_large_grid_equals_fancy_index_oracle(self):
        # 2801 is the smallest M whose 1/(M*M) in double differs from its
        # long-double rounding, where a scaled inverse would show it
        M = 2801
        c = np.random.default_rng(3).standard_normal((3, 3)) + 0j
        for backend in FFT_BACKENDS:
            with fft_backend(backend):
                assert np.array_equal(to_physical(c, M), to_physical_fancy(c, M))

    @pytest.mark.parametrize("backend", FFT_BACKENDS)
    def test_constant_field_samples_exactly(self, backend):
        # the unnormalized inverse applies no scale factor to round
        grids = sorted({spectral.fast_grid_size(m) for m in range(1, 700)})
        with fft_backend(backend):
            for M in grids:
                for N in {0, (M - 1) // 2}:
                    for value in (1.0, 3.0, -0.7):
                        phys = to_physical(constant_field(N, value), M)
                        assert np.all(phys == value), (M, N, value)

    @settings(deadline=None, max_examples=50)
    @given(K=st.integers(1, 33), batch=BATCHES, seed=SEEDS)
    def test_fft2_equals_numpy_fft2(self, K, batch, seed):
        w = np.random.default_rng(seed).standard_normal(batch + (K, K))
        for backend in FFT_BACKENDS:
            with fft_backend(backend):
                assert np.array_equal(spectral.fft2(w), np.fft.fft2(w))

    @settings(deadline=None)
    @given(N=st.integers(0, 16), extra=st.integers(0, 20), batch=BATCHES, seed=SEEDS)
    def test_round_trip(self, N, extra, batch, seed):
        c = random_field(N, np.random.default_rng(seed), batch=batch)
        rt = to_spectral(to_physical(c, 2 * N + 1 + extra), N)
        assert np.max(np.abs(rt - c)) < 1e-12

    @settings(deadline=None)
    @given(Nf=st.integers(0, 6), Ng=st.integers(0, 6), seed=SEEDS)
    def test_product_matches_direct_convolution(self, Nf, Ng, seed):
        rng = np.random.default_rng(seed)
        f, g = random_field(Nf, rng), random_field(Ng, rng)
        assert np.max(np.abs(dealiased_product(f, g) - convolution_oracle(f, g))) < 1e-12


# the rows of a batch that a boolean mask gathers, as the X^alpha evaluation
# gathers the (path, time) entries it transforms
MASKS = {"some": lambda n: np.arange(n) % 3 == 1, "one": lambda n: np.arange(n) == n - 1,
         "all": lambda n: np.ones(n, dtype=bool)}


def _batch_routes(M, p):
    return {
        "to_physical": lambda c, ph: to_physical(c[..., 0, :, :], M),
        "to_spectral": lambda c, ph: to_spectral(ph, (c.shape[-1] - 1) // 2),
        "lp_norm": lambda c, ph: lp_norm(c[..., 1, :, :], p),
        "pair_norm": lambda c, ph: pair_norm(c, 0.25, p),
    }


class TestBatchIndependence:
    @pytest.mark.parametrize("backend", FFT_BACKENDS)
    @pytest.mark.parametrize("mask", sorted(MASKS))
    @pytest.mark.parametrize("p", [2.0, 8.0, 16.0])
    @pytest.mark.parametrize("N, batch", [(1, (6,)), (4, (41,)), (8, (12,))])
    def test_masked_rows_equal_full_batch(self, backend, mask, p, N, batch):
        rng = np.random.default_rng(N)
        K, M = 2 * N + 1, quad_grid_size(N)
        c = rng.standard_normal(batch + (2, K, K)) + 1j * rng.standard_normal(batch + (2, K, K))
        ph = rng.standard_normal(batch + (M, M))
        keep = MASKS[mask](batch[0])
        with fft_backend(backend):
            for name, route in _batch_routes(M, p).items():
                assert np.array_equal(route(c[keep], ph[keep]), route(c, ph)[keep]), name

    @pytest.mark.parametrize("p", [2.0, 8.0, 16.0])
    @pytest.mark.parametrize("N", [1, 4, 8])
    def test_backends_agree(self, p, N):
        rng = np.random.default_rng(N)
        M = quad_grid_size(N)
        c = random_pair(N, rng, batch=(5,))
        ph = rng.standard_normal((5, M, M))
        out = {}
        for backend in FFT_BACKENDS:
            with fft_backend(backend):
                out[backend] = {k: route(c, ph) for k, route in _batch_routes(M, p).items()}
        for name, a in out["scipy"].items():
            b = out["numpy"][name]
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a)), name


# quadrature budgets: one path per block, the default, the whole batch at once
BUDGETS = [1, spectral.CHUNK_BYTES, 1 << 40]


class TestLoneEqualsRow:
    """A lone field (batch ()) gets the bits of its row in a batch: powers of
    per-path values go through the array kernels, not numpy's scalar ``**``
    (libm pow), which differs from them in the last bit on some inputs."""

    ALPHA = 0.25
    rng = np.random.default_rng(87)
    FIELDS = random_field(4, rng, batch=(87,))
    PAIRS = random_pair(4, rng, batch=(87,))

    @pytest.mark.parametrize("norm", ["lp_norm", "sobolev_norm", "pair_norm"])
    def test_norm(self, norm):
        for p in (2.0, 8.0, 2.0 / (1.0 - self.ALPHA)):
            fn, data = {"lp_norm": (lambda x: lp_norm(x, p), self.FIELDS),
                        "sobolev_norm": (lambda x: sobolev_norm(x, self.ALPHA, p),
                                         self.FIELDS),
                        "pair_norm": (lambda x: pair_norm(x, self.ALPHA, p),
                                      self.PAIRS)}[norm]
            lone = np.array([fn(x) for x in data])
            assert np.array_equal(lone, fn(data)), p


class TestQuadratureBlocks:
    """``lp_norm`` samples at most CHUNK_BYTES worth of paths at a time; its
    values must equal one whole-batch transform bit for bit."""

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("p", [8.0 / 3.0, 8.0, 16.0])
    @pytest.mark.parametrize("batch", [(), (1,), (7,), (2, 3), (1000,)])
    def test_equals_whole_batch(self, monkeypatch, batch, p, budget):
        monkeypatch.setattr(spectral, "CHUNK_BYTES", budget)
        c = random_field(4, np.random.default_rng(len(batch)), batch=batch)
        got = lp_norm(c, p)
        assert np.shape(got) == batch
        assert np.array_equal(got, lp_norm_whole(c, p))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy warns on the non-finite data
    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("p", [8.0 / 3.0, 8.0, 16.0])
    def test_nan_and_inf_rows(self, monkeypatch, p, budget):
        monkeypatch.setattr(spectral, "CHUNK_BYTES", budget)
        c = random_field(4, RNG, batch=(7,))
        c[2, 4, 4] = np.nan
        c[5, 3, 6] = np.inf
        got = lp_norm(c, p)
        assert np.array_equal(got, lp_norm_whole(c, p), equal_nan=True)
        # a non-finite row spoils no other row of its block
        assert not np.isfinite(got[[2, 5]]).any()
        assert np.isfinite(np.delete(got, [2, 5])).all()

    def test_large_batch_in_blocks(self, monkeypatch):
        # 1000 paths at N = 8 sample 36 x 36 points each: 12 paths a block
        rows = []
        real = spectral.to_physical
        monkeypatch.setattr(spectral, "to_physical",
                            lambda c, M: rows.append(c.shape[0]) or real(c, M))
        lp_norm(random_field(8, RNG, batch=(1000,)), 8.0)
        per_block = spectral.CHUNK_BYTES // (quad_grid_size(8) ** 2 * 16)
        assert per_block == 12
        assert rows == [12] * 83 + [4]

    def test_transient_memory_bounded(self):
        # sampling all 1000 paths at once held about 34 MB; the blocks hold
        # the multiplied copy of the input and a few blocks of samples
        c = random_field(8, RNG, batch=(1000,))
        sobolev_norm(c, 0.25, 8.0 / 3.0)  # plans and tables cached first
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sobolev_norm(c, 0.25, 8.0 / 3.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < c.nbytes + 4 * spectral.CHUNK_BYTES


class TestDealiasedProduct:
    def test_cosine_cube(self):
        # cos^3 t = (3 cos t + cos 3t)/4
        f = cosine_field(3, (1, 0))
        cube = dealiased_product(f, f, f, out_N=3)
        assert cube[3 + 1, 3] == pytest.approx(3 / 8, abs=1e-15)
        assert cube[3 + 3, 3] == pytest.approx(1 / 8, abs=1e-15)
        assert abs(cube[3, 3]) < 1e-15

    def test_constants_multiply(self):
        f = constant_field(2, 3.0)
        g = constant_field(2, -0.5)
        prod = dealiased_product(f, g)
        assert spectral.integral(prod) == pytest.approx(-1.5, abs=1e-14)
        assert np.sum(np.abs(prod)) == pytest.approx(1.5, abs=1e-14)

    def test_against_direct_convolution(self):
        for N in (2, 4, 6):
            f = random_field(N, RNG)
            g = random_field(N, RNG)
            direct = convolution_oracle(f, g)
            fast = dealiased_product(f, g)
            assert np.max(np.abs(fast - direct)) < 1e-12

    def test_truncated_output_matches_oracle(self):
        f = random_field(4, RNG)
        g = random_field(4, RNG)
        h = random_field(4, RNG)
        full = convolution_oracle(convolution_oracle(f, g), h)
        got = dealiased_product(f, g, h, out_N=4)
        sl = slice(12 - 4, 12 + 5)
        assert np.max(np.abs(got - full[sl, sl])) < 1e-12

    def test_mixed_truncations(self):
        f = random_field(2, RNG)
        g = random_field(5, RNG)
        assert np.max(np.abs(dealiased_product(f, g)
                             - convolution_oracle(f, g))) < 1e-12


class TestNorms:
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_integral_owns_its_values(self, batch):
        # a sampled mean must not keep the whole field alive
        f = random_field(4, RNG, batch=batch)
        got = integral(f)
        assert not np.shares_memory(got, f)
        assert np.array_equal(got, f[..., 4, 4].real)

    def test_constant_field_all_alpha_p(self):
        f = constant_field(4, -1.7)
        for alpha in (-1.0, 0.0, 0.6):
            for p in (2.0, 4.0, 16.0):
                expect = 1.7 * 0.75 ** (alpha / 2.0)
                assert sobolev_norm(f, alpha, p) == pytest.approx(expect, rel=1e-12)

    def test_cosine_l2(self):
        f = cosine_field(4, (1, 0))
        assert sobolev_norm(f, 0.0, 2.0) == pytest.approx(1 / np.sqrt(2), rel=1e-14)

    def test_p2_equals_plancherel(self):
        f = random_field(6, RNG)
        alpha = 0.8
        plancherel = np.sqrt(np.sum(
            spectral.omega_table(6) ** (2 * alpha) * np.abs(f) ** 2))
        assert sobolev_norm(f, alpha, 2.0) == pytest.approx(plancherel, rel=1e-12)

    def test_quadrature_vs_high_resolution_oracle(self):
        # p = 4 at padding 2 resolves |g|^4 exactly, so 8x padding agrees
        f = random_field(4, RNG)
        a = sobolev_norm(f, 1.0, 4.0)
        b = lp_norm_whole(bracket_multiplier(f, 1.0), 4.0, pad=8.0)
        assert a == pytest.approx(b, abs=1e-8 * max(a, 1.0))

    def test_pair_norm_cases(self):
        assert pair_norm(spectral.zero_pair(4), 0.3, 2.0) == 0.0
        c = spectral.zero_pair(4)
        c[0, 4, 4] = 2.0
        assert pair_norm(c, 0.5, 2.0) == pytest.approx(
            2.0 * 0.75**0.25, rel=1e-13)
        v = cosine_pair(4, (1, 0), component=1)
        # alpha = 1: velocity weight <n>^0, Plancherel gives 1/sqrt(2)
        assert pair_norm(v, 1.0, 2.0) == pytest.approx(1 / np.sqrt(2), rel=1e-13)


class TestGridAndHermitize:
    def test_hermitize_projects(self):
        z = RNG.standard_normal((9, 9)) + 1j * RNG.standard_normal((9, 9))
        h = hermitize(z)
        assert hermitian_defect(h) < 1e-15
        assert abs(h[4, 4].imag) < 1e-16
        # idempotent
        assert np.max(np.abs(hermitize(h) - h)) < 1e-16

    def test_random_pair_is_hermitian(self):
        p = random_pair(5, RNG, batch=(2,))
        assert hermitian_defect(p[..., 0, :, :]) < 1e-14
        assert hermitian_defect(p[..., 1, :, :]) < 1e-14
