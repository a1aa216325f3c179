import re

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from levyspde.noise import (
    CovarianceSpec,
    JumpPath,
    LevyLaw,
    _DRAW_JUMPS_MAX,
    _compound_poisson_draws,
    hs_condition,
    increments_from_path,
    sample_jump_path,
    stream,
)
from levyspde.spectral import dirichlet_spectrum

ALL_LAWS = [
    LevyLaw("compound_poisson", intensity=2.0, jumps="two_point"),
    LevyLaw("compound_poisson", intensity=2.0, jumps="normal"),
]


def increments(law: LevyLaw, dt: float, K: int, rng) -> np.ndarray:
    """K coordinate increments over a span dt: each coordinate's jumps summed."""
    coord, _, sizes = _compound_poisson_draws(law, dt, K, rng)
    return np.bincount(coord, weights=sizes, minlength=K)


def excess_kurtosis(law: LevyLaw, dt: float) -> float:
    """kappa_4 / var^2 = E J^4 / (intensity dt (E J^2)^2) of an increment over dt."""
    j4 = 1.0 if law.jumps == "two_point" else 3.0  # E J^4 in units of (E J^2)^2
    return j4 / (law.intensity * dt)


class TestCovariance:
    def test_power_law_values(self):
        spec = dirichlet_spectrum(3)
        q = CovarianceSpec(amplitude=2.0, decay=1.0).values(spec)
        np.testing.assert_allclose(q, 2.0 / spec.eigenvalues, rtol=1e-15)

    @pytest.mark.parametrize("decay", [None, -0.1, float("nan"), float("inf")])
    def test_decay_required(self, decay):
        # inf used to give zero noise
        with pytest.raises(ValueError, match="decay exponent must be given, finite and >= 0"):
            CovarianceSpec(amplitude=1.0, decay=decay)

    @pytest.mark.parametrize("amplitude", [0.0, -1.0, float("nan"), float("inf")])
    def test_amplitude_finite_and_positive(self, amplitude):
        with pytest.raises(ValueError, match="amplitude must be finite and > 0"):
            CovarianceSpec(amplitude=amplitude, decay=0.5)


class TestHsCondition:
    def test_boundary_exponent_diverges(self):
        # beta = decay + 1/rho puts the summand exponent at the harmonic edge
        spec = dirichlet_spectrum(64)
        cov = CovarianceSpec(amplitude=1.0, decay=0.5)
        rep = hs_condition(spec, cov, beta=0.5 + 1.0, rho=1.0)
        assert rep.converges is False
        assert rep.tail_bound == np.inf

    def test_converging_sum_with_tail_bound(self):
        spec = dirichlet_spectrum(4096)
        cov = CovarianceSpec(amplitude=1.0, decay=0.55)
        rep = hs_condition(spec, cov, beta=1.0, rho=1.0)
        assert rep.converges is True
        direct = np.sum(spec.eigenvalues ** (1.0 - 1.0) * cov.values(spec))
        assert rep.partial_sum == pytest.approx(direct, rel=1e-15)
        assert rep.norm**2 == pytest.approx(rep.partial_sum, rel=1e-15)
        # integral-comparison bound dominates the actual continuation
        spec2 = dirichlet_spectrum(8192)
        rep2 = hs_condition(spec2, cov, beta=1.0, rho=1.0)
        assert rep2.partial_sum - rep.partial_sum <= rep.tail_bound

    def test_exponent_is_the_summability_exponent(self):
        # run_study's refusal and check-condition print this value; it is the
        # expression both computed for themselves, bit for bit
        spec = dirichlet_spectrum(16)
        for decay, beta, rho in ((0.55, 1.0, 1.0), (0.3833, 0.5, 1.5), (0.2, 1.0, 1.0), (0.3, 0.75, 1.9)):
            rep = hs_condition(spec, CovarianceSpec(amplitude=1.0, decay=decay), beta, rho)
            assert rep.exponent == 2.0 * (decay + 1.0 / rho - beta)
            assert rep.converges == (rep.exponent > 1.0)

    def test_beta_zero_always_converges(self):
        spec = dirichlet_spectrum(32)
        for decay in (0.0, 0.3, 1.0):
            for rho in (1.0, 1.5, 1.9):
                rep = hs_condition(spec, CovarianceSpec(amplitude=1.0, decay=decay), 0.0, rho)
                assert rep.converges is True

    def test_monotone_in_beta(self):
        spec = dirichlet_spectrum(256)
        cov = CovarianceSpec(amplitude=1.0, decay=0.6)
        vals = [hs_condition(spec, cov, b).partial_sum for b in (0.2, 0.5, 0.8, 1.1)]
        assert np.all(np.diff(vals) > 0)

    def test_bad_rho(self):
        with pytest.raises(ValueError):
            hs_condition(dirichlet_spectrum(4), CovarianceSpec(decay=0.5), 1.0, rho=2.0)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_beta_refused(self, beta):
        # nan used to give a nan partial sum and an infinite tail bound
        spec, cov = dirichlet_spectrum(8), CovarianceSpec(decay=0.5)
        with pytest.raises(ValueError, match="beta must be finite"):
            hs_condition(spec, cov, beta)


class TestSampling:
    @pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: f"{l.kind}-{l.jumps}")
    @pytest.mark.parametrize("dt", [1e-3, 1e-1, 1.0])
    def test_moments(self, law, dt):
        n_rep, K = 400, 250  # 1e5 draws
        draws = np.concatenate([increments(law, dt, K, stream(11, i)) for i in range(n_rep)])
        n = draws.size
        se_mean = np.sqrt(dt / n)
        assert abs(draws.mean()) <= 4 * se_mean
        # var of the sample variance ~ (kappa4 + 2 var^2)/n
        se2 = (excess_kurtosis(law, dt) + 2.0) * dt**2 / n
        assert abs(draws.var() - dt) <= 5 * np.sqrt(se2)

    def test_zero_jump_event_gives_zero(self):
        law = LevyLaw("compound_poisson", intensity=1e-7)
        draws = increments(law, 1e-3, 1000, stream(0, 0))
        assert np.all(draws == 0.0)

    def test_cross_mode_uncorrelated(self):
        for law in ALL_LAWS:
            pairs = np.array([increments(law, 1.0, 2, stream(17, i)) for i in range(4000)])
            corr = np.mean(pairs[:, 0] * pairs[:, 1])
            se = np.sqrt(np.mean(pairs[:, 0] ** 2 * pairs[:, 1] ** 2) / 4000)
            assert abs(corr) <= 4 * se

    def test_bad_dt(self):
        with pytest.raises(ValueError, match="horizon"):
            sample_jump_path(ALL_LAWS[0], -1.0, 4, stream(0, 0))

    @pytest.mark.parametrize("T", [float("inf"), float("nan")])
    def test_non_finite_horizon_refused(self, T):
        # these used to end in numpy's "lam value too large" and "lam < 0 or lam is NaN"
        with pytest.raises(ValueError, match="horizon T must be finite and >= 0"):
            sample_jump_path(ALL_LAWS[0], T, 4, stream(0, 0))

    @pytest.mark.parametrize("K", [-2, 2.5, 4.0, True])
    def test_mode_count_must_be_whole(self, K):
        # -2 used to end in "negative dimensions are not allowed"
        assert sample_jump_path(ALL_LAWS[0], 1.0, np.int64(0), stream(0, 0)).mode_count == 0
        with pytest.raises(ValueError, match="mode count K must be a whole number >= 0"):
            sample_jump_path(ALL_LAWS[0], 1.0, K, stream(0, 0))

    def test_bad_law_kind(self):
        for kind in ("poisson", "variance_gamma", "gamma_subordinated_wiener"):
            with pytest.raises(ValueError, match="compound_poisson"):
                LevyLaw(kind)
        with pytest.raises(ValueError):
            LevyLaw("compound_poisson", intensity=-1.0)
        with pytest.raises(ValueError):
            LevyLaw("compound_poisson", jumps="laplace")

    @pytest.mark.parametrize(
        "intensity, K, message",
        [
            (1e30, 4, r": the Poisson mean 1e\+30 is past the sampler's"),
            (1e30, 0, r": the Poisson mean 1e\+30 is past the sampler's"),
            (1e13, 4, r" expects 4e\+13 jumps; one draw holds at most 53687091"),
        ],
        ids=["past-poisson-range", "past-poisson-range-no-modes", "past-memory-cap"],
    )
    def test_intensity_the_sampler_cannot_draw_refused(self, intensity, K, message):
        # 1e30 used to end in numpy's "lam value too large", 1e13 in an _ArrayMemoryError for 291 TiB
        rng = stream(0, 0)
        law = LevyLaw("compound_poisson", intensity=intensity)
        with pytest.raises(ValueError, match=re.escape(f"jump intensity {intensity:g} over T = 1 on {K} coordinates") + message):
            sample_jump_path(law, 1.0, K, rng)
        np.testing.assert_array_equal(rng.random(4), stream(0, 0).random(4))  # refused before any draw

    def test_draw_inside_the_memory_budget_is_drawn(self):
        # 4.5M expected jumps (about 110 MB of arrays) lie past 2^22 but well inside the cap
        law = LevyLaw("compound_poisson", intensity=4.5e6)
        coord, t, s = _compound_poisson_draws(law, 1.0, 1, stream(0, 0))
        assert (1 << 22) < t.size < _DRAW_JUMPS_MAX and coord.size == s.size == t.size

    def test_draws_are_three_generator_calls(self):
        # the refusals add no draw: counts, times and sizes are one generator call each
        law = LevyLaw("compound_poisson", intensity=3.0)
        coord, t, s = _compound_poisson_draws(law, 0.7, 5, stream(9, 1))
        rng = stream(9, 1)
        counts = rng.poisson(law.intensity * 0.7, size=5)
        np.testing.assert_array_equal(coord, np.repeat(np.arange(5), counts))
        np.testing.assert_array_equal(t, 0.7 * rng.random(counts.sum()))
        np.testing.assert_array_equal(s, (2.0 * rng.integers(0, 2, size=counts.sum()) - 1.0) / np.sqrt(3.0))

    @pytest.mark.parametrize("intensity", [0.0, -1.0, float("nan"), float("inf")])
    def test_intensity_finite_and_positive(self, intensity):
        # inf used to be accepted and end in an OverflowError inside the MC
        with pytest.raises(ValueError, match="jump intensity must be finite and > 0"):
            LevyLaw("compound_poisson", intensity=intensity)

    @pytest.mark.parametrize("seed, path", [(1.5, ()), (-1, ()), (True, ()), ("3", ()), (1, (0.5,)), (1, (-1,))])
    def test_stream_indices_must_be_whole(self, seed, path):
        # seed 1.5 used to run as seed 1
        np.testing.assert_array_equal(stream(np.int64(1), np.int64(2)).random(3), stream(1, 2).random(3))
        with pytest.raises(ValueError, match="stream seed and path must be whole numbers >= 0"):
            stream(seed, *path)

    def test_stream_reproducible_and_split(self):
        a = stream(1, 2).standard_normal(4)
        b = stream(1, 2).standard_normal(4)
        c = stream(1, 3).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestJumpPaths:
    def test_zero_horizon_empty(self):
        law = LevyLaw("compound_poisson", intensity=3.0)
        path = sample_jump_path(law, 0.0, 5, stream(0, 0))
        assert all(t.size == 0 for t in path.times)

    def test_mean_jump_count(self):
        law = LevyLaw("compound_poisson", intensity=2.5)
        counts = []
        for i in range(2000):
            path = sample_jump_path(law, 2.0, 5, stream(23, i))
            counts.extend(t.size for t in path.times)
        counts = np.asarray(counts, float)
        expect = 2.5 * 2.0
        se = np.sqrt(expect / counts.size)
        assert abs(counts.mean() - expect) <= 4 * se

    def test_aggregation_matches_increment_sampler(self):
        # cell sums of a path follow the same law the direct sampler draws from
        law = LevyLaw("compound_poisson", intensity=2.0)
        grid = np.linspace(0.0, 1.0, 5)
        agg = []
        for i in range(1500):
            path = sample_jump_path(law, 1.0, 4, stream(31, i))
            agg.append(increments_from_path(path, grid).ravel())
        agg = np.concatenate(agg)
        direct = np.concatenate([increments(law, 0.25, 4 * 4, stream(37, i)) for i in range(1500)])
        for sample in (agg, direct):
            assert abs(sample.mean()) <= 4 * np.sqrt(0.25 / sample.size)
        se_var = 0.25 * np.sqrt((excess_kurtosis(law, 0.25) + 2.0) / agg.size)
        assert abs(agg.var() - direct.var()) <= 6 * se_var

    def test_single_jump_lands_in_right_closed_cell(self):
        path = JumpPath(horizon=1.0, times=[np.array([0.3])], sizes=[np.array([2.0])])
        inc = increments_from_path(path, np.array([0.0, 0.5, 1.0]))
        np.testing.assert_array_equal(inc, [[2.0, 0.0]])
        # a jump exactly on an edge belongs to the left cell (right-closed)
        path2 = JumpPath(horizon=1.0, times=[np.array([0.5])], sizes=[np.array([1.0])])
        inc2 = increments_from_path(path2, np.array([0.0, 0.5, 1.0]))
        np.testing.assert_array_equal(inc2, [[1.0, 0.0]])

    def test_telescoping_exact_for_dyadic_sizes(self):
        # intensity 1 and 4 make two-point jump sizes 1 and 1/2: exact floats
        for intensity, seed in ((1.0, 2), (4.0, 3)):
            law = LevyLaw("compound_poisson", intensity=intensity)
            path = sample_jump_path(law, 1.0, 6, stream(seed, 0))
            inc = increments_from_path(path, np.linspace(0.0, 1.0, 9))
            np.testing.assert_array_equal(inc.sum(axis=1), [s.sum() for s in path.sizes])

    def test_refinement_pairwise_exact(self):
        law = LevyLaw("compound_poisson", intensity=4.0)
        path = sample_jump_path(law, 1.0, 6, stream(4, 0))
        coarse = increments_from_path(path, np.linspace(0.0, 1.0, 5))
        fine = increments_from_path(path, np.linspace(0.0, 1.0, 9))
        np.testing.assert_array_equal(fine[:, ::2] + fine[:, 1::2], coarse)

    @hypothesis.given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=8))
    def test_telescoping_close_for_any_intensity(self, seed, ncell):
        law = LevyLaw("compound_poisson", intensity=3.0, jumps="normal")
        path = sample_jump_path(law, 1.0, 3, stream(seed, 0))
        inc = increments_from_path(path, np.linspace(0.0, 1.0, ncell + 1))
        np.testing.assert_allclose(inc.sum(axis=1), [s.sum() for s in path.sizes], rtol=1e-12, atol=1e-13)

    def test_grid_beyond_horizon_rejected(self):
        law = LevyLaw("compound_poisson", intensity=1.0)
        path = sample_jump_path(law, 1.0, 2, stream(0, 0))
        with pytest.raises(ValueError):
            increments_from_path(path, np.array([0.0, 0.5, 1.5]))
        with pytest.raises(ValueError):
            increments_from_path(path, np.array([0.1, 0.5]))
