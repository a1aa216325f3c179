import re

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from levyspde.errors import Setup, _noise_factor, _pole, _terminal_factor, propagator_error_profile
from levyspde.mittag_leffler import mittag_leffler_neg
from levyspde.noise import CovarianceSpec, LevyLaw
from levyspde.propagators import (
    EquationKind,
    cq_mode_solve,
    cq_resolvent,
    cq_weights,
    discrete_family,
    heat_kind,
    i_stability_check,
    step_log,
    volterra_kind,
    wave_kind,
)
from levyspde.spectral import dirichlet_spectrum


def be_steps(lam: float, dt: float, N: int) -> np.ndarray:
    """Backward Euler factors (1 + dt lam)^(-n), n = 0..N, from the heat family."""
    return discrete_family(heat_kind(), np.array([lam]), dt, N).steps[0]


def wave_step(scheme: str, lam: float, dt: float) -> complex:
    """The one-step complex carrier z = e^(log z) of a wave scheme."""
    return complex(np.exp(step_log(wave_kind(scheme), lam, dt)))


def rational_block(scheme: str, dt: float, lam: float) -> np.ndarray:
    """R(dt A) by linear solves with the 2x2 wave generator A = [[0, -1], [lam, 0]]
    (u' = v, v' = -lam u reads X' = -A X), apart from the complex carrier."""
    a, eye = dt * np.array([[0.0, -1.0], [lam, 0.0]]), np.eye(2)
    if scheme == "crank_nicolson":
        return np.linalg.solve(2.0 * eye + a, 2.0 * eye - a)
    if scheme == "backward_euler":
        return np.linalg.solve(eye + a, eye)
    return eye - a


class TestEquationKind:
    def test_volterra_needs_interior_rho(self):
        # 1.001 and 1.005 lie below the verified range of E_rho
        for bad in (1.0, 1.001, 1.005, 2.0, 0.5):
            with pytest.raises(ValueError, match=r"\[1\.01, 2\).*verified range"):
                EquationKind("volterra", rho=bad)
        assert volterra_kind(1.01).rho == 1.01

    def test_unknown_names(self):
        with pytest.raises(ValueError):
            EquationKind("advection")
        with pytest.raises(ValueError):
            EquationKind("wave", scheme="leapfrog")

    def test_wave_default_scheme(self):
        assert wave_kind().scheme == "crank_nicolson"

    def test_stray_rho_and_scheme_refused(self):
        # a rho off Volterra and a scheme off the wave used to be accepted and ignored
        for name in ("heat", "wave"):
            with pytest.raises(ValueError, match=f"rho applies to volterra only; {name} takes none, got rho=1.7"):
                EquationKind(name, rho=1.7)
        for name, rho in (("heat", None), ("volterra", 1.5)):
            with pytest.raises(ValueError, match=f"scheme applies to wave only; {name} takes none"):
                EquationKind(name, rho=rho, scheme="explicit_euler")


class TestExactFactors:
    def test_time_zero_identity(self):
        assert _noise_factor(heat_kind(), 3.0, 0.0) == 1.0
        assert _noise_factor(volterra_kind(1.5), 3.0, 0.0) == 1.0
        assert _noise_factor(wave_kind(), 3.0, 0.0) == 0.0
        assert _terminal_factor(wave_kind(), 3.0, 0.0) == 1.0

    def test_heat_half_life(self):
        lam = 4.2
        assert _noise_factor(heat_kind(), lam, np.log(2.0) / lam) == pytest.approx(0.5, rel=1e-14)

    def test_heat_exponent_floored_at_minus_700(self):
        # at or above e^-700 the heat factor is np.exp's own bits; below, it lies
        # in [0, e^-700], finite however large lam is.  Wave and Volterra are unfloored.
        lam = np.concatenate([np.geomspace(1.0, 1e6, 61), [699.9, 700.0, 700.1, 708.5, 1e300, 1e308]])[:, None]
        s = np.array([0.0, 1e-3, 0.25, 0.999, 1.0, 10.0])
        with np.errstate(over="ignore"):  # 1e308 * 10 is an exponent of -inf
            got, exponent = _noise_factor(heat_kind(), lam, s), -lam * s
        above = exponent >= -700.0
        assert above.sum() > 100 and (~above).sum() > 100 and np.isneginf(exponent).any()
        assert np.array_equal(got[above], np.exp(exponent[above]))
        assert np.all(np.isfinite(got)) and np.all((got[~above] >= 0.0) & (got[~above] <= np.exp(-700.0)))
        lam, s = np.geomspace(1.0, 1e12, 41)[:, None], np.linspace(0.0, 1.0, 9)
        root = np.sqrt(lam)
        assert np.array_equal(_noise_factor(wave_kind(), lam, s), np.sin(root * s) / root)
        assert np.array_equal(_noise_factor(volterra_kind(1.5), lam, s), mittag_leffler_neg(1.5, lam * s**1.5))

    def test_wave_energy_preserved(self):
        # the exact wave block is the rotation cos(t rt) - i sin(t rt), rt = sqrt(lam),
        # of w = a + i b/sqrt(lam), |w|^2 = a^2 + b^2/lam; its noise column's
        # position response is sin(t rt) / rt
        rng = np.random.default_rng(0)
        lam = rng.uniform(0.5, 1e6, 1000)
        t = rng.uniform(0.0, 10.0, 1000)
        a, b = rng.standard_normal((2, 1000))
        rt = np.sqrt(lam)
        z = _terminal_factor(wave_kind(), lam, t)
        np.testing.assert_allclose(z, np.cos(t * rt) - 1j * np.sin(t * rt), rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(_noise_factor(wave_kind(), lam, t) * rt, np.sin(t * rt), rtol=0.0, atol=1e-15)
        w = a + 1j * b / rt
        assert np.max(np.abs(np.abs(z * w) ** 2 - np.abs(w) ** 2) / np.abs(w) ** 2) <= 1e-12


class TestCqWeights:
    def test_first_weight(self):
        w = cq_weights(1.5, 0.1, 4)
        assert w[0] == pytest.approx(0.1**0.5, rel=1e-15)

    def test_first_ratio_is_rho_minus_one(self):
        # d/dz (1-z)^(1-rho) at 0 gives c_1 = rho - 1
        for rho in (1.1, 1.5, 1.9):
            w = cq_weights(rho, 1.0, 3)
            assert w[1] == pytest.approx(rho - 1.0, rel=1e-14)

    def test_heat_limit(self):
        w = cq_weights(1.0 + 1e-12, 1.0, 6)
        assert np.all(np.abs(w[1:]) <= 1e-11)

    @pytest.mark.parametrize("rho", [1.1, 1.5, 1.9])
    def test_positive_nonincreasing_long(self, rho):
        w = cq_weights(rho, 0.01, 10000)
        assert np.all(w > 0)
        assert np.all(np.diff(w) <= 0)

    @hypothesis.given(st.floats(min_value=1.01, max_value=1.99), st.integers(min_value=2, max_value=200))
    def test_positive_nonincreasing_property(self, rho, n):
        w = cq_weights(rho, 0.5, n)
        assert np.all(w > 0)
        assert np.all(np.diff(w) <= 1e-18)

    def test_coefficients_match_generating_function(self):
        # Taylor coefficients of (1-z)^(1-rho) recovered by the Cauchy integral
        # over |z| = 1/2, evaluated with the FFT: an independent route
        rho = 1.3
        n = 64
        radius = 0.5
        z = radius * np.exp(2j * np.pi * np.arange(n) / n)
        coeff = np.fft.fft((1.0 - z) ** (1.0 - rho)) / n
        oracle = (coeff.real / radius ** np.arange(n))[:6]
        w = cq_weights(rho, 1.0, 6)
        np.testing.assert_allclose(w, oracle, rtol=1e-11)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            cq_weights(2.0, 0.1, 4)
        with pytest.raises(ValueError):
            cq_weights(1.5, 0.1, 0)

    @pytest.mark.parametrize("dt", [-0.1, 0.0, float("nan"), float("inf")])
    def test_step_must_be_finite_and_positive(self, dt):
        # -0.1 used to give complex weights, nan and inf nan and inf
        with pytest.raises(ValueError, match="step dt must be finite and > 0"):
            cq_weights(1.5, dt, 4)

    @pytest.mark.parametrize("N", [0, -3, 2.5, 4.0, True])
    def test_count_must_be_whole(self, N):
        np.testing.assert_array_equal(cq_weights(1.5, 0.1, np.int64(4)), cq_weights(1.5, 0.1, 4))
        with pytest.raises(ValueError, match="weight count N must be a whole number >= 1"):
            cq_weights(1.5, 0.1, N)


class TestBeModePower:
    def test_zero_steps(self):
        assert be_steps(5.0, 0.1, 3)[0] == 1.0

    def test_quarter(self):
        assert be_steps(10.0, 0.1, 2)[2] == pytest.approx(0.25, rel=1e-15)

    def test_first_order_limit(self):
        lam, t = 2.0, 1.0
        dts = [1e-2, 1e-3, 1e-4]
        errs = [abs(be_steps(lam, dt, int(round(t / dt)))[-1] - np.exp(-lam * t)) for dt in dts]
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope >= 0.9

    def test_bounded_monotone(self):
        vals = be_steps(7.0, 0.2, 49)
        assert np.all(vals > 0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) < 0)


class TestCqSolve:
    def test_zero_stiffness_random_walk(self):
        x = cq_mode_solve(1e-30, 1.5, 0.1, 5)
        np.testing.assert_allclose(x, np.ones(5), rtol=1e-12)

    def test_homogeneous_converges_to_kernel(self):
        lam, rho, T = np.pi**2, 1.5, 1.0
        ref = mittag_leffler_neg(rho, lam * T**rho)
        ns = np.array([64, 128, 256, 512, 1024])
        errs = [abs(cq_resolvent(np.array([lam]), rho, T / n, n)[0, -1] - ref) for n in ns]
        slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert slope >= 0.9

    def test_matches_resolvent_table(self):
        lam, rho, N = 3.7, 1.3, 24
        x = cq_mode_solve(lam, rho, 1.0 / N, N)
        e = cq_resolvent(np.array([lam]), rho, 1.0 / N, N)[0]
        np.testing.assert_array_equal(x, e[1:])

    @pytest.mark.parametrize("N", [33, 101, 1024])  # past the first block; 101 ends in a partial one
    @pytest.mark.parametrize("rho", [1.01, 1.5, 1.99])
    def test_blocked_solve_matches_march(self, N, rho):
        # the blocked Toeplitz solve against the per-mode step-by-step march;
        # both carry rounding that grows with the step count (at N = 1024,
        # rho = 1.99, lam = 1 each is about 4e-14 from an extended-precision
        # march, and they differ by 1.3e-14), so the bound is N unit roundoffs
        dt = 1.0 / N
        lam = np.geomspace(1.0, (1024 * np.pi) ** 2 / dt, 12)
        e = cq_resolvent(lam, rho, dt, N)
        for lk, row in zip(lam, e):
            np.testing.assert_allclose(row[1:], cq_mode_solve(lk, rho, dt, N), rtol=0, atol=N * 2.0**-53)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -100.0, -(0.1**-1.5)])
    def test_refuses_bad_eigenvalue(self, lam):
        # the last value makes sigma_0 = 1 + dt^rho lam zero at dt = 0.1
        with pytest.raises(ValueError, match=f"lam_h must be finite and >= 0, got {re.escape(str(lam))}"):
            cq_resolvent(np.array([1.0, lam]), 1.5, 0.1, 40)
        with pytest.raises(ValueError, match=f"lam_h must be finite and >= 0, got {re.escape(str(lam))}"):
            cq_mode_solve(lam, 1.5, 0.1, 40)

    def test_refuses_overflowing_eigenvalue(self):
        # finite, but dt lam = 2e308 is not: the parent returned [1, 0, nan, ...]
        with pytest.raises(ValueError, match=r"lam_h = 1e\+308 overflows at dt = 10.0"):
            cq_resolvent(np.array([1.0, 1e308]), 1.5, 10.0, 5)
        with pytest.raises(ValueError, match=r"lam_h = 1e\+308 overflows at dt = 10.0"):
            cq_mode_solve(1e308, 1.5, 10.0, 5)

    def test_rho_near_one_is_backward_euler(self):
        lam, N = 2.0, 16
        x = cq_mode_solve(lam, 1.0 + 1e-10, 1.0 / N, N)
        be = (1.0 + lam / N) ** -np.arange(1.0, N + 1)
        np.testing.assert_allclose(x, be, rtol=1e-7)


class TestWaveSchemes:
    def test_dt_to_zero_identity(self):
        z = discrete_family(wave_kind(), np.array([5.0]), 1e-12, 1).steps[0, 1]
        assert abs(z - 1.0) <= 1e-5

    def test_cn_unit_energy_amplification(self):
        for lam in (0.7, 42.0, 9e4):
            assert abs(wave_step("crank_nicolson", lam, 0.05)) == pytest.approx(1.0, abs=1e-13)

    def test_backward_euler_contracts(self):
        # the block scales the energy a^2 + b^2/lam of every state by |z|^2
        for lam in (0.7, 42.0):
            assert abs(wave_step("backward_euler", lam, 0.05)) < 1.0

    def test_cn_thousand_step_energy_drift(self):
        lam, dt = 1234.5, 0.01
        z = discrete_family(wave_kind(), np.array([lam]), dt, 1000).steps[0, -1]
        assert abs(abs(z) - 1.0) <= 1e-10

    def test_step_power_matches_matrix_power(self):
        # the complex carrier against n products of the 2x2 block R(dt A)
        lam, dt, n = 17.0, 0.05, 9
        for scheme in ("backward_euler", "crank_nicolson"):
            m = np.linalg.matrix_power(rational_block(scheme, dt, lam), n)
            z = complex(discrete_family(wave_kind(scheme), np.array([lam]), dt, n).steps[0, -1])
            np.testing.assert_allclose(
                m, [[z.real, -z.imag / np.sqrt(lam)], [z.imag * np.sqrt(lam), z.real]], rtol=1e-12, atol=1e-14
            )

    def test_i_stability(self):
        y = np.linspace(-80.0, 80.0, 4001)
        ok, worst = i_stability_check("crank_nicolson", y)
        assert ok and worst == pytest.approx(1.0, abs=1e-12)
        ok, worst = i_stability_check("backward_euler", y)
        assert ok and worst <= 1.0
        assert np.abs(1.0 / (1.0 + 1j * y[y != 0])).max() < 1.0
        ok, worst = i_stability_check("explicit_euler", y)
        assert not ok and worst > 1.0

    @pytest.mark.parametrize("scheme", ["crank_nicolson", "backward_euler", "explicit_euler"])
    def test_i_stability_against_rational_block(self, scheme):
        # |R(iy)|^2 is the determinant a^2 + lam b^2 of the block R(dt A) at dt = 1, lam = y^2
        y = np.linspace(-64.0, 64.0, 257)
        want = max(np.sqrt(np.linalg.det(rational_block(scheme, 1.0, v * v))) for v in y)
        ok, worst = i_stability_check(scheme, y)
        assert worst == pytest.approx(want, rel=1e-12)
        assert ok == (scheme != "explicit_euler")

    def test_unknown_scheme_refused(self):
        with pytest.raises(ValueError, match="unknown wave scheme"):
            i_stability_check("leapfrog", np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="unknown wave scheme 'leapfrog'"):
            wave_kind("leapfrog")

    def test_unstable_scheme_refused_where_the_kind_is_built(self):
        # the scheme is judged once, by its kind: no Setup, Monte Carlo run or
        # study of any axis can be built on an explicit-Euler wave
        _, worst = i_stability_check("explicit_euler", np.linspace(-64.0, 64.0, 2049))
        message = f"wave scheme 'explicit_euler' is not I-stable: max |R(iy)| = {worst:.6g}"
        assert worst > 1.0
        for build in (lambda: wave_kind("explicit_euler"), lambda: EquationKind("wave", scheme="explicit_euler")):
            with pytest.raises(ValueError, match=re.escape(message)):
                build()



class TestConsistencyOrder:
    @pytest.mark.parametrize(
        "kind, order",
        [
            (heat_kind(), 1),
            (wave_kind("backward_euler"), 1),
            (wave_kind("crank_nicolson"), 2),
        ],
        ids=lambda v: v.scheme or v.name if isinstance(v, EquationKind) else str(v),
    )
    def test_step_log_approaches_pole(self, kind, order):
        # log z / dt - p = O(dt^order), z the one-step factor and p the exact
        # exponent: the classical order the temporal rate fits assume
        lam = np.array([np.pi**2, (8 * np.pi) ** 2])
        dts = 2.0 ** -np.arange(12, 17)
        err = np.array([np.abs(step_log(kind, lam, dt) / dt - _pole(kind, lam)) for dt in dts])
        assert np.all(np.abs(np.log2(err[:-1] / err[1:]) - order) < 0.1)

    def test_step_log_refuses_a_volterra_kind(self):
        # a Volterra step has no one-step factor; it once fell through to the
        # explicit Euler wave log, a growing factor, and so did the scheme
        # terminal factor built from it
        with pytest.raises(ValueError, match="volterra has no one-step factor"):
            step_log(volterra_kind(1.5), 1.0, 0.1)
        with pytest.raises(ValueError, match="volterra has no one-step factor"):
            _terminal_factor(volterra_kind(1.5), np.array([1.0]), 1.0, 10)


def heat_profile(dt: float, N: int, s: float) -> float:
    """propagator_error_profile at s of a one-mode heat setup (lam = pi^2) with N cells of dt."""
    cov = CovarianceSpec(amplitude=1.0, decay=0.0)
    setup = Setup(heat_kind(), dirichlet_spectrum(1), cov, LevyLaw("compound_poisson"), dt * N, n_cells=N)
    return float(propagator_error_profile(setup, np.array([s]))[0])


class TestDiscreteFamily:
    def test_time_zero_is_projection(self):
        fam = discrete_family(heat_kind(), np.array([1.0, 4.0]), 0.25, 4)
        np.testing.assert_array_equal(fam.steps[:, 0], [1.0, 1.0])

    def test_first_cell_single_step(self):
        # every s in the first cell (0, dt] uses the one-step factor
        lam = np.pi**2
        one = discrete_family(heat_kind(), np.array([lam]), 0.25, 4).steps[0, 1]
        assert one == pytest.approx(1.0 / (1.0 + 0.25 * lam), rel=1e-15)
        for s in (1e-14, 1e-9, 0.1, 0.25):  # s / dt rounds to 0 at 1e-14
            assert heat_profile(0.25, 4, s) == abs(one - np.exp(-lam * s))

    def test_heat_steps_are_backward_euler_powers(self):
        # e^(n log z) with log z = -log1p(dt lam) against the rational powers,
        # relative down to the smallest normal number (below it both lose digits)
        lam = np.pi**2 * np.arange(1.0, 2049.0) ** 2
        for dt, N in ((0.25, 4), (1.0 / 64, 64), (1.0 / 1024, 1024)):
            n = np.arange(N + 1.0)
            steps = discrete_family(heat_kind(), lam, dt, N).steps
            np.testing.assert_allclose(steps, (1.0 + dt * lam[:, None]) ** (-n[None, :]), rtol=1e-12, atol=np.finfo(float).tiny)

    def test_terminal_factor(self):
        lam = np.array([2.0])
        fam = discrete_family(heat_kind(), lam, 0.25, 4)
        assert fam.steps[0, -1] == pytest.approx((1.0 + 0.5) ** -4, rel=1e-14)

    def test_step_index_at_cell_edges(self):
        # s = 3 dt in floating point (0.30000000000000004) is still cell 3; just
        # above it is cell 4; s = T is cell N
        lam, dt, N = np.pi**2, 0.1, 10
        steps = discrete_family(heat_kind(), np.array([lam]), dt, N).steps[0]
        for s, n in ((3 * dt, 3), (3 * dt + 1e-9, 4), (1.0, N)):
            assert heat_profile(dt, N, s) == abs(steps[n] - np.exp(-lam * s))

    def test_out_of_range(self):
        for s in (1.1, -0.1, 0.0):
            with pytest.raises(ValueError, match=r"\(0, T\]"):
                heat_profile(0.25, 4, s)

    def test_volterra_family_is_resolvent(self):
        lam = np.array([np.pi**2])
        fam = discrete_family(volterra_kind(1.5), lam, 0.125, 8)
        e = cq_resolvent(lam, 1.5, 0.125, 8)
        np.testing.assert_array_equal(fam.steps, e)
