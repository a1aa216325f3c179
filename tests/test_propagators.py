import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from levyspde.mittag_leffler import mittag_leffler_neg
from levyspde.propagators import (
    EquationKind,
    be_mode_power,
    cq_mode_solve,
    cq_resolvent,
    cq_weights,
    discrete_family,
    exact_mode_factor,
    heat_kind,
    i_stability_check,
    rational_wave_mode,
    volterra_kind,
    wave_energy,
    wave_kind,
    wave_step_power,
)


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


class TestExactFactors:
    def test_time_zero_identity(self):
        assert exact_mode_factor(heat_kind(), 3.0, 0.0) == 1.0
        assert exact_mode_factor(volterra_kind(1.5), 3.0, 0.0) == 1.0
        np.testing.assert_allclose(exact_mode_factor(wave_kind(), 3.0, 0.0), np.eye(2), atol=1e-16)

    def test_heat_half_life(self):
        lam = 4.2
        assert exact_mode_factor(heat_kind(), lam, np.log(2.0) / lam) == pytest.approx(0.5, rel=1e-14)

    def test_wave_energy_preserved(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(1000):
            lam = float(rng.uniform(0.5, 1e6))
            t = float(rng.uniform(0.0, 10.0))
            state = rng.standard_normal(2)
            out = exact_mode_factor(wave_kind(), lam, t) @ state
            worst = max(worst, abs(wave_energy(out, lam) - wave_energy(state, lam)) / wave_energy(state, lam))
        assert worst <= 1e-12

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            exact_mode_factor(heat_kind(), -1.0, 1.0)
        with pytest.raises(ValueError):
            exact_mode_factor(heat_kind(), 1.0, -1.0)


class TestCqWeights:
    def test_first_weight(self):
        w = cq_weights(1.5, 0.1, 4)
        assert w.weights[0] == pytest.approx(0.1**0.5, rel=1e-15)

    def test_first_ratio_is_rho_minus_one(self):
        # d/dz (1-z)^(1-rho) at 0 gives c_1 = rho - 1
        for rho in (1.1, 1.5, 1.9):
            w = cq_weights(rho, 1.0, 3)
            assert w.weights[1] == pytest.approx(rho - 1.0, rel=1e-14)

    def test_heat_limit(self):
        w = cq_weights(1.0 + 1e-12, 1.0, 6)
        assert np.all(np.abs(w.weights[1:]) <= 1e-11)

    @pytest.mark.parametrize("rho", [1.1, 1.5, 1.9])
    def test_positive_nonincreasing_long(self, rho):
        w = cq_weights(rho, 0.01, 10000).weights
        assert np.all(w > 0)
        assert np.all(np.diff(w) <= 0)

    @hypothesis.given(st.floats(min_value=1.01, max_value=1.99), st.integers(min_value=2, max_value=200))
    def test_positive_nonincreasing_property(self, rho, n):
        w = cq_weights(rho, 0.5, n).weights
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
        w = cq_weights(rho, 1.0, 6).weights
        np.testing.assert_allclose(w, oracle, rtol=1e-11)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            cq_weights(2.0, 0.1, 4)
        with pytest.raises(ValueError):
            cq_weights(1.5, 0.1, 0)


class TestBeModePower:
    def test_zero_steps(self):
        assert be_mode_power(5.0, 0.1, 0) == 1.0

    def test_quarter(self):
        assert be_mode_power(10.0, 0.1, 2) == pytest.approx(0.25, rel=1e-15)

    def test_first_order_limit(self):
        lam, t = 2.0, 1.0
        dts = [1e-2, 1e-3, 1e-4]
        errs = [abs(be_mode_power(lam, dt, int(round(t / dt))) - np.exp(-lam * t)) for dt in dts]
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope >= 0.9

    def test_bounded_monotone(self):
        vals = be_mode_power(7.0, 0.2, np.arange(50))
        assert np.all(vals > 0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) < 0)


class TestCqSolve:
    def test_zero_stiffness_random_walk(self):
        x = cq_mode_solve(1e-30, 1.5, 0.1, 5, np.ones(5))
        np.testing.assert_allclose(x, np.arange(1.0, 6.0), rtol=1e-12)

    def test_homogeneous_converges_to_kernel(self):
        lam, rho, T = np.pi**2, 1.5, 1.0
        ref = mittag_leffler_neg(rho, lam * T**rho)
        ns = np.array([64, 128, 256, 512, 1024])
        errs = [abs(cq_resolvent(np.array([lam]), rho, T / n, n)[0, -1] - ref) for n in ns]
        slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert slope >= 0.9

    def test_matches_resolvent_table(self):
        lam, rho, N = 3.7, 1.3, 24
        x = cq_mode_solve(lam, rho, 1.0 / N, N, np.zeros(N), x0=1.0)
        e = cq_resolvent(np.array([lam]), rho, 1.0 / N, N)[0]
        np.testing.assert_array_equal(x, e[1:])

    def test_rho_near_one_is_backward_euler(self):
        lam, N = 2.0, 16
        x = cq_mode_solve(lam, 1.0 + 1e-10, 1.0 / N, N, np.zeros(N), x0=1.0)
        be = be_mode_power(lam, 1.0 / N, np.arange(1, N + 1))
        np.testing.assert_allclose(x, be, rtol=1e-7)

    def test_forcing_length_checked(self):
        with pytest.raises(ValueError):
            cq_mode_solve(1.0, 1.5, 0.1, 5, np.zeros(4))


class TestWaveSchemes:
    def test_dt_to_zero_identity(self):
        m = rational_wave_mode("crank_nicolson", 1e-12, 5.0)
        np.testing.assert_allclose(m, np.eye(2), atol=1e-5)

    def test_cn_unit_energy_amplification(self):
        for lam in (0.7, 42.0, 9e4):
            m = rational_wave_mode("crank_nicolson", 0.05, lam)
            eig = np.linalg.eigvals(m)
            np.testing.assert_allclose(np.abs(eig), 1.0, atol=1e-13)

    def test_backward_euler_contracts(self):
        rng = np.random.default_rng(1)
        for lam in (0.7, 42.0):
            m = rational_wave_mode("backward_euler", 0.05, lam)
            for _ in range(50):
                s = rng.standard_normal(2)
                assert wave_energy(m @ s, lam) < wave_energy(s, lam)

    def test_cn_thousand_step_energy_drift(self):
        lam, dt = 1234.5, 0.01
        z = wave_step_power("crank_nicolson", dt, lam, 1000)
        assert abs(abs(z) - 1.0) <= 1e-10

    def test_step_power_matches_matrix_power(self):
        lam, dt, n = 17.0, 0.05, 9
        for scheme in ("backward_euler", "crank_nicolson", "explicit_euler"):
            m = np.linalg.matrix_power(rational_wave_mode(scheme, dt, lam), n)
            z = complex(wave_step_power(scheme, dt, lam, n))
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


class TestDiscreteFamily:
    def test_time_zero_is_projection(self):
        fam = discrete_family(heat_kind(), np.array([1.0, 4.0]), 0.25, 4)
        np.testing.assert_array_equal(fam.factor_at(0.0), [1.0, 1.0])

    def test_first_cell_single_step(self):
        lam = np.array([2.0])
        fam = discrete_family(heat_kind(), lam, 0.25, 4)
        one = 1.0 / (1.0 + 0.25 * 2.0)
        for t in (1e-9, 0.1, 0.25):
            assert fam.factor_at(t)[0] == pytest.approx(one, rel=1e-15)

    def test_terminal_factor(self):
        lam = np.array([2.0])
        fam = discrete_family(heat_kind(), lam, 0.25, 4)
        assert fam.factor_at(1.0)[0] == pytest.approx((1.0 + 0.5) ** -4, rel=1e-14)

    def test_out_of_range(self):
        fam = discrete_family(heat_kind(), np.array([1.0]), 0.25, 4)
        with pytest.raises(ValueError):
            fam.factor_at(1.1)
        with pytest.raises(ValueError):
            fam.factor_at(-0.1)

    def test_volterra_family_is_resolvent(self):
        lam = np.array([np.pi**2])
        fam = discrete_family(volterra_kind(1.5), lam, 0.125, 8)
        e = cq_resolvent(lam, 1.5, 0.125, 8)
        np.testing.assert_array_equal(fam.steps, e)
