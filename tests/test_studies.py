import dataclasses
import re

import numpy as np
import pytest

import levyspde.errors as errors
from levyspde.propagators import heat_kind, volterra_kind, wave_kind
from levyspde.studies import (
    CSV_COLUMNS,
    FIT_FLOOR,
    InsufficientDataError,
    StudyConfig,
    StudyResult,
    csv_text,
    expected_rates,
    fit_rate,
    log_shape_slope,
    preset_studies,
    read_csv,
    run_study,
)


class TestFitRate:
    def test_pure_power_law_recovered(self):
        dts = 2.0 ** -np.arange(4, 11)
        errs = 0.37 * dts**1.0
        fit = fit_rate(dts, errs)
        assert abs(fit.slope - 1.0) <= 1e-12
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.levels_used == 7

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(0)
        dts = 2.0 ** -np.arange(3, 9)
        errs = dts**1.3 * np.exp(rng.normal(0, 0.05, dts.size))
        fit = fit_rate(dts, errs)
        x, y = np.log(dts), np.log(errs)
        slope_hand = (np.mean(x * y) - x.mean() * y.mean()) / (np.mean(x * x) - x.mean() ** 2)
        assert fit.slope == pytest.approx(slope_hand, abs=1e-12)

    def test_log_factor_drags_the_fitted_slope_down(self):
        # err = C dt (1 + |log dt|) on the dyadic ladder 2^-4..2^-10: the exact
        # least-squares slope evaluates to ~0.825, below 1 (the coefficient
        # grows as dt shrinks), not above it
        dts = 2.0 ** -np.arange(4, 11)
        errs = 0.2 * dts * (1.0 + np.abs(np.log(dts)))
        x, y = np.log(dts), np.log(errs)
        oracle = (np.mean(x * y) - x.mean() * y.mean()) / (np.mean(x * x) - x.mean() ** 2)
        fit = fit_rate(dts, errs)
        assert fit.slope == pytest.approx(oracle, abs=1e-12)
        assert 0.80 <= fit.slope <= 0.85

    def test_scale_invariance(self):
        dts = 2.0 ** -np.arange(4, 10)
        errs = dts**0.75
        base = fit_rate(dts, errs)
        scaled = fit_rate(dts, 1e6 * errs)
        assert abs(base.slope - scaled.slope) <= 1e-12
        assert scaled.intercept != base.intercept

    def test_floor_guard(self):
        dts = 2.0 ** -np.arange(4, 10)
        errs = np.full(6, 1e-15)
        with pytest.raises(InsufficientDataError):
            fit_rate(dts, errs)
        # partially floored levels are excluded, not fatal
        errs = np.array([1e-2, 1e-3, 1e-4, 1e-15, 1e-15, 1e-15])
        fit = fit_rate(dts, errs)
        assert fit.levels_used == 3

    @pytest.mark.parametrize("levels", range(3, 13))
    def test_closed_form_matches_polyfit(self, levels):
        # np.polyfit, a least-squares solve, is the oracle of the closed form only
        rng = np.random.default_rng(levels)
        for _ in range(20):
            res = np.sort(rng.uniform(1e-4, 0.9, levels))[::-1]
            errs = rng.uniform(0.1, 3.0) * res ** rng.uniform(0.2, 2.5) * np.exp(rng.normal(0, 0.3, levels))
            x, y = np.log(res), np.log(errs)
            slope, intercept = np.polyfit(x, y, 1)
            r2 = 1.0 - np.sum((y - (slope * x + intercept)) ** 2) / np.sum((y - y.mean()) ** 2)
            fit = fit_rate(res, errs)
            assert fit.slope == pytest.approx(slope, rel=1e-12)
            assert fit.intercept == pytest.approx(intercept, rel=1e-12)
            assert fit.r_squared == pytest.approx(r2, rel=1e-12)
            assert type(fit.slope) is type(fit.intercept) is type(fit.r_squared) is float
            shape = np.polyfit(x, np.log(errs / np.log(1.0 / res)), 1)[0]
            assert log_shape_slope(res, errs, 1.0) == pytest.approx(shape, rel=1e-12)

    def test_studies_need_no_lstsq(self, monkeypatch):
        # one small study per family and axis, and summary(), with numpy's
        # least-squares routes made to raise: the fits take the closed form
        def refuse(*args, **kwargs):
            raise AssertionError("a least-squares solve was called")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        monkeypatch.setattr(np, "polyfit", refuse)
        ladder = tuple(2.0 ** -np.arange(2, 6))  # dt = T/N and h = 1/M on both axes
        kinds = [(heat_kind(), 1.0), (volterra_kind(1.5), 0.5), (wave_kind("crank_nicolson"), 0.75)]
        for kind, beta in kinds:
            for axis in ("temporal", "spatial"):
                res = run_study(StudyConfig(f"{kind.name}-{axis}", kind, axis, beta, modes=32, ladder=ladder))
                s = res.summary()
                assert np.isfinite([s["weak_slope"], s["weak_bound_slope"], s["strong_slope"]]).all(), res.config.name

    DTS = (0.5, 0.25, 0.125, 0.0625)
    ERRS = (1e-1, 3e-2, 1e-2, 3e-3)

    @pytest.mark.parametrize(
        "res, errs, match",
        [
            ((0.25,) * 4, ERRS, "resolutions must be distinct"),
            ((0.5, 0.25, 0.25, 0.0625), ERRS, "resolutions must be distinct"),
            ((0.5, 0.25, 0.0, 0.0625), ERRS, "resolutions must be finite and > 0"),
            ((0.5, 0.25, -0.125, 0.0625), ERRS, "resolutions must be finite and > 0"),
            ((0.5, np.nan, 0.125, 0.0625), ERRS, "resolutions must be finite and > 0"),
            ((np.inf, 0.25, 0.125, 0.0625), ERRS, "resolutions must be finite and > 0"),
            (DTS, (1e-1, np.nan, 1e-2, 3e-3), "errors must be finite"),
            (DTS, (1e-1, 3e-2, np.inf, 3e-3), "errors must be finite"),
            (DTS, (1e-1, 3e-2, -np.inf, 3e-3), "errors must be finite"),
            (DTS, ERRS[:3], "resolutions and errors must be 1-D and of one length"),
        ],
        ids=["all-equal", "one-repeat", "zero", "negative", "nan", "inf", "nan-error", "inf-error", "minus-inf-error",
             "lengths"],
    )
    def test_unfittable_input_refused(self, res, errs, match):
        # at the parent these gave a slope with r^2 ~ 0, LAPACK's "SVD did not
        # converge", a NaN level dropped from the fit, or slope nan with r^2 = 1
        for fit in (fit_rate, lambda h, e: log_shape_slope(h, e, 1.0)):
            with pytest.raises(ValueError, match=match) as info:
                fit(res, errs)
            assert not isinstance(info.value, InsufficientDataError)

    def test_short_ladder_stays_insufficient(self):
        with pytest.raises(InsufficientDataError):
            fit_rate(self.DTS[:2], self.ERRS[:2])

    @pytest.mark.parametrize("T", [0.5, 0.25, np.nan, np.inf, 0.0], ids=["at-T", "below-T", "nan", "inf", "zero"])
    def test_log_shape_needs_resolutions_below_T(self, T):
        # log(T/h) is 0 at h = T and negative past it: the parent returned nan
        # with a divide-by-zero warning
        with pytest.raises(ValueError, match="T must be finite and above every resolution"):
            log_shape_slope(self.DTS, self.ERRS, T)


# The paper's guaranteed exponents, written out per family and axis as
# beta -> (weak, strong, beta_in_range, weak_log); wave p = 2 for P1 elements
# and Crank-Nicolson, 1 for backward and explicit Euler.
def _volterra_row(rho):
    return {
        "spatial": lambda b: (2 * b, b, 0 < b <= 1 / rho, False),
        "temporal": lambda b: (rho * b, rho * b / 2, 0 < b <= 1 / rho, False),
    }


PAPER_RATES = {
    "heat": {
        "spatial": lambda b: (2 * b, b, 0 < b <= 1, False),
        "temporal": lambda b: (b, b / 2, 0 < b <= 1, b >= 1),
    },
    **{f"volterra {rho}": _volterra_row(rho) for rho in (1.2, 1.5, 1.9)},
    "wave crank_nicolson": {
        "spatial": lambda b: (min(4 * b / 3, 2.0), min(2 * b / 3, 2.0), True, False),
        "temporal": lambda b: (min(4 * b / 3, 1.0), min(2 * b / 3, 1.0), True, False),
    },
    "wave backward_euler": {
        "spatial": lambda b: (min(4 * b / 3, 2.0), min(2 * b / 3, 2.0), True, False),
        "temporal": lambda b: (min(b, 1.0), min(b / 2, 1.0), True, False),
    },
}


class TestExpectedRates:
    def test_heat_beta_one(self):
        spatial, temporal = (expected_rates(heat_kind(), 1.0, axis) for axis in ("spatial", "temporal"))
        assert (spatial.weak, spatial.strong, temporal.weak, temporal.strong) == (2.0, 1.0, 1.0, 0.5)
        assert spatial.beta_in_range and temporal.beta_in_range

    def test_bound_shape_log_factor(self):
        # only the heat temporal weak bound at the end of the range carries log(T/dt)
        assert expected_rates(heat_kind(), 1.0, "temporal").weak_log
        assert not expected_rates(heat_kind(), 1.0, "spatial").weak_log
        assert not expected_rates(heat_kind(), 0.75, "temporal").weak_log
        assert not expected_rates(wave_kind("crank_nicolson"), 0.75, "temporal").weak_log
        assert not expected_rates(volterra_kind(1.5), 0.5, "temporal").weak_log

    def test_wave_beta_075(self):
        for axis in ("spatial", "temporal"):
            r = expected_rates(wave_kind("crank_nicolson"), 0.75, axis)
            assert (r.weak, r.strong) == (1.0, 0.5)

    def test_volterra(self):
        spatial, temporal = (expected_rates(volterra_kind(1.5), 0.5, axis) for axis in ("spatial", "temporal"))
        assert (spatial.weak, spatial.strong, temporal.weak, temporal.strong) == (1.0, 0.5, 0.75, 0.375)

    def test_out_of_range_flag(self):
        assert expected_rates(heat_kind(), 1.4, "temporal").beta_in_range is False
        assert expected_rates(volterra_kind(1.5), 0.8, "spatial").beta_in_range is False

    def test_wave_backward_euler_order_one(self):
        r = expected_rates(wave_kind("backward_euler"), 0.9, "temporal")
        assert r.weak == pytest.approx(min(2 * 0.9 * 1 / 2, 1.0))

    @pytest.mark.parametrize("family", list(PAPER_RATES))
    def test_matches_the_paper_table_exactly(self, family):
        # weak = 2 x strong, built per axis, agrees bit for bit with the table
        name, _, param = family.partition(" ")
        kind = {"heat": heat_kind, "volterra": lambda: volterra_kind(float(param)), "wave": lambda: wave_kind(param)}[name]()
        betas = [float(b) for b in np.linspace(0.05, 3.5, 70)] + [0.5, 0.75, 1.0, 1 / 1.5, 1.5, 3.0]
        for axis, row in PAPER_RATES[family].items():
            for beta in betas:
                r = expected_rates(kind, beta, axis)
                assert (r.weak, r.strong, r.beta_in_range, r.weak_log) == row(beta), (family, axis, beta)


class TestConfigValidation:
    def base(self, **kw):
        args = dict(name="t", kind=heat_kind(), axis="temporal", beta=1.0, ladder=(0.25, 0.125, 0.0625, 0.03125))
        args.update(kw)
        return StudyConfig(**args)

    def test_short_ladder(self):
        with pytest.raises(ValueError, match="4 levels"):
            self.base(ladder=(0.25, 0.125, 0.0625))

    def test_nonmonotone_ladder(self):
        with pytest.raises(ValueError, match="decreasing"):
            self.base(ladder=(0.25, 0.25, 0.125, 0.0625))

    def test_spatial_ladder_must_be_reciprocal_integers(self):
        with pytest.raises(ValueError, match="1/M"):
            self.base(axis="spatial", ladder=(0.3, 0.2, 0.1, 0.05))
        for last in (0.0, -0.25, float("nan")):  # 0 used to raise ZeroDivisionError
            with pytest.raises(ValueError, match="1/M"):
                self.base(axis="spatial", ladder=(0.5, 0.25, 0.125, last))

    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    def test_beta_must_be_finite(self, beta):
        # nan used to be accepted here and to fail in run_study on the derived
        # covariance decay, a field the config never set
        with pytest.raises(ValueError, match="regularity target beta must be finite"):
            self.base(beta=beta)
        with pytest.raises(ValueError, match="regularity target beta must be finite"):
            self.base(beta=beta, cov_decay=0.5)

    def test_spatial_ladder_respects_truncation(self):
        with pytest.raises(ValueError, match="raise modes"):
            self.base(axis="spatial", modes=16, ladder=(1 / 4, 1 / 8, 1 / 16, 1 / 32))

    def test_default_decay_derivation(self):
        assert self.base(beta=1.0).decay == pytest.approx(0.55)
        vol = StudyConfig(
            name="v", kind=volterra_kind(1.5), axis="temporal", beta=0.5, ladder=(0.25, 0.125, 0.0625, 0.03125)
        )
        assert vol.decay == pytest.approx(0.5 - 2.0 / 3.0 + 0.55)

    @pytest.mark.parametrize(
        "kind, beta, rho", [(heat_kind(), 0.2, 1.0), (volterra_kind(1.5), 0.1, 1.5)], ids=["heat", "volterra"]
    )
    def test_negative_derived_decay_refused(self, kind, beta, rho):
        # used to be accepted and to fail in run_study on "decay exponent", a field never set
        with pytest.raises(ValueError, match=rf"derived from beta={beta} and rho={rho}.*beta - 1/rho.*is negative.*decay"):
            self.base(kind=kind, beta=beta)
        assert self.base(kind=kind, beta=beta, cov_decay=0.3).decay == 0.3  # a given decay is not derived

    def test_g_mode_must_index_a_mode(self):
        # 0 would read the last mode and modes + 1 would raise an IndexError inside the MC
        assert self.base(modes=16, g="cylindrical_cos", g_mode=16, mc_paths=10).g_mode == 16
        for bad in (0, 17, 1.9):
            with pytest.raises(ValueError, match=r"g_mode must be a mode index in 1\.\.16"):
                self.base(modes=16, g="cylindrical_cos", g_mode=bad, mc_paths=10)

    def test_unread_test_functional_refused(self):
        # g is read only by the Monte Carlo columns, and the CSV header does not
        # record it: both used to be accepted and to write the quadratic CSV
        with pytest.raises(ValueError, match="g='cylindrical_cos' is read only by the Monte Carlo columns"):
            self.base(g="cylindrical_cos", g_mode=3)
        with pytest.raises(ValueError, match="g_mode applies to g = 'cylindrical_cos' only; g is 'quadratic'"):
            self.base(g_mode=3, mc_paths=10)
        assert self.base(g="cylindrical_cos", g_mode=3, mc_paths=10).g_mode == 3

    def test_ladder_entry_at_horizon_refused_under_log_bound(self):
        # the heat weak bound at beta >= 1 is C dt^a log(T/dt), which is 0 at dt = T:
        # summary() used to divide by it and report weak_bound_slope nan
        assert self.base().expected().weak_log
        with pytest.raises(ValueError, match=r"temporal ladder entry 1\.0 is T: the weak bound C dt\^a log\(T/dt\)"):
            self.base(modes=16, ladder=(1.0, 0.5, 0.25, 0.125))
        with pytest.raises(ValueError, match=r"temporal ladder entry 0\.5 is T"):
            self.base(T=0.5, ladder=(0.5, 0.25, 0.125, 0.0625))
        # without the log factor dt = T is a level like any other
        assert self.base(beta=0.75, ladder=(1.0, 0.5, 0.25, 0.125)).ladder[0] == 1.0

    def test_counts_must_be_whole(self):
        # modes=16.7 used to run on 16 modes and mc_paths=20.5 to end in a TypeError inside the MC
        ok = self.base(
            modes=np.int64(16), g="cylindrical_cos", g_mode=np.int64(2), mc_paths=np.int64(20), mc_seed=np.int64(3)
        )
        assert (ok.modes, ok.g_mode, ok.mc_paths, ok.mc_seed) == (16, 2, 20, 3)
        assert self.base(mc_paths=None, mc_seed=0).mc_paths is None
        for key, bad, message in [
            ("modes", 16.7, r"modes must be a whole number >= 1, got 16\.7"),
            ("modes", 16.0, r"modes must be a whole number >= 1, got 16\.0"),
            ("modes", "16", r"modes must be a whole number >= 1, got '16'"),
            ("modes", True, r"modes must be a whole number >= 1, got True"),
            ("mc_paths", 20.5, r"mc_paths must be a whole number >= 1 or None, got 20\.5"),
            ("mc_paths", 0, r"mc_paths must be a whole number >= 1 or None, got 0"),
            ("mc_seed", 1.5, r"mc_seed must be a whole number >= 0, got 1\.5"),
            ("mc_seed", -1, r"mc_seed must be a whole number >= 0, got -1"),
            ("mc_seed", False, r"mc_seed must be a whole number >= 0, got False"),
        ]:
            with pytest.raises(ValueError, match=message):
                self.base(**{key: bad})

    def test_cell_counts_must_be_whole(self):
        # dt = 0.3 used to run 3 cells of width 1/3 reported as 0.3
        with pytest.raises(ValueError, match=r"temporal ladder entry 0\.3 is not T/N"):
            self.base(ladder=(0.5, 0.3, 0.25, 0.125))
        with pytest.raises(ValueError, match=r"temporal ladder entry 2\.0 is not T/N"):
            self.base(ladder=(2.0, 0.5, 0.25, 0.125))
        assert self.base(T=0.75, ladder=(0.25, 0.125, 0.075, 0.0375)).ladder[2] == 0.075
        with pytest.raises(ValueError, match="is not T/N"):
            self.base(ladder=(0.25, 0.125, 0.0625, 0.0))  # used to raise ZeroDivisionError
        for T in (0.0, float("inf"), float("nan")):  # N = T/dt must be a finite count
            with pytest.raises(ValueError, match="horizon T must be finite and > 0"):
                self.base(T=T)

    def test_ladder_entry_past_float_range_refused(self):
        # T/dt and 1/h of a subnormal entry are inf: round() used to raise OverflowError
        tiny = (1e-320, 1e-321, 1e-322, 1e-323)
        with pytest.raises(ValueError, match=r"temporal ladder entry 1e-320 is not T/N"):
            self.base(ladder=tiny)
        with pytest.raises(ValueError, match=r"spatial ladder entry 1e-320 is not 1/M"):
            self.base(axis="spatial", ladder=tiny)
        with pytest.raises(ValueError, match=r"temporal ladder entry 1e-300 is not T/N"):
            self.base(T=1e10, ladder=(1e-300, 1e-301, 1e-302, 1e-303))  # a normal dt, T/dt past 1.8e308

    def test_name_must_be_one_nonempty_line(self, tmp_path):
        # a line break used to write a CSV that read_csv refused ("unexpected
        # CSV header"), and "" a hidden ".csv"
        for bad in ("a\nlevel,x", "", "a\r", "a\n", 5):
            with pytest.raises(ValueError, match=r"name must be one non-empty line of text, got"):
                self.base(name=bad)
        cfg = self.base(name="a b,c=d", modes=16)
        path = tmp_path / "study.csv"
        path.write_text(csv_text(run_study(cfg)))
        assert len(read_csv(str(path))) == 4

    def test_name_must_hold_no_path_separator(self):
        # "../escaped" used to name the CSV <output>/../escaped.csv, outside the output directory
        for bad in ("../escaped", "a/b", "/abs", "a\\b"):
            with pytest.raises(ValueError, match=re.escape(f"name must not hold a path separator (/ or \\), got {bad!r}")):
                self.base(name=bad)

    def test_mc_paths_refused_on_spatial_axis(self):
        # every spatial level has a FEM space; run_study used to fail only after the config was accepted
        with pytest.raises(ValueError, match="mc_paths applies to temporal studies only"):
            self.base(axis="spatial", modes=64, ladder=(1 / 4, 1 / 8, 1 / 16, 1 / 32), mc_paths=10)
        assert self.base(axis="spatial", modes=64, ladder=(1 / 4, 1 / 8, 1 / 16, 1 / 32)).mc_paths is None

    def test_divergent_covariance_refused(self):
        cfg = self.base(beta=1.2)  # decay derived stays at the margin, fine
        cfg = self.base(beta=1.0, cov_decay=0.2)
        with pytest.raises(ValueError, match="exponent"):
            run_study(cfg)


class TestRunStudy:
    def test_fits_unavailable_at_error_floor(self):
        # a covariance of amplitude 1e-40 puts every level below FIT_FLOOR
        cfg = StudyConfig(
            name="floor",
            kind=heat_kind(),
            axis="temporal",
            beta=1.0,
            modes=16,
            ladder=(0.25, 0.125, 0.0625, 0.03125),
            cov_amplitude=1e-40,
        )
        res = run_study(cfg)
        for row in res.rows:
            assert 0.0 < row.report.strong_error < 1e-19
            assert abs(row.report.weak_error_quadratic) < 1e-13
            assert not row.in_fit
        assert res.weak_fit is None and res.strong_fit is None
        assert "# fits: unavailable (every level at the error floor)" in csv_text(res)

    def test_bound_shape_fit_keeps_the_plain_fit_levels(self):
        # |weak| runs from 5.1e-13 to 6.5e-14, so the plain fit keeps 4 levels;
        # |weak| / log(T/dt) of the fourth is below FIT_FLOOR, and a bound-shape
        # fit that floored the divided values kept 1 level and made summary() raise
        cfg = StudyConfig(
            name="near-floor", kind=heat_kind(), axis="temporal", beta=1.0, modes=64,
            ladder=tuple(2.0 ** -np.arange(4, 9)), cov_amplitude=1e-10,
        )
        res = run_study(cfg)
        assert res.weak_fit.levels_used == 4
        res_dt = np.array([r.resolution for r in res.rows])
        weak = np.array([r.report.weak_error_quadratic for r in res.rows])
        kept = np.abs(weak) > FIT_FLOOR
        s = res.summary()
        x, y = np.log(res_dt[kept]), np.log(np.abs(weak[kept]) / np.log(1.0 / res_dt[kept]))
        assert s["weak_bound_slope"] == pytest.approx(np.polyfit(x, y, 1)[0], rel=1e-12)
        assert log_shape_slope(res_dt, weak, 1.0) == s["weak_bound_slope"]

    def test_volterra_rho_near_one_passes_its_gate(self):
        # the low edge of E_rho's verified range, where the bridge trapezoid
        # has 7392 nodes: the study runs on the bridge table
        cfg = StudyConfig(
            name="v101", kind=volterra_kind(1.01), axis="temporal", beta=0.5, modes=64,
            ladder=tuple(2.0 ** -np.arange(4, 11)),
        )
        s = run_study(cfg).summary()
        assert s["weak_ok"] and s["strong_ok"], s

    def test_rows_cover_ladder_in_order(self, preset_result):
        res = preset_result("heat-temporal-beta1")
        assert len(res.rows) == 7
        np.testing.assert_array_equal([r.resolution for r in res.rows], 2.0 ** -np.arange(4, 11))
        weak = np.abs([r.report.weak_error_quadratic for r in res.rows])
        assert np.all(np.diff(weak) < 0)  # monotone decreasing on this smooth setup

    def test_representation_column_matches_weak(self, preset_result):
        for name in ("heat-temporal-beta1", "volterra-temporal", "wave-temporal"):
            res = preset_result(name)
            for row in res.rows:
                rep, weak = row.report.representation_value, row.report.weak_error_quadratic
                assert abs(rep - weak) <= 1e-8 * max(abs(weak), 1e-14)

    @pytest.mark.parametrize(
        "name",
        [
            "heat-temporal-beta1",
            "heat-spatial-beta075",
            "volterra-temporal",
            "wave-temporal",
            "wave-spatial",
            "wave-temporal-mc",
        ],
    )
    def test_preset_slopes_within_invariant(self, preset_result, name):
        res = preset_result(name)
        s = res.summary()
        assert s["weak_ok"], f"weak slope {s['weak_bound_slope']:.3f} < {s['weak_expected']} - 0.15"
        assert s["strong_ok"], f"strong slope {s['strong_slope']:.3f} vs {s['strong_expected']} +- 0.15"

    def test_heat_temporal_weak_slope_sits_at_bound_shape(self, preset_result):
        # The weak error of this preset follows the dt*|log dt| bound shape
        # whose exact fitted slope on the 2^-4..2^-10 ladder is 0.783; the
        # idealized one-sided invariant (>= 1 - 0.15) is therefore NOT met by
        # the honest computation.  Pin the actual behavior tightly instead so
        # any regression in either direction is caught.
        res = preset_result("heat-temporal-beta1")
        s = res.summary()
        assert s["strong_ok"]
        assert s["weak_slope"] == pytest.approx(0.7816, abs=0.01)
        dts = np.array([r.resolution for r in res.rows])
        bound_slope = fit_rate(dts, dts * np.abs(np.log(dts))).slope
        assert abs(s["weak_slope"] - bound_slope) <= 0.01


class TestCsv:
    def test_round_trip_bitwise(self, preset_result, tmp_path):
        res = preset_result("wave-temporal-mc")
        text = csv_text(res)
        path = tmp_path / "study.csv"
        path.write_text(text)
        rows = read_csv(str(path))
        assert len(rows) == len(res.rows)
        for parsed, row in zip(rows, res.rows):
            assert parsed["resolution"] == row.resolution
            assert parsed["strong"] == row.report.strong_error
            assert parsed["weak_quad"] == row.report.weak_error_quadratic
            assert parsed["representation"] == row.report.representation_value
            assert parsed["mc_estimate"] == row.mc_estimate
            assert parsed["mc_stderr"] == row.mc_stderr
            assert parsed["in_fit"] == int(row.in_fit)

    @pytest.mark.parametrize("row, count", [("0,0.5,1.0", 3), ("0,0.5,1.0,1.0,1.0,,,1,9", 9)], ids=["short", "long"])
    def test_row_with_wrong_field_count_refused(self, tmp_path, row, count):
        # a short row used to parse into a partial dict and a long one lost its extra field
        path = tmp_path / "bad.csv"
        path.write_text(f"# name=x\n{','.join(CSV_COLUMNS)}\n0,0.5,1.0,1.0,1.0,,,1\n{row}\n")
        with pytest.raises(ValueError, match=f"line 4: {count} fields, the header has 8"):
            read_csv(str(path))

    def test_column_contract(self, preset_result):
        assert len(CSV_COLUMNS) == 8
        res = preset_result("wave-temporal-mc")
        header = [l for l in csv_text(res).splitlines() if not l.startswith("#")][0]
        assert header == ",".join(CSV_COLUMNS)

    def test_empty_table_header_only(self):
        cfg = preset_studies()["heat-temporal-beta1"]
        empty = StudyResult(config=cfg, rows=(), strong_fit=None, weak_fit=None, tail_fraction=float("nan"))
        lines = [l for l in csv_text(empty).splitlines() if not l.startswith("#")]
        assert lines == [",".join(CSV_COLUMNS)]

    def test_seed_logged_in_metadata(self, preset_result):
        res = preset_result("wave-temporal-mc")
        meta = [l for l in csv_text(res).splitlines() if l.startswith("#")]
        assert any("mc_seed=0" in l for l in meta)
        assert any("covariance_tail_fraction=" in l for l in meta)


class TestDeterminism:
    def test_identical_runs_identical_bytes(self):
        cfg = preset_studies()["wave-temporal-mc"]
        a = csv_text(run_study(cfg))
        b = csv_text(run_study(cfg))
        assert a == b

    def test_fresh_interpreter_identical_bytes(self, fresh_python):
        cfg = preset_studies()["wave-temporal-mc"]
        fresh = fresh_python(
            "-c",
            "import sys; from levyspde.studies import csv_text, preset_studies, run_study; "
            "sys.stdout.write(csv_text(run_study(preset_studies()['wave-temporal-mc'])))",
        )
        assert csv_text(run_study(cfg)) == fresh


class TestRuntimeDependencies:
    def test_spatial_studies_run_without_scipy(self, fresh_python):
        # scipy is a test extra only: the library, spatial studies and a Volterra
        # temporal study never import it, nor numpy.ma
        out = fresh_python(
            "-c",
            "import sys, levyspde\n"
            "from levyspde import (CovarianceSpec, LevyLaw, Setup, StudyConfig, assemble_fem, dirichlet_spectrum,\n"
            "                      error_report, heat_kind, run_study, volterra_kind)\n"
            "ladder = (1 / 4, 1 / 8, 1 / 16, 1 / 32)\n"
            "run_study(StudyConfig('h', heat_kind(), 'spatial', 0.75, modes=64, ladder=ladder))\n"
            "law = LevyLaw('compound_poisson', intensity=1.0)\n"
            "for m in (4, 8, 16, 32):  # fully discrete: a time scheme on a P1 space\n"
            "    error_report(Setup(volterra_kind(1.5), dirichlet_spectrum(32), CovarianceSpec(1.0, 0.4), law, 1.0,\n"
            "                       n_cells=8, fem=assemble_fem(m)))\n"
            "run_study(StudyConfig('w', volterra_kind(1.5), 'temporal', 0.5, modes=32, ladder=ladder))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'numpy.ma'))",
        )
        # numpy.ma is what np.unique imports on its first call (11.9 ms)
        assert out.strip() == "[]"

    def test_deterministic_studies_load_neither_numpy_random_nor_polynomial(self, fresh_python):
        # numpy.random (with secrets, hashlib and hmac) is about 10 ms of import
        # that only the Monte Carlo sampler uses, numpy.polynomial 3-5 ms that
        # nothing uses.  Compared against what `import numpy` alone loads, so
        # that numpy 1.x, which imports numpy.random itself, passes too
        presets = [c for c in preset_studies().values() if c.mc_paths is None]
        out = fresh_python(
            "-c",
            "import sys, numpy\n"
            "numpy_alone = set(sys.modules)\n"
            "from levyspde import EquationKind, LevyLaw, StudyConfig, run_study, volterra_kind\n"
            "from levyspde import errors, mittag_leffler\n"
            f"configs = [{', '.join(map(repr, presets))}]\n"
            "run_study(next(c for c in configs if c.name == 'heat-temporal-beta1'))\n"
            "run_study(StudyConfig('v', volterra_kind(1.5), 'temporal', 0.5, modes=32, ladder=(1 / 4, 1 / 8, 1 / 16, 1 / 32)))\n"
            "print(errors._gauss.cache_info().currsize, mittag_leffler._bridge_table.cache_info().currsize)\n"
            "print(sorted(m for m in set(sys.modules) - numpy_alone if m.startswith(('numpy.random', 'numpy.polynomial'))))",
        )
        used, loaded = out.strip().splitlines()
        gauss, bridges = map(int, used.split())
        assert gauss == 1 and bridges >= 1  # what numpy.polynomial built before was built
        assert loaded == "[]"

    def test_a_monte_carlo_config_loads_the_sampler(self, fresh_python):
        # loaded when the config is built, so that a Monte Carlo study does not
        # pay for the import inside run_study
        out = fresh_python(
            "-c",
            "import sys, numpy\n"
            "print('numpy.random' in sys.modules)\n"
            "from levyspde import StudyConfig, wave_kind\n"
            "print('numpy.random' in sys.modules)\n"
            "ladder = (1 / 8, 1 / 16, 1 / 32, 1 / 64)\n"
            "StudyConfig('mc', wave_kind('crank_nicolson'), 'temporal', 0.75, modes=8, ladder=ladder, mc_paths=10)\n"
            "print('numpy.random' in sys.modules)",
        )
        numpy_alone, library, config = out.split()
        assert library == numpy_alone and config == "True"

    def test_a_deterministic_preset_run_leaves_the_sampler_unloaded(self, fresh_python, tmp_path):
        # `levyspde study --preset NAME` builds that preset alone; building every
        # preset to look one up built the Monte Carlo one too, which loads numpy.random
        out = fresh_python(
            "-c",
            "import contextlib, io, sys, numpy\n"
            "print('numpy.random' in sys.modules)\n"
            "from levyspde.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main(['study', '--preset', 'heat-temporal-beta1', '--output', {str(tmp_path)!r}])\n"
            "print(code, 'numpy.random' in sys.modules)",
        )
        numpy_alone, code, after = out.split()
        assert code == "0" and after == numpy_alone == "False"
        assert (tmp_path / "heat-temporal-beta1.csv").exists()


def _bits(report):
    return [v.hex() for v in dataclasses.astuple(report)]


def _fully_discrete(K, meshes):
    """Volterra rho = 1.5 setups with the backward-Euler CQ scheme of 16 cells
    on the P1 space of each M in meshes, spectrum K."""
    from levyspde.errors import Setup
    from levyspde.noise import CovarianceSpec, LevyLaw
    from levyspde.spectral import assemble_fem, dirichlet_spectrum

    cov, law = CovarianceSpec(amplitude=1.0, decay=0.4), LevyLaw("compound_poisson", intensity=1.0)
    return [
        Setup(volterra_kind(1.5), dirichlet_spectrum(K), cov, law, 1.0, n_cells=16, fem=assemble_fem(m))
        for m in meshes
    ]


class TestStudyExactSide:
    """The Volterra exact side is computed once per study, inside its one
    error_reports call: the scheme levels' ee row and cell primitives once,
    the time-exact levels' cut tables once, on one lattice.  Nothing outlives
    the call, so a study row must equal the standalone error_report of that
    level bit for bit."""

    # (T, ladder, _PRIM_TABLE_MAX or None, shared): the call evaluates the cell
    # primitives t E_{rho,2}(-lam t^rho) at all N + 1 edges of the finest level
    # whose K (N + 1) values fit under the cap, and a level whose edges are
    # every r-th of those reads them; any other level evaluates its own.
    # shared is True (only the finest level's edges are evaluated), False
    # (every level's are) or the count of E_{rho,2} values evaluated
    VOLTERRA_LADDERS = {
        "dyadic": (1.0, (1 / 16, 1 / 32, 1 / 64, 1 / 128), None, True),
        "dyadic-T0.7": (0.7, (0.7 / 16, 0.7 / 32, 0.7 / 64, 0.7 / 128), None, True),
        # a table at 24's edges: 20 and 16 evaluate their own, 12 reads 24's (16 (25 + 21 + 17))
        "non-nested": (1.0, (1 / 12, 1 / 16, 1 / 20, 1 / 24), None, 1008),
        # a table at 30's edges; linspace(0, 1, 31)[::6] is 1 ulp off linspace(0, 1, 6)
        "unequal-edges": (1.0, (1 / 5, 1 / 7, 1 / 11, 1 / 30), None, False),
        "tiny-cap": (1.0, (1 / 16, 1 / 32, 1 / 64, 1 / 128), 16 * 8, False),  # below every level's K (N + 1)
        # a table at 32's edges: the odd level evaluates its own 16 edges, and 16
        # and 8 read the table (16 (33 + 16) values)
        "odd-level-keeps-the-table": (1.0, (1 / 8, 1 / 15, 1 / 16, 1 / 32), None, 784),
    }

    @pytest.mark.parametrize("T, ladder, cap, shared", VOLTERRA_LADDERS.values(), ids=VOLTERRA_LADDERS.keys())
    def test_volterra_rows_equal_standalone_reports(self, T, ladder, cap, shared, monkeypatch):
        from levyspde.errors import error_report
        from levyspde.studies import _level_setup

        K = 16
        cfg = StudyConfig(name="v", kind=volterra_kind(1.5), axis="temporal", beta=0.5, T=T, modes=K, ladder=ladder)
        cells = [round(T / dt) for dt in ladder]
        if cap is not None:
            monkeypatch.setattr(errors, "_PRIM_TABLE_MAX", cap)
        counted = []
        real = errors.mittag_leffler_neg

        def counting(rho, x, beta=1):
            if beta == 2:
                counted.append(x.size)
            return real(rho, x, beta)

        monkeypatch.setattr(errors, "mittag_leffler_neg", counting)  # the name the benchmark tracer wraps
        res = run_study(cfg)
        if isinstance(shared, bool):
            shared = K * (max(cells) + 1 if shared else sum(n + 1 for n in cells))
        assert sum(counted) == shared
        for row in res.rows:
            alone = error_report(_level_setup(cfg, row.resolution))
            assert row.report.strong_error > 0.0 and _bits(row.report) == _bits(alone)

    def test_fully_discrete_reports_equal_cold_reports(self, monkeypatch):
        # a time scheme on every level of a P1 ladder in one error_reports call:
        # every level shares the sine spectrum and N = 16, so the call's one
        # table of K (N + 1) cell primitives serves every level at stride 1
        counted = []
        real = errors.mittag_leffler_neg

        def counting(rho, x, beta=1):
            if beta == 2:
                counted.append(x.size)
            return real(rho, x, beta)

        monkeypatch.setattr(errors, "mittag_leffler_neg", counting)
        setups = _fully_discrete(16, (4, 6, 8, 12))
        together = errors.error_reports(setups)
        assert sum(counted) == 16 * 17
        for setup, report in zip(setups, together):
            assert report.strong_error > 0.0 and _bits(report) == _bits(errors.error_report(setup))

    HEAT_WAVE_LADDERS = {
        "heat-be-dyadic": (heat_kind(), 1.0, (1 / 16, 1 / 32, 1 / 64, 1 / 128)),
        "wave-cn-non-nested": (wave_kind("crank_nicolson"), 1.0, (1 / 12, 1 / 16, 1 / 20, 1 / 24)),
        "wave-be-T0.7": (wave_kind("backward_euler"), 0.7, (0.7 / 16, 0.7 / 32, 0.7 / 64, 0.7 / 128)),
    }

    @pytest.mark.parametrize("kind, T, ladder", HEAT_WAVE_LADDERS.values(), ids=HEAT_WAVE_LADDERS.keys())
    def test_heat_and_wave_ladders_are_one_call(self, kind, T, ladder, monkeypatch):
        # run_study hands the whole ladder to one error_reports call, which
        # broadcasts a heat or wave temporal ladder over its step counts; every
        # row still equals the standalone report of its level bit for bit
        import levyspde.studies as studies
        from levyspde.studies import _level_setup

        x0 = ((1.0, -0.5, 0.25), (0.5, 0.125, 0.0)) if kind.name == "wave" else (1.0, -0.5, 0.25)
        cfg = StudyConfig(name="t", kind=kind, axis="temporal", beta=0.75, T=T, modes=64, ladder=ladder, x0=x0)
        calls, real = [], errors._rows

        def counting(kind, levels, lam, T):
            calls.append([n for *_, n in levels])
            return real(kind, levels, lam, T)

        monkeypatch.setattr(errors, "_rows", counting)
        res = run_study(cfg)
        assert calls == [[round(T / dt) for dt in ladder]]
        assert studies.error_reports is errors.error_reports
        for row in res.rows:
            alone = errors.error_report(_level_setup(cfg, row.resolution))
            assert row.report.strong_error > 0.0 and _bits(row.report) == _bits(alone)

    # on K = 16 the P1 eigenvalue of M = 16 (2985) is above lam_K = (16 pi)^2 (2527),
    # those of M <= 12 below it: the finest level of the second ladder is still
    # taken on the sine spectrum's lattice
    TIME_EXACT_LADDERS = {"shared-nodes": (1 / 4, 1 / 6, 1 / 8, 1 / 12), "finest-keyed-apart": (1 / 4, 1 / 8, 1 / 12, 1 / 16)}

    @pytest.mark.parametrize("ladder", TIME_EXACT_LADDERS.values(), ids=TIME_EXACT_LADDERS.keys())
    def test_time_exact_rows_equal_cold_standalone_reports(self, ladder):
        from levyspde.errors import error_report
        from levyspde.studies import _level_setup

        cfg = StudyConfig(name="v", kind=volterra_kind(1.5), axis="spatial", beta=0.5, modes=16, ladder=ladder)
        res = run_study(cfg)
        for row in res.rows:
            alone = error_report(_level_setup(cfg, row.resolution))
            assert row.report.strong_error > 0.0 and _bits(row.report) == _bits(alone)

    @pytest.mark.parametrize("ladder", TIME_EXACT_LADDERS.values(), ids=TIME_EXACT_LADDERS.keys())
    def test_time_exact_exact_side_evaluated_once_per_node_set(self, ladder, monkeypatch):
        # the node set of a time-exact level is the call's one cut lattice, from
        # the sine spectrum: the K sine modes' tables are built once and the J
        # discrete modes' once per level, in ladder order, and no E_rho value or
        # Gauss node is used
        from levyspde.spectral import dirichlet_spectrum

        kind, K = volterra_kind(1.5), 16
        sine = dirichlet_spectrum(K).eigenvalues
        built, real = [], errors._terms

        def counting(kind, lam, lattice, T):
            built.append((lam.tobytes() == sine.tobytes(), lam.size, (lattice[0][0], lattice[0].size)))
            return real(kind, lam, lattice, T)

        def refused(*args, **kwargs):
            raise AssertionError("a time-exact level evaluated E_rho or built Gauss nodes")

        monkeypatch.setattr(errors, "_terms", counting)
        monkeypatch.setattr(errors, "mittag_leffler_neg", refused)
        monkeypatch.setattr(errors, "_panel_nodes", refused)
        run_study(StudyConfig(name="v", kind=kind, axis="spatial", beta=0.5, modes=K, ladder=ladder))
        lattices = {lattice for _, _, lattice in built}
        assert [size for exact, size, _ in built if not exact] == [round(1 / h) - 1 for h in ladder]
        assert [exact for exact, *_ in built].count(True) == len(lattices) == 1

    def test_interleaved_studies_rows_equal_cold_standalone_reports(self):
        # Volterra studies one after another: time-exact spatial, dyadic
        # temporal, a time scheme on P1 spaces (K = 12, another lam),
        # non-nested temporal, dyadic again.  No exact side passes from one
        # call to the next, so every report equals the standalone one,
        # computed afterwards
        from levyspde.studies import _level_setup

        kind, dyadic, meshes = volterra_kind(1.5), (1 / 16, 1 / 32, 1 / 64, 1 / 128), (1 / 4, 1 / 6, 1 / 8, 1 / 12)
        runs = [
            StudyConfig(name="v", kind=kind, axis="spatial", beta=0.5, modes=16, ladder=meshes),
            StudyConfig(name="v", kind=kind, axis="temporal", beta=0.5, modes=16, ladder=dyadic),
            _fully_discrete(12, (4, 6, 8, 12)),
            StudyConfig(name="v", kind=kind, axis="temporal", beta=0.5, modes=16, ladder=(1 / 12, 1 / 16, 1 / 20, 1 / 24)),
            StudyConfig(name="v", kind=kind, axis="temporal", beta=0.5, modes=16, ladder=dyadic),
        ]
        warm = []  # (report, setup) of every level, all computed before any cold report
        for step in runs:
            if isinstance(step, StudyConfig):
                warm += [(row.report, _level_setup(step, row.resolution)) for row in run_study(step).rows]
            else:
                warm += [(errors.error_report(setup), setup) for setup in step]
        for report, setup in warm:
            assert report.strong_error > 0.0 and _bits(report) == _bits(errors.error_report(setup))

    def test_volterra_implied_exact_side_is_level_independent(self):
        from levyspde.propagators import discrete_family
        from levyspde.spectral import dirichlet_spectrum

        ladder = (1 / 16, 1 / 32, 1 / 64, 1 / 128)
        cfg = StudyConfig(name="v", kind=volterra_kind(1.5), axis="temporal", beta=0.5, modes=16, ladder=ladder)
        res = run_study(cfg)
        spec = dirichlet_spectrum(cfg.modes)
        q = cfg.covariance().values(spec)
        implied = []
        for row in res.rows:
            n = int(round(1.0 / row.resolution))
            e = discrete_family(cfg.kind, spec.eigenvalues, row.resolution, n).steps[:, 1:].real
            implied.append(float(q @ (e * e).sum(axis=1)) * row.resolution - row.report.weak_error_quadratic)
        assert np.ptp(implied) <= 1e-12 * implied[-1]


class TestStudyMonteCarlo:
    """run_study draws each block of paths once for the whole ladder; a study
    row's MC columns must equal a standalone mc_weak_error of the study's
    problem at that level's step count bit for bit."""

    KINDS = {
        "heat": (heat_kind(), 1.0, (1.0, -0.5, 0.25)),
        "wave": (wave_kind("crank_nicolson"), 0.75, ((1.0, -0.5, 0.25), (-1.0, 0.5, -0.25))),
        "volterra": (volterra_kind(1.5), 0.5, (1.0, -0.5, 0.25)),
    }

    @pytest.mark.parametrize(
        "cells, T, nested",
        [((8, 16, 32, 64), 1.0, True), ((12, 16, 20, 24), 1.0, False), ((3, 9, 27, 81), 1.0, True),
         ((3, 9, 27, 81), 1.3, False)],
        ids=["dyadic", "non-nested", "ratio3-T1", "ratio3-T1.3"],
    )
    @pytest.mark.parametrize("g", ["quadratic", "cylindrical_cos"])
    @pytest.mark.parametrize("name", list(KINDS))
    def test_rows_equal_standalone_mc(self, name, g, cells, T, nested):
        from levyspde.errors import CylindricalFunctional, _mc_block_paths, _nest_stride, mc_weak_error
        from levyspde.noise import LevyLaw
        from levyspde.studies import _level_setup

        kind, beta, x0 = self.KINDS[name]
        ladder = tuple(T / n for n in cells)
        cfg = StudyConfig(
            name="m", kind=kind, axis="temporal", beta=beta, T=T, modes=16, ladder=ladder, x0=x0,
            law=LevyLaw("compound_poisson", intensity=16.0), g=g, g_mode=2 if g == "cylindrical_cos" else 1,
            mc_paths=75, mc_seed=11,
        )
        problem = dataclasses.replace(_level_setup(cfg, ladder[0]), n_cells=None)
        assert [_level_setup(cfg, dt).n_cells for dt in ladder] == list(cells)
        # a nested ladder reads every level's cells off the finest level's; the others
        # bin at least one level on its own edges
        strides = [_nest_stride(np.linspace(0.0, T, cells[-1] + 1), np.linspace(0.0, T, n + 1)) for n in cells]
        assert (None not in strides) == nested
        block = _mc_block_paths(problem)
        assert block < cfg.mc_paths and cfg.mc_paths % block  # full blocks and a short last one
        func = CylindricalFunctional(mode=2) if g == "cylindrical_cos" else None
        res = run_study(cfg)
        for row, n in zip(res.rows, cells):
            [alone] = mc_weak_error(problem, [n], g=func, n_paths=cfg.mc_paths, seed=cfg.mc_seed)
            assert (row.mc_estimate, row.mc_stderr) == alone

    def test_one_mc_call_per_study(self, monkeypatch):
        import levyspde.studies as studies

        # the benchmark tracer counts calls at this name: one per study, not one per level
        calls, mc = [], studies.mc_weak_error

        def counted(problem, n_cells, **kwargs):
            calls.append(list(n_cells))
            return mc(problem, n_cells, **kwargs)

        monkeypatch.setattr(studies, "mc_weak_error", counted)
        ladder = (1 / 8, 1 / 16, 1 / 32, 1 / 64)
        cfg = StudyConfig(name="m", kind=heat_kind(), axis="temporal", beta=1.0, modes=8, ladder=ladder, mc_paths=20)
        res = run_study(cfg)
        assert calls == [[8, 16, 32, 64]]
        assert all(r.mc_stderr > 0.0 for r in res.rows)

    def test_heat_intensity_16_mc_columns_pinned(self):
        # 16 blocks of 32 paths per level, every level's cells read off the finest level's
        from levyspde.noise import LevyLaw

        cfg = StudyConfig(
            name="h", kind=heat_kind(), axis="temporal", beta=1.0, modes=16, ladder=(1 / 8, 1 / 16, 1 / 32, 1 / 64),
            law=LevyLaw("compound_poisson", intensity=16.0), mc_paths=500, mc_seed=0,
        )
        assert [(r.mc_estimate, r.mc_stderr) for r in run_study(cfg).rows] == [
            (-0.00712386098012604, 0.0005913793001630574),
            (-0.005176318338217161, 0.0004080956663402649),
            (-0.0034209670648504965, 0.0002710640009262263),
            (-0.002073982417757503, 0.00015896965196421765),
        ]

    def test_wave_temporal_mc_preset_columns_pinned(self, preset_result):
        # the MC columns move only through a documented change of sampler
        rows = preset_result("wave-temporal-mc").rows
        assert [(r.mc_estimate, r.mc_stderr) for r in rows] == [
            (0.0007619784421427238, 0.00031120393438171953),
            (0.0003311828246732667, 0.00016501885693700262),
            (5.5605082096211746e-05, 8.458667977107005e-05),
            (3.4992907276399117e-05, 4.1585340928508016e-05),
        ]
