import dataclasses
import math
import re

import numpy as np
import pytest

import levyspde.errors as errors
from levyspde.errors import (
    CylindricalFunctional,
    Setup,
    error_report,
    mc_weak_error,
    propagator_error_profile,
)
from levyspde.noise import CovarianceSpec, LevyLaw
from levyspde.propagators import discrete_family, heat_kind, volterra_kind, wave_kind
from levyspde.spectral import assemble_fem, dirichlet_spectrum

CP = LevyLaw("compound_poisson", intensity=1.0)
FLAT = CovarianceSpec(amplitude=1.0, decay=0.0)


def observed_steps(kind, lam, steps):
    """The noise column's observable component of each step factor, written
    out apart from the library: the wave's position row -Im z / sqrt(lam) of
    the complex carrier z (its block is [[Re z, -Im z / sqrt(lam)], ...]), the
    real factor itself for heat and Volterra."""
    if kind.name == "wave":
        return -np.imag(steps) / np.sqrt(lam)[:, None]
    return np.real(steps)


def heat_single_mode_closed_form(lam: float, T: float, N: int):
    """Exact geometric-sum evaluation of the three time integrals for one mode."""
    dt = T / N
    r = 1.0 / (1.0 + dt * lam)
    i_dd = dt * r**2 * (1.0 - r ** (2 * N)) / (1.0 - r**2)
    i_ee = (1.0 - np.exp(-2.0 * lam * T)) / (2.0 * lam)
    d = np.exp(-lam * dt)
    i_de = (1.0 - d) / lam * r * (1.0 - (r * d) ** N) / (1.0 - r * d)
    return i_dd, i_ee, i_de


class TestDeterministicHeat:
    def test_single_mode_against_closed_form(self):
        N, T = 16, 1.0
        lam = np.pi**2
        setup = Setup(heat_kind(), dirichlet_spectrum(1), FLAT, CP, T, n_cells=N)
        i_dd, i_ee, i_de = heat_single_mode_closed_form(lam, T, N)
        rep = error_report(setup)
        assert rep.weak_error_quadratic == pytest.approx(i_dd - i_ee, abs=1e-15)
        assert rep.strong_error == pytest.approx(np.sqrt(i_dd - 2 * i_de + i_ee), abs=1e-15)

    def test_single_mode_against_fine_riemann(self):
        # cellwise midpoint rule: respects the kinks of the piecewise factor
        N, T = 8, 1.0
        lam = np.pi**2
        setup = Setup(heat_kind(), dirichlet_spectrum(1), FLAT, CP, T, n_cells=N)
        dt = T / N
        r = 1.0 / (1.0 + dt * lam)
        sub = 4000
        total = 0.0
        for n in range(1, N + 1):
            s = (n - 1) * dt + (np.arange(sub) + 0.5) * dt / sub
            total += np.sum((r**n - np.exp(-lam * s)) ** 2) * dt / sub
        assert error_report(setup).strong_error == pytest.approx(np.sqrt(total), abs=1e-8)

    def test_weak_error_can_be_negative(self):
        setup = Setup(heat_kind(), dirichlet_spectrum(64), CovarianceSpec(amplitude=1.0, decay=0.55), CP, 1.0, n_cells=32)
        assert error_report(setup).weak_error_quadratic < 0.0

    def test_matches_monte_carlo_l2(self):
        setup = Setup(heat_kind(), dirichlet_spectrum(24), CovarianceSpec(amplitude=1.0, decay=0.55), CP, 1.0, n_cells=16)
        det2 = error_report(setup).strong_error ** 2
        from levyspde.noise import increments_from_path, sample_jump_path, stream

        lam = setup.spec.eigenvalues
        sq = np.sqrt(setup.q())
        fam = discrete_family(heat_kind(), lam, setup.dt, setup.n_cells)
        et = fam.steps[:, :0:-1]
        grid = np.linspace(0.0, 1.0, 17)
        acc = np.empty(10000)
        for p in range(acc.size):
            rng = stream(101, p)
            path = sample_jump_path(CP, 1.0, 24, rng)
            counts = np.array([t.size for t in path.times])
            xe = np.zeros(24)
            if counts.sum():
                mi = np.repeat(np.arange(24), counts)
                tf = np.concatenate(path.times)
                sf = np.concatenate(path.sizes)
                xe = sq * np.bincount(mi, weights=np.exp(-lam[mi] * (1.0 - tf)) * sf, minlength=24)
            xd = sq * np.einsum("kn,kn->k", et, increments_from_path(path, grid))
            acc[p] = np.sum((xd - xe) ** 2)
        stderr = acc.std(ddof=1) / np.sqrt(acc.size)
        assert abs(acc.mean() - det2) <= 3 * stderr


class TestZeroAndExactCases:
    def test_exact_scheme_injection_zeros_everything(self):
        # the exact family: no FEM space and no time grid.  The Volterra case
        # runs the closed-form time-exact rows through the identity fold, where
        # both sides build the same cut tables
        for kind, x0 in ((heat_kind(), np.ones(4)), (volterra_kind(1.5), np.ones(4)), (wave_kind(), np.ones((2, 4)))):
            setup = Setup(
                kind,
                dirichlet_spectrum(32),
                CovarianceSpec(amplitude=1.0, decay=0.55),
                CP,
                1.0,
                n_cells=None,
                fem=None,
                x0=x0,
            )
            rep = error_report(setup)
            assert rep.strong_error == 0.0
            assert rep.weak_error_quadratic == 0.0
            assert rep.representation_value == 0.0

    def test_time_exact_exact_family_zero_across_blocks(self, monkeypatch):
        # K = 512 at rho = 1.9: the cut tables of the K modes on the lattice
        # span many blocks of modes, on the exact side and on the discrete side;
        # every row reduces on its own, so both sides still agree bit for bit
        kind, K = volterra_kind(1.9), 512
        spec = dirichlet_spectrum(K)
        x0 = np.zeros(K)
        x0[:3] = [1.0, -0.5, 0.25]
        lattices, real = [], errors._terms

        def recording(kind, lam, lattice, T):
            lattices.append(lattice[0].size)
            return real(kind, lam, lattice, T)

        monkeypatch.setattr(errors, "_terms", recording)
        rep = error_report(Setup(kind, spec, CovarianceSpec(amplitude=1.0, decay=0.5), CP, 1.0, x0=x0))
        assert len(lattices) == 2 and len(errors._mode_blocks(K, lattices[0], errors._ML_BLOCK)) > 1
        assert (rep.strong_error, rep.weak_error_quadratic, rep.representation_value) == (0.0, 0.0, 0.0)

    def test_initial_data_terms_against_closed_form(self):
        # the x0 terms by hand: backward Euler (1 + dt lam)^(-N) against e^(-lam T);
        # the noise terms are the same bits with and without x0, so they cancel
        x0 = np.array([1.0, 0.5])
        with_x0 = Setup(heat_kind(), dirichlet_spectrum(8), FLAT, CP, 1.0, n_cells=4, x0=x0)
        rep, rep0 = error_report(with_x0), error_report(dataclasses.replace(with_x0, x0=None))
        lam = with_x0.spec.eigenvalues[:2]
        r4 = (1.0 + 0.25 * lam) ** -4
        expect = np.sum((r4 * x0) ** 2) - np.sum((np.exp(-lam) * x0) ** 2)
        assert rep.weak_error_quadratic - rep0.weak_error_quadratic == pytest.approx(expect, rel=1e-12)
        assert rep.representation_value - rep0.representation_value == pytest.approx(expect, rel=1e-12)
        diff2 = np.sum(((r4 - np.exp(-lam)) * x0) ** 2)
        assert rep.strong_error**2 - rep0.strong_error**2 == pytest.approx(diff2, rel=1e-10)


class TestOnePath:
    def test_spectral_partner_map_is_the_identity_fold(self):
        setup = Setup(heat_kind(), dirichlet_spectrum(6), FLAT, CP, 1.0, n_cells=4)
        lam_d, j, c = errors._partner_map(setup)
        assert lam_d is setup.spec.eigenvalues
        np.testing.assert_array_equal(j, np.arange(1, 7))
        np.testing.assert_array_equal(c, np.ones(6))

    def test_error_report_is_the_only_entry_point(self):
        import levyspde

        fields = [f.name for f in dataclasses.fields(errors.ErrorReport)]
        assert fields == ["strong_error", "weak_error_quadratic", "representation_value"]
        for name in ("strong_error", "weak_error_quadratic", "representation_quadratic"):
            assert not hasattr(errors, name) and not hasattr(levyspde, name)
        for name in ("increments_from_path", "JumpPath", "sample_jump_path", "asymmetric_condition"):
            assert name not in levyspde.__all__
        assert callable(errors.increments_from_path)  # studybench/tracer.py wraps it there


def _level_rows(kind, lam_d, j, lam, T, n_cells):
    """The rows of one level (lam_d, j, n_cells) from a _rows call of its own."""
    return errors._rows(kind, [(lam_d, j, n_cells)], lam, T)[0]


def _hex(report):
    return [v.hex() for v in dataclasses.astuple(report)]


def _x0(kind, K):
    x0 = np.zeros((2, K) if kind.name == "wave" else K)
    x0[..., :3] = [1.0, -0.5, 0.25]
    return x0


class TestErrorReports:
    """error_reports(setups) returns each level's report, in input order, and
    each equals error_report of that level alone bit for bit: one _rows call
    takes every level, heat and wave levels as one broadcast on either axis,
    Volterra levels one at a time against the exact side the call builds
    once."""

    KINDS = {"heat-be": heat_kind(), "wave-cn": wave_kind("crank_nicolson"), "wave-be": wave_kind("backward_euler")}
    # (T, step counts): dyadic, non-nested and a horizon whose dt = T / N is not dyadic
    CELLS = {"dyadic": (1.0, (16, 32, 64, 128)), "non-nested": (1.0, (12, 16, 20, 24)), "T0.7": (0.7, (16, 32, 64, 128))}

    @pytest.mark.parametrize("with_x0", [False, True], ids=["no-x0", "x0"])
    @pytest.mark.parametrize("T, cells", CELLS.values(), ids=CELLS.keys())
    @pytest.mark.parametrize("kind", KINDS.values(), ids=KINDS.keys())
    def test_temporal_levels_equal_lone_reports(self, kind, T, cells, with_x0, monkeypatch):
        K = 48
        x0 = _x0(kind, K) if with_x0 else None
        cov = CovarianceSpec(amplitude=1.3, decay=0.55)
        setups = [Setup(kind, dirichlet_spectrum(K), cov, CP, T, n_cells=n, x0=x0) for n in cells]
        calls, real = [], errors._term_rows

        def counting(kind, levels, x, lattice, T):
            calls.append(len(levels))
            return real(kind, levels, x, lattice, T)

        monkeypatch.setattr(errors, "_term_rows", counting)
        reports = errors.error_reports(setups)
        assert calls == [len(cells)]  # one broadcast for the whole ladder
        alone = [error_report(s) for s in setups]
        for got, want in zip(reports, alone):
            assert got.strong_error > 0.0 and _hex(got) == _hex(want)
        # each broadcast row is the row of a lone level, bit for bit, whether the
        # levels share one partner map (one gathered row) or each has its own
        lam, j = setups[0].spec.eigenvalues, np.arange(1, K + 1)
        shared = errors._rows(kind, [(lam, j, n) for n in cells], lam, T)
        apart = errors._rows(kind, [(lam.copy(), j.copy(), n) for n in cells], lam, T)
        for rows, rows_apart, n in zip(shared, apart, cells):
            want = _level_rows(kind, lam, j, lam, T, n)[:3]
            for got, got_apart, w in zip(rows[:3], rows_apart[:3], want):
                assert np.array_equal(got, w) and np.array_equal(got_apart, w)

    @pytest.mark.parametrize("kind", KINDS.values(), ids=KINDS.keys())
    def test_groups_split_at_the_block_size(self, kind, monkeypatch):
        # _ML_BLOCK // K = 3 levels per call, below the ladder's 7: calls of 3, 3 and 1
        K = 32
        setups = [Setup(kind, dirichlet_spectrum(K), FLAT, CP, 1.0, n_cells=n, x0=_x0(kind, K)) for n in range(8, 15)]
        alone = [error_report(s) for s in setups]
        monkeypatch.setattr(errors, "_ML_BLOCK", 3 * K + 1)
        calls, real = [], errors._term_rows

        def counting(kind, levels, x, lattice, T):
            calls.append([n for *_, n in levels])
            return real(kind, levels, x, lattice, T)

        monkeypatch.setattr(errors, "_term_rows", counting)
        reports = errors.error_reports(setups)
        assert calls == [[8, 9, 10], [11, 12, 13], [14]]
        assert [_hex(r) for r in reports] == [_hex(r) for r in alone]

    # (kind, step counts or the one step count of a P1 ladder, meshes or None, x0, K)
    LADDERS = {
        "heat-spatial": (heat_kind(), None, (4, 8, 16), True, 16),
        "wave-spatial": (wave_kind("crank_nicolson"), None, (4, 8, 16), True, 16),
        "volterra-spatial": (volterra_kind(1.5), None, (4, 8, 12), True, 16),
        "volterra-temporal": (volterra_kind(1.5), (16, 32, 12, 64), None, True, 16),
        "heat-fully-discrete": (heat_kind(), 16, (4, 8), True, 16),
        "heat-spatial-no-x0": (heat_kind(), None, (4, 8, 16), False, 16),
        "wave-spatial-no-x0": (wave_kind("crank_nicolson"), None, (4, 8, 16), False, 16),
        "wave-be-spatial": (wave_kind("backward_euler"), None, (16, 8, 4), True, 16),
        "wave-fully-discrete": (wave_kind("crank_nicolson"), 16, (4, 8, 16), True, 16),
        "wave-be-fully-discrete-no-x0": (wave_kind("backward_euler"), 12, (16, 8), False, 16),
        "heat-fully-discrete-no-x0": (heat_kind(), 16, (16, 8, 4), False, 16),
        # K = M - 1 on the finest mesh: its top P1 eigenvalue passes lam_K, and
        # it is taken on the sine spectrum's lattice with the coarser levels
        "volterra-spatial-K=M-1": (volterra_kind(1.5), None, (4, 8, 16), True, 15),
    }

    @pytest.mark.parametrize("kind, cells, meshes, with_x0, K", LADDERS.values(), ids=LADDERS.keys())
    def test_other_levels_equal_lone_reports(self, kind, cells, meshes, with_x0, K):
        x0 = _x0(kind, K) if with_x0 else None
        if meshes is None:
            setups = [Setup(kind, dirichlet_spectrum(K), FLAT, CP, 1.0, n_cells=n, x0=x0) for n in cells]
        else:
            setups = [
                Setup(kind, dirichlet_spectrum(K), FLAT, CP, 1.0, n_cells=cells, fem=assemble_fem(m), x0=x0) for m in meshes
            ]
        reports = errors.error_reports(setups)
        for setup, got in zip(setups, reports):
            assert got.strong_error > 0.0 and _hex(got) == _hex(error_report(setup))

    @pytest.mark.parametrize("kind", [heat_kind(), wave_kind(), volterra_kind(1.5)], ids=["heat", "wave", "volterra"])
    def test_one_level(self, kind):
        setup = Setup(kind, dirichlet_spectrum(16), FLAT, CP, 1.0, n_cells=8, x0=_x0(kind, 16))
        (got,) = errors.error_reports([setup])
        assert _hex(got) == _hex(error_report(setup))

    @pytest.mark.parametrize("axis", ["temporal", "spatial"])
    def test_volterra_exact_side_built_once_per_call(self, axis, monkeypatch):
        # dyadic ladders.  Temporal: E_{rho,2} sees only the finest level's
        # K (N + 1) edge arguments and _volterra_ee runs once.  Spatial (K = M - 1
        # on the finest mesh, whose top P1 eigenvalue passes lam_K): the sine
        # modes' cut tables are built once, on the call's one lattice from the
        # sine spectrum.  Nothing outlives the call, so a second call builds
        # everything again
        kind, K = volterra_kind(1.5), 15
        spec = dirichlet_spectrum(K)
        if axis == "temporal":
            setups = [Setup(kind, spec, FLAT, CP, 1.0, n_cells=n) for n in (64, 32, 16, 8)]
        else:
            setups = [Setup(kind, spec, FLAT, CP, 1.0, fem=assemble_fem(m)) for m in (16, 8, 4)]
        primitives, ee_runs, sine_lattices = [], [], []
        ml, volterra_ee, terms = errors.mittag_leffler_neg, errors._volterra_ee, errors._terms

        def counting_ml(rho, x, beta=1):
            if beta == 2:
                primitives.append(x.size)
            return ml(rho, x, beta)

        def counting_ee(kind, lam, T):
            ee_runs.append(lam.size)
            return volterra_ee(kind, lam, T)

        def counting_terms(kind, lam, lattice, T):
            if np.array_equal(lam, spec.eigenvalues):
                sine_lattices.append((lattice[0][0], lattice[0].size))
            return terms(kind, lam, lattice, T)

        monkeypatch.setattr(errors, "mittag_leffler_neg", counting_ml)
        monkeypatch.setattr(errors, "_volterra_ee", counting_ee)
        monkeypatch.setattr(errors, "_terms", counting_terms)
        first = errors.error_reports(setups)
        if axis == "temporal":
            assert (sum(primitives), ee_runs, sine_lattices) == (K * 65, [K], [])
        else:
            assert (primitives, ee_runs) == ([], [])
            assert len(sine_lattices) == 1
        built = (sum(primitives), len(ee_runs), len(sine_lattices))
        assert errors.error_reports(setups) == first
        assert (sum(primitives), len(ee_runs), len(sine_lattices)) == tuple(2 * b for b in built)

    def test_no_cache_is_keyed_by_a_problem(self):
        # no exact-side state outlives a call: the functools caches of levyspde
        # hold the Gauss rule and, per (rho, beta), E_rho's series coefficients
        # and bridge table, none keyed by a problem's eigenvalues, T or ladder
        import functools
        import importlib
        import inspect
        import pkgutil

        import levyspde

        caches = set()
        for info in pkgutil.iter_modules(levyspde.__path__):
            module = importlib.import_module(f"levyspde.{info.name}")
            owned = [(n, v) for n, v in vars(module).items() if getattr(v, "__module__", None) == module.__name__]
            owned += [(f"{n}.{m}", w) for n, v in owned if inspect.isclass(v) for m, w in vars(v).items()]
            caches |= {
                f"{info.name}.{n}" for n, v in owned if hasattr(v, "cache_info") or isinstance(v, functools.cached_property)
            }
        assert caches == {
            "errors._gauss",
            "mittag_leffler._series_coeff",
            "mittag_leffler._asymptotic_coeff",
            "mittag_leffler._bridge_table",
        }

    def test_levels_of_another_problem_refused(self):
        base = Setup(heat_kind(), dirichlet_spectrum(8), FLAT, CP, 1.0, n_cells=4)
        others = {
            "kind": Setup(wave_kind(), dirichlet_spectrum(8), FLAT, CP, 1.0, n_cells=8),
            "spec": dataclasses.replace(base, spec=dirichlet_spectrum(9), n_cells=8),
            "cov": dataclasses.replace(base, cov=CovarianceSpec(amplitude=2.0, decay=0.0), n_cells=8),
            "law": dataclasses.replace(base, law=LevyLaw("compound_poisson", intensity=2.0), n_cells=8),
            "T": dataclasses.replace(base, T=0.5, n_cells=8),
            "x0": dataclasses.replace(base, x0=np.ones(8), n_cells=8),
            "axis (fem)": dataclasses.replace(base, fem=assemble_fem(4), n_cells=8),
            "axis (n_cells)": dataclasses.replace(base, n_cells=None),
        }
        for field, other in others.items():
            with pytest.raises(ValueError, match=re.escape(f"setup 1 differs from setup 0 in {field}")):
                errors.error_reports([base, other])
        spatial = dataclasses.replace(base, n_cells=None, fem=assemble_fem(4))
        with pytest.raises(ValueError, match=re.escape("in axis (fem), axis (n_cells)")):
            errors.error_reports([base, spatial])  # a temporal and a spatial level
        for bad in ([], [base, "level"]):
            with pytest.raises(ValueError, match="nonempty sequence of Setups"):
                errors.error_reports(bad)


class TestRepresentationIdentity:
    def test_sweep_relative_agreement(self):
        from levyspde.studies import representation_sweep

        rows = representation_sweep()
        assert len(rows) == 12
        worst = max(r["rel_discrepancy"] for r in rows)
        assert worst <= 1e-8

    def test_single_mode_tight(self):
        setup = Setup(heat_kind(), dirichlet_spectrum(1), FLAT, CP, 1.0, n_cells=8, x0=np.array([2.0]))
        r = error_report(setup)
        weak, rep = r.weak_error_quadratic, r.representation_value
        assert abs(rep - weak) <= 1e-10 * max(abs(weak), 1.0)

    def test_sign_mutation_is_detected(self):
        # at x0 = 0, weak - strong^2 = 2 (I_de - I_ee) is the cross term C; a
        # flipped sign of C would move the representation by 2 C off the weak
        # error, so the gate sees it when |2 C| > 1e-4 |weak|
        setup = Setup(heat_kind(), dirichlet_spectrum(16), CovarianceSpec(amplitude=1.0, decay=0.4), CP, 1.0, n_cells=8)
        r = error_report(setup)
        weak = r.weak_error_quadratic
        assert abs(weak - r.strong_error**2) > 5e-5 * abs(weak)

    def test_fem_setups_agree_too(self):
        setup = Setup(
            volterra_kind(1.5),
            dirichlet_spectrum(32),
            CovarianceSpec(amplitude=1.0, decay=0.4),
            CP,
            1.0,
            fem=assemble_fem(8),
            x0=np.array([1.0, 0.0, -0.5]),
        )
        r = error_report(setup)
        weak, rep = r.weak_error_quadratic, r.representation_value
        assert abs(rep - weak) <= 1e-8 * max(abs(weak), 1e-14)


class TestHsTimeIntegral:
    """Hilbert-Schmidt time integrals sum_k q_k int_0^T f_k(s) ds by Gauss
    quadrature on the global nodes (the route of the time-exact rows and of
    _weak_error_cellwise), and the test oracle cell_integrals built on them."""

    def test_gauss_rule_is_numpys_bit_for_bit(self):
        # the library writes the rule out so that it never imports numpy.polynomial
        x, w = errors._gauss()
        want_x, want_w = np.polynomial.legendre.leggauss(errors.GAUSS_ORDER)
        assert x.tobytes() == want_x.tobytes() and w.tobytes() == want_w.tobytes()

    @pytest.mark.parametrize("kind", [heat_kind(), volterra_kind(1.5), wave_kind("crank_nicolson")], ids=lambda k: k.name)
    def test_cellwise_oracle_in_mode_blocks(self, kind, monkeypatch):
        # the oracle's exact factors in one block of all 48 modes and in blocks of
        # 5, the last one short; ee reduces each row on its own, so the value
        # does not depend on how many rows a block holds, bit for bit
        x0 = np.zeros((2, 48) if kind.name == "wave" else 48)
        x0[..., :2] = [1.0, -0.5]
        setup = Setup(kind, dirichlet_spectrum(48), CovarianceSpec(amplitude=1.0, decay=0.3), CP, 1.0, n_cells=8, x0=x0)
        nodes, _ = errors._global_nodes(kind, float(setup.spec.eigenvalues[-1]), 1.0)
        monkeypatch.setattr(errors, "_ML_BLOCK", 48 * nodes.size)
        whole = errors._weak_error_cellwise(setup)
        monkeypatch.setattr(errors, "_ML_BLOCK", 5 * nodes.size)
        assert len(errors._mode_blocks(48, nodes.size, errors._ML_BLOCK)) == 10
        assert errors._weak_error_cellwise(setup) == whole

    def test_constant_integrand(self):
        _, w = errors._global_nodes(heat_kind(), 37.0, 1.25)
        assert 2.0 * 3.5 * np.sum(w) == pytest.approx(2.0 * 3.5 * 1.25, rel=1e-15)

    def test_exponential_antiderivative(self):
        lam = 37.0
        nodes, w = errors._global_nodes(heat_kind(), 2.0 * lam, 1.0)
        expect = (1.0 - np.exp(-2.0 * lam)) / (2.0 * lam)
        assert abs(np.sum(w * np.exp(-2.0 * lam * nodes)) - expect) <= 1e-12

    def test_node_doubling_stable(self):
        lam = np.array([3.0, 210.0, 5000.0])
        q = np.array([1.0, 0.3, 0.1])
        # the library's order-8 nodes against order-16 panels on the same partition
        bks = errors._global_partition(heat_kind(), 2.0 * lam[-1], 1.0)
        gx, gw = np.polynomial.legendre.leggauss(16)
        mid, half = 0.5 * (bks[1:] + bks[:-1]), 0.5 * np.diff(bks)
        doubled = (mid[:, None] + half[:, None] * gx).ravel(), (half[:, None] * gw).ravel()
        a, b = (
            q @ (np.exp(-2.0 * lam[:, None] * nodes) @ w)
            for nodes, w in (errors._global_nodes(heat_kind(), 2.0 * lam[-1], 1.0), doubled)
        )
        assert abs(a - b) < 1e-10

    @staticmethod
    def documented_base(T, scale, freq, span):
        """The rule of _global_partition before the Volterra cuts, written out:
        a geometric grid (ratio 1.35) from scale / 2 (none without a scale)
        and a uniform grid of 1.8 radians of freq per cell over [0, span]."""
        pts = {0.0, T}
        if scale is not None:
            lo = scale / 2.0
            geo = lo * 1.35 ** np.arange(0, int(np.ceil(np.log(T / lo) / np.log(1.35))) + 1)
            pts.update(geo[geo < T])
        m = int(np.ceil(span * freq / 1.8))
        if m > 1:
            pts.update(np.linspace(0.0, span, m + 1))
        return sorted(pts)

    @pytest.mark.parametrize("kind", [heat_kind(), wave_kind()], ids=lambda k: k.name)
    def test_heat_and_wave_partition_from_pole(self, kind):
        # heat decays on the scale 1/lam and does not oscillate; the wave
        # oscillates at sqrt(lam) over the whole horizon and does not decay
        for lam, T in ((0.1, 1.0), (np.pi**2, 1.0), (1.0, 1e3), ((64 * np.pi) ** 2, 1.0)):
            if kind.name == "heat":
                want = self.documented_base(T, 1.0 / lam, 0.0, T)
            else:
                want = self.documented_base(T, None, float(np.sqrt(lam)), T)
            assert np.array_equal(errors._global_partition(kind, lam, T), want)

    @pytest.mark.parametrize("rho", [1.1, 1.5, 1.9])
    def test_volterra_partition_matches_cellwise_refinement(self, rho):
        # the vectorised cut of _global_partition against the documented rule
        # applied one cell at a time: the same breakpoints, bit for bit
        kind = volterra_kind(rho)

        def cos_sin(r):
            # |cos(pi/r)| = sin(pi(2-r)/(2r)) and sin(pi/r) = sin(pi(r-1)/r), the
            # angles the pole takes them from, so neither loses digits near r = 2
            return math.sin(math.pi * (2 - r) / (2 * r)), math.sin(math.pi * (r - 1) / r)

        cos, sin = cos_sin(rho)
        for lam, T in ((1.0, 1e3), ((64 * np.pi) ** 2, 1.0)):
            # the envelope exp(lam^(1/rho) cos(pi/rho) s) and oscillation sin(lam^(1/rho) sin(pi/rho) s)
            scale = 1.0 / (cos * lam ** (1.0 / rho))
            freq = lam ** (1.0 / rho) * sin
            base = self.documented_base(T, scale, freq, min(T, errors._DEAD_SPAN * scale))
            base = [0.0] + [base[1] * 2.0**-m for m in range(errors._FIRST_CELL_HALVINGS, 0, -1)] + base[1:]
            ratio = [c / s for c, s in map(cos_sin, (rho, 1.5))]
            kappa = min(1.0, ratio[0] / ratio[1])  # 1 up to rho = 1.5, then narrower tail pieces
            want = [0.0]
            for a, b in zip(base, base[1:]):
                width = 0.3 * kappa * a
                n = min(int(np.ceil((b - a) / width)), int(np.ceil(8 / kappa))) if a > 0.0 and b - a > width else 1
                want.extend(a + (b - a) * np.arange(1, n) / n)
                want.append(b)
            assert np.array_equal(errors._global_partition(kind, lam, T), want)

    @pytest.mark.parametrize("k", [1, 2, 8])
    @pytest.mark.parametrize("dt", [1.0 / 16, None])
    def test_volterra_first_cell_against_mpmath(self, k, dt):
        # E_rho(-lam s^rho)^2 is not smooth at s = 0; the graded first cell
        # must keep the Gauss panels away from the branch point
        import mpmath as mp
        from cell_oracle import cell_integrals

        from levyspde.mittag_leffler import mittag_leffler_neg

        lam = (k * np.pi) ** 2
        val = cell_integrals(volterra_kind(1.5), lam, np.linspace(0.0, 1.0, round(1 / (dt or 1)) + 1))[1][0]
        with mp.workdps(30):
            f = lambda s: mp.mpf(mittag_leffler_neg(1.5, float(lam * s**1.5))) ** 2  # noqa: E731
            ref = float(mp.quad(f, [0.0] + [2.0**-m for m in range(30, 0, -1)] + [1.0]))
        assert abs(val - ref) <= 1e-12 * ref


class TestProfiles:
    def test_heat_bound_shape_along_ladder(self):
        spec = dirichlet_spectrum(128)
        cov = CovarianceSpec(amplitude=1.0, decay=0.55)
        sgrid = np.geomspace(1e-3, 1.0, 50)
        consts = []
        for p in range(4, 9):
            setup = Setup(heat_kind(), spec, cov, CP, 1.0, n_cells=2**p)
            prof = propagator_error_profile(setup, sgrid)
            consts.append(np.max(sgrid * prof) * 2**p)
        consts = np.asarray(consts)
        assert consts.max() <= 2.0 * consts.min()

    def test_consistency_near_horizon(self):
        setup = Setup(heat_kind(), dirichlet_spectrum(32), FLAT, CP, 1.0, n_cells=512)
        prof = propagator_error_profile(setup, np.array([0.9, 1.0]))
        assert prof.max() < 1e-2

    def test_volterra_profile_scales_with_mesh_and_step(self):
        # sup_s s * ||Etilde - E|| tracks h^(2/rho) on the semidiscrete ladder
        # and dt on the temporal ladder
        rho = 1.5
        spec = dirichlet_spectrum(96)
        cov = CovarianceSpec(amplitude=1.0, decay=0.4)
        sgrid = np.geomspace(1e-2, 1.0, 25)
        ratios = []
        for M in (8, 16, 32):
            setup = Setup(volterra_kind(rho), spec, cov, CP, 1.0, fem=assemble_fem(M))
            prof = propagator_error_profile(setup, sgrid)
            ratios.append(np.max(sgrid * prof) / (1.0 / M) ** (2.0 / rho))
        ratios = np.asarray(ratios)
        assert ratios.max() <= 4.0 * ratios.min()
        consts = []
        for p in (4, 6, 8):
            setup = Setup(volterra_kind(rho), spec, cov, CP, 1.0, n_cells=2**p)
            prof = propagator_error_profile(setup, sgrid)
            consts.append(np.max(sgrid * prof) * 2**p)
        consts = np.asarray(consts)
        assert consts.max() <= 4.0 * consts.min()

    @pytest.mark.parametrize("bad", [float("nan"), 0.0, 1.5])
    def test_s_grid_outside_horizon_refused(self, bad):
        # NaN used to end in an IndexError
        for setup in (
            Setup(heat_kind(), dirichlet_spectrum(8), FLAT, CP, 1.0, n_cells=4),
            Setup(heat_kind(), dirichlet_spectrum(8), FLAT, CP, 1.0, fem=assemble_fem(4)),
        ):
            with pytest.raises(ValueError, match=r"s_grid must lie in \(0, T\]"):
                propagator_error_profile(setup, np.array([0.5, bad]))

    @pytest.mark.parametrize("bad", [0.5, [[0.25, 0.5], [0.75, 1.0]]], ids=["scalar", "2-D"])
    def test_s_grid_not_one_dimensional_refused(self, bad):
        # a scalar used to raise "iteration over a 0-d array", a 2-D grid a
        # TypeError on converting a row to a float
        setup = Setup(heat_kind(), dirichlet_spectrum(8), FLAT, CP, 1.0, n_cells=4)
        shape = np.shape(bad)
        with pytest.raises(ValueError, match=re.escape(f"s_grid must be a 1-D array of times, got shape {shape}")):
            propagator_error_profile(setup, bad)

    def test_exact_family_refused(self):
        setup = Setup(heat_kind(), dirichlet_spectrum(8), FLAT, CP, 1.0)
        with pytest.raises(ValueError, match="exact family"):
            propagator_error_profile(setup, np.array([0.5, 1.0]))

    def test_wave_profile_refused(self):
        setup = Setup(wave_kind(), dirichlet_spectrum(8), FLAT, CP, 1.0, n_cells=8)
        with pytest.raises(ValueError, match="profiles cover the heat and Volterra families; got a wave setup"):
            propagator_error_profile(setup, np.array([0.5, 1.0]))

    @pytest.mark.parametrize("kind", [heat_kind(), volterra_kind(1.5)])
    def test_spectral_profile_is_per_mode_sup(self, kind):
        # every alias class of the identity fold is one mode with c = 1, so the
        # class Gram is exactly (f - e)^2 and the norm the sup of |f - e|, bit for bit
        spec, N = dirichlet_spectrum(48), 16
        lam = spec.eigenvalues
        sgrid = np.geomspace(1e-3, 1.0, 30)
        prof = propagator_error_profile(Setup(kind, spec, FLAT, CP, 1.0, n_cells=N), sgrid)
        steps = discrete_family(kind, lam, 1.0 / N, N).steps
        for s, value in zip(sgrid, prof):
            f = steps[:, int(np.ceil(np.round(s * N, 12)))]
            assert value == np.max(np.abs(f - errors._noise_factor(kind, lam, s)))

    @pytest.mark.parametrize("kind", [heat_kind(), volterra_kind(1.5)], ids=["heat", "volterra"])
    @pytest.mark.parametrize("K, M, N", [(32, 8, None), (96, 16, 64), (1024, 8, None), (1024, 64, 16)])
    def test_fem_profile_against_dense_gram(self, kind, K, M, N):
        # the full (K, K) Gram from eigh eigenvectors and the cross-Gram, no alias
        # classes assumed; K = 1024 used to be refused.  The dense Gram's own
        # roundoff grows with M on time-exact levels (8e-8 at K = 512, M = 64, where
        # the class form is within 7e-11 of the 40-digit Gram of the next test),
        # so it is compared where that floor is below 1e-9.
        from p1_oracle import dense_coupling, dense_error_norm

        lam_d, C = dense_coupling(M, K)
        lam = dirichlet_spectrum(K).eigenvalues
        sgrid = np.geomspace(1e-2, 1.0, 4)
        setup = Setup(kind, dirichlet_spectrum(K), FLAT, CP, 1.0, n_cells=N, fem=assemble_fem(M))
        prof = propagator_error_profile(setup, sgrid)
        for s, value in zip(sgrid, prof):
            if N is None:
                f = errors._noise_factor(kind, lam_d, s)
            else:
                f = discrete_family(kind, lam_d, 1.0 / N, N).steps[:, int(np.ceil(np.round(s * N, 12)))]
            want = dense_error_norm(C, f, errors._noise_factor(kind, lam, s))
            assert value == pytest.approx(want, rel=1e-9)

    def test_fem_profile_against_40_digit_gram(self):
        # heat, K = 512, M = 64, time-exact, at the s where the dense Gram is worst:
        # each class block f^2 c c^T - f c c^T (e + e^T) + diag(e^2) from the same
        # doubles, its eigenvalues in 30 digits
        import mpmath as mp

        from levyspde.spectral import alias_fold

        K, M, s = 512, 64, 0.16
        setup = Setup(heat_kind(), dirichlet_spectrum(K), FLAT, CP, 1.0, fem=assemble_fem(M))
        value = propagator_error_profile(setup, np.array([s]))[0]
        j, c = alias_fold(setup.fem, setup.spec)
        f = errors._noise_factor(heat_kind(), setup.fem.eigenvalues, s)
        e = errors._noise_factor(heat_kind(), setup.spec.eigenvalues, s)
        top = mp.mpf(0)
        with mp.workdps(30):
            for cls in range(M):
                ks = np.nonzero(j == cls)[0]
                fj = mp.mpf(float(f[cls - 1])) if cls else mp.mpf(0)
                cc, ee = [mp.mpf(float(c[k])) for k in ks], [mp.mpf(float(e[k])) for k in ks]
                block = mp.matrix(len(ks), len(ks))
                for a in range(len(ks)):
                    for b in range(len(ks)):
                        block[a, b] = fj * fj * cc[a] * cc[b] - fj * cc[a] * cc[b] * (ee[a] + ee[b])
                    block[a, a] += ee[a] ** 2
                top = max(top, max(mp.eigsy(block, eigvals_only=True)))
            want = float(mp.sqrt(top))
        assert value == pytest.approx(want, rel=1e-9)

    def test_fem_wave_profile_refused(self):
        setup = Setup(wave_kind(), dirichlet_spectrum(8), FLAT, CP, 1.0, fem=assemble_fem(4))
        with pytest.raises(ValueError, match="profiles cover the heat and Volterra families"):
            propagator_error_profile(setup, np.array([0.5]))


class TestMonteCarlo:
    def test_quadratic_matches_deterministic(self):
        problem = Setup(heat_kind(), dirichlet_spectrum(24), CovarianceSpec(amplitude=1.0, decay=0.55), CP, 1.0)
        det = error_report(dataclasses.replace(problem, n_cells=16)).weak_error_quadratic
        [(est, se)] = mc_weak_error(problem, [16], n_paths=10000, seed=5)
        assert abs(est - det) <= 3.0 * se

    def test_single_path_bit_reproducible(self):
        problem = Setup(heat_kind(), dirichlet_spectrum(8), FLAT, CP, 1.0)
        [(a, _)] = mc_weak_error(problem, [4], n_paths=1, seed=9)
        [(b, _)] = mc_weak_error(problem, [4], n_paths=1, seed=9)
        assert a == b

    def test_rerun_in_fresh_interpreter_same_bytes(self, fresh_python):
        problem = Setup(heat_kind(), dirichlet_spectrum(8), CovarianceSpec(amplitude=1.0, decay=0.4), CP, 1.0)
        a = mc_weak_error(problem, [8], n_paths=300, seed=3)
        b = mc_weak_error(problem, [8], n_paths=300, seed=3)
        fresh = fresh_python(
            "-c",
            "from levyspde.errors import Setup, mc_weak_error\n"
            "from levyspde.noise import CovarianceSpec, LevyLaw\n"
            "from levyspde.propagators import heat_kind\n"
            "from levyspde.spectral import dirichlet_spectrum\n"
            "problem = Setup(heat_kind(), dirichlet_spectrum(8), CovarianceSpec(amplitude=1.0, decay=0.4),\n"
            "                LevyLaw('compound_poisson', intensity=1.0), 1.0)\n"
            "print(repr(mc_weak_error(problem, [8], n_paths=300, seed=3)))",
        )
        assert a == b
        assert repr(a) == fresh.strip()

    def test_cylindrical_functional_truncation_independent(self):
        # a mode-1 observable must not care about modes beyond the resolved one
        cov = CovarianceSpec(amplitude=1.0, decay=0.55)
        ests = []
        for K in (8, 16):
            problem = Setup(heat_kind(), dirichlet_spectrum(K), cov, CP, 1.0)
            ests += mc_weak_error(problem, [8], g=CylindricalFunctional(mode=1), n_paths=4000, seed=21)
        (e1, s1), (e2, s2) = ests
        assert abs(e1 - e2) <= 4.0 * np.hypot(s1, s2)

    def test_variance_gamma_reference_unsupported(self):
        # the coupled reference needs compound-Poisson jump times; other laws are refused up front
        with pytest.raises(ValueError, match="compound_poisson"):
            LevyLaw("variance_gamma")

    def test_wave_mc_first_component(self):
        cov = CovarianceSpec(amplitude=1.0, decay=0.3)
        problem = Setup(wave_kind(), dirichlet_spectrum(12), cov, CP, 1.0)
        det = error_report(dataclasses.replace(problem, n_cells=16)).weak_error_quadratic
        [(est, se)] = mc_weak_error(problem, [16], n_paths=8000, seed=13)
        assert abs(est - det) <= 3.0 * se

    def test_volterra_mc(self):
        cov = CovarianceSpec(amplitude=1.0, decay=0.4)
        problem = Setup(volterra_kind(1.5), dirichlet_spectrum(12), cov, CP, 1.0)
        det = error_report(dataclasses.replace(problem, n_cells=8)).weak_error_quadratic
        [(est, se)] = mc_weak_error(problem, [8], n_paths=6000, seed=17)
        assert abs(est - det) <= 3.0 * se


class TestMonteCarloLadder:
    """mc_weak_error takes one problem, a spectral-Galerkin setup without a
    time grid, and the step counts of its levels.  Anything else is refused
    before a path is drawn."""

    BASE = Setup(heat_kind(), dirichlet_spectrum(8), FLAT, CP, 1.0, x0=np.array([1.0, 0.5]))

    @pytest.mark.parametrize("bad", [0, -1, 2.5, 10.0, "10", True])
    def test_path_count_must_be_whole(self, bad):
        # 0 used to return (nan, nan) with RuntimeWarnings, 2.5 to end in a TypeError
        assert mc_weak_error(self.BASE, [4], n_paths=np.int64(3)) == mc_weak_error(self.BASE, [4], n_paths=3)
        with pytest.raises(ValueError, match="n_paths must be a whole number >= 1"):
            mc_weak_error(self.BASE, [4], n_paths=bad)

    @pytest.mark.parametrize("kind", [heat_kind(), wave_kind()], ids=["heat", "wave"])
    def test_missing_x0_is_zero_x0(self, kind):
        # a missing x0 is stored as zeros, so the two problems give the same
        # pairs bit for bit; a level's pair does not depend on the other levels
        none = Setup(kind, dirichlet_spectrum(8), FLAT, CP, 1.0)
        assert none.x0.shape == ((2, 8) if kind.name == "wave" else (8,)) and not none.x0.any()
        zero = dataclasses.replace(none, x0=np.zeros_like(none.x0))
        pairs = mc_weak_error(none, [4, 8], n_paths=200, seed=6)
        assert pairs == mc_weak_error(zero, [4, 8], n_paths=200, seed=6)
        assert pairs[:1] == mc_weak_error(zero, [4], n_paths=200, seed=6)

    def test_fem_setup_refused(self):
        with pytest.raises(ValueError, match="spectral-Galerkin"):
            mc_weak_error(dataclasses.replace(self.BASE, fem=assemble_fem(4)), [4], n_paths=10)

    def test_setup_with_time_grid_refused(self):
        # the step counts are the second argument; a problem that carries one is not a second call shape
        with pytest.raises(ValueError, match=r"carries no time grid \(its steps go in n_cells\), got setup.n_cells=4"):
            mc_weak_error(dataclasses.replace(self.BASE, n_cells=4), [4], n_paths=10)

    def test_empty_ladder_refused(self):
        with pytest.raises(ValueError, match=r"n_cells must be a nonempty sequence of whole numbers >= 1, got \[\]"):
            mc_weak_error(self.BASE, [], n_paths=10)

    @pytest.mark.parametrize("bad", [8, [8, 2.5], [0]], ids=["bare-count", "fraction", "zero"])
    def test_step_counts_must_be_counts(self, bad):
        assert mc_weak_error(self.BASE, np.array([8, 4]), n_paths=10) == mc_weak_error(self.BASE, (8, 4), n_paths=10)
        with pytest.raises(ValueError, match=re.escape(f"n_cells must be a nonempty sequence of whole numbers >= 1, got {bad!r}")):
            mc_weak_error(self.BASE, bad, n_paths=10)

    def test_problem_must_be_one_setup(self):
        # the former call shape, a list of per-level setups, used to end in an AttributeError
        with pytest.raises(ValueError, match="setup must be one Setup, the problem, got a list"):
            mc_weak_error([self.BASE], [8], n_paths=10)

    @pytest.mark.parametrize("mode", [0, -1, 1.5, 2.0, "2", True])
    def test_cylindrical_mode_must_be_a_count(self, mode):
        # mode 0 used to read cos of the last coordinate, -1 the second-to-last, 1.5 was accepted
        assert CylindricalFunctional(mode=np.int64(2))(np.arange(3.0)) == np.cos(1.0)
        with pytest.raises(ValueError, match=r"CylindricalFunctional mode must be a whole number >= 1, got"):
            CylindricalFunctional(mode=mode)

    def test_cylindrical_mode_past_modes_refused(self):
        # K = 8 modes: mode 9 used to end in an IndexError
        assert mc_weak_error(self.BASE, [4], g=CylindricalFunctional(mode=8), n_paths=10)[0][1] > 0.0
        with pytest.raises(ValueError, match=r"CylindricalFunctional mode 9 exceeds the K = 8 modes"):
            mc_weak_error(self.BASE, [4], g=CylindricalFunctional(mode=9), n_paths=10)

    @pytest.mark.parametrize(
        "intensity, message",
        [(1e30, r": the Poisson mean 1e\+30 is past the sampler's"), (1e13, r" expects 8e\+13 jumps; one draw holds at most")],
        ids=["past-poisson-range", "past-memory-cap"],
    )
    def test_intensity_the_sampler_cannot_draw_refused(self, intensity, message):
        # 1e30 used to end in numpy's "lam value too large", 1e13 in an _ArrayMemoryError
        setup = dataclasses.replace(self.BASE, law=LevyLaw("compound_poisson", intensity=intensity))
        assert errors._mc_block_paths(setup) == 1  # one path of K = 8 coordinates per block
        with pytest.raises(ValueError, match=re.escape(f"jump intensity {intensity:g} over T = 1 on 8 coordinates") + message):
            mc_weak_error(setup, [4], n_paths=10)


def per_path_reference(setup, N, g, n_paths, seed):
    """mc_weak_error(setup, [N]) one path at a time: each path of a block is
    rebuilt as a JumpPath from the block's draws; its exact value is the jump
    sum per mode, its scheme value increments_from_path against the step
    weights."""
    from levyspde.noise import JumpPath, _compound_poisson_draws, increments_from_path, stream

    lam = setup.spec.eigenvalues
    K = setup.spec.mode_count
    sq = np.sqrt(setup.q())
    fam = discrete_family(setup.kind, lam, setup.T / N, N)
    et = observed_steps(setup.kind, lam, fam.steps[:, :0:-1])
    x0_e = errors._exact_terminal_first(setup)
    x0_d = errors._terminal_first(setup.kind, lam, fam.steps[:, -1], setup.x0)
    grid = np.linspace(0.0, setup.T, N + 1)
    block = errors._mc_block_paths(setup)
    disc, exact = [], []
    for b, lo in enumerate(range(0, n_paths, block)):
        P = min(block, n_paths - lo)
        coord, t, s = _compound_poisson_draws(setup.law, setup.T, P * K, stream(seed, b))
        for p in range(P):
            times, sizes = [], []
            for k in range(K):
                sel = coord == p * K + k
                order = np.argsort(t[sel], kind="stable")
                times.append(t[sel][order])
                sizes.append(s[sel][order])
            path = JumpPath(horizon=setup.T, times=times, sizes=sizes)
            x_exact = x0_e.copy()
            for k in range(K):
                w = errors._noise_factor(setup.kind, np.full(path.times[k].size, lam[k]), setup.T - path.times[k])
                x_exact[k] += sq[k] * np.sum(w * path.sizes[k])
            exact.append(x_exact)
            disc.append(np.einsum("kn,kn->k", et, increments_from_path(path, grid)) * sq + x0_d)
    diffs = g(np.array(disc)) - g(np.array(exact))
    return diffs.mean(), diffs.std(ddof=1) / np.sqrt(n_paths)


class TestCells:
    """_cells bins unsorted times into right-closed cells with a guess and one
    correction each way; it must equal searchsorted on the level's edges."""

    @pytest.mark.parametrize("T", [1.0, 0.7, 1.3])
    @pytest.mark.parametrize("N", [1, 3, 64, 1024])
    def test_equals_searchsorted_at_and_beside_every_edge(self, N, T):
        edges = np.linspace(0.0, T, N + 1)
        inner = edges[edges < T]
        t = np.concatenate(
            [inner, np.nextafter(inner[1:], 0.0), np.nextafter(inner, np.inf), [0.0, np.nextafter(T, 0.0)]]
        )
        t = np.random.default_rng(N).permutation(t)  # unsorted, as a block's draws are
        np.testing.assert_array_equal(errors._cells(t, edges), np.searchsorted(edges[1:], t, side="left"))

    def test_guess_below_the_cell_is_corrected(self):
        # at T = 0.7, N = 4641 the guess floor(t N / T) falls one cell short of
        # times one ulp past some edges (edge 3 the first); the upward correction mends it
        T, N = 0.7, 4641
        edges = np.linspace(0.0, T, N + 1)
        t = np.nextafter(edges[:-1], np.inf)
        want = np.searchsorted(edges[1:], t, side="left")
        assert np.any((t * (N / T)).astype(np.intp) < want)
        np.testing.assert_array_equal(errors._cells(t, edges), want)

    def test_nest_stride(self):
        fine = np.linspace(0.0, 1.0, 65)
        assert [errors._nest_stride(fine, np.linspace(0.0, 1.0, n + 1)) for n in (8, 64, 24, 128)] == [8, 1, None, None]
        # a ratio-3 ladder nests at T = 1 but not at T = 0.7: linspace rounds the edges differently
        assert errors._nest_stride(np.linspace(0.0, 1.0, 28), np.linspace(0.0, 1.0, 10)) == 3
        assert errors._nest_stride(np.linspace(0.0, 0.7, 28), np.linspace(0.0, 0.7, 10)) is None


class TestBatchedMonteCarlo:
    """mc_weak_error assembles whole blocks of paths from flat jump arrays;
    it must give what a per-path assembly of the same draws gives."""

    @staticmethod
    def problem_for(name):
        T = 0.25 if name == "heat" else 1.0  # heat data would decay to nothing by T = 1
        law = LevyLaw("compound_poisson", intensity=16.0 / T)  # 16 jumps per mode: 32 paths per block at K = 16
        spec = dirichlet_spectrum(16)
        cov = CovarianceSpec(amplitude=1.0, decay=0.4)
        x0 = np.array([1.0, -0.5, 0.25])
        if name == "heat":
            return Setup(heat_kind(), spec, cov, law, T, x0=x0)
        if name == "wave":
            return Setup(wave_kind("crank_nicolson"), spec, cov, law, T, x0=np.stack([x0, -x0]))
        return Setup(volterra_kind(1.5), spec, cov, law, T, x0=x0)

    @pytest.mark.parametrize("g", [errors.quadratic_functional, CylindricalFunctional(mode=2)], ids=["quadratic", "cos"])
    @pytest.mark.parametrize("name", ["heat", "wave", "volterra"])
    def test_equals_per_path_reference(self, name, g):
        problem = self.problem_for(name)
        n_paths = 75
        block = errors._mc_block_paths(problem)
        assert block < n_paths and n_paths % block  # two full blocks and a short one
        [(est, se)] = mc_weak_error(problem, [8], g=g, n_paths=n_paths, seed=11)
        ref_est, ref_se = per_path_reference(problem, 8, g, n_paths, seed=11)
        assert est == pytest.approx(ref_est, rel=1e-12)
        assert se == pytest.approx(ref_se, rel=1e-12)

    @pytest.mark.parametrize("name", ["heat", "wave", "volterra"])
    def test_nested_coarse_level_equals_per_path_reference(self, name):
        # the coarse level reads its cells off the fine level's (cell // 2); at
        # T = 0.7 the edges still nest bit for bit
        problem = dataclasses.replace(self.problem_for(name), T=0.7)
        assert errors._nest_stride(np.linspace(0.0, 0.7, 17), np.linspace(0.0, 0.7, 9)) == 2
        n_paths = 75
        assert errors._mc_block_paths(problem) < n_paths  # several blocks
        _, (est, se) = mc_weak_error(problem, [16, 8], n_paths=n_paths, seed=5)
        ref_est, ref_se = per_path_reference(problem, 8, errors.quadratic_functional, n_paths, seed=5)
        assert est == pytest.approx(ref_est, rel=1e-12)
        assert se == pytest.approx(ref_se, rel=1e-12)
        assert [(est, se)] == mc_weak_error(problem, [8], n_paths=n_paths, seed=5)

    @pytest.mark.parametrize(
        "kind, K, decay, T",
        [(heat_kind(), 24, 0.55, 0.25), (volterra_kind(1.5), 12, 0.4, 1.0)],
        ids=["heat", "volterra"],
    )
    def test_nonzero_x0_matches_deterministic(self, kind, K, decay, T):
        x0 = np.array([1.0, -0.5, 0.25])
        cov = CovarianceSpec(amplitude=1.0, decay=decay)
        problem = Setup(kind, dirichlet_spectrum(K), cov, CP, T, x0=x0)
        det = error_report(dataclasses.replace(problem, n_cells=8)).weak_error_quadratic
        [(est, se)] = mc_weak_error(problem, [8], n_paths=20000, seed=7)
        assert abs(est - det) <= 3.0 * se
        # the data term moves the weak error by many standard errors
        no_x0 = error_report(Setup(kind, dirichlet_spectrum(K), cov, CP, T, n_cells=8)).weak_error_quadratic
        assert abs(det - no_x0) > 5.0 * se

    def test_functionals_map_rows(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 7))
        quad, cos = errors.quadratic_functional(x), CylindricalFunctional(mode=3)(x)
        assert quad.shape == cos.shape == (5,)
        np.testing.assert_allclose(quad, [np.dot(r, r) for r in x], rtol=1e-15)
        np.testing.assert_array_equal(cos, np.cos(x[:, 2]))
        assert errors.quadratic_functional(x[None, :, :]).shape == (1, 5)


class TestSetupValidation:
    def test_covariance_required(self):
        with pytest.raises(ValueError, match="cov must be a CovarianceSpec, got None"):
            Setup(heat_kind(), dirichlet_spectrum(4), None, CP, 1.0, n_cells=4)

    @pytest.mark.parametrize("law", [None, "compound_poisson", FLAT], ids=["none", "string", "covariance"])
    def test_law_required(self, law):
        # None used to be accepted and to fail only in mc_weak_error, as an AttributeError on law.intensity
        with pytest.raises(ValueError, match=re.escape(f"law must be a LevyLaw, got {law!r}")):
            Setup(heat_kind(), dirichlet_spectrum(4), FLAT, law, 1.0)

    def test_wave_x0_needs_two_components(self):
        # a (1, K) x0 would fail later with an IndexError, a third row would be dropped silently
        for shape in [(4,), (1, 4), (3, 4)]:
            with pytest.raises(ValueError, match=r"shape \(2, K\).*got %s" % re.escape(str(shape))):
                Setup(wave_kind(), dirichlet_spectrum(4), FLAT, CP, 1.0, n_cells=4, x0=np.ones(shape))

    def test_cell_count_must_be_whole(self):
        # n_cells = 8.5 used to return a report on interpolated edges
        assert Setup(heat_kind(), dirichlet_spectrum(4), FLAT, CP, 1.0, n_cells=np.int64(8)).n_cells == 8
        for bad in (8.5, 8.0, "8", 0, -2, True):
            with pytest.raises(ValueError, match=r"n_cells must be a whole number >= 1, got"):
                Setup(heat_kind(), dirichlet_spectrum(4), FLAT, CP, 1.0, n_cells=bad)

    @pytest.mark.parametrize("T", [float("inf"), float("nan"), 0.0, -1.0])
    def test_horizon_finite_and_positive(self, T):
        # inf used to return an all-NaN report
        with pytest.raises(ValueError, match="horizon T must be finite and > 0"):
            Setup(heat_kind(), dirichlet_spectrum(4), FLAT, CP, T, n_cells=4)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_x0_must_be_finite(self, bad):
        # NaN used to give a NaN report
        with pytest.raises(ValueError, match="x0 must be finite"):
            Setup(heat_kind(), dirichlet_spectrum(4), FLAT, CP, 1.0, n_cells=4, x0=np.array([1.0, bad]))
        with pytest.raises(ValueError, match="x0 must be finite"):
            Setup(wave_kind(), dirichlet_spectrum(4), FLAT, CP, 1.0, n_cells=4, x0=np.array([[1.0], [bad]]))

    def test_fem_outrunning_spectrum_refused(self):
        with pytest.raises(ValueError, match="raise the spectral truncation"):
            Setup(heat_kind(), dirichlet_spectrum(4), FLAT, CP, 1.0, fem=assemble_fem(8))

    def test_wave_x0_terminal_values(self):
        # first component of the exact group action on (a, b)
        spec = dirichlet_spectrum(2)
        x0 = np.array([[1.0, 0.0], [0.5, 0.0]])
        setup = Setup(wave_kind(), spec, FLAT, CP, 0.75, n_cells=4, x0=x0)
        lam = spec.eigenvalues[0]
        rt = np.sqrt(lam)
        exact_first = np.cos(0.75 * rt) * 1.0 + np.sin(0.75 * rt) / rt * 0.5
        from levyspde.errors import _exact_terminal_first

        got = _exact_terminal_first(setup)
        assert got[0] == pytest.approx(exact_first, rel=1e-14)
        assert got[1] == 0.0


class TestExactSide:
    LADDER = (16, 32, 64, 128, 256)
    SCHEMES = [heat_kind(), wave_kind("crank_nicolson"), wave_kind("backward_euler")]

    @pytest.mark.parametrize("kind", SCHEMES[:2], ids=["heat", "wave"])
    def test_exact_factor_takes_one_square_root(self, kind, monkeypatch):
        # the wave's exact factor used to take sqrt(lam) twice, once for the unread
        # carrier coefficient c = i/sqrt(lam) and once more to read the observable
        calls = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def sqrt(self, x):
                calls.append(np.size(x))
                return np.sqrt(x)

        lam, s = dirichlet_spectrum(64).eigenvalues, np.linspace(0.0, 1.0, 9)[:, None]
        want = np.exp(-lam * s) if kind.name == "heat" else np.sin(np.sqrt(lam) * s) / np.sqrt(lam)
        monkeypatch.setattr(errors, "np", CountingNumpy())
        got = errors._noise_factor(kind, lam, s)
        assert calls == ([] if kind.name == "heat" else [lam.size])
        assert np.allclose(got, want, rtol=1e-13, atol=1e-300)

    def test_wave_factor_is_the_carrier_observable(self):
        # sin(sqrt(lam) s) / sqrt(lam) against Im e^(p s) / Im p, p = -i sqrt(lam),
        # the complex carrier it replaces, across many oscillations
        lam = dirichlet_spectrum(256).eigenvalues
        s = np.random.default_rng(5).uniform(0.0, 1.0, (64, 1))
        p = -1j * np.sqrt(lam)
        want = np.exp(p * s).imag / p.imag
        got = errors._noise_factor(wave_kind("crank_nicolson"), lam, s)
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("kind", SCHEMES, ids=["heat", "wave", "wave-be"])
    def test_closed_forms_match_cell_quadrature(self, kind):
        # the kernel's dd, de and ee rows against step tables and cellwise Gauss quadrature
        from cell_oracle import cell_integrals

        lam = dirichlet_spectrum(256).eigenvalues
        for n in self.LADDER:
            dd, de, ee, _ = _level_rows(kind, lam, np.arange(1, lam.size + 1), lam, 1.0, n)
            p1, p2 = cell_integrals(kind, lam, np.linspace(0.0, 1.0, n + 1))
            et = observed_steps(kind, lam, discrete_family(kind, lam, 1.0 / n, n).steps[:, 1:])
            scale = 1e-10 * p2
            assert np.all(np.abs(dd - np.einsum("kn,kn->k", et, et) / n) <= scale), n
            assert np.all(np.abs(de - np.einsum("kn,kn->k", et, p1)) <= scale), n
            assert np.all(np.abs(ee - p2) <= scale), n

    @pytest.mark.parametrize("n", [512, 1024])
    @pytest.mark.parametrize("kind", SCHEMES, ids=["heat", "wave", "wave-be"])
    def test_closed_forms_against_high_precision_sums(self, kind, n):
        # direct 40-digit sums over the cells; every row within 1e-14 of ee
        import mpmath as mp

        modes = [1, 2, 16, 256]
        lam = (np.array(modes) * np.pi) ** 2
        dd, de, ee, _ = _level_rows(kind, lam, np.arange(1, lam.size + 1), lam, 1.0, n)
        with mp.workdps(40):
            dt, i = mp.mpf(1) / n, mp.mpc(0, 1)
            for j, k in enumerate(modes):
                rt = k * mp.pi
                t = [m * dt for m in range(n + 1)]
                if kind.name == "heat":
                    et = [(1 + dt * rt**2) ** -m for m in range(1, n + 1)]
                    cells = [(mp.exp(-(rt**2) * a) - mp.exp(-(rt**2) * b)) / rt**2 for a, b in zip(t, t[1:])]
                    ref_ee = -mp.expm1(-2 * rt**2) / (2 * rt**2)
                else:
                    y = rt * dt
                    z = (2 - i * y) / (2 + i * y) if kind.scheme == "crank_nicolson" else 1 / (1 + i * y)
                    et = [-(z**m).imag / rt for m in range(1, n + 1)]
                    cells = [(mp.cos(rt * a) - mp.cos(rt * b)) / rt**2 for a, b in zip(t, t[1:])]
                    ref_ee = 1 / (2 * rt**2) - mp.sin(2 * rt) / (4 * rt**3)
                ref_dd = dt * mp.fsum(e * e for e in et)
                ref_de = mp.fsum(e * c for e, c in zip(et, cells))
                for got, ref in ((dd[j], ref_dd), (de[j], ref_de), (ee[j], ref_ee)):
                    assert abs(got - float(ref)) <= 1e-14 * float(ref_ee), (k, got, ref)

    def test_volterra_table_differences_at_level_edges(self, monkeypatch):
        # de pairs the CQ table with diff(t E_{rho,2}(-lam t^rho)) at the level's
        # edges, ee is read off the G_rho table; both against cellwise quadrature.
        # z_T is the CQ table's last column, from the one solve
        from cell_oracle import cell_integrals

        kind = volterra_kind(1.5)
        lam = dirichlet_spectrum(8).eigenvalues
        j = np.arange(1, lam.size + 1)  # the identity fold of the spectral space
        for n in (12, 16):
            steps = discrete_family(kind, lam, 1.0 / n, n).steps
            _, de, ee, z_T = _level_rows(kind, lam, j, lam, 1.0, n)
            p1, p2 = cell_integrals(kind, lam, np.linspace(0.0, 1.0, n + 1))
            assert np.all(np.abs(de - np.einsum("kn,kn->k", steps[:, 1:], p1)) <= 1e-12 * p2)
            assert np.all(np.abs(ee - p2) <= 1e-12 * p2)
            assert np.array_equal(z_T, steps[:, -1])
            monkeypatch.setattr(errors, "_ML_BLOCK", 3 * (n + 1))  # blocks of 3 modes, the last one short
            assert np.array_equal(_level_rows(kind, lam, j, lam, 1.0, n)[1], de)
            monkeypatch.undo()

    # (kind, step count, mesh): Volterra scheme and time-exact levels on either
    # space, and heat and wave time-exact P1 levels, which take the same blocks
    BLOCK_CASES = {
        "scheme-spectral": (volterra_kind(1.5), 16, None),
        "scheme-p1": (volterra_kind(1.5), 16, 8),
        "time-exact-spectral": (volterra_kind(1.5), None, None),
        "time-exact-p1": (volterra_kind(1.5), None, 8),
        "heat-time-exact-p1": (heat_kind(), None, 8),
        "wave-time-exact-p1": (wave_kind("crank_nicolson"), None, 8),
    }

    @pytest.mark.parametrize("kind, n, fem", BLOCK_CASES.values(), ids=BLOCK_CASES.keys())
    def test_volterra_rows_do_not_depend_on_the_block_size(self, kind, n, fem, monkeypatch):
        # both level types work in blocks of modes: blocks of 1 mode, of 3 modes
        # (the last of the 16 short) and the whole table give the same rows bit
        # for bit, for the level alone, for the level twice in one call (the
        # second reads the exact side the call built) and, past the table cap,
        # for a scheme level evaluating its own edges.  A scheme level has its
        # N + 1 edges per mode, a time-exact level the Q points of its cut
        # lattice.  Heat and wave terms have no cut (Q = 0): their modes are one
        # block, and the same _ML_BLOCK values put the level pair in groups of
        # one level (a broadcast of both at 2K)
        setup = Setup(kind, dirichlet_spectrum(16), FLAT, CP, 1.0, n_cells=n, fem=fem and assemble_fem(fem))
        lam, (lam_d, j, _) = setup.spec.eigenvalues, errors._partner_map(setup)
        lattices, real = [], errors._terms

        def recording(kind, lam, lattice, T):
            lattices.append(0 if lattice is None else lattice[0].size)
            return real(kind, lam, lattice, T)

        monkeypatch.setattr(errors, "_terms", recording)
        builds = [_level_rows(kind, lam_d, j, lam, 1.0, n)]
        per_mode = n + 1 if n is not None else lattices[0]
        for modes in (1, 3, lam.size, 2 * lam.size):
            monkeypatch.setattr(errors, "_ML_BLOCK", modes * max(per_mode, 1))
            blocks = errors._mode_blocks(lam.size, per_mode, errors._ML_BLOCK)
            assert len(blocks) == (-(-lam.size // modes) if per_mode else 1)
            builds += [_level_rows(kind, lam_d, j, lam, 1.0, n), *errors._rows(kind, [(lam_d, j, n)] * 2, lam, 1.0)]
            with monkeypatch.context() as m:
                m.setattr(errors, "_PRIM_TABLE_MAX", 0)
                builds.append(_level_rows(kind, lam_d, j, lam, 1.0, n))
        for rows in builds[1:]:
            for got, want in zip(rows, builds[0]):
                assert (got is None and want is None) or np.array_equal(got, want)

    ROW_KINDS = [heat_kind(), wave_kind("crank_nicolson"), volterra_kind(1.5)]

    @pytest.mark.parametrize("n", [16, None], ids=["scheme", "time-exact"])
    @pytest.mark.parametrize("kind", ROW_KINDS, ids=["heat", "wave", "volterra"])
    def test_rows_at_eigenvalues_no_setup_carries(self, kind, n):
        # rows are a function of eigenvalue arrays: modes K+1..2K of a K = 8
        # spectrum and a log-spaced set, against cellwise quadrature
        from cell_oracle import cell_integrals

        bound = 1e-12 if kind.name == "volterra" else 1e-10
        for lam in ((np.arange(9.0, 17.0) * np.pi) ** 2, np.logspace(0.5, 4.5, 9)):
            dd, de, ee, z_T = _level_rows(kind, lam, np.arange(1, lam.size + 1), lam, 1.0, n)
            p1, p2 = cell_integrals(kind, lam, np.linspace(0.0, 1.0, (n or 1) + 1))
            assert np.all(np.abs(ee - p2) <= bound * p2)
            if n is None:  # etilde is the exact factor: every row is the exact ee
                assert z_T is None
                assert np.all(np.abs(dd - p2) <= bound * p2) and np.all(np.abs(de - p2) <= bound * p2)
                continue
            steps = discrete_family(kind, lam, 1.0 / n, n).steps
            et = observed_steps(kind, lam, steps[:, 1:])
            assert np.all(np.abs(dd - np.einsum("kn,kn->k", et, et) / n) <= bound * p2)
            assert np.all(np.abs(de - np.einsum("kn,kn->k", et, p1)) <= bound * p2)
            # the CQ table's last column comes with Volterra rows; heat and wave
            # z^N comes from _terminal_factor, called only where x0 reads it
            assert (z_T is None) == (kind.name != "volterra")
            if z_T is None:
                z_T = errors._terminal_factor(kind, lam, 1.0, n)
            assert np.allclose(z_T, steps[:, -1], rtol=1e-12, atol=0.0)

    def test_rows_held_table_is_keyed_by_the_eigenvalues(self):
        # two equal-size spectra, Dirichlet modes 1..K and K+1..2K, partnered in
        # one discrete spectrum of 2K values, the same for both: each call's
        # rows equal that array's rows when the calls run in the other order,
        # bit for bit.  A table held between calls under a (kind, K, T) key once
        # read the first array's cell primitives and ee for the second, and the
        # time-exact factors and ee likewise.  The time-exact partners, modes
        # 3..2K+2, sit on both sine spectra's cut lattices
        kind, K = volterra_kind(1.5), 16
        lam_d, lam_t = dirichlet_spectrum(2 * K).eigenvalues, dirichlet_spectrum(2 * K + 2).eigenvalues[2:]
        low, high = (lam_d[:K], np.arange(1, K + 1)), (lam_d[K:], np.arange(K + 1, 2 * K + 1))
        calls = [(lam_d, low, 64), (lam_d, high, 32), (lam_t, high, None), (lam_t, low, None)]
        backward = [_level_rows(kind, part, j, lam, 1.0, n) for part, (lam, j), n in reversed(calls)][::-1]
        for (part, (lam, j), n), want in zip(calls, backward):
            got = _level_rows(kind, part, j, lam, 1.0, n)
            for g, w in zip(got, want):
                assert (g is None and w is None) or np.array_equal(g, w), n

    @pytest.mark.parametrize("mode", [1, 2, 64, 1024])
    def test_volterra_ee_against_high_precision_sums(self, mode):
        # I_ee = lam^(-1/rho) G_rho(T lam^(1/rho)) against a 40-digit sum of
        # order-30 Gauss panels on a partition built from the mode's own scales
        import mpmath as mp

        from levyspde.mittag_leffler import mittag_leffler_neg

        rho = 1.5
        lam = (mode * np.pi) ** 2
        ee = errors._volterra_ee(volterra_kind(rho), np.array([lam]), 1.0)[0]
        root = lam ** (1 / rho)
        # in u = root s: the first unit graded toward u = 0, unit cells to u = 80
        # (40 decay scales e^(-u/2)), then cells of relative width 1/4
        u = [0.0] + [2.0**-m for m in range(40, 0, -1)] + list(range(2, 81))
        while u[-1] < root:
            u.append(u[-1] * 1.25)
        s = np.array([v / root for v in u if v < root] + [1.0])
        gx, gw = np.polynomial.legendre.leggauss(30)
        half = np.diff(s)[:, None] / 2
        nodes, w = (s[:-1, None] + half * (1 + gx)).ravel(), (half * gw).ravel()
        vals = mittag_leffler_neg(rho, lam * nodes**rho)
        with mp.workdps(40):
            ref = float(mp.fsum(mp.mpf(wi) * mp.mpf(vi) ** 2 for wi, vi in zip(w, vals)))
        assert abs(ee - ref) <= 1e-11 * ref

    def test_time_exact_ee_against_g_table(self):
        # closed-form time-exact Volterra rows against the G_rho table, a Gauss
        # route on E_rho: ee for the sine modes, dd for the P1 modes, which sit
        # far below the top one, from rho = 1.25 up to rho = 1.95, where the
        # factors barely decay
        spec = dirichlet_spectrum(1024)
        lam = spec.eigenvalues
        for rho in (1.25, 1.5, 1.7, 1.9, 1.95):
            kind = volterra_kind(rho)
            setup = Setup(kind, spec, FLAT, CP, 1.0, fem=assemble_fem(64))
            lam_d, j, _ = errors._partner_map(setup)
            dd, _, ee, z_T = _level_rows(kind, lam_d, j, lam, 1.0, None)
            assert z_T is None
            g = errors._volterra_ee(kind, lam, 1.0)
            assert np.max(np.abs(ee - g) / g) <= 1e-14, rho
            g = errors._volterra_ee(kind, lam_d, 1.0)[j - 1]
            assert np.max(np.abs(dd - g) / g) <= 1e-14, rho


class TestCutRows:
    """Closed-form time-exact Volterra rows (errors._terms and _cross) against a route
    that shares none of their shortcuts: each factor E_rho(-lam t^rho) from
    the residue pair (2/rho) Re e^(p t) and a fine trapezoid sum of the cut
    integral with no pole correction, the rows by order-30 Gauss panels in t."""

    @staticmethod
    def reference_factors(rho, lam, t):
        """E_rho(-lam_k t^rho) at the times t: the trapezoid step in u = log r
        is a tenth of the poles' distance pi (rho - 1)/rho from the real axis,
        so its error e^(-20 pi) needs no correction; the lattice is offset
        from u = 0 and spans 38/rho past every nu = log(lam)/rho."""
        nu = np.log(lam) / rho
        h = 0.1 * np.pi * (rho - 1) / rho
        u = np.arange(nu.min() - 38 / rho, nu.max() + 38 / rho, h) + h / 3
        half = np.pi * (rho - 1) / 2
        w = -np.sin(2 * half) * h / (4 * np.pi * (np.sinh(rho * (u - nu[:, None]) / 2) ** 2 + np.sin(half) ** 2))
        p = lam ** (1 / rho) * np.exp(1j * np.pi / rho)
        out = np.empty((lam.size, t.size))
        for c in range(0, t.size, 64):  # 64 times at a time bounds the (lattice, times) block
            tc = t[c : c + 64]
            out[:, c : c + 64] = (2 / rho) * np.exp(p[:, None] * tc).real + w @ np.exp(-np.outer(np.exp(u), tc))
        return out

    @staticmethod
    def panels(rho, lam, T):
        """Order-30 Gauss nodes and weights on [0, T]: 20 halvings toward the
        t^rho branch point at 0 and a geometric grid (ratio 1.5) from the top
        pole's scale 1/|p|, and cells of 2 radians of its oscillation while the
        lowest mode's residue pair lives (40 of its decay scales)."""
        p_lo, p_hi = (x ** (1 / rho) * np.exp(1j * np.pi / rho) for x in (lam.min(), lam.max()))
        scale = 1.0 / abs(p_hi)
        pts = [0.0, T] + [scale * 2.0**-m for m in range(20, 0, -1)]
        pts += list(scale * 1.5 ** np.arange(0, np.log(T / scale) / np.log(1.5)))
        span = min(T, 40.0 / abs(p_lo.real))
        pts += list(np.linspace(0.0, span, int(np.ceil(span * p_hi.imag / 2.0)) + 1))
        pts = np.unique([x for x in pts if x <= T])
        gx, gw = np.polynomial.legendre.leggauss(30)
        half = np.diff(pts)[:, None] / 2
        return (pts[:-1, None] + half * (1 + gx)).ravel(), (half * gw).ravel()

    def worst_gap(self, rho, lam_d, j, lam, T=1.0):
        """max over the rows dd, de, ee of |rows - reference| / sqrt(dd ee), the
        Cauchy-Schwarz scale of de, which can cancel."""
        rows = _level_rows(volterra_kind(rho), lam_d, j, lam, T, None)[:3]
        both = np.concatenate([lam_d, lam])
        t, w = self.panels(rho, both, T)
        f = self.reference_factors(rho, both, t)
        d, x = f[: lam_d.size][j - 1], f[lam_d.size :]
        ref = ((d * d) @ w, (d * x) @ w, (x * x) @ w)
        scale = np.sqrt(ref[0] * ref[2])
        return max(float(np.max(np.abs(got - want) / scale)) for got, want in zip(rows, ref))

    def high_mode(self):
        """Sine mode 126 of K = 128 and its P1 partner on M = 128."""
        return assemble_fem(128).eigenvalues[125:126], np.array([1]), np.array([(126 * np.pi) ** 2])

    def test_high_mode_near_rho_1(self):
        # at rho = 1.01 the poles sit 0.031 from the real axis, 0.11 of the step
        assert self.worst_gap(1.01, *self.high_mode()) <= 1e-12

    @pytest.mark.parametrize("rho", [1.95, 1.99])
    def test_p1_level_near_rho_2(self, rho):
        # K = 32 sine modes on M = 16: modes 16 and 32 have no partner, 17..31 alias
        setup = Setup(volterra_kind(rho), dirichlet_spectrum(32), FLAT, CP, 1.0, fem=assemble_fem(16))
        lam_d, j, _ = errors._partner_map(setup)
        assert self.worst_gap(rho, lam_d, j, setup.spec.eigenvalues) <= 1e-12

    @staticmethod
    def pole_cut(A, p, u, T):
        """P = Re(A (e^((p - r) T) - 1) / (p - r)), r = e^u, as a complex quotient."""
        r, turn = np.exp(u), np.expm1(1j * T * p.imag)[:, None]
        grow = np.expm1(T * (p.real[:, None] - r)) * (1.0 + turn) + turn
        return (A[:, None] * grow / (p[:, None] - r)).real

    def test_uncorrected_pair_fails_near_rho_1(self, monkeypatch):
        # the same check with the residue pair's amplitude 2/rho, as without the
        # trapezoid's pole correction (the pole-cut table rebuilt from it), is
        # far off at rho = 1.01
        real = errors._terms

        def uncorrected(kind, lam, lattice, T):
            A, p, (W, _, _) = real(kind, lam, lattice, T)
            A = np.full_like(A, 2.0 / kind.rho)
            P = self.pole_cut(A, p, lattice[0], T)
            return A, p, np.stack([W, P, W @ lattice[1] + P])

        monkeypatch.setattr(errors, "_terms", uncorrected)
        assert self.worst_gap(1.01, *self.high_mode()) > 1e-6

    @pytest.mark.parametrize("rho", [1.01, 1.5, 1.95])
    def test_pole_cut_table_matches_the_complex_quotient(self, rho):
        # P = Re(A (e^((p - r) T) - 1) / (p - r)) as the complex quotient the
        # table was once built from, the oracle of the real-arithmetic table; each
        # mode's row is compared on the scale of its largest entry, since entries
        # near a sign change cancel
        kind, lam, T = volterra_kind(rho), dirichlet_spectrum(128).eigenvalues, 1.0
        lattice = errors._cut_lattice(rho, lam, T)
        A, p, cut = errors._terms(kind, lam, lattice, T)
        want = self.pole_cut(A, p, lattice[0], T)
        scale = np.max(np.abs(want), axis=1, keepdims=True)
        assert np.all(np.abs(cut[1] - want) <= 1e-14 * scale)

    def test_weights_and_pole_near_rho_2_against_mpmath(self):
        # at rho = 1.999 the weights' sin(pi(rho-1)) and the pole's cos(pi/rho)
        # are small values of angles near pi and pi/2; taken as the sines of
        # pi - pi(rho-1) and pi/2 - pi/rho they keep their digits (the angles
        # themselves put 9.1e-14 into W and 5.5e-14 into Re p)
        import mpmath as mp

        from levyspde.mittag_leffler import _CUT_STEP, _cut_span, _cut_weights

        rho, lam = 1.999, dirichlet_spectrum(128).eigenvalues[[0, 63, 127]]
        lo, hi = _cut_span(rho, lam.min(), lam.max())
        u, nu = np.arange(lo, hi + 1) * _CUT_STEP, np.log(lam) / rho
        W, p = _cut_weights(rho, u, nu[:, None]), errors._pole(volterra_kind(rho), lam)
        with mp.workdps(40):
            r, h = mp.mpf(rho), mp.mpf(_CUT_STEP)
            half = mp.pi * (r - 1) / 2
            for k in range(lam.size):
                den = [4 * mp.pi * (mp.sinh(r * (mp.mpf(v) - mp.mpf(nu[k])) / 2) ** 2 + mp.sin(half) ** 2) for v in u]
                want = np.array([float(-mp.sin(2 * half) * h / d) for d in den])
                assert np.max(np.abs(W[k] - want) / np.abs(want)) <= 1e-14
                want = float(mp.mpf(lam[k]) ** (1 / r) * mp.cos(mp.pi / r))
                assert abs(p[k].real - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("side", ["lam", "lam_d"])
    def test_eigenvalues_must_be_finite_and_positive(self, bad, side):
        # the cut lattice is built from log(lam): 0 or a negative value would
        # give NaN rows, so the level is refused before anything is evaluated
        lam = dirichlet_spectrum(4).eigenvalues.copy()
        lam_d = lam.copy()
        (lam if side == "lam" else lam_d)[1] = bad
        with pytest.raises(ValueError, match="finite eigenvalues > 0"):
            _level_rows(volterra_kind(1.5), lam_d, np.arange(1, 5), lam, 1.0, None)

    @pytest.mark.parametrize("scales, refused", [(-7.0, True), (-3.0, False), (3.0, False), (7.0, True)])
    def test_partner_eigenvalues_outside_the_lattice_refused(self, scales, refused):
        # the lattice spans _DEAD_SPAN decay scales past the sine eigenvalues;
        # a partner eigenvalue e^7 past them keeps fewer than _DEAD_SPAN - 4 and
        # is refused, one e^3 past them is taken on the lattice
        lam = dirichlet_spectrum(4).eigenvalues
        lam_d = lam.copy()
        lam_d[0 if scales < 0 else -1] *= np.exp(scales)
        level = (volterra_kind(1.5), lam_d, np.arange(1, 5), lam, 1.0, None)
        if refused:
            with pytest.raises(ValueError, match=r"finite eigenvalues > 0 in \[.*\], got"):
                _level_rows(*level)
        else:
            assert all(np.all(np.isfinite(r)) for r in _level_rows(*level)[:3])


class TestFemAssembly:
    """error_report weighs one row per sine mode through the alias fold; it
    must match a dense oracle that pairs every discrete mode with every exact
    one through an eigensolver's coupling."""

    @staticmethod
    def oracle(setup):
        """(weak, strong^2) from step tables (the CQ march for Volterra) and
        cellwise quadrature on the level's cells (cell_oracle), or from Gauss
        quadrature on global nodes for a time-exact level, summed over every
        (j, k) pair of the dense coupling C: eigh of the P1 pencil against the
        cross-Gram."""
        from cell_oracle import cell_integrals
        from p1_oracle import dense_coupling

        from levyspde.propagators import cq_mode_solve

        kind, lam, q, T, N = setup.kind, setup.spec.eigenvalues, setup.q(), setup.T, setup.n_cells
        lam_d, C = dense_coupling(setup.fem.cell_count, setup.spec.mode_count)
        m = C**2 * q[None, :]
        if N is None:
            nodes, w = errors._global_nodes(kind, max(lam[-1], lam_d[-1]), T)
            a = errors._noise_factor(kind, lam_d[:, None], nodes[None, :])
            b = errors._noise_factor(kind, lam[:, None], nodes[None, :])
            dd, ee = (a * a) @ w, (b * b) @ w
            de = np.array([[np.sum(w * a[j] * b[k]) for k in range(lam.size)] for j in range(lam_d.size)])
            z_T = errors._terminal_factor(kind, lam_d, T)
        else:
            if kind.name == "volterra":
                march = [cq_mode_solve(lj, kind.rho, T / N, N) for lj in lam_d]
                steps = np.column_stack([np.ones(lam_d.size), np.array(march)])
            else:
                steps = discrete_family(kind, lam_d, T / N, N).steps
            et = observed_steps(kind, lam_d, steps[:, 1:])
            p1, ee = cell_integrals(kind, lam, np.linspace(0.0, T, N + 1))
            dd = (T / N) * np.array([et[j] @ et[j] for j in range(lam_d.size)])
            de = et @ p1.T
            z_T = steps[:, -1]
        i_dd, i_de, i_ee = float(m.sum(axis=1) @ dd), float(np.sum(m * de)), float(q @ ee)
        a_d = errors._terminal_first(kind, lam_d, z_T, setup.x0 @ C.T)
        a_e = errors._exact_terminal_first(setup)
        x0_diff = a_d @ a_d - 2.0 * a_d @ (C @ a_e) + a_e @ a_e
        return (a_d @ a_d - a_e @ a_e) + i_dd - i_ee, x0_diff + i_dd - 2.0 * i_de + i_ee, i_ee

    @pytest.mark.parametrize(
        "kind, n_cells",
        [
            (heat_kind(), 16),
            (wave_kind("crank_nicolson"), 16),
            (volterra_kind(1.5), 16),
            (heat_kind(), None),
            (wave_kind("crank_nicolson"), None),
            (volterra_kind(1.5), None),
        ],
        ids=["heat", "wave", "volterra", "heat-time-exact", "wave-time-exact", "volterra-time-exact"],
    )
    def test_error_report_against_dense_oracle(self, kind, n_cells, monkeypatch):
        # modes 12 and 20 alias to j = -4 and j = 4 (mod 16) on M = 8, so the fold's sign is seen
        x0 = np.zeros(24)
        x0[[0, 1, 2, 11, 19]] = [1.0, -0.5, 0.25, 0.3, -0.2]
        if kind.name == "wave":
            x0 = np.stack([x0, 0.5 * np.roll(x0, 1)])
        cov = CovarianceSpec(amplitude=1.0, decay=0.4)
        setup = Setup(kind, dirichlet_spectrum(24), cov, CP, 1.0, n_cells=n_cells, fem=assemble_fem(8), x0=x0)
        reports = [error_report(setup)]
        if kind.name == "volterra" and n_cells is None:
            # closed-form time-exact rows in one block of all 24 sine modes and in
            # blocks of 5, the last one short.  Every row reduces on its own, so
            # the lattice, the sine modes' cut tables, the rows and the report are
            # the one-block build's bit for bit
            lam, (lam_d, j, _) = setup.spec.eigenvalues, errors._partner_map(setup)
            sine_sides, real = [], errors._terms

            def recording(kind, lam_k, lattice, T):
                terms = real(kind, lam_k, lattice, T)
                if lam_k is lam:
                    sine_sides.append((lattice[0], terms[2]))
                return terms

            monkeypatch.setattr(errors, "_terms", recording)
            error_report(setup)
            Q = sine_sides[0][0].size
            builds = []
            for block in (24 * Q, 5 * Q):
                monkeypatch.setattr(errors, "_ML_BLOCK", block)
                reports.append(error_report(setup))
                builds.append((*sine_sides[-1], *_level_rows(kind, lam_d, j, lam, 1.0, None)[:3]))
            whole, blocked = builds
            assert len(sine_sides) == 5 and blocked[1] is not whole[1]
            assert all(np.array_equal(b, w) for b, w in zip(blocked, whole))
            assert reports[-1] == reports[-2]
        weak, strong2, i_ee = self.oracle(setup)
        for rep in reports:
            assert abs(rep.weak_error_quadratic - weak) <= 1e-10 * i_ee
            assert abs(rep.strong_error**2 - strong2) <= 1e-10 * i_ee
            assert abs(rep.representation_value - weak) <= 1e-10 * i_ee

    @pytest.mark.parametrize("kind, K", [(heat_kind(), 1024), (wave_kind("crank_nicolson"), 512)], ids=["heat", "wave"])
    def test_fine_mesh_weak_error_against_high_precision_fold(self, kind, K):
        """At M = 128 the weak error of a time-exact spatial level (the spatial
        presets' finest mesh, decay 0.3) within 3e-13 I_ee of a 40-digit sum of
        the fold: I_dd - I_ee = sum_k q_k (c_k^2 dd(lam_j(k)) - ee(lam_k))."""
        import mpmath as mp

        M, decay = 128, 0.3
        setup = Setup(kind, dirichlet_spectrum(K), CovarianceSpec(1.0, decay), CP, 1.0, fem=assemble_fem(M))
        with mp.workdps(40):

            def row(lam):  # int_0^1 e(s)^2 ds of the exact factor at lam
                if kind.name == "heat":
                    return -mp.expm1(-2 * lam) / (2 * lam)
                rt = mp.sqrt(lam)
                return (1 - mp.sin(2 * rt) / (2 * rt)) / (2 * lam)

            weak = i_ee = mp.mpf(0)
            for k in range(1, K + 1):
                lam, q = (k * mp.pi) ** 2, (k * mp.pi) ** (-2 * decay)
                ee = q * row(lam)
                i_ee += ee
                r = k % (2 * M)
                if r in (0, M):
                    weak -= ee
                    continue
                cos = mp.cos(mp.pi * r / M)
                c2 = 6 / (2 + cos) * 2 * (1 - cos) ** 2 * M**4 / (k * mp.pi) ** 4
                weak += q * c2 * row(6 * M**2 * (1 - cos) / (2 + cos)) - ee
        got = error_report(setup).weak_error_quadratic
        assert abs(got - float(weak)) <= 3e-13 * float(i_ee)
