import math
from fractions import Fraction

import hypothesis
import mpmath as mp
import numpy as np
import pytest
from hypothesis import strategies as st

from levyspde.mittag_leffler import mittag_leffler_neg
from levyspde.propagators import cq_mode_solve


def series_oracle(rho: float, x: float, beta: int = 1) -> float:
    """Defining power series sum_j (-x)^j / Gamma(rho j + beta) at adaptive
    precision (independent of the package paths).

    rho is taken as the fraction p/q of its decimal form, so rho j + beta = a/q
    with a = p j + beta q.  Gamma(a/q) for j >= q is Gamma((a - p q)/q), q terms
    back, times the exact rising product a - p q, a - p q + q, ..., a - q over
    q^p.  The first q terms take Gamma(a/q + m) / (a (a + q) ... (a + (m-1) q) / q^m)
    with m = need + 100, large enough that mp.gamma uses its Stirling series
    and not the Taylor route, whose setup costs seconds at each new precision.
    (-x)^j is a running product.
    """
    if x == 0.0:
        return 1.0
    need = int(x ** (1.0 / rho) * 0.4343) + 60
    frac = Fraction(repr(rho))
    p, q = frac.numerator, frac.denominator
    m = need + 100
    with mp.workdps(need):
        s = mp.mpf(0)
        mx = -mp.mpf(x)
        q_to_p = mp.mpf(q) ** p
        q_to_m = mp.mpf(q) ** m
        gammas = []  # Gamma(rho j + 1)
        power = mp.mpf(1)  # (-x)^j
        tol = mp.mpf(10) ** (-need + 10)
        j = 0
        while True:
            a = p * j + beta * q
            if j < q:
                gam = mp.gamma(mp.mpf(a + m * q) / q) * q_to_m / math.prod(range(a, a + m * q, q))
            else:
                gam = gammas[j - q] * math.prod(range(a - p * q, a, q)) / q_to_p
            gammas.append(gam)
            t = power / gam
            s += t
            power *= mx
            j += 1
            if j > 10 and abs(t) < tol:
                break
        return float(s)


def test_zero_argument_is_one():
    for rho in (1.0, 1.2, 1.5, 1.8, 2.0):
        assert mittag_leffler_neg(rho, 0.0) == 1.0


def test_rho_one_is_exponential():
    x = np.linspace(0.0, 50.0, 201)
    got = mittag_leffler_neg(1.0, x)
    assert np.abs(got - np.exp(-x)).max() <= 1e-10


def test_rho_two_is_cosine():
    x = np.linspace(0.0, 50.0, 201)
    got = mittag_leffler_neg(2.0, x)
    assert np.abs(got - np.cos(np.sqrt(x))).max() <= 1e-8


@pytest.mark.parametrize("rho", [1.01, 1.05, 1.1, 1.3, 1.5, 1.7, 1.9, 1.95])
def test_interior_against_high_precision_series(rho):
    hi = 60.0**rho
    xs = np.concatenate(
        [np.linspace(0.0, 4.9, 6), np.geomspace(5.1, hi * 0.999, 10), [hi * 1.001, hi * 4, hi * 40]]
    )
    got = mittag_leffler_neg(rho, xs)
    for x, g in zip(xs, got):
        assert abs(g - series_oracle(rho, float(x))) <= 1e-11


def test_far_asymptotic_leading_term():
    # E_rho(-x) ~ x^-1 / Gamma(1 - rho) for huge x, far beyond oracle reach
    from scipy.special import gamma

    for rho in (1.25, 1.5, 1.75):
        x = 1e9
        lead = 1.0 / (x * gamma(1.0 - rho))
        assert mittag_leffler_neg(rho, x) == pytest.approx(lead, rel=1e-4)


def test_fine_cq_oracle_agreement():
    # homogeneous one-mode march at dt = 1e-5 is an independent route to the kernel
    N = 100000
    sol = cq_mode_solve(1.0, 1.5, 1.0 / N, N)
    assert abs(sol[-1] - mittag_leffler_neg(1.5, 1.0)) <= 1e-6


def test_branch_agreement_at_switch_points():
    # evaluate adjacent branches at identical arguments
    from levyspde.mittag_leffler import _ml_asymptotic, _ml_bridge, _ml_series

    for rho in (1.1, 1.5, 1.9):
        for beta in (1, 2):
            x = np.array([5.0])
            assert abs(_ml_series(rho, x, beta)[0] - _ml_bridge(rho, x, beta)[0]) <= 1e-11
            x = np.array([60.0**rho])
            assert abs(_ml_bridge(rho, x, beta)[0] - _ml_asymptotic(rho, x, beta)[0]) <= 1e-11


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("rho", [1.1, 1.3, 1.5, 1.7, 1.9])
def test_residue_pair_skipped_past_its_cutoff(rho, beta):
    # past the cutoff the asymptotic branch leaves the residue pair out; at, just
    # below and just above it, at the branch start and beyond, the branch's value
    # equals pair + series to the bit, and every value (the bridge's, where the
    # cutoff is the branch start) the high-precision series to 1e-13 relative
    from levyspde.mittag_leffler import _asymptotic_coeff, _horner, _residue_pair

    coeff, cutoff = _asymptotic_coeff(rho, beta)
    start = 60.0**rho
    assert start <= cutoff < math.inf
    x = np.array([start * (1 + 1e-9), math.sqrt(start * cutoff), cutoff * (1 - 2**-40), cutoff, cutoff * (1 + 2**-40), 2 * cutoff])
    got = mittag_leffler_neg(rho, x, beta)
    asym = x > start
    assert np.array_equal(got[asym], _residue_pair(rho, x[asym], beta) + _horner(coeff, 1.0 / x[asym]))
    for xi, g in zip(x, got):
        ref = series_oracle(rho, float(xi), beta)
        assert abs(g - ref) <= 1e-13 * abs(ref), xi


def test_residue_pair_cutoff_grows_toward_rho_two():
    # the pair decays like exp(x^(1/rho) cos(pi/rho)), slower as rho -> 2, where
    # it is all of cos(sqrt(x)); up to rho = 1.1 it never matters on the branch
    from levyspde.mittag_leffler import _asymptotic_coeff

    for beta in (1, 2):
        cutoffs = [_asymptotic_coeff(rho, beta)[1] for rho in (1.01, 1.1, 1.3, 1.5, 1.7, 1.9, 1.99)]
        assert cutoffs[:2] == [60.0**1.01, 60.0**1.1]
        assert all(a < b for a, b in zip(cutoffs[1:], cutoffs[2:]))


def test_bridge_basis_is_numpys_bit_for_bit():
    # the library builds the Chebyshev points and matrix itself, so that it
    # never imports numpy.polynomial
    from levyspde.mittag_leffler import _BRIDGE_DEGREE, _chebyshev_basis

    t, vander = _chebyshev_basis()
    cheb = np.polynomial.chebyshev
    assert t.tobytes() == cheb.chebpts1(_BRIDGE_DEGREE + 1).tobytes()
    assert vander.tobytes() == cheb.chebvander(t, _BRIDGE_DEGREE).tobytes()


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("rho", [1.01, 1.1, 1.5, 1.9, 1.99])
def test_bridge_table_against_trapezoid(rho, beta):
    # the Chebyshev table of the branch-cut integral against the cut lattice's
    # pole-corrected trapezoid that builds it, on seeded random x over the
    # whole bridge and its ends
    from levyspde.mittag_leffler import _bridge_cut, _lattice_cut

    hi = 60.0**rho
    rng = np.random.default_rng(11)
    xs = np.concatenate([[5.0, hi], rng.uniform(5.0, hi, 1000), np.exp(rng.uniform(np.log(5.0), np.log(hi), 1000))])
    xs = np.minimum(xs, hi)
    got = _bridge_cut(rho, xs, beta)
    want = _lattice_cut(rho, xs, beta)
    assert np.abs(got / want - 1.0).max() <= 5e-14


@pytest.mark.parametrize("beta", [1, 2])
def test_bridge_near_rho_1_against_high_precision_series(beta):
    # at rho = 1.01, where the poles of the cut integrand sit nearest the
    # real axis, the bridge on seeded x over (5, 60^rho] to 5e-14 relative,
    # on the scale max(|E|, 1e-2) since E_rho changes sign near x = 6
    rho = 1.01
    hi = 60.0**rho
    rng = np.random.default_rng(11)
    xs = np.concatenate([[np.nextafter(5.0, 6.0), hi], np.exp(rng.uniform(np.log(5.0), np.log(hi), 30))])
    got = mittag_leffler_neg(rho, xs, beta=beta)
    for x, g in zip(xs, got):
        ref = series_oracle(rho, float(x), beta=beta)
        assert abs(g - ref) <= 5e-14 * max(abs(ref), 1e-2), x


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("rho", [1.01, 1.5, 1.95])
def test_bridge_table_seams_against_high_precision_series(rho, beta):
    # every interior panel edge and every panel midpoint of the bridge table,
    # equal panels in log x on [5, 60^rho]
    from levyspde.mittag_leffler import _BRIDGE_PANELS

    lo, hi = np.log(5.0), rho * np.log(60.0)
    u = lo + (hi - lo) / _BRIDGE_PANELS * np.arange(1, 2 * _BRIDGE_PANELS) / 2.0
    xs = np.exp(u)
    got = mittag_leffler_neg(rho, xs, beta=beta)
    for x, g in zip(xs, got):
        assert abs(g - series_oracle(rho, float(x), beta=beta)) <= 1e-11, x


@pytest.mark.parametrize("rho", [1.01, 1.05, 1.5, 1.95])
def test_horner_branches_straddling_switch_points(rho):
    # both switch points from either side, where the fixed term counts are
    # tightest (x = 5 for the power series, x = 60^rho for the asymptotic one)
    hi = 60.0**rho
    xs = [4.0, 4.999, 5.0, 5.001, 5.5, 0.9 * hi, 0.999 * hi, hi, 1.001 * hi, 1.1 * hi]
    got = mittag_leffler_neg(rho, np.array(xs))
    for x, g in zip(xs, got):
        assert abs(g - series_oracle(rho, x)) <= 1e-11, x


@pytest.mark.parametrize("rho", [1.0, 1.01, 1.1, 1.5, 1.9, 2.0])
def test_beta_two_against_high_precision_series(rho):
    # E_{rho,2}(-x), the running integral of E_rho, on both sides of x = 5 and
    # of x = 60^rho, where the power series, the bridge and the asymptotic
    # series take over
    hi = 60.0**rho
    xs = [0.0, 1.0, 4.0, 4.999, 5.0, 5.001, 5.5, 20.0, 0.9 * hi, 0.999 * hi, hi, 1.001 * hi, 1.1 * hi, 40 * hi]
    got = mittag_leffler_neg(rho, np.array(xs), beta=2)
    for x, g in zip(xs, got):
        assert abs(g - series_oracle(rho, x, beta=2)) <= 1e-11, x


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        mittag_leffler_neg(0.8, 1.0)
    with pytest.raises(ValueError):
        mittag_leffler_neg(1.5, -0.1)
    for rho in (1.0, 1.5, 2.0):
        for x in (np.inf, np.nan, np.array([1.0, np.nan]), np.array([np.inf, 2.0])):
            with pytest.raises(ValueError, match="x must be finite"):
                mittag_leffler_neg(rho, x)
    for rho in (np.nan, np.inf):
        with pytest.raises(ValueError, match="verified range"):
            mittag_leffler_neg(rho, 1.0)
    for beta in (0, 3, 1.5, 2.5):
        with pytest.raises(ValueError, match="beta must be 1 or 2"):
            mittag_leffler_neg(1.5, 1.0, beta=beta)


@pytest.mark.parametrize("rho", [1.001, 1.005])
def test_refuses_rho_below_verified_range(rho):
    with pytest.raises(ValueError, match=r"verified range.*1\.01 <= rho <= 2"):
        mittag_leffler_neg(rho, 1.0)


@hypothesis.given(
    st.floats(min_value=1.05, max_value=1.95),
    st.floats(min_value=0.0, max_value=1e8, allow_nan=False),
)
def test_bounded_by_one(rho, x):
    assert abs(mittag_leffler_neg(rho, x)) <= 1.0 + 1e-12


def test_scalar_and_array_shapes():
    v = mittag_leffler_neg(1.5, 2.0)
    assert isinstance(v, float)
    arr = mittag_leffler_neg(1.5, np.array([0.0, 2.0]))
    assert arr.shape == (2,)
    assert arr[1] == v
