"""Tests for the short-maturity expansion formulas and their quadrature engine.

Reference values were computed with an independent oracle (closed-form
algebra plus brute-force quadrature/sampling) and are frozen here.
"""

import math

import numpy as np
import pytest

from asianvol.asymptotics import (
    abs_moment,
    asian_vol,
    asym_delta,
    asym_price,
    delta_parity_and_itm,
    european_vol,
    gaussian_expectation,
    geometric_bs,
    match_volatility,
    power_leading_terms,
    vol_quote,
)
from asianvol.errors import DomainError, NumericError, ValidationError
from asianvol.model import (
    CappedPowerVol,
    ConstantVol,
    LocalVolSurface,
    MarketParams,
    PayoffSpec,
    TabulatedVol,
    TimeScaledVol,
)

VOL_A_02 = 0.2 / math.sqrt(3.0)  # averaged (Asian) vol of a flat 20% surface

# frozen reference values, Bachelier-style closed forms at s = S0*vol*sqrt(T)
BACHELIER_REFS = {
    # (strike, T): (price, delta) at S0=100, vol=VOL_A_02
    (100.0, 0.25): (2.3032943298089035, 0.5),
    (95.0, 0.25): (5.616838921849615, 0.8067618846143836),
    (105.0, 0.25): (0.6168389218496153, 0.19323811538561636),
    (100.0, 0.04): (0.9213177319235615, 0.5),
}

ABS_MOMENTS = {
    0.0: 1.0,
    0.75: 0.7972587140719077,
    1.0: 0.7978845608028655,
    1.5: 0.8600399873245196,
    1.75: 0.9197839893651553,
    2.0: 1.0,
    3.0: 1.595769121605731,
    4.0: 3.0,
    6.0: 15.0,
}


# ---------------------------------------------------------------------------
# averaged volatilities
# ---------------------------------------------------------------------------

class TestAveragedVols:
    def test_constant_surface(self):
        s = ConstantVol(0.2)
        for T in (0.01, 0.25, 1.0, 2.0):
            assert np.isclose(asian_vol(s, 100.0, T), VOL_A_02, rtol=1e-13)
            assert np.isclose(european_vol(s, 100.0, T), 0.2, rtol=1e-13)

    def test_sqrt_ramp(self):
        # sigma(t) = 0.2*sqrt(t): Int t (T-t)^2 dt = T^4/12
        s = TimeScaledVol(c0=0.0, c2=0.2)
        assert np.isclose(asian_vol(s, 100.0, 1.0), 0.2 * math.sqrt(1.0 / 12.0), rtol=1e-12)

    def test_linear_ramp_european(self):
        # sigma(t) = 0.2*(1+t): Int (1+t)^2 dt over [0,1] = 7/3
        s = TimeScaledVol(c0=0.2, c1=0.2)
        assert np.isclose(european_vol(s, 100.0, 1.0), 0.2 * math.sqrt(7.0 / 3.0), rtol=1e-12)

    def test_short_maturity_limits(self):
        s = TimeScaledVol(c0=0.2, c1=0.3, c2=0.1)
        assert np.isclose(asian_vol(s, 100.0, 1e-7), 0.2 / math.sqrt(3.0), rtol=1e-3)
        assert np.isclose(european_vol(s, 100.0, 1e-7), 0.2, rtol=1e-3)

    def test_ratio_invariant_on_log_grid(self):
        # for constant surfaces sigma_A(T)*sqrt(3) = sigma_E(T) at every T
        s = ConstantVol(0.37)
        for T in np.logspace(-4, math.log10(2.0), 25):
            a = asian_vol(s, 50.0, T)
            e = european_vol(s, 50.0, T)
            assert np.isclose(a * math.sqrt(3.0), e, rtol=1e-12), f"T={T}"

    def test_vol_quote_metadata(self):
        q = vol_quote(ConstantVol(0.2), 100.0, 0.5)
        assert np.isclose(q.asian_vol, VOL_A_02, rtol=1e-13)
        assert np.isclose(q.european_vol, 0.2, rtol=1e-13)
        assert q.maturity == 0.5
        assert q.nodes > 0 and q.est_error < 1e-10

    def test_rejects_nonpositive_maturity(self):
        with pytest.raises(DomainError):
            asian_vol(ConstantVol(0.2), 100.0, 0.0)

    def test_zero_surface_gives_zero(self):
        q = vol_quote(ConstantVol(0.0), 100.0, 0.5)
        assert q.asian_vol == 0.0 and q.european_vol == 0.0


def _piecewise_linear_moments(knots, levels, T):
    """(Int_0^T s^2 (T-t)^2 dt, Int_0^T s^2 dt) in closed form for s(t) linear
    between knots and constant beyond the first and last, by exact
    polynomial integration on each piece."""
    P = np.polynomial.Polynomial
    knots = [0.0, *knots, max(T, knots[-1])]
    levels = [levels[0], *levels, levels[-1]]
    weighted = plain = 0.0
    for t0, t1, v0, v1 in zip(knots, knots[1:], levels, levels[1:]):
        lo, hi = min(t0, T), min(t1, T)
        if hi <= lo:
            continue
        s2 = P([v0 - (v1 - v0) * t0 / (t1 - t0), (v1 - v0) / (t1 - t0)]) ** 2
        weighted += np.diff((s2 * P([T, -1.0]) ** 2).integ()([lo, hi]))[0]
        plain += np.diff(s2.integ()([lo, hi]))[0]
    return weighted, plain


class _UndeclaredJump(LocalVolSurface):
    """sigma jumps from 0.2 to 0.3 at t = 0.37 and does not say so."""

    family = "undeclared-jump"

    def _sigma(self, t, x):
        return np.where(t < 0.37, 0.2, 0.3) * np.ones_like(x)


class TestVolRule:
    """The kink-split Gauss-Legendre rule in u = sqrt(t/T) against closed forms."""

    XS = [60.0, 80.0, 100.0, 120.0, 140.0]

    def tabulated(self, ts, column):
        # sigma at the grid level x = 100 is ``column``; other levels vary so
        # that a wrong x lookup would show
        values = [[c * (1.0 + 0.1 * (2 - j)) for j in range(5)] for c in column]
        return TabulatedVol(ts, self.XS, values)

    def check(self, surface, T, weighted, plain):
        q = vol_quote(surface, 100.0, T)
        assert q.asian_vol == pytest.approx(math.sqrt(weighted / T**3), rel=1e-13)
        assert q.european_vol == pytest.approx(math.sqrt(plain / T), rel=1e-13)
        assert asian_vol(surface, 100.0, T) == q.asian_vol
        assert european_vol(surface, 100.0, T) == q.european_vol

    @pytest.mark.parametrize("T", [0.45, 0.5, 0.83, 1.0])
    def test_tabulated_with_an_interior_t_node(self, T):
        ts, column = [0.0, 0.3, 0.7, 1.0], [0.21, 0.26, 0.18, 0.24]
        self.check(self.tabulated(ts, column), T, *_piecewise_linear_moments(ts, column, T))

    @pytest.mark.parametrize("T", [0.1, 0.4, 0.6, 1.5])
    def test_tabulated_extrapolates_flat_at_both_ends(self, T):
        ts, column = [0.2, 0.6], [0.3, 0.15]
        self.check(self.tabulated(ts, column), T, *_piecewise_linear_moments(ts, column, T))

    @pytest.mark.parametrize("T", [0.003, 0.05, 0.37, 1.0, 4.0])
    def test_time_scaled_mixture(self, T):
        # sigma^2 = sum_p a_p t^p with p in {0, 1/2, 1, 3/2, 2}; Int_0^T t^p
        # (T-t)^2 dt = 2 T^(p+3) / ((p+1)(p+2)(p+3)) and Int_0^T t^p dt = T^(p+1)/(p+1)
        c0, c1, c2 = 0.2, -0.07, 0.11
        terms = {0.0: c0 * c0, 0.5: 2 * c0 * c2, 1.0: c2 * c2 + 2 * c0 * c1,
                 1.5: 2 * c1 * c2, 2.0: c1 * c1}
        weighted = sum(a * 2.0 * T ** (p + 3) / ((p + 1) * (p + 2) * (p + 3))
                       for p, a in terms.items())
        plain = sum(a * T ** (p + 1) / (p + 1) for p, a in terms.items())
        self.check(TimeScaledVol(c0, c1, c2), T, weighted, plain)

    @pytest.mark.parametrize("surface", [
        ConstantVol(0.2),
        TimeScaledVol(0.2, 0.1, 0.05),
        CappedPowerVol(sref=0.2, xref=100.0, exponent=0.5, floor=0.05, cap=0.6),
        TabulatedVol([0.0, 0.25, 0.5, 1.0], [60.0, 80.0, 100.0, 120.0, 140.0],
                     [[0.30, 0.25, 0.20, 0.18, 0.17], [0.29, 0.24, 0.21, 0.19, 0.18],
                      [0.28, 0.24, 0.22, 0.20, 0.19], [0.27, 0.23, 0.22, 0.21, 0.20]]),
    ], ids=lambda s: s.family)
    def test_node_bound(self, surface):
        for T in (0.01, 0.1, 0.25, 0.518, 1.0, 1.02):
            assert vol_quote(surface, 100.0, T).nodes <= 128, T

    def test_undeclared_jump_in_t_raises(self):
        for fn in (vol_quote, asian_vol, european_vol):
            with pytest.raises(NumericError, match="time_kinks"):
                fn(_UndeclaredJump(), 100.0, 1.0)

    def test_declared_jump_is_exact(self):
        surface = _UndeclaredJump()
        surface.time_kinks = lambda: (0.37,)
        # Int 0.2^2 (1-t)^2 on [0, 0.37] plus 0.3^2 (1-t)^2 on [0.37, 1]
        weighted = (0.04 * (1.0 - 0.63**3) + 0.09 * 0.63**3) / 3.0
        self.check(surface, 1.0, weighted, 0.04 * 0.37 + 0.09 * 0.63)


# ---------------------------------------------------------------------------
# quadrature engine
# ---------------------------------------------------------------------------

class TestGaussianExpectation:
    def test_smooth_uses_hermite(self):
        val, info = gaussian_expectation(lambda z: z * z)
        assert np.isclose(val, 1.0, rtol=1e-13)
        assert info.method == "gauss-hermite"
        assert info.truncation_error == 0.0

    def test_smooth_exponential(self):
        val, _ = gaussian_expectation(lambda z: np.exp(z))
        assert np.isclose(val, math.exp(0.5), rtol=1e-12)

    def test_kinked_absolute_value(self):
        val, info = gaussian_expectation(np.abs, kinks=(0.0,))
        assert np.isclose(val, math.sqrt(2.0 / math.pi), rtol=1e-12)
        assert info.method == "kink-split"
        assert info.truncation_error < 1e-13

    def test_kinked_holder_power(self):
        # E[(z)_+^0.75] = M(0.75)/2: a genuinely non-Lipschitz integrand
        val, _ = gaussian_expectation(
            lambda z: np.maximum(z, 0.0) ** 0.75, kinks=(0.0,)
        )
        assert np.isclose(val, 0.5 * ABS_MOMENTS[0.75], rtol=1e-12)

    def test_one_call_per_order_level(self):
        sizes = []

        def f(z):
            sizes.append(np.size(z))
            return np.abs(z) ** 0.75

        val, info = gaussian_expectation(f, kinks=(0.0,))
        assert np.isclose(val, ABS_MOMENTS[0.75], rtol=1e-12)
        probes, levels = sizes[:4], sizes[4:]
        assert probes == [1, 1, 1, 1]
        # the order doubles from 16: each later level has twice the nodes
        assert 2 <= len(levels) <= 4
        assert levels == [levels[0] * 2**i for i in range(len(levels))]
        assert levels[-1] == info.nodes

    @pytest.mark.parametrize("payoff, nodes", [
        (PayoffSpec("power-call", strike=100.0, exponent=0.5), 1600),
        (PayoffSpec("power-call", strike=97.0, exponent=0.5), 1600),
        (PayoffSpec("capped-power", strike=100.0, exponent=0.3, cap_width=10.0), 3200),
    ])
    def test_node_counts_are_unchanged(self, payoff, nodes):
        for fn in (asym_price, asym_delta):
            assert fn(payoff, 100.0, VOL_A_02, 0.25).quadrature.nodes == nodes

    def test_kink_outside_window(self):
        # declared kink far beyond 8 standard deviations: integrand is
        # effectively linear on the window
        val, info = gaussian_expectation(
            lambda z: np.maximum(z + 50.0, 0.0), kinks=(-50.0,)
        )
        assert np.isclose(val, 50.0, rtol=1e-12)
        assert info.method == "kink-split"


# ---------------------------------------------------------------------------
# asymptotic prices
# ---------------------------------------------------------------------------

class TestAsymPrice:
    @pytest.mark.parametrize("key", sorted(BACHELIER_REFS))
    def test_frozen_call_values(self, key):
        K, T = key
        q = asym_price(PayoffSpec(family="call", strike=K), 100.0, VOL_A_02, T)
        assert np.isclose(q.value, BACHELIER_REFS[key][0], rtol=1e-13)
        assert q.quadrature.method == "closed-form"

    def test_atm_call_is_s_over_sqrt_2pi(self):
        T = 0.25
        s = 100.0 * VOL_A_02 * math.sqrt(T)
        q = asym_price(PayoffSpec(family="call", strike=100.0), 100.0, VOL_A_02, T)
        assert np.isclose(q.value, s / math.sqrt(2.0 * math.pi), rtol=1e-14)

    def test_constant_payoff(self):
        q = asym_price(PayoffSpec(family="constant", level=3.25), 100.0, 0.2, 0.5)
        assert q.value == 3.25

    def test_linear_payoff(self):
        q = asym_price(
            PayoffSpec(family="linear", slope=2.0, intercept=1.0), 100.0, 0.2, 0.5
        )
        assert q.value == 201.0

    def test_itm_and_otm_limits(self):
        itm = asym_price(PayoffSpec(family="call", strike=95.0), 100.0, VOL_A_02, 1e-8)
        assert np.isclose(itm.value, 5.0, atol=1e-12)
        otm = asym_price(PayoffSpec(family="call", strike=105.0), 100.0, VOL_A_02, 1e-8)
        assert otm.value < 1e-12

    def test_put_call_parity_of_closed_forms(self):
        # call - put = S0 - K for the Gaussian leading order (no discounting)
        for K in (90.0, 100.0, 110.0):
            c = asym_price(PayoffSpec(family="call", strike=K), 100.0, VOL_A_02, 0.3)
            p = asym_price(PayoffSpec(family="put", strike=K), 100.0, VOL_A_02, 0.3)
            assert np.isclose(c.value - p.value, 100.0 - K, atol=1e-12)

    def test_quote_metadata(self):
        pay = PayoffSpec(family="power-call", strike=100.0, exponent=0.75)
        q = asym_price(pay, 100.0, 0.11547, 0.04)
        assert q.kind == "price" and q.style == "asian"
        assert q.claimed_error_order == 0.75
        assert q.inputs["S0"] == 100.0 and q.inputs["payoff"]["exponent"] == 0.75
        assert q.quadrature.nodes > 0

    @pytest.mark.parametrize("srel", [1e-4, 3e-3, 0.05, 0.5])
    @pytest.mark.parametrize("d", [-6.0, -2.0, 0.0, 2.0, 6.0])
    @pytest.mark.parametrize("family", ["call", "put"])
    def test_closed_form_agrees_with_quadrature(self, srel, d, family):
        """Bachelier closed form vs the quadrature engine, to 1e-8."""
        S0 = 100.0
        s = srel * S0
        K = S0 - d * s
        if K < 1.0:
            pytest.skip("strike would be nonpositive")
        vol, T = srel, 1.0  # any (vol, T) with vol*sqrt(T) = srel
        pay = PayoffSpec(family=family, strike=K)
        closed = asym_price(pay, S0, vol, T)
        quads = asym_price(pay, S0, vol, T, force_quadrature=True)
        assert np.isclose(closed.value, quads.value, rtol=1e-8, atol=1e-8), (
            f"{family} srel={srel} d={d}: {closed.value} vs {quads.value}"
        )

    def test_rejects_bad_args(self):
        pay = PayoffSpec(family="call", strike=100.0)
        with pytest.raises(DomainError):
            asym_price(pay, 100.0, 0.0, 0.25)
        with pytest.raises(DomainError):
            asym_price(pay, 100.0, 0.2, -0.25)

    @pytest.mark.parametrize("fn", [asym_price, asym_delta])
    @pytest.mark.parametrize(
        "S0, vol, T, named",
        [(100.0, 0.2, math.inf, "T"), (100.0, 0.2, math.nan, "T"),
         (100.0, math.inf, 0.25, "vol"), (100.0, math.nan, 0.25, "vol"),
         (math.inf, 0.2, 0.25, "S0")],
    )
    def test_rejects_non_finite_inputs(self, fn, S0, vol, T, named):
        pay = PayoffSpec(family="call", strike=100.0)
        with pytest.raises(DomainError, match=f"^{named} must be finite and positive, got"):
            fn(pay, S0, vol, T, style="asian")


# ---------------------------------------------------------------------------
# asymptotic deltas
# ---------------------------------------------------------------------------

class TestAsymDelta:
    def test_atm_call_is_half(self):
        q = asym_delta(PayoffSpec(family="call", strike=100.0), 100.0, VOL_A_02, 0.25)
        assert q.value == 0.5

    def test_linear_payoff_is_slope(self):
        q = asym_delta(PayoffSpec(family="linear", slope=1.0), 100.0, 0.2, 0.5)
        assert q.value == 1.0

    def test_deep_itm_approaches_one(self):
        q = asym_delta(PayoffSpec(family="call", strike=50.0), 100.0, VOL_A_02, 0.01)
        assert abs(q.value - 1.0) < 1e-6

    @pytest.mark.parametrize("K", [90.0, 100.0, 115.0])
    def test_call_closed_form_vs_quadrature(self, K):
        pay = PayoffSpec(family="call", strike=K)
        closed = asym_delta(pay, 100.0, VOL_A_02, 0.25)
        quads = asym_delta(pay, 100.0, VOL_A_02, 0.25, force_quadrature=True)
        assert np.isclose(closed.value, quads.value, atol=1e-8)
        # frozen values for the two non-ATM strikes live in BACHELIER_REFS
        if (K, 0.25) in BACHELIER_REFS:
            assert np.isclose(closed.value, BACHELIER_REFS[(K, 0.25)][1], rtol=1e-13)

    def test_put_closed_form_vs_quadrature(self):
        pay = PayoffSpec(family="put", strike=100.0)
        closed = asym_delta(pay, 100.0, VOL_A_02, 0.25)
        quads = asym_delta(pay, 100.0, VOL_A_02, 0.25, force_quadrature=True)
        assert closed.value == -0.5
        assert np.isclose(closed.value, quads.value, atol=1e-10)

    def test_unsubtracted_form_agrees(self):
        # oracle: E[phi(S0+sZ) Z]/s without subtracting phi(S0)
        S0, T = 100.0, 0.25
        s = S0 * VOL_A_02 * math.sqrt(T)
        pay = PayoffSpec(family="capped-power", strike=100.0, exponent=0.5, cap_width=100.0)
        raw, _ = gaussian_expectation(
            lambda z: pay.value(S0 + s * z) * z / s,
            kinks=tuple((k - S0) / s for k in pay.kinks()),
        )
        q = asym_delta(pay, S0, VOL_A_02, T)
        assert np.isclose(q.value, raw, rtol=1e-9)

    def test_delta_limit_is_average_of_one_sided_slopes(self):
        """As T -> 0 the delta of a kinked payoff tends to the slope average."""
        # piecewise-linear payoff with slopes -0.3 (left) and +0.8 (right) at S0
        pay = PayoffSpec(
            family="user-table",
            table_x=(50.0, 100.0, 150.0),
            table_y=(15.0, 0.0, 40.0),
        )
        q = asym_delta(pay, 100.0, VOL_A_02, 1e-6)
        assert abs(q.value - 0.25) < 5e-3
        # ATM call/put: averages 1/2 and -1/2, exact in closed form
        assert asym_delta(PayoffSpec(family="call", strike=100.0), 100.0, VOL_A_02, 1e-6).value == 0.5
        assert asym_delta(PayoffSpec(family="put", strike=100.0), 100.0, VOL_A_02, 1e-6).value == -0.5

    def test_quote_metadata(self):
        pay = PayoffSpec(family="power-call", strike=100.0, exponent=0.75)
        q = asym_delta(pay, 100.0, 0.11547, 0.04)
        assert q.kind == "delta"
        assert np.isclose(q.claimed_error_order, 0.25)


# ---------------------------------------------------------------------------
# Gaussian absolute moments
# ---------------------------------------------------------------------------

class TestAbsMoment:
    @pytest.mark.parametrize("gamma", sorted(ABS_MOMENTS))
    def test_frozen_values(self, gamma):
        assert np.isclose(abs_moment(gamma), ABS_MOMENTS[gamma], rtol=1e-13)

    def test_double_factorial_at_even_orders(self):
        for k, ref in ((1, 1.0), (2, 3.0), (3, 15.0)):
            assert np.isclose(abs_moment(2 * k), ref, rtol=1e-13)

    def test_shape_on_0_4(self):
        # E|Z|^g is log-convex with a single interior minimum near g ~ 0.84:
        # decreasing up to it, increasing after, never monotone on all of [0,4]
        down = [abs_moment(g) for g in np.linspace(0.0, 0.8, 9)]
        up = [abs_moment(g) for g in np.linspace(1.0, 4.0, 31)]
        assert all(b <= a + 1e-14 for a, b in zip(down, down[1:]))
        assert all(b >= a - 1e-14 for a, b in zip(up, up[1:]))

    def test_log_convexity(self):
        # Cauchy-Schwarz: M(a) M(b) >= M((a+b)/2)^2
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = rng.uniform(0.0, 4.0, size=2)
            lhs = abs_moment(a) * abs_moment(b)
            rhs = abs_moment(0.5 * (a + b)) ** 2
            assert lhs >= rhs * (1.0 - 1e-12), f"a={a}, b={b}"

    def test_quadrature_cross_check(self):
        for g in (0.3, 1.3, 2.7):
            val, _ = gaussian_expectation(lambda z: np.abs(z) ** g, kinks=(0.0,))
            assert np.isclose(abs_moment(g), val, rtol=1e-10)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            abs_moment(-0.1)


# ---------------------------------------------------------------------------
# power-payoff leading terms
# ---------------------------------------------------------------------------

class TestPowerLeadingTerms:
    def test_frozen_power_call(self):
        price, delta = power_leading_terms(0.75, 100.0, VOL_A_02, 1.0)
        assert np.isclose(price, 2.4970158861342915, rtol=1e-13)
        assert np.isclose(delta, 0.2494815926313809, rtol=1e-13)

    def test_frozen_capped_power(self):
        price, delta = power_leading_terms(1.5, 100.0, VOL_A_02, 1.0)
        assert np.isclose(price, 16.873015322837276, rtol=1e-13)
        assert np.isclose(delta, 2.095377641924775, rtol=1e-13)

    def test_gamma_one_matches_atm_call(self):
        price, delta = power_leading_terms(1.0, 100.0, VOL_A_02, 0.25)
        s = 100.0 * VOL_A_02 * math.sqrt(0.25)
        assert np.isclose(price, s / math.sqrt(2.0 * math.pi), rtol=1e-13)
        assert np.isclose(delta, 0.5, rtol=1e-13)

    def test_price_lead_matches_quadrature_to_1e10(self):
        # gamma = 0.75 ATM power call: lead vs full quadrature of the
        # defining Gaussian expectation
        volT, T = 0.11547, 0.04
        lead, _ = power_leading_terms(0.75, 100.0, volT, T)
        q = asym_price(
            PayoffSpec(family="power-call", strike=100.0, exponent=0.75),
            100.0,
            volT,
            T,
        )
        assert np.isclose(lead, q.value, rtol=1e-10), f"{lead} vs {q.value}"

    def test_negative_t_exponent_reported_below_one(self):
        # on (1/2, 1) the delta lead carries T^{-(1-e)/2}: it must grow as
        # T shrinks
        _, d_big = power_leading_terms(0.75, 100.0, VOL_A_02, 0.04)
        _, d_small = power_leading_terms(0.75, 100.0, VOL_A_02, 0.0004)
        assert d_small > d_big
        assert np.isclose(d_small / d_big, (0.0004 / 0.04) ** (-0.125), rtol=1e-12)

    def test_no_delta_lead_at_or_below_half(self):
        for e in (0.5, 0.3):
            price, delta = power_leading_terms(e, 100.0, VOL_A_02, 1.0)
            assert price > 0.0
            assert delta is None

    @pytest.mark.parametrize("bad", [0.0, -0.5, 2.0, 2.5])
    def test_exponent_domain(self, bad):
        with pytest.raises(DomainError):
            power_leading_terms(bad, 100.0, VOL_A_02, 1.0)


# ---------------------------------------------------------------------------
# parity / ITM discounting factors
# ---------------------------------------------------------------------------

class TestDeltaParity:
    def test_frozen_example(self):
        parity, taylor = delta_parity_and_itm(0.05, 0.0, 0.5)
        assert np.isclose(parity, 0.9876035188666954, rtol=1e-13)
        assert np.isclose(taylor, 0.9876041666666667, rtol=1e-13)
        assert abs(parity - taylor) < 1e-5

    def test_zero_rates(self):
        assert delta_parity_and_itm(0.0, 0.0, 1.0) == (1.0, 1.0)

    def test_equal_rates_limit(self):
        parity, _ = delta_parity_and_itm(0.03, 0.03, 1.0)
        assert np.isclose(parity, math.exp(-0.03), rtol=1e-14)
        parity, _ = delta_parity_and_itm(0.03, 0.03, 0.5)
        assert np.isclose(parity, 0.9851119396030626, rtol=1e-13)

    def test_with_dividends(self):
        parity, taylor = delta_parity_and_itm(0.05, 0.02, 0.25)
        assert np.isclose(parity, 0.9912904931734504, rtol=1e-13)
        assert np.isclose(taylor, 0.991290625, rtol=1e-13)

    def test_taylor_tracks_parity_at_short_maturity(self):
        for T in (0.01, 0.05, 0.1):
            parity, taylor = delta_parity_and_itm(0.07, 0.01, T)
            assert abs(parity - taylor) < 1e-6, f"T={T}"

    @pytest.mark.parametrize("T", [math.inf, math.nan, 0.0, -0.5])
    def test_rejects_a_maturity_that_is_not_finite_and_positive(self, T):
        with pytest.raises(DomainError, match="^T must be finite and positive, got"):
            delta_parity_and_itm(0.03, 0.01, T)


# ---------------------------------------------------------------------------
# matching European and Asian vol curves
# ---------------------------------------------------------------------------

class TestMatchVolatility:
    def test_constant_implied_forward(self):
        for s in (0.1, 0.5, 1.0):
            tau = match_volatility("implied-to-tau", lambda u: 0.3, s)
            assert np.isclose(tau, 0.3 / math.sqrt(3.0), rtol=1e-10)

    def test_constant_tau_inverse(self):
        # derivative terms vanish; exercises the spline-fallback derivative path
        got = match_volatility("tau-to-implied", lambda u: 0.12, 0.5)
        assert np.isclose(got, 0.12 * math.sqrt(3.0), rtol=1e-8)

    def test_round_trip_linear_tau(self):
        tau = lambda u: 0.1 + 0.05 * u
        implied = lambda u: match_volatility(
            "tau-to-implied", tau, u, curve_d1=lambda v: 0.05, curve_d2=lambda v: 0.0
        )
        for s in (0.2, 0.5, 1.0):
            back = match_volatility("implied-to-tau", implied, s)
            assert np.isclose(back, tau(s), rtol=1e-6), f"s={s}"

    def test_negative_bracket_raises(self):
        # tau(s) = 0.2 - 0.15 s^2 gives bracket 3 - 36 + 36 - 6 = -3 at s=1
        tau = lambda u: 0.2 - 0.15 * u * u
        with pytest.raises(DomainError, match="bracket"):
            match_volatility(
                "tau-to-implied",
                tau,
                1.0,
                curve_d1=lambda v: -0.3 * v,
                curve_d2=lambda v: -0.3,
            )

    def test_unknown_direction(self):
        with pytest.raises(ValidationError):
            match_volatility("sideways", lambda u: 0.2, 0.5)


# ---------------------------------------------------------------------------
# geometric-average Asian options under Black-Scholes
# ---------------------------------------------------------------------------

GEO_REFS = [
    # (sigma, S0, r, q, family, K, T) -> (price, delta)
    ((0.2, 100.0, 0.0, 0.0, "call", 100.0, 0.25), (2.2606057069202308, 0.5053367464237724)),
    ((0.3, 100.0, 0.05, 0.01, "call", 100.0, 0.5), (5.08929131561669, 0.5345767808387855)),
    ((0.3, 100.0, 0.05, 0.01, "put", 110.0, 0.5), (10.854201098491075, -0.7333931727373522)),
    ((0.25, 100.0, 0.02, 0.0, "call", 90.0, 1.0), (11.995153619131798, 0.7861848219183111)),
]


class TestGeometricBS:
    @pytest.mark.parametrize("args,ref", GEO_REFS)
    def test_frozen_values(self, args, ref):
        sigma, S0, r, q, family, K, T = args
        price, delta = geometric_bs(sigma, MarketParams(S0, r, q), family, K, T)
        assert np.isclose(price, ref[0], rtol=1e-13), f"price {price}"
        assert np.isclose(delta, ref[1], rtol=1e-13), f"delta {delta}"

    def test_degenerate_zero_vol(self):
        params = MarketParams(100.0, 0.05, 0.01)
        fwd = 100.0 * math.exp((0.05 - 0.01) * 0.5 / 2.0)
        price, delta = geometric_bs(0.0, params, "call", 95.0, 0.5)
        assert np.isclose(price, math.exp(-0.025) * (fwd - 95.0), rtol=1e-14)
        assert np.isclose(delta, math.exp(-0.025) * fwd / 100.0, rtol=1e-14)
        otm, d_otm = geometric_bs(0.0, params, "call", 110.0, 0.5)
        assert otm == 0.0 and d_otm == 0.0

    def test_put_call_parity(self):
        params = MarketParams(100.0, 0.05, 0.01)
        sigma, K, T = 0.3, 105.0, 0.75
        call, _ = geometric_bs(sigma, params, "call", K, T)
        put, _ = geometric_bs(sigma, params, "put", K, T)
        mean_log = math.log(100.0) + (0.05 - 0.01 - 0.045) * T / 2.0
        mean_g = math.exp(mean_log + sigma * sigma * T / 6.0)
        assert np.isclose(call - put, math.exp(-0.05 * T) * (mean_g - K), rtol=1e-12)

    def test_against_lognormal_sampling(self):
        # exact-distribution oracle: 1e7 draws from the lognormal average
        sigma, T = 0.2, 0.25
        params = MarketParams(100.0)
        price, _ = geometric_bs(sigma, params, "call", 100.0, T)
        rng = np.random.default_rng(91)
        mean_log = math.log(100.0) - 0.5 * sigma * sigma * T / 2.0
        g = np.exp(mean_log + sigma * math.sqrt(T / 3.0) * rng.standard_normal(10_000_000))
        draws = np.maximum(g - 100.0, 0.0)
        se = draws.std() / math.sqrt(len(draws))
        assert abs(draws.mean() - price) < 3.0 * se, f"{draws.mean()} vs {price}"

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            geometric_bs(0.2, MarketParams(100.0), "digital", 100.0, 0.5)
        with pytest.raises(DomainError):
            geometric_bs(-0.1, MarketParams(100.0), "call", 100.0, 0.5)
