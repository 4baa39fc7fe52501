"""Tests for market params, vol surfaces, payoffs, and config factories."""

import numpy as np
import pytest

from asianvol.errors import DomainError, ValidationError
from asianvol.model import (
    CappedPowerVol,
    ConstantVol,
    MarketParams,
    PayoffSpec,
    TabulatedVol,
    TimeScaledVol,
    market_from_config,
    payoff_from_config,
    surface_from_config,
    tabulated_from_csv,
)

# ---------------------------------------------------------------------------
# reference surface used throughout: a CEV-style skew, flattened outside
# a wide band so sigma stays in [0.05, 1.0] on all of (0, inf)
# ---------------------------------------------------------------------------

SKEW = CappedPowerVol(sref=0.2, xref=100.0, exponent=0.3, floor=0.05, cap=1.0)

# point values computed independently from the closed-form branch formulas
SKEW_POINTS = {
    # x: (sigma, dcoef_dx, dcoef_dxx)
    9.0: (0.41186723371160794, 0.2883070635981255, -0.009610235453270851),
    80.0: (0.21384691999823763, 0.14969284399876634, -0.0005613481649953737),
    100.0: (0.2, 0.14, -0.00042),
    150.0: (0.17709349865911123, 0.12396544906137785, -0.0002479308981227557),
    2000.0: (0.08141810630738089, 0.056992674415166616, -8.548901162274994e-06),
}


class TestMarketParams:
    def test_basic_fields_and_drift(self):
        m = MarketParams(S0=100.0, r=0.05, q=0.02)
        assert m.S0 == 100.0
        assert np.isclose(m.drift, 0.03)

    @pytest.mark.parametrize("bad", [0.0, -5.0, np.nan, np.inf])
    def test_rejects_bad_spot(self, bad):
        with pytest.raises(ValidationError):
            MarketParams(S0=bad)

    def test_rejects_non_finite_rates(self):
        with pytest.raises(ValidationError):
            MarketParams(S0=100.0, r=np.nan)


class TestCappedPowerVol:
    """The level-dependent reference surface and its analytic derivatives."""

    @pytest.mark.parametrize("x", sorted(SKEW_POINTS))
    def test_point_values(self, x):
        sig, d1, d2 = SKEW_POINTS[x]
        got = SKEW.sigma(0.3, x), SKEW.dcoef_dx(0.3, x), SKEW.dcoef_dxx(0.3, x)
        assert np.isclose(got[0], sig, rtol=1e-13), f"sigma at {x}: {got[0]}"
        assert np.isclose(got[1], d1, rtol=1e-13), f"dcoef_dx at {x}: {got[1]}"
        assert np.isclose(got[2], d2, rtol=1e-13), f"dcoef_dxx at {x}: {got[2]}"

    def test_clipped_regions_are_flat(self):
        # below the cap boundary (~0.468) sigma pegs at 1.0, above the floor
        # boundary (~10159) it pegs at 0.05; a flat sigma means a(x) = sigma*x
        for x, level in ((0.1, 1.0), (20000.0, 0.05)):
            assert SKEW.sigma(0.0, x) == level
            assert SKEW.dcoef_dx(0.0, x) == level
            assert SKEW.dcoef_dxx(0.0, x) == 0.0

    def test_derivatives_match_central_differences(self):
        # analytic branch formulas vs a finite-difference probe of sigma*x
        for x in (5.0, 37.0, 100.0, 611.0, 4000.0):
            h = 1e-3 * x
            a = lambda u: SKEW.sigma(0.0, u) * u
            fd1 = (a(x + h) - a(x - h)) / (2 * h)
            fd2 = (a(x + h) - 2 * a(x) + a(x - h)) / h**2
            assert np.isclose(SKEW.dcoef_dx(0.0, x), fd1, rtol=1e-6)
            assert np.isclose(SKEW.dcoef_dxx(0.0, x), fd2, rtol=1e-5, atol=1e-12)

    def test_vectorized_evaluation_matches_scalar(self):
        xs = np.array([9.0, 80.0, 100.0, 150.0, 2000.0])
        sig = SKEW.sigma(0.0, xs)
        assert sig.shape == xs.shape
        for xi, si in zip(xs, sig):
            assert si == SKEW.sigma(0.0, xi)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(DomainError):
            SKEW.sigma(0.0, -1.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            CappedPowerVol(sref=-0.2, xref=100.0, exponent=0.3, floor=0.05, cap=1.0)
        with pytest.raises(ValidationError):
            CappedPowerVol(sref=0.2, xref=100.0, exponent=0.3, floor=0.5, cap=0.1)


class TestCappedPowerKinks:
    """kinks(): the levels where the power branch meets floor or cap."""

    STEEP = CappedPowerVol(sref=0.2, xref=100.0, exponent=1.5, floor=0.05, cap=0.6)

    def test_steep_cap_and_floor_levels(self):
        # 100 (0.6 / 0.2)^(-1/1.5) and 100 (0.05 / 0.2)^(-1/1.5)
        np.testing.assert_allclose(self.STEEP.kinks(), [48.075, 251.98], rtol=1e-4)
        np.testing.assert_allclose(self.STEEP.kinks(), [100.0 * 3.0 ** (-2.0 / 3.0),
                                                        100.0 * 4.0 ** (2.0 / 3.0)], rtol=1e-14)

    @pytest.mark.parametrize("surface, n_kinks", [
        (CappedPowerVol(sref=0.2, xref=100.0, exponent=0.0, floor=0.05, cap=1.0), 0),
        (CappedPowerVol(sref=0.2, xref=100.0, exponent=0.3, floor=0.2, cap=0.2), 0),
        (CappedPowerVol(sref=0.2, xref=100.0, exponent=1.5, floor=0.0, cap=0.6), 1),
        (CappedPowerVol(sref=0.2, xref=100.0, exponent=-1.5, floor=0.0, cap=0.6), 1),
        (CappedPowerVol(sref=0.2, xref=100.0, exponent=1.5, floor=0.05, cap=np.inf), 1),
    ], ids=["exponent-0", "floor-is-cap", "floor-0", "rising-floor-0", "cap-inf"])
    def test_no_spurious_kink(self, surface, n_kinks):
        kinks = surface.kinks()
        assert len(kinks) == n_kinks
        assert all(0.0 < k < np.inf for k in kinks)

    @pytest.mark.parametrize("surface", [
        STEEP, SKEW, CappedPowerVol(sref=0.2, xref=100.0, exponent=-1.5, floor=0.0, cap=0.6),
    ], ids=["steep", "skew", "rising"])
    def test_one_sided_slopes_differ_at_each_kink(self, surface):
        for k in surface.kinks():
            h = 1e-6 * k
            s = surface.sigma(0.0, k)
            left = (s - surface.sigma(0.0, k - h)) / h
            right = (surface.sigma(0.0, k + h) - s) / h
            # one side is clipped (slope 0), the other on the power branch,
            # whose slope is -exponent sigma / x
            assert min(abs(left), abs(right)) < 1e-6 * s / k
            assert abs(left - right) > 0.5 * abs(surface.exponent) * s / k
            assert min(abs(s - surface.floor), abs(s - surface.cap)) <= 1e-14 * s


class TestOtherSurfaces:
    def test_constant(self):
        s = ConstantVol(0.2)
        assert s.sigma(1.3, 77.0) == 0.2
        assert s.dcoef_dx(0.0, 50.0) == 0.2
        assert s.dcoef_dxx(0.0, 50.0) == 0.0
        assert not s.is_time_dependent

    def test_time_scaled_sqrt_ramp(self):
        # sigma(t) = 0.2 + 0.05*sqrt(t)
        s = TimeScaledVol(c0=0.2, c2=0.05)
        assert np.isclose(s.sigma(0.25, 123.0), 0.225, rtol=1e-15)
        assert np.isclose(s.dcoef_dx(0.25, 9.0), 0.225, rtol=1e-15)
        assert s.dcoef_dxx(0.25, 9.0) == 0.0
        assert s.is_time_dependent

    def test_time_scaled_linear_ramp(self):
        s = TimeScaledVol(c0=0.2, c1=0.05)
        assert np.isclose(s.sigma(0.5, 1.0), 0.225, rtol=1e-15)

    def test_tabulated_bilinear_interpolation(self):
        s = TabulatedVol(
            ts=[0.0, 1.0], xs=[50.0, 150.0], values=[[0.2, 0.3], [0.4, 0.5]]
        )
        # node values reproduce exactly, mid-cell is the average of corners
        assert s.sigma(0.0, 50.0) == 0.2
        assert s.sigma(1.0, 150.0) == 0.5
        assert np.isclose(s.sigma(0.5, 100.0), 0.35, rtol=1e-14)

    def test_tabulated_rejects_x_out_of_range(self):
        s = TabulatedVol(ts=[0.0, 1.0], xs=[50.0, 150.0], values=[[0.2, 0.3], [0.4, 0.5]])
        with pytest.raises(DomainError):
            s.sigma(0.5, 151.0)
        with pytest.raises(DomainError):
            s.sigma(0.5, 49.0)

    def test_tabulated_rejects_negative_t_and_nonpositive_x(self):
        # the grid's range check alone would pass both points
        s = TabulatedVol(ts=[0.0, 1.0], xs=[50.0, 150.0], values=[[0.2, 0.3], [0.4, 0.5]])
        low = TabulatedVol(ts=[0.0, 1.0], xs=[-50.0, 150.0], values=[[0.2, 0.3], [0.4, 0.5]])
        for fn in (s.sigma, s.dcoef_dx, s.dcoef_dxx, lambda t, x: s.sigma(t, x, 2)):
            with pytest.raises(DomainError, match="negative or non-finite t"):
                fn(-1.0, 100.0)
        for fn in (low.sigma, low.dcoef_dx, low.dcoef_dxx, lambda t, x: low.sigma(t, x, 2)):
            with pytest.raises(DomainError, match="non-positive or non-finite x"):
                fn(0.1, 0.0)

    def test_tabulated_constant_extrapolation_in_t(self):
        s = TabulatedVol(ts=[0.1, 1.0], xs=[50.0, 150.0], values=[[0.2, 0.3], [0.4, 0.5]])
        assert s.sigma(5.0, 50.0) == s.sigma(1.0, 50.0) == 0.4
        assert s.sigma(0.0, 50.0) == s.sigma(0.1, 50.0) == 0.2

    def test_tabulated_from_csv(self, tmp_path):
        lines = ["t,x,sigma"]
        for t in (0.0, 1.0):
            for x in (50.0, 150.0):
                lines.append(f"{t},{x},{0.2 + 0.1 * t + 0.001 * (x - 50.0)}")
        path = tmp_path / "surf.csv"
        path.write_text("\n".join(lines) + "\n")
        s = tabulated_from_csv(path)
        assert np.isclose(s.sigma(1.0, 150.0), 0.4, rtol=1e-14)
        assert np.isclose(s.sigma(0.5, 100.0), 0.3, rtol=1e-14)

    def test_tabulated_from_csv_rejects_incomplete_grid(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x,sigma\n0.0,50.0,0.2\n0.0,150.0,0.3\n1.0,50.0,0.4\n")
        with pytest.raises(ValidationError, match="grid"):
            tabulated_from_csv(path)

    def test_tabulated_from_csv_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,x,sigma\n0.0,50.0,0.2\n")
        with pytest.raises(ValidationError, match="header"):
            tabulated_from_csv(path)

    def test_tabulated_derivatives_on_linear_data(self):
        # sigma linear in x makes bilinear interpolation exact, so the
        # derivatives of a = sigma*x have known values:
        # a = (0.2 + 0.001*(x-100))*x, a' = 0.002*x + 0.1, a'' = 0.002
        xs = np.linspace(50.0, 150.0, 11)
        vals = np.tile(0.2 + 0.001 * (xs - 100.0), (2, 1))
        s = TabulatedVol(ts=[0.0, 1.0], xs=xs, values=vals)
        assert np.isclose(s.dcoef_dx(0.3, 90.0), 0.002 * 90.0 + 0.1, rtol=1e-10)
        assert np.isclose(s.dcoef_dxx(0.3, 90.0), 0.002, rtol=1e-6)

    # sigma curved in x and varying in t, so neighbouring cells have different
    # slopes and a point on an interior node tells the right-hand cell from the left
    CURVED = TabulatedVol(
        ts=[0.0, 0.5, 1.0], xs=[50.0, 80.0, 100.0, 130.0, 200.0],
        values=[[0.40, 0.30, 0.25, 0.22, 0.20],
                [0.45, 0.32, 0.28, 0.21, 0.18],
                [0.50, 0.36, 0.30, 0.27, 0.19]],
    )

    @staticmethod
    def _cell_closed_form(s, t, x):
        """(sigma, a', a'') from the cell [xs[i], xs[i+1]] with xs[i] <= x,
        the last cell at the right edge: sigma = row[i] + beta*(x - xs[i])
        with row the values interpolated linearly in t."""
        tc = min(max(t, s.ts[0]), s.ts[-1])
        j = min(int(np.searchsorted(s.ts, tc, side="right")) - 1, len(s.ts) - 2)
        w = (tc - s.ts[j]) / (s.ts[j + 1] - s.ts[j])
        row = (1 - w) * s.values[j] + w * s.values[j + 1]
        i = min(int(np.searchsorted(s.xs, x, side="right")) - 1, len(s.xs) - 2)
        beta = (row[i + 1] - row[i]) / (s.xs[i + 1] - s.xs[i])
        sig = row[i] + beta * (x - s.xs[i])
        return sig, sig + beta * x, 2.0 * beta

    @pytest.mark.parametrize("t", [0.0, 0.3, 0.5, 2.0])
    @pytest.mark.parametrize("x", [50.0, 64.5, 100.0, 130.0, 171.0, 200.0],
                             ids=["left-edge", "cell", "node", "node2", "last-cell", "right-edge"])
    def test_tabulated_derivatives_are_the_cell_closed_form(self, t, x):
        s = self.CURVED
        want = self._cell_closed_form(s, t, x)
        got = (s.sigma(t, x), s.dcoef_dx(t, x), s.dcoef_dxx(t, x))
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)
        assert s.sigma(t, x, 2) == got
        arr = s.sigma(np.full(3, t), np.full(3, x), 2)
        assert all(np.array_equal(a, np.full(3, g)) for a, g in zip(arr, got))

    def test_tabulated_derivatives_at_the_grid_edges(self):
        # sigma is defined on the closed grid, and so are a' and a''
        s = TabulatedVol([0, 1], [1.0, 1.25], [[1, 1], [1, 1]])
        for x in (1.0, 1.25):
            assert s.sigma(0.0, x) == 1.0
            assert s.dcoef_dx(0.0, x) == 1.0
            assert s.dcoef_dxx(0.0, x) == 0.0
            assert s.sigma(0.0, x, 2) == (1.0, 1.0, 0.0)
        edges = np.array([1.0, 1.25])
        for got, want in zip(s.sigma(0.5, edges, 2), (1.0, 1.0, 0.0)):
            assert np.array_equal(got, np.full(2, want))

    def test_tabulated_validation(self):
        with pytest.raises(ValidationError):
            TabulatedVol(ts=[0.0, 1.0], xs=[100.0, 90.0], values=[[0.2, 0.3], [0.4, 0.5]])
        with pytest.raises(ValidationError):
            TabulatedVol(ts=[0.0, 1.0], xs=[90.0, 100.0], values=[[0.2, -0.3], [0.4, 0.5]])
        with pytest.raises(ValidationError):
            TabulatedVol(ts=[0.0, 1.0], xs=[90.0, 100.0], values=[[0.2, 0.3]])


# ---------------------------------------------------------------------------
# finite-difference cross-check required of every family on smooth regions
# ---------------------------------------------------------------------------

SMOOTH_PROBES = [
    (ConstantVol(0.25), 0.2, 80.0),
    (TimeScaledVol(c0=0.2, c1=0.1, c2=0.05), 0.7, 120.0),
    (SKEW, 0.1, 140.0),
    (
        TabulatedVol(
            ts=[0.0, 2.0],
            xs=np.linspace(10.0, 300.0, 30),
            values=np.tile(0.2 + 0.0003 * (np.linspace(10.0, 300.0, 30) - 100.0), (2, 1)),
        ),
        0.5,
        140.0,
    ),
]


@pytest.mark.parametrize("surface,t,x", SMOOTH_PROBES)
def test_dcoef_dx_matches_fd_everywhere(surface, t, x):
    """First derivative of sigma*x agrees with central differences to 1e-6."""
    h = 1e-5 * x
    a = lambda u: surface.sigma(t, u) * u
    fd = (a(x + h) - a(x - h)) / (2 * h)
    got = surface.dcoef_dx(t, x)
    assert np.isclose(got, fd, rtol=1e-6), f"{surface.family}: {got} vs fd {fd}"


# ---------------------------------------------------------------------------
# payoffs
# ---------------------------------------------------------------------------

class TestPayoffs:
    def test_call_put_values(self):
        call = PayoffSpec(family="call", strike=100.0)
        put = PayoffSpec(family="put", strike=100.0)
        assert call.value(110.0) == 10.0
        assert call.value(90.0) == 0.0
        assert put.value(90.0) == 10.0
        assert put.value(110.0) == 0.0
        assert call.kinks() == (100.0,)
        assert call.holder_gamma == 1.0 and call.holder_beta == 1.0

    def test_power_call_values(self):
        p = PayoffSpec(family="power-call", strike=100.0, exponent=0.75)
        assert p.value(100.0) == 0.0
        assert np.isclose(p.value(116.0), 16.0**0.75, rtol=1e-15)
        assert p.value(50.0) == 0.0
        assert p.holder_gamma == 0.75

    def test_power_call_exponent_range(self):
        with pytest.raises(ValidationError):
            PayoffSpec(family="power-call", strike=100.0, exponent=1.5)
        with pytest.raises(ValidationError):
            PayoffSpec(family="power-call", strike=100.0, exponent=0.0)

    def test_capped_power_values(self):
        # (x-K)^{1.5} between K and K+width, frozen at width^{1.5} above
        p = PayoffSpec(family="capped-power", strike=100.0, exponent=0.5, cap_width=100.0)
        assert p.value(90.0) == 0.0
        assert np.isclose(p.value(150.0), 353.5533905932738, rtol=1e-15)
        assert p.value(200.0) == 1000.0
        assert p.value(250.0) == 1000.0
        assert p.kinks() == (100.0, 200.0)
        # Lipschitz modulus: sup of the derivative (1+eps)*z^eps at z = width
        assert np.isclose(p.holder_beta, 15.0, rtol=1e-15)
        assert p.holder_gamma == 1.0

    def test_linear_and_constant(self):
        lin = PayoffSpec(family="linear", slope=2.0, intercept=-3.0)
        assert lin.value(10.0) == 17.0
        assert lin.kinks() == ()
        const = PayoffSpec(family="constant", level=4.5)
        assert const.value(1e6) == 4.5

    def test_user_table(self):
        p = PayoffSpec(
            family="user-table", table_x=(50.0, 100.0, 150.0), table_y=(0.0, 5.0, 0.0)
        )
        assert p.value(75.0) == 2.5
        assert p.value(150.0) == 0.0
        assert p.kinks() == (100.0,)
        assert np.isclose(p.holder_beta, 0.1)
        with pytest.raises(DomainError):
            p.value(49.0)

    def test_payoff_eval_is_vectorized(self):
        call = PayoffSpec(family="call", strike=100.0)
        out = call.value(np.array([90.0, 100.0, 130.0]))
        assert np.allclose(out, [0.0, 0.0, 30.0])

    @pytest.mark.parametrize(
        "spec",
        [
            PayoffSpec(family="call", strike=100.0),
            PayoffSpec(family="put", strike=100.0),
            PayoffSpec(family="power-call", strike=100.0, exponent=0.6),
            PayoffSpec(family="capped-power", strike=100.0, exponent=0.5, cap_width=100.0),
        ],
    )
    def test_holder_modulus_property(self, spec):
        """|phi(x)-phi(y)| <= beta*|x-y|^gamma on random pairs."""
        rng = np.random.default_rng(20260815)
        x = rng.uniform(1.0, 300.0, size=4000)
        y = rng.uniform(1.0, 300.0, size=4000)
        lhs = np.abs(spec.value(x) - spec.value(y))
        rhs = spec.holder_beta * np.abs(x - y) ** spec.holder_gamma
        bad = lhs > rhs * (1 + 1e-12)
        assert not bad.any(), f"modulus violated at {x[bad][:3]}, {y[bad][:3]}"


# ---------------------------------------------------------------------------
# config factories
# ---------------------------------------------------------------------------

class TestConfigFactories:
    def test_market_round_trip(self):
        m = market_from_config({"S0": 100.0, "r": 0.05})
        assert m.q == 0.0
        assert market_from_config(m.to_config()) == m

    def test_market_unknown_key_is_named(self):
        with pytest.raises(ValidationError, match="spot"):
            market_from_config({"S0": 100.0, "spot": 1.0})

    @pytest.mark.parametrize(
        "cfg",
        [
            {"family": "constant", "sigma": 0.2},
            {"family": "time-scaled", "c0": 0.2, "c2": 0.05},
            {
                "family": "capped-power",
                "sref": 0.2,
                "xref": 100.0,
                "exponent": 0.3,
                "floor": 0.05,
                "cap": 1.0,
            },
            {
                "family": "tabulated-grid",
                "ts": [0.0, 1.0],
                "xs": [50.0, 150.0],
                "values": [[0.2, 0.3], [0.4, 0.5]],
            },
        ],
    )
    def test_surface_round_trip(self, cfg):
        s = surface_from_config(cfg)
        assert surface_from_config(s.to_config()).to_config() == s.to_config()

    def test_surface_unknown_family(self):
        with pytest.raises(ValidationError, match="heston"):
            surface_from_config({"family": "heston"})

    def test_surface_unknown_key_is_named(self):
        with pytest.raises(ValidationError, match="smile"):
            surface_from_config({"family": "constant", "sigma": 0.2, "smile": 1})

    @pytest.mark.parametrize(
        "cfg",
        [
            {"family": "call", "strike": 100.0},
            {"family": "put", "strike": 90.0},
            {"family": "power-call", "strike": 100.0, "exponent": 0.75},
            {"family": "capped-power", "strike": 100.0, "exponent": 0.5, "cap_width": 100.0},
            {"family": "linear", "slope": 1.0, "intercept": 0.0},
            {"family": "constant", "level": 2.0},
            {"family": "user-table", "table_x": [50.0, 150.0], "table_y": [0.0, 1.0]},
        ],
    )
    def test_payoff_round_trip(self, cfg):
        p = payoff_from_config(cfg)
        assert payoff_from_config(p.to_config()).to_config() == p.to_config()

    def test_payoff_missing_key(self):
        with pytest.raises(ValidationError, match="strike"):
            payoff_from_config({"family": "call"})

    def test_optional_keys_take_their_defaults(self):
        assert payoff_from_config({"family": "linear"}) == PayoffSpec(
            "linear", slope=1.0, intercept=0.0
        )
        assert surface_from_config({"family": "time-scaled", "c0": 0.2}).to_config() == {
            "family": "time-scaled", "c0": 0.2, "c1": 0.0, "c2": 0.0,
        }


# the hand-written to_config output of one instance per family, pinned key
# order and value types included: the configs derived from the family
# tables must reproduce it exactly
GOLDEN_CONFIGS = [
    (PayoffSpec("call", strike=100.0), {"family": "call", "strike": 100.0}),
    (PayoffSpec("put", strike=95.0), {"family": "put", "strike": 95.0}),
    (
        PayoffSpec("power-call", strike=100.0, exponent=0.5),
        {"family": "power-call", "strike": 100.0, "exponent": 0.5},
    ),
    (
        PayoffSpec("capped-power", strike=100.0, exponent=0.3, cap_width=5.0),
        {"family": "capped-power", "strike": 100.0, "exponent": 0.3, "cap_width": 5.0},
    ),
    (
        PayoffSpec("linear", slope=2.0, intercept=-1.0),
        {"family": "linear", "slope": 2.0, "intercept": -1.0},
    ),
    (PayoffSpec("constant", level=3.0), {"family": "constant", "level": 3.0}),
    (
        PayoffSpec("user-table", table_x=(50.0, 100.0, 150.0), table_y=(0.0, 0.0, 50.0)),
        {"family": "user-table", "table_x": [50.0, 100.0, 150.0], "table_y": [0.0, 0.0, 50.0]},
    ),
    (ConstantVol(0.2), {"family": "constant", "sigma": 0.2}),
    (
        TimeScaledVol(0.2, 0.1, 0.05),
        {"family": "time-scaled", "c0": 0.2, "c1": 0.1, "c2": 0.05},
    ),
    (
        CappedPowerVol(0.25, 100.0, 0.5, 0.1, 0.6),
        {"family": "capped-power", "sref": 0.25, "xref": 100.0, "exponent": 0.5,
         "floor": 0.1, "cap": 0.6},
    ),
    (
        TabulatedVol([0.0, 1.0], [50.0, 150.0], [[0.2, 0.3], [0.4, 0.5]]),
        {"family": "tabulated-grid", "ts": [0.0, 1.0], "xs": [50.0, 150.0],
         "values": [[0.2, 0.3], [0.4, 0.5]]},
    ),
]


@pytest.mark.parametrize(
    "obj, golden",
    GOLDEN_CONFIGS,
    ids=[f"{type(obj).__name__}-{obj.family}" for obj, _ in GOLDEN_CONFIGS],
)
def test_golden_to_config(obj, golden):
    cfg = obj.to_config()
    assert cfg == golden
    assert repr(cfg) == repr(golden)  # key order and plain Python types too
