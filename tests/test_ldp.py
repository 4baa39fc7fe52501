"""Tests for the rate-function solvers and the decay-slope regression."""

import math

import numpy as np
import pytest
import scipy.linalg
import yaml
from scipy.optimize import brentq

from asianvol import cli, ldp
from asianvol.errors import DomainError, NumericError, ValidationError
from asianvol.ldp import (
    DecayReport,
    RateFunctionProblem,
    decay_slope,
    problem_from_surface,
    rate_function,
    rate_function_shooting,
)
from asianvol.model import CappedPowerVol, ConstantVol, TimeScaledVol

SKEW = CappedPowerVol(sref=0.2, xref=100.0, exponent=0.3, floor=0.05, cap=1.0)
STEEP = CappedPowerVol(sref=0.2, xref=100.0, exponent=1.5, floor=0.05, cap=0.6)

# cross-validated solver/oracle values, frozen (sigma, y, x) -> I
BS_VALUES = {
    (0.3, 100.0, 80.0): 0.869172491777414,
    (0.3, 100.0, 125.0): 0.7948934297943382,
    (0.3, 100.0, 90.0): 0.18902166377137394,
    (0.3, 100.0, 110.0): 0.14858445398446657,
}
SKEW_VALUES = {110.0: 0.3460100116761436, 80.0: 1.8054858378489544}


def bs_problem(x, y=100.0, sigma=0.3, grid_n=200):
    return problem_from_surface(ConstantVol(sigma), x, y, grid_n=grid_n)


# ---------------------------------------------------------------------------
# problem validation
# ---------------------------------------------------------------------------

class TestProblemValidation:
    @pytest.mark.parametrize("x, y", [(0.0, 100.0), (100.0, -1.0), (-5.0, 100.0)])
    def test_positive_levels_required(self, x, y):
        with pytest.raises(ValidationError, match="positive"):
            RateFunctionProblem(surface=ConstantVol(0.3), x=x, y=y)

    def test_grid_n_validated(self):
        with pytest.raises(ValidationError, match="grid_n"):
            bs_problem(110.0, grid_n=1)

    def test_a_non_surface_is_a_validation_error(self):
        for surface in (0.3, lambda lvl: 0.3, None):
            with pytest.raises(ValidationError, match="LocalVolSurface"):
                RateFunctionProblem(surface=surface, x=110.0, y=100.0)

    def test_time_dependent_surface_rejected(self):
        with pytest.raises(ValidationError, match="time-independent"):
            problem_from_surface(TimeScaledVol(c0=0.2, c1=0.1, c2=0.0), 110.0, 100.0)

    def test_nonpositive_sigma_is_domain_error(self):
        with pytest.raises(DomainError, match="sigma"):
            rate_function(problem_from_surface(ConstantVol(0.0), 110.0, 100.0))


# ---------------------------------------------------------------------------
# the weight w = sigma^-2 and its g-derivative
# ---------------------------------------------------------------------------

class TestWeight:
    # SKEW is on its power branch for 0.05 < 0.2 (x/100)^-0.3 < 1.0, that is
    # for x in about (0.47, 10,159); below it is capped, above it floored
    POWER = np.array([1.0, 50.0, 100.0, 180.0, 5000.0])
    CLIPPED = np.array([0.01, 0.3, 2e4, 1e6])

    @pytest.mark.parametrize("levels", [POWER, *POWER], ids=["array", *map(str, POWER)])
    def test_power_branch_is_two_exponent_w(self, levels):
        w, wp = ldp._weight(SKEW, levels)
        assert np.shape(w) == np.shape(wp) == np.shape(levels)
        np.testing.assert_allclose(wp, 2.0 * SKEW.exponent * np.asarray(w), rtol=1e-13, atol=0.0)
        np.testing.assert_array_equal(w, SKEW.sigma(0.0, levels) ** -2.0)

    @pytest.mark.parametrize("levels", [CLIPPED, *CLIPPED], ids=["array", *map(str, CLIPPED)])
    def test_clipped_branches_have_zero_derivative(self, levels):
        w, wp = ldp._weight(SKEW, levels)
        np.testing.assert_array_equal(wp, 0.0)
        np.testing.assert_array_equal(w, np.where(np.asarray(levels) < 1.0, 1.0, 0.05**-2.0))

    @pytest.mark.parametrize("levels", [np.array([0.5, 100.0, 3e5]), 0.5, 100.0, 3e5],
                             ids=["array", "0.5", "100", "3e5"])
    def test_constant_vol_has_exactly_zero_derivative(self, levels):
        w, wp = ldp._weight(ConstantVol(0.3), levels)
        assert np.all(wp == 0.0)
        assert np.all(w == 0.3**-2.0)


class TestActionHessian:
    """The assembled Hessian and w'' against central differences of the
    analytic gradient and of w'.  Step 1e-6 in g: O(1e-12) truncation and
    O(1e-16 / 1e-6) relative rounding, inside the tolerances."""

    EPS = 1e-6
    # a curved path on 20 intervals; its levels (68 to 222) keep SKEW on
    # its power branch, where w' = 0.6 w and w'' = 0.36 w
    T = np.linspace(0.0, 1.0, 21)
    G = math.log(100.0) + 0.8 * np.sin(3.0 * T) - 0.5 * T**2

    @pytest.mark.parametrize("surface", [ConstantVol(0.3), SKEW], ids=["constant", "power"])
    def test_tridiagonal_hessian_is_the_gradient_difference(self, surface):
        _, _, diag, off = ldp._action(surface, self.G)
        hess = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        fd = np.empty_like(hess)
        for j, e in enumerate(np.eye(len(self.G)) * self.EPS):
            up, down = ldp._action(surface, self.G + e)[1], ldp._action(surface, self.G - e)[1]
            fd[:, j] = (up - down) / (2.0 * self.EPS)
        np.testing.assert_allclose(hess, fd, rtol=1e-7, atol=1e-6)

    @pytest.mark.parametrize("surface", [ConstantVol(0.3), SKEW], ids=["constant", "power"])
    def test_w_second_derivative_is_the_w_prime_difference(self, surface):
        lvl = np.exp(self.G)
        wpp = ldp._weight(surface, lvl, 2)[2]
        up = ldp._weight(surface, lvl * math.exp(self.EPS))[1]
        down = ldp._weight(surface, lvl * math.exp(-self.EPS))[1]
        np.testing.assert_allclose(wpp, (up - down) / (2.0 * self.EPS), rtol=1e-7, atol=1e-9)


class _RecordingSkew(CappedPowerVol):
    """SKEW that records the order and the levels of every sigma call."""

    def __init__(self):
        super().__init__(sref=0.2, xref=100.0, exponent=0.3, floor=0.05, cap=1.0)
        self.calls = []

    def sigma(self, t, x, order=0):
        self.calls.append((order, np.array(x, dtype=float, ndmin=1)))
        return super().sigma(t, x, order)


class TestNoDifferenceStencil:
    """Both solvers take their coefficients from one fused call per evaluation:
    the direct solver at order 2 (its Newton steps read w''), the shooting
    oracle at order 1."""

    @pytest.mark.parametrize("solve, orders", [(rate_function, {2}), (rate_function_shooting, {1})],
                             ids=["direct", "shooting"])
    def test_every_call_is_order_one_at_unperturbed_levels(self, solve, orders):
        surface = _RecordingSkew()
        solve(problem_from_surface(surface, 110.0, 100.0, grid_n=50))
        assert surface.calls
        assert {order for order, _ in surface.calls} == orders
        levels = np.unique(np.concatenate([lvl for _, lvl in surface.calls]))
        for rel in (1e-6, -1e-6):
            # the nearest visited level to each lvl*(1 + rel): a difference
            # stencil would have visited it to within rounding
            bumped = levels * (1.0 + rel)
            i = np.clip(np.searchsorted(levels, bumped), 1, len(levels) - 1)
            gap = np.minimum(abs(levels[i] - bumped), abs(levels[i - 1] - bumped)) / bumped
            assert gap.min() > 1e-13, (rel, levels[np.argmin(gap)])


# ---------------------------------------------------------------------------
# direct solver
# ---------------------------------------------------------------------------

class TestRateFunction:
    def test_trivial_at_target_equal_start(self):
        res = rate_function(bs_problem(100.0))
        assert res.value <= 1e-8
        assert res.converged
        assert np.allclose(res.g, math.log(100.0), atol=1e-6)

    def test_value_nonnegative_and_constraint_met(self):
        res = rate_function(bs_problem(115.0, grid_n=100))
        assert res.value >= 0.0
        assert res.constraint_residual <= 1e-8
        assert res.converged

    @pytest.mark.parametrize("key, expected", sorted(BS_VALUES.items()))
    def test_constant_sigma_reference_values(self, key, expected):
        sigma, y, x = key
        res = rate_function(bs_problem(x, y=y, sigma=sigma, grid_n=200))
        assert res.converged
        assert abs(res.value - expected) / expected < 1e-3, (
            f"I({x},{y}) = {res.value:.8f}, expected {expected:.8f}"
        )

    def test_scaling_invariance_for_constant_sigma(self):
        a = rate_function(bs_problem(125.0, y=100.0, grid_n=200)).value
        b = rate_function(bs_problem(250.0, y=200.0, grid_n=200)).value
        assert abs(a - b) < 1e-6

    def test_monotone_in_target_around_start(self):
        grid = [70.0, 80.0, 90.0, 95.0, 100.0, 105.0, 110.0, 120.0, 130.0]
        vals = [rate_function(bs_problem(x, grid_n=100)).value for x in grid]
        below = vals[: grid.index(100.0) + 1]
        above = vals[grid.index(100.0):]
        assert all(a >= b - 1e-6 for a, b in zip(below, below[1:])), vals
        assert all(b >= a - 1e-6 for a, b in zip(above, above[1:])), vals

    def test_grid_refinement_contracts(self):
        vals = {n: rate_function(bs_problem(110.0, grid_n=n)).value for n in (50, 100, 200, 400)}
        d1 = abs(vals[100] - vals[50])
        d2 = abs(vals[200] - vals[100])
        d3 = abs(vals[400] - vals[200])
        assert d1 / d2 >= 2.0 and d2 / d3 >= 2.0, (d1, d2, d3)

    def test_refinement_monotone_toward_oracle(self):
        oracle = rate_function_shooting(bs_problem(110.0))
        vals = [rate_function(bs_problem(110.0, grid_n=n)).value for n in (50, 100, 200)]
        gaps = [v - oracle for v in vals]
        assert all(g > 0 for g in gaps), "direct values should bound the oracle from above"
        assert gaps[0] > gaps[1] > gaps[2]

    def test_budget_exhaustion_reports_not_converged(self, monkeypatch):
        monkeypatch.setattr(ldp, "_MAX_OUTER", 1)
        monkeypatch.setattr(ldp, "_PENALTY0", 1.0)
        res = rate_function(bs_problem(120.0))
        assert not res.converged
        assert res.constraint_residual > 1e-8

    def test_capped_power_surface(self):
        for x, expected in SKEW_VALUES.items():
            res = rate_function(problem_from_surface(SKEW, x, 100.0, grid_n=200))
            assert res.converged
            assert abs(res.value - expected) / expected < 1e-3

    def test_grid_200_solve_makes_at_most_100_surface_calls(self):
        surface = _RecordingSkew()
        rate_function(problem_from_surface(surface, 110.0, 100.0, grid_n=200))
        assert 0 < len(surface.calls) <= 100


class TestHardTargets:
    """Far targets on flat, skewed and steep surfaces."""

    @pytest.mark.parametrize("surface, x", [
        (ConstantVol(0.3), 40.0), (ConstantVol(0.3), 400.0), (SKEW, 40.0), (SKEW, 400.0),
        (STEEP, 40.0), (STEEP, 140.0),
    ], ids=["flat-40", "flat-400", "skew-40", "skew-400", "steep-40", "steep-140"])
    def test_converges_and_agrees_with_shooting(self, surface, x):
        problem = problem_from_surface(surface, x, 100.0, grid_n=200)
        res = rate_function(problem)
        assert res.converged, (res.constraint_residual, res.el_residual)
        oracle = rate_function_shooting(problem)
        assert abs(res.value - oracle) / oracle < 1e-3  # c07's oracle_tol

    def test_flat_far_call_needs_the_levenberg_shift(self, monkeypatch):
        # the tridiagonal part is indefinite there: without the shift tau I
        # its Cholesky factorization has nothing to fall back on
        failures = []

        def recording(ab, b, **kwargs):
            try:
                return scipy.linalg.solveh_banded(ab, b, **kwargs)
            except scipy.linalg.LinAlgError:
                failures.append(ab)
                raise

        monkeypatch.setattr(ldp, "solveh_banded", recording)
        assert rate_function(bs_problem(400.0)).converged
        assert failures

    def test_steep_x60_returns_not_converged(self):
        # the path crosses the cap's kink at x = 48, where w' jumps
        res = rate_function(problem_from_surface(STEEP, 60.0, 100.0, grid_n=200))
        assert not res.converged
        # the oracle, split at the kink, pins the stall's error
        oracle = rate_function_shooting(problem_from_surface(STEEP, 60.0, 100.0))
        assert abs(oracle - 4.5347149) / 4.5347149 < 1e-7
        assert abs(res.value - oracle) / oracle < 1e-4


# ---------------------------------------------------------------------------
# shooting oracle
# ---------------------------------------------------------------------------

class TestShooting:
    def test_trivial(self):
        assert rate_function_shooting(bs_problem(100.0)) == 0.0

    @pytest.mark.parametrize("key, expected", sorted(BS_VALUES.items()))
    def test_constant_sigma_reference_values(self, key, expected):
        sigma, y, x = key
        val = rate_function_shooting(bs_problem(x, y=y, sigma=sigma))
        assert abs(val - expected) / expected < 1e-9

    def test_capped_power_reference_values(self):
        for x, expected in SKEW_VALUES.items():
            val = rate_function_shooting(problem_from_surface(SKEW, x, 100.0))
            assert abs(val - expected) / expected < 1e-9

    def test_agreement_with_direct_solver(self):
        for x in (80.0, 125.0):
            direct = rate_function(bs_problem(x, grid_n=200)).value
            shoot = rate_function_shooting(bs_problem(x))
            assert abs(direct - shoot) / shoot < 1e-3


class TestEnergyOracle:
    def test_cost_at_most_200_surface_calls_of_64_levels(self):
        surface = _RecordingSkew()
        rate_function_shooting(problem_from_surface(surface, 110.0, 100.0))
        assert 0 < len(surface.calls) <= 200
        assert min(len(lvl) for _, lvl in surface.calls) >= 64

    def test_steep_value_needs_the_kink_split(self, monkeypatch):
        # x = 40 takes the path across the cap's kink at 48.07
        problem = problem_from_surface(STEEP, 40.0, 100.0)
        assert abs(rate_function_shooting(problem) - 11.0901424) / 11.0901424 < 1e-7
        monkeypatch.setattr(CappedPowerVol, "kinks", lambda self: ())
        assert abs(rate_function_shooting(problem) - 11.0901424) / 11.0901424 > 1e-5

    def test_no_endpoint_is_a_numeric_error(self):
        # sigma rises as x^3 to a cap of 1e300, where w = sigma^-2 underflows
        # to 0: the path crosses that branch in no time, so no endpoint b
        # gives an average of 400
        surface = CappedPowerVol(sref=0.2, xref=100.0, exponent=-3.0, floor=0.05, cap=1e300)
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="bracketed"):
            rate_function_shooting(problem_from_surface(surface, 400.0, 100.0))


# ---------------------------------------------------------------------------
# flat-sigma closed form
# ---------------------------------------------------------------------------

def flat_closed_form(sigma, x, y):
    """I(x, y) for flat sigma (Pirjol & Zhu, SIAM J. Financial Math. 7, 2016).

    With k = x / y: for k >= 1 solve sinh(b) / b = k, then
    I = (b^2 / 2 - b tanh(b / 2)) / sigma^2; for k < 1 solve
    sin(2c) / (2c) = k, then I = 2c (tan(c) - c) / sigma^2.
    """
    k = x / y
    if k >= 1.0:
        b = brentq(lambda b: math.sinh(b) / b - k, 1e-9, 50.0, xtol=1e-15)
        return (0.5 * b * b - b * math.tanh(0.5 * b)) / sigma**2
    c = brentq(lambda c: math.sin(2.0 * c) / (2.0 * c) - k, 1e-9, 0.5 * math.pi, xtol=1e-15)
    return 2.0 * c * (math.tan(c) - c) / sigma**2


class TestFlatClosedForm:
    """Both solvers against the closed form, sigma 0.3, y 100."""

    XS = [40.0, 80.0, 90.0, 110.0, 125.0, 400.0]

    @pytest.mark.parametrize("x", XS)
    def test_oracle_within_1e10(self, x):
        exact = flat_closed_form(0.3, x, 100.0)
        assert abs(rate_function_shooting(bs_problem(x)) - exact) / exact <= 1e-10

    @pytest.mark.parametrize("x", XS)
    def test_direct_grid_200_within_1e4(self, x):
        exact = flat_closed_form(0.3, x, 100.0)
        assert abs(rate_function(bs_problem(x, grid_n=200)).value - exact) / exact <= 1e-4


# ---------------------------------------------------------------------------
# decay-slope regression
# ---------------------------------------------------------------------------

class TestDecaySlope:
    T = np.array([0.5, 0.25, 0.125, 0.0625, 0.03125])

    def test_pure_exponential(self):
        rep = decay_slope(self.T, np.exp(-0.5 / self.T), I_ref=0.5)
        assert isinstance(rep, DecayReport)
        assert abs(rep.limit - (-0.5)) < 0.01 * 0.5
        assert rep.gap < 1e-10

    def test_sqrt_prefactor(self):
        values = np.sqrt(self.T) * np.exp(-0.8 / self.T)
        rep = decay_slope(self.T, values, I_ref=0.8)
        assert abs(rep.limit - (-0.8)) < 0.05 * 0.8
        assert abs(rep.coefficients[1] - 0.5) < 1e-8  # the T log T slope is q

    def test_power_prefactor_recovery(self):
        values = 2.3 * self.T**1.3 * np.exp(-1.3 / self.T)
        rep = decay_slope(self.T, values, I_ref=1.3)
        assert rep.gap < 1e-8
        assert abs(rep.coefficients[1] - 1.3) < 1e-8

    def test_nonpositive_values_rejected(self):
        with pytest.raises(DomainError, match="positive"):
            decay_slope(self.T, np.array([1.0, 0.5, 0.0, 0.1, 0.1]), 0.5)

    def test_increasing_grid_rejected(self):
        with pytest.raises(ValidationError, match="decreasing"):
            decay_slope(self.T[::-1], np.ones(5), 0.5)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValidationError, match="3 points"):
            decay_slope([0.5, 0.25], [0.1, 0.05], 0.5)


# ---------------------------------------------------------------------------
# output format
# ---------------------------------------------------------------------------

class TestOutputs:
    def test_path_csv_and_summary(self, tmp_path):
        # the CLI run of bs_problem(110.0, grid_n=50)
        out = tmp_path / "out"
        rc = cli.main(["ldp", f"--output.dir={out}", "--model.surface.sigma=0.3",
                       "--experiment.x=110.0", "--experiment.grid_n=50",
                       "--experiment.oracle=false"])
        assert rc == 0
        text = (out / "path.csv").read_text()
        lines = [ln for ln in text.splitlines() if not ln.startswith("# ")]
        assert lines[0] == "t,g"
        assert len(lines) == 52
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(math.log(100.0), abs=1e-15)
        summary = yaml.safe_load((out / "summary.yaml").read_text())
        assert {"value", "constraint_residual", "el_residual", "converged"} <= set(summary)
        assert summary["value"] == rate_function(bs_problem(110.0, grid_n=50)).value
