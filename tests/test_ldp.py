"""Tests for the rate-function solvers and the decay-slope regression."""

import math

import numpy as np
import pytest
import yaml

from asianvol import cli, ldp
from asianvol.errors import DomainError, ValidationError
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


class _RecordingSkew(CappedPowerVol):
    """SKEW that records the order and the levels of every sigma call."""

    def __init__(self):
        super().__init__(sref=0.2, xref=100.0, exponent=0.3, floor=0.05, cap=1.0)
        self.calls = []

    def sigma(self, t, x, order=0):
        self.calls.append((order, np.array(x, dtype=float, ndmin=1)))
        return super().sigma(t, x, order)


class TestNoDifferenceStencil:
    """Both solvers take sigma and a' from one fused call per evaluation."""

    @pytest.mark.parametrize("solve", [rate_function, rate_function_shooting],
                             ids=["direct", "shooting"])
    def test_every_call_is_order_one_at_unperturbed_levels(self, solve):
        surface = _RecordingSkew()
        solve(problem_from_surface(surface, 110.0, 100.0, grid_n=50))
        assert surface.calls
        assert {order for order, _ in surface.calls} == {1}
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
