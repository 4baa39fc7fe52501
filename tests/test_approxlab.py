"""Tests for the coupled-pair L^p distance curves and exponent fits."""

import math

import numpy as np
import pytest

from asianvol import cli
from asianvol.approxlab import (
    PAIRS,
    DistanceCurve,
    lp_distance_curve,
    refined_fit,
    scaling_exponent,
)
from asianvol.errors import ValidationError
from asianvol.model import CappedPowerVol, ConstantVol, MarketParams
from asianvol.montecarlo import SimConfig

FLAT = MarketParams(S0=100.0, r=0.0, q=0.0)
DRIFTY = MarketParams(S0=100.0, r=0.05, q=0.0)
SKEW = CappedPowerVol(sref=0.2, xref=100.0, exponent=0.3, floor=0.05, cap=1.0)
BS = ConstantVol(0.2)
T_GRID = np.geomspace(0.01, 0.5, 8)


def synthetic_curve(t, moments):
    t = np.asarray(t, dtype=float)
    m = np.asarray(moments, dtype=float)
    return DistanceCurve(
        pair=("X", "Xt"), p=2.0, t=t, moments=m,
        std_errors=np.zeros_like(m), n_paths=1, seed=0, steps=1,
    )


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------

class TestValidation:
    def test_unknown_pair(self):
        with pytest.raises(ValidationError, match="pair"):
            lp_distance_curve(BS, FLAT, ("S", "Xh"), 2.0, T_GRID, SimConfig(10, 10, 0))

    def test_nonpositive_p(self):
        with pytest.raises(ValidationError, match="p must"):
            lp_distance_curve(BS, FLAT, ("S", "X"), 0.0, T_GRID, SimConfig(10, 10, 0))

    @pytest.mark.parametrize(
        "grid", [[0.5, 0.1], [0.1, 0.1, 0.2], [0.0, 0.1], [0.5, 1.5], []]
    )
    def test_bad_grids(self, grid):
        with pytest.raises(ValidationError, match="t_grid"):
            lp_distance_curve(BS, FLAT, ("S", "X"), 2.0, grid, SimConfig(10, 10, 0))


# ---------------------------------------------------------------------------
# exponent fitting on synthetic curves
# ---------------------------------------------------------------------------

class TestScalingExponent:
    def test_exact_quadratic(self):
        t = np.geomspace(0.01, 0.5, 10)
        fit = scaling_exponent(synthetic_curve(t, 3.7 * t**2))
        assert fit.status == "ok"
        assert abs(fit.slope - 2.0) < 1e-10
        assert abs(fit.intercept - math.log(3.7)) < 1e-10
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_zero_curve_is_degenerate(self):
        t = np.geomspace(0.01, 0.5, 5)
        fit = scaling_exponent(synthetic_curve(t, np.zeros(5)))
        assert fit.status == "degenerate-curve"
        assert math.isnan(fit.slope)

    def test_single_zero_moment_is_degenerate(self):
        t = np.geomspace(0.01, 0.5, 5)
        m = t**2
        m[2] = 0.0
        assert scaling_exponent(synthetic_curve(t, m)).status == "degenerate-curve"


# ---------------------------------------------------------------------------
# simulated curves
# ---------------------------------------------------------------------------

class TestCurves:
    def test_identical_dynamics_give_zero_curve(self):
        # constant sigma: X and Xt share the same exact update
        cfg = SimConfig(steps=50, n_paths=2000, seed=3)
        c = lp_distance_curve(BS, FLAT, ("X", "Xt"), 2.0, T_GRID, cfg)
        assert np.all(c.moments == 0.0)
        assert scaling_exponent(c).status == "degenerate-curve"

    def test_lognormal_vs_gaussian_curve_shape(self):
        cfg = SimConfig(steps=50, n_paths=20000, seed=3)
        c = lp_distance_curve(BS, FLAT, ("Xt", "Xh"), 2.0, T_GRID, cfg)
        assert np.all(c.moments > 0.0)
        assert np.all(np.diff(c.moments) > 0.0), "moment curve should increase in t"

    def test_drift_removal_curve_vanishes_at_short_t(self):
        cfg = SimConfig(steps=50, n_paths=20000, seed=3)
        c = lp_distance_curve(BS, DRIFTY, ("S", "X"), 2.0, T_GRID, cfg)
        assert np.all(c.moments > 0.0)
        assert c.moments[0] < 1e-2 * c.moments[-1]

    @pytest.mark.parametrize(
        "pair, surface, params",
        [
            (("S", "X"), BS, DRIFTY),
            (("X", "Xt"), SKEW, FLAT),
            (("Xt", "Xh"), BS, FLAT),
            (("Y", "Yt"), SKEW, FLAT),
            (("Yt", "Yh"), BS, FLAT),
        ],
    )
    def test_squared_distance_scales_at_least_quadratically(self, pair, surface, params):
        cfg = SimConfig(steps=100, n_paths=20000, seed=5)
        fit = scaling_exponent(lp_distance_curve(surface, params, pair, 2.0, T_GRID, cfg))
        assert fit.status == "ok"
        assert fit.slope >= 1.85, f"{pair}: slope {fit.slope:.3f}"
        assert fit.r_squared >= 0.95, f"{pair}: r2 {fit.r_squared:.4f}"

    def test_first_moment_scales_at_least_linearly(self):
        cfg = SimConfig(steps=100, n_paths=20000, seed=5)
        fit = scaling_exponent(lp_distance_curve(SKEW, FLAT, ("X", "Xt"), 1.0, T_GRID, cfg))
        assert fit.slope >= 0.85, f"p=1 slope {fit.slope:.3f}"
        assert fit.r_squared >= 0.95

    def test_deterministic_given_seed_and_config(self):
        cfg = SimConfig(steps=40, n_paths=15000, seed=9, threads=1)
        a = lp_distance_curve(SKEW, FLAT, ("Y", "Yt"), 2.0, T_GRID, cfg)
        b = lp_distance_curve(SKEW, FLAT, ("Y", "Yt"), 2.0, T_GRID, cfg)
        par = lp_distance_curve(
            SKEW, FLAT, ("Y", "Yt"), 2.0, T_GRID, SimConfig(40, 15000, 9, threads=4)
        )
        assert np.array_equal(a.moments, b.moments)
        assert np.array_equal(a.moments, par.moments)
        assert np.array_equal(a.std_errors, par.std_errors)


# ---------------------------------------------------------------------------
# step-doubling stability
# ---------------------------------------------------------------------------

class TestRefinedFit:
    def test_stable_fit_under_step_doubling(self):
        cfg = SimConfig(steps=60, n_paths=20000, seed=7)
        out = refined_fit(BS, FLAT, ("Xt", "Xh"), 2.0, T_GRID, cfg)
        assert out["stable"], (
            f"slopes {out['fit'].slope:.3f} vs {out['fit_refined'].slope:.3f}"
        )
        assert out["curve_refined"].steps == 120

    def test_degenerate_pair_is_not_stable(self):
        cfg = SimConfig(steps=20, n_paths=2000, seed=7)
        out = refined_fit(BS, FLAT, ("X", "Xt"), 2.0, T_GRID, cfg)
        assert not out["stable"]
        assert out["fit"].status == "degenerate-curve"


# ---------------------------------------------------------------------------
# output format
# ---------------------------------------------------------------------------

class TestCsv:
    def test_header_and_precision(self, tmp_path, monkeypatch):
        # verify-approx writes the curve it is handed; hand it a known one
        t = np.array([0.25, 0.5])
        c = synthetic_curve(t, [1.0 / 3.0, 4.0 / 3.0])
        fit = scaling_exponent(c)
        monkeypatch.setattr(cli, "refined_fit", lambda *a, **k: {
            "curve": c, "curve_refined": c, "fit": fit, "fit_refined": fit, "stable": True})
        out = tmp_path / "out"
        assert cli.main(["verify-approx", f"--output.dir={out}"]) == 0
        text = (out / "approx_curve.csv").read_text()
        lines = [ln for ln in text.splitlines() if not ln.startswith("# ")]
        assert lines[0] == "t,moment,std_error"
        assert len(lines) == 3
        assert float(lines[1].split(",")[1]) == 1.0 / 3.0
