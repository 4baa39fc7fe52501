"""Tests for order-of-convergence fits and the comparison experiment."""

import math

import numpy as np
import pytest

from asianvol import cli, harness
from asianvol.errors import ValidationError
from asianvol.harness import (
    DEFAULT_T_GRID,
    CompareTable,
    asymptotics_error_study,
    compare_experiment,
    convergence_report,
    _bs_price,
)
from asianvol.model import CappedPowerVol, ConstantVol, MarketParams, PayoffSpec
from asianvol.montecarlo import SimConfig

FLAT = MarketParams(S0=100.0, r=0.0, q=0.0)
CALL = PayoffSpec("call", strike=100.0)
T_GRID = np.geomspace(0.0125, 0.2, 8)[::-1]


def rows_from(t, values, std_errors=None):
    se = np.zeros_like(values) if std_errors is None else std_errors
    return list(zip(t, values, se))


def never_estimate(monkeypatch):
    """Make every Monte Carlo estimator the harness calls fail if it runs."""
    def never(*args, **kwargs):
        raise AssertionError("an estimate ran")

    for name in ("mc_price", "mc_asian_price_cv", "mc_delta_fd", "mc_delta_malliavin"):
        monkeypatch.setattr(harness, name, never)


# ---------------------------------------------------------------------------
# convergence_report
# ---------------------------------------------------------------------------

class TestConvergenceReport:
    def test_exact_linear_decay(self):
        rep = convergence_report(rows_from(T_GRID, 3.0 * T_GRID), 1.0, slack=0.05)
        assert rep.status == "ok"
        assert abs(rep.fitted_order - 1.0) < 0.02
        assert rep.r_squared > 0.999
        assert rep.verdict

    def test_sqrt_decay_with_multiplicative_noise(self):
        rng = np.random.default_rng(2024)
        values = 0.7 * np.sqrt(T_GRID) * np.exp(0.01 * rng.standard_normal(len(T_GRID)))
        rep = convergence_report(rows_from(T_GRID, values, 0.01 * values), 0.5, slack=0.05)
        assert abs(rep.fitted_order - 0.5) < 0.05
        assert rep.verdict

    def test_all_noise_dominated_is_insufficient(self):
        values = np.full(len(T_GRID), 1e-4)
        rep = convergence_report(rows_from(T_GRID, values, values), 1.0)
        assert rep.status == "insufficient-data"
        assert not rep.verdict
        assert math.isnan(rep.fitted_order)
        assert len(rep.dropped) == len(T_GRID)
        assert "insufficient" in rep.describe()

    def test_partial_drop_keeps_fit(self):
        values = 3.0 * T_GRID.copy()
        se = np.zeros_like(values)
        se[-1] = values[-1]  # last point noise-dominated
        rep = convergence_report(rows_from(T_GRID, values, se), 1.0)
        assert rep.status == "ok"
        assert len(rep.dropped) == 1
        assert len(rep.t) == len(T_GRID) - 1
        assert abs(rep.fitted_order - 1.0) < 0.02

    def test_fewer_than_four_points_rejected(self):
        with pytest.raises(ValidationError, match="4 grid points"):
            convergence_report(rows_from(T_GRID[:3], T_GRID[:3]), 1.0)

    def test_nonpositive_t_rejected(self):
        rows = [(0.1, 1.0, 0.0), (0.05, 0.5, 0.0), (-0.02, 0.2, 0.0), (0.01, 0.1, 0.0)]
        with pytest.raises(ValidationError, match="positive"):
            convergence_report(rows, 1.0)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(7)
        values = T_GRID ** 0.7 * np.exp(0.05 * rng.standard_normal(len(T_GRID)))
        se = 0.03 * values
        a = convergence_report(rows_from(T_GRID, values, se), 0.7)
        b = convergence_report(rows_from(T_GRID, 123.0 * values, 123.0 * se), 0.7)
        assert a.fitted_order == pytest.approx(b.fitted_order, abs=1e-12)
        assert b.intercept - a.intercept == pytest.approx(math.log(123.0), abs=1e-9)
        assert a.r_squared == pytest.approx(b.r_squared, abs=1e-12)

    def test_verdict_uses_slack(self):
        values = T_GRID ** 0.9
        assert convergence_report(rows_from(T_GRID, values), 1.0, slack=0.2).verdict
        assert not convergence_report(rows_from(T_GRID, values), 1.0, slack=0.05).verdict


# ---------------------------------------------------------------------------
# MC error studies
# ---------------------------------------------------------------------------

class TestErrorStudy:
    def test_validation(self):
        cfg = SimConfig(10, 10, 0)
        with pytest.raises(ValidationError, match="style"):
            asymptotics_error_study(ConstantVol(0.2), FLAT, CALL, "geometric", "price",
                                    DEFAULT_T_GRID, cfg, 1.0)
        with pytest.raises(ValidationError, match="estimator"):
            asymptotics_error_study(ConstantVol(0.2), FLAT, CALL, "asian", "likelihood",
                                    DEFAULT_T_GRID, cfg, 1.0)

    @pytest.mark.parametrize("key, value", [("hypothesized_order", math.inf), ("slack", math.nan)])
    @pytest.mark.parametrize("estimator", ["price", "delta-fd", "delta-malliavin"])
    def test_a_non_finite_hypothesis_fails_before_any_estimate(self, monkeypatch, key, value,
                                                               estimator):
        never_estimate(monkeypatch)
        hypothesis = {"hypothesized_order": 1.0, "slack": 0.2, key: value}
        with pytest.raises(ValidationError, match=f"^{key} must be finite, got {value}$"):
            asymptotics_error_study(ConstantVol(0.2), FLAT, CALL, "asian", estimator,
                                    DEFAULT_T_GRID, SimConfig(10, 10, 0), **hypothesis)

    def test_atm_delta_gap_scales_like_sqrt_t(self):
        # ATM Asian call delta sits sqrt(T)-close to 1/2
        cfg = SimConfig(steps=50, n_paths=20000, seed=41)
        report, rows = asymptotics_error_study(
            ConstantVol(0.4), FLAT, CALL, "asian", "delta-fd",
            DEFAULT_T_GRID, cfg, hypothesized_order=0.5, slack=0.2,
        )
        assert report.status == "ok", report.describe()
        assert report.verdict, report.describe()
        assert rows[0]["ref"] == pytest.approx(0.5)
        # path counts grow as T shrinks
        assert rows[-1]["n_paths"] > rows[0]["n_paths"]

    def test_asian_price_rows_share_compare_estimates(self):
        # both studies price the Asian option with the controlled estimator,
        # so their MC columns agree bit for bit on the same paths
        cfg = SimConfig(steps=25, n_paths=3000, seed=9)
        grid = (0.2, 0.1, 0.05, 0.025)
        _, rows = asymptotics_error_study(
            ConstantVol(0.2), FLAT, CALL, "asian", "price", grid, cfg, 1.0
        )
        tab = compare_experiment(ConstantVol(0.2), FLAT, CALL, grid, cfg)
        assert [r["mc"] for r in rows] == list(tab.mc)
        assert [r["std_error"] for r in rows] == list(tab.std_errors)
        assert all(r["diagnostics"]["vr_factor"] > 100.0 for r in rows)

    def test_insufficient_data_at_tiny_path_counts(self):
        cfg = SimConfig(steps=20, n_paths=500, seed=1)
        report, _ = asymptotics_error_study(
            ConstantVol(0.2), FLAT, CALL, "asian", "price",
            DEFAULT_T_GRID, cfg, hypothesized_order=1.0, path_scaling=False,
        )
        assert report.status == "insufficient-data"
        assert not report.verdict


# ---------------------------------------------------------------------------
# comparison experiment
# ---------------------------------------------------------------------------

class TestCompare:
    def test_vanilla_bs_helper_put_call_parity(self):
        c = _bs_price(100.0, 95.0, 0.04, 0.01, 0.3, 0.7, "call")
        p = _bs_price(100.0, 95.0, 0.04, 0.01, 0.3, 0.7, "put")
        fwd = 100.0 * math.exp(-0.01 * 0.7) - 95.0 * math.exp(-0.04 * 0.7)
        assert c - p == pytest.approx(fwd, abs=1e-12)

    def test_payoff_family_restricted(self):
        with pytest.raises(ValidationError, match="call or put"):
            compare_experiment(ConstantVol(0.2), FLAT, PayoffSpec("linear", slope=1.0),
                               DEFAULT_T_GRID, SimConfig(10, 10, 0))

    @pytest.mark.parametrize(
        "column, pair, message",
        [("unmatched", (math.nan, 0.2), "hypothesized_order must be finite, got nan"),
         ("geo", (1.0, math.inf), "slack must be finite, got inf")],
    )
    def test_a_non_finite_hypothesis_fails_before_any_estimate(self, monkeypatch, column,
                                                               pair, message):
        never_estimate(monkeypatch)
        hypotheses = {"matched": (1.0, 0.2), "unmatched": (0.5, 0.2), "geo": (1.0, 0.2)}
        hypotheses[column] = pair
        with pytest.raises(ValidationError, match=f"^{message}$"):
            compare_experiment(ConstantVol(0.2), FLAT, CALL, DEFAULT_T_GRID,
                               SimConfig(10, 10, 0), hypotheses=hypotheses)

    @pytest.mark.parametrize(
        "hypotheses, column",
        [({"matched": (1.0, 0.2)}, "unmatched"),
         ({"matched": (1.0, 0.2), "unmatched": "ab", "geo": (1.0, 0.2)}, "unmatched"),
         ({"matched": (1.0,), "unmatched": (0.5, 0.2), "geo": (1.0, 0.2)}, "matched"),
         ({"matched": (1.0, 0.2), "unmatched": (0.5, 0.2), "geo": None}, "geo")],
    )
    def test_a_malformed_hypothesis_names_its_column(self, monkeypatch, hypotheses, column):
        never_estimate(monkeypatch)
        with pytest.raises(ValidationError, match=rf"^hypotheses\['{column}'\] must be an "
                                                  r"\(order, slack\) pair of real numbers"):
            compare_experiment(ConstantVol(0.2), FLAT, CALL, DEFAULT_T_GRID,
                               SimConfig(10, 10, 0), hypotheses=hypotheses)

    def test_degenerate_zero_vol_all_columns_identical(self):
        itm = PayoffSpec("call", strike=90.0)
        tab = compare_experiment(ConstantVol(0.0), FLAT, itm, (0.2, 0.1, 0.05, 0.025),
                                 SimConfig(steps=20, n_paths=50, seed=0))
        for col in (tab.mc, tab.asym, tab.eur_matched, tab.eur_unmatched, tab.geo):
            assert np.allclose(col, 10.0, atol=1e-12)
        assert np.all(tab.std_errors == 0.0)
        assert tab.reports["matched"].status == "insufficient-data"

    def test_geometric_column_disabled_off_constant_vol(self):
        skew = CappedPowerVol(sref=0.2, xref=100.0, exponent=0.3, floor=0.05, cap=1.0)
        tab = compare_experiment(skew, FLAT, CALL, (0.2, 0.1, 0.05, 0.025),
                                 SimConfig(steps=30, n_paths=4000, seed=3))
        assert not tab.geo_enabled
        assert np.all(np.isnan(tab.geo))
        assert "geo" not in tab.reports
        assert {"matched", "unmatched"} <= set(tab.reports)

    def test_csv_schema(self, tmp_path, monkeypatch):
        # compare writes the table it is handed; hand it a known one
        tab = CompareTable(
            T=np.array([0.2, 0.1]),
            mc=np.array([1.0, 0.5]),
            std_errors=np.array([0.01, 0.005]),
            asym=np.array([1.1, 0.55]),
            eur_matched=np.array([0.9, 0.45]),
            eur_unmatched=np.array([1.2, 0.6]),
            geo=np.array([np.nan, np.nan]),
            geo_enabled=False,
        )
        monkeypatch.setattr(cli, "compare_experiment", lambda *a, **k: tab)
        out = tmp_path / "out"
        assert cli.main(["compare", f"--output.dir={out}"]) == 0
        text = (out / "compare.csv").read_text()
        lines = [ln for ln in text.splitlines() if not ln.startswith("# ")]
        assert lines[0] == "T,mc,asym,err_matched,err_unmatched,err_geo,stderr"
        cells = lines[1].split(",")
        assert float(cells[3]) == pytest.approx(1.0 - 0.9, abs=1e-15)

    def test_matched_vol_outperforms_unmatched(self):
        # drift makes the matched-vol European track the Asian at O(T) while
        # the unmatched European misses at O(sqrt(T)); coarse paths suffice
        # to see the first-digit separation of the two error columns
        drifty = MarketParams(100.0, 0.05, 0.0)
        tab = compare_experiment(ConstantVol(0.3), drifty, CALL, (0.2, 0.1, 0.05, 0.025),
                                 SimConfig(steps=100, n_paths=20000, seed=11))
        em = np.abs(tab.mc - tab.eur_matched)
        eu = np.abs(tab.mc - tab.eur_unmatched)
        assert np.all(em < 0.25 * eu)
