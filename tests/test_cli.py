"""Command-line behavior: config resolution, overrides, outputs, exit codes."""

import math

import numpy as np
import pytest
import yaml

from asianvol import cli
from asianvol.approxlab import lp_distance_curve
from asianvol.harness import compare_experiment
from asianvol.model import ConstantVol, MarketParams, PayoffSpec
from asianvol.montecarlo import SimConfig


def read_csv(path):
    """Parse a CSV written by the CLI, skipping the '# ' config header."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("# ")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------

class TestConfigResolution:
    """Defaults, file overrides, dotted flag overrides, unknown keys."""

    def test_resolved_config_round_trips_byte_identically(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["vols", f"--output.dir={out1}", "--experiment.n_t=5"]) == 0
        rc = cli.main(["--config", str(out1 / "resolved.yaml"), "vols",
                       f"--output.dir={out2}"])
        assert rc == 0
        assert (out1 / "vols.csv").read_bytes() == (out2 / "vols.csv").read_bytes()
        assert (out1 / "resolved.yaml").read_bytes() == (out2 / "resolved.yaml").read_bytes()

    def test_flag_override_beats_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({"mc": {"seed": 3}}))
        out = tmp_path / "out"
        rc = cli.main(["--config", str(cfg), "vols", f"--output.dir={out}",
                       "--mc.seed=7"])
        assert rc == 0
        resolved = yaml.safe_load((out / "resolved.yaml").read_text())
        assert resolved["mc"]["seed"] == 7

    def test_resolved_config_excludes_execution_details(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["--threads", "2", "vols", f"--output.dir={out}"]) == 0
        resolved = yaml.safe_load((out / "resolved.yaml").read_text())
        assert "output" not in resolved
        assert "threads" not in yaml.safe_dump(resolved)

    @pytest.mark.parametrize(
        "cfg, named",
        [
            ({"paths": 5}, "'paths'"),
            ({"mc": {"paths": 5}}, "'mc.paths'"),
            ({"model": {"drift": 0.1}}, "'model.drift'"),
            ({"experiment": {"horizon": 1.0}}, "'experiment.horizon'"),
        ],
    )
    def test_unknown_file_keys_are_named(self, tmp_path, capsys, cfg, named):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        rc = cli.main(["--config", str(path), "vols",
                       f"--output.dir={tmp_path / 'out'}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert named in err, f"expected {named} in: {err}"

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["price", "--experiment.method=asym", "--payoff.strike=abc"], "'strike'"),
            (["price", "--experiment.method=asym", "--model.surface.sigma=abc"], "'sigma'"),
            (["price", "--experiment.method=asym", "--model.market.S0=abc"], "'S0'"),
            (["price", "--experiment.method=asym", "--payoff.strike=[1,2]"], "'strike'"),
            (["price", "--experiment.method=asym", "--payoff.strike=true"], "'strike'"),
            (["price", "--experiment.method=asym", "--experiment.T=abc"], "'experiment.T'"),
            (["vols", "--experiment.n_t=abc"], "'experiment.n_t'"),
            (["vols", "--experiment.n_t=5.0"], "'experiment.n_t'"),
            (["price", "--experiment.method=asym", "--experiment.T=1e-1"], "'experiment.T'"),
            (["compare", "--experiment.t_grid=[0.1, abc]"], "'experiment.t_grid'"),
            (["ldp", "--experiment.oracle=abc"], "'experiment.oracle'"),
            (["price", "--experiment.method=asym", "--payoff.family=user-table",
              "--payoff.table_x=[50,abc]", "--payoff.table_y=[0,1]"], "'table_x'"),
            (["vols", "--model.surface.family=tabulated-grid", "--model.surface.ts=abc",
              "--model.surface.xs=[1,2]", "--model.surface.values=[[1,1],[1,1]]"], "'ts'"),
            (["vols", "--model.surface.family=tabulated-grid", "--model.surface.ts=[0,1]",
              "--model.surface.xs=[1,2]", "--model.surface.values=[[1,abc],[1,1]]"],
             "'values'"),
            (["vols", "--output.dir=null"], "'output.dir'"),
            (["vols", "--output.dir=[1]"], "'output.dir'"),
        ],
    )
    def test_values_of_the_wrong_type_are_named(self, tmp_path, capsys, argv, named):
        # the case's own overrides come last, so they win over this output.dir
        rc = cli.main([argv[0], f"--output.dir={tmp_path / 'out'}", *argv[1:]])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert named in err, f"expected {named} in: {err}"

    def test_unknown_override_key_is_named(self, tmp_path, capsys):
        rc = cli.main(["vols", f"--output.dir={tmp_path / 'out'}", "--mc.paths=5"])
        assert rc == 1
        assert "'mc.paths'" in capsys.readouterr().err

    def test_override_without_equals_is_rejected(self, tmp_path, capsys):
        rc = cli.main(["vols", f"--output.dir={tmp_path / 'out'}", "--mc.seed"])
        assert rc == 1
        assert "--mc.seed" in capsys.readouterr().err

    def test_surface_block_is_replaced_whole(self, tmp_path):
        # a family switch must not inherit the default family's keys
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({
            "model": {"surface": {"family": "capped-power", "sref": 0.2,
                                  "xref": 100.0, "exponent": 0.3,
                                  "floor": 0.05, "cap": 1.0}},
        }))
        rc = cli.main(["--config", str(cfg), "vols",
                       f"--output.dir={tmp_path / 'out'}"])
        assert rc == 0

    def test_payoff_family_switch_via_overrides(self, tmp_path):
        # switching family resets the block, so the strike must be respelled
        out = tmp_path / "out"
        rc = cli.main(["price", f"--output.dir={out}",
                       "--payoff.family=power-call", "--payoff.strike=100.0",
                       "--payoff.exponent=0.75",
                       "--mc.n_paths=2000", "--mc.steps=20"])
        assert rc == 0
        resolved = yaml.safe_load((out / "resolved.yaml").read_text())
        assert resolved["payoff"] == {
            "family": "power-call", "strike": 100.0, "exponent": 0.75,
        }

    def test_surface_family_switch_via_overrides_drops_stale_keys(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["vols", f"--output.dir={out}", "--experiment.n_t=3",
                       "--model.surface.family=capped-power",
                       "--model.surface.sref=0.2", "--model.surface.xref=100.0",
                       "--model.surface.exponent=0.3", "--model.surface.floor=0.05",
                       "--model.surface.cap=1.0"])
        assert rc == 0
        resolved = yaml.safe_load((out / "resolved.yaml").read_text())
        assert "sigma" not in resolved["model"]["surface"]
        assert resolved["model"]["surface"]["family"] == "capped-power"

    def test_missing_config_file_is_an_error(self, tmp_path, capsys):
        rc = cli.main(["--config", str(tmp_path / "nope.yaml"), "vols",
                       f"--output.dir={tmp_path / 'out'}"])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    def test_malformed_config_file_is_an_error_not_a_traceback(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text("mc: {steps: [unclosed\n")
        rc = cli.main(["--config", str(path), "vols",
                       f"--output.dir={tmp_path / 'out'}"])
        assert rc == 1
        assert "not valid YAML" in capsys.readouterr().err

    def test_malformed_override_value_is_an_error_not_a_traceback(self, tmp_path, capsys):
        rc = cli.main(["vols", f"--output.dir={tmp_path / 'out'}",
                       "--mc.seed=[unclosed"])
        assert rc == 1
        assert "invalid YAML value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "file_cfg, argv, named",
        [
            ({"model": {"surface": 5}}, ["vols"], "model.surface"),
            (None, ["price", "--payoff=7"], "payoff"),
            (None, ["vols", "--model.market=5"], "model.market"),
            (None, ["vols", "--model=5"], "model"),
        ],
    )
    def test_a_block_given_a_non_mapping_is_named(self, tmp_path, capsys, file_cfg, argv, named):
        config = []
        if file_cfg is not None:
            (tmp_path / "cfg.yaml").write_text(yaml.safe_dump(file_cfg))
            config = ["--config", str(tmp_path / "cfg.yaml")]
        rc = cli.main([*config, argv[0], f"--output.dir={tmp_path / 'out'}", *argv[1:]])
        assert rc == 1
        assert capsys.readouterr().err == f"error: config block '{named}' must be a mapping\n"

    def test_a_mapping_override_merges_key_by_key(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["vols", f"--output.dir={out}", "--experiment.n_t=2",
                         "--model.market={r: 0.03}"]) == 0
        resolved = yaml.safe_load((out / "resolved.yaml").read_text())
        assert resolved["model"]["market"] == {"S0": 100.0, "r": 0.03, "q": 0.0}
        assert cli.main(["vols", f"--output.dir={out}", "--mc={paths: 5}"]) == 1
        assert "'mc.paths'" in capsys.readouterr().err

    def test_a_file_and_overrides_resolve_to_the_same_bytes(self, tmp_path):
        skew = {"family": "capped-power", "sref": 0.2, "xref": 100.0,
                "exponent": 0.3, "floor": 0.05, "cap": 1.0}
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({"model": {"surface": skew}, "experiment": {"n_t": 3}}))
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["--config", str(cfg), "vols", f"--output.dir={a}"]) == 0
        flags = [f"--model.surface.{k}={v}" for k, v in skew.items()]
        assert cli.main(["vols", f"--output.dir={b}", "--experiment.n_t=3", *flags]) == 0
        assert (a / "resolved.yaml").read_bytes() == (b / "resolved.yaml").read_bytes()


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

class TestExitCodes:
    """0 success, 1 invalid input, 2 numerical failure, 3 failed criteria."""

    def test_validation_error_exits_1(self, tmp_path):
        assert cli.main(["vols", f"--output.dir={tmp_path}", "--experiment.n_t=1"]) == 1

    def test_domain_error_exits_1(self, tmp_path):
        rc = cli.main(["price", f"--output.dir={tmp_path}", "--experiment.T=-0.5",
                       "--mc.n_paths=1000", "--mc.steps=10"])
        assert rc == 1

    def test_numeric_failure_exits_2(self, tmp_path, capsys):
        # a 2-step plain-Euler run at huge vol explodes more than 0.1% of paths
        rc = cli.main(["price", f"--output.dir={tmp_path}",
                       "--model.surface.sigma=6.0", "--mc.scheme=euler",
                       "--mc.steps=2", "--mc.n_paths=4000", "--experiment.T=1.0",
                       "--experiment.method=mc"])
        assert rc == 2
        assert "exploded" in capsys.readouterr().err

    def test_failed_criterion_exits_3(self, tmp_path):
        # an impossible tolerance turns the fastest criterion into a failure
        base = (cli._default_configs_dir() / "c01.yaml").read_text()
        cfg = yaml.safe_load(base)
        cfg["tol"] = 0.0
        (tmp_path / "c01.yaml").write_text(yaml.safe_dump(cfg))
        assert cli.main(["check", "1", "--configs-dir", str(tmp_path)]) == 3

    def test_missing_criterion_key_exits_1(self, tmp_path, capsys):
        cfg = yaml.safe_load((cli._default_configs_dir() / "c01.yaml").read_text())
        del cfg["tol"]
        (tmp_path / "c01.yaml").write_text(yaml.safe_dump(cfg))
        assert cli.main(["check", "1", "--configs-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: criterion 1 config") and "'tol'" in err

    def test_malformed_criterion_config_exits_1(self, tmp_path, capsys):
        (tmp_path / "c01.yaml").write_text("tol: [unclosed\n")
        assert cli.main(["check", "1", "--configs-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: criterion config") and "not valid YAML" in err
        assert "Traceback" not in err

    def test_help_exits_0(self):
        assert cli.main(["--help"]) == 0

    def test_unknown_command_exits_1(self):
        assert cli.main(["frobnicate"]) == 1

    def test_bad_threads_env_var_exits_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ASIANVOL_THREADS", "many")
        rc = cli.main(["vols", f"--output.dir={tmp_path / 'out'}"])
        assert rc == 1
        assert "ASIANVOL_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, env, command",
        [
            (["--threads", "0"], None, ["vols"]),
            (["--threads", "-3"], None, ["ldp"]),
            (["--threads", "0"], None, ["price"]),
            (["--threads", "0"], None, ["check", "9"]),
            ([], "0", ["vols"]),
            ([], "-2", ["check", "9"]),
        ],
    )
    def test_nonpositive_threads_exit_1(self, tmp_path, monkeypatch, capsys, flag, env, command):
        if env is not None:
            monkeypatch.setenv("ASIANVOL_THREADS", env)
        out = [] if command[0] == "check" else [f"--output.dir={tmp_path / 'out'}"]
        assert cli.main(flag + command + out) == 1
        assert capsys.readouterr().err.startswith("error: threads must be a positive integer")
        assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# vols
# ---------------------------------------------------------------------------

class TestVolsCommand:
    """Term vol curves and their CSV schema."""

    def test_constant_sigma_ratio_column_is_one_over_sqrt3(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["vols", f"--output.dir={out}"]) == 0
        header, rows = read_csv(out / "vols.csv")
        assert header == ["T", "asian_vol", "european_vol", "ratio"]
        assert len(rows) == 20
        ratios = np.array([float(r[3]) for r in rows])
        assert np.all(np.abs(ratios - 1.0 / math.sqrt(3.0)) < 1e-12), (
            f"worst ratio error {np.max(np.abs(ratios - 1 / math.sqrt(3))):.2e}"
        )
        asians = np.array([float(r[1]) for r in rows])
        assert np.allclose(asians, 0.2 / math.sqrt(3.0), rtol=1e-12)

    def test_csv_carries_the_resolved_config_as_comments(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["vols", f"--output.dir={out}"]) == 0
        text = (out / "vols.csv").read_text()
        assert text.startswith("# ")
        commented = [ln[2:] for ln in text.splitlines() if ln.startswith("# ")]
        echoed = yaml.safe_load("\n".join(commented))
        assert echoed["model"]["surface"] == {"family": "constant", "sigma": 0.2}


# ---------------------------------------------------------------------------
# price and delta
# ---------------------------------------------------------------------------

class TestPriceDeltaCommands:
    """One-contract estimates and their cross-agreement."""

    def test_price_mc_agrees_with_quote(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["price", f"--output.dir={out}", "--experiment.T=0.1",
                       "--mc.n_paths=20000", "--mc.steps=50"])
        assert rc == 0
        header, rows = read_csv(out / "price.csv")
        assert header == ["T", "mc", "std_error", "asym", "difference"]
        T, mc, se, asym, diff = (float(v) for v in rows[0])
        assert abs(mc - asym) < 4.0 * se, f"mc {mc:.4f} vs quote {asym:.4f} (se {se:.4f})"
        assert diff == mc - asym

    def test_misspelled_style_is_rejected_not_priced_as_european(self, tmp_path, capsys):
        rc = cli.main(["price", f"--output.dir={tmp_path}",
                       "--experiment.style=asain", "--experiment.method=asym"])
        assert rc == 1
        assert "asain" in capsys.readouterr().err

    def test_zero_vol_quote_is_the_intrinsic_value(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["price", f"--output.dir={out}", "--model.surface.sigma=0",
                       "--payoff.strike=90", "--experiment.method=asym"])
        assert rc == 0
        _, rows = read_csv(out / "price.csv")
        assert float(rows[0][3]) == 10.0

    def test_geometric_style_has_no_asymptotic_quote(self, tmp_path, capsys):
        rc = cli.main(["price", f"--output.dir={tmp_path}",
                       "--experiment.style=geometric"])
        assert rc == 1
        assert "geometric" in capsys.readouterr().err

    def test_delta_estimators_agree_atm(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["delta", f"--output.dir={out}", "--experiment.T=0.1",
                       "--mc.n_paths=20000", "--mc.steps=50"])
        assert rc == 0
        header, rows = read_csv(out / "delta.csv")
        assert header == ["T", "asym", "fd", "fd_std_error",
                          "malliavin", "malliavin_std_error"]
        _, asym, fd, fd_se, mal, mal_se = (float(v) for v in rows[0])
        assert asym == 0.5  # ATM call at zero carry
        assert abs(fd - 0.5) < 4.0 * fd_se
        assert abs(mal - 0.5) < 4.0 * mal_se
        assert abs(fd - mal) < 4.0 * math.hypot(fd_se, mal_se)


# ---------------------------------------------------------------------------
# threads
# ---------------------------------------------------------------------------

class TestThreads:
    """The worker count must never touch output bytes."""

    def test_threads_flag_leaves_bytes_unchanged(self, tmp_path):
        outs = []
        for tag, threads in (("a", "1"), ("b", "3")):
            out = tmp_path / tag
            rc = cli.main(["--threads", threads, "price", f"--output.dir={out}",
                           "--mc.n_paths=20000", "--mc.steps=40"])
            assert rc == 0
            outs.append((out / "price.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_env_var_sets_default_thread_count(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ASIANVOL_THREADS", "2")
        out = tmp_path / "out"
        assert cli.main(["vols", f"--output.dir={out}"]) == 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

class TestCheckCommand:
    """Criterion selection, line format, and the --check alias."""

    def test_single_criterion_prints_a_scoreboard_line(self, capsys):
        assert cli.main(["check", "1"]) == 0
        out = capsys.readouterr().out
        assert "criterion 01 PASS" in out
        assert "1/1 criteria passed" in out

    def test_check_alias_routes_to_the_check_command(self, capsys):
        assert cli.main(["--check", "9"]) == 0
        assert "criterion 09 PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("token", ["0", "11", "banana"])
    def test_criteria_outside_the_battery_are_rejected(self, token):
        assert cli.main(["check", token]) == 1

    def test_check_takes_no_overrides(self, capsys):
        assert cli.main(["check", "1", "--mc.seed=2"]) == 1
        assert "overrides" in capsys.readouterr().err

    def test_run_criterion_requires_existing_config(self, tmp_path):
        from asianvol.errors import ValidationError
        with pytest.raises(ValidationError, match="not found"):
            cli.run_criterion(1, tmp_path / "missing.yaml")


# ---------------------------------------------------------------------------
# other commands (smoke level; the heavy lifting is module-tested)
# ---------------------------------------------------------------------------

class TestRemainingCommands:
    """ldp, converge, compare, verify-approx produce their documented files."""

    def test_ldp_writes_path_and_summary(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["ldp", f"--output.dir={out}", "--experiment.grid_n=80"])
        assert rc == 0
        header, rows = read_csv(out / "path.csv")
        assert header == ["t", "g"]
        assert len(rows) == 81
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][1]) == pytest.approx(math.log(100.0), abs=1e-15)
        summary = yaml.safe_load((out / "summary.yaml").read_text())
        assert set(summary) == {"value", "constraint_residual", "el_residual", "multiplier",
                                "converged", "n_outer", "oracle", "oracle_gap_abs"}
        assert summary["converged"] is True
        assert summary["oracle_gap_abs"] < 1e-3 * summary["oracle"]

    def test_converge_writes_rows_and_summary(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["converge", f"--output.dir={out}",
                       "--experiment.estimator=delta-fd",
                       "--model.surface.sigma=0.4",
                       "--mc.n_paths=20000", "--mc.steps=50", "--mc.seed=41"])
        assert rc == 0
        header, rows = read_csv(out / "converge.csv")
        assert header == ["T", "mc", "std_error", "ref", "error", "n_paths"]
        assert len(rows) == 5
        summary = yaml.safe_load((out / "summary.yaml").read_text())
        assert summary["status"] in ("ok", "insufficient-data")

    def test_compare_writes_table_and_reports(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["compare", f"--output.dir={out}",
                       "--mc.n_paths=5000", "--mc.steps=25",
                       "--experiment.t_grid=[0.2, 0.1, 0.05, 0.025]"])
        assert rc == 0
        header, rows = read_csv(out / "compare.csv")
        assert header == ["T", "mc", "asym", "err_matched", "err_unmatched",
                          "err_geo", "stderr"]
        assert len(rows) == 4
        # the same run through the library: each err_* cell is mc minus its proxy
        table = compare_experiment(ConstantVol(0.2), MarketParams(100.0, 0.0, 0.0),
                                   PayoffSpec("call", strike=100.0), [0.2, 0.1, 0.05, 0.025],
                                   SimConfig(steps=25, n_paths=5000, seed=1))
        for i, row in enumerate(rows):
            mc = float(row[1])
            assert mc == table.mc[i]
            for cell, proxy in zip(row[3:6], (table.eur_matched, table.eur_unmatched,
                                              table.geo)):
                assert float(cell) == mc - proxy[i]
        summary = yaml.safe_load((out / "summary.yaml").read_text())
        assert set(summary) == {"matched", "unmatched", "geo"}

    def test_verify_approx_writes_curves_and_fit(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["verify-approx", f"--output.dir={out}",
                       "--experiment.pair=[Xt, Xh]", "--experiment.n_t=5",
                       "--mc.n_paths=5000", "--mc.steps=30"])
        assert rc == 0
        header, rows = read_csv(out / "approx_curve.csv")
        assert header == ["t", "moment", "std_error"]
        assert len(rows) == 5
        # the cells read back as exactly the library curve's floats
        curve = lp_distance_curve(ConstantVol(0.2), MarketParams(100.0, 0.0, 0.0),
                                  ("Xt", "Xh"), 2.0, [float(r[0]) for r in rows],
                                  SimConfig(steps=30, n_paths=5000, seed=1))
        assert [float(r[1]) for r in rows] == list(curve.moments)
        header, rows = read_csv(out / "approx_fit.csv")
        assert header == ["steps", "slope", "intercept", "r_squared", "status"]
        assert [r[0] for r in rows] == ["30", "60"]
