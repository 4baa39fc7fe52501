"""Criterion config loading: each criterion's key table, checked before it runs.

No test here runs a criterion's numerical work; each one stops at the loader
or at a criterion's own argument checks.
"""

import pytest
import yaml

from asianvol import acceptance, cli
from asianvol.errors import ValidationError

CONFIG_DIR = cli._default_configs_dir()


def shipped(n):
    return yaml.safe_load((CONFIG_DIR / f"c{n:02d}.yaml").read_text())


def write(tmp_path, n, cfg):
    path = tmp_path / f"c{n:02d}.yaml"
    path.write_text(cfg if isinstance(cfg, str) else yaml.safe_dump(cfg))
    return path


def declared_keys(proto, steps=(), name=""):
    """(steps into the config, dotted name, prototype) for every declared key,
    nested keys included; a list of mappings is entered at its first item."""
    for key, p in proto.items():
        here, dotted = steps + (key,), f"{name}.{key}" if name else key
        yield here, dotted, p
        if isinstance(p, dict):
            yield from declared_keys(p, here, dotted)
        elif isinstance(p, list) and isinstance(p[0], dict):
            yield from declared_keys(p[0], here + (0,), f"{dotted}[0]")


KEYS = [
    pytest.param(n, steps, dotted, proto, id=f"c{n:02d}-{dotted}")
    for n, (_, _, table) in acceptance._CRITERIA.items()
    for steps, dotted, proto in declared_keys(table)
]


@pytest.mark.parametrize("n", sorted(acceptance._CRITERIA))
def test_every_shipped_config_passes_the_loader(n):
    cfg = acceptance._load_config(n, CONFIG_DIR / f"c{n:02d}.yaml")
    assert set(cfg) == set(acceptance._CRITERIA[n][2])


@pytest.mark.parametrize("n, steps, dotted, proto", KEYS)
def test_a_value_of_the_wrong_type_names_the_criterion_and_key(tmp_path, n, steps, dotted,
                                                                proto):
    cfg = shipped(n)
    node = cfg
    for step in steps[:-1]:
        node = node[step]
    # "abc" is a string, so a string key is given a number instead
    node[steps[-1]] = 5 if isinstance(proto, str) else "abc"
    with pytest.raises(ValidationError) as exc:
        acceptance._load_config(n, write(tmp_path, n, cfg))
    assert str(exc.value).startswith(f"criterion {n} config key '{dotted}' must be ")


def test_a_bad_value_exits_1_before_the_criterion_runs(tmp_path, monkeypatch, capsys):
    def never(c, threads):
        raise AssertionError("the criterion ran")

    _, title, table = acceptance._CRITERIA[2]
    monkeypatch.setitem(acceptance._CRITERIA, 2, (never, title, table))
    cfg = shipped(2)
    cfg["n_paths_base"] = "abc"
    write(tmp_path, 2, cfg)
    assert cli.main(["check", "2", "--configs-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == ("error: criterion 2 config key 'n_paths_base' must be an integer, "
                   "got 'abc'\n")


@pytest.mark.parametrize(
    "n, path, named",
    [
        (6, ("pairs", -1, "surface", "sref"), "criterion 6 config key 'pairs[4].surface.sref'"),
        (6, ("pairs", -1, "market", "S0"), "criterion 6 config key 'pairs[4].market.S0'"),
        (7, ("skew_surface", "sref"), "criterion 7 config key 'skew_surface.sref'"),
    ],
)
def test_a_bad_family_block_fails_before_any_work(tmp_path, monkeypatch, n, path, named):
    def never(*args, **kwargs):
        raise AssertionError("the criterion ran")

    monkeypatch.setattr(acceptance, "refined_fit", never)
    monkeypatch.setattr(acceptance, "rate_function", never)
    cfg = shipped(n)
    node = cfg
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = "abc"
    with pytest.raises(ValidationError) as exc:
        acceptance.run_criterion(n, write(tmp_path, n, cfg))
    assert str(exc.value) == f"{named} must be a number, got 'abc'"


def test_an_int_for_a_number_arrives_as_a_float(tmp_path):
    cfg = shipped(9)
    cfg["S0"], cfg["geometric"]["K"] = 100, 95
    loaded = acceptance._load_config(9, write(tmp_path, 9, cfg))
    assert type(loaded["S0"]) is float and loaded["S0"] == 100.0
    assert type(loaded["geometric"]["K"]) is float
    assert type(loaded["geometric"]["n_draws"]) is int


@pytest.mark.parametrize(
    "n, change, message",
    [
        (1, {"tols": 5}, "criterion 1 config has unknown key 'tols'"),
        (6, {"pairs": [{"a": "S", "b": "X", "surface": {}, "market": {}, "c": 1}]},
         "criterion 6 config has unknown key 'pairs[0].c'"),
        (10, {"threads": [1, 1.5]},
         "criterion 10 config key 'threads' must be an integer, got 1.5"),
        (1, {"sigmas": []}, "criterion 1 config key 'sigmas' must be a non-empty list, got []"),
        (10, {"threads": []},
         "criterion 10 config key 'threads' must be a non-empty list, got []"),
        (9, {"strikes": [90.0, True]},
         "criterion 9 config key 'strikes' must be a number, got True"),
    ],
)
def test_unknown_keys_and_bad_items_are_rejected(tmp_path, n, change, message):
    path = write(tmp_path, n, {**shipped(n), **change})
    with pytest.raises(ValidationError) as exc:
        acceptance._load_config(n, path)
    assert str(exc.value) == message


def test_an_exponent_without_a_dot_is_a_string_and_rejected(tmp_path):
    # YAML 1.1 reads 1e-3 as a string; 1.0e-3 is a number
    text = (CONFIG_DIR / "c01.yaml").read_text().replace("tol: 1.0e-12", "tol: 1e-12")
    assert "tol: 1e-12" in text
    with pytest.raises(ValidationError, match="'tol' must be a number, got '1e-12'"):
        acceptance._load_config(1, write(tmp_path, 1, text))


@pytest.mark.parametrize(
    "change, named",
    [
        ({"richardson_ns": [50, 100]}, "'richardson_ns' needs at least 3 grid sizes"),
        ({"monotone_grid": [70.0, 80.0, 120.0]}, "'monotone_grid' must contain y = 100"),
    ],
)
def test_criterion_7_checks_its_grids_before_any_solve(tmp_path, monkeypatch, change, named):
    def never(*args, **kwargs):
        raise AssertionError("a rate function was solved")

    monkeypatch.setattr(acceptance, "rate_function", never)
    path = write(tmp_path, 7, {**shipped(7), **change})
    with pytest.raises(ValidationError, match=named):
        acceptance.run_criterion(7, path)
