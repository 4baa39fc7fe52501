"""Acceptance battery: every criterion at its stated tolerance.

Each test runs one criterion exactly as the CLI ``check`` command does and
prints its scoreboard line, so ``pytest -v -s tests/test_acceptance.py``
shows the same output as ``asianvol --check``.

Criterion 2 fits the order of the Asian price error |MC - quote| at a
pinned Monte Carlo budget.  The deterministic gap is far below the plain
estimator's noise there, so the error study prices the Asian call with the
frozen-coefficient geometric control variate (``mc_asian_price_cv``), whose
standard error is small enough for every maturity of the grid to carry a
usable signal.

Every criterion's output is byte-identical at any thread count (c10 checks
that), so the battery runs at up to two threads.
"""

import os
from pathlib import Path

import pytest

from asianvol import cli

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs" / "acceptance"

CRITERIA = [
    pytest.param(1, id="c01-constant-vol-ratio"),
    pytest.param(2, id="c02-asian-price-error-order"),
    pytest.param(3, id="c03-atm-delta-half-and-sqrt-t"),
    pytest.param(4, id="c04-itm-delta-carry-taylor"),
    pytest.param(5, id="c05-power-payoff-scaling"),
    pytest.param(6, id="c06-process-pair-closeness"),
    pytest.param(7, id="c07-rate-function-battery"),
    pytest.param(8, id="c08-matched-vs-unmatched-proxies"),
    pytest.param(9, id="c09-closed-form-oracles"),
    pytest.param(10, id="c10-byte-identical-reruns"),
]


@pytest.mark.parametrize("criterion", CRITERIA)
def test_criterion(criterion):
    passed, detail = cli.run_criterion(
        criterion, CONFIG_DIR / f"c{criterion:02d}.yaml", threads=min(2, os.cpu_count() or 1)
    )
    line = f"criterion {criterion:02d} {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    assert passed, line
