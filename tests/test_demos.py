"""Each demo under ``demos/`` runs to completion and prints its headline line."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def number(pattern, text):
    match = re.search(pattern, text)
    assert match, (pattern, text)
    return [float(g) for g in match.groups()]


def standalone(out):
    [err] = number(r"final error vs \(0, 3\): (\S+)", out)
    assert err < 1e-10


def quadratic_hypergradients(out):
    reverse, analytic = number(r"reverse = (\S+)\s+analytic = (\S+)", out)
    assert abs(reverse - analytic) < 1e-5


def degenerate_gap(out):
    value, lam, w1, w2 = number(
        r"min value (\S+) at lam = (\S+), w = \((\S+), (\S+)\)", out)
    assert (value, lam, w1, w2) == (0.0, 0.0, 0.0, 1.0)
    [gap] = number(r"basic - improved = (\S+)", out)
    assert abs(gap - 0.5) < 1e-2


def data_hypercleaning(out):
    improved, basic = number(r"final F1: improved (\S+)\s+basic (\S+)", out)
    assert 0.0 <= basic <= 1.0 and 0.0 <= improved <= 1.0


def frequency_ablation(out):
    [gap] = number(r"even at one averaged step in twenty, the gap to basic is (\S+)", out)
    assert gap > 0.0


def hyper_representation(out):
    improved, basic = number(r"final accuracy: improved (\S+)\s+basic (\S+)", out)
    assert improved > basic


DEMOS = {
    "00_standalone_bigsam.py": standalone,
    "01_quadratic_hypergradients.py": quadratic_hypergradients,
    "02_degenerate_gap.py": degenerate_gap,
    "03_data_hypercleaning.py": data_hypercleaning,
    "04_frequency_ablation.py": frequency_ablation,
    "05_hyper_representation.py": hyper_representation,
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMOS)


@pytest.mark.parametrize("name", list(DEMOS))
def test_demo_runs(name):
    DEMOS[name](run_demo(name))
