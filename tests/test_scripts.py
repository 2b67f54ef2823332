"""Smoke runs of the experiment scripts and README's Library snippet, so a
library API change cannot break them silently."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = [
    (
        "run_calibration.py",
        ["--n", "3000", "--groups", "10", "--group-sizes", "50", "100",
         "--sets", "20", "--sizes", "10", "20", "50"],
        r"^10 random groups: mean z [+-]\d+\.\d+, std \d+\.\d+, fraction \|z\|>2 = \d\.\d+$",
    ),
    (
        "run_gravity_experiment.py",
        ["--n", "3000", "--groups", "5", "--betas", "0", "4",
         "--sets", "20", "--sizes", "10", "20", "50"],
        r"^  4\.0 +\d/5 ",
    ),
]


@pytest.mark.parametrize("script,args,summary", SCRIPTS, ids=[s[0] for s in SCRIPTS])
def test_script_runs(script, args, summary):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert re.search(summary, proc.stdout, re.MULTILINE), proc.stdout


def test_readme_library_snippet_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    snippet = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    shutil.copy(ROOT / "tests" / "data" / "fixture_200.links", tmp_path / "topology.links")
    shutil.copy(ROOT / "tests" / "data" / "fixture_200.geo", tmp_path / "geo.tsv")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", snippet],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"\d+ of \d+ groups with \|z\| > 2\n", proc.stdout), proc.stdout
