"""The experiment scripts stay runnable."""

import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import child_env

SCRIPTS = Path(__file__).parent.parent / "scripts"
DATA = Path(__file__).parent / "data"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env=child_env(),
    )


def test_class_atlas():
    result = run_script("class_atlas.py", "--height", "5")
    assert result.returncode == 0, result.stderr
    assert "{2,inf}" in result.stdout
    assert "point" in result.stdout


def test_survey_products():
    result = run_script("survey_products.py", "--trials", "20", "--seed", "3")
    assert result.returncode == 0, result.stderr
    assert "both normal-form routes agreed" in result.stdout

    again = run_script("survey_products.py", "--trials", "20", "--seed", "3")
    assert again.stdout == result.stdout



@pytest.mark.parametrize("script,args,golden", [
    ("class_atlas.py", ("--height", "12"), "class_atlas_h12.golden"),
    ("survey_products.py", ("--trials", "300", "--seed", "7"), "survey_t300_s7.golden"),
])
def test_golden(script, args, golden):
    """Output recorded before a refactor of the scripts or the library, byte for byte."""
    result = run_script(script, *args)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (DATA / golden).read_text(encoding="utf-8")
