"""Every script in scripts/ runs to the end against the current API."""

import contextlib
import io
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_runs(path, monkeypatch):
    # each script runs at its default size, as with no arguments
    monkeypatch.setattr(sys, "argv", [str(path)])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue().strip()
