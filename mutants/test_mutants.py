"""Mutation checks: python3 -m pytest mutants -q

Not part of the package's test suite (pyproject's testpaths). Each
mutant in ``table.py`` is applied to a copy of ``src`` and ``tests`` in a
temporary directory, and the tests it names must fail there.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from table import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def _copy(tmp_path: Path) -> Path:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    return tmp_path


def _pytest(copy: Path, selection) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selection],
                          cwd=copy, env=env, capture_output=True, text=True, timeout=120)


def test_every_selection_passes_unmutated_and_imports_the_copy(tmp_path):
    copy = _copy(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    where = subprocess.run([sys.executable, "-c", "import qlanroute; print(qlanroute.__file__)"],
                           cwd=copy, env=env, capture_output=True, text=True, check=True).stdout
    assert Path(where.strip()).is_relative_to(copy), where
    proc = _pytest(copy, sorted({t for *_, selection in MUTANTS for t in selection}))
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("name, file, old, new, selection", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_is_killed(tmp_path, name, file, old, new, selection):
    copy = _copy(tmp_path)
    target = copy / file
    text = target.read_text()
    assert text.count(old) == 1, f"anchor of {name} occurs {text.count(old)} times in {file}, not once"
    target.write_text(text.replace(old, new))
    proc = _pytest(copy, selection)
    # 1 is "tests failed"; a collection or usage error does not count as a kill
    assert proc.returncode == 1, f"{name} survived or broke the run:\n{proc.stdout}{proc.stderr}"
