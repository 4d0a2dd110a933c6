import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcover

sys.path.insert(0, str(Path(__file__).parent))

from corpus import (  # noqa: E402
    build_quasi_tree_corpus,
    build_small_complex_corpus,
    check_universe,
)


@pytest.fixture(scope="session")
def quasi_tree_corpus():
    return build_quasi_tree_corpus()


@pytest.fixture(scope="session")
def small_complex_corpus():
    return build_small_complex_corpus()


@pytest.fixture(scope="session")
def universe():
    """The check benchmark's quasi-tree inputs, built once per session."""
    out = check_universe()
    assert len(out) == 2434
    return out


@pytest.fixture(scope="session")
def fresh_python():
    """Run a new interpreter that imports this checkout's qcover: (args, python=...)."""
    env = {**os.environ, "PYTHONPATH": str(Path(qcover.__file__).parents[1])}

    def run(args, python=sys.executable, **kwargs):
        return subprocess.run(
            [python, *args], env=env, capture_output=True, text=True, **kwargs
        )

    return run
