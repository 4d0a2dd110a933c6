import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcover

sys.path.insert(0, str(Path(__file__).parent))

from corpus import build_quasi_tree_corpus, build_small_complex_corpus  # noqa: E402


@pytest.fixture(scope="session")
def quasi_tree_corpus():
    return build_quasi_tree_corpus()


@pytest.fixture(scope="session")
def small_complex_corpus():
    return build_small_complex_corpus()


@pytest.fixture(scope="session")
def fresh_python():
    """Run a new interpreter that imports this checkout's qcover: (args, python=...)."""
    env = {**os.environ, "PYTHONPATH": str(Path(qcover.__file__).parents[1])}

    def run(args, python=sys.executable, **kwargs):
        return subprocess.run(
            [python, *args], env=env, capture_output=True, text=True, **kwargs
        )

    return run
