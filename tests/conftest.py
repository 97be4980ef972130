"""Shared test helpers."""

import os
import subprocess
import sys
from importlib import resources

import pytest


def _run_probe(code: str, *argv: str) -> str:
    """Stdout of ``python -c code *argv`` in a fresh interpreter that imports this sparse_noma."""
    env = {**os.environ, "PYTHONPATH": str(resources.files("sparse_noma").parent)}
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True, env=env,
    ).stdout


@pytest.fixture
def run_probe():
    """A fresh-process probe: run_probe(code, *argv) returns what the code printed."""
    return _run_probe
