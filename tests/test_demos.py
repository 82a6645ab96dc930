"""The demo scripts run, and the slow one at least imports only live names."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")
SRC = os.path.join(os.path.dirname(DEMOS), "src")


@pytest.mark.parametrize(
    "name", ["demo_entropic_transport", "demo_prior_and_forward", "demo_subset_simulation"]
)
def test_demo_runs(name):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS, name + ".py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_end_to_end_demo_imports_resolve():
    # the full demo trains a model for minutes; check its imports instead
    with open(os.path.join(DEMOS, "demo_end_to_end_inversion.py")) as fh:
        tree = ast.parse(fh.read())
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("latent_abcss")
        for alias in node.names
    ]
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
