"""numpy and scipy are the only runtime dependencies of the package and its demos, and BLAS its only parallelism."""

import ast
import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "latent_abcss"}
PACKAGE = sorted(glob.glob(os.path.join(ROOT, "src", "latent_abcss", "*.py")))
MODULES = PACKAGE + sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
CONCURRENCY = {"threading", "concurrent", "multiprocessing", "_thread"}


def imported_packages(source):
    """The top-level package of every absolute import in ``source``; relative imports stay in the package."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_every_import_form_is_seen():
    source = "import os.path, torch\nfrom sklearn.linear_model import Ridge\nfrom . import jgnn\nfrom .neural import Layer\n"
    assert imported_packages(source) == {"os", "torch", "sklearn"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: os.path.relpath(path, ROOT))
def test_imports_only_the_standard_library_numpy_scipy_and_the_package(path):
    with open(path) as fh:
        assert imported_packages(fh.read()) <= ALLOWED


def test_the_package_starts_no_thread_or_process():
    # BLAS sizes its own pool (``--threads``); a thread or process the package started would compete with it
    for path in PACKAGE:
        with open(path) as fh:
            assert not imported_packages(fh.read()) & CONCURRENCY, os.path.relpath(path, ROOT)


def test_importing_the_pipeline_loads_no_scipy_linalg():
    # importing scipy.linalg costs a process ~8 MB of resident memory, and it
    # is needed only to name a failed Cholesky pivot (rng_linalg.cholesky)
    code = (
        "import sys; import latent_abcss.workflows, latent_abcss.cli; "
        "print(sorted(name for name in sys.modules if name.startswith('scipy.linalg')))"
    )
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.stdout.splitlines() == ["[]"], out.stderr
