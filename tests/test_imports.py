"""Module layering: each rwre module imports alone, and the low layers do
not pull in the harness or the banded solver."""

import os
import subprocess
import sys

import pytest

import rwre

MODULES = ("rwre", "rwre.env", "rwre.rng", "rwre.potential", "rwre.quenched",
           "rwre.constants", "rwre.stable", "rwre.experiments", "rwre.cli")


def _run(code):
    """Run code in a fresh interpreter that imports this rwre tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(rwre.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


def test_low_layers_load_neither_the_harness_nor_the_banded_solver():
    done = _run("import sys, rwre.env, rwre.rng, rwre.potential\n"
                "print(' '.join(m for m in ('rwre.experiments', 'scipy.linalg')"
                " if m in sys.modules))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_package_namespace_holds_only_the_version():
    done = _run("import rwre\n"
                "print(' '.join(n for n in vars(rwre) if not n.startswith('__')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    # a fresh interpreter per module, so an import cycle cannot hide behind
    # another module having been loaded first
    done = _run(f"import {module}")
    assert done.returncode == 0, done.stderr


def test_cli_does_not_load_scipy_stats():
    # scipy.stats costs about 0.5 s and 37 MB to import, which every CLI
    # run would pay; the reports compute their KS distances without it
    done = _run("import sys, rwre.cli\nprint('scipy.stats' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_experiments_do_not_load_scipy_integrate():
    # scipy.integrate adds about 0.15 s to that import; the ladder integrals
    # use fixed Gauss-Legendre nodes instead of its quadrature
    done = _run("import sys, rwre.experiments\nprint('scipy.integrate' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
