"""The package's public names: `analysis`, `sim` and `planes`, and the names
re-exported from `analysis` and `sim`, import on first use. Each check that
depends on what has been imported runs in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import quantum_nqueens


def run_fresh(probe: str) -> str:
    """Run `probe` in a fresh interpreter that imports this package; its stdout."""
    src = str(Path(quantum_nqueens.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_every_public_name_is_the_object_its_submodule_defines():
    probe = (
        "import importlib, sys, quantum_nqueens as pkg\n"
        "assert 'numpy' not in sys.modules\n"
        "for name in pkg.__all__:\n"
        "    obj = getattr(pkg, name)\n"
        "    assert obj.__module__.startswith('quantum_nqueens.'), name\n"
        "    assert getattr(importlib.import_module(obj.__module__), name) is obj, name\n"
        "    assert vars(pkg)[name] is obj, name\n"
        "print(sorted({getattr(pkg, name).__module__ for name in pkg.__all__}))\n"
    )
    assert run_fresh(probe) == (
        "['quantum_nqueens.analysis', 'quantum_nqueens.board', 'quantum_nqueens.circuit', "
        "'quantum_nqueens.qasm', 'quantum_nqueens.sim']\n"
    )


@pytest.mark.parametrize("name", ["analysis", "planes", "sim"])
def test_a_submodule_resolves_before_any_import_of_it(name):
    probe = (
        "import sys, quantum_nqueens as pkg\n"
        f"assert 'quantum_nqueens.{name}' not in sys.modules\n"
        f"print(pkg.{name} is sys.modules['quantum_nqueens.{name}'], 'numpy' in sys.modules)\n"
    )
    assert run_fresh(probe) == "True True\n"


def test_sim_run_works_with_no_earlier_import_of_sim():
    probe = (
        "import sys, quantum_nqueens as pkg\n"
        "assert 'quantum_nqueens.sim' not in sys.modules\n"
        "state = pkg.sim.run(pkg.build_full_circuit(4))\n"
        "print(len(state), round(state.norm_squared(), 9))\n"
    )
    assert run_fresh(probe) == "256 1.0\n"


def test_star_import_binds_all_public_names():
    probe = (
        "import quantum_nqueens as pkg\n"
        "names = {}\n"
        "exec('from quantum_nqueens import *', names)\n"
        "assert all(names[name] is getattr(pkg, name) for name in pkg.__all__)\n"
        "print(sorted(set(names) - {'__builtins__'}) == sorted(pkg.__all__))\n"
    )
    assert run_fresh(probe) == "True\n"


def test_dir_lists_the_names_not_yet_imported():
    probe = (
        "import quantum_nqueens as pkg\n"
        "print(all(name in dir(pkg) for name in [*pkg.__all__, 'analysis', 'planes', 'sim']))\n"
    )
    assert run_fresh(probe) == "True\n"


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="'quantum_nqueens' has no attribute 'nope'"):
        quantum_nqueens.nope  # noqa: B018
    with pytest.raises(ImportError):
        from quantum_nqueens import nope  # noqa: F401
