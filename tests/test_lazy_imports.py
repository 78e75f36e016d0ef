"""``import lisopt`` loads a submodule only on first use of one of its names.

Each case runs in a fresh interpreter and reads ``sys.modules``, so it checks
what was loaded, never how long it took.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import lisopt

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_after(code, modules, **env):
    """Which of ``modules`` a fresh interpreter has loaded after running ``code``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    probe = textwrap.dedent(code) + f"\nprint(sorted(set({list(modules)!r}) & set(sys.modules)))\n"
    out = subprocess.run([sys.executable, "-c", "import sys\n" + probe], capture_output=True,
                         text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path, **env))
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1]


def test_an_objective_user_loads_no_harness_yaml_or_pool():
    modules = ("yaml", "concurrent.futures", "lisopt.harness", "lisopt.optimizers")
    assert loaded_after("import lisopt\nlisopt.Objective", modules) == "[]"


def test_a_spec_user_loads_no_pool_or_oracle():
    modules = ("concurrent.futures", "lisopt.oracle")
    assert loaded_after("from lisopt import ExperimentSpec", modules) == "[]"


def test_a_one_worker_optimize_loads_no_yaml_or_multiprocessing():
    code = """
        import contextlib, io
        from lisopt import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["optimize", "--d", "2", "--method", "liso", "--n", "500"]) == 0
    """
    assert loaded_after(code, ("yaml", "multiprocessing"), LISOPT_WORKERS="1") == "[]"


def test_a_bare_import_loads_no_submodule_and_still_resolves_one():
    submodules = ("lisopt.cli", "lisopt.distributions", "lisopt.estimators", "lisopt.harness",
                  "lisopt.objectives", "lisopt.optimizers", "lisopt.oracle")
    assert loaded_after("import lisopt", submodules) == "[]"
    code = "import lisopt\nassert lisopt.estimators.__name__ == 'lisopt.estimators'"
    assert loaded_after(code, submodules) == "['lisopt.estimators']"


def test_every_public_name_resolves_and_is_listed():
    code = """
        import lisopt
        for name in lisopt.__all__:
            value = getattr(lisopt, name)
            module = getattr(lisopt, lisopt._EXPORTS[name])
            assert value is getattr(module, name), name
        assert set(lisopt.__all__) <= set(dir(lisopt))
        from lisopt import *
    """
    assert loaded_after(code, ()) == "[]"
    assert len(lisopt.__all__) == len(set(lisopt.__all__)) == 45
    assert set(lisopt.__all__) <= set(dir(lisopt))
    assert lisopt.__version__ == "0.1.0"


def test_an_unknown_name_is_an_attribute_error_that_names_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        lisopt.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from lisopt import no_such_name  # noqa: F401
