"""What a process loads: the package resolves its exports on first use, and
each cli command imports only the layers it runs.

The import sets are read in a fresh interpreter, since this one has loaded
every layer already.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cohft
from cohft import givental

SRC = Path(__file__).resolve().parents[1] / "src"

SCALAR_CFG = "dim: 1\neta: 1\nunit: 1\nmul 1 1: 1\ndegree: 3\ncoherent: yes\nR 1: 1/2\nR 2: 1/8\nR 3: 1/48\n"


def _fresh(code):
    """Run code in a new interpreter on this tree; its last stdout line, read
    as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _cli_modules(argv):
    """The exit code of one cohft command and the cohft modules it loaded."""
    return _fresh(
        "import contextlib, io\n"
        "from cohft import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = cli.main(%r)\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'cohft')]))" % (argv,)
    )


@pytest.mark.parametrize("argv", [["graphs", "enumerate", "1", "1"], ["strata", "special", "1", "1"]])
def test_cli_graph_commands_load_only_linalg_and_graphs(argv):
    assert _cli_modules(argv) == [0, ["cohft", "cohft.cli", "cohft.graphs", "cohft.linalg"]]


def test_cli_correlator_loads_no_oracle_or_sampling(tmp_path):
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(SCALAR_CFG)
    code, loaded = _cli_modules(["--config", str(cfg), "correlator", "1", "1", "--psi", "1"])
    assert code == 0
    assert {"cohft.config", "cohft.intersect"} <= set(loaded)
    assert not {"cohft.oracles", "cohft.sampling"} & set(loaded)


def test_cli_validation_failure_loads_no_other_layer():
    # main catches the validation errors without importing config or
    # frobenius, where they are re-exported
    assert _cli_modules(["graphs", "enumerate", "0", "0"]) == [1, ["cohft", "cohft.cli", "cohft.graphs", "cohft.linalg"]]


def test_import_cohft_loads_no_layer_and_submodules_still_import():
    loaded = _fresh(
        "import cohft\n"
        "before = sorted(m for m in sys.modules if m.startswith('cohft.'))\n"
        "from cohft import cli, graphs\n"
        "print(json.dumps([before, cli.__name__, graphs.__name__]))"
    )
    assert loaded == [[], "cohft.cli", "cohft.graphs"]


def test_package_exports_are_their_modules_attributes():
    for name in cohft.__all__:
        obj = getattr(cohft, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    assert not set(cohft.__all__) & set(vars(cohft))


def test_package_export_is_read_on_every_access(monkeypatch):
    # nothing is kept in the package, so a wrapper put on the module (as the
    # bench tracer does) is what the package returns, and is gone once the
    # original is put back
    original = cohft.r_action

    def wrapper(*args):
        return original(*args)

    monkeypatch.setattr(givental, "r_action", wrapper)
    assert cohft.r_action is wrapper
    monkeypatch.undo()
    assert cohft.r_action is original


def test_package_dir_and_star_import_cover_all():
    assert set(cohft.__all__) <= set(dir(cohft))
    namespace = {}
    exec("from cohft import *", namespace)
    assert set(cohft.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(cohft, name) for name in cohft.__all__)


def test_package_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        cohft.no_such_name
    assert not hasattr(cohft, "cli_main")
