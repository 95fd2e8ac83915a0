"""The package surface: lazily executed submodules, eagerly registered names."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qhv

ROOT = Path(__file__).resolve().parents[1]

# run one command in a fresh interpreter and list the qhv submodules that are
# registered but not executed, before and after it; type() reads no attribute
# of the module, so it does not trigger the load
PROBE = """\
import json, sys, types
import qhv.cli

def unexecuted():
    return sorted(name for name, module in sys.modules.items()
                  if name.startswith("qhv.") and type(module) is not types.ModuleType)

before = unexecuted()
try:
    qhv.cli.main.main(args=sys.argv[1:], prog_name="qhv")
except SystemExit as exc:
    code = exc.code
print(json.dumps({"before": before, "after": unexecuted(), "exit": code}))
"""

LIBRARY = ["qhv.codes", "qhv.collineations", "qhv.geometry",
           "qhv.intersecting_family", "qhv.linalg", "qhv.oa", "qhv.oracles"]


def _probe(tmp_path, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    res = subprocess.run([sys.executable, "-c", PROBE, *args], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


@pytest.mark.parametrize("args,unexecuted", [
    (["variety", "--q", "2", "--n", "2"],
     ["qhv.codes", "qhv.collineations", "qhv.intersecting_family",
      "qhv.linalg", "qhv.oa", "qhv.oracles"]),
    (["oa", "--q", "2", "--n", "2"], ["qhv.codes", "qhv.oracles"]),
    (["code", "--q", "5"], ["qhv.oa", "qhv.oracles"]),
])
def test_a_command_executes_only_the_modules_it_uses(tmp_path, args, unexecuted):
    probe = _probe(tmp_path, *args)
    # importing the CLI executes fields alone
    assert probe["before"] == LIBRARY
    assert probe["exit"] == 0
    assert probe["after"] == unexecuted


def test_every_export_is_its_submodules_object():
    assert qhv._EXPORTS
    for name, module in qhv._EXPORTS.items():
        assert getattr(qhv, name) is getattr(getattr(qhv, module), name)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from qhv import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(qhv._EXPORTS) == sorted(qhv.__all__)
    for name, value in namespace.items():
        assert value is getattr(qhv, name)


def test_dir_lists_every_export_and_submodule():
    assert set(qhv.__all__) | set(qhv._MODULES) <= set(dir(qhv))


def test_unknown_attribute_names_the_package():
    with pytest.raises(AttributeError,
                       match="^module 'qhv' has no attribute 'no_such_name'$"):
        qhv.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from qhv import no_such_name  # noqa: F401
