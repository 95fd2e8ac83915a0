"""The package surface: lazily executed submodules, eagerly registered names;
and the process entry point that runs the CLI."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import qhv
from qhv import cli

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
print(json.dumps({"before": before, "after": unexecuted(), "exit": code,
                  "hashlib": "_hashlib" in sys.modules,
                  "numpy_ma": "numpy.ma" in sys.modules,
                  "dataclasses": "dataclasses" in sys.modules,
                  "click": "click" in sys.modules}))
"""

# what a fresh interpreter loads to import the CLI, before any argv is parsed
IMPORT_PROBE = """\
import sys
import qhv.cli

print("click" in sys.modules, "argparse" in sys.modules)
"""

# what the interpreter has frozen when it starts to shut down after run()
FREEZE_PROBE = """\
import atexit, gc, sys
import qhv.cli

atexit.register(lambda: print(gc.get_freeze_count()))
qhv.cli.run()
"""

# accessing the family executes its module but not qhv.collineations
FAMILY_PROBE = """\
import sys, types
import qhv.intersecting_family

qhv.intersecting_family.family
print([type(sys.modules[name]) is types.ModuleType
       for name in ("qhv.intersecting_family", "qhv.collineations")])
"""

# a point set's sort and deduplication leaves numpy.ma unloaded
POINT_SET_PROBE = """\
import sys
from qhv.geometry import point_set

print(point_set(2, [[0, 1, 1], [0, 0, 1], [0, 1, 1]]).points.tolist(),
      "numpy.ma" in sys.modules)
"""

LIBRARY = ["qhv.codes", "qhv.collineations", "qhv.geometry",
           "qhv.intersecting_family", "qhv.linalg", "qhv.oa", "qhv.oracles",
           "qhv.params"]


def _env():
    """The environment with this checkout's sources first on the path, and no
    budget."""
    env = dict(os.environ)
    env.pop(cli.BUDGET_ENV, None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _python(tmp_path, *argv):
    """Run the interpreter on this checkout's sources, in ``tmp_path``."""
    return subprocess.run([sys.executable, *argv], cwd=tmp_path, env=_env(),
                          capture_output=True, text=True, timeout=120)


def _probe(tmp_path, *args):
    res = _python(tmp_path, "-c", PROBE, *args)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


@pytest.mark.parametrize("args,unexecuted", [
    (["variety", "--q", "2", "--n", "2"],
     ["qhv.codes", "qhv.collineations", "qhv.intersecting_family",
      "qhv.linalg", "qhv.oa", "qhv.oracles"]),
    # the array and the code need the parameter layer, not the variety
    (["oa", "--q", "2", "--n", "2"],
     ["qhv.codes", "qhv.collineations", "qhv.geometry", "qhv.oracles"]),
    (["code", "--q", "5"],
     ["qhv.collineations", "qhv.geometry", "qhv.oa", "qhv.oracles"]),
    (["code", "--q", "7", "--doubly-extend"],
     ["qhv.collineations", "qhv.geometry", "qhv.oa", "qhv.oracles"]),
    (["grid", "--instances", "2,2"], ["qhv.codes"]),
])
def test_a_command_executes_only_the_modules_it_uses(tmp_path, args, unexecuted):
    probe = _probe(tmp_path, *args)
    # importing the CLI executes fields alone
    assert probe["before"] == LIBRARY
    assert probe["exit"] == 0
    assert probe["after"] == unexecuted
    # only the commands that write a digest load OpenSSL's _hashlib
    assert probe["hashlib"] is (args[0] in ("oa", "code"))
    # a plain np.unique imports numpy.ma (about 16 ms cold); none may load it
    assert probe["numpy_ma"] is False
    # the records are built without generated code, so without dataclasses
    assert probe["dataclasses"] is False
    # the parser is the standard library's
    assert probe["click"] is False


def test_importing_the_cli_loads_no_parser(tmp_path):
    res = _python(tmp_path, "-c", IMPORT_PROBE)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False False"


def test_the_family_leaves_collineations_unexecuted(tmp_path):
    res = _python(tmp_path, "-c", FAMILY_PROBE)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[True, False]"


def test_point_set_leaves_numpy_ma_unloaded(tmp_path):
    res = _python(tmp_path, "-c", POINT_SET_PROBE)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[[0, 0, 1], [0, 1, 1]] False"


def test_entry_point_freezes_the_heap_until_exit(tmp_path):
    res = _python(tmp_path, "-c", FREEZE_PROBE, "variety", "--q", "2", "--n", "2")
    assert res.returncode == 0, res.stderr
    assert int(res.stdout.splitlines()[-1]) > 0


def test_in_process_callers_of_main_freeze_nothing(tmp_path):
    frozen = gc.get_freeze_count()
    res = CliRunner().invoke(cli.main, ["variety", "--q", "2", "--n", "2",
                                        "--out", str(tmp_path / "v")])
    assert res.exit_code == 0, res.output
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("args,code", [
    (["variety", "--q", "2", "--n", "2"], 0),
    (["oa", "--q", "6"], 2),
    (["variety", "--q", "3", "--n", "3", "--budget", "10"], 3),
], ids=["ok", "bad-params", "budget"])
def test_module_entry_point_matches_in_process_run(tmp_path, monkeypatch, args,
                                                   code):
    spawned, in_process = tmp_path / "spawned", tmp_path / "in_process"
    spawned.mkdir(), in_process.mkdir()
    res = _python(spawned, "-m", "qhv.cli", *args)
    assert res.returncode == code, res.stderr
    monkeypatch.delenv(cli.BUDGET_ENV, raising=False)
    monkeypatch.chdir(in_process)
    ref = CliRunner().invoke(cli.main, args)
    assert ref.exit_code == code
    assert (res.stdout, res.stderr) == (ref.stdout, ref.stderr)
    files = {p.name: p.read_bytes() for p in spawned.iterdir()}
    assert files == {p.name: p.read_bytes() for p in in_process.iterdir()}
    assert bool(files) is (code == 0)


@pytest.mark.parametrize("argv,report,ok", [
    (["variety", "--q", "2", "--n", "2"], "variety_q2_n2.json", "two_character_ok"),
    (["oa", "--q", "2", "--n", "2"], "oa_q2_n2.json", "strength_ok"),
    (["code", "--q", "5"], "code_q5.json", "mds"),
    (["grid", "--instances", "2,2"], "grid_report.json", "ok"),
], ids=["variety", "oa", "code", "grid"])
def test_closed_stdout_exits_1_without_a_traceback(tmp_path, argv, report, ok):
    # the report is written before the first line to stdout fails
    read, write = os.pipe()
    os.close(read)
    try:
        res = subprocess.run([sys.executable, "-m", "qhv.cli", *argv],
                             cwd=tmp_path, env=_env(), stdout=write,
                             stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write)
    assert res.returncode == 1
    assert res.stderr == b""
    assert json.loads((tmp_path / report).read_text())[ok]


def test_interrupt_prints_aborted_and_exits_1(tmp_path, monkeypatch):
    from qhv import oracles

    def interrupted(spec):
        raise KeyboardInterrupt

    monkeypatch.setattr(oracles, "run_grid", interrupted)
    monkeypatch.chdir(tmp_path)
    res = CliRunner().invoke(cli.main, ["grid", "--instances", "2,2"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert (res.stdout, res.stderr) == ("", "\nAborted!\n")
    assert not list(tmp_path.iterdir())


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
