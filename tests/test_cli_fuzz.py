"""Fuzzed argv for every command: each call ends in a documented exit code.

The argv is well-formed for the parser, so its usage errors stay out of the
way, but q need not be a prime power, n runs up to 40, a and b leave GF(q^2),
grid instances are malformed and budgets are small.  Every call must exit
0-3 within ``WALL_BOUND_S`` without a traceback, and exits 2 and 3 print
exactly one stderr line.
"""

import tempfile
import time

from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SETTINGS
from qhv.cli import main

WALL_BOUND_S = 10.0
BUDGETS = st.one_of(st.just(20000), st.integers(0, 20000))
CODES = st.one_of(st.none(), st.integers(-5, 100), st.just(10**20))
QS = st.one_of(st.integers(-3, 40), st.sampled_from([64, 81, 1024, 10**9 + 7]))
INSTANCE_PARTS = ["2,2", "2,3", "3,2", "2,5", "3,5", "40,2", "2,40", "1,2",
                  "2,1", "2,6", "2,37", "2,64", "-2,3", "2, 3", "2,2,2", "x",
                  "", ","]


@st.composite
def argv(draw, command, formats=None, flags=()):
    """``command`` with q, n (when it has ``formats``), a, b, a format and a
    budget; half the instances are small and in range, so that many calls
    get past the parameter checks."""
    if draw(st.booleans()):
        q = draw(st.sampled_from([2, 3, 4, 5, 7]))
        code = st.one_of(st.none(), st.integers(0, q * q - 1))
        n, a, b = draw(st.integers(2, 3)), draw(code), draw(code)
    else:
        q, n, a, b = draw(QS), draw(st.integers(-1, 40)), draw(CODES), draw(CODES)
    options = {"q": q, "n": n if formats else None, "a": a, "b": b,
               "format": draw(st.sampled_from(formats)) if formats else None,
               "budget": draw(BUDGETS)}
    args = [command] + [f for f in flags if draw(st.booleans())]
    return args + [s for k, v in options.items() if v is not None
                   for s in (f"--{k}", str(v))]


def _check_call(args):
    with tempfile.TemporaryDirectory(prefix="qhv-fuzz-") as out:
        start = time.perf_counter()
        res = CliRunner().invoke(main, args + ["--out", f"{out}/run"])
        wall = time.perf_counter() - start
    assert res.exception is None or isinstance(res.exception, SystemExit), (
        args, repr(res.exception))
    assert res.exit_code in (0, 1, 2, 3), (args, res.exit_code)
    assert wall < WALL_BOUND_S, (args, wall)
    assert "Traceback" not in res.output, args
    if res.exit_code in (2, 3):
        assert res.stderr.endswith("\n") and res.stderr.count("\n") == 1, (
            args, res.stderr)


@settings(SETTINGS, max_examples=60)
@given(st.one_of(argv("variety", formats=("text", "json")),
                 argv("oa", formats=("csv", "json")),
                 argv("code", flags=("--strict", "--doubly-extend",
                                     "--dump-codewords"))))
def test_command_argv_fuzz(args):
    _check_call(args)


# an enumeration that ran before its budget check raised out of the grid here
@settings(SETTINGS, max_examples=20)
@given(st.lists(st.sampled_from(INSTANCE_PARTS), min_size=1, max_size=3),
       BUDGETS)
@example(["40,2"], 20000)
def test_grid_argv_fuzz(parts, budget):
    _check_call(["grid", "--instances", ";".join(parts), "--budget", str(budget)])
