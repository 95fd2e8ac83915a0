"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# -- self-time arithmetic ------------------------------------------------------

def test_self_times_on_a_nested_tree():
    # [invocation, id, name, start, end, parent]
    tree = [
        ["i", 0, "root", 0.0, 10.0, None],
        ["i", 1, "a", 1.0, 4.0, 0],
        ["i", 2, "b", 2.0, 3.0, 1],      # grandchild: not subtracted from root
        ["i", 3, "c", 5.0, 9.0, 0],
        ["i", 4, "d", 6.0, 7.0, 3],
        ["i", 5, "e", 6.5, 8.0, 3],      # overlaps d: the union counts once
        ["j", 0, "root", 0.0, 2.0, None],
        ["j", 1, "a", 0.5, 1.0, 0],      # same ids, other invocation
    ]
    got = spans.self_times(tree)
    want = {"root": 10 - 3 - 4 + 2 - 0.5, "a": 3 - 1 + 0.5, "b": 1.0,
            "c": 4 - 2, "d": 1.0, "e": 1.5}
    assert got == pytest.approx(want)
    # properly nested spans (no overlapping siblings): self times add up to the roots
    nested = [s for s in tree if s[2] != "e"]
    assert sum(spans.self_times(nested).values()) == pytest.approx(12.0)
    assert spans.span_calls(tree) == {"root": 2, "a": 2, "b": 1, "c": 1, "d": 1, "e": 1}


def test_covered_clips_children_to_the_parent():
    assert spans._covered([(-1.0, 2.0), (1.5, 3.0), (9.0, 12.0)], 0.0, 10.0) == 4.0


# -- wrappers ------------------------------------------------------------------

def _qhv_modules():
    import qhv  # noqa: F401

    return [m for n, m in sys.modules.items() if n == "qhv" or n.startswith("qhv.")]


def _bindings(value):
    return [(m.__name__, k) for m in _qhv_modules() for k, v in vars(m).items()
            if v is value]


def test_wrappers_patch_every_binding_site_and_are_removed():
    _qhv_modules()
    originals = {}
    for prefix, modname, qualname, kind in spans.TARGETS:
        owner_name, _, attr = qualname.rpartition(".")
        owner = sys.modules[modname] if not owner_name else \
            getattr(sys.modules[modname], owner_name)
        originals[qualname] = (owner, attr, vars(owner)[attr])
    sites = {q: _bindings(fn) for q, (_, _, fn) in originals.items()
             if "." not in q}
    # direct imports elsewhere in the package, as the issue names them
    assert ("qhv.oa", "family") in sites["family"]
    assert ("qhv.oracles", "intersection_count") in sites["intersection_count"]
    assert ("qhv.oracles", "build_R") in sites["build_R"]

    tracer = spans.Tracer("t")
    tracer.install()
    try:
        for qualname, (owner, attr, fn) in originals.items():
            wrapped = vars(owner)[attr]
            assert wrapped is not fn and wrapped.__wrapped__ is fn
            if "." not in qualname:
                assert _bindings(fn) == []
                assert sorted(_bindings(wrapped)) == sorted(sites[qualname])
    finally:
        tracer.uninstall()
    for qualname, (owner, attr, fn) in originals.items():
        assert vars(owner)[attr] is fn
        if "." not in qualname:
            assert sorted(_bindings(fn)) == sorted(sites[qualname])
    leftover = [(m.__name__, k) for m in _qhv_modules() for k, v in vars(m).items()
                if getattr(getattr(v, "__code__", None), "co_filename", None) == spans.__file__]
    assert leftover == []


def test_traced_cli_run_records_layers(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    trace = tmp_path / "trace.json"
    code = spans.main([str(trace), "t0", "--", "oa", "--q", "2", "--n", "2",
                       "--out", "arr"])
    assert code == 0
    data = json.loads(trace.read_text())
    calls = spans.span_calls(data["spans"])
    assert calls[spans.ROOT_SPAN] == 1
    assert calls["oa.build"] == 1 and calls["oa.verify_strength"] == 2
    record = {"trace": data, "spawn": data["main_start"], "cpu": 0.0, "wall": 1.0}
    m = run.layer_metrics([[record, record]])
    assert m["oa.verify_calls_per_array"] == 2.0
    assert m["oa.cells"] == 8 * 4 and m["oa.column_pairs"] == 2 * 6
    assert m["intersecting_family.evaluate_calls"] == 8 * 4
    # the wrappers are gone again
    import qhv.oa

    assert not hasattr(qhv.oa.build_oa, "__wrapped__")


# -- generator -----------------------------------------------------------------

TINY = (("variety", 2, 3), ("variety", 4, 3), ("oa", 2, 3), ("code", 3, 5),
        ("grid", ((2, 2),)))


@pytest.mark.parametrize("spec", TINY, ids=lambda s: f"{s[0]}-{s[1:]}")
def test_generator_emits_pairs_the_cli_accepts(spec, tmp_path, monkeypatch):
    from click.testing import CliRunner

    from qhv import cli
    from qhv.fields import field_context

    if spec[0] != "grid":
        command, n, q = spec
        ctx = field_context(q)
        pairs = workloads.admissible_pairs(command, n, q)
        assert pairs
        mode = "variety" if command == "variety" else "family"
        n_cli = 3 if command == "code" else n
        for a, b in pairs:
            params = cli._params(ctx, n_cli, a, b, mode=mode)
            if command == "variety":
                assert params.condition.startswith("QH") or (
                    params.condition == "classical" and all(x == 0 for x, _ in pairs))
    inv = workloads.make_invocation(spec, random.Random(7))
    assert inv == workloads.make_invocation(spec, random.Random(7))
    monkeypatch.chdir(tmp_path)
    res = CliRunner().invoke(cli.main, list(inv.argv))
    assert res.exit_code == 0, res.output
    files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    problems, work = workloads.check_artifacts(inv, files)
    assert problems == [] and work


def test_classical_fallback_where_no_qh_pair_exists():
    assert {a for a, _ in workloads.admissible_pairs("variety", 4, 3)} == {0}


def test_checks_catch_a_truncated_array(tmp_path, monkeypatch):
    from click.testing import CliRunner

    from qhv import cli

    inv = workloads.make_invocation(("oa", 2, 3), random.Random(0))
    monkeypatch.chdir(tmp_path)
    assert CliRunner().invoke(cli.main, list(inv.argv)).exit_code == 0
    files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    csv = inv.out + ".csv"
    files[csv] = b"\n".join(files[csv].splitlines()[:-1]) + b"\n"
    problems, _ = workloads.check_artifacts(inv, files)
    assert any("csv rows" in p for p in problems)
    assert any("csv_sha256" in p for p in problems)


def test_seed_fixes_the_command_lines():
    assert workloads.invocations("arrays", 3) == workloads.invocations("arrays", 3)
    assert workloads.invocations("grid", 1) == workloads.invocations("grid", 2)


def test_spectrum_formula_matches_the_library():
    from qhv.geometry import expected_spectrum_support, hermitian_size

    for n in range(2, 7):
        for q in (2, 3, 4, 5):
            assert workloads.hermitian_size(n, q) == hermitian_size(n, q)
            assert expected_spectrum_support(n, q) == {
                workloads.hermitian_size(n - 1, q),
                1 + q * q * workloads.hermitian_size(n - 2, q)}


# -- reference speed -------------------------------------------------------------

def test_calibration_computes_its_fixed_rank():
    F = calibrate.Field(calibrate.P)
    assert calibrate.reduce_rows(F, calibrate.rows(calibrate.ROWS)) == calibrate.COLS - 2


def test_walls_are_divided_by_the_slowdown_around_each_sample():
    ref = run.CALIBRATION_REF_S
    assert run.slowdown(ref, 3 * ref) == pytest.approx(2.0)
    invs = workloads.invocations("codes", 0)
    assert [inv.parity for inv in invs] == ["even", "odd"]

    def sample(wall, slowdown):
        return {"untraced": {"wall": wall}, "slowdown": slowdown}

    # medians of 2/2, 3/1, 9/1 and of 1.5/0.5: 3 each
    samples = [[sample(2.0, 2.0), sample(3.0, 1.0), sample(9.0, 1.0)],
               [sample(1.5, 0.5)]]
    assert run.wall_metrics(samples, invs) == pytest.approx(
        {"wall_s": 6.0, "odd_q_s": 3.0, "even_q_s": 3.0})


def test_only_times_and_rates_are_rescaled():
    got = run.at_reference_speed({"t_s": 2.0, "n": 5, "r": 10.0},
                                 {"t_s": "s", "n": "count", "r": "1/s"}, 2.0)
    assert got == {"t_s": 1.0, "n": 5, "r": 20.0}


# -- the contract --------------------------------------------------------------

def test_benchmark_json_names_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert spec["end_to_end"][0]["name"] == "setup_s"
    assert max(m["bound"] for m in spec["end_to_end"]) == spec["end_to_end"][0]["bound"]


def test_refuses_a_directory_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "workloads.py", "spans.py", "digests.json"):
        (tmp_path / "perfbench" / name).write_bytes((HERE / name).read_bytes())
    import subprocess

    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60,
                         env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert res.returncode != 0 and res.stdout == ""
