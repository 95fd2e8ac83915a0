import json

import pytest
from click.testing import CliRunner

from qhv.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def test_variety_unital(runner, tmp_path):
    out = str(tmp_path / "v")
    res = runner.invoke(main, ["variety", "--q", "3", "--n", "2", "--out", out])
    assert res.exit_code == 0, res.output
    assert "spectrum support [1, 4]" in res.output
    report = json.loads((tmp_path / "v.json").read_text())
    assert report["size"] == 28 and report["two_character_ok"]
    points = (tmp_path / "v.points.txt").read_text().strip().split("\n")
    assert len(points) == 28


def test_variety_bad_b_exits_2(runner, tmp_path):
    res = runner.invoke(main, ["variety", "--q", "3", "--n", "2", "--b", "1",
                               "--out", str(tmp_path / "x")])
    assert res.exit_code == 2


def test_variety_3_3(runner, tmp_path):
    res = runner.invoke(main, ["variety", "--q", "3", "--n", "3",
                               "--out", str(tmp_path / "v33")])
    assert res.exit_code == 0, res.output
    report = json.loads((tmp_path / "v33.json").read_text())
    assert report["size"] == 280
    assert report["expected_support"] == [28, 37]


def test_oa_roundtrip(runner, tmp_path):
    out = str(tmp_path / "arr")
    res = runner.invoke(main, ["oa", "--q", "3", "--n", "2", "--out", out])
    assert res.exit_code == 0, res.output
    rows = (tmp_path / "arr.csv").read_text().strip().split("\n")
    assert len(rows) == 27 and len(rows[0].split(",")) == 9
    sidecar = json.loads((tmp_path / "arr.json").read_text())
    assert sidecar["lambda"] == 3 and sidecar["strength_ok"] and sidecar["simple"]
    assert sidecar["config"]["command"] == "oa"


def test_oa_json_single_file(runner, tmp_path):
    out = str(tmp_path / "arrj")
    res = runner.invoke(main, ["oa", "--q", "2", "--n", "2", "--out", out,
                               "--format", "json"])
    assert res.exit_code == 0
    payload = json.loads((tmp_path / "arrj.json").read_text())
    assert len(payload["entries"]) == 8


def test_oa_budget_exits_3(runner, tmp_path):
    res = runner.invoke(main, ["oa", "--q", "9", "--n", "4",
                               "--out", str(tmp_path / "big")])
    assert res.exit_code == 3


def test_oa_budget_env_override(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("QHV_BUDGET", "10")
    res = runner.invoke(main, ["oa", "--q", "2", "--n", "2",
                               "--out", str(tmp_path / "tiny")])
    assert res.exit_code == 3


def test_code_q5(runner, tmp_path):
    out = str(tmp_path / "c5")
    res = runner.invoke(main, ["code", "--q", "5", "--out", out])
    assert res.exit_code == 0, res.output
    meta = json.loads((tmp_path / "c5.json").read_text())
    assert meta["dimension"] == 5 and meta["min_distance"] == 1 and meta["mds"]
    gen = (tmp_path / "c5.genmat.txt").read_text().strip().split("\n")
    assert len(gen) == 5


def test_code_doubly_extended(runner, tmp_path):
    out = str(tmp_path / "c5x")
    res = runner.invoke(main, ["code", "--q", "5", "--out", out,
                               "--doubly-extend"])
    assert res.exit_code == 0, res.output
    meta = json.loads((tmp_path / "c5x.json").read_text())
    assert meta["length"] == 6 and meta["min_distance"] == 2 and meta["mds"]


def test_code_rs_failure_names_first_witness(runner, tmp_path, monkeypatch):
    from qhv import codes

    check = codes.rs_equivalence_check

    def doctored_check(code, omega):
        words = code.codewords.copy()
        words[10, 6] = (words[10, 6] + 1) % code.q
        return check(codes.FqLinearCode(code.q, code.length, words,
                                        code.dimension, code.generator), omega)

    monkeypatch.setattr(codes, "rs_equivalence_check", doctored_check)
    res = runner.invoke(main, ["code", "--q", "7", "--out", str(tmp_path / "c7")])
    assert res.exit_code == 1
    assert "first at codeword 10, coordinate 6" in res.stderr
    meta = json.loads((tmp_path / "c7.json").read_text())
    assert "first_mismatch" not in meta["rs_equivalence"]


def test_code_strict_small_q_exits_2(runner, tmp_path):
    res = runner.invoke(main, ["code", "--q", "4", "--strict",
                               "--out", str(tmp_path / "c4")])
    assert res.exit_code == 2


def test_code_small_q_warns_but_builds(runner, tmp_path):
    res = runner.invoke(main, ["code", "--q", "4",
                               "--out", str(tmp_path / "c4w")])
    assert res.exit_code == 0
    assert "MDS/RS contracts not applicable" in res.output


def test_grid_command(runner, tmp_path):
    out = str(tmp_path / "g")
    res = runner.invoke(main, ["grid", "--instances", "2,2;2,3", "--out", out])
    assert res.exit_code == 0, res.output
    report = json.loads((tmp_path / "g.json").read_text())
    assert report["ok"] and len(report["instances"]) == 2


def test_byte_identical_reruns(runner, tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (a, b):
        res = runner.invoke(main, ["oa", "--q", "3", "--n", "2", "--out", out])
        assert res.exit_code == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    ja = json.loads((tmp_path / "a.json").read_text())
    jb = json.loads((tmp_path / "b.json").read_text())
    ja["config"].pop("out"), jb["config"].pop("out")
    assert ja == jb


@pytest.mark.parametrize("args,env", [
    (["grid", "--instances", "2,6"], None),
    (["grid", "--instances", "1,3"], None),
    (["grid", "--instances", "2;3"], None),
    (["grid"], "abc"),
    (["grid"], "-1"),
    (["grid", "--budget", "-1"], None),
    (["oa", "--q", "2", "--budget", "-1"], None),
    (["variety", "--q", "2"], "-5"),
    (["code", "--q", "5"], "x"),
    (["variety", "--q", "3", "--n", "2", "--a", "4", "--b", "3"], None),
], ids=["grid-q6", "grid-n1", "grid-syntax", "env-abc", "env-negative",
        "grid-negative", "oa-negative", "variety-env-negative", "code-env-abc",
        "variety-affine-pair"])
def test_bad_input_exits_2(runner, tmp_path, monkeypatch, args, env):
    if env is not None:
        monkeypatch.setenv("QHV_BUDGET", env)
    res = runner.invoke(main, args + ["--out", str(tmp_path / "x")])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert len(res.stderr.strip().splitlines()) == 1
    assert not list(tmp_path.iterdir())


def test_grid_field_beyond_table_limit_exits_3(runner, tmp_path):
    res = runner.invoke(main, ["grid", "--instances", "2,257",
                               "--out", str(tmp_path / "g")])
    assert res.exit_code == 3
    assert isinstance(res.exception, SystemExit)
