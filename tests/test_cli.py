import hashlib
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


@pytest.mark.parametrize("args", [
    ["variety", "--q", "37"],
    ["oa", "--q", "37", "--n", "2"],
    ["code", "--q", "37"],
    ["grid", "--instances", "2,37"],
], ids=["variety", "oa", "code", "grid"])
def test_field_above_dense_limit_exits_3(runner, tmp_path, args):
    res = runner.invoke(main, args + ["--out", str(tmp_path / "x")])
    assert res.exit_code == 3
    assert isinstance(res.exception, SystemExit)
    assert len(res.stderr.strip().splitlines()) == 1
    assert not list(tmp_path.iterdir())


def test_grid_budget_skips_code_without_traceback(runner, tmp_path):
    res = runner.invoke(main, ["grid", "--instances", "3,5", "--budget", "1000",
                               "--out", str(tmp_path / "g")])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    checks = json.loads((tmp_path / "g.json").read_text())["instances"][0]["checks"]
    for name in ("variety_size", "two_character", "mutual_mu",
                 "oracle_agreement", "oa", "code"):
        assert not checks[name]["ok"] and "skipped" in checks[name], name


@pytest.mark.parametrize("budget,runs_mu", [(6560, False), (6561, True)])
def test_grid_budget_bounds_intersection_matrix(runner, tmp_path, budget, runs_mu):
    # k = 81 forms at (3,3), so the k x k matrix needs a budget of 6561
    res = runner.invoke(main, ["grid", "--instances", "3,3", "--budget",
                               str(budget), "--out", str(tmp_path / "g")])
    assert res.exit_code == 1  # the array is over this budget either way
    checks = json.loads((tmp_path / "g.json").read_text())["instances"][0]["checks"]
    assert checks["oa"]["skipped"]
    assert ("skipped" not in checks["mutual_mu"]) == runs_mu
    assert checks["mutual_mu"]["ok"] == runs_mu
    # the oracle is skipped anyway, for its evaluation count when mu runs
    reason = checks["oracle_agreement"]["skipped"]
    assert ("intersection matrix" in reason) != runs_mu


# sha256 of every file each call writes; a changed byte must be deliberate
GOLDEN = {
    "oa_csv": (["oa", "--q", "3", "--n", "2"], {
        "oa_csv.csv": "bdd6de608747dab9e7a6218fa1b6f185b341fcdd44e606ae85bd445e517a7933",
        "oa_csv.json": "8d8207415d3413c55933fd50a87a93d3aa5660b2a8fbf74112517249d42555e2",
    }),
    "oa_json": (["oa", "--q", "3", "--n", "2", "--format", "json"], {
        "oa_json.json": "d1efd3ff601aceebce6a00aa4bd2758b316561e3b228d3a9e2292e54e90415ef",
    }),
    "code7": (["code", "--q", "7", "--doubly-extend", "--dump-codewords"], {
        "code7.codewords.txt": "5c0e1197405a07bf5447376b8ef54a7778929246c4ab81a2abe09efd3d839dce",
        "code7.genmat.txt": "b35d34ef4eb3dc8c9613a8566bd6253398653c132aa6222bfb623f80f22d4334",
        "code7.json": "ca1820b97d684ad3c8818bf54de88807ea3dc709e4d8c573f7167578da2ae527",
    }),
    "var": (["variety", "--q", "3", "--n", "2"], {
        "var.json": "4ea816f4c698f16a06cb7698faa4f684859d4a6cdeeacda3aa32a856a7cfaea5",
        "var.points.txt": "7cd98b38e5e9927856fe38af37bff92c623da4f4239e94493e49c09207e24104",
    }),
}


@pytest.mark.parametrize("out", sorted(GOLDEN))
def test_artifacts_match_golden_digests(runner, tmp_path, monkeypatch, out):
    # the out prefix is written into the JSON, so it stays relative
    args, digests = GOLDEN[out]
    monkeypatch.chdir(tmp_path)
    res = runner.invoke(main, args + ["--out", out])
    assert res.exit_code == 0, res.output
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.iterdir()} == digests
