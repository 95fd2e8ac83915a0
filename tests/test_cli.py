import hashlib
import json
import re
import time
from contextlib import nullcontext

import numpy as np
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
    assert res.stderr == ""
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


def test_variety_failure_names_first_hyperplane(runner, tmp_path, monkeypatch):
    from qhv import geometry as geo
    from qhv.fields import field_context

    build = geo.bm_variety

    def doctored(params, budget):
        S = build(params, budget=budget)
        return geo.point_set(S.n, np.delete(S.points, 5, axis=0))

    monkeypatch.setattr(geo, "bm_variety", doctored)
    res = runner.invoke(main, ["variety", "--q", "3", "--n", "2",
                               "--out", str(tmp_path / "v")])
    assert res.exit_code == 1
    assert "two-character FAILED" in res.stdout
    found = re.fullmatch(r"two-character check: first hyperplane outside "
                         r"\[1, 4\] is \[(\d+), (\d+), (\d+)\], meeting M in "
                         r"(\d+) points\n"
                         # row 5 is the second affine point over x_1 = 1
                         r"variety check: first head \[1\] carries 2 affine "
                         r"points, expected 3\n", res.stderr)
    assert found, res.stderr
    *named, count = map(int, found.groups())
    ctx = field_context(3)
    F = ctx.Fq2
    S = doctored(geo.scan_params(ctx, 2, mode="variety"), 10**6)

    def meets(h):
        dots = [F.add(F.add(F.mul(h[0], x[0]), F.mul(h[1], x[1])), F.mul(h[2], x[2]))
                for x in S.points.tolist()]
        return dots.count(0)

    assert meets(named) == count and count not in (1, 4)
    for h in geo.projective_points(F, 2).tolist():
        if h == named:
            break
        assert meets(h) in (1, 4), h


def test_variety_size_failure_without_hyperplane_witness(runner, tmp_path,
                                                         monkeypatch):
    from qhv import geometry as geo

    # the plane's count only: the section sizes are Hermitian counts in PG(1)
    # and PG(0), and stay right
    real = geo.hermitian_size
    monkeypatch.setattr(geo, "hermitian_size",
                        lambda n, q: 29 if n == 2 else real(n, q))
    res = runner.invoke(main, ["variety", "--q", "3", "--n", "2",
                               "--out", str(tmp_path / "v")])
    assert res.exit_code == 1
    assert res.stderr == ("two-character check: no hyperplane count outside "
                          "[1, 4]; |M| = 28, expected 29\n")


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
    from qhv import linalg

    span = linalg.row_space

    def doctored_span(F, words):
        # one built word leaves the code before its span is proved, so the
        # certificate fails and the scans name the word
        words[10, 6] = (words[10, 6] + 1) % F.order
        return span(F, words)

    monkeypatch.setattr(linalg, "row_space", doctored_span)
    res = runner.invoke(main, ["code", "--q", "7", "--out", str(tmp_path / "c7")])
    assert res.exit_code == 1
    assert "first at codeword 10, coordinate 6" in res.stderr
    meta = json.loads((tmp_path / "c7.json").read_text())
    assert "first_mismatch" not in meta["rs_equivalence"]


def test_code_strict_small_q_exits_2(runner, tmp_path):
    res = runner.invoke(main, ["code", "--q", "4", "--strict",
                               "--out", str(tmp_path / "c4")])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == "q <= 4: the MDS construction requires q > 4\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("q,message", [
    ("1", "q must be a prime power >= 2, got 1"),
    ("-3", "q must be a prime power >= 2, got -3"),
    ("0", "q must be a prime power >= 2, got 0"),
    ("6", "q = 6 is not a prime power"),
])
def test_code_strict_checks_q_before_the_mds_contract(runner, tmp_path, q,
                                                      message):
    # --strict refuses only a valid q <= 4; a bad q gets plain code's message
    for strict in ([], ["--strict"]):
        res = runner.invoke(main, ["code", "--q", q, *strict,
                                   "--out", str(tmp_path / "c")])
        assert res.exit_code == 2
        assert res.stderr == f"invalid parameters: {message}\n"
    assert not list(tmp_path.iterdir())


def test_code_small_q_warns_but_builds(runner, tmp_path):
    res = runner.invoke(main, ["code", "--q", "4",
                               "--out", str(tmp_path / "c4w")])
    assert res.exit_code == 0
    assert "MDS/RS contracts not applicable" in res.output
    assert "--doubly-extend" not in res.stderr


def test_code_small_q_says_it_ignores_doubly_extend(runner, tmp_path):
    # the q <= 4 code has no extension: same artifacts, and stderr says so
    metas = []
    for name, flag in (("plain", []), ("ext", ["--doubly-extend"])):
        res = runner.invoke(main, ["code", "--q", "4", *flag,
                                   "--out", str(tmp_path / name)])
        assert res.exit_code == 0, res.output
        metas.append(json.loads((tmp_path / f"{name}.json").read_text()))
    assert res.stderr.splitlines()[-2:] == [
        "warning: q <= 4, MDS/RS contracts not applicable",
        "--doubly-extend ignored: q <= 4"]
    assert ((tmp_path / "plain.genmat.txt").read_bytes()
            == (tmp_path / "ext.genmat.txt").read_bytes())
    for meta in metas:
        del meta["config"]["out"], meta["config"]["doubly_extend"]
    assert metas[0] == metas[1] and metas[1]["length"] == 4


@pytest.mark.parametrize("q", [3, 5])
def test_plain_code_writes_the_scale_to_fq_generator(runner, tmp_path, q):
    # plain `qhv code` punctures the double extension; the span of the
    # [q, 5] code itself is the reference
    from qhv import codes, geometry
    from qhv.fields import field_context

    res = runner.invoke(main, ["code", "--q", str(q), "--out", str(tmp_path / "c")])
    assert res.exit_code == 0, res.output
    params = geometry.scan_params(field_context(q), 3, mode="family")
    with pytest.warns(UserWarning, match="<= 4") if q <= 4 else nullcontext():
        ref = codes.scale_to_fq(codes.build_code(params))
    written = [[int(x) for x in line.split()] for line in
               (tmp_path / "c.genmat.txt").read_text().splitlines()]
    assert written == ref.generator.tolist()


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


@pytest.mark.parametrize("command", ["variety", "oa"])
def test_n_below_two_exits_2_naming_the_dimension(runner, tmp_path, command):
    res = runner.invoke(main, [command, "--q", "9", "--n", "1",
                               "--out", str(tmp_path / "x")])
    assert res.exit_code == 2
    assert res.stderr == "invalid parameters: ambient dimension n must be >= 2\n"


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
    ["variety", "--q", "10000019"],
], ids=["variety", "oa", "code", "grid", "variety-large-prime"])
def test_field_above_dense_limit_exits_3(runner, tmp_path, args):
    res = runner.invoke(main, args + ["--out", str(tmp_path / "x")])
    assert res.exit_code == 3
    assert isinstance(res.exception, SystemExit)
    assert len(res.stderr.strip().splitlines()) == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    ["variety", "--q", "2"],
    ["oa", "--q", "2", "--n", "2"],
    ["code", "--q", "5"],
    ["grid", "--instances", "2,2"],
], ids=["variety", "oa", "code", "grid"])
def test_unwritable_out_exits_2(runner, tmp_path, args):
    res = runner.invoke(main, args + ["--out", str(tmp_path / "missing" / "x")])
    assert res.exit_code == 2
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
    # q^5 codewords of q cells at q = 5, against the budget
    assert "15625" in checks["code"]["skipped"]
    assert "1000" in checks["code"]["skipped"]


@pytest.mark.parametrize("budget,runs_mu", [(19682, False), (19683, True)])
def test_grid_budget_bounds_intersection_matrix(runner, tmp_path, budget, runs_mu):
    # k = 81 forms at (3,3); the one-hot matrix behind the k x k counts has
    # up to q k rows, so it needs a budget of q k^2 = 19683
    res = runner.invoke(main, ["grid", "--instances", "3,3", "--budget",
                               str(budget), "--out", str(tmp_path / "g")])
    # the oracle's 81 x 3^6 evaluations are over this budget either way
    assert res.exit_code == 1
    checks = json.loads((tmp_path / "g.json").read_text())["instances"][0]["checks"]
    # the array has N k = q k^2 cells too, so it runs exactly when mu does
    assert ("skipped" not in checks["oa"]) == checks["oa"]["ok"] == runs_mu
    assert ("skipped" not in checks["mutual_mu"]) == runs_mu
    assert checks["mutual_mu"]["ok"] == runs_mu
    # the oracle is skipped anyway, for its evaluation count when mu runs
    reason = checks["oracle_agreement"]["skipped"]
    assert ("intersection matrix" in reason) != runs_mu


def test_grid_budget_skips_family_without_traceback(runner, tmp_path):
    # R alone would have q^{2n-2} = 2^78 members
    start = time.perf_counter()
    res = runner.invoke(main, ["grid", "--instances", "40,2", "--budget", "20000",
                               "--out", str(tmp_path / "g")])
    assert time.perf_counter() - start < 5
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    checks = json.loads((tmp_path / "g.json").read_text())["instances"][0]["checks"]
    assert checks["family_size"] == {
        "ok": False, "skipped": f"R would have {2**78} members, budget is 20000"}
    for name in ("mutual_mu", "oracle_agreement"):
        assert checks[name] == {"ok": False, "skipped": "the family was skipped"}
    for name in ("variety_size", "oa"):
        assert not checks[name]["ok"] and "skipped" in checks[name], name


def test_grid_status_names_the_checks_skipped_over_budget(runner, tmp_path):
    # 2^8 forms x 16^4 points exceed the default budget of 10^7
    res = runner.invoke(main, ["grid", "--instances", "2,16;2,2",
                               "--out", str(tmp_path / "g")])
    assert res.exit_code == 1
    assert res.stdout.splitlines()[1:] == [
        "(n=2, q=16): skipped (oracle_agreement)", "(n=2, q=2): ok"]
    inst = json.loads((tmp_path / "g.json").read_text())["instances"][0]
    assert not inst["ok"]
    assert [name for name, c in inst["checks"].items() if not c["ok"]] == [
        "oracle_agreement"]
    assert "16777216" in inst["checks"]["oracle_agreement"]["skipped"]


def test_grid_status_fails_when_a_run_check_fails_beside_a_skip(
        runner, tmp_path, monkeypatch):
    from qhv import oracles

    run_grid = oracles.run_grid

    def one_check_failed(spec):
        report = run_grid(spec)
        report["instances"][0]["checks"]["oa"]["ok"] = False
        return report

    monkeypatch.setattr(oracles, "run_grid", one_check_failed)
    res = runner.invoke(main, ["grid", "--instances", "2,16",
                               "--out", str(tmp_path / "g")])
    assert res.exit_code == 1
    assert res.stdout.splitlines()[1:] == ["(n=2, q=16): FAILED"]


def test_oa_strength_failure_names_first_witness(runner, tmp_path, monkeypatch):
    from qhv import oa as oa_mod
    from qhv.oracles import naive_strength_violations

    build = oa_mod.build_oa

    def doctored_build(params, budget):
        A = build(params, budget=budget)
        A.entries[5, 4] = (A.entries[5, 4] + 1) % A.levels
        return A

    monkeypatch.setattr(oa_mod, "build_oa", doctored_build)
    out = tmp_path / "arr"
    res = runner.invoke(main, ["oa", "--q", "3", "--n", "2", "--out", str(out)])
    assert res.exit_code == 1
    rows = [[int(x) for x in line.split(",")]
            for line in (tmp_path / "arr.csv").read_text().splitlines()]
    cols, symbols, count = naive_strength_violations(rows, 3, 2)[0]
    assert res.stderr == (f"strength check: first violation at columns {cols}, "
                          f"symbols {symbols}: {count} rows, expected 3\n")
    assert "strength FAILED" in res.stdout


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
    # n >= 3: the cone at infinity has more than its vertex
    "var23": (["variety", "--q", "2", "--n", "3"], {
        "var23.json": "21c625c63a209e21e0117b734de5dc9ba373c389c97b4d3a1a6b0d8856405e4e",
        "var23.points.txt": "5a55a0af472a39a85689a92930583c9faed4f2179abe581788600bf9ae224d98",
    }),
    "var42": (["variety", "--q", "2", "--n", "4", "--format", "json"], {
        "var42.json": "15d4d4bdf926acccf68685e552ead05e95a8a5c69fc20597fcf592c74c0b10b8",
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


@pytest.mark.parametrize("args", [
    ["nosuch"],
    ["variety", "--q", "3", "--bogus"],
    ["variety", "--n", "2"],
    ["variety", "--q", "x"],
    ["variety", "--q", "2", "--format", "xml"],
    ["variety", "--q", "2", "--n"],
    ["variety", "--q", "2", "extra"],
], ids=["unknown-command", "unknown-option", "missing-q", "q-not-int",
        "format-xml", "trailing-n", "stray-positional"])
def test_usage_error_exits_2(runner, tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args,message", [
    (["grid", "--instances", "-2,3"], "ambient dimension n must be >= 2, got -2"),
    (["variety", "--q", "3", "--a", "-5"],
     "a = -5 is not a nonzero GF(q^2) code"),
], ids=["instances", "a"])
def test_an_option_value_may_start_with_a_dash(runner, tmp_path, args, message):
    # the value reaches the command's own check, not a usage error
    res = runner.invoke(main, args + ["--out", str(tmp_path / "x")])
    assert res.exit_code == 2
    assert res.stderr == f"invalid parameters: {message}\n"


@pytest.mark.parametrize("command", [
    ["variety", "--q", "3"], ["oa", "--q", "3", "--n", "2"], ["code", "--q", "5"],
], ids=["variety", "oa", "code"])
@pytest.mark.parametrize("pinned,message", [
    (["--a", "99"], "a = 99 is not a nonzero GF(q^2) code"),
    (["--a", "99", "--b", "5"], "a = 99 is not a nonzero GF(q^2) code"),
    (["--b", "99"], "b = 99 is not a GF(q^2) code"),
    (["--b", "1"], "b = 1 lies in GF(q); b^q - b would vanish"),
    (["--a", "99", "--b", "1"], "a = 99 is not a nonzero GF(q^2) code"),
], ids=["a_out_of_range", "a_out_of_range_b_pinned", "b_out_of_range",
        "b_in_gf_q", "a_and_b_bad"])
def test_a_half_pinned_pair_names_its_fault(runner, tmp_path, command, pinned,
                                            message):
    # one pinned code, the other scanned: the same message in every command,
    # and the one a fully pinned pair with the same fault gets; with both
    # codes bad every command names a, as the judge checks a before b
    res = runner.invoke(main, command + pinned + ["--out", str(tmp_path / "x")])
    assert res.exit_code == 2
    assert res.stderr == f"invalid parameters: {message}\n"
    assert not list(tmp_path.iterdir())


HELP_NAMES = {
    None: ["--help", "variety", "oa", "code", "grid"],
    "variety": ["--help", "--q", "--n", "--a", "--b", "--out", "--format",
                "--budget"],
    "oa": ["--help", "--q", "--n", "--a", "--b", "--out", "--format",
           "--budget"],
    "code": ["--help", "--q", "--a", "--b", "--out", "--strict", "--no-strict",
             "--doubly-extend", "--dump-codewords", "--budget"],
    "grid": ["--help", "--instances", "--out", "--budget"],
}


@pytest.mark.parametrize("command", sorted(HELP_NAMES, key=str))
def test_help_names_every_option(runner, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    res = runner.invoke(main, [command, "--help"] if command else ["--help"])
    assert res.exit_code == 0 and res.stderr == ""
    for name in HELP_NAMES[command]:
        assert re.search(rf"(?<![\w-]){name}(?![\w-])", res.stdout), name
    assert not list(tmp_path.iterdir())
