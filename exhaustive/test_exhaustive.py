"""The opt-in exhaustive tier: tier-1's exact checks on instances too large
for it.  It lies outside ``testpaths``, so a plain ``pytest`` never runs it:

    PYTHONPATH=src python -m pytest exhaustive -q

Run it whenever a change touches the family, the orthogonal array, the
codes or the spectrum, and report its result next to the tier-1 count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

# one OpenBLAS thread unless the caller says otherwise, as in tests/conftest.py;
# numpy reads this when qhv first imports it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from qhv import codes as cod  # noqa: E402
from qhv import geometry as geo  # noqa: E402
from qhv.cli import main  # noqa: E402
from qhv import oa as oam  # noqa: E402
from qhv.fields import field_context  # noqa: E402
from qhv.oracles import GridInstance, GridSpec, run_instance  # noqa: E402

# tier-1's acceptance checks, run here on larger instances
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_acceptance import check_every_family_pair, check_mds_code  # noqa: E402


def _array(n, q):
    return oam.build_oa(geo.scan_params(field_context(q), n, mode="family"))


def _assert_certified(A, n, q):
    """The linear-code certificate gave a clean strength-2 report."""
    k = A.factors
    report = oam.verify_strength(A, 2)
    assert oam._is_linear_code_array(A)
    assert report.ok and report.index == q ** (2 * n - 3)
    assert report.subsets_checked == k * (k - 1) // 2
    return report


@pytest.mark.parametrize("n,q", [(4, 3), (3, 5), (2, 16)])
def test_certificate_matches_the_gram_count(n, q):
    A = _array(n, q)
    assert oam._count_strength(A, 2) == _assert_certified(A, n, q)


@pytest.mark.parametrize("n,q", [(2, 19), (2, 25)])
def test_certificate_and_simplicity_where_the_count_is_slow(n, q):
    # the Gram count takes 6.6 s at (2,19) and 68 s at (2,25) on a 2-vCPU VM
    A = _array(n, q)
    _assert_certified(A, n, q)
    assert oam.verify_simple(A)


@pytest.mark.parametrize("n,q,pairs", [(2, 7, 1722), (3, 4, 192)])
def test_criteria_1_2_at_every_family_pair(n, q, pairs):
    assert check_every_family_pair(n, q) == pairs


@pytest.mark.parametrize("q", [16, 17])
def test_criterion_3_mds_codes(q):
    # q^6 codeword-table cells exceed the default budget of 10^7 at both
    assert check_mds_code(q, budget=10**8) == (q - 4, q - 3)


@pytest.mark.parametrize("q", [16, 17])
def test_extension_proof_catches_a_row_at_first_middle_last_position(q):
    # tier-1's test of the same name at q = 16 and 17: one row's appended
    # coordinate alone is off, so the extension has dimension 6 and its
    # last generator row is the unit vector; every row lies in the final
    # span, and its q^6 vectors outgrow the q^5 rows
    ec = cod.build_code(geo.scan_params(field_context(q), 3, mode="family"),
                        budget=10**8)
    Fq = ec.params.ctx.Fq
    plain = cod.doubly_extend(ec).codewords
    N = len(ec)
    for row in (0, N // 2, N - 1):
        doctored = plain.copy()
        doctored[row, q] = Fq.add(int(doctored[row, q]), 1)
        dx = cod._fq_code(ec.params.ctx, doctored)
        assert dx.dimension == 6, row
        assert dx.generator[-1].tolist() == [0] * q + [1]
        _assert_spanned_wider(dx, doctored)
    # a second off row past the first, outside the code plus e_q, is met
    # where the span has outgrown the rows
    doctored = plain.copy()
    doctored[N // 2, q] = Fq.add(int(doctored[N // 2, q]), 1)
    doctored[N - 1, 0] = Fq.add(int(doctored[N - 1, 0]), 1)
    dx = cod._fq_code(ec.params.ctx, doctored)
    assert dx.dimension == 7
    assert dx.generator[-1].tolist() == [0] * q + [1]
    _assert_spanned_wider(dx, doctored)


def _assert_spanned_wider(code, words):
    """Each word is the span vector whose coordinates in the code's RREF
    generator are its entries at the pivots, and the span is wider than
    the words."""
    Fq = field_context(code.q).Fq
    add, mul = Fq.np_add_table(), Fq.np_mul_table()
    span = np.zeros_like(words)
    for row in code.generator:
        pivot = int(np.flatnonzero(row)[0])
        span = add[span, mul[words[:, pivot, None], row]]
    assert np.array_equal(span, words)
    assert not code.whole


def test_code_command_at_q_19(tmp_path):
    # 19^6 = 47045881 cells; the span certificate proves d, MDS and RS
    # equivalence, so no scan reads the 19^5 words again
    res = CliRunner().invoke(main, ["code", "--q", "19", "--doubly-extend",
                                    "--budget", "100000000",
                                    "--out", str(tmp_path / "c19")])
    assert res.exit_code == 0, res.output
    assert res.stdout.endswith("[19,5,15] doubly extended to [20,5,16]: ok "
                               "(MDS True, RS-equivalent True)\n")
    meta = json.loads((tmp_path / "c19.json").read_text())
    assert (meta["length"], meta["dimension"], meta["min_distance"],
            meta["mds"], meta["codewords"]) == (20, 5, 16, True, 19**5)
    assert meta["rs_equivalence"] == {"consistent": True, "two_sided": True,
                                      "checked": 19**5, "mismatches": 0}


@pytest.mark.parametrize("argv,megabytes,line", [
    (["oa", "--q", "8", "--n", "3"], 1000,
     "OA(32768,4096,8,2) index 512: strength ok, simple ok\n"),
    (["code", "--q", "23", "--doubly-extend"], 1150,
     "[23,5,19] doubly extended to [24,5,20]: ok (MDS True, RS-equivalent True)\n"),
], ids=["oa_3_8", "code_23"])
def test_commands_at_2e8_cells_fit_their_measured_memory(tmp_path, argv,
                                                         megabytes, line):
    # the caps leave at least 100 MiB above the least address space each
    # command passed in with one OpenBLAS thread, about 875 and 1040 MiB;
    # a listing of the span beside the array or the code, 8^5 or 23^5 rows
    # of its free columns, would not fit
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (megabytes << 20, megabytes << 20))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src}
    env.pop("QHV_BUDGET", None)
    res = subprocess.run([sys.executable, "-m", "qhv.cli", *argv,
                          "--budget", "200000000", "--out", "x"],
                         cwd=tmp_path, env=env, capture_output=True, text=True,
                         timeout=600, preexec_fn=cap)
    assert res.returncode == 0, res.stderr
    assert res.stdout.endswith(line)


def test_variety_command_at_4_7(tmp_path):
    # 840400 points: the points file is one format_rows gather, checked here
    # against a join per point of bm_variety's points
    res = CliRunner().invoke(main, ["variety", "--q", "7", "--n", "4",
                                    "--out", str(tmp_path / "v")])
    assert res.exit_code == 0, res.output
    ctx = field_context(7)
    S = geo.bm_variety(geo.scan_params(ctx, 4, mode="variety"))
    names = [ctx.format_element(x) for x in range(ctx.q2)]
    lines = [" ".join(names[x] for x in pt) for pt in S.points.tolist()]
    assert (tmp_path / "v.points.txt").read_bytes() == \
        ("\n".join(lines) + "\n").encode()
    report = json.loads((tmp_path / "v.json").read_text())
    assert report["size"] == len(S) == 840400 and report["two_character_ok"]


def test_grid_instance_with_its_oracle_at_3_5():
    # 625 forms x 5^6 points = 9765625 evaluations, under a budget of 10^8
    report = run_instance(GridInstance(3, 5), GridSpec((), budget=10**8))
    checks = report["checks"]
    assert len(checks) == 9 and report["ok"], checks
    assert all("skipped" not in c for c in checks.values())
    assert checks["oracle_agreement"]["pairs_checked"] == 625 * 624 // 2


@pytest.mark.parametrize("n,q,size,spectrum", [
    (4, 5, 81276, {3151: 81276, 3276: 325625}),
    (6, 3, 199108, {21961: 199108, 22204: 398763}),
    # on a 2-vCPU VM the full count takes 27-43 s at (4,7) and 15-19 s at
    # (5,4), the orbit route under 0.1 s at either
    (4, 7, 840400, {16857: 840400, 17200: 5044501}),
    (5, 4, 279825, {17425: 838656, 17681: 279825}),
])
def test_character_spectrum(n, q, size, spectrum):
    ctx = field_context(q)
    params = geo.scan_params(ctx, n, mode="variety")
    S = geo.bm_variety(params)
    found = geo.character_spectrum(S, ctx)
    assert len(S) == size == geo.hermitian_size(n, q)
    assert dict(found) == spectrum
    # the orbit route proves its certificate here and gives the full count's
    # spectrum
    assert geo._orbit_spectrum(S, params, geo.DEFAULT_BUDGET) == found
    assert geo.character_spectrum(S, ctx, params=params) == found
    # test_every_pair_sweep's identities: every hyperplane counted once, and
    # every point on each of the (q^{2n}-1)/(q^2-1) hyperplanes through it
    assert set(found) == geo.expected_spectrum_support(n, q)
    assert sum(found.values()) == geo.num_projective_points(ctx.q2, n)
    assert sum(c * m for c, m in found.items()) == \
        size * (q ** (2 * n) - 1) // (q * q - 1)
