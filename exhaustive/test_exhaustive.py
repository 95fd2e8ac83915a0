"""The opt-in exhaustive tier: tier-1's exact checks on instances too large
for it.  It lies outside ``testpaths``, so a plain ``pytest`` never runs it:

    PYTHONPATH=src python -m pytest exhaustive -q

Run it whenever a change touches the family, the orthogonal array, the
codes or the spectrum, and report its result next to the tier-1 count.
"""

import pytest

from qhv import geometry as geo
from qhv import oa as oam
from qhv.fields import field_context


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
