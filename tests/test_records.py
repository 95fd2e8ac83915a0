"""The record types: construction, defaults, equality, hashing, freezing and
repr, as the library relies on them, checked on the library's own records."""

import ast
from pathlib import Path

import numpy as np
import pytest

import qhv
from qhv import codes as cod
from qhv import collineations as col
from qhv import geometry as geo
from qhv import oa as oam
from qhv.fields import field_context
from qhv.oracles import GridInstance, GridSpec

CTX = field_context(3)


def _params(b=2, condition="affine"):
    return geo.BMParams(CTX, 2, 1, b, condition)


def test_positional_and_keyword_construction_agree():
    by_keyword = geo.BMParams(condition="affine", b=2, a=1, n=2, ctx=CTX)
    assert by_keyword == _params() == geo.BMParams(CTX, 2, a=1, b=2,
                                                   condition="affine")
    assert (by_keyword.ctx, by_keyword.n, by_keyword.a, by_keyword.b,
            by_keyword.condition) == (CTX, 2, 1, 2, "affine")


def test_defaults_apply_and_yield_to_arguments():
    words = np.zeros((1, 3), dtype=np.int32)
    code = cod.FqLinearCode(3, 3, words, 0, words[:0])
    assert code.min_dist is None and code.is_mds is None
    assert cod.FqLinearCode(3, 3, words, 0, words[:0], min_dist=1).min_dist == 1
    assert GridSpec(()).budget == 10**7
    assert GridSpec((), 5).budget == GridSpec((), budget=5).budget == 5
    assert GridInstance(2, 3) == GridInstance(2, 3, None, None)
    A = oam.OrthogonalArray(1, 1, 2, 2, 1, np.zeros((1, 1), np.int64), (0,))
    assert A.params is None


@pytest.mark.parametrize("call,message", [
    (lambda: geo.BMParams(CTX, 2, 1, 2), "missing .*'condition'"),
    (lambda: GridInstance(q=3), "missing .*'n'"),
    (lambda: GridInstance(2, 3, c=1), "unexpected keyword argument 'c'"),
    (lambda: GridInstance(2, 3, 1, 2, 5), "positional arguments but 6 were given"),
    (lambda: GridInstance(2, 3, n=2), "multiple values for argument 'n'"),
], ids=["missing-last", "missing-first", "unknown", "too-many", "repeated"])
def test_missing_or_unknown_arguments_raise_type_error(call, message):
    with pytest.raises(TypeError, match=message):
        call()


@pytest.mark.parametrize("record,field", [(_params(), "n"),
                                          (col.identity(3), "alphas")],
                         ids=["BMParams", "Collineation"])
def test_frozen_records_refuse_assignment_and_deletion(record, field):
    before = getattr(record, field)
    for name in (field, "new_attribute"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 1)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)
    assert getattr(record, field) == before
    assert not hasattr(record, "new_attribute")


def test_equal_frozen_records_are_equal_and_hash_equal():
    pairs = [(_params(), _params()),
             (col.Collineation((1, 2), (3,)), col.Collineation((1, 2), (3,))),
             (GridSpec.of((2, 2), (3, 3)), GridSpec.of((2, 2), (3, 3)))]
    for left, right in pairs:
        assert left is not right
        assert left == right and not left != right
        assert hash(left) == hash(right)
    assert len({_params(), _params(), _params(condition="QH1")}) == 2
    assert _params() != _params(b=4)
    assert col.Collineation((1, 2), (3,)) != col.Collineation((1, 2), (4,))


def test_records_of_other_classes_never_compare_equal():
    assert GridInstance(2, 3) != (2, 3, None, None)
    assert GridInstance(2, 3).__eq__((2, 3, None, None)) is NotImplemented


def test_mutable_records_compare_by_field_and_are_unhashable():
    report = oam.StrengthReport(2, 1, 6, [])
    assert report == oam.StrengthReport(2, 1, 6, [])
    assert report != oam.StrengthReport(2, 1, 6, [((0, 1), (0, 0), 3)])
    report.index = None
    assert report.index is None and not report.ok
    with pytest.raises(TypeError, match="unhashable"):
        hash(report)


def test_point_set_compares_by_identity():
    first = geo.point_set(2, [[1, 0, 0], [0, 1, 0]])
    second = geo.point_set(2, [[1, 0, 0], [0, 1, 0]])
    assert np.array_equal(first.points, second.points)
    assert first == first and first != second
    assert len({first, second}) == 2


def test_post_init_checks_still_run():
    with pytest.raises(ValueError, match="need n alphas and n-1 betas"):
        col.Collineation((1, 2), ())
    points = geo.point_set(1, [[1, 1], [0, 1], [1, 1]])
    assert points.points.tolist() == [[0, 1], [1, 1]]
    assert not points.points.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        points.points[0, 0] = 2


def test_repr_names_every_field():
    assert repr(GridInstance(2, 3)) == "GridInstance(n=2, q=3, a=None, b=None)"
    assert repr(col.Collineation((1, 2), (3,))) == \
        "Collineation(alphas=(1, 2), betas=(3,))"
    assert repr(oam.StrengthReport(2, None, 0, [])) == \
        "StrengthReport(strength=2, index=None, subsets_checked=0, violations=[])"
    assert repr(GridSpec((), 5)) == "GridSpec(instances=(), budget=5)"


def test_no_module_generates_code():
    """The records install closures: nothing in the package calls exec, eval
    or compile."""
    calls = []
    for path in sorted(Path(qhv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("exec", "eval", "compile")):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []
