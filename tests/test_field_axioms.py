"""Field axioms of the scalar ops, as property tests over every q <= 32.

Each example draws a prime power q, one of the two fields of its context and
field elements; ``conftest.SETTINGS`` keeps the examples fixed.
"""

from hypothesis import given
from hypothesis import strategies as st

from conftest import SETTINGS
from qhv.fields import field_context, prime_power


def _is_prime_power(q: int) -> bool:
    try:
        prime_power(q)
    except ValueError:
        return False
    return True


PRIME_POWERS = [q for q in range(2, 33) if _is_prime_power(q)]


@st.composite
def field_and_elements(draw):
    ctx = field_context(draw(st.sampled_from(PRIME_POWERS)))
    F = getattr(ctx, draw(st.sampled_from(["Fq", "Fq2"])))
    return (ctx, F) + tuple(draw(st.integers(0, F.order - 1)) for _ in range(3))


@SETTINGS
@given(field_and_elements())
def test_field_axioms(args):
    _, F, a, b, c = args
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, 0) == a and F.mul(a, 1) == a
    assert F.sub(a, b) == F.add(a, F.neg(b))
    assert F.add(a, F.neg(a)) == 0
    if a:
        assert F.mul(a, F.inv(a)) == 1


@SETTINGS
@given(field_and_elements())
def test_frobenius_is_a_field_map(args):
    # x -> x^p on either field, and x -> x^q on GF(q^2)
    ctx, F, a, b, _ = args
    maps = [lambda x: F.pow(x, F.char)]
    if F is ctx.Fq2:
        maps.append(ctx.frob.__getitem__)
    for frob in maps:
        assert frob(F.add(a, b)) == F.add(frob(a), frob(b))
        assert frob(F.mul(a, b)) == F.mul(frob(a), frob(b))
