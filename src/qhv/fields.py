"""Exact arithmetic in GF(q) and GF(q^2) for a prime power q.

Field elements are plain Python ints.  An element of GF(p^m) is the base-p
encoding of its coefficient vector over GF(p), least significant digit first,
so integer order is the canonical element order used everywhere (exports,
level maps, lexicographic scans).  GF(q^2) is built as a quadratic tower over
GF(q); with this encoding the subfield GF(q) occupies exactly the codes
0..q-1 and embedding is the identity on codes.

Moduli are chosen deterministically (the lexicographically smallest monic
irreducible polynomial, ordered by the integer encoding of the non-leading
coefficients, found by trial division), so the same q always yields
bit-identical contexts.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

#: largest field order; every field builds dense order x order tables
DENSE_TABLE_LIMIT = 1 << 10
#: default bound on every enumeration (points, array cells, codewords, ...)
DEFAULT_BUDGET = 10**7


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured desk-scale budget."""


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


def prime_power(q: int) -> tuple[int, int]:
    """Split q = p^h with p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"q must be a prime power >= 2, got {q}")
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"q = {q} is not a prime power")
    p, h = factors[0], 1
    while p**h < q:
        h += 1
    return p, h


class PrimeField:
    """GF(p) with elements 0..p-1."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.order = p
        self.char = p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.inv(self.pow(a, -e))
        return pow(a, e, self.p)


# ---------------------------------------------------------------------------
# Polynomial helpers over an arbitrary field object (coefficient lists are
# little-endian; the field supplies add/sub/mul/inv on int codes).
# ---------------------------------------------------------------------------

def _ptrim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmul(F, f: list[int], g: list[int]) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi == 0:
            continue
        for j, gj in enumerate(g):
            if gj:
                out[i + j] = F.add(out[i + j], F.mul(fi, gj))
    return _ptrim(out)


def _pdivmod(F, f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of f by the nonzero polynomial g."""
    lc = g[-1]
    rem = list(f)
    d = len(g) - 1
    qc = [0] * max(len(rem) - d, 1)
    while len(rem) > d:
        c = rem[-1]
        k = len(rem) - 1 - d
        if c:
            cc = F.div(c, lc)
            qc[k] = cc
            for j in range(d + 1):
                if g[j]:
                    rem[k + j] = F.sub(rem[k + j], F.mul(cc, g[j]))
        rem.pop()
    return _ptrim(qc), _ptrim(rem)


def _pext_inv(F, f: list[int], m: list[int]) -> list[int]:
    """Inverse of f modulo the monic irreducible m, by extended Euclid."""
    r0, r1 = list(m), _pdivmod(F, f, m)[1]
    s0, s1 = [], [1]
    while r1:
        q, rem = _pdivmod(F, r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _psub(F, s0, _pmul(F, q, s1))
    if len(r0) != 1:
        raise ZeroDivisionError("element not invertible modulo m")
    c = F.inv(r0[0])
    return _ptrim([F.mul(c, x) for x in s0])


def _psub(F, f: list[int], g: list[int]) -> list[int]:
    n = max(len(f), len(g))
    out = [0] * n
    for i in range(n):
        a = f[i] if i < len(f) else 0
        b = g[i] if i < len(g) else 0
        out[i] = F.sub(a, b)
    return _ptrim(out)


def _monic_polys(F, degree: int):
    """Monic polynomials of the given degree over F, ordered by the integer
    encoding of their non-leading coefficients (constant term least
    significant)."""
    for high_first in product(range(F.order), repeat=degree):
        yield [*reversed(high_first), 1]


def is_irreducible(F, f: list[int]) -> bool:
    """True iff the monic f of degree d >= 1 has no monic factor of degree
    1..d//2 over the field F (trial division)."""
    d = len(f) - 1
    if d < 1 or f[-1] != 1:
        return False
    return all(_pdivmod(F, f, g)[1]
               for k in range(1, d // 2 + 1) for g in _monic_polys(F, k))


def smallest_irreducible(F, degree: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of the given degree over F,
    in the order of ``_monic_polys``."""
    return tuple(next(f for f in _monic_polys(F, degree) if is_irreducible(F, f)))


class ExtensionField:
    """GF(base.order^degree) as base[x]/(modulus), elements as int codes.

    The code of sum(c_i x^i) is sum(code(c_i) * base.order^i).  Orders above
    ``DENSE_TABLE_LIMIT`` are refused; every field builds discrete-log tables
    for multiplication, inversion and exponentiation, and dense tables for
    addition and negation.  The digit-level ``_add_raw``, ``_mul_raw``,
    ``_pow_raw`` and extended-Euclid ``inv_euclid`` are the table-free
    references the tables are built from and tested against.
    """

    def __init__(self, base, modulus: tuple[int, ...]):
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        self.base = base
        self.modulus = tuple(modulus)
        self.degree = len(modulus) - 1
        self.order = base.order**self.degree
        if self.order > DENSE_TABLE_LIMIT:
            raise BudgetExceededError(
                f"field order {self.order} exceeds the desk-scale limit "
                f"{DENSE_TABLE_LIMIT}")
        self.char = base.char
        self._b = base.order
        self._build_log_tables()
        self._build_dense_tables()

    # -- raw digit-level arithmetic -------------------------------------

    def digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.degree):
            a, r = divmod(a, self._b)
            out.append(r)
        return out

    def undigits(self, ds) -> int:
        a = 0
        for d in reversed(list(ds)):
            a = a * self._b + d
        return a

    def _add_raw(self, a: int, b: int) -> int:
        F = self.base
        da, db = self.digits(a), self.digits(b)
        return self.undigits(F.add(x, y) for x, y in zip(da, db))

    def _mul_raw(self, a: int, b: int) -> int:
        f = _pmul(self.base, self.digits(a), self.digits(b))
        _, f = _pdivmod(self.base, f, self.modulus)
        return self.undigits(f + [0] * (self.degree - len(f)))

    def _pow_raw(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return r

    def _build_log_tables(self) -> None:
        n = self.order - 1
        factors = _prime_factors(n)
        g = None
        for cand in range(1, self.order):
            if all(self._pow_raw(cand, n // r) != 1 for r in factors):
                g = cand
                break
        if g is None:  # pragma: no cover - the unit group is always cyclic
            raise RuntimeError("no generator found")
        self.generator = g
        exp = [1] * n
        log = [0] * self.order
        v = 1
        for i in range(n):
            exp[i] = v
            log[v] = i
            v = self._mul_raw(v, g)
        self._exp = exp
        self._log = log

    # -- public arithmetic on int codes ----------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add_table[a][b]

    def neg(self, a: int) -> int:
        return self._neg_table[a]

    def sub(self, a: int, b: int) -> int:
        return self._add_table[a][self._neg_table[b]]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[(self.order - 1 - self._log[a]) % (self.order - 1)]

    def inv_euclid(self, a: int) -> int:
        """Inverse by extended Euclid on polynomial representatives."""
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        f = _pext_inv(self.base, self.digits(a), list(self.modulus))
        return self.undigits(f + [0] * (self.degree - len(f)))

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.inv(self.pow(a, -e))
        if a == 0:
            return 1 if e == 0 else 0
        return self._exp[(self._log[a] * e) % (self.order - 1)]

    # -- dense numpy tables for vectorised verification paths -------------

    def _build_dense_tables(self) -> None:
        """add and neg digit by digit mod p on the base-p codes, mul by logs."""
        codes = np.arange(self.order)
        p = self.char
        add, neg = np.zeros((self.order, self.order), np.int64), 0 * codes
        place = 1
        while place < self.order:
            digit = codes // place % p
            add += (digit[:, None] + digit) % p * place
            neg += -digit % p * place
            place *= p
        log = np.array([0] + self._log[1:])
        mul = np.array(self._exp)[(log[:, None] + log) % (self.order - 1)]
        mul[0, :] = mul[:, 0] = 0
        self._tables = {name: t.astype(np.int32) for name, t in
                        (("add", add), ("mul", mul), ("neg", neg))}
        for t in self._tables.values():
            t.flags.writeable = False
        # list views for the scalar paths
        self._add_table = self._tables["add"].tolist()
        self._neg_table = self._tables["neg"].tolist()

    def np_add_table(self) -> np.ndarray:
        return self._tables["add"]

    def np_mul_table(self) -> np.ndarray:
        return self._tables["mul"]

    def np_neg_table(self) -> np.ndarray:
        return self._tables["neg"]

    def __repr__(self) -> str:  # pragma: no cover
        return f"ExtensionField(order={self.order}, modulus={self.modulus})"


def absolute_trace(field: ExtensionField, x: int) -> int:
    """Trace of x down to the prime field GF(p): sum of x^(p^i)."""
    p = field.char
    m = 0
    n = field.order
    while p**m < n:
        m += 1
    t, y = 0, x
    for _ in range(m):
        t = field.add(t, y)
        y = field.pow(y, p)
    return t


class FieldCtx:
    """The pair GF(q) in GF(q^2) with a fixed basis element and transversal.

    Attributes of interest:

    * ``Fq`` / ``Fq2`` -- the two field objects; GF(q) codes are 0..q-1 and
      double as GF(q^2) codes for the embedded subfield.
    * ``epsilon`` -- basis element of GF(q^2) over GF(q): the least trace-zero
      element outside GF(q) for odd q, the least element with e^q = 1 + e for
      even q.  (1, epsilon) is always a basis.
    * ``transversal`` -- epsilon * GF(q) in GF(q)-code order: q additive coset
      representatives of GF(q), starting with 0.
    * ``theta`` -- a0 - 2*epsilon where a0 = trace(epsilon); the trace-zero
      set T0 equals theta * GF(q).
    """

    def __init__(self, q: int):
        p, h = prime_power(q)
        if q * q > DENSE_TABLE_LIMIT:
            raise BudgetExceededError(
                f"q^2 = {q * q} exceeds the desk-scale limit {DENSE_TABLE_LIMIT}"
            )
        self.p = p
        self.h = h
        self.q = q
        self.q2 = q * q
        prime = PrimeField(p)
        self.modulus_q = smallest_irreducible(prime, h)
        self.Fq = ExtensionField(prime, self.modulus_q)
        self.modulus_q2 = smallest_irreducible(self.Fq, 2)
        self.Fq2 = ExtensionField(self.Fq, self.modulus_q2)
        F = self.Fq2

        self.frob = [F.pow(x, q) for x in range(self.q2)]
        self._np_frob = np.array(self.frob, dtype=np.int32)

        self.epsilon = self._pick_epsilon()
        self.a0 = F.add(self.epsilon, self.frob[self.epsilon])
        self.theta = F.sub(self.a0, F.add(self.epsilon, self.epsilon))

        self.transversal = tuple(F.mul(self.epsilon, w) for w in range(q))

        # as_roots[d]: the q sorted roots of Z^q - Z = d, or -1s when
        # trace(d) != 0; stable sorting by d keeps each coset's roots sorted
        d = F.np_add_table()[self._np_frob, F.np_neg_table()]
        by_d = np.argsort(d, kind="stable").astype(np.int32)
        self.as_roots = np.full((self.q2, q), -1, dtype=np.int32)
        self.as_roots[d[by_d[::q]]] = by_d.reshape(-1, q)
        self.as_roots.flags.writeable = False
        # additive Hilbert 90: the image of Z -> Z^q - Z is the trace-zero set
        self.t0 = tuple(d[by_d[::q]].tolist())

        self.omega = self.Fq.generator  # canonical primitive element of GF(q)

        self._check_construction()

    # -- construction sanity ---------------------------------------------

    def _pick_epsilon(self) -> int:
        F = self.Fq2
        for x in range(self.q, self.q2):  # the codes outside GF(q)
            fx = self.frob[x]
            if (F.add(x, fx) == 0) if self.q % 2 else (fx == F.add(1, x)):
                return x
        raise RuntimeError("no admissible basis element found")  # pragma: no cover

    def _check_construction(self) -> None:
        F = self.Fq2
        assert len(self.t0) == self.q
        assert len(set(self.transversal)) == self.q
        assert self.transversal[0] == 0
        # the transversal meets every additive coset of GF(q) exactly once
        cover = {F.add(c, w) for c in self.transversal for w in range(self.q)}
        assert len(cover) == self.q2
        # subfield codes are exactly 0..q-1 in the tower encoding
        assert all((self.frob[x] == x) == (x < self.q) for x in range(self.q2))

    # -- basic maps --------------------------------------------------------

    def trace(self, x: int) -> int:
        """x + x^q; lands in GF(q) (a code < q)."""
        return self.Fq2.add(x, self.frob[x])

    def norm(self, x: int) -> int:
        """x^(q+1); lands in GF(q)."""
        return self.Fq2.mul(x, self.frob[x])

    def in_subfield(self, x: int) -> bool:
        return self.frob[x] == x

    def decompose(self, x: int) -> tuple[int, int]:
        """Write x = x0 + epsilon*x1 with x0, x1 in GF(q)."""
        c0, c1 = self.Fq2.digits(x)
        e0, e1 = self.Fq2.digits(self.epsilon)
        x1 = self.Fq.div(c1, e1)
        x0 = self.Fq.sub(c0, self.Fq.mul(e0, x1))
        return x0, x1

    def compose(self, x0: int, x1: int) -> int:
        """Inverse of decompose: x0 + epsilon*x1."""
        return self.Fq2.add(x0, self.Fq2.mul(self.epsilon, x1))

    # -- trace-zero machinery ----------------------------------------------

    def over_theta(self, values) -> np.ndarray:
        """theta^-1 x for each GF(q^2) code x of an int array, as int16.

        The trace-zero set is theta GF(q), so trace-zero values land on the
        GF(q) codes 0..q-1 and every other value above them.
        """
        over = self.Fq2.np_mul_table()[self.Fq2.inv(self.theta)]
        return over.astype(np.int16)[values]

    def transversal_roots(self, d) -> np.ndarray:
        """The solution of Z^q - Z = d in the transversal, for each entry of
        the int array d; raises ``ValueError`` if any d has nonzero trace."""
        roots = self.as_roots[d]
        hit = np.isin(roots, self.transversal)
        if not hit.any(axis=-1).all():
            raise ValueError("Z^q - Z = d is unsolvable: trace(d) != 0")
        return roots[hit].reshape(np.shape(d))

    # -- encoding ------------------------------------------------------------

    def element_digits(self, x: int) -> tuple[int, ...]:
        """Coefficient vector over GF(p), length 2h, in basis order."""
        c0, c1 = self.Fq2.digits(x)
        return tuple(self.Fq.digits(c0) + self.Fq.digits(c1))

    def element_from_digits(self, ds) -> int:
        ds = list(ds)
        if len(ds) != 2 * self.h:
            raise ValueError(f"expected {2 * self.h} digits")
        c0 = self.Fq.undigits(ds[: self.h])
        c1 = self.Fq.undigits(ds[self.h:])
        return self.Fq2.undigits([c0, c1])

    def format_element(self, x: int) -> str:
        return ",".join(str(d) for d in self.element_digits(x))

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "h": self.h,
            "q": self.q,
            "modulus_q": list(self.modulus_q),
            "modulus_q2": [self.Fq.digits(c) for c in self.modulus_q2],
            "epsilon": list(self.element_digits(self.epsilon)),
            "epsilon_code": self.epsilon,
            "a0": self.a0,
            "theta": self.theta,
            "transversal": [self.format_element(c) for c in self.transversal],
            "omega": self.omega,
            "element_encoding": "base-p digits, least significant first",
        }

    def np_frob(self) -> np.ndarray:
        return self._np_frob

    def __repr__(self) -> str:  # pragma: no cover
        return f"FieldCtx(q={self.q})"


def format_rows(rows: np.ndarray, labels: list[str], sep: str) -> bytes:
    """Each row of an int matrix as one line, its entries' labels joined by
    ``sep``: every exported matrix is written through here.  A cell is a
    fixed-width byte slot, its label and then ``sep`` or, in the last column,
    newline, padded with NUL; the slots are gathered by the entries and the
    padding stripped in one pass.  No row gives no bytes."""
    slots = np.array([[s + sep for s in labels], [s + "\n" for s in labels]],
                     dtype=np.bytes_)
    last = np.arange(rows.shape[1]) == rows.shape[1] - 1
    return slots[last.astype(np.intp), rows].tobytes().replace(b"\0", b"")


@lru_cache(maxsize=None)
def field_context(q: int) -> FieldCtx:
    """Shared, immutable context for GF(q) in GF(q^2)."""
    return FieldCtx(q)
