"""Exact arithmetic in GF(q) and GF(q^2) for a prime power q.

Field elements are plain Python ints.  An element of GF(p^m) is the base-p
encoding of its coefficient vector over GF(p), least significant digit first,
so integer order is the canonical element order used everywhere (exports,
level maps, lexicographic scans).  GF(q^2) is built as a quadratic tower over
GF(q); with this encoding the subfield GF(q) occupies exactly the codes
0..q-1 and embedding is the identity on codes.

Moduli are chosen deterministically (the lexicographically smallest monic
irreducible polynomial, ordered by the integer encoding of the non-leading
coefficients), so the same q always yields bit-identical contexts.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: largest field order; every field builds dense order x order tables
DENSE_TABLE_LIMIT = 1 << 10
#: default bound on every enumeration (points, array cells, codewords, ...)
DEFAULT_BUDGET = 10**7


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured desk-scale budget."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_power(q: int) -> tuple[int, int]:
    """Split q = p^h with p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"q must be a prime power >= 2, got {q}")
    for p in range(2, q + 1):
        if not is_prime(p):
            continue
        if q % p:
            continue
        h, m = 0, q
        while m % p == 0:
            m //= p
            h += 1
        if m != 1:
            raise ValueError(f"q = {q} is not a prime power")
        return p, h
    raise ValueError(f"q = {q} is not a prime power")


def _prime_factors(n: int) -> list[int]:
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


class PrimeField:
    """GF(p) with elements 0..p-1."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.order = p
        self.char = p

    def elements(self) -> range:
        return range(self.order)

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


def _pmod(F, f: list[int], m: list[int]) -> list[int]:
    """Remainder of f modulo the monic polynomial m."""
    f = list(f)
    d = len(m) - 1
    while len(f) > d:
        c = f.pop()
        if c == 0:
            continue
        k = len(f) - d
        for j in range(d):
            if m[j]:
                f[k + j] = F.sub(f[k + j], F.mul(c, m[j]))
    return _ptrim(f)


def _ppowmod(F, f: list[int], e: int, m: list[int]) -> list[int]:
    result = [1]
    base = _pmod(F, list(f), m)
    while e:
        if e & 1:
            result = _pmod(F, _pmul(F, result, base), m)
        base = _pmod(F, _pmul(F, base, base), m)
        e >>= 1
    return result


def _leading(f: list[int]) -> int:
    return f[-1]


def _monic(F, f: list[int]) -> list[int]:
    lc = f[-1]
    if lc == 1:
        return f
    c = F.inv(lc)
    return [F.mul(c, x) for x in f]


def _pdivmod(F, f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    lc = _leading(g)
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
    r0, r1 = list(m), _pmod(F, list(f), m)
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


def is_irreducible(F, f: list[int]) -> bool:
    """Rabin's test for a monic polynomial over the field F."""
    d = len(f) - 1
    if d < 1 or f[-1] != 1:
        return False
    x = [0, 1]
    if _ppowmod(F, x, F.order**d, f) != _pmod(F, x, f):
        return False
    for r in _prime_factors(d):
        g = _psub(F, _ppowmod(F, x, F.order ** (d // r), f), x)
        if not g:
            return False
        # gcd(f, g) must be constant
        a, b = list(f), g
        while b:
            a, b = b, _pmod(F, a, _monic(F, b))
        if len(a) != 1:
            return False
    return True


def smallest_irreducible(F, degree: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of the given degree over F.

    Candidates are ordered by the integer encoding of their non-leading
    coefficient vector (constant term least significant).
    """
    n = F.order
    for code in range(n**degree):
        coeffs, c = [], code
        for _ in range(degree):
            coeffs.append(c % n)
            c //= n
        f = coeffs + [1]
        if is_irreducible(F, f):
            return tuple(f)
    raise RuntimeError(f"no irreducible of degree {degree} found")  # pragma: no cover


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
        self._xor_add = self.char == 2
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
        if self._xor_add:
            return a ^ b
        F = self.base
        da, db = self.digits(a), self.digits(b)
        return self.undigits(F.add(x, y) for x, y in zip(da, db))

    def _mul_raw(self, a: int, b: int) -> int:
        f = _pmul(self.base, self.digits(a), self.digits(b))
        f = _pmod(self.base, f, list(self.modulus))
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

    def elements(self) -> range:
        return range(self.order)

    def add(self, a: int, b: int) -> int:
        if self._xor_add:
            return a ^ b
        return self._add_table[a][b]

    def neg(self, a: int) -> int:
        if self._xor_add:
            return a
        return self._neg_table[a]

    def sub(self, a: int, b: int) -> int:
        if self._xor_add:
            return a ^ b
        return self.add(a, self.neg(b))

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
        if self._xor_add:
            add, neg = codes[:, None] ^ codes, codes
        else:
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
        if not self._xor_add:
            # list views for the scalar paths; even characteristic uses xor
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
        two_eps = F.add(self.epsilon, self.epsilon)
        self.theta = F.sub(self.a0, two_eps)

        self.transversal = tuple(F.mul(self.epsilon, w) for w in range(q))
        self.t0 = tuple(sorted(x for x in range(self.q2)
                               if F.add(x, self.frob[x]) == 0))

        # one Artin-Schreier root per trace-zero right-hand side
        roots: dict[int, int] = {}
        for z in range(self.q2):
            d = F.sub(self.frob[z], z)
            roots.setdefault(d, z)
        self._as_root = roots

        self.omega = self.Fq.generator  # canonical primitive element of GF(q)

        self._check_construction()

    # -- construction sanity ---------------------------------------------

    def _pick_epsilon(self) -> int:
        F = self.Fq2
        one = 1
        for x in range(self.q, self.q2):
            fx = self.frob[x]
            if fx == x:
                continue
            if self.q % 2 == 1:
                if F.add(x, fx) == 0:
                    return x
            else:
                if fx == F.add(one, x):
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

    def frobenius(self, x: int) -> int:
        """The involution x -> x^q of GF(q^2)."""
        return self.frob[x]

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

    def t0_set(self) -> set[int]:
        """All x in GF(q^2) with trace zero."""
        return set(self.t0)

    def artin_schreier_roots(self, d: int) -> set[int]:
        """All Z with Z^q - Z = d: a coset of GF(q) if trace(d) = 0, else empty."""
        z0 = self._as_root.get(d)
        if z0 is None or self.Fq2.sub(self.frob[z0], z0) != d:
            return set()
        return {self.Fq2.add(z0, w) for w in range(self.q)}

    def unique_root_in_transversal(self, d: int) -> int:
        """The single solution of Z^q - Z = d lying in the transversal."""
        if self.trace(d) != 0:
            raise ValueError("Z^q - Z = d is unsolvable: trace(d) != 0")
        z0 = self._as_root[d]
        _, x1 = self.decompose(z0)
        return self.Fq2.mul(self.epsilon, x1)

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


@lru_cache(maxsize=None)
def field_context(q: int) -> FieldCtx:
    """Shared, immutable context for GF(q) in GF(q^2)."""
    return FieldCtx(q)
