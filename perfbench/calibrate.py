"""A fixed reference computation that times the machine, not the program.

    python3 perfbench/calibrate.py

It imports numpy and does pure-Python exact linear algebra over GF(7) with
table lookups through method calls, the kind of work ``qhv`` spends its time
on, but on code of its own: a change to ``src/qhv`` cannot change its time.
``run.py`` spawns it between the invocations it times, and divides each
measured time by how long this takes on the machine right now (see README.md).
"""

import numpy  # noqa: F401  (every qhv process pays this import)

P = 7
ROWS = 6000
COLS = 8


class Field:
    def __init__(self, p: int):
        self.mul_table = [[a * b % p for b in range(p)] for a in range(p)]
        self.sub_table = [[(a - b) % p for b in range(p)] for a in range(p)]
        self.inv_table = [0] + [pow(a, p - 2, p) for a in range(1, p)]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.sub_table[a][b]

    def inv(self, a: int) -> int:
        return self.inv_table[a]


def reduce_rows(F: Field, rows) -> int:
    """Rank of the rows, by reducing each against an echelon basis."""
    basis: list[tuple[int, list[int]]] = []
    for row in rows:
        for p, b in basis:
            if row[p]:
                f = row[p]
                row = [F.sub(x, F.mul(f, y)) for x, y in zip(row, b)]
        piv = next((c for c, x in enumerate(row) if x), None)
        if piv is None:
            continue
        inv = F.inv(row[piv])
        basis.append((piv, [F.mul(inv, x) for x in row]))
    return len(basis)


def rows(n: int, seed: int = 1):
    """A fixed pseudo-random stream of rows, mostly dependent ones."""
    x = seed
    base = []
    for _ in range(COLS - 2):
        row = []
        for _ in range(COLS):
            x = (1103515245 * x + 12345) % 2 ** 31
            row.append(x % P)
        base.append(row)
    for i in range(n):
        x = (1103515245 * x + 12345) % 2 ** 31
        a, b = base[i % len(base)], base[x % len(base)]
        yield [(u + (x % P) * v) % P for u, v in zip(a, b)]


if __name__ == "__main__":
    rank = reduce_rows(Field(P), rows(ROWS))
    if rank != COLS - 2:
        raise SystemExit(f"calibration computed rank {rank}, expected {COLS - 2}")
