"""The four qhv CLI workloads, the seeded parameter generator and the output checks.

A workload is a fixed list of instances.  The seed only picks ``--a/--b`` for
the ``variety``, ``oa`` and ``code`` instances, from the pairs the CLI's own
mode accepts; ``grid`` has no ``--a/--b`` and stays lexicographic.

The checks re-derive every count an artifact claims (sizes, spectra, array
shape, codeword count, RS ``checked`` count, oracle ``pairs_checked``) from
closed formulas, so an optimisation that samples instead of enumerating
fails them even where no recorded digest exists.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import comb

# (command, n, q) per instance; grid instances carry their (n, q) list instead
WORKLOADS: dict[str, tuple] = {
    "codes": (("code", 3, 8), ("code", 3, 7)),
    "arrays": (("oa", 3, 4), ("oa", 2, 8), ("oa", 2, 9), ("oa", 3, 3)),
    "grid": (("grid", ((2, 2), (2, 4), (3, 2), (2, 8))),
             ("grid", ((2, 3), (3, 3)))),
    "varieties": (("variety", 3, 5), ("variety", 4, 3),
                  ("variety", 6, 2), ("variety", 3, 4)),
}


@dataclass(frozen=True)
class Invocation:
    """One ``qhv`` command line and the (n, q) instances it covers."""

    command: str
    instances: tuple[tuple[int, int], ...]
    argv: tuple[str, ...]          # arguments after ``qhv``
    out: str                       # relative --out prefix
    a: int | None = None
    b: int | None = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def qs(self) -> tuple[int, ...]:
        return tuple(q for _, q in self.instances)

    @property
    def parity(self) -> str:
        """"even" or "odd": every workload keeps one characteristic per call."""
        return "even" if self.qs[0] % 2 == 0 else "odd"


def admissible_pairs(command: str, n: int, q: int) -> list[tuple[int, int]]:
    """Every (a, b) the CLI accepts for this command, in lexicographic order.

    ``variety`` takes the QH-labelled pairs of ``validate_params`` and falls
    back to the classical a = 0 pairs when there are none, as
    ``scan_params(mode="variety")`` does; ``oa`` and ``code`` take the pairs
    ``family_params`` accepts with a != 0, as ``scan_params(mode="family")``.
    """
    # imported here so that this module loads before src/ is on sys.path
    from qhv.fields import field_context
    from qhv.geometry import ParameterError, family_params, validate_params

    ctx = field_context(q)
    accept = validate_params if command == "variety" else family_params
    bs = [b for b in range(ctx.q2) if not ctx.in_subfield(b)]
    pairs = []
    for a in range(1, ctx.q2):
        for b in bs:
            try:
                accept(ctx, n, a, b)
            except ParameterError:
                continue
            pairs.append((a, b))
    if not pairs and command == "variety":
        pairs = [(0, b) for b in bs]
    return pairs


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The workload's command lines for this seed; same seed, same lines."""
    rng = random.Random(seed)
    return [make_invocation(spec, rng) for spec in WORKLOADS[workload]]


def make_invocation(spec: tuple, rng: random.Random) -> Invocation:
    """One command line; ``rng`` picks (a, b) for every command but ``grid``."""
    command = spec[0]
    if command == "grid":
        instances = spec[1]
        name = "grid_" + "_".join(f"n{n}q{q}" for n, q in instances)
        text = ";".join(f"{n},{q}" for n, q in instances)
        return Invocation(command, instances, ("grid", "--instances", text, "--out", name),
                          name)
    _, n, q = spec
    a, b = rng.choice(admissible_pairs(command, n, q))
    name = f"{command}_n{n}_q{q}"
    argv = (command, "--q", str(q), "--a", str(a), "--b", str(b))
    argv += ("--doubly-extend",) if command == "code" else ("--n", str(n))
    return Invocation(command, ((n, q),), argv + ("--out", name), name, a, b)


# ---------------------------------------------------------------------------
# checks: closed formulas, independent of the library
# ---------------------------------------------------------------------------

def hermitian_size(n: int, q: int) -> int:
    """|H(n, q^2)| = (q^{n+1} + (-1)^n)(q^n - (-1)^n) / (q^2 - 1)."""
    return (q ** (n + 1) + (-1) ** n) * (q ** n - (-1) ** n) // (q * q - 1)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def check_artifacts(inv: Invocation, files: dict[str, bytes]) -> tuple[list[str], dict]:
    """Problems found in one invocation's artifacts, and its work counts."""
    problems: list[str] = []
    try:
        return problems, _CHECKS[inv.command](inv, files, problems)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        problems.append(f"malformed artifact: {type(exc).__name__}: {exc}")
        return problems, {}


def _check_params(inv: Invocation, report: dict, problems: list) -> None:
    _expect(problems, "params.a", report["params"]["a"], inv.a)
    _expect(problems, "params.b", report["params"]["b"], inv.b)


def _check_variety(inv, files, problems) -> dict:
    (n, q), = inv.instances
    report = json.loads(files[inv.out + ".json"])
    points = files[inv.out + ".points.txt"].decode().splitlines()
    size = hermitian_size(n, q)
    support = sorted({hermitian_size(n - 1, q), 1 + q * q * hermitian_size(n - 2, q)})
    hyperplanes = (q ** (2 * n + 2) - 1) // (q * q - 1)
    spectrum = report["spectrum"]
    _check_params(inv, report, problems)
    _expect(problems, "size", report["size"], size)
    _expect(problems, "points.txt lines", len(points), size)
    _expect(problems, "spectrum support", sorted(int(k) for k in spectrum), support)
    _expect(problems, "hyperplanes", sum(spectrum.values()), hyperplanes)
    _expect(problems, "two_character_ok", report["two_character_ok"], True)
    return {"points": size, "hyperplanes": hyperplanes}


def _check_oa(inv, files, problems) -> dict:
    (n, q), = inv.instances
    sidecar = json.loads(files[inv.out + ".json"])
    csv = files[inv.out + ".csv"]
    N, k = q ** (2 * n - 1), q ** (2 * n - 2)
    rows = csv.decode().splitlines()
    _check_params(inv, sidecar, problems)
    _expect(problems, "N k v t lambda",
            [sidecar[x] for x in ("N", "k", "v", "t", "lambda")],
            [N, k, q, 2, q ** (2 * n - 3)])
    _expect(problems, "csv rows", len(rows), N)
    _expect(problems, "csv columns", {len(r.split(",")) for r in rows}, {k})
    _expect(problems, "csv_sha256", sidecar["csv_sha256"], sha256(csv))
    _expect(problems, "strength_ok", sidecar["strength_ok"], True)
    _expect(problems, "simple", sidecar["simple"], True)
    return {"cells": N * k}


def _check_code(inv, files, problems) -> dict:
    (_, q), = inv.instances
    meta = json.loads(files[inv.out + ".json"])
    genmat = files[inv.out + ".genmat.txt"]
    rows = genmat.decode().splitlines()
    _check_params(inv, meta, problems)
    _expect(problems, "[length, dimension, distance]",
            [meta["length"], meta["dimension"], meta["min_distance"]],
            [q + 1, 5, q - 3])
    _expect(problems, "mds", meta["mds"], True)
    _expect(problems, "codewords", meta["codewords"], q ** 5)
    rs = meta["rs_equivalence"]
    _expect(problems, "rs checked, mismatches, two_sided",
            [rs["checked"], rs["mismatches"], rs["two_sided"]], [q ** 5, 0, True])
    _expect(problems, "generator rows", [len(r.split()) for r in rows], [q + 1] * 5)
    _expect(problems, "generator_sha256", meta["generator_sha256"], sha256(genmat))
    return {"codewords": q ** 5}


def _check_grid(inv, files, problems) -> dict:
    report = json.loads(files[inv.out + ".json"])
    _expect(problems, "instances", [(i["n"], i["q"]) for i in report["instances"]],
            list(inv.instances))
    _expect(problems, "ok", report["ok"], True)
    evals = cells = 0
    for inst in report["instances"]:
        n, q = inst["n"], inst["q"]
        k = q ** (2 * n - 2)
        checks = inst["checks"]
        where = f"(n={n}, q={q})"
        _expect(problems, f"{where} mutual_mu histogram",
                checks["mutual_mu"]["histogram"], {str(k): comb(k, 2)})
        _expect(problems, f"{where} oracle pairs_checked",
                checks["oracle_agreement"]["pairs_checked"], comb(k, 2))
        _expect(problems, f"{where} oa N k",
                [checks["oa"]["N"], checks["oa"]["k"]], [q ** (2 * n - 1), k])
        _expect(problems, f"{where} failed checks",
                sorted(c for c, v in checks.items() if not v["ok"]), [])
        evals += k * q ** (2 * n)
        cells += q ** (2 * n - 1) * k
    return {"oracle_evals": evals, "cells": cells}


_CHECKS = {"variety": _check_variety, "oa": _check_oa, "code": _check_code,
           "grid": _check_grid}
