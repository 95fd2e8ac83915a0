"""Command-line front end: construct, verify and export.

Exit codes: 0 all requested verifications passed, 1 a verification failed,
2 invalid parameters, 3 budget exceeded.  Outputs are deterministic: the
same invocation produces byte-identical files.
"""

from __future__ import annotations

import json
import os
import sys
import warnings
from contextlib import contextmanager

import click

from . import codes as codes_mod
from . import geometry as geo
from . import oa as oa_mod
from .fields import DEFAULT_BUDGET, BudgetExceededError, field_context
from .oracles import GridInstance, GridSpec, run_grid

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_PARAMS = 2
EXIT_BUDGET = 3

BUDGET_ENV = "QHV_BUDGET"


def _budget(override: int | None) -> int:
    """--budget, else QHV_BUDGET, else DEFAULT_BUDGET; ValueError unless >= 0."""
    if override is not None:
        value = override
    else:
        env = os.environ.get(BUDGET_ENV)
        try:
            value = int(env) if env else DEFAULT_BUDGET
        except ValueError:
            raise ValueError(f"{BUDGET_ENV}={env!r} is not an integer") from None
    if value < 0:
        raise ValueError(f"budget must be >= 0, got {value}")
    return value


@contextmanager
def _exit_on_bad_input():
    """Exit 2 on invalid parameters or an unwritable output path, and 3 on an
    exceeded budget."""
    try:
        yield
    except (ValueError, OSError) as exc:  # ParameterError included
        click.echo(f"invalid parameters: {exc}", err=True)
        sys.exit(EXIT_BAD_PARAMS)
    except BudgetExceededError as exc:
        click.echo(f"budget exceeded: {exc}", err=True)
        sys.exit(EXIT_BUDGET)


def _params(ctx, n, a, b, mode):
    # the benchmark's own tests call this name; the policy is scan_params's
    return geo.scan_params(ctx, n, mode=mode, a=a, b=b)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@click.group()
def main() -> None:
    """Quasi-Hermitian varieties, orthogonal arrays and MDS codes."""


@main.command()
@click.option("--q", type=int, required=True, help="subfield order (prime power)")
@click.option("--n", type=int, default=2, show_default=True, help="ambient dimension")
@click.option("--a", type=int, default=None, help="parameter a (canonical code)")
@click.option("--b", type=int, default=None, help="parameter b (canonical code)")
@click.option("--out", type=str, default=None, help="output path prefix")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text", show_default=True)
@click.option("--budget", type=int, default=None,
              help=f"point budget (also {BUDGET_ENV})")
def variety(q, n, a, b, out, fmt, budget):
    """Build the variety, check its size and hyperplane characters."""
    cfg = {"command": "variety", "q": q, "n": n, "a": a, "b": b,
           "out": out, "format": fmt, "budget": budget}
    with _exit_on_bad_input():
        ctx = field_context(q)
        params = _params(ctx, n, a, b, mode="variety")
        S = geo.bm_variety(params, budget=_budget(budget))
        spectrum = geo.character_spectrum(S, ctx, budget=_budget(budget))
    expected_support = geo.expected_spectrum_support(n, q)
    expected_size = geo.hermitian_size(n, q)
    ok = len(S) == expected_size and set(spectrum) == expected_support
    report = {
        "config": cfg,
        "field": ctx.to_json(),
        "params": {"a": params.a, "b": params.b, "condition": params.condition},
        "size": len(S),
        "expected_size": expected_size,
        "spectrum": {str(k): v for k, v in sorted(spectrum.items())},
        "expected_support": sorted(expected_support),
        "two_character_ok": ok,
    }
    base = out or f"variety_q{q}_n{n}"
    with _exit_on_bad_input():
        if fmt == "json":
            report["points"] = S.export_lines(ctx)
            _write_json(base + ".json", report)
            click.echo(base + ".json")
        else:
            with open(base + ".points.txt", "w") as fh:
                fh.write("\n".join(S.export_lines(ctx)) + "\n")
            _write_json(base + ".json", report)
            click.echo(base + ".points.txt")
            click.echo(base + ".json")
    click.echo(f"|M| = {len(S)}, spectrum support {sorted(set(spectrum))}, "
               f"two-character {'ok' if ok else 'FAILED'}")
    if not ok:
        witness = geo.first_hyperplane_outside(S, ctx, expected_support,
                                               budget=_budget(budget))
        if witness is None:
            click.echo(f"two-character check: no hyperplane count outside "
                       f"{sorted(expected_support)}; |M| = {len(S)}, "
                       f"expected {expected_size}", err=True)
        else:
            h, count = witness
            click.echo(f"two-character check: first hyperplane outside "
                       f"{sorted(expected_support)} is {list(h)}, "
                       f"meeting M in {count} points", err=True)
    sys.exit(EXIT_OK if ok else EXIT_VERIFY_FAILED)


@main.command()
@click.option("--q", type=int, required=True)
@click.option("--n", type=int, default=2, show_default=True)
@click.option("--a", type=int, default=None)
@click.option("--b", type=int, default=None)
@click.option("--out", type=str, default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True,
              help="csv: entries file + JSON sidecar; json: single file")
@click.option("--budget", type=int, default=None)
def oa(q, n, a, b, out, fmt, budget):
    """Build the orthogonal array and verify strength, index and simplicity."""
    cfg = {"command": "oa", "q": q, "n": n, "a": a, "b": b,
           "out": out, "format": fmt, "budget": budget}
    with _exit_on_bad_input():
        ctx = field_context(q)
        params = _params(ctx, n, a, b, mode="family")
        A = oa_mod.build_oa(params, budget=_budget(budget))
    strength = oa_mod.verify_strength(A, 2)
    if strength.violations:
        cols, symbols, count = strength.violations[0]
        click.echo(f"strength check: first violation at columns {cols}, "
                   f"symbols {symbols}: {count} rows, expected {strength.index}",
                   err=True)
    simple = oa_mod.verify_simple(A)
    ok = strength.ok and strength.index == A.index and simple
    base = out or f"oa_q{q}_n{n}"
    with _exit_on_bad_input():
        if fmt == "json":
            payload = oa_mod.oa_sidecar(A, oa_mod.oa_csv_bytes(A), strength,
                                        simple, cfg)
            payload["entries"] = A.entries.tolist()
            _write_json(base + ".json", payload)
            click.echo(base + ".json")
        else:
            csv_path, json_path = oa_mod.write_oa(A, base, strength, simple, cfg)
            click.echo(csv_path)
            click.echo(json_path)
    click.echo(f"OA({A.runs},{A.factors},{A.levels},2) index {A.index}: "
               f"strength {'ok' if strength.ok else 'FAILED'}, "
               f"simple {'ok' if simple else 'FAILED'}")
    sys.exit(EXIT_OK if ok else EXIT_VERIFY_FAILED)


@main.command()
@click.option("--q", type=int, required=True)
@click.option("--a", type=int, default=None)
@click.option("--b", type=int, default=None)
@click.option("--out", type=str, default=None)
@click.option("--strict/--no-strict", default=False,
              help="reject q <= 4 instead of warning")
@click.option("--doubly-extend", "extend", is_flag=True, default=False)
@click.option("--dump-codewords", is_flag=True, default=False)
@click.option("--budget", type=int, default=None)
def code(q, a, b, out, strict, extend, dump_codewords, budget):
    """Build the [q,5,q-4] code (ambient n = 3), verify and export."""
    cfg = {"command": "code", "q": q, "a": a, "b": b, "out": out,
           "strict": strict, "doubly_extend": extend,
           "dump_codewords": dump_codewords, "budget": budget}
    if q <= 4 and strict:
        click.echo("q <= 4: the MDS construction requires q > 4", err=True)
        sys.exit(EXIT_BAD_PARAMS)
    with _exit_on_bad_input():
        ctx = field_context(q)
        params = _params(ctx, 3, a, b, mode="family")
        with warnings.catch_warnings():
            # omega_set warns for q <= 4; the --strict check above and the
            # stderr line below already cover it
            warnings.simplefilter("ignore")
            ec = codes_mod.build_code(params, budget=_budget(budget))
    c = codes_mod.scale_to_fq(ec)
    d = codes_mod.min_distance(c)
    if q <= 4:
        # contracts disabled: emit the artifacts and report what exists
        base = out or f"code_q{q}"
        with _exit_on_bad_input():
            paths = codes_mod.write_code(c, ec, base, None, cfg,
                                         dump_codewords=dump_codewords)
        for p in paths:
            click.echo(p)
        click.echo(f"[{c.length},{c.dimension},{d}] built")
        click.echo("warning: q <= 4, MDS/RS contracts not applicable", err=True)
        sys.exit(EXIT_OK)
    rs = codes_mod.rs_equivalence_check(c, ec.omega)
    if rs.first_mismatch is not None:
        row, col = rs.first_mismatch
        click.echo(f"RS check: {rs.mismatches} mismatches, first at "
                   f"codeword {row}, coordinate {col}", err=True)
    ok = c.dimension == 5 and d == q - 4 and bool(c.is_mds) and rs.two_sided
    label = f"[{c.length},{c.dimension},{d}]"
    if extend:
        dx = codes_mod.doubly_extend(ec, c)
        d2 = codes_mod.min_distance(dx)
        ok = ok and dx.dimension == 5 and d2 == q - 3 and bool(dx.is_mds)
        c = dx
        label += f" doubly extended to [{dx.length},{dx.dimension},{d2}]"
    base = out or f"code_q{q}"
    with _exit_on_bad_input():
        paths = codes_mod.write_code(c, ec, base, rs, cfg,
                                     dump_codewords=dump_codewords)
    for p in paths:
        click.echo(p)
    click.echo(f"{label}: {'ok' if ok else 'FAILED'} "
               f"(MDS {c.is_mds}, RS-equivalent {rs.two_sided})")
    sys.exit(EXIT_OK if ok else EXIT_VERIFY_FAILED)


@main.command()
@click.option("--instances", type=str, default="2,2;2,3;2,4;3,2;3,3",
              show_default=True, help="semicolon-separated n,q pairs")
@click.option("--out", type=str, default=None)
@click.option("--budget", type=int, default=None)
def grid(instances, out, budget):
    """Run the cross-module verification grid and write its JSON report."""
    cfg = {"command": "grid", "instances": instances, "out": out,
           "budget": budget}
    with _exit_on_bad_input():
        pairs = []
        for part in instances.split(";"):
            try:
                n, q = (int(s) for s in part.split(","))
            except ValueError:
                raise ValueError("instances must look like '2,3;3,2'") from None
            if n < 2:
                raise ValueError(f"ambient dimension n must be >= 2, got {n}")
            field_context(q)  # rejects q that is not a prime power, or too large
            pairs.append(GridInstance(n, q))
        spec = GridSpec(tuple(pairs), budget=_budget(budget))
    report = run_grid(spec)
    report["config"] = cfg
    base = out or "grid_report"
    with _exit_on_bad_input():
        _write_json(base + ".json", report)
    click.echo(base + ".json")
    for inst in report["instances"]:
        status = "ok" if inst["ok"] else "FAILED"
        click.echo(f"(n={inst['n']}, q={inst['q']}): {status}")
        for name, check in inst["checks"].items():
            if "witness" in check:
                click.echo(f"(n={inst['n']}, q={inst['q']}) {name}: first "
                           f"witness {json.dumps(check['witness'])}", err=True)
    sys.exit(EXIT_OK if report["ok"] else EXIT_VERIFY_FAILED)


if __name__ == "__main__":  # pragma: no cover
    main()
