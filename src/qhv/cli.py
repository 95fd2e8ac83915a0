"""Command-line front end: construct, verify and export.

Exit codes: 0 all requested verifications passed, 1 a verification failed,
2 invalid parameters, 3 budget exceeded or out of memory.  Outputs are
deterministic: the same invocation produces byte-identical files.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import warnings
from contextlib import contextmanager

from . import codes as codes_mod
from . import geometry as geo
from . import oa as oa_mod
from . import oracles
from . import params as params_mod
from .fields import DEFAULT_BUDGET, BudgetExceededError, field_context, write_json

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
    except BrokenPipeError:
        raise  # a closed stdout is no bad input: main exits 1 on it
    except (ValueError, OSError) as exc:  # ParameterError included
        print(f"invalid parameters: {exc}", file=sys.stderr, flush=True)
        sys.exit(EXIT_BAD_PARAMS)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr, flush=True)
        sys.exit(EXIT_BUDGET)


def _params(ctx, n, a, b, mode):
    # the benchmark's own tests call this name; the policy is scan_params's
    return params_mod.scan_params(ctx, n, mode=mode, a=a, b=b)


# each command's function and options, in the order that --help lists them;
# the parser is built from these only when main() parses argv
_COMMANDS: dict = {}


def _command(*options):
    """Register the function as the command of its name, taking ``options``."""
    def register(fn):
        _COMMANDS[fn.__name__] = (fn, options)
        return fn
    return register


def _option(*flags, **kwargs):
    """One option: its flags and ``ArgumentParser.add_argument``'s keywords."""
    return flags, kwargs


_DEFAULT = "(default: %(default)s)"


@_command(
    _option("--q", type=int, required=True, help="subfield order (prime power)"),
    _option("--n", type=int, default=2, help=f"ambient dimension {_DEFAULT}"),
    _option("--a", type=int, help="parameter a (canonical code)"),
    _option("--b", type=int, help="parameter b (canonical code)"),
    _option("--out", help="output path prefix"),
    _option("--format", dest="fmt", choices=["text", "json"], default="text",
            help=_DEFAULT),
    _option("--budget", type=int, help=f"point budget (also {BUDGET_ENV})"),
)
def variety(q, n, a, b, out, fmt, budget):
    """Build the variety, check its size and hyperplane characters."""
    cfg = {"command": "variety", "q": q, "n": n, "a": a, "b": b,
           "out": out, "format": fmt, "budget": budget}
    with _exit_on_bad_input():
        ctx = field_context(q)
        params = _params(ctx, n, a, b, mode="variety")
        limit = _budget(budget)
        S = geo.bm_variety(params, budget=limit)
        spectrum = geo.character_spectrum(S, ctx, budget=limit, params=params)
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
            report["points"] = S.export_bytes(ctx).decode().splitlines()
            write_json(base + ".json", report)
            print(base + ".json", flush=True)
        else:
            with open(base + ".points.txt", "wb") as fh:
                fh.write(S.export_bytes(ctx))
            write_json(base + ".json", report)
            print(base + ".points.txt", flush=True)
            print(base + ".json", flush=True)
    print(f"|M| = {len(S)}, spectrum support {sorted(set(spectrum))}, "
          f"two-character {'ok' if ok else 'FAILED'}", flush=True)
    if not ok:
        witness = geo.first_hyperplane_outside(S, ctx, expected_support, budget=limit)
        if witness is None:
            print(f"two-character check: no hyperplane count outside "
                  f"{sorted(expected_support)}; |M| = {len(S)}, "
                  f"expected {expected_size}", file=sys.stderr, flush=True)
        else:
            h, count = witness
            print(f"two-character check: first hyperplane outside "
                  f"{sorted(expected_support)} is {list(h)}, "
                  f"meeting M in {count} points", file=sys.stderr, flush=True)
        uneven = geo.first_uneven_head(S, params)
        if uneven is not None:
            head, count = uneven
            print(f"variety check: first head {list(head)} carries "
                  f"{count} affine points, expected {q}",
                  file=sys.stderr, flush=True)
    sys.exit(EXIT_OK if ok else EXIT_VERIFY_FAILED)


@_command(
    _option("--q", type=int, required=True),
    _option("--n", type=int, default=2, help=_DEFAULT),
    _option("--a", type=int),
    _option("--b", type=int),
    _option("--out"),
    _option("--format", dest="fmt", choices=["csv", "json"], default="csv",
            help=f"csv: entries file + JSON sidecar; json: single file {_DEFAULT}"),
    _option("--budget", type=int),
)
def oa(q, n, a, b, out, fmt, budget):
    """Build the orthogonal array and verify strength, index and simplicity."""
    cfg = {"command": "oa", "q": q, "n": n, "a": a, "b": b,
           "out": out, "format": fmt, "budget": budget}
    with _exit_on_bad_input():
        ctx = field_context(q)
        params = _params(ctx, n, a, b, mode="family")
        limit = _budget(budget)
        A = oa_mod.build_oa(params, budget=limit)
    strength = oa_mod.verify_strength(A, 2)
    if strength.violations:
        cols, symbols, count = strength.violations[0]
        print(f"strength check: first violation at columns {cols}, "
              f"symbols {symbols}: {count} rows, expected {strength.index}",
              file=sys.stderr, flush=True)
    simple = oa_mod.verify_simple(A)
    ok = strength.ok and strength.index == A.index and simple
    base = out or f"oa_q{q}_n{n}"
    with _exit_on_bad_input():
        if fmt == "json":
            payload = oa_mod.oa_sidecar(A, oa_mod.oa_csv_bytes(A), strength,
                                        simple, cfg)
            payload["entries"] = A.entries.tolist()
            write_json(base + ".json", payload)
            print(base + ".json", flush=True)
        else:
            csv_path, json_path = oa_mod.write_oa(A, base, strength, simple, cfg)
            print(csv_path, flush=True)
            print(json_path, flush=True)
    print(f"OA({A.runs},{A.factors},{A.levels},2) index {A.index}: "
          f"strength {'ok' if strength.ok else 'FAILED'}, "
          f"simple {'ok' if simple else 'FAILED'}", flush=True)
    sys.exit(EXIT_OK if ok else EXIT_VERIFY_FAILED)


@_command(
    _option("--q", type=int, required=True),
    _option("--a", type=int),
    _option("--b", type=int),
    _option("--out"),
    _option("--strict", action="store_true",
            help="reject q <= 4 instead of warning"),
    _option("--no-strict", dest="strict", action="store_false", default=False,
            help="warn for q <= 4 (the default)"),
    _option("--doubly-extend", dest="extend", action="store_true"),
    _option("--dump-codewords", action="store_true"),
    _option("--budget", type=int),
)
def code(q, a, b, out, strict, extend, dump_codewords, budget):
    """Build the [q,5,q-4] code (ambient n = 3), verify and export."""
    cfg = {"command": "code", "q": q, "a": a, "b": b, "out": out,
           "strict": strict, "doubly_extend": extend,
           "dump_codewords": dump_codewords, "budget": budget}
    with _exit_on_bad_input():
        ctx = field_context(q)  # a q that is no prime power fails first
        if q <= 4 and strict:
            print("q <= 4: the MDS construction requires q > 4",
                  file=sys.stderr, flush=True)
            sys.exit(EXIT_BAD_PARAMS)
        params = _params(ctx, 3, a, b, mode="family")
        limit = _budget(budget)
        with warnings.catch_warnings():
            # omega_set warns for q <= 4; the --strict check above and the
            # stderr line below already cover it
            warnings.simplefilter("ignore")
            ec = codes_mod.build_code(params, budget=limit)
    dx = codes_mod.doubly_extend(ec)
    c = codes_mod.puncture(dx)
    if q <= 4:
        # contracts disabled: emit the artifacts and report what exists
        base = out or f"code_q{q}"
        with _exit_on_bad_input():
            d = codes_mod.min_distance(c, limit)
            paths = codes_mod.write_code(c, ec, base, None, cfg,
                                         dump_codewords=dump_codewords)
        for p in paths:
            print(p, flush=True)
        print(f"[{c.length},{c.dimension},{d}] built", flush=True)
        print("warning: q <= 4, MDS/RS contracts not applicable",
              file=sys.stderr, flush=True)
        if extend:
            print("--doubly-extend ignored: q <= 4", file=sys.stderr, flush=True)
        sys.exit(EXIT_OK)
    # the span proves d, MDS and RS equivalence; scans only where it fails
    with _exit_on_bad_input():
        rs = codes_mod.check_code(c, ec.omega, limit)
        if extend:
            codes_mod.check_code(dx, ec.omega, limit)
    d, d2 = c.min_dist, dx.min_dist
    if rs.first_mismatch is not None:
        row, col = rs.first_mismatch
        print(f"RS check: {rs.mismatches} mismatches, first at "
              f"codeword {row}, coordinate {col}", file=sys.stderr, flush=True)
    ok = c.dimension == 5 and d == q - 4 and bool(c.is_mds) and rs.two_sided
    label = f"[{c.length},{c.dimension},{d}]"
    if extend:
        ok = ok and dx.dimension == 5 and d2 == q - 3 and bool(dx.is_mds)
        c = dx
        label += f" doubly extended to [{dx.length},{dx.dimension},{d2}]"
    base = out or f"code_q{q}"
    with _exit_on_bad_input():
        paths = codes_mod.write_code(c, ec, base, rs, cfg,
                                     dump_codewords=dump_codewords)
    for p in paths:
        print(p, flush=True)
    print(f"{label}: {'ok' if ok else 'FAILED'} "
          f"(MDS {c.is_mds}, RS-equivalent {rs.two_sided})", flush=True)
    sys.exit(EXIT_OK if ok else EXIT_VERIFY_FAILED)


def _grid_status(inst: dict) -> str:
    """"ok", "FAILED", or, when every failing check was skipped over the
    budget rather than run, "skipped" and their names."""
    failing = [name for name, check in inst["checks"].items() if not check["ok"]]
    if not failing:
        return "ok"
    if all("skipped" in inst["checks"][name] for name in failing):
        return f"skipped ({', '.join(failing)})"
    return "FAILED"


@_command(
    _option("--instances", default="2,2;2,3;2,4;3,2;3,3",
            help=f"semicolon-separated n,q pairs {_DEFAULT}"),
    _option("--out"),
    _option("--budget", type=int),
)
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
            pairs.append(oracles.GridInstance(n, q))
        limit = _budget(budget)
        spec = oracles.GridSpec(tuple(pairs), budget=limit)
    report = oracles.run_grid(spec)
    report["config"] = cfg
    base = out or "grid_report"
    with _exit_on_bad_input():
        write_json(base + ".json", report)
    print(base + ".json", flush=True)
    for inst in report["instances"]:
        print(f"(n={inst['n']}, q={inst['q']}): {_grid_status(inst)}", flush=True)
        for name, check in inst["checks"].items():
            if "witness" in check:
                print(f"(n={inst['n']}, q={inst['q']}) {name}: first "
                      f"witness {json.dumps(check['witness'])}",
                      file=sys.stderr, flush=True)
    sys.exit(EXIT_OK if report["ok"] else EXIT_VERIFY_FAILED)


def _parse(argv: list[str], prog: str):
    """The command that ``argv`` names and its keyword arguments.  A usage
    error exits 2 and --help exits 0, here."""
    import argparse  # not at module level: importing the CLI loads no parser

    if argv and argv[0] in _COMMANDS:
        # a valued option takes the next token even when it starts with "-"
        # (--instances -2,3 must reach the command's own check), where
        # argparse would read that token as an option: join the two
        valued = {flag for flags, spec in _COMMANDS[argv[0]][1]
                  if "action" not in spec for flag in flags}
        rest, argv = argv[1:], argv[:1]
        while rest:
            token = rest.pop(0)
            if token in valued and rest:
                token = f"{token}={rest.pop(0)}"
            argv.append(token)
    # only the command that runs needs its options; argparse runs the first
    # command name in argv, as no token before it can be a name
    named = next((token for token in argv if token in _COMMANDS), None)
    parser = argparse.ArgumentParser(
        prog=prog, allow_abbrev=False, add_help=False,
        description="Quasi-Hermitian varieties, orthogonal arrays and MDS codes.")
    parser.add_argument("--help", action="help", help="show this message and exit")
    commands = parser.add_subparsers(title="commands", dest="command",
                                     metavar="COMMAND", required=True)
    for name, (fn, options) in _COMMANDS.items():
        sub = commands.add_parser(name, help=fn.__doc__, description=fn.__doc__,
                                  allow_abbrev=False, add_help=False)
        sub.add_argument("--help", action="help",
                         help="show this message and exit")
        for flags, kwargs in options if name == named else ():
            sub.add_argument(*flags, **kwargs)
    kwargs = vars(parser.parse_args(argv))
    return _COMMANDS[kwargs.pop("command")][0], kwargs


class _QuietFlush:
    """A standard stream whose reader has gone: flushing it raises nothing."""

    def __init__(self, stream):
        self._stream = stream

    def flush(self):
        try:
            self._stream.flush()
        except BrokenPipeError:
            pass

    def __getattr__(self, name):
        return getattr(self._stream, name)


def main(args=None, prog_name=None, **extra) -> None:
    """Run the command that ``args`` (by default ``sys.argv[1:]``) names; it
    exits with its code.

    ``main.main(args=, prog_name=)`` and ``main.name`` give this click's
    ``Command`` call shape, which ``click.testing.CliRunner`` and other
    in-process callers use; ``extra`` is accepted and ignored.
    """
    try:
        command, kwargs = _parse(sys.argv[1:] if args is None else list(args),
                                 prog_name or main.name)
        command(**kwargs)
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr, flush=True)
        sys.exit(1)
    except MemoryError:
        # a budget counts cells, not bytes: one the machine cannot hold
        # ends like one the command refuses
        print("budget exceeded: out of memory", file=sys.stderr, flush=True)
        sys.exit(EXIT_BUDGET)
    except BrokenPipeError:
        # the reader closed the pipe: exit 1 without a traceback, and with
        # nothing left to fail at the interpreter's last flush
        sys.stdout, sys.stderr = _QuietFlush(sys.stdout), _QuietFlush(sys.stderr)
        sys.exit(1)


main.main, main.name = main, "qhv"


def run() -> None:
    """Process entry point (`python -m qhv.cli`, the `qhv` script): everything
    imported so far lives until exit, so keep the collector, and the
    interpreter's shutdown collections, from traversing it again."""
    gc.freeze()
    main()


if __name__ == "__main__":  # pragma: no cover
    run()
