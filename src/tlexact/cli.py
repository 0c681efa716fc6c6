"""Command-line front end.

Subcommands::

    jw             print a Jones-Wenzl projector
    pjw            print a p-Jones-Wenzl idempotent (direct and/or recursive)
    idempotent     print the seminormal idempotent of a two-column tableau
    classes        list the p-classes of tableaux with their residue sequences
    collapse       tabulate the collapse map on the one-column p-class
    diamond-check  verify the closed diamond action formulas
    klr-check      verify the KLR relations on the seminormal basis
    verify-all     run every check that fits the given size

Exit status: 0 on success, 1 when a verification fails (or a coefficient
violates p-integrality), 2 on usage errors and on a Jones-Wenzl cache file
that cannot be read or holds a wrong entry.  Output is deterministic;
--json switches to the JSON schemas; progress for long computations goes
to stderr only.  The Jones-Wenzl disk cache is taken from --cache, which
the environment variable TL_CACHE overrides.  Each check is one row of
_CHECKS, with the size range it fits; pjw --method both runs the
recursive = direct row, in f-basis coordinates at every n.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .coeffs import (IntegralityViolationError, InvalidPrimeError, InvariantError,
                     check_odd_prime, format_rational)
from . import tableaux
from .diagrams import element_to_str
from . import projectors
from .projectors import CacheError
from . import klr

# pjw prints diagram expansions, and verify-all checks the class
# idempotents on diagrams, up to this size
_EXPAND_LIMIT = 9


class UsageError(Exception):
    pass


def _progress(msg):
    print(msg, file=sys.stderr)


def _built(args, build, *build_args):
    """build(*build_args) between reading and writing the Jones-Wenzl cache
    file that TL_CACHE or --cache names, if any: called after every argument
    check and before the first line of stdout."""
    path = os.environ.get("TL_CACHE") or args.cache
    cache = projectors.default_cache()
    if path and os.path.exists(path):
        cache.load(path)
    e = build(*build_args)
    if path:
        cache.save(path)
    return e


def _print_element(e, as_json):
    if as_json:
        print(json.dumps(e.to_json()))
    else:
        print(element_to_str(e))


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"--{name} is required for this command")
    if "p" in names:
        try:
            check_odd_prime(args.p)
        except InvalidPrimeError as exc:
            raise UsageError(str(exc)) from None
    if "n" in names:
        # TL_0 is the ground ring; the p-local constructions start at n = 1
        least = 1 if "p" in names else 0
        if args.n < least:
            raise UsageError(f"--n must be at least {least} for this "
                             f"command, got {args.n}")
        if args.n > args.max_n:
            raise UsageError(
                f"n={args.n} exceeds the safety limit --max-n={args.max_n}")


def _in_ring(e, args):
    """e over --ring; over Zp and Fp, e must be p-integral."""
    return e if args.ring == "Q" else e.in_ring(args.ring, args.p)


def _cmd_jw(args):
    _require(args, "n")
    if args.n >= 10:
        _progress(f"expanding the Jones-Wenzl projector at n={args.n}; "
                  "this is the slow path")
    _print_element(_built(args, projectors.jones_wenzl, args.n), args.json)
    return 0


def _cmd_pjw(args):
    _require(args, "n", "p")
    method = args.method
    if method != "direct" and args.n < args.p:
        raise UsageError("the recursive construction needs n >= p")
    expand = args.n <= _EXPAND_LIMIT
    if method == "recursive" and not expand:
        raise UsageError(f"--method recursive prints the diagram expansion, "
                         f"kept to n <= {_EXPAND_LIMIT}; use --method both")
    if expand:
        build = (klr.p_jones_wenzl_recursive if method == "recursive"
                 else projectors.p_jones_wenzl_direct)
        e = _in_ring(_built(args, build, args.n, args.p), args)
    same = True
    if method == "both":
        report, = _run_row("pjw-direct-vs-recursive", args.n, args.p)
        same = report["pass"]
        print(json.dumps(report) if args.json else "direct == recursive" if same
              else f"direct != recursive  {report.get('counterexample', '')}".rstrip())
    if expand:
        _print_element(e, args.json)
    elif method == "direct":
        # past the expansion limit: print the index set summary
        tabs = tableaux.index_set(args.n, args.p)
        doc = {"n": args.n, "p": args.p,
               "summands": [{"index": m, "tableau": list(t)}
                            for m, t in tabs.items()]}
        print(json.dumps(doc) if args.json else
              "sum of seminormal idempotents at indices "
              + ", ".join(str(m) for m in tabs))
    return 0 if same else 1


def _parse_tableau(spec):
    try:
        cols = tuple(int(c) for c in spec.split(","))
    except ValueError:
        raise UsageError(f"cannot parse tableau spec {spec!r}") from None
    if not tableaux.is_standard(cols):
        raise UsageError(f"{spec!r} is not a standard two-column tableau "
                         "(ballot sequence of 1s and 2s)")
    return cols


def _cmd_idempotent(args):
    if args.tableau is None:
        raise UsageError("--tableau is required for this command")
    t = _parse_tableau(args.tableau)
    if len(t) > args.max_n:
        raise UsageError(f"tableau size exceeds --max-n={args.max_n}")
    if args.ring != "Q" or args.p is not None:  # a given --p is checked over Q too
        _require(args, "p")
    e = _built(args, projectors.seminormal_idempotent, t)
    _print_element(_in_ring(e, args), args.json)
    return 0


def _cmd_classes(args):
    _require(args, "n", "p")
    for cls in tableaux.all_p_classes(args.n, args.p):
        res = tableaux.residue_sequence(cls[0], args.p)
        if args.json:
            print(json.dumps({"residues": list(res),
                              "members": [list(t) for t in cls]}))
        else:
            members = "  ".join("".join(map(str, t)) for t in cls)
            print(f"residues {','.join(map(str, res))}: {members}")
    return 0


def _cmd_collapse(args):
    _require(args, "n", "p")
    if args.n < args.p:
        raise UsageError("collapse needs n >= p")
    for t in tableaux.class_of_one_column(args.n, args.p):
        small, tag = tableaux.collapse(t, args.p)
        if args.json:
            print(json.dumps({"tableau": list(t), "image": list(small),
                              "tag": tag}))
        else:
            img = "".join(map(str, small)) or "empty"
            tag_str = f" tag {tag}" if tag is not None else ""
            print(f"{''.join(map(str, t))} -> {img}{tag_str}")
    return 0


def _emit_reports(reports, as_json):
    ok = True
    for r in reports:
        ok &= bool(r["pass"])
        if as_json:
            # a counterexample may hold Fractions: "a/b" as in the element schema
            print(json.dumps(r, default=format_rational))
        else:
            mark = "PASS" if r["pass"] else "FAIL"
            extra = "" if r["pass"] else f"  {r.get('counterexample')}"
            print(f"{mark} {r['check']} (n={r['n']}, p={r['p']}){extra}")
    return ok


def _class_integrality(n, p):
    for cls in tableaux.all_p_classes(n, p):
        projectors.class_idempotent(cls, p)
    return [klr._report("class-idempotent-integrality", n, p, True)]


def _direct_vs_recursive(n, p):
    # in f-basis coordinates, which determine elements of TL_n faithfully
    same = (klr.p_jones_wenzl_recursive_operator(n, p)
            == klr.direct_projection_operator(n, p))
    return [klr._report("pjw-direct-vs-recursive", n, p, same)]


# the checks, in the order verify-all runs them: the size range
# n <= bound(p) or n >= bound(p) that each fits, and its (n, p) -> reports,
# which reads klr's functions at each call, where a tracer may wrap them
_CHECKS = {
    # the KLR relation suite spans the whole f-basis: about 1 s at n = 10
    "klr-check": ("<=", lambda p: 10,
                  lambda n, p: klr.klr_relations_check(n, p)),
    "diamond-check": (">=", lambda p: 3 * p - 1,
                      lambda n, p: klr.diamond_formula_check(n, p)),
    "class-idempotent-integrality": ("<=", lambda p: _EXPAND_LIMIT,
                                     _class_integrality),
    "pjw-direct-vs-recursive": (">=", lambda p: p, _direct_vs_recursive),
}


def _run_row(name, n, p):
    """The reports of the _CHECKS row name; a broken invariant or a
    p-integrality violation ends the row in one failed report."""
    try:
        return _CHECKS[name][2](n, p)
    except (InvariantError, IntegralityViolationError) as exc:
        return [klr._report(name, n, p, False, str(exc))]


def _cmd_check(args):
    _require(args, "n", "p")
    n, p = args.n, args.p
    names = _CHECKS if args.command == "verify-all" else (args.command,)
    bounds = {name: (_CHECKS[name][0], _CHECKS[name][1](p)) for name in names}
    fit = [name for name, (op, b) in bounds.items()
           if (n <= b if op == "<=" else n >= b)]
    if not fit:
        raise UsageError(f"no check fits n={n}, p={p}: " + ", ".join(
            f"{name} needs n {op} {b}" for name, (op, b) in bounds.items()))
    if "class-idempotent-integrality" in bounds.keys() - fit:
        _progress(f"skipping diagram-level integrality at n={n} "
                  f"(> {_EXPAND_LIMIT})")
    reports = [r for name in fit for r in _run_row(name, n, p)]
    return 0 if _emit_reports(reports, args.json) else 1


_FLAGS = {
    "--n": {"type": int},
    "--p": {"type": int},
    "--ring": {"choices": ("Q", "Zp", "Fp"), "default": "Q"},
    "--method": {"choices": ("direct", "recursive", "both"),
                 "default": "direct"},
    "--tableau": {"help": "comma-separated column indices, e.g. 1,1,2"},
    "--cache": {"help": "path of the Jones-Wenzl JSON cache "
                "(TL_CACHE overrides)"},
    "--json": {"action": "store_true"},
    "--max-n": {"type": int, "default": 12,
                "help": "safety limit on the strand count (default 12)"},
}

_CHECK_FLAGS = ("--n", "--p", "--json", "--max-n")

# each subcommand: its handler and the flags that handler reads
_COMMANDS = {
    "jw": (_cmd_jw, ("--n", "--cache", "--json", "--max-n")),
    "pjw": (_cmd_pjw, ("--n", "--p", "--ring", "--method", "--cache",
                       "--json", "--max-n")),
    "idempotent": (_cmd_idempotent, ("--tableau", "--p", "--ring", "--cache",
                                     "--json", "--max-n")),
    "classes": (_cmd_classes, _CHECK_FLAGS),
    "collapse": (_cmd_collapse, _CHECK_FLAGS),
    "diamond-check": (_cmd_check, _CHECK_FLAGS),
    "klr-check": (_cmd_check, _CHECK_FLAGS),
    "verify-all": (_cmd_check, _CHECK_FLAGS),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlexact",
        description="Exact Temperley-Lieb computations at loop parameter 2.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        sp = sub.add_parser(name)
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command][0](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except CacheError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return 2
    except IntegralityViolationError as exc:
        print(f"integrality violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
