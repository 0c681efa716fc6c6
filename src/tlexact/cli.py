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
the environment variable TL_CACHE overrides.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .coeffs import (IntegralityViolationError, InvalidPrimeError, check_odd_prime,
                     format_rational)
from . import tableaux
from .diagrams import element_to_str
from . import projectors
from .projectors import CacheError
from . import klr

# the full diagram expansion of the recursive construction is kept
# element-level up to this size; beyond it the comparison runs in f-basis
# coordinates
_EXPAND_LIMIT = 9
# the KLR relation suite spans the whole f-basis: about 1 s at n = 10
_KLR_LIMIT = 10


class UsageError(Exception):
    pass


def _progress(msg):
    print(msg, file=sys.stderr)


def _load_cache(args):
    path = os.environ.get("TL_CACHE") or args.cache
    cache = projectors.default_cache()
    if path and os.path.exists(path):
        cache.load(path)
    return cache, path


def _save_cache(cache, path):
    if path:
        cache.save(path)


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
    """e over --ring; Zp and Fp need --p and a p-integral e.  A given --p
    must be an odd prime over Q too."""
    if args.ring != "Q" or args.p is not None:
        _require(args, "p")
    return e if args.ring == "Q" else e.in_ring(args.ring, args.p)


def _cmd_jw(args):
    _require(args, "n")
    cache, path = _load_cache(args)
    if args.n >= 10:
        _progress(f"expanding the Jones-Wenzl projector at n={args.n}; "
                  "this is the slow path")
    e = projectors.jones_wenzl(args.n)
    _save_cache(cache, path)
    _print_element(e, args.json)
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
    cache, path = _load_cache(args)
    status = 0
    direct = recursive = None
    if method in ("direct", "both") and expand:
        direct = projectors.p_jones_wenzl_direct(args.n, args.p)
    if method in ("recursive", "both"):
        if expand:
            recursive = klr.p_jones_wenzl_recursive(args.n, args.p)
        else:
            _progress(f"n={args.n} > {_EXPAND_LIMIT}: comparing in f-basis "
                      "coordinates")
    if method == "both":
        if expand:
            same = direct == recursive
        else:
            same = (klr.p_jones_wenzl_recursive_operator(args.n, args.p)
                    == klr.direct_projection_operator(args.n, args.p))
        report = {"check": "pjw-direct-vs-recursive", "n": args.n,
                  "p": args.p, "pass": same}
        print(json.dumps(report) if args.json else
              ("direct == recursive" if same else "direct != recursive"))
        if not same:
            status = 1
    out = direct if direct is not None else recursive
    if out is not None:
        _print_element(_in_ring(out, args), args.json)
    elif method == "direct":
        # past the expansion limit: print the index set summary
        tabs = tableaux.index_set_tableaux(args.n, args.p)
        doc = {"n": args.n, "p": args.p,
               "summands": [{"index": m, "tableau": list(t)}
                            for m, t in tabs.items()]}
        print(json.dumps(doc) if args.json else
              "sum of seminormal idempotents at indices "
              + ", ".join(str(m) for m in tabs))
    _save_cache(cache, path)
    return status


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
    cache, path = _load_cache(args)
    e = projectors.seminormal_idempotent(t)
    _save_cache(cache, path)
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


def _cmd_diamond_check(args):
    _require(args, "n", "p")
    if args.n < 2 * args.p + args.p - 1:
        raise UsageError("diamond checks need at least two length-p blocks, "
                         f"n >= {3 * args.p - 1}")
    return 0 if _emit_reports(klr.diamond_formula_check(args.n, args.p),
                              args.json) else 1


def _cmd_klr_check(args):
    _require(args, "n", "p")
    if args.n > _KLR_LIMIT:
        raise UsageError("the KLR relation suite is exhaustive over the "
                         f"f-basis and is kept to n <= {_KLR_LIMIT}")
    return 0 if _emit_reports(klr.klr_relations_check(args.n, args.p),
                              args.json) else 1


def _cmd_verify_all(args):
    _require(args, "n", "p")
    n, p = args.n, args.p
    if _KLR_LIMIT < n < p:
        raise UsageError(f"no check fits n={n}, p={p}: KLR relations need n <= "
                         f"{_KLR_LIMIT}, class integrality n <= {_EXPAND_LIMIT}, "
                         "diamonds n >= 3p-1, recursive = direct n >= p")
    reports = []
    if n <= _KLR_LIMIT:
        reports.extend(klr.klr_relations_check(n, p))
    if n >= 3 * p - 1:
        reports.extend(klr.diamond_formula_check(n, p))
    if n <= _EXPAND_LIMIT:
        try:
            for cls in tableaux.all_p_classes(n, p):
                projectors.class_idempotent(cls, p)
            reports.append({"check": "class-idempotent-integrality",
                            "n": n, "p": p, "pass": True})
        except IntegralityViolationError as exc:
            reports.append({"check": "class-idempotent-integrality",
                            "n": n, "p": p, "pass": False,
                            "counterexample": str(exc)})
    else:
        _progress(f"skipping diagram-level integrality at n={n} "
                  f"(> {_EXPAND_LIMIT})")
    if n >= p:
        same = (klr.p_jones_wenzl_recursive_operator(n, p)
                == klr.direct_projection_operator(n, p))
        reports.append({"check": "pjw-direct-vs-recursive", "n": n, "p": p,
                        "pass": same})
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
    "diamond-check": (_cmd_diamond_check, _CHECK_FLAGS),
    "klr-check": (_cmd_klr_check, _CHECK_FLAGS),
    "verify-all": (_cmd_verify_all, _CHECK_FLAGS),
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
