"""Command-line front door.

Subcommands:
  char    compute a character by one route or all of them
  dim     evaluate the character at x = y = 1 (jt takes the determinant
          at that point, without expanding the character)
  schur   expand a composite supersymmetric S-function
  verify  run the identity suites and report failures

Exit codes: 0 success, 1 input error (the message names the violated
hypothesis) or a reader that closed the output pipe, 2 route
disagreement under `char --method all`.  JSON output is canonical:
identical inputs give byte-identical bytes.  A character that keeps its
S_m x S_n orbit representatives, as the `jt`, `suzhang` and `schur`
results do, is written from them, one row of terms per x block, in the
same bytes as term by term.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .combinatorics import CompositePartition
from .jacobi_trudi import character, dimension, jt_matrix, jt_matrix_labels
from .laurent import LaurentPoly
from .symfunc import composite_super_schur
from .verify import GridSpec, run_suite
from .weights import Weight, normalize_to_special

ROUTES = ("jt", "suzhang", "typical", "reduction")


class _Parser(argparse.ArgumentParser):
    """Argument errors are input errors (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise ValueError(message)


def _canonical(obj):
    """Canonical JSON text of obj: keys sorted, no spaces.

    A LaurentPoly is written as {"arity":[m,n],"terms":[...]}, one
    {"coeff":"<int>","exp2":[...]} per term, in `sorted_terms` order:
    descending by total degree, then by exponent vector.  A polynomial
    that keeps its orbit representatives is written from them by
    `_orbit_terms`, one row of terms per x block; any other is written
    term by term.  A dict is written key by key, so that the polynomials
    in it are written the same way; any other value goes to json.dumps.
    So identical inputs give identical bytes.
    """
    if isinstance(obj, LaurentPoly):
        if obj.orbits is not None:
            body = _orbit_terms(obj)
        else:
            term = ('{"coeff":"%d","exp2":['
                    + ",".join(["%d"] * (obj.m + obj.n)) + "]}")
            body = ",".join([term % (c, *e) for e, c in obj.sorted_terms()])
        return '{"arity":[%d,%d],"terms":[%s]}' % (obj.m, obj.n, body)
    if isinstance(obj, dict):
        return "{%s}" % ",".join(json.dumps(k) + ":" + _canonical(v)
                                 for k, v in sorted(obj.items()))
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _orbit_terms(poly):
    """The comma-joined term objects of poly, written from `orbit_rows`.

    Each ylist is formatted once, as the pieces that go between copies
    of an x block, so that a row is one join of its ylist's pieces
    around its formatted x block.
    """
    m, n = poly.m, poly.n
    ylists, rows = poly.orbit_rows()
    # a comma parts the y entries from the x entries only if both exist
    y_end = ("," if m and n else "") + ",".join(["%d"] * n) + "]}"
    # "\0" marks where the x block goes; no formatted int contains it
    pieces = [",".join(['{"coeff":"%d","exp2":[\0' % c + y_end % y
                        for y, c in ylist]).split("\0")
              for ylist in ylists]
    x_fmt = ",".join(["%d"] * m)
    return ",".join([(x_fmt % xs).join(pieces[k]) for xs, k in rows])


def _parse_weight(args):
    w = Weight.parse(args.m, args.n, args.weight)
    return w.require_dominant()


def _matrix_payload(w):
    """Labels and expanded entries of the determinant matrix for w."""
    _, sc = normalize_to_special(w)
    labels = jt_matrix_labels(sc)
    entries = jt_matrix(sc)
    defs = {}
    for lrow, erow in zip(labels, entries):
        for label, entry in zip(lrow, erow):
            defs.setdefault(label, entry)
    return labels, defs


def cmd_char(args):
    w = _parse_weight(args)
    if args.emit_matrix and args.method != "jt":
        # only the jt route computes its character from the matrix
        raise ValueError("--emit-matrix needs --method jt")
    if args.method == "all":
        routes = {}
        for name in ROUTES:
            try:
                routes[name] = character(w, name, args.cap)
            except ValueError:
                routes[name] = None
        computed = [p for p in routes.values() if p is not None]
        if not computed:
            raise ValueError(f"no route applies to {w}")
        agree = all(p == computed[0] for p in computed)
        if args.format == "json":
            payload = {
                "weight": str(w),
                "routes": {name: (p if p is not None else "n/a")
                           for name, p in routes.items()},
                "agree": agree,
            }
            print(_canonical(payload))
        else:
            for name in ROUTES:
                p = routes[name]
                print(f"{name}: {p if p is not None else 'n/a'}")
            print(f"agree: {'yes' if agree else 'NO'}")
        return 0 if agree else 2

    # the matrix needs a constant delta-part: refuse a weight without
    # one before the character is computed
    matrix = _matrix_payload(w) if args.emit_matrix else None
    poly = character(w, args.method, args.cap)
    if args.format == "json":
        payload = {"weight": str(w), "method": args.method,
                   "character": poly}
        if matrix:
            labels, defs = matrix
            payload["matrix"] = labels
            payload["entries"] = defs
        print(_canonical(payload))
    elif matrix:
        labels, defs = matrix
        print("matrix:")
        for row in labels:
            print("  " + " ".join(row))
        print("entries:")
        for label in sorted(defs, key=lambda s: (s.split("_")[0],
                                                 int(s.split("_")[1]))):
            print(f"  {label} = {defs[label]}")
        print("character:")
        print(poly)
    else:
        print(poly)
    return 0


def cmd_dim(args):
    w = _parse_weight(args)
    print(dimension(w, args.method, args.cap))
    return 0


def cmd_schur(args):
    c = CompositePartition.parse(args.composite)
    where = f"{args.composite} on gl({args.m}|{args.n})"
    if not c.is_super_standard(args.m, args.n):
        raise ValueError(f"nu_{{m - l(mu) + 1}} <= n violated for {where}")
    if not c.is_standard(args.m):
        raise ValueError(f"l(nu) + l(mu) <= m violated for {where}")
    poly = composite_super_schur(c, args.m, args.n)
    if args.format == "json":
        print(_canonical(poly))
    else:
        print(poly)
    return 0


def cmd_verify(args):
    grid = GridSpec.parse(args.grid) if args.grid else None
    reports = run_suite(args.suite, grid, args.seed)
    out = reports[0] if len(reports) == 1 else reports
    print(_canonical(out))
    empty = [r["suite"] for r in reports if not r["cases"]]
    if empty:
        raise ValueError(f"no cases on this grid for {', '.join(empty)}")
    return 0 if all(not r["failures"] for r in reports) else 1


def _add_weight_flags(sub):
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--weight", required=True,
                     help="'l1,...,lm;u1,...,un', e.g. '3,2,-1;-1,-1'")
    sub.add_argument("--cap", type=int, default=None,
                     help="guard on m!*n!")


def build_parser():
    parser = _Parser(prog="superschur",
                     description="Exact gl(m|n) irreducible characters.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_char = subs.add_parser("char", help="compute a character")
    _add_weight_flags(p_char)
    p_char.add_argument("--method", default="jt",
                        choices=ROUTES + ("all",))
    p_char.add_argument("--format", default="text", choices=("text", "json"))
    p_char.add_argument("--emit-matrix", action="store_true",
                        help="also print the determinant matrix (--method jt)")
    p_char.set_defaults(func=cmd_char)

    p_dim = subs.add_parser("dim", help="compute a dimension")
    _add_weight_flags(p_dim)
    p_dim.add_argument("--method", default="jt", choices=ROUTES)
    p_dim.set_defaults(func=cmd_dim)

    p_schur = subs.add_parser("schur",
                              help="expand a composite S-function")
    p_schur.add_argument("--m", type=int, required=True)
    p_schur.add_argument("--n", type=int, required=True)
    p_schur.add_argument("--composite", required=True,
                         help="'nu|mu', e.g. '2,1|3'")
    p_schur.add_argument("--format", default="text",
                         choices=("text", "json"))
    p_schur.set_defaults(func=cmd_schur)

    p_verify = subs.add_parser("verify", help="run identity suites")
    p_verify.add_argument("--suite", default="all",
                          choices=("rho", "split-classical", "split-super",
                                   "isolate-y", "jt-vs-oracle",
                                   "raise-oracle", "phi-roundtrip", "all"))
    p_verify.add_argument("--grid", default=None,
                          help="'m<=A,n<=B,entry<=C'")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        # write what is still buffered while a closed pipe can be caught
        sys.stdout.flush()
        return code
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so that the
        # flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
