"""Command-line front end.

Subcommands: ``compute`` evaluates the zeta function through the
semiquasihomogeneous driver (inputs with a constant term go straight to the
one-region recursive engine), ``oracle`` counts congruence solutions
exhaustively, and ``check`` cross-validates the two (plus the two-term
closed form when it applies).

Exit codes are stable: 0 success, 2 parse error, 3 no admissible weight
system or bad weight hint, 4 recursion depth cap, 6 enumeration budget,
1 anything else (5 is retired).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from math import gcd
from typing import Optional

from . import analysis, spf, sqh
from .coeff import DEFAULT_BUDGET, LocalRing
from .errors import (
    BudgetExceeded,
    DepthExceeded,
    EngineError,
    InvalidHint,
    NotSemiQuasiHomogeneous,
    PolynomialSyntaxError,
)
from .poly import MultiPoly, parse
from .ratfun import RatFun
from .region import ResidueRegion

EXIT_CODES = (
    (PolynomialSyntaxError, 2),
    ((NotSemiQuasiHomogeneous, InvalidHint), 3),
    (DepthExceeded, 4),
    (BudgetExceeded, 6),
)


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by later ones."""
    parser = argparse.ArgumentParser(
        prog="igusa-zeta",
        description="exact Igusa local zeta functions of semiquasihomogeneous polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("poly", help='polynomial text, e.g. "x^2+y^3" (u = uniformizer in char p);'
                                    ' one starting with "-" goes last, after the options and --')
        p.add_argument("--prime", type=int, required=True, help="residue characteristic p")
        p.add_argument("--char", choices=["0", "p"], default="0",
                       help="field characteristic: 0 for Q_p, p for F_p((u))")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="enumeration budget (>= 1): per classification, the residue "
                            "points of its parts, p^2 per histogram convolution and the "
                            "critical-point combinations; lifting candidates N_(j-1)*p^n "
                            "per counting level; the weight candidates that compute "
                            "and check search without --weights")

    c = sub.add_parser("compute", help="compute Z(f, s) via the weight-system driver")
    common(c)
    c.add_argument("--format", choices=["text", "json", "latex"], default="text")
    c.add_argument("--weights", default=None, help='weight hint "a1,a2,...:d"')
    c.add_argument("--expand", type=int, default=4, metavar="J",
                   help="report congruence counts N_0..N_J extracted from P(t)")
    c.add_argument("--trace", default=None, metavar="FILE",
                   help="write the dilatation tree as JSON")

    o = sub.add_parser("oracle", help="count congruence solutions exhaustively")
    common(o)
    o.add_argument("--format", choices=["text", "json"], default="text")
    o.add_argument("--levels", type=int, default=4, metavar="J", help="count N_0..N_J")

    k = sub.add_parser("check", help="cross-validate engine, oracle and closed form")
    common(k)
    k.add_argument("--weights", default=None, help='weight hint "a1,a2,...:d"')
    k.add_argument("--levels", type=int, default=4, metavar="J", help="comparison depth")
    for p in (c, k):  # the commands that run the engine
        p.add_argument("--max-depth", type=int, default=64, help="dilatation recursion cap")
    return parser


def _parse_weights(text: Optional[str]) -> Optional[sqh.WeightSystem]:
    if text is None:
        return None
    try:
        alphas, d = text.split(":")
        alpha = tuple(int(a) for a in alphas.split(","))
        return sqh.WeightSystem(alpha, int(d))
    except (ValueError, TypeError) as exc:
        raise InvalidHint(f"cannot parse weight hint {text!r}: {exc}") from None


def _ring(args) -> LocalRing:
    return LocalRing(args.prime, positive_char=args.char == "p")


def _config(args) -> spf.SpfConfig:
    return spf.SpfConfig(max_depth=args.max_depth, budget=args.budget)


def _zeta(f: MultiPoly, hint: Optional[sqh.WeightSystem], cfg: spf.SpfConfig):
    """Z(f, s) with the engine's record: an SpfTrace or an SqhReport.

    A constant term rules out the weight driver; one recursion suffices.
    Both engines are looked up on their modules at call time, so wrappers
    set on those attributes (zetabench's tracer and negative control) see
    every call.
    """
    if not f.constant_term().is_zero():
        return spf.spf_zeta(f, ResidueRegion.full(f.ring.p, f.n), cfg)
    return sqh.zeta_semiquasihomogeneous(f, hint, cfg)


def _render_compute(args, f: MultiPoly, Z: RatFun, report, poincare, counts) -> str:
    if args.format == "latex":
        return f"Z(f,s) = {Z.latex()}"
    poles = sorted(Z.pole_real_parts()) if report is None else report.pole_real_parts
    if args.format == "json":
        zeta = Z.to_json()
        doc = {
            "poly": f.render(),
            "prime": args.prime,
            "char": args.char,
            "zeta": zeta,
            "poincare": poincare.ratfun.to_json(),
            "pole_real_parts": [[q.numerator, q.denominator] for q in poles],
            "N": counts,
        }
        if report is not None:
            doc["report"] = report.to_json(zeta)
        return json.dumps(doc, sort_keys=True)
    lines = [f"Z(f, s) over {'F_%d((u))' % args.prime if args.char == 'p' else 'Q_%d' % args.prime}, t = {args.prime}^(-s)"]
    if report is not None:
        w = report.weights
        lines.append(f"  weights     alpha = {tuple(w.alpha)}, d = {w.d}  (|alpha| = {w.total})")
        lines.append(f"  k0          {report.k0}")
        lines.append(f"  tree        {report.tree_stats}")
    lines.append(f"  Z           {Z}")
    lines.append(f"  poles Re(s) {', '.join(map(str, poles)) if poles else '(none)'}")
    lines.append(f"  P(t)        {poincare.ratfun}")
    lines.append(f"  N_j (j<={len(counts) - 1})  {counts}")
    return "\n".join(lines)


def _json_chunks(doc):
    """The text of json.dump(doc, sort_keys=True) in pieces, on an explicit stack.

    json's encoders recurse once per nesting level, so a dilatation tree
    deeper than the interpreter's recursion limit needs this one.  Keys are
    strings, as in every document the CLI writes.
    """
    stack = [[iter(((None, doc),)), "", True]]  # items, closing bracket, first item
    while stack:
        frame = stack[-1]
        item = next(frame[0], None)
        if item is None:
            stack.pop()
            yield frame[1]
            continue
        key, value = item
        if not frame[2]:
            yield ", "
        frame[2] = False
        if key is not None:
            yield json.dumps(key) + ": "
        if isinstance(value, dict):
            yield "{"
            stack.append([iter(sorted(value.items())), "}", True])
        elif isinstance(value, (list, tuple)):
            yield "["
            stack.append([((None, v) for v in value), "]", True])
        else:
            yield json.dumps(value)


def cmd_compute(args) -> int:
    if args.expand < 0:
        raise ValueError("expand must be >= 0")
    f = parse(args.poly, _ring(args))
    Z, record = _zeta(f, _parse_weights(args.weights), _config(args))
    report = None if isinstance(record, spf.SpfTrace) else record
    poincare = analysis.poincare_from_zeta(Z, f.n)
    counts = poincare.counts(args.expand)
    output = _render_compute(args, f, Z, report, poincare, counts)
    if args.trace:
        if report is None:
            trace_doc = record.to_json()
        else:
            # one tree per engine call: complement cells and iterates
            trace_doc = {
                "tree_stats": report.tree_stats,
                "trees": [root.to_json() for root in report.roots],
            }
        with open(args.trace, "w") as handle:
            handle.writelines(_json_chunks(trace_doc))
    print(output)
    return 0


def cmd_oracle(args) -> int:
    f = parse(args.poly, _ring(args))
    counts = analysis.oracle_counts(f, args.levels, args.budget)
    if args.format == "json":
        print(json.dumps({"p": args.prime, "n": f.n, "N": counts}, sort_keys=True))
    else:
        print("\n".join(f"N_{j} = {c}" for j, c in enumerate(counts)))
    return 0


def _closed_form_shape(f: MultiPoly):
    """Detect alpha*x^n + beta*y^m with a unit coefficient, up to swapping axes."""
    if f.n != 2 or len(f.terms) != 2:
        return None
    exps = sorted(f.terms)
    (e1, e2) = exps
    if e1[0] != 0 or e1[1] < 2 or e2[1] != 0 or e2[0] < 2:
        return None
    m_y, n_x = e1[1], e2[0]
    if gcd(n_x, m_y) != 1:
        return None
    a, b = f.terms[e2], f.terms[e1]
    if a.valuation() == 0:
        return n_x, m_y, a, b
    if b.valuation() == 0:
        return m_y, n_x, b, a
    return None


def cmd_check(args) -> int:
    ring = _ring(args)
    f = parse(args.poly, ring)
    Z, _ = _zeta(f, _parse_weights(args.weights), _config(args))
    results = []
    counts = analysis.oracle_counts(f, args.levels, args.budget)
    extracted = analysis.poincare_from_zeta(Z, f.n).counts(args.levels)
    results.append(("poincare counts == oracle counts", extracted == counts))
    results.append(
        ("series expansion == valuation fibers", spf.series_check(f, Z, args.levels, counts=counts))
    )
    shape = _closed_form_shape(f)
    if shape is not None:
        closed = analysis.two_term_closed_form(ring, *shape)
        results.append(("engine == closed form", closed == Z))
    ok = all(flag for _, flag in results)
    for label, flag in results:
        print(f"{'PASS' if flag else 'FAIL'}  {label}")
    print(f"checked N up to j={args.levels}: {counts}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"compute": cmd_compute, "oracle": cmd_oracle, "check": cmd_check}
    try:
        if args.budget < 1:
            raise ValueError("budget must be >= 1")
        return handlers[args.command](args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for types, code in EXIT_CODES:
            if isinstance(exc, types):
                return code
        return 1
    except (ValueError, OSError) as exc:  # OSError: a --trace file that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
