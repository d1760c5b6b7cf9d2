"""Correctness gate, applied to captured CLI output outside the timed region.

compute ops: the JSON must parse; N_0..N_J, both as printed and as expanded
from the printed Z, must equal exhaustive congruence counts at the deepest
J <= 4 within GATE_POINT_CAP points; a two-term curve x^n + b*y^m must also
match the independent closed form; and Z must be identical on every repeat
of the op.  check ops: exit 0, every verdict line PASS, and the same
verdicts and counts on every repeat.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import List, Optional

GATE_POINT_CAP = 2 * 10**5
GATE_MAX_LEVEL = 4


def gate_levels(p: int, n: int) -> int:
    j = 0
    while j < GATE_MAX_LEVEL and p ** (n * (j + 1)) <= GATE_POINT_CAP:
        j += 1
    return j


def perturb(Z, n: int):
    """Z + p^(-n) (1 - t): still mass one, but N_1 drops by exactly one.

    The negative control: the perturbed value keeps a valid Poincare
    series (N_1 >= 1 because the origin is a root), so only a comparison
    against an independent count rejects it, at any depth J >= 1.
    """
    from igusa_zeta.ratfun import RatFun

    c = Fraction(1, Z.p**n)
    return Z + RatFun(Z.p, (c, -c))


def install_negative_control():
    """Make the engine return perturb(Z) for every input, as the CLI sees it."""
    from igusa_zeta import sqh

    original = sqh.zeta_semiquasihomogeneous

    def perturbed(F, *args, **kwargs):
        Z, report = original(F, *args, **kwargs)
        return perturb(Z, F.n), report

    sqh.zeta_semiquasihomogeneous = perturbed

    def undo():
        sqh.zeta_semiquasihomogeneous = original

    return undo


def result_key(op, output: str) -> Optional[str]:
    """The part of an op's output that must repeat exactly across passes."""
    if op.command == "check":
        return output
    try:
        return json.dumps(json.loads(output)["zeta"], sort_keys=True)
    except (ValueError, KeyError, TypeError):
        return None


def check_op(op, rc: int, output: str) -> List[str]:
    """Problems with one op's result; an empty list means it passes."""
    if rc != 0:
        return [f"exit code {rc}"]
    if op.command == "check":
        lines = output.strip().splitlines()
        verdicts = lines[:-1]
        if not verdicts or not lines[-1].startswith("checked N up to"):
            return ["unexpected check output"]
        return [line for line in verdicts if not line.startswith("PASS")]
    return _check_compute(op, output)


def _check_compute(op, output: str) -> List[str]:
    from igusa_zeta import analysis
    from igusa_zeta.coeff import LocalRing
    from igusa_zeta.errors import EngineError
    from igusa_zeta.poly import parse
    from igusa_zeta.ratfun import RatFun

    try:
        doc = json.loads(output)
        Z = RatFun.from_json(doc["zeta"], op.p)
        printed = doc["N"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable compute output: {exc!r}"]
    ring = LocalRing(op.p, positive_char=op.char == "p")
    f = parse(op.poly, ring, op.n)
    J = gate_levels(op.p, op.n)
    problems = []
    try:
        oracle = analysis.oracle_counts(f, J, GATE_POINT_CAP)
    except EngineError as exc:
        return [f"oracle failed: {exc!r}"]
    if printed[: J + 1] != oracle:
        problems.append(f"printed N {printed[:J + 1]} != oracle {oracle}")
    try:
        expanded = analysis.poincare_from_zeta(Z, op.n).counts(J)
    except EngineError as exc:
        expanded = repr(exc)
    if expanded != oracle:
        problems.append(f"N from Z {expanded} != oracle {oracle}")
    if op.two_term is not None:
        ex, ey = op.two_term
        try:
            closed = analysis.two_term_closed_form(ring, ex[0], ey[1], f.terms[ex], f.terms[ey])
        except EngineError as exc:
            closed = repr(exc)
        if closed != Z:
            problems.append("Z != two-term closed form")
    return problems
