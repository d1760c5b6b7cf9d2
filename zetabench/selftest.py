"""Self-test of the benchmark's generator and gate.

    python3 zetabench/selftest.py                 # about a minute
    python3 zetabench/selftest.py --every-input   # adds step 4, about 15 minutes

1. Validity rules, on the polynomial text itself, for seeds 0..199 of every
   workload: the weight-d part is exactly the template's monomials, every
   other monomial lies strictly above weight d, in characteristic p no
   prime divides an exponent, check levels stay within the point cap, and
   one seed always gives the same op list.
2. Every op at the default seed exits 0 and passes the gate.
3. Negative controls: every compute op fails the gate when its printed Z is
   perturbed, and every check op fails when the engine's Z is perturbed.
4. (--every-input) Every input any seed can produce from a template with a
   tail computes with exit code 0.  A random tail can give the hypersurface
   a second singular point, and the engine then stops with DepthExceeded.
   Tail-free inputs need no run: they are sums c_i x_i^k_i, p divides no
   k_i in characteristic p, so the gradient vanishes only at the origin.

Exits non-zero on the first rule broken, listing every failing op.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
SEEDS = range(200)


def _weight(e, alpha):
    return sum(a * k for a, k in zip(alpha, e))


def check_rules() -> list:
    from igusa_zeta.coeff import LocalRing
    from igusa_zeta.poly import parse

    templates = {(w, t.name): t for w, ts in workloads.WORKLOADS.items() for t in ts}
    errors = []
    for w in workloads.WORKLOADS:
        for seed in SEEDS:
            ops = workloads.generate(w, seed)
            if ops != workloads.generate(w, seed):
                errors.append(f"{w} seed {seed}: op list is not reproducible")
            for op in ops:
                t = templates[(w, op.template)]
                alpha, d = t.weights
                f = parse(op.poly, LocalRing(op.p, positive_char=op.char == "p"), op.n)
                quasi = {e for e in f.terms if _weight(e, alpha) == d}
                where = f"{w} seed {seed} op {op.op_id} {op.poly!r} p={op.p}"
                if quasi != set(t.quasi):
                    errors.append(f"{where}: weight-{d} part {sorted(quasi)}")
                if any(_weight(e, alpha) < d for e in f.terms):
                    errors.append(f"{where}: monomial below weight {d}")
                if op.char == "p" and any(k % op.p == 0 for e in f.terms for k in e if k):
                    errors.append(f"{where}: p divides an exponent")
                if op.command == "check" and op.p ** (op.n * op.levels) > workloads.CHECK_POINT_CAP:
                    errors.append(f"{where}: levels {op.levels} exceed the point cap")
    return errors


def _run_op(cli, op):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(op.argv())
    return rc, out.getvalue()


def check_default_seed(cli) -> list:
    errors = []
    for w in workloads.WORKLOADS:
        for op in workloads.generate(w, DEFAULT_SEED):
            rc, out = _run_op(cli, op)
            problems = gate.check_op(op, rc, out)
            if problems:
                errors.append(f"{w} op {op.op_id} {op.poly!r} p={op.p}: {problems}")
            elif op.command == "compute":
                errors.extend(_perturbed_compute_passes(w, op, out))
    return errors


def _perturbed_compute_passes(w, op, out) -> list:
    from igusa_zeta.ratfun import RatFun

    doc = json.loads(out)
    doc["zeta"] = gate.perturb(RatFun.from_json(doc["zeta"], op.p), op.n).to_json()
    if not gate.check_op(op, 0, json.dumps(doc)):
        return [f"{w} op {op.op_id} {op.poly!r}: perturbed Z passed the gate"]
    return []


def check_perturbed_engine(cli) -> list:
    errors = []
    undo = gate.install_negative_control()
    try:
        for op in workloads.generate("check", DEFAULT_SEED):
            rc, out = _run_op(cli, op)
            if not gate.check_op(op, rc, out):
                errors.append(f"check op {op.op_id} {op.poly!r}: perturbed engine passed")
    finally:
        undo()
    return errors


def check_every_input(cli, workload_names) -> list:
    errors = []
    for w in workload_names:
        for t in workloads.WORKLOADS[w]:
            if t.command != "compute" or not (t.fixed_tails or t.tail_choices != ((),)):
                continue
            for op in workloads.every_input(t):
                rc, _ = _run_op(cli, op)
                if rc != 0:
                    errors.append(f"{w} {op.poly!r} p={op.p} char={op.char}: exit code {rc}")
    return errors


def main(argv=None) -> int:
    every_input = "--every-input" in (sys.argv[1:] if argv is None else argv)
    cli = run._import_program()
    steps = [
        ("validity rules", check_rules),
        ("default seed passes the gate", lambda: check_default_seed(cli)),
        ("perturbed engine fails check ops", lambda: check_perturbed_engine(cli)),
    ]
    if every_input:
        steps.append(("every input with a tail computes",
                      lambda: check_every_input(cli, workloads.WORKLOADS)))
    for label, step in steps:
        errors = step()
        for e in errors:
            print(f"  {e}")
        print(f"{'PASS' if not errors else 'FAIL'}  {label}", flush=True)
        if errors:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
