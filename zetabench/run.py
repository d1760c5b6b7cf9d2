"""End-to-end benchmark of the igusa-zeta command line.

    python3 zetabench/run.py --workload curves --seed 1 --seconds 25 --trace 0

Runs the seeded op list of one workload (see workloads.py) through
``igusa_zeta.cli.main(argv)`` in this process, one op after another on one
thread, with stdout captured, and repeats the whole list until --seconds
have passed.  A calibration round (calib.py) is timed before and after
every op, and times are reported in reference seconds, which the host's
speed drift hardly moves.  Every op is then checked outside the timed
region (gate.py).  The last line of stdout is one JSON object: with --trace 0 it
holds the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer metrics, taken from passes run under the span tracer
(tracer.py) that alternate with untraced passes.  Per-op rows, the
environment and, for traced runs, every recorded span go to
zetabench/results/.  The exit code is 0 only when every op passed the gate.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import gate  # noqa: E402
import workloads  # noqa: E402

CACHE_ENV = "IGUSA_ZETA_CACHE_DIR"
MIN_PASSES = 3          # untraced passes per run, even past --seconds
SETUP_SAMPLES = 7       # fresh-interpreter imports timed per run (after one warm-up)
SETUP_ROUNDS = 3        # calibration rounds right after each timed import
TAIL_BEYOND = 10        # op_s.ptail leaves at least this many samples above it

# The calibration module is imported only after the timed import, so that
# the modules it loads (fractions) are not taken out of the program's import.
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import igusa_zeta.cli\n"
    "dt = time.perf_counter() - t\n"
    "assert igusa_zeta.cli.__file__.startswith(sys.argv[1]), igusa_zeta.cli.__file__\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import calib\n"
    "rounds = sorted(calib.calibration_round() for _ in range(int(sys.argv[3])))\n"
    "print(repr(dt), repr(rounds[len(rounds) // 2]))\n"
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true",
                        help="perturb every Z the engine returns; the run must then fail")
    return parser.parse_args(argv)


def _import_program():
    """Import igusa_zeta from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import igusa_zeta.cli

    if Path(igusa_zeta.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"igusa_zeta imported from {igusa_zeta.cli.__file__}, not {SRC}")
    return igusa_zeta.cli


def _setup_seconds() -> list:
    """`import igusa_zeta.cli` in fresh interpreters (first one discarded).

    Returns (import seconds, median calibration round right after it) pairs.
    """
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC), str(HERE), str(SETUP_ROUNDS)],
            capture_output=True, text=True, timeout=60, cwd=ROOT,
        )
        if done.returncode != 0:
            raise RuntimeError(f"import probe failed: {done.stderr.strip()}")
        seconds, round_s = done.stdout.split()
        samples.append((float(seconds), float(round_s)))
    return samples[1:]


def _run_pass(cli, ops, tracer=None):
    """One sequential pass; returns (wall seconds, [(rc, stdout, op seconds, round seconds)]).

    A calibration round runs before the first op and after every op; round
    seconds is the mean round around the op (calib.local_round).
    """
    runs, mids, rounds = [], [], []

    def calibrate():
        t = perf_counter()
        rounds.append(calib.calibration_round())
        mids.append(t + rounds[-1] / 2)

    t_pass = perf_counter()
    calibrate()
    for op in ops:
        argv = op.argv()
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op_id = op.op_id
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = cli.main(argv)
            except Exception as exc:  # a crash is a failed op, like exit code 1
                rc = 1
                print(f"uncaught {exc!r}", file=err)
            t1 = perf_counter()
        calibrate()
        runs.append((rc, out.getvalue(), t0, t1))
    wall = perf_counter() - t_pass
    return wall, [(rc, out, t1 - t0, calib.local_round(mids, rounds, i, t0, t1))
                  for i, (rc, out, t0, t1) in enumerate(runs)]


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 1])."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if os.environ.get(CACHE_ENV):
        print(f"refusing to run: {CACHE_ENV} is set, so repeats would time a disk read",
              file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cli = _import_program()
    except (OSError, ValueError, ImportError) as exc:
        print(f"cannot load the program: {exc!r}", file=sys.stderr)
        return 2
    ops = workloads.generate(args.workload, args.seed)
    env = _environment()
    setup = _setup_seconds()
    if args.negative_control:
        gate.install_negative_control()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

    # -- timed region: whole passes until --seconds are used up -----------------
    passes = []          # (traced, wall, results)
    layer_passes = []    # per-layer metrics of each traced pass
    t_start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
            tracer.begin_pass()
        wall, results = _run_pass(cli, ops, tracer if traced else None)
        if traced:
            round_s = statistics.median(r[3] for r in results)
            layer_passes.append(_to_reference(tracer.end_pass(), round_s))
            tracer.uninstall()
        passes.append((traced, wall, results))
        elapsed = perf_counter() - t_start
        # A traced run stops only after an untraced-traced pair, so it asks
        # whether another pair fits.
        step = 2 if tracer is not None else 1
        if len(passes) >= (2 if tracer is not None else MIN_PASSES) and \
                len(passes) % step == 0 and elapsed + step * elapsed / len(passes) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- correctness gate, outside the timed region -----------------------------
    rows = []
    attempted = failed = 0
    for op in ops:
        first_rc, first_out = passes[0][2][op.op_id][:2]
        problems = gate.check_op(op, first_rc, first_out)
        key = gate.result_key(op, first_out)
        op_failed = 0
        for _, _, results in passes:
            rc, out = results[op.op_id][:2]
            attempted += 1
            if problems or rc != 0 or gate.result_key(op, out) != key:
                op_failed += 1
        if op_failed and not problems:
            problems = ["result differs between repeats"]
        failed += op_failed
        untraced = [r[op.op_id][2:] for t, _, r in passes if not t]
        rows.append({
            "op": op.op_id, "template": op.template, "command": op.command, "poly": op.poly,
            "p": op.p, "char": op.char, "n": op.n, "levels": op.levels, "exit": first_rc,
            "op_s": _reference_median(untraced),
            "op_s_raw_best": min(dt for dt, _ in untraced),
            "op_s_samples": [dt for dt, _ in untraced],
            "round_s_samples": [round_s for _, round_s in untraced],
            "nodes": _nodes(op, first_out), "problems": problems,
        })

    # An op's latency is the median of its repeats in reference seconds, and
    # wall_s is the sum of those: one pass at reference speed.
    latencies = sorted(r["op_s"] for r in rows)
    # ptail: the highest percentile with TAIL_BEYOND ops beyond it, fixed by
    # the op count and so the same whatever the number of passes.
    tail_q = 1.0 - TAIL_BEYOND / len(ops)
    computed = {
        "wall_s": sum(latencies),
        "op_s.p50": statistics.median(latencies),
        "op_s.ptail": _percentile(latencies, tail_q),
        "fail_frac": failed / attempted,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": _reference_median(setup),
    }
    notes = {
        "passes": len(passes), "ops_per_pass": len(ops),
        "repeats_per_op": sum(1 for traced, _, _ in passes if not traced),
        "ptail_percentile": round(100 * tail_q, 2),
        "ptail_beyond": sum(1 for s in latencies if s > computed["op_s.ptail"]),
        "pass_walls": [w for _, w, _ in passes],
        "round_s_median": statistics.median(r[3] for _, _, results in passes for r in results),
        "ref_round_s": calib.REF_ROUND_S,
        "setup_samples": setup,
    }
    if tracer is not None:
        computed.update(_layer_summary(layer_passes))
        pass_s = {traced: sum(_reference_median([r[op.op_id][2:] for t, _, r in passes
                                                  if t == traced]) for op in ops)
                  for traced in (False, True)}
        computed["trace_overhead_frac"] = pass_s[True] / pass_s[False] - 1.0
        notes["unsteady_counts"] = _unsteady_counts(layer_passes)

    correct = failed == 0
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {
        m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
        for m in spec[section] if m["name"] in computed
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{stem}.json", "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "negative_control": args.negative_control,
                   "environment": env, "correct": correct, "attempted": attempted,
                   "failed": failed, "metrics": computed, "notes": notes, "rows": rows},
                  handle, indent=1)
    if tracer is not None:
        tracer.write(str(RESULTS / f"{stem}.spans.json.gz"))

    _report(args, env, ops, rows, computed, notes, spec, section)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _nodes(op, output: str):
    if op.command != "compute":
        return None
    try:
        return json.loads(output)["report"]["tree_stats"]["nodes"]
    except (ValueError, KeyError, TypeError):
        return None


def _reference_median(samples) -> float:
    """Median of (seconds, calibration round seconds) samples, in reference seconds."""
    return statistics.median(calib.to_reference(s, round_s) for s, round_s in samples)


def _to_reference(layer_metrics: dict, round_s: float) -> dict:
    """One traced pass's per-layer times in reference seconds (round_s: its median round)."""
    scale = calib.to_reference(1.0, round_s)
    out = dict(layer_metrics)
    for name, value in layer_metrics.items():
        if name.endswith(".self_s"):
            out[name] = value * scale
        elif name.endswith("_per_s"):
            out[name] = value / scale
    return out


def _layer_summary(layer_passes) -> dict:
    """Per-layer metrics present in every traced pass, each the median pass's value."""
    names = set.intersection(*(set(p) for p in layer_passes))
    return {name: statistics.median_low(p[name] for p in layer_passes) for name in sorted(names)}


def _unsteady_counts(layer_passes) -> list:
    """Count metrics that differ between traced passes (they should repeat exactly)."""
    out = []
    for name, value in layer_passes[0].items():
        if isinstance(value, int) and any(p.get(name) != value for p in layer_passes[1:]):
            out.append(name)
    return out


def _report(args, env, ops, rows, computed, notes, spec, section):
    print(f"env nproc={env['nproc']} python={env['python']} numpy={env['numpy']}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{notes['ops_per_pass']} ops/pass, {notes['passes']} passes "
          f"({notes['repeats_per_op']} untraced)")
    bad = [r for r in rows if r["problems"]]
    for r in bad:
        print(f"FAIL op {r['op']} {r['command']} {r['poly']!r} p={r['p']} char={r['char']}: "
              f"{'; '.join(r['problems'])}")
    print(f"fail_frac {computed['fail_frac']:.6g} ratio ({len(bad)} of {len(ops)} ops failing)")
    if not args.trace:
        print(f"op_s.* over {len(ops)} samples, one per op (the median of its "
              f"{notes['repeats_per_op']} repeats); op_s.ptail is p{notes['ptail_percentile']} "
              f"({notes['ptail_beyond']} beyond)")
    print(f"times in reference seconds: one calibration round took "
          f"{1000 * notes['round_s_median']:.3g} ms (median), "
          f"{1000 * notes['ref_round_s']:.3g} ms at reference speed")
    for m in spec[section]:
        if m["name"] in computed:
            print(f"{m['name']} {computed[m['name']]:.6g} {m['unit']}")
        else:
            print(f"{m['name']} absent")


if __name__ == "__main__":
    sys.exit(main())
