import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from igusa_zeta import DenomFactor, LocalRing, RatFun, cli, two_term_closed_form
from igusa_zeta.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_line(capsys):
    code, out, _ = run(capsys, "compute", "x", "--prime", "3")
    assert code == 0
    assert "(2/3) / (1 - 3^-1*t)" in out
    assert "N_j" in out and "[1, 1, 1, 1, 1]" in out


def test_compute_cusp_poles(capsys):
    code, out, _ = run(capsys, "compute", "x^2+y^3", "--prime", "5")
    assert code == 0
    assert "alpha = (3, 2), d = 6" in out
    assert "-1, -5/6" in out


def test_compute_json_roundtrip(capsys):
    code, out, _ = run(capsys, "compute", "x^2+y^3", "--prime", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    Z = RatFun.from_json(doc["zeta"], 5)
    assert [(f.a, f.b) for f in Z.denom] == [(1, 1), (5, 6)]
    assert doc["N"][:2] == [1, 5]
    assert doc["report"]["k0"] == 0
    # re-serializing the parsed value reproduces the document exactly
    assert Z.to_json() == doc["zeta"]


def test_compute_latex(capsys):
    code, out, _ = run(capsys, "compute", "x", "--prime", "3", "--format", "latex")
    assert code == 0 and "\\frac" in out
    # t, not t^{1}, in the denominator as in the numerator
    code, out, _ = run(capsys, "compute", "x^2+y^3", "--prime", "5", "--format", "latex")
    assert code == 0
    assert out == (
        "Z(f,s) = \\frac{\\tfrac{4}{5} - \\tfrac{4}{125}t + \\tfrac{4}{125}t^{2}"
        " - \\tfrac{4}{15625}t^{5}}"
        "{\\left(1 - 5^{-1} t\\right)\\left(1 - 5^{-5} t^{6}\\right)}\n"
    )


def test_compute_constant_term_routes_to_spf(capsys):
    code, out, _ = run(capsys, "compute", "x^2+5", "--prime", "5")
    assert code == 0
    assert "4/5 + 1/5*t" in out


def test_compute_weight_hint(capsys):
    code, out, _ = run(capsys, "compute", "x^2+y^3+x*y", "--prime", "5",
                       "--weights", "2,1:3")
    assert code == 0
    assert "alpha = (2, 1), d = 3" in out


@pytest.mark.parametrize("text, weights, k0", [
    ("x*y", ([1, 1], 2), 0),
    ("x*y+z^2", ([1, 1, 1], 2), 0),
    ("x^2+y*z", ([1, 1, 1], 2), 0),
    ("x*y+z*w", ([1, 1, 1, 1], 2), 0),
    ("x*y+x^3+y^3", ([1, 1], 2), 1),
    ("x*y+z^3", ([1, 2, 1], 3), 0),
])
def test_weights_off_compact_facets(capsys, text, weights, k0):
    # the weight-d part is a vertex or an edge of the Newton polyhedron, not
    # a compact facet with a positive normal; these are today's (alpha, d),
    # and x*y+z^3 is an edge whose alpha is not all ones
    code, out, _ = run(capsys, "compute", text, "--prime", "5", "--format", "json")
    assert code == 0
    report = json.loads(out)["report"]
    assert ((report["weights"], report["d"]), report["k0"]) == (weights, k0)
    code, out, _ = run(capsys, "check", text, "--prime", "5", "--levels", "2")
    assert code == 0 and "FAIL" not in out


def test_consecutive_calls_share_no_options(capsys):
    # the parser is built once per process; a hint must not carry over
    code, out, _ = run(capsys, "compute", "x^2+y^3+x*y", "--prime", "5", "--weights", "2,1:3")
    assert code == 0 and "alpha = (2, 1), d = 3" in out
    code, out, _ = run(capsys, "compute", "x^2+y^3+x*y", "--prime", "5")
    assert code == 0 and "alpha = (1, 1), d = 2" in out


def test_compute_does_not_load_numpy():
    # numpy is needed only to count congruence solutions; dataclasses (which
    # pulls in inspect, ast and dis) would double the import of the CLI.
    # The modules the import adds are compared against a snapshot taken
    # before it, so whatever site preloads does not count.
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import igusa_zeta.cli\n"
        "added = set(sys.modules) - before\n"
        "assert igusa_zeta.cli.main(['compute', 'x^2+y^3', '--prime', '5']) == 0\n"
        "print(sorted(added & {'dataclasses', 'inspect', 'numpy'}))\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.splitlines()[-2:] == ["[]", "False"]


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "compute", "x^^2", "--prime", "5")
    assert code == 2 and "position" in err


@pytest.mark.parametrize("text", ["x²+y³", "x^٢+y^3"], ids=["superscript", "arabic-indic"])
def test_exit_code_non_ascii_digits(capsys, text):
    code, out, err = run(capsys, "compute", text, "--prime", "5")
    assert code == 2 and out == ""
    assert err.startswith("error: unexpected character") and "(at position " in err


def test_exit_code_uniformizer_char0(capsys):
    code, _, _ = run(capsys, "compute", "u*x", "--prime", "5")
    assert code == 2


def test_exit_code_invalid_hint(capsys):
    code, _, _ = run(capsys, "compute", "x^2+y^3+x*y", "--prime", "5",
                     "--weights", "3,2:6")
    assert code == 3


def test_exit_code_hint_of_wrong_length(capsys):
    code, out, err = run(capsys, "compute", "x^2+y^3", "--prime", "5", "--weights", "3,2,1:6")
    assert code == 3 and out == ""
    assert err == "error: weight hint has 3 weights for 2 variables\n"


def test_exit_code_budget_in_the_weight_search(capsys):
    # x1*x61 has 61 variables: the 2^61 candidate weight vectors are charged
    # to the budget before any is built
    code, out, err = run(capsys, "compute", "x1*x61", "--prime", "3")
    assert code == 6 and out == ""
    assert "budget" in err and "weight search" in err


def test_leading_minus_goes_after_the_options(capsys):
    # argparse reads "-x^2+y^3" as an option unless it comes last, after --
    code, out, _ = run(capsys, "compute", "--prime", "5", "--format", "json", "--", "-x^2+y^3")
    assert code == 0
    assert (code, out) == run(capsys, "compute", "y^3-x^2", "--prime", "5", "--format", "json")[:2]


def test_exit_code_depth(capsys):
    code, _, _ = run(capsys, "compute", "x^2*y", "--prime", "3", "--max-depth", "10")
    assert code == 4
    # a line of singular points: the default cap fires as well
    code, _, _ = run(capsys, "compute", "x^2*y", "--prime", "3")
    assert code == 4
    # a cap past the interpreter's recursion limit still ends in the cap
    code, _, err = run(capsys, "compute", "x^2*y", "--prime", "3", "--max-depth", "1200")
    assert code == 4 and "dilatation depth exceeded 1200" in err


@pytest.mark.parametrize("poly, prime", [
    ("x^2+y^131", "3"), ("x^131+y^2", "3"), ("x^3+y^100", "7"),
])
def test_deep_two_term_curves_pass_check_at_the_default_depth(capsys, poly, prime):
    # exponents past the default depth cap of 64; every cell tree stays shallow
    code, _, _ = run(capsys, "compute", poly, "--prime", prime)
    assert code == 0
    code, out, _ = run(capsys, "check", poly, "--prime", prime, "--levels", "2")
    assert code == 0
    assert "PASS  engine == closed form" in out and "FAIL" not in out


def test_stabilization_past_32_iterates(capsys):
    # the tail 3^70 y^3 needs 36 scaling steps before the complements
    # settle, and the reuse lemma covers the iterates from k* = 36 on: the
    # limit and 36 iterates, 5 cells each
    poly = f"x^2+{3**70}*y^3+x*y^2"
    code, out, _ = run(capsys, "compute", poly, "--prime", "3", "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["report"]["k0"] == 36
    assert doc["report"]["tree_stats"]["spf_calls"] == 185
    digest = "8ef7c2c57765210bf1dfacbd1c22efd643e66bda9873d4ce9a5068163f50d356"
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    # every field but tree_stats is the one the 64-iterate cap gave
    del doc["report"]["tree_stats"]
    digest = "a355b37048c7d847f5c8967b636583f5d48ed27973c965de0d177e0d2341c41a"
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == digest
    code, out, _ = run(capsys, "check", poly, "--prime", "3", "--levels", "6")
    assert code == 0
    assert out.splitlines()[:2] == [
        "PASS  poincare counts == oracle counts", "PASS  series expansion == valuation fibers",
    ]


def test_heavy_tailed_surface(capsys):
    # x^2+y^3+z^5 with the tail xyz under (15, 10, 6):30: every limit cell is
    # reused from the first scaling step on, so the limit and iterate 0 are
    # the only engine calls, 31 cells each
    argv = ("x^2+y^3+z^5+x*y*z", "--prime", "5", "--weights", "15,10,6:30")
    code, out, _ = run(capsys, "compute", *argv, "--format", "json")
    assert code == 0
    stats = json.loads(out)["report"]["tree_stats"]
    assert (stats["nodes"], stats["spf_calls"]) == (328, 62)
    code, out, _ = run(capsys, "check", *argv, "--levels", "2")
    assert code == 0
    assert out.splitlines()[:2] == [
        "PASS  poincare counts == oracle counts", "PASS  series expansion == valuation fibers",
    ]


@pytest.mark.parametrize("argv", [
    ("x^3+y^100", "--prime", "7"),
    ("x^2+y^101", "--prime", "3", "--weights", "101,2:202"),
])
def test_deep_degree_check_passes(capsys, argv):
    # numerators of degree about 300 with factors (p^a - t^b), a in the hundreds
    code, out, _ = run(capsys, "check", *argv, "--levels", "3")
    assert code == 0
    assert [line.split("  ")[0] for line in out.splitlines()[:3]] == ["PASS"] * 3
    assert "PASS  engine == closed form" in out


def test_exit_code_budget(capsys):
    code, _, _ = run(capsys, "oracle", "x^2+y^3", "--prime", "7",
                     "--levels", "6", "--budget", "1000")
    assert code == 6


def test_exit_code_budget_before_allocating(capsys):
    # 100003^2 level-1 candidates: refused before the F_p^n grid is built
    code, _, err = run(capsys, "oracle", "x^2+y^3", "--prime", "100003", "--levels", "1")
    assert code == 6 and "budget" in err
    code, out, _ = run(capsys, "oracle", "x^2+y^3", "--prime", "100003", "--levels", "0")
    assert code == 0 and out.splitlines() == ["N_0 = 1"]


def test_oracle_default_budget_agrees_with_engine(capsys):
    # 7^12 points at the last level, but only N_5 * 7^2 lifting candidates
    code, out, _ = run(capsys, "oracle", "x^2+y^3", "--prime", "7",
                       "--levels", "6", "--format", "json")
    assert code == 0
    expected = [1, 7, 91, 637, 4459, 31213, 924385]
    assert json.loads(out)["N"] == expected
    code, out, _ = run(capsys, "compute", "x^2+y^3", "--prime", "7",
                       "--expand", "6", "--format", "json")
    assert code == 0 and json.loads(out)["N"] == expected


def test_oracle_text_and_json(capsys):
    code, out, _ = run(capsys, "oracle", "x^2+y^3", "--prime", "5", "--levels", "2")
    assert code == 0 and out.splitlines() == ["N_0 = 1", "N_1 = 5", "N_2 = 45"]
    code, out, _ = run(capsys, "oracle", "x^2+y^3", "--prime", "5",
                       "--levels", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"N": [1, 5, 45], "n": 2, "p": 5}


@pytest.mark.parametrize("argv", [
    ["check", "--format", "json"],
    ["oracle", "--max-depth", "3"],
    ["oracle", "--format", "latex"],
], ids=["check-format", "oracle-max-depth", "oracle-latex"])
def test_options_a_command_does_not_read_are_rejected(argv):
    # argparse reports usage errors with exit status 2
    with pytest.raises(SystemExit) as exit_:
        main([argv[0], "x^2+y^3", "--prime", "5", *argv[1:]])
    assert exit_.value.code == 2


def test_check_passes(capsys):
    code, out, _ = run(capsys, "check", "x^2+y^3", "--prime", "5", "--levels", "3")
    assert code == 0
    assert "PASS  engine == closed form" in out
    assert "FAIL" not in out


def test_check_covers_general_inputs(capsys):
    code, out, _ = run(capsys, "check", "x^2+y^3+x*y^2", "--prime", "5", "--levels", "3")
    assert code == 0
    assert "closed form" not in out  # shape does not apply


def test_check_charp(capsys):
    code, out, _ = run(capsys, "check", "x^2+u*y^3", "--prime", "5",
                       "--char", "p", "--levels", "3")
    assert code == 0 and "FAIL" not in out


@pytest.mark.parametrize("poly", ["x^2+5", "x^2+y^3+1"])
def test_check_constant_term(capsys, poly):
    # a constant term sends check through the one-region engine
    code, out, _ = run(capsys, "check", poly, "--prime", "5", "--levels", "2")
    assert code == 0
    verdicts = out.splitlines()[:-1]
    assert verdicts and all(line.startswith("PASS") for line in verdicts)


@pytest.mark.parametrize("command", ["check", "oracle"])
def test_negative_levels_rejected(capsys, command):
    code, out, err = run(capsys, command, "x^2+y^3", "--prime", "5", "--levels", "-2")
    assert code == 1
    assert out == ""
    assert err == "error: levels must be >= 0\n"


def test_negative_expand_rejected(capsys):
    code, out, err = run(capsys, "compute", "x^2+y^3", "--prime", "5", "--expand", "-1")
    assert code == 1
    assert out == ""
    assert err == "error: expand must be >= 0\n"


@pytest.mark.parametrize("budget", ["0", "-5"])
@pytest.mark.parametrize("command", ["compute", "check", "oracle"])
def test_budget_below_one_rejected(capsys, command, budget):
    code, out, err = run(capsys, command, "x^2+y^3", "--prime", "5", "--budget", budget)
    assert code == 1
    assert out == ""
    assert err == "error: budget must be >= 1\n"


def cusp_zeta(p):
    """(1-q^-1)(1 - q^-2 t + q^-2 t^2 - q^-5 t^5) / ((1 - q^-1 t)(1 - q^-5 t^6)) for x^2+y^3."""
    q = Fraction(1, p)
    num = [(1 - q) * c for c in (1, -q**2, q**2, 0, 0, -q**5)]
    return RatFun(p, num, [DenomFactor(1, 1), DenomFactor(5, 6)])


@pytest.mark.parametrize("p", [5, 7, 11])
def test_cusp_formula_matches_closed_form(p):
    ring = LocalRing(p)
    assert cusp_zeta(p) == two_term_closed_form(ring, 2, 3, ring.one(), ring.one())


def test_cusp_at_large_prime(capsys):
    # 10007^2 points at the root; the parts x^2 and y^3 take 2 * 10007
    code, out, _ = run(capsys, "compute", "x^2+y^3", "--prime", "10007", "--format", "json")
    assert code == 0
    assert RatFun.from_json(json.loads(out)["zeta"], 10007) == cusp_zeta(10007)


def run_measured(*argv):
    """Exit code, stdout and peak RSS in MB of one CLI run in a fresh interpreter."""
    script = (
        "import resource, sys, igusa_zeta.cli\n"
        "code = igusa_zeta.cli.main(sys.argv[1:])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env
    )
    return done.returncode, done.stdout, int(done.stderr.split()[-1]) / 1024


def test_separated_reduction_in_bounded_memory(capsys):
    # 53^4 = 7.9 million residue points at the root, 4 * 53 on the parts
    code, _, peak_mb = run_measured("compute", "x^2+y^2+z^2+w^3", "--prime", "53")
    assert code == 0
    assert peak_mb < 100
    code, out, _ = run(capsys, "check", "x^2+y^2+z^2+w^3", "--prime", "53", "--levels", "1")
    assert code == 0 and "FAIL" not in out


@pytest.mark.parametrize("char", ["0", "p"])
def test_level_one_count_in_bounded_memory(char):
    # 53^4 = 7.9 million lifting candidates at level 1, taken in slices of the
    # grid (157 MB in one int64 broadcast before)
    code, out, peak_mb = run_measured(
        "check", "x^2+y^2+z^2+w^3", "--prime", "53", "--char", char, "--levels", "1"
    )
    assert code == 0 and "checked N up to j=1: [1, 148877]" in out
    assert peak_mb < 100


@pytest.mark.parametrize("argv", [
    ["x^2+y^2+z^2+w^3", "--prime", "101"],
    ["x1^2+x2^2+x3^2+x4^2+x5^2+x6^3", "--prime", "11"],
])
def test_separated_reductions_within_default_budget(capsys, argv):
    code, out, _ = run(capsys, "compute", *argv)
    assert code == 0 and "Z  " in out


def test_trace_export(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    code, _, _ = run(capsys, "compute", "x^2+5", "--prime", "5", "--trace", str(trace))
    assert code == 0
    doc = json.loads(trace.read_text())
    assert doc["tree"]["depth"] == 0
    assert doc["tree"]["children"][0]["e"] == 1
    assert doc["stats"]["nodes"] >= 2


@pytest.mark.parametrize("target", ["directory", "missing-directory"])
def test_trace_file_that_cannot_be_written(tmp_path, capsys, target):
    trace = tmp_path if target == "directory" else tmp_path / "missing" / "trace.json"
    code, out, err = run(capsys, "compute", "x^2+y^3", "--prime", "5", "--trace", str(trace))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and str(trace) in err


@pytest.mark.parametrize("poly, prime, digest", [
    pytest.param("x^2+y^3+x*y^2", "7",
                 "5854c33d273b55b2a7858f4e3cf69b94598425fe016a0b5940535de7e107bfe0",
                 id="x^2+y^3+x*y^2"),
    pytest.param("x^2+y^2+z^4+z^5", "5",
                 "27f9398e5cfd695ec52a4c04bbcacec1d26f47b79d4329a1564b585fc2b9fb5d",
                 id="x^2+y^2+z^4+z^5"),
])
def test_trace_export_with_iterates(tmp_path, capsys, poly, prime, digest):
    # the iterates reuse the limit's trees; the export must stay byte for
    # byte the one with the trees the engine builds for every cell
    trace = tmp_path / "trace.json"
    code, _, _ = run(capsys, "compute", poly, "--prime", prime, "--trace", str(trace))
    assert code == 0
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == digest


def test_trace_export_deeper_than_recursion_limit(tmp_path, capsys):
    # x^2 + 3^2400 descends 1200 levels, past the interpreter's recursion
    # limit; the tree is written without recursing (json.loads of it would not be)
    trace = tmp_path / "trace.json"
    code, out, _ = run(capsys, "compute", f"x^2+{3**2400}", "--prime", "3",
                       "--max-depth", "1300", "--trace", str(trace))
    assert code == 0 and "Z" in out
    text = trace.read_text()
    start = text.index('"stats": ') + len('"stats": ')
    stats = json.loads(text[start : text.index("}", start) + 1])
    assert stats["max_depth"] > sys.getrecursionlimit()
    assert text.count('"E_accum": ') == stats["nodes"]


def test_trace_export_semiquasihomogeneous(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    code, _, _ = run(capsys, "compute", "x^2+y^3", "--prime", "5", "--trace", str(trace))
    assert code == 0
    doc = json.loads(trace.read_text())
    stats = doc["tree_stats"]
    # one tree per engine call, i.e. per complement cell
    assert len(doc["trees"]) == stats["spf_calls"] == 5

    def walk(node):
        yield node
        for child in node["children"]:
            yield from walk(child)

    nodes = [node for tree in doc["trees"] for node in walk(tree)]
    assert len(nodes) == stats["nodes"]
    # box children (scaling 0 off the box coordinates) keep their region
    boxes = [node for node in nodes if node["m"] is not None and 0 in node["m"]]
    assert {node["region"] for node in boxes} == {"unitsx*"}


GOLDEN_COMPUTE_JSON = [
    # a tailed curve: the driver runs iterates until the complements stabilize
    (["x^2+y^3+x*y^2", "--prime", "7"],
     '{"N": [1, 6, 84, 588, 4116], "char": "0", "poincare": {"denom": [{"a": 1, "b": 1}, '
     '{"a": 5, "b": 6}], "num": [[1, 1], [-1, 49], [6, 343], [0, 1], [0, 1], [0, 1], '
     '[-1, 117649], [1, 823543]]}, "pole_real_parts": [[-1, 1], [-5, 6]], '
     '"poly": "x*y^2 + y^3 + x^2", "prime": 7, "report": {"content_shift": 0, "d": 6, '
     '"k0": 1, "pole_real_parts": [[-1, 1], [-5, 6]], "tree_stats": {"cache_hits": 0, '
     '"max_depth": 2, "nodes": 16, "spf_calls": 10}, "weights": [3, 2], "zeta": '
     '{"denom": [{"a": 1, "b": 1}, {"a": 5, "b": 6}], "num": [[43, 49], [-13, 343], '
     '[6, 343], [0, 1], [0, 1], [-6, 117649], [-1, 823543], [1, 823543]]}}, "zeta": '
     '{"denom": [{"a": 1, "b": 1}, {"a": 5, "b": 6}], "num": [[43, 49], [-13, 343], '
     '[6, 343], [0, 1], [0, 1], [-6, 117649], [-1, 823543], [1, 823543]]}}'),
    # a tailed surface
    (["x^2+y^2+z^4+z^5", "--prime", "5"],
     '{"N": [1, 30, 850, 23750, 656250], "char": "0", "poincare": {"denom": '
     '[{"a": 1, "b": 1}, {"a": 5, "b": 4}], "num": [[1, 1], [1, 25], [4, 625], '
     '[4, 3125], [-1, 15625], [-1, 78125]]}, "pole_real_parts": [[-5, 4], [-1, 1]], '
     '"poly": "z^5 + z^4 + x^2 + y^2", "prime": 5, "report": {"content_shift": 0, '
     '"d": 4, "k0": 1, "pole_real_parts": [[-5, 4], [-1, 1]], "tree_stats": '
     '{"cache_hits": 0, "max_depth": 1, "nodes": 14, "spf_calls": 10}, "weights": '
     '[2, 2, 1], "zeta": {"denom": [{"a": 1, "b": 1}, {"a": 5, "b": 4}], "num": '
     '[[19, 25], [21, 625], [16, 3125], [16, 15625], [1, 78125], [-1, 78125]]}}, '
     '"zeta": {"denom": [{"a": 1, "b": 1}, {"a": 5, "b": 4}], "num": [[19, 25], '
     '[21, 625], [16, 3125], [16, 15625], [1, 78125], [-1, 78125]]}}'),
    # over F_5((u))
    (["x^2+y^2+u*z^4", "--prime", "5", "--char", "p"],
     '{"N": [1, 45, 1125, 30625, 828125], "char": "p", "poincare": {"denom": '
     '[{"a": 1, "b": 1}, {"a": 5, "b": 4}], "num": [[1, 1], [4, 25], [0, 1], '
     '[4, 3125], [-1, 15625]]}, "pole_real_parts": [[-5, 4], [-1, 1]], "poly": '
     '"u*z^4 + x^2 + y^2", "prime": 5, "report": {"content_shift": 0, "d": 4, '
     '"k0": 0, "pole_real_parts": [[-5, 4], [-1, 1]], "tree_stats": {"cache_hits": 0, '
     '"max_depth": 2, "nodes": 8, "spf_calls": 5}, "weights": [2, 2, 1], "zeta": '
     '{"denom": [{"a": 1, "b": 1}, {"a": 5, "b": 4}], "num": [[16, 25], [4, 25], '
     '[-4, 3125], [16, 15625]]}}, "zeta": {"denom": [{"a": 1, "b": 1}, {"a": 5, "b": 4}], '
     '"num": [[16, 25], [4, 25], [-4, 3125], [16, 15625]]}}'),
    # a constant term: the one-region engine path, whose smooth-zero term cancels
    # against the constant to (4/5) / (1 - t/5)
    (["1+x^2+y^3", "--prime", "5"],
     '{"N": [1, 5, 25, 125, 625], "char": "0", "poincare": {"denom": [{"a": 1, "b": 1}], '
     '"num": [[1, 1]]}, "pole_real_parts": [[-1, 1]], "poly": "y^3 + x^2 + 1", '
     '"prime": 5, "zeta": {"denom": [{"a": 1, "b": 1}], "num": [[4, 5]]}}'),
]


@pytest.mark.parametrize("argv, expected", GOLDEN_COMPUTE_JSON)
def test_compute_json_golden(capsys, argv, expected):
    # the exact canonical form, not just an equal rational function
    code, out, err = run(capsys, "compute", *argv, "--format", "json")
    assert code == 0 and err == ""
    assert out == expected + "\n"


def test_tracer_contract(capsys):
    # zetabench's tracer wraps engine names and reads tree_stats keys; every
    # per-layer metric of BENCHMARK.json but the one run.py computes must come out
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "zetabench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"] for m in bench["per_layer"]} - {"trace_overhead_frac"}
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        tracer.begin_pass()
        # looked up after install, so the call goes through the wrapped main
        assert cli.main(["compute", "x^2+y^3", "--prime", "5", "--format", "json"]) == 0
        assert cli.main(["check", "x^2+y^3", "--prime", "5", "--levels", "2"]) == 0
        metrics = tracer.end_pass()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert expected <= set(metrics), sorted(expected - set(metrics))
    json.dumps(metrics, allow_nan=False)
