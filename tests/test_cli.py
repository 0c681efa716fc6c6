import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

from tlexact import klr, projectors, tableaux
from tlexact.cli import main
from tlexact.coeffs import IntegralityViolationError
from tlexact.diagrams import TLElement


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_jw_human(capsys):
    code, out, _ = run(capsys, "jw", "--n", "1")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "jw", "--n", "2")
    assert code == 0 and out.strip() == "1 - 1/2 u1"


def test_jw_json_schema(capsys):
    code, out, _ = run(capsys, "jw", "--n", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3 and doc["ring"] == "Q"
    e = TLElement.from_json(doc)
    assert e * e == e


def test_pjw_fp(capsys):
    code, out, _ = run(capsys, "pjw", "--n", "3", "--p", "3", "--ring", "Fp")
    assert code == 0 and out.strip() == "1 + u1"


def test_pjw_both(capsys):
    code, out, _ = run(capsys, "pjw", "--n", "5", "--p", "3",
                       "--method", "both")
    assert code == 0
    assert out.splitlines()[0] == "direct == recursive"


def test_pjw_both_large_runs_in_coordinates(capsys):
    code, out, err = run(capsys, "pjw", "--n", "12", "--p", "3",
                         "--method", "both")
    assert code == 0
    assert "direct == recursive" in out
    assert err == ""


def test_pjw_both_compares_operators_only(capsys, monkeypatch):
    # --method both decides recursive = direct in f-basis coordinates at
    # every n, and prints the direct expansion up to n = 9
    code, direct, _ = run(capsys, "pjw", "--n", "8", "--p", "3")
    assert code == 0

    def element_route(*args):
        raise AssertionError("the element route of the recursive construction")
    monkeypatch.setattr(klr, "p_jones_wenzl_recursive", element_route)
    monkeypatch.setattr(klr, "operator_to_element", element_route)
    assert run(capsys, "pjw", "--n", "8", "--p", "3", "--method", "both") \
        == (0, "direct == recursive\n" + direct, "")
    code, out, _ = run(capsys, "pjw", "--n", "8", "--p", "3", "--method",
                       "both", "--json")
    assert code == 0 and out.splitlines()[0] == json.dumps(
        {"check": "pjw-direct-vs-recursive", "n": 8, "p": 3, "pass": True})


def test_pjw_both_reports_a_mismatch(capsys, monkeypatch):
    # the direct operator with one index dropped
    def short(n, p):
        tabs = list(tableaux.index_set(n, p).values())[1:]
        return klr.op_projection(tabs, n, p, "left")
    code, direct, _ = run(capsys, "pjw", "--n", "5", "--p", "3")
    monkeypatch.setattr(klr, "direct_projection_operator", short)
    assert run(capsys, "pjw", "--n", "5", "--p", "3", "--method", "both") \
        == (1, "direct != recursive\n" + direct, "")
    code, out, err = run(capsys, "pjw", "--n", "12", "--p", "3",
                         "--method", "both", "--json")
    assert (code, err) == (1, "") and json.loads(out) == {
        "check": "pjw-direct-vs-recursive", "n": 12, "p": 3, "pass": False}


def test_pjw_past_the_expansion_limit(capsys):
    # --method recursive would print an expansion that is not kept past
    # n = 9: a usage error that names --method both
    code, out, err = run(capsys, "pjw", "--n", "12", "--p", "3",
                         "--method", "recursive")
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "--method both" in err
    # --method direct prints the index set summary
    code, out, err = run(capsys, "pjw", "--n", "12", "--p", "3")
    assert (code, out, err) == (
        0, "sum of seminormal idempotents at indices 4, 6, 10, 12\n", "")
    code, out, _ = run(capsys, "pjw", "--n", "10", "--p", "3", "--json")
    assert code == 0 and json.loads(out) == {
        "n": 10, "p": 3, "summands": [
            {"index": 6, "tableau": [1] * 8 + [2, 2]},
            {"index": 10, "tableau": [1] * 10}]}
    # the expansion is decided by n alone: there is no flag to force it
    code, out, _ = run(capsys, "pjw", "--n", "12", "--p", "3",
                       "--method", "both", "--slow-expand")
    assert (code, out) == (2, "")


def test_idempotent(capsys):
    code, out, _ = run(capsys, "idempotent", "--tableau", "1,1,2")
    assert code == 0
    assert out.strip() == "1/6 u1 + 2/3 u2 - 1/3 u1 u2 - 1/3 u2 u1"


def test_idempotent_integrality_violation(capsys):
    # a lone E'_t need not be p-integral
    for ring in ("Fp", "Zp"):
        code, out, err = run(capsys, "idempotent", "--tableau",
                             "1,1,1,2,1,2,1,2", "--ring", ring, "--p", "3")
        assert code == 1 and out == ""
        assert err.startswith("integrality violation: ")


def test_classes(capsys):
    code, out, _ = run(capsys, "classes", "--n", "3", "--p", "3", "--json")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert {"residues", "members"} <= set(lines[0])
    assert sum(len(entry["members"]) for entry in lines) == 3


def test_classes_text(capsys):
    code, out, _ = run(capsys, "classes", "--n", "4", "--p", "3")
    assert code == 0
    assert out.splitlines() == ["residues 0,2,1,0: 1111  1122",
                                "residues 0,2,1,1: 1112  1121",
                                "residues 0,1,2,1: 1211",
                                "residues 0,1,2,0: 1212"]


def test_collapse_text(capsys):
    # an image with a tag, an image without one, and the empty image
    cases = {
        (12, 3): ["111111111111 -> 111 tag 1", "111111111112 -> 111 tag 2",
                  "111111112221 -> 112 tag 1", "111111112222 -> 112 tag 2",
                  "111112221111 -> 121 tag 1", "111112221112 -> 121 tag 2"],
        (5, 3): ["11111 -> 1"],
        (3, 3): ["111 -> empty tag 1", "112 -> empty tag 2"],
    }
    for (n, p), lines in cases.items():
        code, out, _ = run(capsys, "collapse", "--n", str(n), "--p", str(p))
        assert code == 0 and out.splitlines() == lines, (n, p)


def test_collapse(capsys):
    code, out, _ = run(capsys, "collapse", "--n", "12", "--p", "3", "--json")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 6
    tags = {tuple(e["image"]): e["tag"] for e in lines}
    assert tags[(1, 1, 1)] in (1, 2)


def test_checks(capsys):
    code, out, _ = run(capsys, "klr-check", "--n", "4", "--p", "3", "--json")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert reports and all(r["pass"] for r in reports)
    assert all({"check", "n", "p", "pass"} <= set(r) for r in reports)
    code, out, _ = run(capsys, "diamond-check", "--n", "8", "--p", "3")
    assert code == 0
    assert all(line.startswith("PASS") for line in out.splitlines())


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify-all", "--n", "5", "--p", "3")
    assert code == 0
    assert all(line.startswith("PASS") for line in out.splitlines())


def test_verify_all_includes_the_diamond_suite(capsys):
    code, out, _ = run(capsys, "verify-all", "--n", "8", "--p", "3")
    assert code == 0
    klr_checks = ("e-orthogonality", "e-completeness", "e-zero-when-i1-nonzero",
                  "y1-vanishes", "y-commute", "ye-commute", "psi-e-exchange",
                  "psi-y-exchange", "psi-y-distant", "psi-psi-distant",
                  "braid-deviation", "psi-squared")
    diamond_checks = ("diamond-closed-form", "diamond-e-truncation",
                      "diamond-2x2-idempotent", "diamond-TL-relations")
    names = [f"{c} [{side}]" for checks in (klr_checks, diamond_checks)
             for side in ("left", "right") for c in checks]
    names += ["class-idempotent-integrality", "pjw-direct-vs-recursive"]
    assert len(names) == 34
    assert out.splitlines() == [f"PASS {name} (n=8, p=3)" for name in names]


def test_verify_all_that_fits_no_check_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify-all", "--n", "12", "--p", "13")
    assert (code, out) == (2, "")
    assert err.startswith("usage error: no check fits n=12, p=13: ")
    assert err.count("\n") == 1
    # the range of every check, as numbers at this p
    for name, size in (("klr-check", "n <= 10"), ("diamond-check", "n >= 38"),
                       ("class-idempotent-integrality", "n <= 9"),
                       ("pjw-direct-vs-recursive", "n >= 13")):
        assert f"{name} needs {size}" in err


def test_verify_all_runs_the_checks_that_fit_in_order(capsys):
    def class_integrality(n, p):
        return [{"check": "class-idempotent-integrality", "n": n, "p": p,
                 "pass": True}]

    def direct_vs_recursive(n, p):
        return [{"check": "pjw-direct-vs-recursive", "n": n, "p": p,
                 "pass": True}]
    ranges = ((lambda n, p: n <= 10, klr.klr_relations_check),
              (lambda n, p: n >= 3 * p - 1, klr.diamond_formula_check),
              (lambda n, p: n <= 9, class_integrality),
              (lambda n, p: n >= p, direct_vs_recursive))
    for n, p, fitting in ((5, 3, 3), (8, 3, 4), (12, 3, 2), (7, 5, 3)):
        want = [r for fits, check in ranges if fits(n, p) for r in check(n, p)]
        assert sum(fits(n, p) for fits, _ in ranges) == fitting
        code, out, err = run(capsys, "verify-all", "--n", str(n), "--p",
                             str(p), "--json")
        assert code == 0, (n, p)
        assert out.splitlines() == [json.dumps(r) for r in want], (n, p)
        assert err == ("skipping diagram-level integrality at n=12 (> 9)\n"
                       if n > 9 else "")


def test_verify_all_reports_a_class_integrality_violation(capsys, monkeypatch):
    def class_idempotent(cls, p):
        raise IntegralityViolationError(Fraction(1, 3), 3)
    monkeypatch.setattr(projectors, "class_idempotent", class_idempotent)
    code, out, err = run(capsys, "verify-all", "--n", "5", "--p", "3")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[-2] == ("FAIL class-idempotent-integrality (n=5, p=3)  "
                         "coefficient 1/3 is not integral at 3")
    assert all(line.startswith("PASS") for line in lines[:-2] + lines[-1:])
    code, out, _ = run(capsys, "verify-all", "--n", "5", "--p", "3", "--json")
    assert code == 1 and json.loads(out.splitlines()[-2]) == {
        "check": "class-idempotent-integrality", "n": 5, "p": 3,
        "pass": False, "counterexample": "coefficient 1/3 is not integral at 3"}


def test_jw_past_eight_strands_prints_pairing_lists(capsys):
    code, out, err = run(capsys, "jw", "--n", "9")
    assert code == 0 and err == ""
    terms = re.split(r" [+-] ", out.strip())
    assert len(terms) == 4862  # every one of the Catalan(9) diagrams
    assert all(re.fullmatch(r"(\d+(/\d+)? )?(\(\d+ \d+\)){9}", t)
               for t in terms)
    assert terms[0] == "160/7 " + "".join(f"({2 * j} {2 * j + 1})"
                                          for j in range(9))
    # the identity, with coefficient 1, sorts last
    assert terms[-1] == "".join(f"({j} {17 - j})" for j in range(9))
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "f22bcdebd57eda27883d069b165051f92efa65cd9f5e4ac10e961f6d2e52d9cd"


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "jw")
    assert code == 2
    code, _, _ = run(capsys, "jw", "--n", "40")
    assert code == 2
    code, _, _ = run(capsys, "pjw", "--n", "3", "--p", "4")
    assert code == 2
    code, _, _ = run(capsys, "idempotent", "--tableau", "2,1")
    assert code == 2
    code, _, _ = run(capsys, "nonsense")
    assert code == 2
    # a flag the subcommand does not read
    code, _, _ = run(capsys, "jw", "--n", "3", "--tableau", "1,2")
    assert code == 2
    # the exhaustive KLR relation suite stops at n = 10
    code, _, err = run(capsys, "klr-check", "--n", "11", "--p", "3")
    assert code == 2 and "n <= 10" in err
    # n below the least size a command takes
    for argv in (("klr-check", "--n", "0", "--p", "3"),
                 ("verify-all", "--n", "0", "--p", "3"),
                 ("jw", "--n", "-1"),
                 ("klr-check", "--n", "-2", "--p", "3"),
                 ("verify-all", "--n", "-1", "--p", "3"),
                 ("pjw", "--n", "0", "--p", "3"),
                 ("pjw", "--n", "2", "--p", "3", "--method", "both"),
                 ("pjw", "--n", "3", "--p", "5", "--method", "recursive"),
                 # a given --p is checked over Q too
                 ("idempotent", "--tableau", "1,2", "--p", "4"),
                 ("idempotent", "--tableau", "1,2", "--p", "9", "--ring", "Q")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("usage error: ") and err.count("\n") == 1, argv
    for argv, message in (
            (("idempotent",), "--tableau is required for this command"),
            (("idempotent", "--tableau", "1,x"),
             "cannot parse tableau spec '1,x'"),
            (("idempotent", "--tableau", "1,1,2", "--max-n", "2"),
             "tableau size exceeds --max-n=2"),
            (("collapse", "--n", "2", "--p", "3"), "collapse needs n >= p"),
            (("diamond-check", "--n", "7", "--p", "3"),
             "no check fits n=7, p=3: diamond-check needs n >= 8")):
        assert run(capsys, *argv) == (2, "", f"usage error: {message}\n"), argv


# the CLI with diamond i tripled (so that the diamond suite fails with
# Fractions in its counterexamples), or with apply_block_swap planted to
# return None (so that the closed diamond form raises InvariantError)
_PLANTED = """
import sys
from tlexact import cli, klr, tableaux
i = int(sys.argv[1])
if i:
    diamond = klr.diamond
    klr.diamond = lambda j, n, p, side: diamond(j, n, p, side).scale(3 if j == i else 1)
else:
    tableaux.apply_block_swap = lambda t, j, p: None
sys.exit(cli.main(sys.argv[2:]))
"""


def run_planted(plant, *argv):
    """Exit code and stdout of the CLI in a fresh process with the plant of
    _PLANTED (a diamond index, or 0 for the block swap); a traceback fails."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _PLANTED, str(plant), *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc.returncode, proc.stdout


def test_failed_reports_in_json():
    for command in ("diamond-check", "verify-all"):
        code, out = run_planted(1, command, "--n", "8", "--p", "3", "--json")
        assert code == 1
        reports = [json.loads(line) for line in out.splitlines()]
        closed = [r for r in reports if r["check"].startswith("diamond-closed-form")]
        assert len(closed) == 2 and not any(r["pass"] for r in closed)
        # the got and want images of the first failing index, with their
        # coefficients as "a/b" strings
        i, _, got, want = closed[0]["counterexample"]
        assert i == 1 and all(isinstance(c, str) for _, c in got + want)
        assert [[t, Fraction(c)] for t, c in got] \
            == [[t, 3 * Fraction(c)] for t, c in want]


def test_broken_invariant_is_a_failed_report():
    # apply_block_swap returning None breaks the closed diamond form's
    # invariant: the diamond-check row ends in one failed report, exit 1
    code, out = run_planted(0, "diamond-check", "--n", "11", "--p", "3", "--json")
    report = json.loads(out)
    assert code == 1 and report.pop("counterexample").endswith(
        "the block swap disagrees with rho = -2")
    assert report == {"check": "diamond-check", "n": 11, "p": 3, "pass": False}
    code, out = run_planted(0, "diamond-check", "--n", "11", "--p", "3")
    assert code == 1 and out.startswith("FAIL diamond-check (n=11, p=3)  blocks ")
    # diamond 2 tripled at (11,3): the recursive route reads L_3, built from
    # it, and finds it not diagonal; verify-all reports it in the same row
    message = "the small JM operators at n=11, p=3 are not diagonal"
    assert run_planted(2, "pjw", "--n", "11", "--p", "3", "--method", "both") \
        == (1, f"direct != recursive  {message}\n")
    code, out = run_planted(2, "pjw", "--n", "11", "--p", "3", "--method",
                            "both", "--json")
    assert code == 1 and json.loads(out) == {
        "check": "pjw-direct-vs-recursive", "n": 11, "p": 3, "pass": False,
        "counterexample": message}
    code, out = run_planted(2, "verify-all", "--n", "11", "--p", "3")
    assert code == 1 and out.splitlines()[-1] \
        == f"FAIL pjw-direct-vs-recursive (n=11, p=3)  {message}"


def test_klr_check_at_the_cap(capsys):
    code, out, _ = run(capsys, "klr-check", "--n", "10", "--p", "3", "--json")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert len(reports) == 24 and all(r["pass"] for r in reports)


def test_deterministic_output(capsys):
    a = run(capsys, "pjw", "--n", "4", "--p", "3", "--json")
    b = run(capsys, "pjw", "--n", "4", "--p", "3", "--json")
    assert a == b


def test_cache_flag_and_env(tmp_path, capsys, monkeypatch):
    path = tmp_path / "jw-cache.json"
    code, _, _ = run(capsys, "jw", "--n", "4", "--cache", str(path))
    assert code == 0 and path.exists()
    docs = json.loads(path.read_text())
    assert any(doc["n"] == 4 for doc in docs)
    # TL_CACHE overrides --cache: the flag file stays untouched
    snapshot = path.read_text()
    env_path = tmp_path / "env-cache.json"
    monkeypatch.setenv("TL_CACHE", str(env_path))
    code, _, _ = run(capsys, "jw", "--n", "5", "--cache", str(path))
    assert code == 0 and env_path.exists()
    assert path.read_text() == snapshot
    assert any(doc["n"] == 5 for doc in json.loads(env_path.read_text()))


def test_unwritable_cache_is_a_cache_error(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "no-such-dir" / "jw.json")
    for argv in (("jw", "--n", "3"), ("pjw", "--n", "3", "--p", "3"),
                 ("idempotent", "--tableau", "1,1,2")):
        code, _, err = run(capsys, *argv, "--cache", path)
        assert code == 2, argv
        assert err.startswith("cache error: ") and err.count("\n") == 1
        assert "Traceback" not in err
    monkeypatch.setenv("TL_CACHE", path)
    code, _, err = run(capsys, "jw", "--n", "3")
    assert code == 2 and err.startswith("cache error: ")
    assert list(tmp_path.iterdir()) == []


def test_cache_file_is_validated(tmp_path, capsys):
    path = tmp_path / "jw-cache.json"
    code, good, _ = run(capsys, "jw", "--n", "3", "--cache", str(path))
    assert code == 0
    docs = json.loads(path.read_text())
    jw4 = projectors.JWCache().get(4).to_json()

    def edited_coefficient(doc):
        doc["element"]["terms"][0]["coeff"] = "5"  # not the identity

    def wrong_size(doc):
        doc["element"] = jw4

    for edit in (edited_coefficient, wrong_size):
        bad = json.loads(json.dumps(docs))
        edit(next(doc for doc in bad if doc["n"] == 3))
        path.write_text(json.dumps(bad))
        code, out, err = run(capsys, "jw", "--n", "3", "--cache", str(path))
        assert (code, out) == (2, ""), edit.__name__
        assert err.startswith("cache error: ") and err.count("\n") == 1
        assert "n=3" in err
    # the wrong entry was dropped, not kept for the next run in the process
    assert run(capsys, "jw", "--n", "3")[:2] == (0, good)
    # an entry that names no strand count fails at load, not at first use
    no_count = [json.dumps([{"n": 3, "element": {"n": n, "ring": "Q",
                                                "terms": []}}])
                for n in ("3", -1)]
    for text in ("{not json", "[{\"n\": 3}]", "{\"n\": 3}", *no_count):
        path.write_text(text)
        code, out, err = run(capsys, "jw", "--n", "3", "--cache", str(path))
        assert (code, out) == (2, ""), text
        assert err.startswith("cache error: ") and err.count("\n") == 1
        assert "is not a Jones-Wenzl cache file" in err  # at load
        assert path.read_text() == text


def test_cache_coefficient_with_a_zero_denominator(tmp_path, capsys):
    path = tmp_path / "jw-cache.json"
    doc = projectors.JWCache().get(2).to_json()
    doc["terms"][0]["coeff"] = "1/0"
    path.write_text(json.dumps([{"n": 2, "element": doc}]))
    code, out, err = run(capsys, "jw", "--n", "2", "--cache", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("cache error: ") and err.count("\n") == 1
    assert "'1/0'" in err


def test_cache_pairing_that_is_no_diagram(tmp_path, capsys):
    # a crossing matching, and a sequence of 2n + 2 points
    path = tmp_path / "jw-cache.json"
    for pairing in ([2, 3, 0, 1], [0, 1, 2, 3, 4, 5]):
        doc = projectors.JWCache().get(2).to_json()
        doc["terms"][0]["pairing"] = pairing
        path.write_text(json.dumps([{"n": 2, "element": doc}]))
        code, out, err = run(capsys, "jw", "--n", "2", "--cache", str(path))
        assert (code, out) == (2, ""), pairing
        assert err.startswith("cache error: ") and err.count("\n") == 1
        assert f"{pairing} is not a diagram of TL_2" in err


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      os.pardir, "bench", "golden")


def test_golden_cli_transcript(tmp_path, capsysbinary, monkeypatch):
    # the recorded CLI session, in order and sharing one cache file:
    # stdout bytes and exit codes as recorded, and no traceback
    monkeypatch.delenv("TL_CACHE", raising=False)
    cache = str(tmp_path / "jw-cache.json")
    with open(os.path.join(GOLDEN, "cli.json")) as fh:
        entries = json.load(fh)
    for entry in entries:
        argv = [a.replace("{cache}", cache) for a in entry["argv"]]
        code = main(argv)
        out = capsysbinary.readouterr()
        with open(os.path.join(GOLDEN, entry["stdout"]), "rb") as fh:
            assert out.out == fh.read(), argv
        assert code == entry["exit"], argv
        assert b"Traceback" not in out.err, argv
