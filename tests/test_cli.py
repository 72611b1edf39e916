"""End-to-end CLI contract: outputs, determinism, exit codes 0/1/2."""

import argparse
import hashlib
import inspect
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from adjkit import cli
from adjkit.cli import main
from adjkit.factor import (random_alternating, random_unimodular,
                           standard_symplectic)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_n2_det_string(capsys):
    code, out, _ = run(capsys, "gen", "--n", "2")
    assert code == 0
    assert "det(X): x_1_1*x_2_2 - x_1_2*x_2_1" in out


def test_gen_n1_adj(capsys):
    code, out, _ = run(capsys, "gen", "--n", "1")
    assert code == 0
    assert "adj(X): [[1]]" in out


@pytest.mark.parametrize("command", ["gen", "verify"])
def test_above_cap_rejected(capsys, command):
    # refused by PolyRing.generic before anything is built: n = 7 never runs
    code, out, err = run(capsys, command, "--n", "7")
    assert code == 2
    assert out == "" and "cap" in err


def test_gen_json_round_trips(capsys):
    code, out, _ = run(capsys, "gen", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["det"] == "x_1_1*x_2_2 - x_1_2*x_2_1"
    assert payload["adj"]["entries"][0] == ["x_2_2", "-x_1_2"]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_symbolic_n3(capsys):
    code, out, _ = run(capsys, "verify", "--n", "3")
    assert code == 0
    assert "suite: PASS" in out


def test_verify_negative_control_exits_1(capsys):
    code, out, _ = run(capsys, "verify", "--n", "3", "--negative-control")
    assert code == 1
    assert "corrupted_adj_det: FAIL (negative control)" in out


def test_verify_modp_requires_seed(capsys):
    code, _, err = run(capsys, "verify", "--n", "8", "--prime", "31")
    assert code == 2
    assert "--seed" in err


def test_verify_modp_small(capsys):
    code, out, _ = run(capsys, "verify", "--n", "5", "--prime", "31",
                       "--trials", "5", "--seed", "7")
    assert code == 0
    assert "suite: PASS" in out


def test_verify_n1(capsys):
    code, out, _ = run(capsys, "verify", "--n", "1")
    assert code == 0
    assert "suite: PASS" in out
    code, _, err = run(capsys, "verify", "--n", "1", "--prime", "31",
                       "--trials", "5", "--seed", "7")
    assert code == 2
    assert "n >= 2" in err


def test_verify_modp_refuses_runs_without_trials(capsys):
    for trials in ("0", "-5"):
        code, out, err = run(capsys, "verify", "--n", "6", "--prime",
                             "2147483647", "--trials", trials, "--seed", "1",
                             "--negative-control")
        assert code == 2
        assert out == "" and "trial" in err


def test_verify_modp_negative_control_fails_over_gf3(capsys):
    # B is drawn with det(B) = 2, where det^(n-1) * (det - 1) is nonzero, so
    # each trial must fail; at these seeds the first draw has det(B) in
    # {0, 1}, which the corrupted identity satisfies
    for seed in ("1", "2", "6"):
        code, out, _ = run(capsys, "verify", "--n", "3", "--prime", "3",
                           "--trials", "3", "--seed", seed,
                           "--negative-control")
        assert code == 1
        assert "corrupted_adj_det: FAIL (negative control)" in out
        assert "suite: FAIL" in out


def test_verify_modp_refuses_negative_control_over_gf2(capsys):
    # det^(n-1) * (det - 1) vanishes on GF(2): the control cannot fail
    code, out, err = run(capsys, "verify", "--n", "4", "--prime", "2",
                         "--trials", "20", "--seed", "1", "--negative-control")
    assert code == 2
    assert out == "" and "GF(2)" in err
    code, out, _ = run(capsys, "verify", "--n", "4", "--prime", "2",
                       "--trials", "20", "--seed", "1")
    assert code == 0
    assert "suite: PASS" in out


def test_verify_bad_prime(capsys):
    code, _, err = run(capsys, "verify", "--n", "5", "--prime", "32",
                       "--trials", "5", "--seed", "7")
    assert code == 2


def test_verify_takes_a_seed_but_no_bound(capsys):
    # the seed feeds only the mod-p trials: symbolic verify refuses it
    code, out, err = run(capsys, "verify", "--n", "2", "--seed", "3")
    assert code == 2
    assert out == "" and "--prime" in err
    code, out, _ = run(capsys, "verify", "--n", "2", "--prime", "31",
                       "--trials", "2", "--seed", "3")
    assert code == 0 and "suite: PASS" in out
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", "--n", "2", "--bound", "7")
    assert exc.value.code == 2
    assert "--bound" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# factor
# ---------------------------------------------------------------------------

def test_factor_right_n4(capsys):
    code, out, _ = run(capsys, "factor", "--n", "4", "--A", "symplectic",
                       "--side", "right", "--format", "json")
    assert code == 0
    cert = json.loads(out)
    assert cert["d"] == 2
    assert all(cert["checks"].values())


def test_factor_left_n4(capsys):
    code, out, _ = run(capsys, "factor", "--n", "4", "--A", "symplectic",
                       "--side", "left", "--format", "json")
    assert code == 0
    assert json.loads(out)["d"] == 1


def test_factor_n6_is_quiet(capsys):
    code, out, err = run(capsys, "factor", "--n", "6", "--A", "symplectic")
    assert code == 0
    assert err == ""
    for check in ("product", "det_y_exponent", "det_z"):
        assert f"check {check}: ok" in out
    # pinned like the golden corpus: any change to the n = 6 certificate
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3529905cbff4144ed40b3fbbd254af63618da6bf1d709061d5881a530a2af06a")


def test_factor_odd_n_rejected(capsys):
    code, _, err = run(capsys, "factor", "--n", "3", "--A", "symplectic")
    assert code == 2
    assert "odd" in err


def test_factor_random_needs_seed(capsys):
    code, _, err = run(capsys, "factor", "--n", "4", "--A", "random")
    assert code == 2
    assert "--seed" in err


def test_factor_random_deterministic(capsys):
    args = ("factor", "--n", "4", "--A", "random", "--seed", "9",
            "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical


def test_factor_certificate_round_trip(capsys, tmp_path, ctx4):
    code, out, _ = run(capsys, "factor", "--n", "4", "--A", "symplectic",
                       "--side", "right", "--format", "json")
    assert code == 0
    from adjkit import FactorizationCertificate, reverify_certificate
    cert = FactorizationCertificate.from_json(json.loads(out), ctx4)
    assert reverify_certificate(cert, ctx4)["passed"]


def test_factor_from_file(capsys, tmp_path):
    from adjkit import random_alternating
    alt = random_alternating(4, seed=3)
    path = tmp_path / "alt.json"
    path.write_text(json.dumps(alt.to_json()))
    code, out, _ = run(capsys, "factor", "--n", "4", "--A", str(path),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["A"] == alt.to_json()


def test_factor_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"rows": 2}')
    code, _, err = run(capsys, "factor", "--n", "4", "--A", str(path))
    assert code == 2


# ---------------------------------------------------------------------------
# refine
# ---------------------------------------------------------------------------

def test_refine_n2(capsys):
    code, out, _ = run(capsys, "refine", "--n", "2", "--A", "J",
                       "--Aprime", "J", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["r"] == "-1"
    assert payload["W"]["entries"] == [["0", "0"], ["0", "0"]]
    assert all(payload["checks"].values())


def test_refine_n4(capsys):
    code, out, _ = run(capsys, "refine", "--n", "4", "--A", "J",
                       "--Aprime", "J", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert all(payload["checks"].values())
    assert payload["solution_space_dim"] == 0


def test_refine_no_solution(capsys, monkeypatch):
    monkeypatch.setattr(cli, "solve_common_refinement", lambda *args: None)
    code, out, _ = run(capsys, "refine", "--n", "2")
    assert code == 1
    assert out == "no solution: the coefficient-matching system is inconsistent\n"
    code, out, _ = run(capsys, "refine", "--n", "2", "--format", "json")
    assert code == 1
    assert json.loads(out) == {"n": 2, "result": "no_solution"}


def test_refine_draws_a_prime_from_the_next_seed(capsys, monkeypatch):
    seen = []

    def record(ctx, alt, alt2):
        seen.append((alt.matrix, alt2.matrix))

    monkeypatch.setattr(cli, "solve_common_refinement", record)
    for seed in (1, 2, 7, 40):
        run(capsys, "refine", "--n", "4", "--A", "random", "--Aprime",
            "random", "--seed", str(seed))
        a, a_prime = seen.pop()
        assert a != a_prime, seed
        assert a == random_alternating(4, seed).matrix
        assert a_prime == random_alternating(4, seed + 1).matrix
    # the one-sided requests of the golden corpus keep their matrices
    run(capsys, "refine", "--n", "4", "--A", "random", "--seed", "7")
    a, a_prime = seen.pop()
    assert a == random_alternating(4, 7).matrix
    assert a_prime == standard_symplectic(4).matrix


def test_refine_malformed_matrix(capsys, tmp_path):
    path = tmp_path / "nope.json"
    path.write_text("[1, 2, 3]")
    code, _, err = run(capsys, "refine", "--n", "2", "--A", str(path),
                       "--Aprime", "J")
    assert code == 2


# ---------------------------------------------------------------------------
# rank-check
# ---------------------------------------------------------------------------

@pytest.fixture()
def cert_file(tmp_path, capsys):
    code, out, _ = run(capsys, "factor", "--n", "4", "--A", "symplectic",
                       "--side", "right", "--format", "json")
    assert code == 0
    path = tmp_path / "cert.json"
    path.write_text(out)
    return path


def point_file(tmp_path, rows, name="pt.json"):
    obj = {"rows": len(rows), "cols": len(rows[0]), "entries": rows}
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def test_rank_check_passes(capsys, tmp_path, cert_file):
    pt = point_file(tmp_path, [[0, 0, 0, 0], [0, 1, 0, 0],
                               [0, 0, 1, 0], [0, 0, 0, 1]])
    code, out, _ = run(capsys, "rank-check", "--cert", str(cert_file),
                       "--point", str(pt))
    assert code == 0
    assert "rank Y = 2" in out and "rank Z = 3" in out
    assert "rank XY = 1" in out and "rank ZX = 2" in out
    assert "PASS" in out


def test_rank_check_rejects_jordan_block(capsys, tmp_path, cert_file):
    pt = point_file(tmp_path, [[0, 1, 0, 0], [0, 0, 1, 0],
                               [0, 0, 0, 1], [0, 0, 0, 0]])
    code, _, err = run(capsys, "rank-check", "--cert", str(cert_file),
                       "--point", str(pt))
    assert code == 2
    assert "multiplicity" in err


def test_rank_check_detects_tampering(capsys, tmp_path, cert_file):
    obj = json.loads(cert_file.read_text())
    obj["Y"]["entries"][0][0] = "x_1_1^2"
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(obj))
    pt = point_file(tmp_path, [[0, 0, 0, 0], [0, 1, 0, 0],
                               [0, 0, 1, 0], [0, 0, 0, 1]])
    code, out, _ = run(capsys, "rank-check", "--cert", str(bad),
                       "--point", str(pt))
    assert code == 1


def test_rank_check_rejects_unknown_side(capsys, tmp_path, cert_file):
    pt = point_file(tmp_path, [[0, 0, 0, 0], [0, 1, 0, 0],
                               [0, 0, 1, 0], [0, 0, 0, 1]])
    for source in ("right", "left"):
        code, out, _ = run(capsys, "factor", "--n", "4", "--A", "symplectic",
                           "--side", source, "--format", "json")
        assert code == 0
        obj = json.loads(out)
        obj["side"] = "bogus"
        bad = tmp_path / f"bogus_{source}.json"
        bad.write_text(json.dumps(obj))
        code, out, err = run(capsys, "rank-check", "--cert", str(bad),
                             "--point", str(pt))
        assert code == 2
        assert out == "" and "bogus" in err


def test_rank_check_zero_denominator_in_point(capsys, tmp_path, cert_file):
    pt = point_file(tmp_path, [["1/0", 0, 0, 0], [0, 1, 0, 0],
                               [0, 0, 1, 0], [0, 0, 0, 1]])
    code, _, err = run(capsys, "rank-check", "--cert", str(cert_file),
                       "--point", str(pt))
    assert code == 2
    assert "zero denominator" in err


def test_rank_check_zero_denominator_in_certificate(capsys, tmp_path,
                                                    cert_file):
    obj = json.loads(cert_file.read_text())
    obj["Y"]["entries"][0][0] = "1/0*x_1_1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    pt = point_file(tmp_path, [[0, 0, 0, 0], [0, 1, 0, 0],
                               [0, 0, 1, 0], [0, 0, 0, 1]])
    code, _, err = run(capsys, "rank-check", "--cert", str(bad),
                       "--point", str(pt))
    assert code == 2
    assert "zero denominator" in err


def test_rank_check_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "rank-check", "--cert", "/does/not/exist",
                       "--point", "/none")
    assert code == 2


def test_rank_check_passes_allow_large_to_the_context(capsys, tmp_path,
                                                      monkeypatch):
    cert = tmp_path / "n7.json"
    cert.write_text(json.dumps({"n": 7}))
    code, _, err = run(capsys, "rank-check", "--cert", str(cert),
                       "--point", "/none")
    assert code == 2 and "allow_large=True" in err
    seen = []

    def recording(n, allow_large=False):
        seen.append((n, allow_large))
        raise ValueError("stopped before building the context")

    monkeypatch.setattr(cli, "GenericContext", recording)
    code, _, err = run(capsys, "rank-check", "--cert", str(cert),
                       "--point", "/none", "--allow-large")
    assert code == 2 and "stopped before" in err
    assert seen == [(7, True)]


# ---------------------------------------------------------------------------
# compound
# ---------------------------------------------------------------------------

def test_compound_command(capsys):
    code, out, _ = run(capsys, "compound", "--n", "3", "--m", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["compound"]["rows"] == 3
    assert payload["det_check"]["passed"]
    assert payload["det_check"]["route"] == "derived"


def test_compound_derived_route(capsys):
    # det(X)^6 at (5, 3) has about 1.6e8 terms; the derivation never builds it
    code, out, _ = run(capsys, "compound", "--n", "5", "--m", "3",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["det_check"]["route"] == "derived"
    code, out, _ = run(capsys, "compound", "--n", "5", "--m", "3")
    assert code == 0
    assert "det check route=derived: PASS" in out


def test_compound_out_of_range(capsys):
    code, _, err = run(capsys, "compound", "--n", "3", "--m", "4")
    assert code == 2


def test_arguments_are_checked_before_the_context(capsys, monkeypatch):
    def no_context(*args, **kwargs):
        raise AssertionError("built the generic context before the checks")

    monkeypatch.setattr(cli, "GenericContext", no_context)
    missing = "/does/not/exist.json"
    for argv in (("compound", "--n", "6", "--m", "9"),
                 ("factor", "--n", "6", "--A", missing),
                 ("refine", "--n", "6", "--A", "J", "--Aprime", missing)):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "error:" in err


def test_bound_below_one_is_a_usage_error(capsys, monkeypatch):
    def no_context(*args, **kwargs):
        raise AssertionError("built the generic context before the checks")

    monkeypatch.setattr(cli, "GenericContext", no_context)
    for argv in (("factor", "--n", "4", "--A", "random", "--seed", "1",
                  "--bound", "0"),
                 ("refine", "--n", "4", "--A", "random", "--seed", "1",
                  "--bound", "-1"),
                 ("refine", "--n", "4", "--Aprime", "random", "--seed", "1",
                  "--bound", "0")):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "error: bound must be at least 1" in err


def test_random_unimodular_rejects_bound_below_one():
    for n in (1, 4):
        with pytest.raises(ValueError, match="bound"):
            random_unimodular(n, random.Random(1), bound=0)


def test_every_option_is_read_by_its_handler():
    # an option the handler never reads is accepted and silently ignored
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    emits_format = "args.format" in inspect.getsource(cli._emit)
    unread = []
    for name, sub in subparsers.choices.items():
        handler = inspect.getsource(sub.get_default("func"))
        for action in sub._actions:
            if not action.option_strings or action.dest == "help":
                continue
            if re.search(rf"\bargs\.{action.dest}\b", handler):
                continue
            if (action.dest == "format" and emits_format
                    and "_emit(args" in handler):
                continue
            unread.append(f"{name} {action.option_strings[0]}")
    assert unread == []


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def test_main_builds_its_parser_once(capsys, monkeypatch):
    build, built = cli.build_parser, []

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert run(capsys, "gen", "--n", "2")[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["gen"])
        assert exc.value.code == 2
        assert run(capsys, "compound", "--n", "2", "--m", "3")[0] == 2
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def fresh_process(*argv):
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "adjkit.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=300)


def test_requests_on_one_parser_stay_isolated(capsys):
    want = fresh_process("verify", "--n", "3")
    assert want.returncode == 0
    assert run(capsys, "verify", "--n", "3")[:2] == (0, want.stdout)
    # argparse usage errors: a missing value, a bad choice, an unknown option
    for argv in (("verify", "--n"), ("verify", "--n", "3", "--format", "xml"),
                 ("verify", "--n", "3", "--side", "left")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, "verify", "--n", "3")[:2] == (0, want.stdout)
    assert run(capsys, "verify", "--n", "3", "--negative-control",
               "--format", "json")[0] == 1
    assert run(capsys, "verify", "--n", "3")[:2] == (0, want.stdout)


def test_help_is_the_parser_help(capsys):
    main(["gen", "--n", "2"])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == cli.build_parser().format_help()


# ---------------------------------------------------------------------------
# global determinism
# ---------------------------------------------------------------------------

# sha256 of stdout and the exit code of each command, recorded before the
# term dicts were keyed by packed ints: the output must stay byte-identical.
# The two compound_det reports (verify --n 3, compound --n 4 --m 2) were
# re-recorded when every order took the derived route; only their route,
# theorem and check keys changed.  verify --n 3 was re-recorded again when
# the symbolic suite stopped drawing random instances: its "seed" key went,
# and the multiplicativity, conjugation and sandwich_divisibility reports
# gained their route (and theorem) with new check keys.
GOLDEN = (
    (("gen", "--n", "3"),
     0, "ccf16ad608a3294a941edc6e1d75426f098cc2319cc9cd242c5438ca9749197c"),
    (("gen", "--n", "3", "--format", "json"),
     0, "47d82da0a28f72ae7ae5c24d7097e537c36299b9ee7e942b172e389882de7f07"),
    (("verify", "--n", "3", "--format", "json"),
     0, "a501b21c750b7e9a300db9ad87fe3603d9f2209b095acbb0f673cb2fc33a9549"),
    (("factor", "--n", "4", "--side", "right"),
     0, "e10df87d0d66f286f2b461457c7a604d2313d08dffd7f2c4eed29450a8aaf0db"),
    (("factor", "--n", "4", "--side", "left"),
     0, "4dd31108fdebc12296a72ffd8ce8d018f9edbf5c3cd59dec09e086f6aaae75da"),
    (("factor", "--n", "4", "--side", "right", "--A", "random", "--seed", "7"),
     0, "4e40b93e3f65721167ec011c66e73865b635b7453b3ff94935275dd09053cf9e"),
    (("factor", "--n", "4", "--side", "left", "--A", "random", "--seed", "7"),
     0, "a6df1c6f425ddaabf84f71d1b11574bf595430ae2a4f4d40a87c3093b9217562"),
    (("refine", "--n", "4", "--format", "json"),
     0, "d2efd750d5d4bfb2241f9002ebdbf7316624af6d6e9c9ce667cb86def4cc142f"),
    (("refine", "--n", "4", "--A", "random", "--seed", "7", "--format", "json"),
     0, "3019c6764220d5fca112d69d1816182fcf6f8f30b376114cd886d83e72c5824f"),
    (("compound", "--n", "4", "--m", "2", "--format", "json"),
     0, "b0f55cb3a64849181ec232d6904e4b5d9803340f4fc37fceb3b947ca908e2631"),
)


@pytest.mark.parametrize("argv,code,digest", GOLDEN,
                         ids=["-".join(g[0]) for g in GOLDEN])
def test_golden_output(capsys, argv, code, digest):
    got, out, _ = run(capsys, *argv)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_json_deterministic(capsys):
    args = ("verify", "--n", "4", "--prime", "101", "--trials", "5",
            "--seed", "11", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
