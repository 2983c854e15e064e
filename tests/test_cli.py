"""Command line interface: golden outputs, exit codes, determinism."""

import argparse
import ast
import importlib
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hopfwitt
from hopfwitt import cli, filtration, intz, witt
from hopfwitt.errors import InputError, shown
from hopfwitt.rings import ring_from_spec

GOLDEN = Path(__file__).parent / "golden"

DEG2 = '{"n_min":0,"n_max":2,"ranks":[3,2,1],"maps":[[[0,0],[1,0],[0,1]],[[0],[1]]]}'
CONC1 = '{"n_min":1,"n_max":1,"ranks":[1],"maps":[]}'
CONC2 = '{"n_min":2,"n_max":2,"ranks":[1],"maps":[]}'
DEG4 = ('{"n_min":0,"n_max":4,"ranks":[5,4,3,2,1],"maps":[[[0,0,0,0],[1,0,0,0],[0,1,0,0],'
        '[0,0,1,0],[0,0,0,1]],[[0,0,0],[1,0,0],[0,1,0],[0,0,1]],[[0,0],[1,0],[0,1]],[[0],[1]]]}')
# non-split stages, so the tensor's maps carry non-trivial HNF coordinates
NONSPLIT_A = '{"n_min":0,"n_max":2,"ranks":[3,2,1],"maps":[[[2,0],[1,1],[0,3]],[[1],[-2]]]}'
NONSPLIT_B = '{"n_min":-1,"n_max":1,"ranks":[2,2,1],"maps":[[[1,1],[0,2]],[[3],[1]]]}'

CASES = [
    ("intz-mul", ["intz", "mul", "C(x,1)", "C(x,1)"]),
    ("intz-comul", ["intz", "comul", "C(x,2)"]),
    ("intz-antipode-json", ["intz", "antipode", "C(x,2)", "--format", "json"]),
    ("intz-eval", ["intz", "eval", "C(x,4)", "6"]),
    ("intz-pair", ["intz", "pair", "C(x,2)", "--series", "1,3,3,1"]),
    ("intz-frobtest", ["intz", "frobtest", "C(x,3)", "--primes", "2,3,5"]),
    ("witt-add", ["witt", "add", "--trunc", "1,2", "--ring", "Z",
                  "--coeffs", "1,2", "--coeffs2", "3,4"]),
    ("witt-mul-zmod8", ["witt", "mul", "--trunc", "1,2", "--ring", "Zmod:8",
                        "--coeffs", "1,2", "--coeffs2", "3,4"]),
    ("witt-ghost", ["witt", "ghost", "--trunc", "1,2", "--ring", "Z",
                    "--coeffs", "1,0"]),
    ("witt-frob", ["witt", "frob", "--trunc", "1,2,4", "--ring", "Z",
                   "--coeffs", "1,2,3", "--n", "2"]),
    ("witt-versch", ["witt", "versch", "--trunc", "1,2,4", "--ring", "Z",
                     "--coeffs", "5,7", "--n", "2"]),
    ("witt-teich", ["witt", "teich", "--trunc", "1,2,4", "--ring", "Z",
                    "--r", "2"]),
    ("witt-twisted", ["witt", "twisted", "--trunc", "1,2", "--ring", "Z",
                      "--coeffs", "1,2", "--n", "2", "--t", "1"]),
    ("witt-kernel-stable-f4", ["witt", "kernel", "--trunc", "1,2",
                               "--ring", "Fq:2,2", "--n", "2", "--t", "1,0",
                               "--stable"]),
    # 5 = 0 in F_25, so each lookup of 5r = -q(0) keeps all 25 residues or none
    ("witt-kernel-stable-f25", ["witt", "kernel", "--trunc", "1,5,25",
                                "--ring", "Fq:5,2", "--n", "5", "--t", "1,0",
                                "--stable"]),
    ("witt-unipoly-sum", ["witt", "unipoly", "--trunc", "1,2", "--op", "sum"]),
    ("filt-rees-b3", ["filt", "rees", "--bound", "3"]),
    ("filt-rees-t0", ["filt", "rees", "--bound", "2", "--t", "0"]),
    ("filt-drinfeld-22", ["filt", "drinfeld", "--m", "2", "--n", "2"]),
    ("filt-rees-b6-json", ["filt", "rees", "--bound", "6", "--format", "json"]),
    ("filt-rees-b5-tneg2", ["filt", "rees", "--bound", "5", "--t", "-2"]),
    ("filt-rees-b12-json", ["filt", "rees", "--bound", "12", "--format", "json"]),
    ("filt-rees-b12-t3", ["filt", "rees", "--bound", "12", "--t", "3"]),
    ("filt-drinfeld-75-json", ["filt", "drinfeld", "--m", "7", "--n", "5",
                               "--format", "json"]),
    ("filt-gr", ["filt", "gr", DEG2]),
    ("filt-tensor", ["filt", "tensor", CONC1, CONC2]),
    ("filt-tensor-deg4", ["filt", "tensor", DEG4, DEG4]),
    ("filt-tensor-nonsplit", ["filt", "tensor", NONSPLIT_A, NONSPLIT_B]),
    ("homology-bar-extneg1", ["homology", "bar", "--algebra",
                              "exterior-deg-neg1", "--stages", "4"]),
    ("homology-bar-trunc3", ["homology", "bar", "--algebra", "truncated:3",
                             "--stages", "3"]),
    ("homology-cobar-dp5", ["homology", "cobar", "--coalgebra",
                            "divided-power:5", "--weight-bound", "5"]),
    ("intz-frobtest-json", ["intz", "frobtest", "C(x,3)", "--primes", "2,3,5",
                            "--format", "json"]),
    ("witt-ghost-json", ["witt", "ghost", "--trunc", "1,2", "--ring", "Z",
                         "--coeffs", "1,0", "--format", "json"]),
    ("witt-kernel-f4-json", ["witt", "kernel", "--trunc", "1,2", "--ring", "Fq:2,2",
                             "--n", "2", "--t", "1,0", "--format", "json"]),
    ("filt-gr-json", ["filt", "gr", DEG2, "--format", "json"]),
    ("filt-rees-b3-t2-json", ["filt", "rees", "--bound", "3", "--t", "2", "--format", "json"]),
    ("homology-bar-trivial", ["homology", "bar", "--algebra", "trivial", "--stages", "3"]),
    ("homology-bar-extdeg1", ["homology", "bar", "--algebra", "exterior-deg1",
                              "--stages", "4"]),
    ("homology-cobar-trivial", ["homology", "cobar", "--coalgebra", "trivial"]),
]


def child_env():
    """Environment for a child interpreter that imports the same hopfwitt.

    The directory holding the package this suite imported goes first on
    PYTHONPATH, so a child started in another working directory finds it
    even when the inherited PYTHONPATH is relative.
    """
    root = str(Path(hopfwitt.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=root + (os.pathsep + rest if rest else ""))


def parser_actions(parser):
    """(group, command, action) for every argument of every leaf parser,
    walked the way cli._man_page walks them; command is None for a group
    without subcommands."""
    top = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for group_name, group in top.choices.items():
        sub = next((a for a in group._actions
                    if isinstance(a, argparse._SubParsersAction)), None)
        leaves = sub.choices.items() if sub is not None else [(None, group)]
        for leaf_name, leaf in leaves:
            for action in leaf._actions:
                if not isinstance(action, argparse._HelpAction):
                    yield group_name, leaf_name, action


def run_cli(argv, capsys):
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse refuses the argv
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestGolden:
    @pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
    def test_matches_golden_file(self, name, argv, capsys):
        rc, out, err = run_cli(argv, capsys)
        assert rc == 0
        assert err == ""
        assert out == (GOLDEN / f"{name}.out").read_text()

    def test_repeat_invocation_byte_identical(self, capsys):
        argv = ["intz", "mul", "C(x,3)", "C(x,4)"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    def test_payload_from_file(self, tmp_path, capsys):
        p = tmp_path / "elem.txt"
        p.write_text("C(x,1)\n")
        rc, out, _ = run_cli(["intz", "mul", f"@{p}", f"@{p}"], capsys)
        assert rc == 0
        assert out == (GOLDEN / "intz-mul.out").read_text()

    def test_truncated_one_prints_the_trivial_table(self, capsys):
        # Z[x]/x is Z, the algebra the name trivial builds
        argv = ["homology", "bar", "--algebra", "truncated:1", "--stages", "3"]
        golden = (GOLDEN / "homology-bar-trivial.out").read_text()
        assert run_cli(argv, capsys) == (0, golden, "")


N5000 = "9" * 5000
LONG_NUMERALS = [
    ("ring-Z", ["witt", "add", "--trunc", "1", "--ring", "Z", "--coeffs", N5000, "--coeffs2", "1"]),
    ("ring-Zmod", ["witt", "add", "--trunc", "1", "--ring", "Zmod:8", "--coeffs", N5000,
                   "--coeffs2", "1"]),
    ("ring-Fq", ["witt", "teich", "--trunc", "1", "--ring", "Fq:3,1", "--r", N5000]),
    ("modulus", ["witt", "teich", "--trunc", "1", "--ring", f"Zmod:{N5000}", "--r", "1"]),
    ("eval-point", ["intz", "eval", "C(x,1)", N5000]),
    ("frob-n", ["witt", "frob", "--trunc", "1,2", "--coeffs", "1,2", "--n", N5000]),
    ("drinfeld-m", ["filt", "drinfeld", "--m", N5000, "--n", "1"]),
    ("rees-t", ["filt", "rees", "--t", N5000]),
    ("rees-bound", ["filt", "rees", "--bound", N5000]),
    ("bar-stages", ["homology", "bar", "--algebra", "trivial", "--stages", N5000]),
    ("cobar-weight-bound", ["homology", "cobar", "--coalgebra", "trivial",
                            "--weight-bound", N5000]),
]


class TestExitCodes:
    def test_unknown_group_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["nosuch"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,err", [
        (["homology", "bar", "--algebra", "truncated:x", "--stages", "2"],
         "error: bad p in truncated:p: 'x'\n"),
        (["homology", "cobar", "--coalgebra", "divided-power:x"],
         "error: bad N in divided-power:N: 'x'\n"),
        (["homology", "cobar", "--coalgebra", "nosuch"],
         "error: unknown coalgebra 'nosuch'; choose trivial | divided-power:N\n"),
        (["witt", "ghost", "--trunc", "1,x", "--ring", "Z", "--coeffs", "1,0"],
         "error: bad integer in --trunc: 'x'\n"),
    ], ids=["truncated-x", "divided-power-x", "unknown-coalgebra", "trunc-not-integer"])
    def test_bad_name_or_number_exits_two(self, argv, err, capsys):
        assert run_cli(argv, capsys) == (2, "", err)

    @pytest.mark.parametrize("text", ["1,,3", "1,2,", ",1", ""])
    @pytest.mark.parametrize("flag,argv", [
        ("--trunc", ["witt", "ghost", "--coeffs", "1,0", "--trunc"]),
        ("--series", ["intz", "pair", "C(x,2)", "--series"]),
        ("--primes", ["intz", "frobtest", "C(x,3)", "--primes"]),
    ], ids=["trunc", "series", "primes"])
    def test_empty_integer_field_exits_two(self, flag, argv, text, capsys):
        """An empty field is no integer: "1,,3" as a series would otherwise
        move the 3 down to degree 1."""
        err = f"error: bad integer in {flag}: ''\n"
        assert run_cli(argv + [text], capsys) == (2, "", err)

    @pytest.mark.parametrize("argv,err", [
        (["filt", "rees", "--bound", "-1"], "error: bound must be nonnegative\n"),
        (["filt", "drinfeld", "--m", "-1", "--n", "1"], "error: indices must be nonnegative\n"),
        (["homology", "bar", "--algebra", "truncated:0", "--stages", "2"],
         "error: truncated:p needs p >= 1\n"),
        (["homology", "cobar", "--coalgebra", "divided-power:-1"],
         "error: bound must be nonnegative\n"),
        (["witt", "unipoly", "--trunc", "1,2", "--op", "frobenius"],
         "error: frobenius needs the index n\n"),
        (["witt", "ghost", "--trunc", "0,1", "--coeffs", "1,1"],
         "error: truncation set members must be positive\n"),
        (["homology", "bar", "--algebra", "truncated:3", "--stages", "-1"],
         "error: bounds must be nonnegative\n"),
        (["homology", "cobar", "--coalgebra", "trivial", "--weight-bound", "-1"],
         "error: bounds must be nonnegative\n"),
    ], ids=["rees-bound", "drinfeld-m", "truncated-0", "divided-power-negative",
            "unipoly-frobenius-without-n", "trunc-member-0", "bar-stages", "cobar-weight-bound"])
    def test_precondition_refusals(self, argv, err, capsys):
        assert run_cli(argv, capsys) == (2, "", err)

    def test_bad_element_payload(self, capsys):
        rc, out, err = run_cli(["intz", "mul", "C(x", "C(x,1)"], capsys)
        assert rc == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("payload,field", [
        ('{"n_min":0,"n_max":1,"ranks":[1,1],"maps":[[[1.5]]]}', "maps[0][0][0]"),
        ('{"n_min":0,"n_max":1,"ranks":[1,1],"maps":[[[true]]]}', "maps[0][0][0]"),
        ('{"n_min":0,"n_max":0,"ranks":[true],"maps":[]}', "ranks[0]"),
        ('{"n_min":"0","n_max":0,"ranks":[1],"maps":[]}', "n_min"),
        ('{"n_min":0,"n_max":1,"ranks":[1,1],"maps":[[["1"]]]}', "maps[0][0][0]"),
        ('{"n_min":0.9,"n_max":0,"ranks":[1],"maps":[]}', "n_min"),
        ('{"n_min":0,"n_max":0,"ranks":[-1],"maps":[]}', "ranks"),
        ('{"n_min":0,"n_max":1e400,"ranks":[1],"maps":[]}', "n_max"),
        ('{"n_min":0,"n_max":1,"ranks":[1,1],"maps":[1]}', "maps[0]"),
        ('{"n_min":0,"n_max":0,"maps":[]}', "ranks"),
        ("[" * 100000 + "]" * 100000, "recursion depth"),
        ('{"n_min":0,"n_max":1,"ranks":[2,1],"maps":[[[1],[2,3]]]}', ": ragged matrix\n"),
        ('{"n_min":0,"n_max":1,"ranks":[1,1],"maps":[[[1],[2]]]}',
         ": structure map 0 has shape 2x1, expected 1x1\n"),
        ('{"n_min":0,"n_max":1,"ranks":[1,2],"maps":[[[0]]]}',
         ": structure map 0 has shape 1x1, expected 1x2\n"),
        ('{"n_min":0,"n_max":1,"ranks":[0,2],"maps":[[]]}',
         ": structure map 0 has shape 0x0, expected 0x2\n"),
        ('{"n_min":0,"n_max":1,"ranks":[1,1],"maps":[[[0]]]}',
         ": structure map into stage 0 is not injective\n"),
        ('{"n_min":0,"n_max":1,"ranks":[1,2],"maps":[[[1,1]]]}',
         ": structure map into stage 0 is not injective\n"),
        ("[1]", ": want an object\n"),
        ('{"n_min":1,"n_max":0,"ranks":[],"maps":[]}', ": empty filtration range\n"),
        ('{"n_min":0,"n_max":1,"ranks":[1],"maps":[]}', ": rank list does not match the range\n"),
        ('{"n_min":0,"n_max":0,"ranks":[1],"maps":[[[1]]]}',
         ": need one structure map per adjacent pair of stages\n"),
    ], ids=["float-entry", "bool-entry", "bool-rank", "string-n_min", "string-entry",
            "float-n_min", "negative-rank", "overflowing-n_max", "int-map", "missing-ranks",
            "deep-nesting", "ragged-map", "tall-map", "short-map", "empty-map-into-rank-0",
            "zero-map", "rank-one-map", "not-an-object", "empty-range", "short-rank-list",
            "extra-map"])
    def test_bad_module_json_exits_two(self, payload, field, capsys):
        """A filtered module reads JSON integers only and nonnegative
        ranks, and its structure maps are injective integer matrices of
        the shape the ranks give; anything else is one error line naming
        the field or the fault."""
        rc, out, err = run_cli(["filt", "gr", payload], capsys)
        assert (rc, out) == (2, "")
        assert err.startswith("error: bad filtered module JSON: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert field in err

    @pytest.mark.parametrize("payload,expected", [
        ('{"n_min":0,"n_max":1,"ranks":[2,0],"maps":[[[],[]]]}',
         '{"n_min":0,"n_max":2,"ranks":[4,0,0],"maps":[[[],[],[],[]],[]]}'),
        ('{"n_min":0,"n_max":1,"ranks":[0,0],"maps":[[]]}',
         '{"n_min":0,"n_max":2,"ranks":[0,0,0],"maps":[[],[]]}'),
    ], ids=["rank-2-then-0", "rank-0"])
    def test_tensor_square_with_zero_rank_stages(self, payload, expected, capsys):
        """A map into or out of a rank-0 stage is written as one empty list
        per row of its stage: 4x0 is [[],[],[],[]], 0x0 is []."""
        rc, out, err = run_cli(["filt", "tensor", payload, payload], capsys)
        assert (rc, out, err) == (0, expected + "\n", "")

    def test_bad_ring_spec(self, capsys):
        rc, _, err = run_cli(["witt", "ghost", "--trunc", "1", "--ring", "Q",
                              "--coeffs", "1"], capsys)
        assert rc == 2
        assert "ring" in err

    def test_field_without_a_built_in_modulus(self, capsys):
        rc, out, err = run_cli(["witt", "add", "--trunc", "1", "--ring", "Fq:2,5",
                                "--coeffs", "0,0,0,0,0", "--coeffs2", "0,0,0,0,0"], capsys)
        assert (rc, out) == (2, "")
        assert err.startswith("error: no built-in modulus") and err.count("\n") == 1

    def test_poly_exponent_past_the_print_limit(self, capsys):
        """x^e in the top ghost of S = {1, 2, ..., 128} has exponent 128 e,
        which is refused before it passes the 4300-digit limit on str."""
        rc, out, err = run_cli(["witt", "ghost", "--trunc", "1,2,4,8,16,32,64,128", "--ring",
                                "Poly", "--coeffs", "x^4" + "9" * 4299 + ",0,0,0,0,0,0,0"], capsys)
        assert (rc, out) == (2, "")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "GHOST_BITS_LIMIT" in err

    def test_non_divisor_closed_trunc(self, capsys):
        rc, _, err = run_cli(["witt", "ghost", "--trunc", "2", "--ring", "Z",
                              "--coeffs", "1"], capsys)
        assert rc == 2
        assert "divisor" in err

    def test_component_count_mismatch(self, capsys):
        rc, _, err = run_cli(["witt", "ghost", "--trunc", "1,2", "--ring", "Z",
                              "--coeffs", "1"], capsys)
        assert rc == 2

    @pytest.mark.parametrize("argv", [argv for _, argv in LONG_NUMERALS],
                             ids=[name for name, _ in LONG_NUMERALS])
    def test_numeral_past_the_int_conversion_limit_exits_two_in_one_short_line(
            self, argv, capsys):
        """Ring readers and integer options refuse a numeral Python will not
        convert by its digit count, where they echoed all of it."""
        rc, out, err = run_cli(argv, capsys)
        assert (rc, out) == (2, "")
        assert err.count("\n") == 1 and len(err.encode()) < 200
        assert "5000 digits" in err

    @pytest.mark.parametrize("coeff", ["1/2*a1", "4/2*a1"])
    def test_poly_quotient_coefficient_exits_two(self, coeff, capsys):
        """Z[vars] reads integer coefficients only, so a quotient is
        refused even when it is integral."""
        rc, out, err = run_cli(["witt", "add", "--trunc", "1,2", "--ring", "Poly",
                                "--coeffs", f"{coeff},0", "--coeffs2", "0,0"], capsys)
        assert rc == 2
        assert out == ""
        assert err == "error: polynomial ring elements need integer coefficients\n"

    def test_fq_needs_semicolons(self, capsys):
        # "1,0" over F_4 splits into two one-coordinate tokens
        rc, _, err = run_cli(["witt", "teich", "--trunc", "1", "--ring",
                              "Fq:2,2", "--r", "1"], capsys)
        assert rc == 2

    def test_unipoly_index_for_another_op(self, capsys):
        rc, out, err = run_cli(["witt", "unipoly", "--trunc", "1,2", "--op", "sum",
                                "--n", "3"], capsys)
        assert (rc, out) == (2, "")
        assert "frobenius" in err

    def test_composite_prime_rejected(self, capsys):
        rc, _, err = run_cli(["intz", "frobtest", "C(x,1)", "--primes", "4"],
                             capsys)
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["intz", "antipode", "C(x,1000000)"],
        ["intz", "frobtest", "C(x,30)", "--primes", "10007"],
        ["intz", "frobtest", "C(x,1)", "--primes", "1000000000000000003"],
    ])
    def test_work_over_limit_exits_two(self, argv, capsys):
        rc, out, err = run_cli(argv, capsys)
        assert rc == 2
        assert out == ""
        assert "bound overflow" in err

    def test_dense_product_from_file_over_limit_exits_two(self, tmp_path, capsys):
        p = tmp_path / "dense.txt"
        p.write_text("+".join(f"C(x,{k})" for k in range(1, 201)) + "\n")
        rc, out, err = run_cli(["intz", "mul", f"@{p}", f"@{p}"], capsys)
        assert rc == 2
        assert out == ""
        assert "bound overflow" in err

    @pytest.mark.parametrize("argv", [
        # (co)associativity checks of huge named (co)algebras
        ["homology", "bar", "--algebra", "truncated:99999999999999999999",
         "--stages", "1"],
        ["homology", "cobar", "--coalgebra", "divided-power:300",
         "--weight-bound", "2"],
        # numerals past Python's int/str conversion limit, and products of
        # numerals under it whose decimal form would pass it
        ["intz", "eval", "9" * 5000 + "*C(x,1)", "1"],
        ["intz", "mul", "7" * 4000 + "*C(x,1)", "7" * 4000 + "*C(x,2)"],
        ["intz", "pair", "7" * 4000 + "*C(x,1)", "--series", "1," + "7" * 4000],
        # binomials at the point far too long to compute or print
        ["intz", "eval", "C(x,20000)", "--", "-20000"],
        ["intz", "eval", "C(x,300000000)", "--", "-300000000"],
        ["intz", "eval", "C(x,1" + "0" * 998 + ")", "--", "-1" + "0" * 998],
        # universal polynomials, and the same growth over --ring Poly
        ["witt", "unipoly", "--op", "product", "--trunc", "1,2,4,8,16,32"],
        ["witt", "mul", "--ring", "Poly", "--trunc", "1,2,4,8,16,32",
         "--coeffs", "a,b,c,d,e,f", "--coeffs2", "g,h,i,j,k,l"],
    ], ids=["truncated-huge", "divided-power-300", "numeral-5000", "mul-4000",
            "pair-4000", "eval-20000", "eval-300000000", "eval-past-floats",
            "unipoly-s32", "poly-mul-s32"])
    def test_refused_before_the_work_exits_two(self, argv, capsys):
        rc, out, err = run_cli(argv, capsys)
        assert rc == 2
        assert out == ""
        assert "bound overflow" in err

    def test_eval_at_negative_point_under_the_limit(self, capsys):
        rc, out, _ = run_cli(["intz", "eval", "C(x,4000)", "--", "-4000"], capsys)
        assert rc == 0
        assert int(out) == math.comb(7999, 4000)

    def test_unipoly_product_s8_still_answers(self, capsys):
        rc, out, _ = run_cli(["witt", "unipoly", "--op", "product",
                              "--trunc", "1,2,4,8"], capsys)
        assert rc == 0
        assert sorted(int(line.split(":")[0]) for line in out.splitlines()) == [1, 2, 4, 8]

    def test_eval_far_below_index_is_zero(self, capsys):
        rc, out, _ = run_cli(["intz", "eval", "C(x,300000000)", "5"], capsys)
        assert rc == 0
        assert out == "0\n"

    def test_missing_payload_file(self, capsys):
        rc, _, err = run_cli(["intz", "antipode", "@/no/such/file"], capsys)
        assert rc == 2

    def test_payload_file_that_is_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "bytes.txt"
        p.write_bytes(b"C(x,1)\xff")
        assert run_cli(["intz", "antipode", f"@{p}"], capsys) == (
            2, "", "error: bad element at '\ufffd'\n")

    def test_falsification_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(intz, "frobenius_mod_p_identity",
                            lambda f, p: False)
        rc, out, err = run_cli(["intz", "frobtest", "C(x,1)"], capsys)
        assert rc == 3
        assert out == ""
        assert err.startswith("falsified:")

    def test_unknown_algebra_name(self, capsys):
        rc, _, err = run_cli(["homology", "bar", "--algebra", "nope",
                              "--stages", "2"], capsys)
        assert rc == 2
        assert "algebra" in err


def _sign_map(n, density, seed):
    """A seeded n x n map with +-1 entries at the given density."""
    rng = random.Random(seed)
    return [[rng.choice((1, -1)) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(n)]


def _module_file(tmp_path, M):
    n = len(M)
    p = tmp_path / "module.json"
    p.write_text(json.dumps({"n_min": 0, "n_max": 1, "ranks": [n, len(M[0])], "maps": [M]}))
    return p


class TestLinalgBound:
    """Structure maps whose elimination swelled past any time limit."""

    def test_filt_gr_on_a_dense_sign_map(self, tmp_path, capsys):
        p = _module_file(tmp_path, _sign_map(26, 0.5, 3))
        start = time.perf_counter()
        rc, out, err = run_cli(["filt", "gr", f"@{p}"], capsys)
        assert time.perf_counter() - start < 1.0
        assert "Traceback" not in err
        if rc == 0:
            assert sum(int(line.split()[1]) for line in out.splitlines()) == 26
        else:
            assert rc == 2
            assert "has torsion" in err

    def test_sixty_square_map_through_the_library(self):
        rng = random.Random(60)
        M = [[rng.randint(-9, 9) for _ in range(60)] for _ in range(60)]
        text = json.dumps({"n_min": 0, "n_max": 1, "ranks": [60, 60], "maps": [M]})
        start = time.perf_counter()
        X = filtration.FilteredModule.from_json(text)
        with pytest.raises(InputError, match="has torsion"):
            filtration.associated_graded(X)
        assert time.perf_counter() - start < 1.0

    def test_modulus_over_the_limit_exits_two(self, tmp_path, capsys):
        big = 2 ** 600
        p = _module_file(tmp_path, [[big + 1, 3], [5, big + 7]])
        rc, out, err = run_cli(["filt", "gr", f"@{p}"], capsys)
        assert rc == 2
        assert out == ""
        assert "bound overflow" in err and "MODULUS_BITS_LIMIT" in err


class TestKernelSearch:
    """witt kernel runs the pruned search; witt.KERNEL_LIMIT counts the
    prefixes it visits, not |R|^|S|."""

    @pytest.mark.parametrize("trunc,m", [("1,2,3,4,6,12", 7), ("1,2,3,6", 16),
                                         ("1,2,4,8,16", 8), ("1,2,3,4,6", 8)])
    def test_large_kernels_answer_quickly(self, trunc, m, capsys):
        argv = ["witt", "kernel", "--trunc", trunc, "--ring", f"Zmod:{m}",
                "--n", "2", "--t", "1"]
        start = time.perf_counter()
        rc, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 0.5
        assert (rc, err) == (0, "")
        head, *members = out.splitlines()
        assert head == f"cardinality {len(members)}"
        S, R = witt.TruncationSet(map(int, trunc.split(","))), ring_from_spec(f"Zmod:{m}")
        for text in members:
            a = witt.WittVector.from_list(S, R, [int(c) for c in text.strip("()").split(",")])
            assert witt.twisted_frobenius(2, a, R.one()).is_zero()

    def test_bound_counts_visited_prefixes(self, capsys):
        """262,144 vectors, over the default bound, but far fewer prefixes."""
        assert 8 ** 6 > 200_000
        rc, out, _ = run_cli(["witt", "kernel", "--trunc", "1,2,3,4,6,12",
                              "--ring", "Zmod:8", "--n", "2", "--t", "1"], capsys)
        assert rc == 0 and out.startswith("cardinality 1024\n")

    def test_search_past_the_bound_exits_two(self, monkeypatch, capsys):
        monkeypatch.setattr(witt, "KERNEL_LIMIT", 10)
        rc, out, err = run_cli(["witt", "kernel", "--trunc", "1,2,3,4,6,12",
                                "--ring", "Zmod:7", "--n", "2", "--t", "1"], capsys)
        assert rc == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "bound overflow" in err and "witt.KERNEL_LIMIT = 10\n" in err

    @pytest.mark.parametrize("stable", [[], ["--stable"]], ids=["plain", "stable"])
    @pytest.mark.parametrize("ring", ["Zmod:1000000000", "Fq:1000000007,1"])
    def test_ring_larger_than_the_bound_exits_two_at_once(self, ring, stable, capsys):
        start = time.perf_counter()
        rc, out, err = run_cli(["witt", "kernel", "--trunc", "1", "--ring", ring,
                                "--n", "1", "--t", "1", *stable], capsys)
        assert time.perf_counter() - start < 0.5
        assert (rc, out) == (2, "")
        assert "bound overflow" in err and "witt.KERNEL_LIMIT = 200000\n" in err


class TestDayTensorLimit:
    def test_degree_nine_tensor_answers(self, capsys):
        d9 = filtration.degree_filtration_module(9).to_json()
        start = time.perf_counter()
        rc, out, err = run_cli(["filt", "tensor", d9, d9], capsys)
        assert time.perf_counter() - start < 2.0
        assert (rc, err) == (0, "")
        rc, gr, _ = run_cli(["filt", "gr", out.strip()], capsys)
        assert rc == 0
        ranks = dict(map(int, line.split("\t")) for line in gr.splitlines())
        assert ranks == {n: min(n, 18 - n) + 1 for n in range(19)}

    def test_tensor_over_the_limit_exits_two(self, capsys):
        d15 = filtration.degree_filtration_module(15).to_json()
        start = time.perf_counter()
        rc, out, err = run_cli(["filt", "tensor", d15, d15], capsys)
        assert time.perf_counter() - start < 1.0
        assert rc == 2
        assert out == ""
        assert "bound overflow" in err and "DAY_TENSOR_WORK_LIMIT" in err


class TestPrintLimits:
    NINES = "9" * 100

    @pytest.mark.parametrize("argv", [
        ["witt", "ghost", "--trunc", "1,2,4,8,16,32,64,128", "--ring", "Z",
         "--coeffs", NINES + ",0,0,0,0,0,0,0"],
        ["witt", "mul", "--trunc", "1,2,4,8,16,32,64", "--ring", "Z",
         "--coeffs", NINES + ",0,0,0,0,0,0", "--coeffs2", NINES + ",0,0,0,0,0,0"],
        ["witt", "twisted", "--trunc", "1,2,4,8,16,32,64", "--ring", "Z",
         "--coeffs", "1,0,0,0,0,0,0", "--n", "2", "--t", NINES],
    ], ids=["ghost-s128", "mul-s64", "twisted-t"])
    def test_witt_values_past_the_print_limit_exit_two(self, argv, capsys):
        rc, out, err = run_cli(argv, capsys)
        assert rc == 2
        assert out == ""
        assert "bound overflow" in err and "GHOST_BITS_LIMIT" in err

    def test_witt_values_under_the_limit_print(self, capsys):
        comp = str(-(2 ** (witt.GHOST_BITS_LIMIT // 64) - 1))
        rc, out, _ = run_cli(["witt", "mul", "--trunc", "1,2,4,8,16,32,64", "--ring", "Z",
                              "--coeffs=" + ",".join([comp] * 7),
                              "--coeffs2=" + ",".join([comp] * 7)], capsys)
        assert rc == 0
        assert len(out) > 4000

    @pytest.mark.parametrize("trunc", ["3000000", "1" + "0" * 12])
    def test_pair_with_a_huge_trunc(self, trunc, capsys):
        # the truncation is the series length: a top index of f past it
        # pairs to zero and allocates nothing
        top = f"C(x,{int(trunc) - 1})"
        start = time.perf_counter()
        rc, out, _ = run_cli(["intz", "pair", "C(x,1)+" + top, "--series", "0,1"], capsys)
        assert time.perf_counter() - start < 0.5
        assert (rc, out) == (0, "1\n")
        _, golden, _ = run_cli(["intz", "pair", "C(x,2)+" + top, "--series", "1,3,3,1"],
                               capsys)
        assert golden == (GOLDEN / "intz-pair.out").read_text()


class TestFiltLimits:
    """The Rees and Drinfeld tables count their terms before forming any."""

    @staticmethod
    def _terms(m, n, label):
        """The printed c_k t^(m+n-k) terms of C(x,m) C(x,n) = sum_k c_k C(x,k),
        formed from math.comb, for m, n >= 1."""
        out = []
        for k in range(max(m, n), m + n + 1):
            c, e = math.comb(k, m) * math.comb(m, k - n), m + n - k
            t = {0: "", 1: "t*"}.get(e, f"t^{e}*")
            out.append(f"{'' if c == 1 and t else f'{c}*'}{t}{label}{k}")
        return " + ".join(out)

    def test_large_drinfeld_answers(self, capsys):
        start = time.perf_counter()
        rc, out, _ = run_cli(["filt", "drinfeld", "--m", "150", "--n", "150"], capsys)
        assert time.perf_counter() - start < 1.0
        assert rc == 0
        assert out == f"b150*b150 = {self._terms(150, 150, 'b')}\n"

    def test_large_rees_answers(self, capsys):
        start = time.perf_counter()
        rc, out, _ = run_cli(["filt", "rees", "--bound", "120"], capsys)
        assert time.perf_counter() - start < 1.0
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == sum(121 - 2 * i for i in range(1, 61))
        assert lines[-1] == f"C60*C60 = {self._terms(60, 60, 'C')}"

    @pytest.mark.parametrize("argv", [
        ["filt", "rees", "--bound", "0"],
        ["filt", "rees", "--bound", "1"],
        ["filt", "rees", "--bound", "1", "--t", "5"],
    ], ids=["b0", "b1", "b1-t5"])
    def test_rees_without_products_prints_nothing(self, argv, capsys):
        # only the unit's products are stored, and the listing leaves them out
        assert run_cli(argv, capsys) == (0, "", "")

    @pytest.mark.parametrize("argv", [
        ["filt", "drinfeld", "--m", "1000000", "--n", "1000000"],
        ["filt", "rees", "--bound", "100000"],
    ], ids=["drinfeld", "rees"])
    def test_huge_tables_exit_two(self, argv, capsys):
        start = time.perf_counter()
        rc, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 0.5
        assert (rc, out) == (2, "")
        assert "bound overflow" in err

    @pytest.mark.parametrize("argv", [
        ["filt", "rees", "--bound", "10", "--t", "9" * 1000],
        ["filt", "rees", "--bound", "120", "--t", "9" * 2000],
    ], ids=["t-1000-digits", "b120-t-2000-digits"])
    def test_huge_t_exits_two(self, argv, capsys):
        start = time.perf_counter()
        rc, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 1.0
        assert (rc, out) == (2, "")
        assert err.startswith("error: bound overflow: ") and err.count("\n") == 1
        assert err.endswith(f", over intz.EVAL_BITS_LIMIT = {intz.EVAL_BITS_LIMIT}\n")


class TestNumeralSizedWork:
    """Inputs whose work grew with a numeral, refused before any is done."""

    @pytest.mark.parametrize("argv", [
        ["intz", "comul", "C(x,1000000)"],
        ["intz", "comul", "C(x," + "9" * 900 + ")"],
    ], ids=["comul-1e6", "comul-900-digits"])
    def test_huge_coproduct_exits_two(self, argv, capsys):
        start = time.perf_counter()
        rc, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 0.5
        assert (rc, out) == (2, "")
        assert "bound overflow" in err

    @pytest.mark.parametrize("trunc", ["1,100000007", "1," + "1" * 1000],
                             ids=["prime-member", "1000-digit-member"])
    def test_huge_truncation_member_exits_two(self, trunc, capsys):
        start = time.perf_counter()
        rc, out, err = run_cli(["witt", "ghost", "--trunc", trunc, "--ring", "Z",
                                "--coeffs", "1,0"], capsys)
        assert time.perf_counter() - start < 1.0
        assert (rc, out) == (2, "")
        assert "bound overflow" in err and "TRUNC_SUM_LIMIT" in err


SRC = Path(hopfwitt.__file__).parent
BIG = 2 ** 600
A101 = 10 ** 100 + 200
# One over-limit argv per named work limit; the word cap has a bar and a
# cobar one, the second told apart by a word after the limit's name.
LIMIT_CASES = [
    ("intz.MAX_DIGITS", ["intz", "eval", "9" * 1001 + "*C(x,1)", "1"]),
    ("intz.MAX_DIGITS series", ["intz", "pair", "C(x,1)", "--series", "1," + "9" * 1001]),
    ("intz.WORK_LIMIT", ["intz", "antipode", "C(x,1000000)"]),
    ("intz.EVAL_BITS_LIMIT", ["intz", "eval", "C(x,20000)", "--", "-20000"]),
    ("intz.FROB_TABLE_LIMIT", ["intz", "frobtest", "C(x,30)", "--primes", "10007"]),
    ("homology.VALIDATION_LIMIT", ["homology", "cobar", "--coalgebra", "divided-power:300"]),
    ("homology._TUPLE_CAP", ["homology", "bar", "--algebra", "truncated:17",
                             "--stages", "20", "--weight-bound", "20"]),
    ("homology._TUPLE_CAP cobar", ["homology", "cobar", "--coalgebra", "divided-power:18",
                                   "--weight-bound", "18"]),
    ("rings.TERM_LIMIT", ["witt", "unipoly", "--op", "product", "--trunc", "1,2,4,8,16,32"]),
    ("witt.TRUNC_SUM_LIMIT", ["witt", "mul", "--trunc", ",".join(map(str, range(1, 10001))),
                              "--ring", "Zmod:8", "--coeffs", "0", "--coeffs2", "0"]),
    ("witt.GHOST_BITS_LIMIT", ["witt", "ghost", "--trunc", "1,2,4,8,16,32,64,128", "--ring",
                               "Z", "--coeffs", "9" * 100 + ",0,0,0,0,0,0,0"]),
    ("witt.LIFT_BITS_LIMIT", ["witt", "mul", "--trunc", "1,9973", "--ring", f"Zmod:{10**100 + 267}",
                              "--coeffs", f"{A101},{A101}", "--coeffs2", f"{A101},{A101}"]),
    ("witt.KERNEL_LIMIT", ["witt", "kernel", "--trunc", "1", "--ring", "Zmod:1000000000",
                           "--n", "1", "--t", "1"]),
    ("linalg.MODULUS_BITS_LIMIT", ["filt", "gr", json.dumps(
        {"n_min": 0, "n_max": 1, "ranks": [2, 2], "maps": [[[BIG + 1, 3], [5, BIG + 7]]]})]),
    ("filtration.DAY_TENSOR_WORK_LIMIT", ["filt", "tensor"] + 2 * [
        filtration.degree_filtration_module(15).to_json()]),
    ("binomial.PRIME_LIMIT", ["witt", "add", "--trunc", "1", "--ring", "Fq:2305843009213693951,1",
                              "--coeffs", "1", "--coeffs2", "2"]),
]

# Refusals pinned byte for byte: the walk refuses at the first word whose
# extensions would carry the words it has formed past the cap, and counts
# them with those extensions, so the count depends on the walk order.
PINNED_REFUSALS = {
    "intz.MAX_DIGITS series": "error: bound overflow: a numeral in --series needs 1001 digits, "
                              "over intz.MAX_DIGITS = 1000\n",
    "homology._TUPLE_CAP": "error: bound overflow: the word window needs at least 200002 words, "
                           "over homology._TUPLE_CAP = 200000\n",
    "homology._TUPLE_CAP cobar": "error: bound overflow: the word window needs at least "
                                 "200002 words, over homology._TUPLE_CAP = 200000\n",
}


class TestBoundOverflow:
    """Every work limit refuses through errors.bound_overflow, whose one
    line names the limit and its value."""

    @pytest.mark.parametrize("limit,argv", LIMIT_CASES, ids=[c[0] for c in LIMIT_CASES])
    def test_refusal_names_its_limit(self, limit, argv, capsys):
        pinned = PINNED_REFUSALS.get(limit)
        limit = limit.split()[0]
        module, name = limit.split(".")
        cap = getattr(importlib.import_module(f"hopfwitt.{module}"), name)
        start = time.perf_counter()
        rc, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 0.5
        assert (rc, out) == (2, "")
        assert err.startswith("error: bound overflow: ")
        assert err.endswith(f", over {limit} = {cap}\n") and err.count("\n") == 1
        assert pinned is None or err == pinned

    def test_refusal_text_lives_in_errors_only(self):
        holders = sorted(p.name for p in SRC.glob("*.py") if "bound overflow" in p.read_text())
        assert holders == ["errors.py"]

    def test_readme_limits_table_matches_the_code(self):
        """README's table under "Exit codes" has one row per limit that src/
        passes to errors.bound_overflow, found by ast, and each row states
        its limit's cap (1,000 or 10^12 as written there)."""
        readme = (SRC.parent.parent / "README.md").read_text()
        section = readme[readme.index("### Exit codes"):]
        rows = {}
        for line in section[:section.index("\n- `3`")].splitlines():
            cells = [c.strip() for c in re.split(r"(?<!\\)\|", line.strip().strip("|"))]
            if len(cells) == 4 and cells[0].startswith("`") and "." in cells[0]:
                base, _, exp = cells[2].replace(",", "").partition("^")
                rows[cells[0].strip("`")] = int(base) ** int(exp or 1)
        for limit, cap in rows.items():
            module, name = limit.split(".")
            assert getattr(importlib.import_module(f"hopfwitt.{module}"), name) == cap, limit
        passed = set()
        for path in SRC.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "bound_overflow":
                    limit = node.args[2]
                    assert isinstance(limit, ast.Constant), f"{path.name}:{node.lineno}"
                    passed.add(limit.value)
        assert passed == set(rows)


N4000 = "9" * 4000
X5000 = "x" * 5000
# Outside input that refusals echoed whole, or, where a cube of it passed
# Python's limit on int/str conversion, that ended in a traceback.
OUTSIDE_INPUT = [
    ("coeffs-text", ["witt", "add", "--trunc", "1", "--ring", "Z", "--coeffs", X5000,
                     "--coeffs2", "1"]),
    ("ring-text", ["witt", "add", "--trunc", "1", "--ring", X5000, "--coeffs", "1",
                   "--coeffs2", "1"]),
    ("truncated-text", ["homology", "bar", "--algebra", "truncated:" + X5000, "--stages", "2"]),
    ("series-fields", ["intz", "pair", "C(x,1)", "--series", ",".join(["x"] * 3000)]),
    ("payload-path", ["intz", "mul", "@" + "p" * 5000, "1"]),
    ("frob-n", ["witt", "frob", "--trunc", "1,2", "--ring", "Z", "--coeffs", "1,2",
                "--n", N4000]),
    ("kernel-n", ["witt", "kernel", "--trunc", "1,2", "--ring", "Zmod:4", "--n", N4000,
                  "--t", "1", "--stable"]),
    ("kernel-modulus", ["witt", "kernel", "--trunc", "1,2", "--ring", f"Zmod:{N4000}",
                        "--n", "2", "--t", "1"]),
    ("frobtest-primes", ["intz", "frobtest", "C(x,2)", "--primes", "9" * 999]),
    ("rees-bound", ["filt", "rees", "--bound", N4000]),
    ("drinfeld-m", ["filt", "drinfeld", "--m", N4000, "--n", "1"]),
    ("truncated-1434", ["homology", "bar", "--algebra", "truncated:" + "9" * 1434,
                        "--stages", "2"]),
    ("truncated-4000", ["homology", "bar", "--algebra", "truncated:" + N4000, "--stages", "2"]),
    ("divided-power-1434", ["homology", "cobar", "--coalgebra", "divided-power:" + "9" * 1434]),
    ("divided-power-4000", ["homology", "cobar", "--coalgebra", "divided-power:" + N4000]),
    # argparse's own refusals, past TestArgumentSweep's argvs: a bad group
    # name, unrecognized arguments
    ("group-choice", [X5000]),
    ("man-extra", ["man", "z" * 5000]),
    ("man-extra-wide", ["man", "\U0001f642" * 5000]),
    ("unknown-option", ["intz", "mul", "C(x,1)", "C(x,1)", "--" + "q" * 5000]),
]


class TestOutsideInputQuoted:
    """A refusal quotes outside text as a 20-character slice and states an
    integer of more than 20 digits by its size (errors.shown)."""

    @pytest.mark.parametrize("argv", [argv for _, argv in OUTSIDE_INPUT],
                             ids=[name for name, _ in OUTSIDE_INPUT])
    def test_refusal_is_one_short_line(self, argv, capsys):
        rc, out, err = run_cli(argv, capsys)
        assert (rc, out) == (2, "")
        assert err.count("\n") == 1 and len(err.encode()) < 200
        assert not err.startswith("error: bound overflow: ") or re.fullmatch(
            r"error: bound overflow: .+ needs .+, over \w+\.\w+ = \d+\n", err)

    def test_argparse_message_keeps_its_ends(self, capsys):
        # a short message is argparse's own; a long one keeps its first and
        # last 60 characters, with the bad choice's list, and one line
        argv = ["intz", "mul", "C(x,1)", "C(x,1)", "--format"]
        assert run_cli(argv + ["nosuch"], capsys) == (2, "", (
            "error: argument --format: invalid choice: 'nosuch' (choose from 'text', 'json')\n"))
        assert run_cli(argv + [X5000], capsys) == (2, "", (
            "error: argument --format: invalid choice: 'xxxxxxxxxxxxxxxxxxxxxxxx "
            "...(4946 characters)... " + "x" * 30 + "' (choose from 'text', 'json')\n"))
        assert run_cli(["man", "a\nb"], capsys) == (
            2, "", "error: unrecognized arguments: a\\nb\n")

    @pytest.mark.parametrize("x,text", [
        (10 ** 20 - 1, "9" * 20), (-(10 ** 20) + 1, "-" + "9" * 20), (10 ** 20, "~2^66"),
        (-(2 ** 100), "~-2^100"), ("x" * 20, repr("x" * 20)),
        ("x" * 21, repr("x" * 20) + "... (21 characters)"),
    ])
    def test_shown(self, x, text):
        assert shown(x) == text


SWEEP_VALUES = {"x": X5000, "nines": "9" * 5000, "path": "@" + "p" * 5000,
                "minus-nines": "-" + "9" * 5000}


def sweep_argvs():
    """(id, argv) for each of SWEEP_VALUES in each argument that takes a
    value, of each leaf, in place of that argument in the leaf's golden
    argv (an option it lacks is appended)."""
    golden = {}
    for _, argv in CASES:
        golden.setdefault(tuple(argv[:2]), argv)
    positionals = {}
    for group, command, action in parser_actions(cli.build_parser()):
        if action.nargs == 0:
            continue
        base = golden[group, command]
        if action.option_strings:
            name = action.option_strings[0]
            if name in base:
                i = base.index(name)
                base = base[:i] + base[i + 2:]
        else:
            name = action.dest
            seen = positionals.get((group, command), 0)
            positionals[group, command] = seen + 1
            k = 2 + seen  # past group and command
        for label, value in SWEEP_VALUES.items():
            argv = base + [name, value] if action.option_strings else (
                base[:k] + [value] + base[k + 1:])
            yield f"{group}-{command}-{name.lstrip('-')}-{label}", argv


SWEEP = list(sweep_argvs())


class TestArgumentSweep:
    """Every argument of every leaf, inside an otherwise valid argv, given
    5,000 characters of text, nines, payload path or negative numeral:
    exit 0, or 2 with one short stderr line, within a second."""

    @pytest.mark.parametrize("argv", [argv for _, argv in SWEEP], ids=[i for i, _ in SWEEP])
    def test_long_value(self, argv, capsys):
        start = time.perf_counter()
        rc, _, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 1
        assert rc in (0, 2)
        assert err == "" if rc == 0 else (
            err.count("\n") == 1 and err.endswith("\n") and len(err.encode()) < 200)


class TestNamedArguments:
    """--ring, --algebra and --coalgebra read through errors.read_named,
    whose table keys are the documented syntax."""

    @pytest.mark.parametrize("flag,argv", [
        ("--ring", ["witt", "ghost", "--trunc", "1", "--coeffs", "1", "--ring"]),
        ("--algebra", ["homology", "bar", "--stages", "1", "--algebra"]),
        ("--coalgebra", ["homology", "cobar", "--coalgebra"]),
    ], ids=["ring", "algebra", "coalgebra"])
    def test_help_lists_the_keys_the_reader_accepts(self, flag, argv, capsys):
        helps = {a.help for _, _, a in parser_actions(cli.build_parser())
                 if flag in a.option_strings}
        rc, _, err = run_cli(argv + ["nosuch"], capsys)
        assert rc == 2
        assert err.startswith(f"error: unknown {flag[2:]} 'nosuch'; choose ")
        assert helps == {err.rstrip("\n").split("; choose ", 1)[1]}

    @pytest.mark.parametrize("spec,err", [
        ("Fq:2", "ring syntax is Fq:p,k, got 'Fq:2'"),
        ("Fq:2,2,2", "ring syntax is Fq:p,k, got 'Fq:2,2,2'"),
        ("Z:", "ring syntax is Z, got 'Z:'"),
        ("Zmod", "ring syntax is Zmod:m, got 'Zmod'"),
        ("Zmod:", "bad m in Zmod:m: ''"),
        ("Fq:2,x", "bad k in Fq:p,k: 'x'"),
        ("Q", "unknown ring 'Q'; choose Z | Zmod:m | Fq:p,k | Poly"),
    ])
    def test_ring_spec_refusals(self, spec, err):
        with pytest.raises(InputError) as exc:
            ring_from_spec(spec)
        assert str(exc.value) == err

    def test_spacing_around_a_spec_is_ignored(self):
        assert ring_from_spec(" Zmod:8 ") == ring_from_spec("Zmod:8")

    @pytest.mark.parametrize("name", ["cli.py", "rings.py"])
    def test_no_int_call(self, name):
        """Integers from outside go through errors.read_int, which refuses
        in one short line."""
        tree = ast.parse((SRC / name).read_text())
        assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "int"] == []


class TestWindowedWords:
    """Windows whose words the parent enumerated in full before filtering."""

    def test_bar_stages_past_the_weight_bound_add_nothing(self, capsys):
        # every letter has weight >= 1, so words longer than 2 leave the window
        base = ["homology", "bar", "--algebra", "truncated:20", "--weight-bound", "2"]
        rc, long_out, _ = run_cli(base + ["--stages", "7"], capsys)
        assert rc == 0
        _, short_out, _ = run_cli(base + ["--stages", "2"], capsys)
        assert long_out == short_out

    def test_twenty_stage_bar_window_answers_quickly(self, capsys, monkeypatch):
        # 19 s and 614 MB while each differential was a dense matrix
        from hopfwitt import homology

        built = []
        real = homology.bar_complex
        monkeypatch.setattr(homology, "bar_complex", lambda *a: built.append(real(*a)) or built[-1])
        start = time.perf_counter()
        rc, out, _ = run_cli(["homology", "bar", "--algebra", "truncated:3",
                              "--stages", "20", "--weight-bound", "20"], capsys)
        assert time.perf_counter() - start < 3.0
        assert rc == 0
        (C,) = built
        free: dict[int, int] = {}
        for line in out.splitlines()[1:]:
            q, w, r, _ = line.split("\t")
            free[int(w)] = free.get(int(w), 0) + (-1) ** int(q) * int(r)
        assert free == {w: sum((-1) ** q * r for q, r in qs.items()) for w, qs in C.ranks.items()}

    def test_cobar_divided_power_is_polynomial_ext(self, capsys):
        # the cobar complex of the divided-power coalgebra computes
        # Ext over Z[y]: Z in (0, 0) and (1, 1), nothing else
        rc, out, _ = run_cli(["homology", "cobar", "--coalgebra", "divided-power:8",
                              "--weight-bound", "8"], capsys)
        assert rc == 0
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        cells = {(int(q), int(w)) for q, w, _, _ in rows}
        assert cells == {(0, 0)} | {(2 * w - n, w) for w in range(1, 9)
                                    for n in range(1, w + 1)}
        assert all(tor == "-" for *_, tor in rows)
        assert {(int(q), int(w)) for q, w, r, _ in rows if r != "0"} == {(0, 0), (1, 1)}

    def test_cobar_divided_power_14_fits_the_cap(self, capsys):
        # the window forms 2^14 - 1 words, one per composition of a weight up
        # to 14; counting 14 per word extended, the cap refused it
        start = time.perf_counter()
        rc, out, err = run_cli(["homology", "cobar", "--coalgebra", "divided-power:14",
                                "--weight-bound", "14"], capsys)
        assert time.perf_counter() - start < 3.0
        assert (rc, err) == (0, "")
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        assert len(rows) == 1 + 14 * 15 // 2
        assert all(tor == "-" for *_, tor in rows)
        assert {(int(q), int(w)) for q, w, r, _ in rows if r != "0"} == {(0, 0), (1, 1)}

    def test_bar_weight_bound_above_stages_is_refused(self, capsys):
        # the 3-stage window cut the strands of weights 4-6 and printed ranks
        # 2, 3 and 1 at (11,4), (13,5) and (15,6); Tor of Z[x]/x^3 there is Z
        # at (11,4) and (16,6) only, as the 6-stage window prints
        base = ["homology", "bar", "--algebra", "truncated:3", "--weight-bound", "6"]
        rc, out, err = run_cli(base + ["--stages", "3"], capsys)
        assert (rc, out) == (2, "")
        assert err == ("error: weight bound 6 needs words of length 6, above stages 3: "
                       "the window would cut the strands of its top weights\n")
        rc, out, _ = run_cli(base + ["--stages", "6"], capsys)
        assert rc == 0
        rows = [tuple(map(int, line.split("\t")[:3])) for line in out.splitlines()[1:]]
        assert {(q, w) for q, w, r in rows if r and w >= 4} == {(11, 4), (16, 6)}


def _json_call_sites(node, scope):
    """The dotted def or class around each attribute named dumps under
    node; in src/ that is json.dumps."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        elif isinstance(child, ast.Attribute) and child.attr == "dumps":
            yield scope
        yield from _json_call_sites(child, inner)


# JSON goldens in the one encoding; `filt rees` without --t prints the
# presentation, whose unsorted key order its goldens pin
CANONICAL_JSON = [(name, argv) for name, argv in CASES if "json" in argv
                  and not (argv[:2] == ["filt", "rees"] and "--t" not in argv)]


class TestOneEncoder:
    def test_json_is_encoded_in_one_place(self):
        """cli._json_line encodes every JSON output with sorted keys and
        compact separators; only the filtered-module form, which from_json
        reads back, and the Rees presentation keep their own key order."""
        sites = [site for path in SRC.glob("*.py")
                 for site in _json_call_sites(ast.parse(path.read_text()), path.stem)]
        importers = [path.stem for path in SRC.glob("*.py")
                     if re.search(r"^(import|from) json\b", path.read_text(), re.M)]
        assert sorted(sites) == ["cli._json_line", "filtration.FilteredModule.to_json",
                                 "filtration.GradedAlgebraPresentation.to_json"]
        assert sorted(importers) == ["cli", "filtration"]

    @pytest.mark.parametrize("name,argv", CANONICAL_JSON, ids=[c[0] for c in CANONICAL_JSON])
    def test_json_golden_is_sorted_and_compact(self, name, argv):
        out = (GOLDEN / f"{name}.out").read_text()
        assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"


class TestJsonRoundTrips:
    def test_element_json(self, capsys):
        rc, out, _ = run_cli(["intz", "mul", "C(x,2)", "C(x,3)",
                              "--format", "json"], capsys)
        assert rc == 0
        coeffs = json.loads(out)["coeffs"]
        f = intz.IntZElement({int(n): int(c) for n, c in coeffs.items()})
        assert f == intz.mult(intz.IntZElement.basis(2), intz.IntZElement.basis(3))

    def test_witt_vector_json(self, capsys):
        rc, out, _ = run_cli(["witt", "add", "--trunc", "1,2", "--ring", "Z",
                              "--coeffs", "1,2", "--coeffs2", "3,4",
                              "--format", "json"], capsys)
        assert rc == 0
        assert json.loads(out) == {"coeffs": {"1": "4", "2": "3"}, "ring": {"kind": "Z"},
                                   "trunc": [1, 2]}

    def test_homology_json_matches_text_table(self, capsys):
        argv = ["homology", "bar", "--algebra", "truncated:3", "--stages", "3"]
        _, text, _ = run_cli(argv, capsys)
        _, blob, _ = run_cli(argv + ["--format", "json"], capsys)
        cells = json.loads(blob)["cells"]
        lines = text.splitlines()[1:]
        assert len(cells) == len(lines)
        for cell, line in zip(cells, lines):
            q, w, r, tor = line.split("\t")
            assert cell["degree"] == int(q)
            assert cell["weight"] == int(w)
            assert cell["rank"] == int(r)
            assert (tor == "-") == (cell["torsion"] == [])

    def test_comul_json(self, capsys):
        rc, out, _ = run_cli(["intz", "comul", "C(x,2)", "--format", "json"], capsys)
        assert rc == 0
        assert out == '{"coeffs":{"0,2":"1","1,1":"1","2,0":"1"}}\n'
        coeffs = json.loads(out)["coeffs"]
        te = intz.TensorElement({tuple(map(int, k.split(","))): int(c)
                                 for k, c in coeffs.items()})
        assert te == intz.comult(intz.IntZElement.basis(2))

    def test_unipoly_json(self, capsys):
        rc, out, _ = run_cli(["witt", "unipoly", "--trunc", "1,2", "--op",
                              "frobenius", "--n", "2", "--format", "json"],
                             capsys)
        assert rc == 0
        obj = json.loads(out)
        assert obj["n"] == 2
        assert sorted(obj["polys"]) == ["1"]


def test_witt_add_over_poly_prints_the_universal_sum(capsys):
    """Over Z[..] the sum of generic vectors is the universal sum, printed
    through PolynomialRing.element_str."""
    rc, out, _ = run_cli(["witt", "add", "--trunc", "1,2", "--ring", "Poly",
                          "--coeffs", "a1,a2", "--coeffs2", "b1,b2"], capsys)
    assert (rc, out) == (0, "(a1+b1,-a1*b1+a2+b2)\n")
    rc, uni, _ = run_cli(["witt", "unipoly", "--op", "sum", "--trunc", "1,2"], capsys)
    assert rc == 0
    assert out.strip("()\n").split(",") == [line.split(": ")[1] for line in uni.splitlines()]


WITT_OPTIONS = {"--trunc", "--ring", "--format"}
OPTIONS = {
    ("intz", "mul"): {"--format"},
    ("intz", "comul"): {"--format"},
    ("intz", "antipode"): {"--format"},
    ("intz", "eval"): {"--format"},
    ("intz", "pair"): {"--series", "--format"},
    ("intz", "frobtest"): {"--primes", "--format"},
    ("witt", "add"): WITT_OPTIONS | {"--coeffs", "--coeffs2"},
    ("witt", "mul"): WITT_OPTIONS | {"--coeffs", "--coeffs2"},
    ("witt", "ghost"): WITT_OPTIONS | {"--coeffs"},
    ("witt", "frob"): WITT_OPTIONS | {"--coeffs", "--n"},
    ("witt", "versch"): WITT_OPTIONS | {"--coeffs", "--n"},
    ("witt", "teich"): WITT_OPTIONS | {"--r"},
    ("witt", "twisted"): WITT_OPTIONS | {"--coeffs", "--n", "--t"},
    ("witt", "kernel"): WITT_OPTIONS | {"--n", "--t", "--stable"},
    ("witt", "unipoly"): {"--trunc", "--op", "--n", "--format"},
    ("filt", "tensor"): {"--format"},
    ("filt", "gr"): {"--format"},
    ("filt", "rees"): {"--bound", "--t", "--format"},
    ("filt", "drinfeld"): {"--m", "--n", "--format"},
    ("homology", "bar"): {"--algebra", "--stages", "--weight-bound", "--format"},
    ("homology", "cobar"): {"--coalgebra", "--weight-bound", "--format"},
}


class TestParserSurface:
    """Every option the parser accepts, pinned: a new or removed flag
    is a deliberate change to this table."""

    def test_option_set_is_pinned(self):
        got = {(g, c, name) for g, c, a in parser_actions(cli.build_parser())
               for name in a.option_strings}
        assert got == {(g, c, name) for (g, c), names in OPTIONS.items() for name in names}

    def test_every_argument_has_help(self):
        for g, c, a in parser_actions(cli.build_parser()):
            assert a.help, (g, c, a.option_strings or a.dest)

    @pytest.mark.parametrize("argv", [
        ["intz", "pair", "C(x,2)", "--series", "1,3,3,1", "--var", "v"],
        ["intz", "pair", "C(x,2)", "--series", "1,3,3,1", "--trunc", "4"],
        ["filt", "drinfeld", "--m", "2", "--n", "2", "--bound", "4"],
        ["witt", "kernel", "--trunc", "1,2", "--ring", "Zmod:2", "--n", "2", "--t", "1",
         "--bound", "10"],
        # a degree bound below 2W cut the cobar window and printed Z at
        # (6,4) and Z^3 at (6,5); at 2W or more it changed nothing
        ["homology", "cobar", "--coalgebra", "divided-power:5", "--weight-bound", "5",
         "--degree-bound", "6"],
    ], ids=["pair-var", "pair-trunc", "drinfeld-bound", "kernel-bound", "cobar-degree-bound"])
    def test_removed_options_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: unrecognized arguments: ")
        assert err.count("\n") == 1 and err.endswith("\n")


class TestManPage:
    def test_structure_and_coverage(self, capsys):
        rc, out, err = run_cli(["man"], capsys)
        assert rc == 0
        assert out.startswith("HOPFWITT(1)")
        for group, leaf in [("intz", "pair"), ("witt", "kernel"),
                            ("filt", "drinfeld"), ("homology", "cobar")]:
            assert f"hopfwitt {group} {leaf}" in out
        assert "--stable" in out
        assert "EXIT STATUS" in out

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(["man"], capsys)
        _, second, _ = run_cli(["man"], capsys)
        assert first == second


class TestProcessEntry:
    def test_module_invocation(self, tmp_path):
        r = subprocess.run(
            [sys.executable, "-m", "hopfwitt.cli", "intz", "mul",
             "C(x,1)", "C(x,1)"],
            capture_output=True, text=True, cwd=tmp_path, env=child_env())
        assert r.returncode == 0
        assert r.stdout == (GOLDEN / "intz-mul.out").read_text()

    def test_witt_does_not_import_intz(self, tmp_path):
        code = "import sys, hopfwitt.witt\nprint('hopfwitt.intz' in sys.modules)\n"
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, cwd=tmp_path, env=child_env())
        assert r.returncode == 0
        assert r.stdout == "False\n"

    @pytest.mark.parametrize("argv,absent", [
        (["intz", "mul", "C(x,1)", "C(x,1)"],
         {"witt", "rings", "homology", "filtration", "linalg"}),
        (["witt", "add", "--trunc", "1,2", "--coeffs", "1,2", "--coeffs2", "3,4"],
         {"intz", "homology", "filtration", "linalg"}),
        (["homology", "bar", "--algebra", "truncated:3", "--stages", "3"],
         {"witt", "rings", "filtration"}),
        (["filt", "rees", "--bound", "3"], {"witt", "rings", "homology"}),
        (["man"], None),
    ], ids=["intz-mul", "witt-add", "homology-bar", "filt-rees", "man"])
    def test_command_loads_only_its_group(self, argv, absent, tmp_path):
        """-X importtime reports every module the child imports, so the
        hopfwitt names in it are the package's entries in its sys.modules."""
        r = subprocess.run([sys.executable, "-X", "importtime", "-m", "hopfwitt.cli", *argv],
                           capture_output=True, text=True, cwd=tmp_path, env=child_env())
        assert r.returncode == 0 and r.stdout
        loaded = {line.rsplit("|", 1)[-1].strip() for line in r.stderr.splitlines()
                  if line.startswith("import time:")}
        ours = {name.split(".", 1)[1] for name in loaded if name.startswith("hopfwitt.")}
        assert "hopfwitt" in loaded
        if absent is None:
            assert ours == {"errors"}
        else:
            group = {"filt": "filtration"}.get(argv[0], argv[0])
            assert group in ours and not ours & absent
            # Z[vars] runs on ints, so no command pays for these imports
            assert not loaded & {"fractions", "decimal"}

    def test_cli_imports_no_library_module_at_load(self):
        """Only the handlers import library modules; at module level cli
        takes nothing from the package but its errors."""
        def module_level(node):
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    yield child
                    yield from module_level(child)

        tree = ast.parse((SRC / "cli.py").read_text())
        assert [n.module for n in module_level(tree)
                if isinstance(n, ast.ImportFrom) and n.level] == ["errors"]

    def test_exit_code_three_in_process(self, tmp_path):
        """Out-of-contract input to a real process exits 2, not 3.

        The in-process exit-3 check is
        TestExitCodes::test_falsification_exits_three; the process-level one
        is test_falsification_exits_three_in_process.
        """
        # kernel over Z is not enumerable: input error, not falsification
        r = subprocess.run(
            [sys.executable, "-m", "hopfwitt.cli", "witt", "kernel",
             "--trunc", "1", "--ring", "Z", "--n", "2", "--t", "1"],
            capture_output=True, text=True, cwd=tmp_path, env=child_env())
        assert r.returncode == 2
        assert "enumerate" in r.stderr

    def test_falsification_exits_three_in_process(self, tmp_path):
        """A falsified invariant makes the __main__ entry point exit 3."""
        code = (
            "import runpy, sys\n"
            "from hopfwitt import intz\n"
            "intz.frobenius_mod_p_identity = lambda f, p: False\n"
            "sys.argv = ['hopfwitt', 'intz', 'frobtest', 'C(x,1)']\n"
            "runpy.run_module('hopfwitt.cli', run_name='__main__')\n"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, cwd=tmp_path, env=child_env())
        assert r.returncode == 3
        assert r.stdout == ""
        assert r.stderr.startswith("falsified:")
