"""Command line surface: exit codes, report shape, determinism, and
re-verification of serialized witnesses by independent recomputation.
"""

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import congruent_copy, padded_copy, rand_minimal_smr
from ncconvex import butterfly, cli, matkit, ncalg, partialcvx, realize, \
    xycvx
from ncconvex.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_NEGATIVE,
    EXIT_OK,
    strip_timings,
)

DATA = Path(cli.__file__).parent / "data"
TEST_DATA = Path(__file__).parent / "data"


def unmat(rows):
    return np.array([[complex(a, b) for a, b in row] for row in rows])


def unvec(rows):
    return np.array([complex(a, b) for a, b in rows])


def run_out(tmp_path, name, argv):
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out)])
    return code, json.loads(out.read_text())


# ---------------------------------------------------------------------------
# eval

def test_eval_intro(tmp_path, capsys):
    code, rep = run_out(tmp_path, "eval.json", [
        "eval", str(DATA / "intro_poly.txt"), str(DATA / "intro_tuple.json")])
    assert code == EXIT_OK
    got = capsys.readouterr().out
    assert "hermiticity residual: 38" in got
    val = unmat(rep["results"]["value"])
    assert np.array_equal(val, np.array([[69, 99], [61, 99]], dtype=complex))


def test_eval_wrong_counts(tmp_path, capsys):
    bad = tmp_path / "bad_tuple.json"
    bad.write_text(json.dumps({"n": 2, "A": [], "X": [
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}))
    code = cli.main(["eval", str(DATA / "intro_poly.txt"), str(bad)])
    assert code == EXIT_INPUT
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "[1, 2]", '"x"', '{"n": "abc"}', '{"n": -3}', '{"n": 0}', '{"n": 2.5}',
    '{"n": true}', '{"n": NaN}', '{"A": 5}', '{"n": 10000000}',
    pytest.param('{"A": [[[[1%s, 0]]]]}' % ("0" * 400),
                 id="entry-too-large-for-float")])
def test_eval_bad_tuple_file_exits_input(tmp_path, capsys, text):
    """A tuple file that is not an object, whose size n is not a positive
    integer at most cli.MAX_TUPLE_N, or with an entry no float holds, is
    bad input (exit 2) with a message, before anything of size n is
    allocated."""
    poly = tmp_path / "const.txt"
    poly.write_text("vars a: | x:\n2 * 1\n")
    bad = tmp_path / "bad_tuple.json"
    bad.write_text(text)
    assert cli.main(["eval", str(poly), str(bad)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err


@pytest.mark.parametrize("text", [
    '{"A": [5]}', '{"A": [null]}', '{"A": [{}]}', '{"A": [[]]}',
    '{"A": [[[]]]}'])
def test_eval_bad_a_matrix_exits_input(tmp_path, capsys, text):
    """On a polynomial with one a-letter, a matrix entry that is not a
    list of rows, or a matrix of size 0, is bad input (exit 2)."""
    poly = tmp_path / "a.txt"
    poly.write_text("vars a: a | x:\n1 * a\n")
    bad = tmp_path / "bad_tuple.json"
    bad.write_text(text)
    assert cli.main(["eval", str(poly), str(bad)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err


def test_eval_tuple_size_without_matrices(tmp_path, capsys):
    poly = tmp_path / "const.txt"
    poly.write_text("vars a: | x:\n2 * 1\n")
    for n in ("2", "2.0"):
        good = tmp_path / "tuple.json"
        good.write_text('{"n": %s}' % n)
        assert cli.main(["eval", str(poly), str(good)]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[:2]
        assert [r.split() for r in rows] == [["2", "0"], ["0", "2"]]
    big = tmp_path / "big.json"
    big.write_text('{"n": %d}' % (cli.MAX_TUPLE_N + 1))
    assert cli.main(["eval", str(poly), str(big)]) == EXIT_INPUT
    assert "bound %d" % cli.MAX_TUPLE_N in capsys.readouterr().err


def test_eval_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("vars a: | x: x\n1 * x\nwhat\n")
    code = cli.main(["eval", str(bad), str(DATA / "intro_tuple.json")])
    assert code == EXIT_INPUT
    assert "line 3" in capsys.readouterr().err


def test_missing_file_is_input_error(capsys):
    code = cli.main(["eval", "/nonexistent/p.txt",
                     str(DATA / "intro_tuple.json")])
    assert code == EXIT_INPUT


# ---------------------------------------------------------------------------
# partial

def test_words_are_written_from_the_name_table():
    """_poly_json and format_poly write each word from the context's name
    table: the same keys, values and text as naming it letter by letter
    through VarContext.name, for multi-character names and the empty
    word ("1"), of scalar and matrix coefficients."""
    ctx = ncalg.VarContext(("a", "beta"), ("x1", "long_x"))
    words = [(), (0,), (1,), (2, 1, 3), (3, 1, 2), (3, 3), (1, 2, 0, 3, 1)]
    rng = np.random.default_rng(14)
    p = ncalg.FreePoly.from_terms(ctx, {w: complex(*rng.normal(size=2))
                                        for w in words})

    def name(w):
        return " ".join(ctx.name(i) for i in w) or "1"

    assert cli._poly_json(p) == {name(w): matkit.jmat(p.scalar_coeff(w))
                                 for w in p.words()}
    lines = ["vars a: a beta | x: x1 long_x"] + [
        "%s * %s" % (ncalg.format_complex(p.scalar_coeff(w)), name(w))
        for w in p.words()]
    assert ncalg.format_poly(p) == "\n".join(lines) + "\n"
    assert ncalg.parse_poly(ncalg.format_poly(p)).words() == p.words()
    blocks = ncalg.FreePoly.from_terms(
        ctx, {w: rng.normal(size=(2, 1)) + 0j for w in words})
    assert cli._poly_json(blocks) == {name(w): matkit.jmat(blocks.coeffs[w])
                                      for w in blocks.words()}


def test_partial_xax_positive(tmp_path):
    code, rep = run_out(tmp_path, "p.json", [
        "partial", str(DATA / "xax_poly.txt"),
        "--sizes", "1,2", "--samples", "8", "--seed", "1"])
    assert code == EXIT_OK
    res = rep["results"]
    bf = res["butterfly_poly"]
    assert bf["k"] == 1
    assert bf["w_psd_at_zero"]
    assert list(bf["w"]) == ["a"]
    assert list(bf["ell"]) == ["x"]
    assert bf["fbar"] == {}
    for chunk in res["hessian_scan"]["per_size"]:
        assert "witness" not in chunk
        if not chunk["empty"]:
            assert chunk["min_lambda"] >= -1e-8


def test_partial_xax_sharpness_witness_reverifies(tmp_path):
    code, rep = run_out(tmp_path, "p.json", [
        "partial", str(DATA / "xax_poly.txt"),
        "--sizes", "2", "--samples", "25", "--seed", "3"])
    assert code == EXIT_OK
    loc = rep["results"]["localizing_scan"]
    # the scan ends at its witness, at most one point per probe
    assert 1 <= loc["checked"] <= 25
    wit = loc["sharpness_witness"]
    assert wit["kind"] == "doubled-point"
    assert wit["quadratic_value"] < 0
    # independent recomputation from the serialized data
    p = ncalg.parse_poly((DATA / "xax_poly.txt").read_text())
    R = realize.linearize_poly(p)
    pt = wit["point"]
    t = ncalg.HermTuple(pt["n"], tuple(unmat(M) for M in pt["A"]),
                        tuple(unmat(M) for M in pt["X"]), validate=False)
    H = tuple(unmat(M) for M in wit["direction"])
    h = unvec(wit["h"])
    from ncconvex.partialcvx import partial_hessian
    quad = float(np.real(h.conj() @ partial_hessian(R, t, H) @ h))
    assert quad == pytest.approx(wit["quadratic_value"], rel=1e-8)


def test_partial_quartic_negative_with_midpoint_witness(tmp_path):
    code, rep = run_out(tmp_path, "p.json", [
        "partial", str(DATA / "x4_poly.txt"),
        "--sizes", "1,2", "--samples", "6"])
    assert code == EXIT_NEGATIVE
    entry = rep["results"]["not_convexible"]
    assert "degree 4" in entry["message"]
    wit = entry["witness"]
    assert wit["kind"] == "midpoint"
    assert wit["gap_lambda_min"] < 0
    # rebuild the gap from the report alone
    p = ncalg.parse_poly((DATA / "x4_poly.txt").read_text())
    A = tuple(unmat(M) for M in wit["A"])
    X1 = tuple(unmat(M) for M in wit["X1"])
    X2 = tuple(unmat(M) for M in wit["X2"])
    n = X1[0].shape[0]
    mid = tuple((a + b) / 2 for a, b in zip(X1, X2))

    def ev(X):
        return ncalg.eval_poly(p, ncalg.HermTuple(n, A, X, validate=False))

    gap = (ev(X1) + ev(X2)) / 2 - ev(mid)
    lam = float(np.linalg.eigvalsh(matkit.herm(gap))[0])
    assert lam == pytest.approx(wit["gap_lambda_min"], rel=1e-8)


def test_partial_xax_on_dom_region_is_negative(tmp_path):
    code, rep = run_out(tmp_path, "p.json", [
        "partial", str(DATA / "xax_poly.txt"),
        "--region", "dom", "--sizes", "2", "--samples", "25", "--seed", "2"])
    assert code == EXIT_NEGATIVE
    chunks = rep["results"]["hessian_scan"]["per_size"]
    wit = next(c["witness"] for c in chunks if "witness" in c)
    assert wit["kind"] == "hessian-negativity"
    assert wit["lambda_min"] < 0


def test_partial_realization_input(tmp_path):
    p = ncalg.parse_poly((DATA / "xax_poly.txt").read_text())
    R = realize.linearize_poly(p)
    rfile = tmp_path / "r.json"
    rfile.write_text(json.dumps(realize.realization_to_json(R)))
    code, rep = run_out(tmp_path, "p.json", [
        "partial", str(rfile), "--sizes", "1,2", "--samples", "6"])
    assert code == EXIT_OK
    assert rep["results"]["input"]["kind"] == "realization"
    assert rep["results"]["input"]["e"] == 4
    assert "butterfly" in rep["results"]


def linearization_file(tmp_path, name, edit=None):
    """The realization file of linearize_poly of DATA/<name>_poly.txt,
    after edit(R) when given."""
    p = ncalg.parse_poly((DATA / ("%s_poly.txt" % name)).read_text())
    R = realize.linearize_poly(p)
    if edit is not None:
        R = edit(R)
    rfile = tmp_path / ("%s_realization.json" % name)
    rfile.write_text(json.dumps(realize.realization_to_json(R)))
    return rfile


def assert_close_entries(got, want, rtol=1e-12, path="$"):
    """got == want, apart from floats, which agree to rtol relative to
    max(1, |want|): dicts with the same keys, lists of the same length,
    and every other value equal."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), path
        for key in want:
            assert_close_entries(got[key], want[key], rtol,
                                 "%s.%s" % (path, key))
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close_entries(g, w, rtol, "%s[%d]" % (path, i))
    elif isinstance(want, float):
        assert abs(got - want) <= rtol * max(1.0, abs(want)), \
            (path, got, want)
    else:
        assert got == want, path


def sharpness_quadratic_value(p, wit):
    """h* D h with D the central second difference of eval_poly along the
    witness's direction at its point, step 1e-3 (exact, up to rounding, at
    x-degree two)."""
    pt, eps = wit["point"], 1e-3
    A = tuple(unmat(M) for M in pt["A"])
    H = [unmat(M) for M in wit["direction"]]

    def at(s):
        X = tuple(unmat(M) + s * Hi for M, Hi in zip(pt["X"], H))
        return ncalg.eval_poly(p, ncalg.HermTuple(pt["n"], A, X,
                                                  validate=False))
    D = (at(eps) - 2 * at(0.0) + at(-eps)) / eps ** 2
    h = unvec(wit["h"])
    return float(np.real(h.conj() @ D @ h))


@pytest.mark.parametrize("region", ["default", "dom"])
@pytest.mark.parametrize("name", ["x4", "xax"])
def test_partial_linearization_file_scans_as_polynomial(tmp_path, name,
                                                        region):
    """A realization file that is already minimal with J^2 = I is not
    re-normalized, and a polynomial's is read back as one: the same exit
    code and scans as the polynomial it was written from (x4 exits 1 on
    its midpoint witness, xax takes the middle-matrix path), on the
    file's own realization, and a butterfly section exactly when the
    polynomial has one (xax, not x4)."""
    rfile = linearization_file(tmp_path, name)
    flags = ["--region", region]
    code_p, poly = run_out(tmp_path, "poly.json", [
        "partial", str(DATA / ("%s_poly.txt" % name))] + flags)
    code_r, real = run_out(tmp_path, "real.json",
                           ["partial", str(rfile)] + flags)
    assert code_r == code_p
    assert code_p == EXIT_NEGATIVE or name == "xax"
    poly, real = strip_timings(poly["results"]), strip_timings(real["results"])
    assert real["notes"] == [cli.READ_BACK_NOTE]
    # the read-back coefficients carry the realization's rounding, so the
    # numbers read from them (w(A)'s, ell's and p's in the Hessian scan at
    # every region, the midpoint gap's) agree up to 1e-12 relative to
    # max(1, |value|)
    assert_close_entries(real["hessian_scan"], poly["hessian_scan"])
    sections = ["butterfly"]
    if name == "x4":
        pc, rc = (poly["not_convexible"]["witness"],
                  real["not_convexible"]["witness"])
        for f in ("lambda_min", "gap_lambda_min"):
            if f in pc:
                assert abs(rc[f] - pc[f]) <= 1e-12 * max(1.0, abs(pc[f])), f
                rc[f] = pc[f]
        sections += ["not_convexible", "localizing_scan"]
        assert "butterfly" not in poly
    else:
        assert real["butterfly_poly"]["k"] == poly["butterfly_poly"]["k"]
        # xax's sharpness witness comes from the read-back w, whose
        # coefficient carries the realization's rounding
        assert_close_entries(real["localizing_scan"],
                             poly["localizing_scan"])
    for key in sections:
        assert real.get(key) == poly.get(key), key


@pytest.mark.parametrize("edit, note", [
    (padded_copy, "minimized input realization"),
    (lambda R: congruent_copy(R, np.diag(np.linspace(0.7, 1.4, R.e))),
     "symmetrized input realization"),
], ids=["padded", "congruent"])
def test_partial_notes_what_minimize_replaced(tmp_path, edit, note):
    flags = ["--sizes", "1,2", "--samples", "6"]
    want, _ = run_out(tmp_path, "poly.json",
                      ["partial", str(DATA / "xax_poly.txt")] + flags)
    rfile = linearization_file(tmp_path, "xax", edit)
    code, rep = run_out(tmp_path, "real.json", ["partial", str(rfile)] + flags)
    assert code == want
    assert rep["results"]["notes"] == [note, cli.READ_BACK_NOTE]
    assert rep["results"]["input"]["e"] == 4


@pytest.mark.parametrize("T", [[[[[0, 0]]]], []],
                         ids=["zero-T", "no-letters"])
def test_partial_realization_with_zero_x_range(tmp_path, T):
    # ran T = 0, so R_T is the empty matrix (k = 0); with no letters at
    # all the Krylov loops have no matrices to apply
    rfile = tmp_path / "r.json"
    rfile.write_text(json.dumps({"J": [[[1, 0]]], "S": [], "T": T,
                                 "c": [[1, 0]]}))
    code, rep = run_out(tmp_path, "p.json", [
        "partial", str(rfile), "--sizes", "1,2", "--samples", "2"])
    assert code == EXIT_OK
    # no point can be indefinite, so the scan draws none
    assert strip_timings(rep["results"]["localizing_scan"]) == {
        "checked": 0, "reason": "k = 0: R_T has no nonzero eigenvalue at "
        "any point, so none is indefinite"}


def test_partial_zero_function_realization_is_trivial(tmp_path, capsys):
    # c = 0: the Krylov reduction leaves no state, so r is zero and
    # convex in x, like a polynomial with no x-letter
    rfile = tmp_path / "r.json"
    rfile.write_text(json.dumps({
        "J": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]], "S": [],
        "T": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]],
        "c": [[0, 0], [0, 0]]}))
    code, rep = run_out(tmp_path, "p.json", ["partial", str(rfile)])
    assert code == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    results = rep["results"]
    assert "zero" in results["trivial"]
    assert results["input"]["e"] == 0
    assert results["notes"] == ["minimized input realization"]
    assert "hessian_scan" not in results


@pytest.mark.parametrize("source", ["minimized", "literal"])
def test_partial_e0_realization_json_is_trivial(tmp_path, capsys, source):
    # realization_to_json writes J = [] for e = 0; junmat reads it back as
    # the 0 x 0 matrix
    if source == "minimized":
        zero = realize.Realization.make(
            np.diag([1.0, -1.0]), [np.eye(2)], [np.diag([1.0, 0.0])],
            np.zeros(2))
        R0 = realize.minimize(zero)
        assert (R0.e, R0.h, R0.g) == (0, 1, 1)
        obj = realize.realization_to_json(R0)
        back = realize.realization_from_json(json.loads(json.dumps(obj)))
        assert (back.e, back.h, back.g) == (0, 1, 1)
        assert back.J.shape == (0, 0) and back.c.shape == (0,)
    else:
        obj = {"J": [], "S": [], "T": [], "c": []}
    rfile = tmp_path / "r.json"
    rfile.write_text(json.dumps(obj))
    code, rep = run_out(tmp_path, "p.json", ["partial", str(rfile)])
    assert code == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    assert "zero" in rep["results"]["trivial"]
    assert rep["results"]["input"]["e"] == 0


@pytest.mark.parametrize("J", [[[[0, 0]]], [[[1, 0], [0, 0]],
                                              [[0, 0], [1e-12, 0]]]],
                         ids=["zero", "relative-1e-12"])
def test_partial_singular_J_is_input_error(tmp_path, capsys, J):
    e = len(J)
    eye = [[[float(i == j), 0] for j in range(e)] for i in range(e)]
    rfile = tmp_path / "r.json"
    rfile.write_text(json.dumps({"J": J, "S": [], "T": [eye],
                                 "c": [[1, 0]] * e}))
    assert cli.main(["partial", str(rfile)]) == EXIT_INPUT
    assert "J is numerically singular" in capsys.readouterr().err


def test_partial_with_no_region_point_says_why(tmp_path, capsys):
    """When every size is empty, partial exits 3 with one stderr reason,
    and the report carries the same reason.  1/(-1 - a/10 - x/10) is
    rational, so it has no proof, and R_T = P^-1 is negative definite at
    --scale 0.6: the reason states the probe budget.  w = a - 1 of
    x a x - x x has lambda_min(w(A)) <= -0.4 there: every size is proved
    empty by the rayleigh form, with no draw, and the reason says so."""
    rfile = tmp_path / "minus_one.json"
    rfile.write_text(json.dumps({"J": [[[-1, 0]]], "S": [[[[0.1, 0]]]],
                                 "T": [[[[0.1, 0]]]], "c": [[1, 0]]}))
    code, rep = run_out(tmp_path, "p.json", [
        "partial", str(rfile), "--sizes", "1,2", "--samples", "2"])
    reason = ("no region point at any size (dom-plus at sizes 1,2: 2 probes "
              "of 500 draws each per size)")
    assert code == EXIT_INCONCLUSIVE
    assert capsys.readouterr().err == "inconclusive: %s\n" % reason
    assert rep["results"]["inconclusive"] == reason
    assert all(c == {"size": c["size"], "empty": True}
               for c in rep["results"]["hessian_scan"]["per_size"])
    poly = tmp_path / "xax_minus_xx.txt"
    poly.write_text("vars a: a | x: x\n1 * x a x\n-1 * x x\n")
    code, rep = run_out(tmp_path, "p.json", [
        "partial", str(poly), "--sizes", "1,2", "--samples", "2"])
    reason = ("no region point at any size (dom-plus at sizes 1,2: proved "
              "empty: lambda_min(M) <= -0.4 < -tol_psd max(1, 1.6) at every "
              "draw of norm <= 0.6, by the rayleigh form")
    assert code == EXIT_INCONCLUSIVE
    assert rep["results"]["inconclusive"].startswith(reason)
    assert capsys.readouterr().err == "inconclusive: %s\n" % (
        rep["results"]["inconclusive"])
    assert all(c["empty"] and c["proof"]["form"] == "rayleigh"
               for c in rep["results"]["hessian_scan"]["per_size"])
    assert rep["results"]["localizing_scan"]["checked"] == 0


def test_partial_with_every_size_proved_empty_says_so(tmp_path, capsys,
                                                     monkeypatch):
    """x4 without its midpoint witness: every size of dom+ is empty by
    the region's empty_proof, so partial exits 3, and the reason states
    that proof instead of a probe budget."""
    monkeypatch.setattr(butterfly, "midpoint_violation_search",
                        lambda p: None)
    code, rep = run_out(tmp_path, "p.json", [
        "partial", str(DATA / "x4_poly.txt"), "--sizes", "1,2",
        "--samples", "2"])
    results = rep["results"]
    assert code == EXIT_INCONCLUSIVE
    assert "witness" not in results["not_convexible"]
    chunks = results["hessian_scan"]["per_size"]
    assert [set(c) for c in chunks] == [{"size", "empty", "proof"}] * 2
    proof = chunks[0]["proof"]
    assert chunks[1]["proof"] == proof
    reason = results["inconclusive"]
    assert reason.startswith("no region point at any size (dom-plus at "
                             "sizes 1,2: proved empty: lambda_min(M) <= "
                             "%.6g < -tol_psd max(1, %.6g) at every draw of "
                             "norm <= 0.6" % (proof["lambda_bound"],
                                              proof["norm_bound"]))
    assert "draws each" not in reason
    assert capsys.readouterr().err == "inconclusive: %s\n" % reason


def realization_files():
    """(name, Realization) of the realization files the partial tests
    read, and of 40 seeded minimal realizations (e = 4, h = 1, g = 2)."""
    polys = {name: realize.linearize_poly(
        ncalg.parse_poly((DATA / ("%s_poly.txt" % name)).read_text()))
        for name in ("x4", "xax")}
    files = [("x4", polys["x4"]), ("xax", polys["xax"]),
             ("xax-padded", padded_copy(polys["xax"])),
             ("xax-congruent", congruent_copy(
                 polys["xax"], np.diag(np.linspace(0.7, 1.4, 4))))]
    make = realize.Realization.make
    files += [("zero-T", make(np.eye(1), [], [np.zeros((1, 1))], [1.0])),
              ("no-letters", make(np.eye(1), [], [], [1.0])),
              ("one-minus-2a-2x", make(np.eye(1), [2 * np.eye(1)],
                                       [2 * np.eye(1)], [1.0])),
              ("one-minus-tx", make(np.eye(1), [], [np.eye(1) / 0.6],
                                    [1.0])),
              # -1 / (1 + x): J11 = -1 is not PSD
              ("minus-one-over-one-plus-x", make(-np.eye(1), [],
                                                 [np.eye(1)], [1.0]))]
    files += [("smr%d" % seed, rand_minimal_smr(np.random.default_rng(seed),
                                                 e=4, h=1, g=2))
              for seed in range(40)]
    return files


def test_sqrt_domain_at_zero_of_a_realization_file(tmp_path):
    """For a realization file, sqrt_domain_at_zero is whether J11 is PSD,
    decided without a ButterflyCert; it agrees with the item-4 test of
    butterfly_build at the zero point of the realization partial scans."""
    seen = set()
    for name, R in realization_files():
        rfile = tmp_path / ("%s.json" % name)
        rfile.write_text(json.dumps(realize.realization_to_json(R)))
        code, rep = run_out(tmp_path, "p.json", [
            "partial", str(rfile), "--sizes", "1", "--samples", "1"])
        assert code in (EXIT_OK, EXIT_NEGATIVE, EXIT_INCONCLUSIVE), name
        Rm = realize.minimize(realize.realization_from_json(
            json.loads(rfile.read_text())))
        zero = ncalg.HermTuple(
            1, tuple(np.zeros((1, 1)) for _ in range(Rm.h)),
            tuple(np.zeros((1, 1)) for _ in range(Rm.g)))
        want = butterfly.butterfly_build(Rm).in_domain_item4(zero)
        if name == "x4":
            # read back as a polynomial of x-degree four, which has no
            # butterfly
            assert "butterfly" not in rep["results"]
            continue
        got = rep["results"]["butterfly"]["sqrt_domain_at_zero"]
        assert got == want, name
        seen.add((name.startswith("smr"), got))
    assert seen == {(False, True), (False, False), (True, True),
                    (True, False)}


def test_partial_ball_region(tmp_path):
    code, rep = run_out(tmp_path, "p.json", [
        "partial", str(DATA / "xax_poly.txt"),
        "--region", "ball:0.3", "--sizes", "1", "--samples", "5"])
    assert code in (EXIT_OK, EXIT_NEGATIVE)
    assert rep["results"]["hessian_scan"]["region"] == "ball:0.3"


def test_partial_ball_below_scale_is_not_empty(tmp_path):
    """The ball of radius 0.5 is drawn at scale min(--scale, 0.5): at the
    default scale, draws of n >= 2 all had norm above 0.5 and every size
    but 1 came out empty."""
    code, rep = run_out(tmp_path, "p.json", [
        "partial", str(DATA / "xax_poly.txt"), "--region", "ball:0.5"])
    assert code in (EXIT_OK, EXIT_NEGATIVE)
    chunks = rep["results"]["hessian_scan"]["per_size"]
    assert len(chunks) >= 2
    assert not any(c["empty"] for c in chunks)


@pytest.mark.parametrize("sign", [-1, 1], ids=["below", "above"])
def test_partial_tol_inv_decides_every_pencil(tmp_path, capsys, sign):
    """1 / (1 - t x) with t = (1 -+ 1e-12) / 0.6: draws of norm 0.6 put
    the pencil within about 1e-12 of singular, which --tol-inv 1e-14
    admits to dom.  The scans and the sharpness witness decide every
    pencil at that threshold, so partial reaches a verdict (above: with a
    witness at a point where R_T goes indefinite) instead of an internal
    error."""
    t = (1 + sign * 1e-12) / 0.6
    rfile = tmp_path / "r.json"
    rfile.write_text(json.dumps({"J": [[[1, 0]]], "S": [],
                                 "T": [[[[t, 0]]]], "c": [[1, 0]]}))
    code = cli.main(["partial", str(rfile), "--tol-inv", "1e-14",
                     "--sizes", "1"])
    out, err = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_NEGATIVE, EXIT_INCONCLUSIVE)
    assert "internal error" not in out + err


@pytest.mark.parametrize("seed", [4, 6, 10])
def test_sharpness_witness_outside_dom_is_a_reason(tmp_path, capsys, seed):
    """1 / (1 - 2a - 2x) at --tol-inv 0.3: e = 1, so the companion is the
    one-word shift companion, 0, whose pencil is J = 1, and the doubled
    point's pencil adds only the eigenvalue 1 to the bad point's.  At
    these seeds the first indefinite point gives the witness, with no
    outside_dom before it, and its value is 2 lambda_min(R_T)."""
    rfile = tmp_path / "r.json"
    rfile.write_text(RESOLVENT_1)
    code = cli.main(["partial", str(rfile), "--region", "dom",
                     "--tol-inv", "0.3", "--scale", "0.8", "--sizes", "1,2,3",
                     "--samples", "7", "--seed", str(seed)])
    out, err = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_NEGATIVE, EXIT_INCONCLUSIVE)
    assert "internal error" not in out + err
    scan = json.loads(out)["results"]["localizing_scan"]
    assert set(scan) == {"checked", "sharpness_witness", "time_s"}
    assert scan["sharpness_witness"]["quadratic_value"] == pytest.approx(
        2 * scan["sharpness_witness"]["bad_lambda"], rel=1e-8)


@pytest.mark.parametrize("seed", [4, 6, 10])
def test_doubled_point_outside_dom_is_a_reason(tmp_path, capsys, seed):
    """J = I, S = [[0, 1], [1, 0]], T = [[1, 1], [1, 0]], c = e_1 at
    --tol-inv 0.3: the companion passes dom only at scale 1/4, where its
    pencil has |eigenvalues| up to 1.40, and the doubled point's pencil
    then falls outside dom although its blocks lie in it.  The localizing
    scan records that as outside_dom and goes on: the NotInDomain does
    not end the run."""
    rfile = tmp_path / "r.json"
    rfile.write_text(json.dumps({
        "J": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
        "S": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]],
        "T": [[[[1, 0], [1, 0]], [[1, 0], [0, 0]]]], "c": [[1, 0], [0, 0]]}))
    code = cli.main(["partial", str(rfile), "--region", "dom",
                     "--tol-inv", "0.3", "--scale", "0.8", "--sizes", "1,2,3",
                     "--samples", "7", "--seed", str(seed)])
    out, err = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_NEGATIVE, EXIT_INCONCLUSIVE)
    assert "internal error" not in out + err
    scan = json.loads(out)["results"]["localizing_scan"]
    assert "numerically singular at tol_inv=0.3" in scan["outside_dom"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_xax_sharpness_witness_at_a_large_tol_inv(tmp_path, seed):
    """xax at --tol-inv 0.5: the sharpness witness decides no pencil, so
    the first indefinite point gives it, with no outside_dom before it
    (the pencil witness recorded one at each of these seeds), and it
    re-verifies by a central difference of eval_poly."""
    code, rep = run_out(tmp_path, "p.json", [
        "partial", str(DATA / "xax_poly.txt"), "--tol-inv", "0.5",
        "--sizes", "1,2,3", "--samples", "10", "--seed", str(seed)])
    assert code == EXIT_OK
    scan = rep["results"]["localizing_scan"]
    assert set(scan) == {"checked", "sharpness_witness", "time_s"}
    wit = scan["sharpness_witness"]
    p = ncalg.parse_poly((DATA / "xax_poly.txt").read_text())
    assert wit["quadratic_value"] < 0
    assert sharpness_quadratic_value(p, wit) == pytest.approx(
        wit["quadratic_value"], rel=1e-6)


def test_sos_partial_reads_no_pencil(tmp_path, monkeypatch):
    """On a sum of squares, partial judges every draw through w(A) and
    takes sqrt_domain_at_zero from the butterfly: no pencil is tested, no
    ButterflyCert is built, and no realization either."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import corpus
    calls = []
    for owner, name in ((realize.Region, "test"),
                        (butterfly, "butterfly_build"),
                        (realize, "linearize_poly")):
        def spy(*args, name=name, call=getattr(owner, name)):
            calls.append(name)
            return call(*args)
        monkeypatch.setattr(owner, name, spy)
    for item in corpus.build("partial-accept", 1, tmp_path, DATA)[:3]:
        code, rep = run_out(tmp_path, "p.json", item.argv)
        assert code == EXIT_OK
        results = rep["results"]
        assert results["localizing_scan"]["checked"] > 0
        assert results["butterfly"]["sqrt_domain_at_zero"] \
            == results["butterfly_poly"]["w_psd_at_zero"]
    assert calls == []


def test_sharpness_witness_reads_no_pencil(tmp_path, monkeypatch):
    """On xax and thin0-17 (partial-reject at seed 1), the localizing scan
    judges w(A) and builds its sharpness witness from w(A) and p: no
    region is tested on pencils, no R_T, resolvent or negativity witness
    is computed, and no realization is built."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import corpus
    calls = []
    for owner, name in ((realize.Region, "test"), (realize, "r_T"),
                        (partialcvx, "r_T"), (realize, "resolvent"),
                        (partialcvx, "resolvent"),
                        (realize, "linearize_poly"),
                        (partialcvx, "negativity_witness")):
        def spy(*args, name=name, call=getattr(owner, name), **kw):
            calls.append(name)
            return call(*args, **kw)
        monkeypatch.setattr(owner, name, spy)
    items = [item for item in corpus.build("partial-reject", 1, tmp_path,
                                           DATA)
             if item.name == "xax_poly.txt" or item.name.startswith("thin")]
    assert len(items) == 19
    for item in items:
        code, rep = run_out(tmp_path, "p.json", item.argv)
        assert code == EXIT_OK, item.name
        scan = rep["results"]["localizing_scan"]
        assert scan["checked"] == 1
        # xax's one point at seed 1 has w(A) PSD; every thin input's not
        if item.name == "xax_poly.txt":
            assert "sharpness_witness" not in scan
            continue
        wit = scan["sharpness_witness"]
        assert sharpness_quadratic_value(item.poly, wit) == pytest.approx(
            wit["quadratic_value"], rel=1e-6), item.name
    assert calls == []


def test_no_localizing_scan_where_the_region_is_proved_empty(
        tmp_path, monkeypatch):
    """x4 and deep0-4 (partial-reject, seed 1): dom+ is proved empty at
    every size, so the localizing scan has no PSD region to be sharp at
    and draws nothing (no negativity_witness call); at
    --region dom, where nothing is proved, x4 still scans."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import corpus
    calls = []
    def spy(*args, call=partialcvx.negativity_witness, **kw):
        calls.append("negativity_witness")
        return call(*args, **kw)
    monkeypatch.setattr(partialcvx, "negativity_witness", spy)
    items = [item for item in corpus.build("partial-reject", 1, tmp_path,
                                           DATA)
             if item.name == "x4_poly.txt" or item.name.startswith("deep")]
    assert len(items) == 6
    for item in items:
        code, rep = run_out(tmp_path, "p.json", item.argv)
        assert code == EXIT_NEGATIVE, item.name
        res = strip_timings(rep["results"])
        assert all("proof" in c for c in res["hessian_scan"]["per_size"])
        assert res["localizing_scan"] == {
            "checked": 0, "reason": cli.PROVED_EMPTY_REASON}
    assert calls == []
    code, rep = run_out(tmp_path, "p.json", items[0].argv + [
        "--region", "dom"])
    assert code == EXIT_NEGATIVE
    assert rep["results"]["localizing_scan"]["checked"] > 0
    assert "negativity_witness" in calls


@pytest.mark.parametrize("name, regions, proofs, want", [
    ("x4_poly.txt", ["default"], 1, EXIT_NEGATIVE),
    ("xax_poly.txt", ["default", "dom"], 0, EXIT_OK)])
def test_partial_makes_one_scan_region_and_one_proof(
        tmp_path, monkeypatch, name, regions, proofs, want):
    """At three sizes partial makes its Hessian-scan region once, and the
    localizing scan its dom region once; dom+ emptiness is decided once
    per run: x4's one prove_empty call proves every size, and xax's
    w(0) passes psd_mask, so its one call proves nothing.  --workers 1
    gives the report of no flag."""
    made, proved = [], []
    make, prove = cli.make_region, realize.prove_empty
    monkeypatch.setattr(cli, "make_region",
                        lambda kind, *args: made.append(kind)
                        or make(kind, *args))
    monkeypatch.setattr(realize, "prove_empty",
                        lambda *args: proved.append(prove(*args))
                        or proved[-1])
    argv = ["partial", str(DATA / name), "--sizes", "1,2,3"]
    code, rep = run_out(tmp_path, "p.json", argv)
    assert code == want
    assert made == regions
    assert len(proved) == 1
    assert sum(proof is not None for proof in proved) == proofs
    per_size = rep["results"]["hessian_scan"]["per_size"]
    assert [c["size"] for c in per_size] == [1, 2, 3]
    assert all(("proof" in c) == bool(proofs) for c in per_size)
    code1, rep1 = run_out(tmp_path, "w1.json", argv + ["--workers", "1"])
    assert (code1, strip_timings(rep1)) == (code, strip_timings(rep))


@pytest.mark.parametrize("tol, psd", [("1e-3", True), ("1e-8", False)])
def test_psd_at_zero_is_decided_at_tol_psd(tmp_path, tol, psd):
    """x a x - 1e-6 x x: w(0) = -1e-6 passes psd_mask at --tol-psd 1e-3
    and fails it at 1e-8.  w_psd_at_zero and sqrt_domain_at_zero follow
    --tol-psd, as the dom+ scan does: at 1e-3 every size has a region
    point and no emptiness proof."""
    pfile = tmp_path / "p.txt"
    pfile.write_text("vars a: a | x: x\n1 * x a x\n-1e-6 * x x\n")
    code, rep = run_out(tmp_path, "p.json", [
        "partial", str(pfile), "--tol-psd", tol])
    res = rep["results"]
    assert res["butterfly_poly"]["w_psd_at_zero"] is psd
    assert res["butterfly"]["sqrt_domain_at_zero"] is psd
    if psd:
        assert code == EXIT_OK
        assert not any(c["empty"] for c in res["hessian_scan"]["per_size"])


def test_x4_realization_file_tests_its_letters_once(tmp_path, monkeypatch):
    """x4's realization file is read back as its polynomial and its dom+ is
    proved empty, both from the letters N_l = J Z_l: they are tested for
    joint nilpotency once per run (Realization.letters)."""
    rfile = tmp_path / "x4.json"
    rfile.write_text(json.dumps(realize.realization_to_json(
        realize.linearize_poly(ncalg.parse_poly(
            (DATA / "x4_poly.txt").read_text())))))
    calls = []
    test = realize._jointly_nilpotent
    monkeypatch.setattr(realize, "_jointly_nilpotent",
                        lambda *args: calls.append(args) or test(*args))
    code, rep = run_out(tmp_path, "r.json", ["partial", str(rfile)])
    assert code == EXIT_NEGATIVE
    assert rep["results"]["notes"] == [cli.READ_BACK_NOTE]
    assert all("proof" in c
               for c in rep["results"]["hessian_scan"]["per_size"])
    assert len(calls) == 1


REGIONS = ["default", "dom", "kebab", "kebab-plus", "ball:0.5"]
TWO_LETTER = "vars a: a b | x: x\n1 * x a x\n1 * x b x\n1 * b x\n1 * x b\n"


def test_butterfly_polynomials_factor_no_pencil(tmp_path, monkeypatch):
    """A polynomial with a butterfly whose w(0) is PSD is judged through
    its PolyRegion at every region: on xax, x a x + x b x + b x + x b and
    three partial-accept items (seed 1), no region is tested on pencils,
    no R_T or resolvent is computed and no realization is built."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import corpus
    calls = []
    for owner, name in ((realize.Region, "test"), (realize, "r_T"),
                        (partialcvx, "r_T"), (realize, "resolvent"),
                        (partialcvx, "resolvent"),
                        (realize, "linearize_poly")):
        def spy(*args, name=name, call=getattr(owner, name), **kw):
            calls.append(name)
            return call(*args, **kw)
        monkeypatch.setattr(owner, name, spy)
    two = tmp_path / "two_letter.txt"
    two.write_text(TWO_LETTER)
    flags = ["--sizes", "1,2", "--samples", "4", "--seed", "1"]
    argvs = [["partial", str(DATA / "xax_poly.txt")] + flags,
             ["partial", str(two)] + flags]
    argvs += [item.argv for item in corpus.build("partial-accept", 1,
                                                 tmp_path, DATA)[:3]]
    for argv in argvs:
        for region in REGIONS:
            code, rep = run_out(tmp_path, "p.json",
                                argv + ["--region", region])
            assert code in (EXIT_OK, EXIT_NEGATIVE), (argv[1], region)
            assert rep["results"]["butterfly_poly"]["w_psd_at_zero"]
    assert calls == []


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", ["partial-accept", "partial-reject"])
def test_poly_region_scans_match_the_pencil_scans(tmp_path, monkeypatch,
                                                  workload, seed):
    """At --region dom, kebab and ball:0.5 each size of a butterfly
    polynomial's Hessian scan (through its PolyRegion) is convexity_verdict
    on Region(linearize_poly(p), kind): the same samples, midpoint pairs
    and violations, and a witness exactly when the pencil scan has one;
    the lambda_min to 1e-9 max(1, |lambda|)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import corpus
    seen = recorded_chunks(monkeypatch)
    items = corpus.build(workload, seed, tmp_path, DATA)
    for region in ("dom", "kebab", "ball:0.5"):
        for item in items:
            cli.main(item.argv + ["--region", region,
                                  "--out", str(tmp_path / "p.json")])
    checked = 0
    for (region, cfg, size, seed_seq, _), chunk in seen:
        if not isinstance(region, butterfly.PolyRegion):
            continue
        kind, radius = cfg.region, None
        if kind.startswith("ball:"):
            kind, radius = "ball", float(kind.split(":")[1])
        R = realize.linearize_poly(region.pb.p)
        ref = realize.Region(R, kind, cfg.tol_psd, cfg.tol_inv, radius)
        scale = cfg.scale if radius is None else min(cfg.scale, radius)
        verdict = partialcvx.convexity_verdict(
            ref, sizes=(size,), samples=cfg.samples,
            rng=np.random.default_rng(seed_seq), tol=cfg.tol_psd,
            scale=scale)
        assert ("witness" in chunk) == verdict.is_witness
        if verdict.is_witness:
            got, want = chunk["witness"]["lambda_min"], \
                verdict.probe.lambda_min
        else:
            assert (chunk["samples"], chunk["midpoint_pairs"],
                    chunk["midpoint_violations"]) == (
                verdict.samples, verdict.midpoint_pairs,
                verdict.midpoint_violations)
            got, want = chunk["min_lambda"], verdict.min_lambda
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
        checked += 1
    assert checked >= 3 * (25 if workload == "partial-accept" else 19)


def test_partial_builds_the_frame_once(tmp_path, monkeypatch):
    """The realization owns the frame of ran T (Realization.frame): one
    partial call builds it at most once, through the butterfly, both
    scans, the sharpness witness and the butterfly section.  On xax none
    of them needs it (the witness is the middle matrix's), so it is never
    built."""
    built = []
    build = realize._range_t_frame
    monkeypatch.setattr(realize, "_range_t_frame",
                        lambda R: built.append(R) or build(R))
    code, rep = run_out(tmp_path, "p.json", [
        "partial", str(DATA / "xax_poly.txt"),
        "--sizes", "2", "--samples", "25", "--seed", "3"])
    assert code == EXIT_OK
    assert "sharpness_witness" in rep["results"]["localizing_scan"]
    assert "sqrt_domain_at_zero" in rep["results"]["butterfly"]
    assert built == []


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PLUS_KEYS = {"size", "empty", "samples", "min_lambda", "rt_lambda_min",
             "reason"}


CORPUS_EXIT_CODES = {
    "partial-accept": {"sos%d.txt" % i: EXIT_OK for i in range(25)},
    "partial-reject": {"x4_poly.txt": EXIT_NEGATIVE, "xax_poly.txt": EXIT_OK,
                       **{"thin%d.txt" % i: EXIT_OK for i in range(18)},
                       **{"deep%d.txt" % i: EXIT_NEGATIVE for i in range(5)}},
    "xy-corpus": {"square_xy_poly.txt": EXIT_NEGATIVE,
                  **{"%s_N%d_%d.txt" % (kind, N, i): code
                     for kind, code in (("cert", EXIT_OK),
                                        ("twin_xx", EXIT_NEGATIVE),
                                        ("twin_yy", EXIT_NEGATIVE))
                     for N in (1, 2, 3, 4) for i in (0, 1)}},
}


@pytest.mark.parametrize("workload", sorted(CORPUS_EXIT_CODES))
def test_corpus_exit_codes_at_seed_1(tmp_path, monkeypatch, workload):
    """The exit code of every benchmark corpus input at seed 1: the sums
    of squares exit 0; x4 and deep0-4 exit 1 through their midpoint
    witness and the other partial-reject inputs 0; the certified xy
    inputs exit 0, their negated twins and square_xy 1."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import corpus
    codes = {item.name: cli.main(item.argv
                                 + ["--out", str(tmp_path / "r.json")])
             for item in corpus.build(workload, 1, tmp_path, DATA)}
    assert codes == CORPUS_EXIT_CODES[workload]


@pytest.mark.parametrize("workload", ["partial-accept", "partial-reject"])
def test_corpus_linearization_files_exit_as_their_polynomials(
        tmp_path, monkeypatch, workload):
    """Each partial corpus input written as the realization file of its
    linearization is read back as the polynomial, at seeds 1 and 2: the
    same exit code as the polynomial (at seed 1 the known one), the
    read-back note, and the same hessian_scan and localizing_scan apart
    from time_s, up to 1e-12 (the read-back coefficients carry the
    realization's rounding; the sharpness witness reads w, not the
    realization)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import corpus
    for seed in (1, 2):
        for item in corpus.build(workload, seed, tmp_path, DATA):
            rfile = tmp_path / "r.json"
            rfile.write_text(json.dumps(realize.realization_to_json(
                realize.linearize_poly(item.poly))))
            code_p, poly = run_out(tmp_path, "p_report.json", item.argv)
            code, rep = run_out(tmp_path, "r_report.json",
                                ["partial", str(rfile)] + item.argv[2:])
            assert code == code_p, (seed, item.name)
            if seed == 1:
                assert code == CORPUS_EXIT_CODES[workload][item.name], \
                    item.name
            real = strip_timings(rep["results"])
            assert real["notes"] == [cli.READ_BACK_NOTE]
            poly = strip_timings(poly["results"])
            for key in ("hessian_scan", "localizing_scan"):
                assert_close_entries(real[key], poly[key],
                                     path="%d %s %s" % (seed, item.name, key))


def recorded_chunks(monkeypatch):
    """Spy on the Hessian scan's sizes: a list that fills with ((region,
    cfg, size, seed, proof), chunk)."""
    seen = []
    scan_size = cli._hessian_scan_size

    def spy(*args):
        out = scan_size(*args)
        seen.append((args, out))
        return out

    monkeypatch.setattr(cli, "_hessian_scan_size", spy)
    return seen


def independent_hessian(R, t, H):
    """The Hessian's lambda_min and spectral norm and R_T's eigenvalues at t
    in the directions H, from an inverse of the pencil and sums of
    Kronecker products."""
    n = t.n
    res = np.linalg.inv(R.pencil(t))
    L = sum(np.kron(T, Hi) for T, Hi in zip(R.T, H))
    LRc = L @ res @ np.kron(R.c.reshape(-1, 1), np.eye(n))
    hess = matkit.herm(2 * LRc.conj().T @ res @ LRc)
    V = np.kron(R.frame.V_T, np.eye(n))
    rt = matkit.herm(V.conj().T @ res @ V)
    return (float(np.linalg.eigvalsh(hess)[0]), float(np.linalg.norm(hess, 2)),
            np.linalg.eigvalsh(rt) if rt.size else np.zeros(1))


def independent_first_probe(R, region, size, samples, scale, rng):
    """independent_hessian at the first Hessian probe of the per-sample
    loop, and the point; None when all samples points miss the region."""
    for _ in range(samples):
        hit = partialcvx._sample_in_region(region, size, scale, rng)
        if hit is not None:
            break
    else:
        return None
    t = hit[0]
    H = [matkit.sample_herm(size, 1.0, rng) for _ in range(R.g)]
    return independent_hessian(R, t, H) + (t,)


def analysed(region):
    """The function a region was built from: a PolyButterfly or a
    Realization, both with psd_at_zero."""
    return getattr(region, "pb", None) or region.R


def no_draws_where_the_origin_is_in(monkeypatch):
    """Make _sample_in_region raise on a plus-kind region whose R_T(0, 0)
    passes psd_mask: such a size is certified at the origin."""
    sample = partialcvx._sample_in_region

    def guarded(region, *args, **kwargs):
        if region.kind.endswith("plus") \
                and analysed(region).psd_at_zero(region.tol):
            raise AssertionError("a region point was drawn on %s, whose "
                                 "origin is in" % region.kind)
        return sample(region, *args, **kwargs)

    monkeypatch.setattr(partialcvx, "_sample_in_region", guarded)


# w(0) = -0.1 (a polynomial butterfly) and J11 = -1 (1/(-1 - 2a - 2x)):
# the origin is outside dom+, which holds sampled points at both sizes
ORIGIN_OUTSIDE = {
    "x_a_x_minus_tenth_x_x.txt": "vars a: a | x: x\n1 * x a x\n-0.1 * x x\n",
    "minus_one_minus_2a_2x.json": json.dumps(
        {"J": [[[-1, 0]]], "S": [[[[2, 0]]]], "T": [[[[2, 0]]]],
         "c": [[1, 0]]}),
}


def plus_scan_argvs(workload, tmp_path):
    """The partial command lines of a perfbench workload, or of
    ORIGIN_OUTSIDE's inputs."""
    if workload != "origin-outside":
        import corpus
        return [item.argv for item in corpus.build(workload, 1, tmp_path,
                                                   DATA)]
    argvs = []
    for name, text in ORIGIN_OUTSIDE.items():
        (tmp_path / name).write_text(text)
        argvs.append(["partial", str(tmp_path / name), "--sizes", "1,2",
                      "--samples", "4", "--seed", "1"])
    return argvs


# sizes certified at the origin, sampled and empty, per workload: x4 and
# the deep inputs are proved empty; xax, the thin inputs and the sums of
# squares have w(0) PSD
PLUS_SIZE_COUNTS = {
    "partial-reject": {"origin": 19, "sampled": 0, "empty": 6},
    "partial-accept": {"origin": 50, "sampled": 0, "empty": 0},
    "origin-outside": {"origin": 0, "sampled": 4, "empty": 0},
}


@pytest.mark.parametrize("workload", sorted(PLUS_SIZE_COUNTS))
def test_plus_chunks_match_the_first_probe(tmp_path, monkeypatch, workload):
    """On dom+ each size is one region point.  Where R_T(0, 0) passes
    psd_mask the point is the origin: the size draws no region point, its
    entry says "point": "origin", and its Hessian lambda_min is the
    independent resolvent formula's at the origin, in the directions H
    that are the size's seed's first draws.  Elsewhere the size is empty
    exactly when convexity_verdict on the pencils finds no point in the
    same budget, and otherwise carries the Hessian lambda_min of that
    verdict's first probe, which the formula reproduces.  On a butterfly
    (a PolyRegion) rt_lambda_min is min(lambda_min(w(A)), 0), which has
    R_T's sign but not its value: it is checked exactly against w(A) at
    the point, and in sign against the pencil's R_T.  The proof each size
    was given is the scanned region's empty_proof."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    seen = recorded_chunks(monkeypatch)
    argvs = plus_scan_argvs(workload, tmp_path)
    no_draws_where_the_origin_is_in(monkeypatch)
    for argv in argvs:
        assert cli.main(argv + ["--out", str(tmp_path / "p.json")]) \
            in (EXIT_OK, EXIT_NEGATIVE, EXIT_INCONCLUSIVE), argv
    found = {"origin": 0, "sampled": 0, "empty": 0}
    for (scanned, cfg, size, seed, proof), chunk in seen:
        assert type(scanned) in (realize.Region, butterfly.PolyRegion)
        pb = getattr(scanned, "pb", None)
        R = scanned.R if pb is None else realize.linearize_poly(pb.p)
        region = cli.make_region(cfg.region, R, cfg)
        assert region.kind == "dom-plus"
        rng = np.random.default_rng(seed)
        if analysed(scanned).psd_at_zero(cfg.tol_psd):
            found["origin"] += 1
            assert proof is None
            assert set(chunk) == PLUS_KEYS | {"point"}
            assert chunk["point"] == "origin"
            zero = np.zeros((size, size), dtype=complex)
            t = ncalg.HermTuple(size, (zero,) * R.h, (zero,) * R.g,
                                validate=False)
            H = [matkit.sample_herm(size, 1.0, rng) for _ in range(R.g)]
            ind = independent_hessian(R, t, H) + (t,)
        else:
            try:
                partialcvx.convexity_verdict(
                    region, sizes=(size,), samples=cfg.samples,
                    rng=np.random.default_rng(seed), tol=cfg.tol_psd,
                    scale=cfg.scale, midpoint_pairs=0)
                ref_empty = False
            except partialcvx.RegionEmpty:
                ref_empty = True
            assert chunk["empty"] == ref_empty
            ind = independent_first_probe(R, region, size, cfg.samples,
                                          cfg.scale, rng)
            assert (ind is None) == ref_empty
            if ref_empty:
                found["empty"] += 1
                # a proved size carries its proof; a sampled one nothing
                # more
                proved = scanned.empty_proof(cfg.scale)
                assert (proof is None) == (proved is None)
                assert set(chunk) == {"size", "empty"} | (
                    set() if proved is None else {"proof"})
                continue
            found["sampled"] += 1
            assert set(chunk) == PLUS_KEYS
        assert chunk["samples"] == 1
        assert chunk["reason"] == cli.PLUS_REASON
        low, norm, rt_ev, t = ind
        assert abs(chunk["min_lambda"] - low) <= 1e-9 * max(1.0, norm)
        assert chunk["min_lambda"] >= -cfg.tol_psd * max(1.0, norm)
        assert matkit.psd_mask(rt_ev, cfg.tol_psd)
        if pb is None:
            assert abs(chunk["rt_lambda_min"] - rt_ev[0]) \
                <= 1e-9 * max(1.0, abs(rt_ev[0]))
            continue
        w_ev = np.linalg.eigvalsh(ncalg.eval_poly(pb.w, t))
        assert chunk["rt_lambda_min"] == min(w_ev[0], 0.0)
        assert matkit.psd_mask(w_ev, cfg.tol_psd)
    assert found == PLUS_SIZE_COUNTS[workload]


def test_x4_at_a_large_scale_is_sampled(tmp_path, monkeypatch):
    """At --scale 100 the norm bound is too weak for a proof (x4's is
    proved up to about 99), and each size is the sampler's: empty after
    every probe missed the region, with no proof and no other field."""
    seen = recorded_chunks(monkeypatch)
    code, rep = run_out(tmp_path, "p.json", [
        "partial", str(DATA / "x4_poly.txt"), "--scale", "100",
        "--sizes", "1,2", "--samples", "2"])
    assert code == EXIT_NEGATIVE
    assert len(seen) == 2
    for (region, cfg, size, seed, proof), chunk in seen:
        assert proof is None
        assert region.empty_proof(cfg.scale) is None
        with pytest.raises(partialcvx.RegionEmpty):
            partialcvx.convexity_verdict(
                cli.make_region(cfg.region, region.R, cfg), sizes=(size,),
                samples=cfg.samples, rng=np.random.default_rng(seed),
                tol=cfg.tol_psd, scale=cfg.scale, midpoint_pairs=0)
        assert chunk == {"size": size, "empty": True}


# w = 1 + a: w(0) is PD, so each size's point is the origin; w = a - 0.1:
# the origin is outside, so each size's point is drawn
ROUNDING_INPUTS = (("vars a: a | x: x\n1 * x x\n1 * x a x\n", True),
                   (ORIGIN_OUTSIDE["x_a_x_minus_tenth_x_x.txt"], False))


@pytest.mark.parametrize("region", ["default", "kebab-plus"])
def test_plus_rounding_is_inconclusive(tmp_path, monkeypatch, capsys,
                                       region):
    """A Hessian that is not PSD at the region point contradicts the
    theorem, so it is rounding: exit 3 with the reason, never exit 1, at
    the origin as at a sampled point."""
    hessian = butterfly.PolyRegion.hessian
    monkeypatch.setattr(butterfly.PolyRegion, "hessian",
                        lambda *args: -hessian(*args))
    path = tmp_path / "p.txt"
    for text, origin in ROUNDING_INPUTS:
        path.write_text(text)
        code, rep = run_out(tmp_path, "p.json", [
            "partial", str(path), "--sizes", "1,2", "--samples", "4",
            "--seed", "1", "--region", region])
        err = capsys.readouterr().err
        assert code == EXIT_INCONCLUSIVE
        assert "Traceback" not in err
        chunks = rep["results"]["hessian_scan"]["per_size"]
        assert len(chunks) == 2
        for chunk in chunks:
            assert not chunk["empty"]
            assert chunk.get("point") == ("origin" if origin else None)
            assert "witness" not in chunk and "reason" not in chunk
            assert chunk["min_lambda"] < 0
            assert "this is rounding" in chunk["inconclusive"]
            assert "inconclusive: size %d: %s" % (
                chunk["size"], chunk["inconclusive"]) in err


def test_hessian_witness_h_has_a_canonical_phase(tmp_path, monkeypatch):
    """The hessian-negativity witness's h does not carry eigh's arbitrary
    phase: with every eigenvector multiplied by 1j, h is the same."""
    argv = ["partial", str(DATA / "xax_poly.txt"), "--region", "dom",
            "--sizes", "1,2", "--samples", "4"]

    def witness_h(name):
        code, rep = run_out(tmp_path, name, argv)
        assert code == EXIT_NEGATIVE
        return [c["witness"]["h"]
                for c in rep["results"]["hessian_scan"]["per_size"]
                if "witness" in c]

    want = witness_h("want.json")
    eigh = np.linalg.eigh

    def turned(M):
        lam, U = eigh(M)
        return lam, 1j * U

    monkeypatch.setattr(np.linalg, "eigh", turned)
    got = witness_h("got.json")
    assert want and got == want


# x^2 + x a^2 x: w(a) = 1 + a^2 is positive definite, so r is convex in x
# everywhere and every scan keeps sampling to its budget
CONVEX_X = "vars a: a | x: x\n1 * x x\n1 * x a a x\n"


@pytest.mark.parametrize("region", ["dom", "kebab", "ball:0.7", "dom-plus",
                                    "kebab-plus"])
def test_partial_scan_keys_by_region(tmp_path, region):
    """dom, kebab and ball:R run the sampled Hessian and midpoint scan;
    the plus kinds report one region point, here the origin, and the
    theorem."""
    path = tmp_path / "convex.txt"
    path.write_text(CONVEX_X)
    code, rep = run_out(tmp_path, "p.json", [
        "partial", str(path), "--sizes", "1,2", "--samples", "5",
        "--region", region])
    assert code == EXIT_OK
    for chunk in rep["results"]["hessian_scan"]["per_size"]:
        assert not chunk["empty"]
        if region.endswith("plus"):
            # w(0) = 1 is PD: the size's point is the origin
            assert set(chunk) == PLUS_KEYS | {"point"}
            assert chunk["point"] == "origin"
        else:
            assert chunk["samples"] == 5
            assert chunk["midpoint_pairs"] > 0
            assert chunk["midpoint_violations"] == 0
            assert "reason" not in chunk and "rt_lambda_min" not in chunk


FUZZ_REAL = st.one_of(st.integers(-3, 3),
                     st.floats(-4, 4).map(lambda c: round(c, 3)))
FUZZ_TERMS = st.lists(
    st.tuples(st.lists(st.sampled_from("ax"), max_size=4).map(tuple),
              st.one_of(FUZZ_REAL, st.builds(complex, FUZZ_REAL, FUZZ_REAL))),
    min_size=1, max_size=5)


@settings(max_examples=150, deadline=None)
@given(terms=FUZZ_TERMS)
def test_partial_fuzz_exit_codes(tmp_path_factory, terms):
    """partial on small well-formed symmetric polynomials (each term c w
    with its adjoint conj(c) w reversed) exits 0, 1 or 3, never 4 (an
    internal error), and prints no traceback."""
    lines = ["vars a: a | x: x"]
    for w, c in terms:
        c = complex(c)
        lines += ["%s * %s" % (ncalg.format_complex(z), " ".join(v) or "1")
                  for v, z in ((w, c), (w[::-1], c.conjugate()))]
    path = tmp_path_factory.mktemp("fuzz") / "p.txt"
    path.write_text("\n".join(lines) + "\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["partial", str(path), "--sizes", "1,2",
                         "--samples", "2"])
    assert code in (EXIT_OK, EXIT_NEGATIVE, EXIT_INCONCLUSIVE), err.getvalue()
    assert "Traceback" not in err.getvalue()


XY_FUZZ_TERMS = st.lists(
    st.tuples(st.sampled_from(xycvx.L_WORDS),
              st.one_of(FUZZ_REAL, st.builds(complex, FUZZ_REAL, FUZZ_REAL))),
    min_size=1, max_size=6)


def lambda_square_expansion(cert):
    """{word: coefficient} of pencil + Lambda* Lambda, Lambda = sum_u L_u u
    over u in x, y, xy, yx: the term of <L_u, L_v> goes to u reversed,
    then v (the letters are Hermitian)."""
    coeffs = {"" if w == "1" else w: complex(*c)
              for w, c in cert["pencil"].items()}
    L = {u: unvec(v) for u, v in cert["Lambda"].items()}
    for u in L:
        for v in L:
            w = u[::-1] + v
            coeffs[w] = coeffs.get(w, 0j) + complex(np.vdot(L[u], L[v]))
    return coeffs


def pair_defect(p, pw):
    """h* D h and ||D|| of a report's pair witness, with the defect D of p
    evaluated here, after checking that the pair is an xy-pair."""
    X, Y, V, h = unmat(pw["X"]), unmat(pw["Y"]), unmat(pw["V"]), unvec(pw["h"])
    Vh = V.conj().T
    X0, Y0 = Vh @ X @ V, Vh @ Y @ V
    assert np.allclose(Vh @ V, np.eye(V.shape[1]))
    assert np.allclose(Vh @ Y @ X @ V, Y0 @ X0)
    D = Vh @ ncalg.eval_poly(p, ncalg.HermTuple(len(X), (), (X, Y))) @ V \
        - ncalg.eval_poly(p, ncalg.HermTuple(len(X0), (), (X0, Y0)))
    return float(np.real(h.conj() @ D @ h)), float(np.linalg.norm(D, 2))


@settings(max_examples=150, deadline=None)
@given(terms=XY_FUZZ_TERMS)
def test_xy_fuzz_exit_codes(tmp_path_factory, terms):
    """xy on small symmetric polynomials on the admissible support exits
    0, 1 or 3 and prints no traceback.  An exit 0 certificate re-expands
    to p coefficient by coefficient, and an exit 1 pair has h* D h < 0,
    with the defect D evaluated here.  An uncertified Gram never exits 3:
    a pinned one's witness on the level ray (x x + x y x among them) and a
    dual-certified one's witness read off Z both complete to a pair."""
    lines = ["vars a: | x: x y"]
    for w, c in terms:
        c = complex(c)
        lines += ["%s * %s" % (ncalg.format_complex(z), " ".join(v) or "1")
                  for v, z in ((w, c), (w[::-1], c.conjugate()))]
    path = tmp_path_factory.mktemp("fuzz") / "p.txt"
    path.write_text("\n".join(lines) + "\n")
    p = ncalg.parse_poly(path.read_text())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["xy", str(path), "--samples", "4"])
    assert code in (EXIT_OK, EXIT_NEGATIVE, EXIT_INCONCLUSIVE), err.getvalue()
    assert "Traceback" not in err.getvalue()
    res = json.loads(out.getvalue())["results"]
    if res.get("gram", {}).get("status") == "not-certifiable-pinned":
        assert code != EXIT_INCONCLUSIVE, err.getvalue()
    if res.get("gram", {}).get("status") == "not-certifiable":
        assert code != EXIT_INCONCLUSIVE, err.getvalue()
    if code == EXIT_OK:
        got = lambda_square_expansion(res["certificate"])
        scale = max([1.0] + [abs(p.scalar_coeff(w)) for w in p.words()])
        for w in set(got) | {"".join(map(p.ctx.name, w)) for w in p.words()}:
            want = p.scalar_coeff(tuple("xy".index(ch) for ch in w))
            assert abs(got.get(w, 0j) - want) <= 1e-8 * scale, w
    elif code == EXIT_NEGATIVE:
        assert pair_defect(p, res["pair_witness"])[0] < 0


def dual_certified_text(rng, scale):
    """A screened polynomial whose Gram is mostly dual-certified: positive
    diagonal pins, full pins inside their 2 x 2 PSD bound, and half pins
    up to twice theirs, times scale, with a random pencil."""
    d = dict(zip(("xx", "yy", "xyyx", "yxxy"), rng.uniform(0.5, 2, 4)))
    c = dict(d, **{w: rng.normal() for w in ("", "x", "y")})
    pins = (("yyx", "xyy", "yy", "xyyx"), ("xxy", "yxx", "xx", "yxxy"),
            ("xyxy", "yxyx", "xyyx", "yxxy"), ("xy", "yx", "", ""))
    for u, v, i, j in pins:
        z = rng.uniform() * np.exp(2j * np.pi * rng.uniform()) \
            * np.sqrt(d.get(i, 1) * d.get(j, 1))
        c[u], c[v] = z, np.conj(z)
    c["xyx"] = rng.uniform(-2, 2) * np.sqrt(d["xx"] * d["xyyx"])
    c["yxy"] = rng.uniform(-2, 2) * np.sqrt(d["yy"] * d["yxxy"])
    return "vars a: | x: x y\n" + "".join(
        "%s * %s\n" % (ncalg.format_complex(complex(z) * scale),
                       " ".join(w) or "1") for w, z in c.items())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([10.0 ** k for k in range(-3, 4)]))
def test_xy_dual_certified_rejects_exit_negative(tmp_path_factory, seed,
                                                 scale):
    """Every dual-certified Gram exits 1: the witness read off Z
    completes to a pair whose defect, evaluated here, is the dual value."""
    path = tmp_path_factory.mktemp("dual") / "p.txt"
    path.write_text(dual_certified_text(np.random.default_rng(seed), scale))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["xy", str(path)])
    res = json.loads(out.getvalue())["results"]
    if res["gram"]["status"] != "not-certifiable":
        return
    assert code == EXIT_NEGATIVE, err.getvalue()
    value, norm = pair_defect(ncalg.parse_poly(path.read_text()),
                              res["pair_witness"])
    dual = res["gram"]["dual_value"]
    assert value < -1e-8 * max(1.0, norm)
    assert value == pytest.approx(dual, rel=1e-8, abs=1e-9)
    assert res["dual_witness"]["value"] == pytest.approx(
        dual, abs=1e-9 * max(1.0, abs(dual)))


# ---------------------------------------------------------------------------
# xy

def help_text(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    return " ".join(capsys.readouterr().out.split())


def test_xy_help_names_samples_the_certificate_check_pairs(tmp_path,
                                                            capsys):
    """xy has no sizes: --samples is the number of pairs the certificate
    is checked on, at most XY_CHECK_PAIRS, as the report's sampled_pairs
    shows; partial's --samples stays per size."""
    assert cli.XY_CHECK_PAIRS == 25
    text = help_text("xy", capsys)
    assert "--samples SAMPLES pairs on which the certificate is checked " \
        "(at most 25)" in text
    assert "size" not in text
    assert "--samples SAMPLES samples per size" in help_text("partial",
                                                             capsys)
    path = tmp_path / "xx_yy.txt"
    path.write_text("vars a: | x: x y\n1 * x x\n1 * y y\n")
    for samples, pairs in ((3, 3), (30, 25)):
        code, rep = run_out(tmp_path, "xy.json", [
            "xy", str(path), "--samples", str(samples)])
        assert code == EXIT_OK
        assert rep["results"]["verification"]["sampled_pairs"] == pairs


def test_xy_square_poly_pair_witness_reverifies(tmp_path):
    code, rep = run_out(tmp_path, "xy.json", [
        "xy", str(DATA / "square_xy_poly.txt"), "--samples", "30",
        "--seed", "0"])
    assert code == EXIT_NEGATIVE
    pw = rep["results"]["pair_witness"]
    assert pw["defect_value"] < 0
    X, Y, V = unmat(pw["X"]), unmat(pw["Y"]), unmat(pw["V"])
    h = unvec(pw["h"])
    assert xycvx.is_xy_pair(X, Y, V)
    p = xycvx.support_screen(
        ncalg.parse_poly((DATA / "square_xy_poly.txt").read_text()))
    rep2 = xycvx.xy_convexity_test(p, xycvx.XYPair(X, Y, V))
    quad = float(np.real(h.conj() @ rep2.defect @ h))
    assert quad == pytest.approx(pw["defect_value"], rel=1e-6, abs=1e-9)


# square_xy_poly.txt at these flags ends in a pair witness (exit 1)
SQUARE_XY_NEGATIVE = ["xy", str(DATA / "square_xy_poly.txt"),
                      "--samples", "30", "--seed", "0"]


def test_xy_pair_witness_that_fails_recheck_is_inconclusive(
        tmp_path, monkeypatch, capsys):
    complete = xycvx.mxy_witness_pair

    def flipped(p, wit):
        # the completed pair with the sign of its defect turned around
        pw = complete(p, wit)
        return replace(pw, defect=-pw.defect, value=-pw.value)

    monkeypatch.setattr(xycvx, "mxy_witness_pair", flipped)
    code, rep = run_out(tmp_path, "xy.json", SQUARE_XY_NEGATIVE)
    err = capsys.readouterr().err
    assert code == EXIT_INCONCLUSIVE
    assert "Traceback" not in err
    assert err.startswith("inconclusive: the completed witness has h* D h")
    assert err.count("\n") == 1
    res = rep["results"]
    assert res["verdict"] == "inconclusive"
    assert "pair_witness" not in res
    assert res["pair_witness_error"] == err[len("inconclusive: "):].strip()


def test_xy_pair_completion_error_is_inconclusive(tmp_path, monkeypatch,
                                                  capsys):
    def broken(p, wit):
        raise xycvx.PairError("V* YX V != (V*YV)(V*XV) beyond tolerance")

    monkeypatch.setattr(xycvx, "mxy_witness_pair", broken)
    code, rep = run_out(tmp_path, "xy.json", SQUARE_XY_NEGATIVE)
    err = capsys.readouterr().err
    assert code == EXIT_INCONCLUSIVE
    assert "Traceback" not in err
    assert err.startswith("inconclusive: the witness completion failed")
    assert err.count("\n") == 1
    assert rep["results"]["verdict"] == "inconclusive"


def test_xy_square_poly_small_scale_pinned_witness(tmp_path, capsys):
    """The pinned Gram's witness on the level ray needs no draw, so no
    sampling scale can hide it; its pair re-checks here."""
    code, rep = run_out(tmp_path, "xy.json", [
        "xy", str(DATA / "square_xy_poly.txt"), "--samples", "5"])
    assert code == EXIT_NEGATIVE
    assert capsys.readouterr().err == ""
    res = rep["results"]
    assert "verdict" not in res and "middle_matrix_scan" not in res
    assert res["gram"]["status"] == "not-certifiable-pinned"
    assert res["gram"]["pinned_lambda_min"] == pytest.approx(-1.0, abs=1e-9)
    assert res["pinned_witness"]["level"] in xycvx.PINNED_LEVELS
    assert res["pinned_witness"]["lambda_min"] < 0
    pw = res["pair_witness"]
    X, Y, V, h = unmat(pw["X"]), unmat(pw["Y"]), unmat(pw["V"]), unvec(pw["h"])
    p = xycvx.support_screen(
        ncalg.parse_poly((DATA / "square_xy_poly.txt").read_text()))
    defect = xycvx.xy_convexity_test(p, xycvx.XYPair(X, Y, V)).defect
    pair = xycvx.PairWitness(xycvx.XYPair(X, Y, V), h,
                             pw["defect_value"], defect)
    assert pair.recheck() is None
    assert float(np.real(h.conj() @ defect @ h)) == pytest.approx(
        pw["defect_value"], rel=1e-9)


def negated_xx_twin(tmp_path):
    """certified_xy_file's polynomial with its x x coefficient negated."""
    p, _ = xycvx.synthesize_certified(np.random.default_rng(41), N=2)
    twin = ncalg.FreePoly.from_terms(p.ctx, {
        w: -abs(p.scalar_coeff(w)) if w == (0, 0) else p.scalar_coeff(w)
        for w in p.words()})
    pfile = tmp_path / "twin_xx.txt"
    pfile.write_text(ncalg.format_poly(twin))
    return pfile


@pytest.mark.parametrize("which", ["twin", "square"])
def test_xy_pinned_reject_runs_no_scan(tmp_path, monkeypatch, which):
    """A pinned Gram is refuted by its constructed witness: the scan is
    never called, and the report carries the pair and no scan entry."""
    def broken(*args, **kwargs):
        raise AssertionError("the scan ran on a pinned reject")

    monkeypatch.setattr(xycvx, "middle_matrix_psd_scan", broken)
    pfile = negated_xx_twin(tmp_path) if which == "twin" \
        else DATA / "square_xy_poly.txt"
    code, rep = run_out(tmp_path, "xy.json", ["xy", str(pfile)])
    res = rep["results"]
    assert code == EXIT_NEGATIVE
    assert res["gram"]["status"] == "not-certifiable-pinned"
    assert res["pair_witness"]["defect_value"] < 0
    assert "middle_matrix_scan" not in res


def test_xy_certified_poly(tmp_path):
    rng = np.random.default_rng(41)
    p, _ = xycvx.synthesize_certified(rng, N=2)
    pfile = tmp_path / "cert_poly.txt"
    pfile.write_text(ncalg.format_poly(p))
    code, rep = run_out(tmp_path, "xy.json", [
        "xy", str(pfile), "--samples", "8", "--seed", "5"])
    assert code == EXIT_OK
    res = rep["results"]
    assert res["verdict"] == "certified"
    assert res["verification"]["coeff_ok"]
    assert res["verification"]["min_defect_eig"] >= -1e-8
    # the shipped certificate reconstructs the input polynomial
    cert = xycvx.certificate_from_json(res["certificate"])
    recon = cert.reconstruct()
    for w in set(p.words()) | set(recon.words()):
        assert recon.scalar_coeff(w) == pytest.approx(
            p.scalar_coeff(w), abs=1e-7)


def test_xy_certified_report_counts_the_solve(tmp_path):
    p, _ = xycvx.synthesize_certified(np.random.default_rng(41), N=2)
    pfile = tmp_path / "cert_poly.txt"
    pfile.write_text(ncalg.format_poly(p))
    code, rep = run_out(tmp_path, "xy.json", [
        "xy", str(pfile), "--samples", "4"])
    assert code == EXIT_OK
    gram = rep["results"]["gram"]
    assert gram["solver_steps"] > 0
    assert 0 < gram["gap"] <= 1e-10
    assert "dual_value" not in gram and "Z" not in gram


def test_xy_not_certifiable_reports_the_dual(tmp_path, capsys):
    # the Gram stage runs first, and its dual certificate proves that no
    # completion is PSD; the witness read off Z completes to a pair whose
    # defect value is the dual value
    pfile = tmp_path / "nc_poly.txt"
    pfile.write_text("vars a: | x: x y\n1 * x x\n1 * y y\n1 * x y y x\n"
                     "1 * y x x y\n1 * x y x y\n1 * y x y x\n1 * x x y\n"
                     "1 * y x x\n-2 * x y x\n")
    code, rep = run_out(tmp_path, "xy.json", ["xy", str(pfile)])
    assert code == EXIT_NEGATIVE
    assert capsys.readouterr().err == ""
    res = rep["results"]
    gram = res["gram"]
    assert gram["status"] == "not-certifiable"
    assert gram["dual_value"] == pytest.approx(-1.0, abs=1e-9)
    assert gram["solver_steps"] > 0
    Z = cli.junmat(gram["Z"])
    assert np.linalg.eigvalsh(Z)[0] >= -1e-12
    assert np.trace(Z).real == pytest.approx(1.0, abs=1e-10)
    assert res["dual_witness"]["value"] == pytest.approx(
        gram["dual_value"], abs=1e-9)
    assert "pinned_witness" not in res and "middle_matrix_scan" not in res
    # the pair's defect, evaluated here from p
    value, norm = pair_defect(ncalg.parse_poly(pfile.read_text()),
                              res["pair_witness"])
    assert value == pytest.approx(gram["dual_value"], abs=1e-9)
    assert value < -1e-8 * max(1.0, norm)


def certified_xy_file(tmp_path):
    p, _ = xycvx.synthesize_certified(np.random.default_rng(41), N=2)
    pfile = tmp_path / "cert_poly.txt"
    pfile.write_text(ncalg.format_poly(p))
    return pfile


@pytest.mark.parametrize("scan", ["raises", "finds-a-witness"])
def test_xy_certified_input_runs_no_scan(tmp_path, monkeypatch, scan):
    """A verified certificate exits 0 before any refutation, so neither a
    broken witness construction nor a witness from one can touch the
    verdict."""
    def broken(*args, **kwargs):
        raise AssertionError("a refutation ran on a certified input")

    pl = xycvx.support_screen(
        ncalg.parse_poly((DATA / "square_xy_poly.txt").read_text()))
    wit = xycvx.pinned_witness(pl)
    assert wit is not None
    for name in ("middle_matrix_psd_scan", "dual_witness", "pinned_witness"):
        monkeypatch.setattr(xycvx, name, broken if scan == "raises"
                            else lambda *args, **kwargs: wit)
    code, rep = run_out(tmp_path, "xy.json", [
        "xy", str(certified_xy_file(tmp_path)), "--samples", "8"])
    res = rep["results"]
    assert code == EXIT_OK
    assert res["verdict"] == "certified"
    assert res["gram"]["status"] == "feasible"
    assert not {"middle_matrix_scan", "dual_witness", "pinned_witness",
                "pair_witness"} & set(res)


def test_xy_square_poly_reports_gram_and_pair(tmp_path, capsys):
    """The pinned Gram leaves no certificate, and its witness on the level
    ray completes to the pair; stderr stays empty."""
    code, rep = run_out(tmp_path, "xy.json", SQUARE_XY_NEGATIVE)
    res = rep["results"]
    assert code == EXIT_NEGATIVE
    assert res["gram"]["status"] == "not-certifiable-pinned"
    assert "pair_witness" in res and "verdict" not in res
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("error", [matkit.SingularError,
                                   np.linalg.LinAlgError])
def test_xy_gram_breakdown_takes_the_level_ray(tmp_path, monkeypatch,
                                               error):
    """A numerical breakdown in the Gram stage is its reason for not
    certifying; the level ray still runs and its re-checked pair exits 1."""
    def broken(p, tol):
        raise error("factorization failed")

    monkeypatch.setattr(xycvx, "gram_complete_certificate", broken)
    code, rep = run_out(tmp_path, "xy.json", SQUARE_XY_NEGATIVE)
    res = rep["results"]
    assert code == EXIT_NEGATIVE
    assert res["gram_breakdown"] == (
        "numerical breakdown: %s: factorization failed" % error.__name__)
    assert "gram" not in res
    assert res["pinned_witness"]["lambda_min"] < 0
    assert res["pair_witness"]["defect_value"] < 0


def _assembly_fails(p, *args, **kwargs):
    raise xycvx.AssemblyError("structural identity residual 1.00e-03")


def _verification_fails(p, cert, samples, rng):
    return xycvx.VerifyReport(True, 0.0, False, samples, -1.0)


def _gram_breaks_down(p, tol):
    raise matkit.SingularError("factorization failed")


@pytest.mark.parametrize("patch, reason", [
    (("assemble_certificate", _assembly_fails),
     "the certificate assembly failed: structural identity residual "
     "1.00e-03"),
    (("verify_certificate", _verification_fails),
     "the certificate failed its verification"),
    (("gram_complete_certificate", _gram_breaks_down),
     "numerical breakdown: SingularError: factorization failed"),
], ids=["assembly", "verification", "breakdown"])
def test_xy_uncertified_without_witness_is_inconclusive(
        tmp_path, monkeypatch, capsys, patch, reason):
    """A certificate that fails to assemble or to verify, or a Gram stage
    that breaks down, sends p on to the level ray; on this certified
    polynomial no level is negative, so xy exits 3 with one stderr line,
    the Gram stage's reason."""
    monkeypatch.setattr(xycvx, *patch)
    code, rep = run_out(tmp_path, "xy.json", [
        "xy", str(certified_xy_file(tmp_path))])
    err = capsys.readouterr().err
    assert code == EXIT_INCONCLUSIVE
    assert rep["results"]["verdict"] == "inconclusive"
    assert not {"middle_matrix_scan", "pinned_witness",
                "pair_witness"} & set(rep["results"])
    assert err == "inconclusive: %s, and the level ray found no witness\n" \
        % reason


@pytest.mark.parametrize("flag", [["--region", "dom"], ["--tol-inv", "1e-9"],
                                  ["--sizes", "1"], ["--scale", "1"]])
def test_xy_takes_only_the_flags_it_reads(tmp_path, capsys, flag):
    """--region, --tol-inv, --sizes and --scale are partial's: xy refuses
    them (exit 2), and each report's config lists the flags of its own
    command."""
    with pytest.raises(SystemExit) as ei:
        cli.main(["xy", str(DATA / "square_xy_poly.txt")] + flag)
    assert ei.value.code == EXIT_INPUT
    assert "unrecognized arguments" in capsys.readouterr().err
    shared = ["samples", "seed", "tol_psd"]
    for argv, keys in (
            (["xy", str(DATA / "square_xy_poly.txt")], shared),
            (["partial", str(DATA / "xax_poly.txt"), "--sizes", "1"] + flag,
             sorted(shared + ["region", "scale", "sizes", "tol_inv"]))):
        _, rep = run_out(tmp_path, "r.json", argv + ["--samples", "2"])
        assert sorted(rep["config"]) == keys


def test_xy_loads_no_scipy(tmp_path):
    p, _ = xycvx.synthesize_certified(np.random.default_rng(41), N=2)
    pfile = tmp_path / "cert_poly.txt"
    pfile.write_text(ncalg.format_poly(p))
    code = ("import sys\n"
            "import ncconvex.cli\n"
            "rc = ncconvex.cli.main(['xy', %r, '--samples', '4', '--out',"
            " %r])\n"
            "assert rc == 0, rc\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            % (str(pfile), str(tmp_path / "xy.json")))
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_xy_off_support_rejected(tmp_path):
    pfile = tmp_path / "x2y2.txt"
    pfile.write_text("vars a: | x: x y\n1 * x x y y\n1 * y y x x\n")
    code, rep = run_out(tmp_path, "xy.json", [
        "xy", str(pfile), "--samples", "2"])
    assert code == EXIT_NEGATIVE
    scr = rep["results"]["screen"]
    assert not scr["accepted"]
    assert scr["rejected_monomial"] in ("xxyy", "yyxx")


def test_xy_nonsymmetric_is_input_error(tmp_path, capsys):
    pfile = tmp_path / "ns.txt"
    pfile.write_text("vars a: | x: x y\n1 * x y\n")
    code = cli.main(["xy", str(pfile)])
    assert code == EXIT_INPUT


# ---------------------------------------------------------------------------
# reproduce

@pytest.mark.parametrize("rid", ["intro-eval", "example-A3", "example-A4"])
def test_reproduce_ids_match(rid, capsys):
    code = cli.main(["reproduce", rid])
    assert code == EXIT_OK
    assert "%s: ok" % rid in capsys.readouterr().out


def test_reproduce_unknown_id(capsys):
    code = cli.main(["reproduce", "nope"])
    assert code == EXIT_INPUT
    assert "unknown example id" in capsys.readouterr().err


def test_reproduce_mismatch_prints_diff(monkeypatch, capsys):
    monkeypatch.setitem(cli._REPRODUCE, "intro-eval",
                        (lambda: {"herm_residual": 0.0},
                         "expected_intro_eval.json"))
    code = cli.main(["reproduce", "intro-eval"])
    assert code == EXIT_NEGATIVE
    out = capsys.readouterr().out
    assert "--- expected" in out
    assert "+++ actual" in out


# ---------------------------------------------------------------------------
# config validation and determinism

@pytest.mark.parametrize("flags", [
    ["--samples", "0"],
    ["--sizes", "0,2"],
    ["--sizes", "a,b"],
    ["--workers", "0"],
    ["--scale", "-1"],
    ["--region", "bogus"],
    ["--workers", "2"],
])
def test_bad_config_exits_input(flags, capsys):
    code = cli.main(["partial", str(DATA / "xax_poly.txt")] + flags)
    assert code == EXIT_INPUT


def run_python(argv):
    """`python ARGV` in a fresh interpreter that imports this ncconvex."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable] + argv, capture_output=True,
                          text=True, env=env, timeout=300)


@pytest.mark.parametrize("exc", cli.NUMERICAL_BREAKDOWNS,
                         ids=lambda exc: exc.__name__)
def test_numerical_breakdown_exits_inconclusive(exc, monkeypatch, capsys):
    def breaks_down(p):
        raise exc("broke down")

    monkeypatch.setattr(butterfly, "poly_butterfly", breaks_down)
    code = cli.main(["partial", str(DATA / "xax_poly.txt"),
                     "--sizes", "1", "--samples", "2"])
    err = capsys.readouterr().err
    assert code == EXIT_INCONCLUSIVE, err
    assert "Traceback" not in err
    assert err.startswith("inconclusive: numerical breakdown: %s: broke down"
                          % exc.__name__)


def test_ill_conditioned_sos_reduces_to_its_hankel_rank():
    """Sums of squares whose Hankel matrix is close to lower rank (its
    spectrum falls from 3.3e-9 and 1.3e-7 of the largest to 2e-16 and
    4e-16): the eigenvalue cut at 1e-10 keeps 16 and 17 states, with the
    cut recorded as rank_cut, the realization reproduces p, and partial
    certifies p."""
    for name, e in (("ill_conditioned_sos_1.txt", 16),
                    ("ill_conditioned_sos_2.txt", 17)):
        path = TEST_DATA / name
        proc = run_python(["-m", "ncconvex.cli", "partial", str(path),
                           "--sizes", "1,2", "--samples", "2"])
        assert proc.returncode == EXIT_OK, proc.stderr
        p = ncalg.parse_poly(path.read_text())
        R = realize.linearize_poly(p)
        smallest_kept, largest_dropped = R.rank_cut
        assert largest_dropped < 1e-15
        assert 1e-10 < smallest_kept < 1e-6
        assert R.e == e
        rng = np.random.default_rng(7)
        for n in (1, 2, 3):
            for _ in range(5):
                t = matkit.sample_tuple(n, (R.h, R.g), 1.0, rng)
                err = realize.eval_realization(R, t) - ncalg.eval_poly(p, t)
                assert float(np.max(np.abs(err))) <= 1e-8


def test_unexpected_exception_exits_internal():
    code = ("import sys\n"
            "from ncconvex import cli, ncalg\n"
            "def broken(text):\n"
            "    raise RuntimeError('broken parser')\n"
            "ncalg.parse_poly = broken\n"
            "sys.exit(cli.main(['partial', %r]))\n"
            % str(DATA / "xax_poly.txt"))
    proc = run_python(["-c", code])
    assert proc.returncode == EXIT_INTERNAL, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("internal error: RuntimeError")


def test_malformed_realization_json_exits_input(tmp_path, capsys):
    rfile = tmp_path / "r.json"
    rfile.write_text(json.dumps({"J": 1, "S": [], "T": [], "c": []}))
    assert cli.main(["partial", str(rfile)]) == EXIT_INPUT
    assert "bad realization JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, flags", [
    ("partial", "vars a: | x: x\nnan * x x\n", []),
    ("partial", "vars a: | x: x\ninf * x x\n", []),
    ("xy", "vars a: | x: x y\nnan * x x\n1 * y y\n", []),
    ("partial", None, ["--scale", "nan"]),
    ("partial", None, ["--region", "ball:nan"]),
    ("partial", "vars a: | x: x\n1e308 * x x\n", []),
    ("partial", "vars a: | x: x\n1e308 * x x\n1e308 * x x\n", []),
    ("xy", "vars a: | x: x y\n1e308 * x x\n1 * y y\n", []),
], ids=["partial-nan", "partial-inf", "xy-nan", "scale-nan", "ball-nan",
        "partial-overflow", "partial-summed-inf", "xy-overflow"])
def test_non_finite_input_exits_input(tmp_path, command, text, flags):
    path = DATA / "xax_poly.txt"
    if text is not None:
        path = tmp_path / "poly.txt"
        path.write_text(text)
    proc = run_python(["-m", "ncconvex.cli", command, str(path)] + flags)
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")


@pytest.mark.parametrize("text", [
    "vars a: | x: x\n0 * x x\n",
    "vars a: | x: x\n2 * 1\n",
    "vars a: a | x:\n1 * a a\n",
], ids=["zero", "constant", "no-x-letter"])
def test_x_degree_zero_is_trivially_convex(tmp_path, text):
    path = tmp_path / "poly.txt"
    path.write_text(text)
    proc = run_python(["-m", "ncconvex.cli", "partial", str(path)])
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "Traceback" not in proc.stderr
    results = json.loads(proc.stdout)["results"]
    assert "x-Hessian vanishes identically" in results["trivial"]
    assert "hessian_scan" not in results


@pytest.mark.parametrize("text", [
    "vars a: a b | x:\n1 * a b\n",
    "vars a: a | x: x\n1 * a x\n",
], ids=["x-free", "x-linear"])
def test_non_symmetric_polynomial_exits_input(tmp_path, text):
    path = tmp_path / "poly.txt"
    path.write_text(text)
    proc = run_python(["-m", "ncconvex.cli", "partial", str(path)])
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "not symmetric" in proc.stderr


@pytest.mark.parametrize("scale", ["1e9", "1e12"])
def test_butterfly_identity_bound_is_relative(tmp_path, scale):
    # the identity residual is rounding at the size of the coefficients
    # (4.8e-07 at 1e9, 2.3e-03 at 1e12), within 1e-8 of the largest
    path = tmp_path / "poly.txt"
    path.write_text("vars a: a | x: x\n%s * x x\n%s * x a x\n"
                    % (scale, scale))
    proc = run_python(["-m", "ncconvex.cli", "partial", str(path),
                       "--sizes", "1,2", "--samples", "2"])
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["results"]["butterfly_poly"]["k"] >= 1


@pytest.mark.parametrize("name", ["xax", "x4"])
def test_partial_decides_symmetry_once(name, monkeypatch, capsys):
    # cli, poly_butterfly and linearize_poly each ask; p answers once
    calls = []
    decide = ncalg.FreePoly.is_symmetric.func

    def counted(p):
        calls.append(p)
        return decide(p)

    prop = functools.cached_property(counted)
    prop.__set_name__(ncalg.FreePoly, "is_symmetric")
    monkeypatch.setattr(ncalg.FreePoly, "is_symmetric", prop)
    cli.main(["partial", str(DATA / ("%s_poly.txt" % name)),
              "--sizes", "1", "--samples", "2"])
    assert len(calls) == 1


def test_non_finite_json_entries_exit_input(tmp_path, capsys):
    tup = json.loads((DATA / "intro_tuple.json").read_text())
    tup["X"][0][0][0] = [float("nan"), 0.0]
    tfile = tmp_path / "t.json"
    tfile.write_text(json.dumps(tup))
    assert cli.main(["eval", str(DATA / "intro_poly.txt"),
                     str(tfile)]) == EXIT_INPUT
    p = ncalg.parse_poly((DATA / "xax_poly.txt").read_text())
    rj = realize.realization_to_json(realize.linearize_poly(p))
    rj["c"][0] = [float("inf"), 0.0]
    rfile = tmp_path / "r.json"
    rfile.write_text(json.dumps(rj))
    assert cli.main(["partial", str(rfile)]) == EXIT_INPUT
    assert "non-finite" in capsys.readouterr().err


def test_strip_timings_removes_nested_keys():
    rep = {"a": {"time_s": 1.0, "b": [{"time_s": 2.0, "x": 1}]}, "time_s": 3}
    out = strip_timings(rep)
    assert out == {"a": {"b": [{"x": 1}]}}


COMPACT = '{"a":{"y":[[0.5,-0.0]],"z":1},"b":[1e-300,null]}\n'


def test_emit_report_writes_one_compact_sorted_line(tmp_path, capsys):
    report = {"b": [1e-300, None], "a": {"z": 1, "y": [[0.5, -0.0]]}}
    cli.emit_report(report, None)
    assert capsys.readouterr().out == COMPACT
    out = tmp_path / "r.json"
    cli.emit_report(report, str(out))
    assert out.read_text() == COMPACT
    assert capsys.readouterr().out == "report written to %s\n" % out


@pytest.mark.parametrize("argv, to_file", [
    (["partial", str(DATA / "xax_poly.txt"), "--sizes", "1",
      "--samples", "2"], False),
    (["xy", str(DATA / "square_xy_poly.txt"), "--samples", "2"], False),
    (["eval", str(DATA / "intro_poly.txt"), str(DATA / "intro_tuple.json")],
     True),
    (["reproduce", "intro-eval"], True),
], ids=["partial", "xy", "eval", "reproduce"])
def test_reports_are_one_json_line(tmp_path, capsys, argv, to_file):
    out = tmp_path / "report.json"
    cli.main(argv + (["--out", str(out)] if to_file else []))
    text = out.read_text() if to_file else capsys.readouterr().out
    assert text.endswith("\n") and text.count("\n") == 1
    report = json.loads(text)
    assert text == json.dumps(report, sort_keys=True,
                              separators=(",", ":")) + "\n"


def test_reports_deterministic_across_runs(tmp_path):
    argv = ["partial", str(DATA / "xax_poly.txt"),
            "--sizes", "1,2", "--samples", "6", "--seed", "9"]
    _, rep1 = run_out(tmp_path, "a.json", argv)
    _, rep2 = run_out(tmp_path, "b.json", argv)
    assert json.dumps(strip_timings(rep1), sort_keys=True) \
        == json.dumps(strip_timings(rep2), sort_keys=True)


def reference_localizing_scan(R, cfg, rng):
    """The localizing scan one dom draw at a time, up to MAX_ATTEMPTS per
    probe, until the first sharpness witness; the witness tests its
    companion in the scan's dom region and draws nothing.  Returns the
    report entry and the number of draws dom rejected."""
    entry, rejected = {"checked": 0}, 0
    dom_region = cli.make_region("dom", R, cfg)
    for n in cfg.sizes:
        for _ in range(cfg.samples):
            for _ in range(partialcvx.MAX_ATTEMPTS):
                hit = partialcvx._sample_in_region(dom_region, n, cfg.scale,
                                                   rng, max_attempts=1)
                if hit is not None:
                    break
                rejected += 1
            if hit is None:
                continue
            t, factors = hit
            entry["checked"] += 1
            lam = float(np.linalg.eigvalsh(
                realize.r_T(R, t, factors=factors))[0])
            if lam < -1e-3:
                try:
                    wit = partialcvx.negativity_witness(
                        R, t, region=dom_region)
                except partialcvx.SpanFailure as exc:
                    entry["span_failure"] = str(exc)
                    continue
                except realize.NotInDomain as exc:
                    entry["outside_dom"] = str(exc)
                    continue
                entry["sharpness_witness"] = \
                    cli._serialize_doubling_witness(wit)
                return entry, rejected
    return entry, rejected


RESOLVENT_1 = '{"J": [[[1, 0]]], "S": [[[[2, 0]]]], "T": [[[[2, 0]]]], ' \
    '"c": [[1, 0]]}'


@pytest.mark.parametrize("text, seed, tol_inv", [
    ("vars a: a | x: x\n1 * x a x\n", 0, 1e-10),
    ("vars a: a | x: x\n1 * x a x\n", 3, 1e-10),
    ("vars a: a | x: x\n1 * x x x x\n1 * a x x\n1 * x x a\n", 1, 1e-10),
    ("vars a: a b | x: x\n1 * x a x\n1 * x b x\n1 * b x\n1 * x b\n", 2,
     1e-10),
    # 1 / (1 - 2a - 2x): tol_inv 0.3 rejects some 2 x 2 draws; at these
    # seeds the scan reaches size 2 and dom rejects a draw before the witness
    (RESOLVENT_1, 20, 0.3),
    (RESOLVENT_1, 37, 0.3),
])
def test_localizing_scan_matches_per_sample_loop(text, seed, tol_inv):
    """The scan on the pencils is the per-sample loop's.  On a polynomial
    of x-degree two, the scan through its butterfly's w(A) checks the same
    points and stops at the same one, but its witness is the middle-matrix
    one, which draws nothing, has bad_lambda = lambda_min(w(A)) (R_T's
    sign, not always its value) and re-verifies on p."""
    pb = None
    if text.startswith("{"):
        R = realize.realization_from_json(json.loads(text))
    else:
        p = ncalg.parse_poly(text)
        R = realize.linearize_poly(p)
        if p.degree_in_class("x") <= 2:
            pb = butterfly.poly_butterfly(p)
    cfg = cli.AnalysisConfig(sizes=(1, 2, 3), samples=7, scale=0.8,
                             tol_inv=tol_inv)
    ref_rng = np.random.default_rng(seed)
    want, rejected = reference_localizing_scan(R, cfg, ref_rng)
    rng = np.random.default_rng(seed)
    got = cli._localizing_scan(R, cfg, rng)
    assert json.dumps(got, sort_keys=True) \
        == json.dumps(want, sort_keys=True)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert (rejected > 0) == (tol_inv == 0.3)
    if pb is None:
        return
    got = cli._localizing_scan(pb, cfg, np.random.default_rng(seed))
    assert set(got) == set(want) == {"checked", "sharpness_witness"}
    assert got["checked"] == want["checked"]
    wit, ref = got["sharpness_witness"], want["sharpness_witness"]
    # the bad point is the last m x m block of both doubled points; a
    # polynomial's dom rejects no draw, so m follows from checked
    m = cfg.sizes[(got["checked"] - 1) // cfg.samples]
    bad = [[unmat(M)[-m:, -m:] for M in w["point"][key]]
           for w in (wit, ref) for key in ("A", "X")]
    assert all(np.array_equal(u, v) for u, v in zip(bad[0] + bad[1],
                                                    bad[2] + bad[3]))
    w_bad = ncalg.eval_poly(pb.w, ncalg.HermTuple(m, tuple(bad[0]), tuple(
        bad[1]), validate=False))
    assert wit["bad_lambda"] == pytest.approx(
        np.linalg.eigvalsh(w_bad)[0], rel=1e-12)
    assert max(wit["bad_lambda"], ref["bad_lambda"]) < -1e-3
    assert wit["quadratic_value"] == pytest.approx(2 * wit["bad_lambda"],
                                                   rel=1e-9)
    assert sharpness_quadratic_value(p, wit) == pytest.approx(
        wit["quadratic_value"], rel=1e-6)


def test_localizing_scan_tries_the_next_point_after_a_span_failure(
        monkeypatch):
    """Reach words that fall short at the first indefinite point are
    reported as span_failure, and the scan goes on to the next indefinite
    point, whose witness ends it, as in the per-sample loop."""
    R = realize.linearize_poly(ncalg.parse_poly(
        (DATA / "xax_poly.txt").read_text()))
    cfg = cli.AnalysisConfig(sizes=(2,), samples=25)
    reach, calls = realize._reach_words, []

    def short_first(*args):
        words = reach(*args)
        calls.append(words)
        return words[:-1] if len(calls) == 1 else words

    monkeypatch.setattr(realize, "_reach_words", short_first)
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    entry = cli._localizing_scan(R, cfg, rng)
    calls.clear()
    want, _ = reference_localizing_scan(R, cfg, ref_rng)
    assert len(calls) == 2
    assert entry["span_failure"] == "span dimension %d of %d" \
        % (R.e - 1, R.e)
    assert entry["sharpness_witness"]["quadratic_value"] < 0
    assert json.dumps(entry, sort_keys=True) == json.dumps(want,
                                                           sort_keys=True)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_localizing_scan_tries_the_next_point_after_a_missed_check(
        monkeypatch):
    """A middle-matrix witness that misses its check on p is reported as
    check_failure, and the next indefinite point gives the witness."""
    pb = butterfly.poly_butterfly(ncalg.parse_poly(
        (DATA / "xax_poly.txt").read_text()))
    cfg = cli.AnalysisConfig(sizes=(2,), samples=25)
    build, points = partialcvx.middle_matrix_witness, []

    def miss_first(pb, t, w):
        points.append(t)
        if len(points) == 1:
            raise partialcvx.WitnessCheckFailure("missed")
        return build(pb, t, w)

    monkeypatch.setattr(partialcvx, "middle_matrix_witness", miss_first)
    entry = cli._localizing_scan(pb, cfg, np.random.default_rng(3))
    assert len(points) == 2
    assert entry["check_failure"] == "missed"
    assert entry["sharpness_witness"]["quadratic_value"] < 0
    monkeypatch.undo()
    first = cli._localizing_scan(pb, cfg, np.random.default_rng(3))
    assert first["checked"] < entry["checked"]


def spy_region_tests(monkeypatch, cls):
    """The number of points of each cls.test call, in order."""
    calls, test = [], cls.test

    def spy(self, mats):
        calls.append(len(mats))
        return test(self, mats)

    monkeypatch.setattr(cls, "test", spy)
    return calls


@pytest.mark.parametrize("kind", ["polynomial", "realization"])
def test_localizing_scan_judges_each_size_as_one_block(monkeypatch, kind):
    """Where dom takes every draw and no point is indefinite, the scan makes
    one region.test call per size, of all its samples, and checks them all
    (x x + x a a x has w = 1 (+) 1; 1/(1 - 2a - 2x) at scale 0.1 has
    R_T > 0)."""
    cfg = cli.AnalysisConfig(sizes=(1, 2, 3), samples=7, scale=0.1)
    if kind == "polynomial":
        f = butterfly.poly_butterfly(ncalg.parse_poly(
            "vars a: a | x: x\n1 * x x\n1 * x a a x\n"))
        cls = butterfly.PolyRegion
    else:
        f = realize.realization_from_json(json.loads(RESOLVENT_1))
        cls = realize.Region
        want, rejected = reference_localizing_scan(
            f, cfg, ref_rng := np.random.default_rng(5))
        assert rejected == 0
    calls = spy_region_tests(monkeypatch, cls)
    rng = np.random.default_rng(5)
    assert cli._localizing_scan(f, cfg, rng) == {"checked": 21}
    assert calls == [7, 7, 7]
    if kind == "realization":
        assert want == {"checked": 21}
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed", [2, 7])
def test_localizing_scan_after_a_rejected_draw(monkeypatch, seed):
    """At --tol-inv 0.3 dom rejects some of 1/(1 - 2a - 2x)'s draws: from
    the first one on, the scan goes on one probe at a time, and it stays
    the per-probe loop's, up to its witness and rng's state."""
    R = realize.realization_from_json(json.loads(RESOLVENT_1))
    cfg = cli.AnalysisConfig(sizes=(1, 2, 3), samples=7, scale=0.8,
                             tol_inv=0.3)
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want, rejected = reference_localizing_scan(R, cfg, ref_rng)
    assert rejected > 0
    calls = spy_region_tests(monkeypatch, realize.Region)
    got = cli._localizing_scan(R, cfg, rng)
    assert json.dumps(got, sort_keys=True) == json.dumps(want,
                                                         sort_keys=True)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert calls[0] == 7 and len(calls) > len(cfg.sizes)


def test_parser_built_once(capsys):
    assert cli.build_parser() is cli.build_parser()
    for _ in range(2):
        with pytest.raises(SystemExit) as ei:
            cli.main(["partial", str(DATA / "xax_poly.txt"), "--samples", "x"])
        assert ei.value.code == 2
        assert "invalid int value" in capsys.readouterr().err
    # defaults do not leak from one parse into the next
    args = cli.build_parser().parse_args(["partial", "p.txt", "--seed", "4"])
    assert args.seed == 4
    assert cli.build_parser().parse_args(["partial", "p.txt"]).seed == 0


def test_version_flag():
    with pytest.raises(SystemExit) as ei:
        cli.main(["--version"])
    assert ei.value.code == 0
