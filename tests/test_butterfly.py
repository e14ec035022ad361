"""Butterfly forms: caterpillar identity, sqrt form, polynomial
decomposition.

Every alternative evaluator is compared against eval_realization, which is
plain pencil inversion and serves as the oracle throughout.
"""

import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_herm_tuple, rand_minimal_smr, rand_sym_poly
from ncconvex import butterfly, cli, matkit, partialcvx, realize
from ncconvex.butterfly import (
    KebabError,
    NotConvexible,
    butterfly_build,
    caterpillar_eval,
    midpoint_violation_search,
    poly_butterfly,
)
from ncconvex.ncalg import (FreePoly, HermTuple, VarContext, eval_poly,
                            format_poly, parse_poly)
from ncconvex.realize import (
    eval_realization,
    in_dom_kebab,
    in_dom_kebab_plus,
    linearize_poly,
    Region,
)

DATA = Path(realize.__file__).parent / "data"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TEST_DATA = Path(__file__).resolve().parent / "data"
EPS = np.finfo(float).eps

CTX_AX = VarContext(("a",), ("x",))
CTX_A2X = VarContext(("a",), ("x1", "x2"))

seeds = st.integers(0, 2**32 - 1)


def kebab_points(R, rng, count, sizes=(1, 2, 3), scale=0.35, attempts=400):
    out = []
    for _ in range(attempts):
        if len(out) >= count:
            break
        n = int(rng.choice(sizes))
        t = matkit.sample_tuple(n, (R.h, R.g), scale, rng)
        if in_dom_kebab(R, t):
            out.append(t)
    return out


# ---------------------------------------------------------------------------
# caterpillar identity against direct pencil inversion

@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_caterpillar_terms_sum_to_eval(seed):
    rng = np.random.default_rng(seed)
    R = rand_minimal_smr(rng, e=4, h=1, g=2)
    pts = kebab_points(R, rng, 6)
    assert pts, "no dom-kebab points found"
    for t in pts:
        t0, t1, t2 = caterpillar_eval(R, t)
        direct = eval_realization(R, t)
        total = t0 + t1 + t2
        err = np.linalg.norm(total - direct, 2) / max(1.0, np.linalg.norm(direct, 2))
        assert err <= 1e-9


def test_caterpillar_requires_zero_slice_in_dom():
    # realization of 1/(1 - a) style pencil singular at A = I
    J = np.eye(1, dtype=complex)
    S = (np.eye(1, dtype=complex),)
    T = (np.zeros((1, 1), dtype=complex),)
    R = realize.Realization.make(J, S, T, np.array([1.0 + 0j]))
    t = HermTuple(1, (np.array([[1.0 + 0j]]),), (np.zeros((1, 1), complex),),
                  validate=False)
    with pytest.raises(KebabError):
        caterpillar_eval(R, t)


def test_caterpillar_and_sqrt_form_without_x_letters():
    # g = 0: r(a) = 1 / (1 - a / 2), so L = 0 and both forms reduce to
    # c* (J - A (x) S)^-1 c
    R = realize.Realization.make([[1]], [[[0.5]]], [], [1])
    t = HermTuple(1, (np.array([[0.1 + 0j]]),), (), validate=False)
    want = eval_realization(R, t)
    assert want[0, 0] == pytest.approx(1 / 0.95, rel=1e-14)
    assert np.allclose(sum(caterpillar_eval(R, t)), want, rtol=1e-14)
    assert np.allclose(butterfly_build(R).eval_sqrt_form(t), want,
                       rtol=1e-14)


# ---------------------------------------------------------------------------
# butterfly evaluators

@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_sqrt_form_matches_eval_on_item4_domain(seed):
    rng = np.random.default_rng(seed)
    R = rand_minimal_smr(rng, e=4, h=1, g=2)
    cert = butterfly_build(R)
    hits = 0
    for t in kebab_points(R, rng, 40, scale=0.25):
        if not cert.in_domain_item4(t):
            continue
        got = cert.eval_sqrt_form(t)
        want = eval_realization(R, t)
        err = np.linalg.norm(got - want, 2) / max(1.0, np.linalg.norm(want, 2))
        assert err <= 1e-8
        hits += 1
        if hits >= 5:
            break


@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_item4_membership_matches_definitional_domain(seed):
    rng = np.random.default_rng(seed)
    R = rand_minimal_smr(rng, e=4, h=1, g=2)
    cert = butterfly_build(R)
    for _ in range(25):
        n = int(rng.choice((1, 2, 3)))
        t = matkit.sample_tuple(n, (R.h, R.g), 0.35, rng)
        if not in_dom_kebab(R, t):
            continue
        lhs = cert.in_domain_item4(t)
        rhs = in_dom_kebab_plus(R, t)
        assert lhs == rhs


def region_pair(pb, R, kind):
    """PolyRegion and the pencil Region of one kind."""
    return butterfly.PolyRegion(pb, kind), Region(R, kind)


def assert_region_answers_match(pb, R, kind, mats, rng, name):
    """PolyRegion(pb, kind) against Region(R, kind) on a stack of points:
    the same mask; at each point the ell/w Hessian is the pencil's to
    1e-9, rt_lambda_min is min(lambda_min(w(A)), 0) of w(A) at the point
    alone and has the sign of the pencil's R_T at psd_mask's tolerance,
    and values, p at the first three points, is r there to 1e-9.
    Returns the mask."""
    region, ref = region_pair(pb, R, kind)
    got, payload = region.test(mats)
    want, W = ref.test(mats)
    assert np.array_equal(got, want), (name, kind)
    n = mats.shape[-1]
    points = [HermTuple(n, tuple(M[:R.h]), tuple(M[R.h:]), validate=False)
              for M in mats]
    for t, pay, Wi in zip(points, payload, W):
        H = partialcvx._herm_stack(n, [(n, n, True)] * R.g, 1.0, rng, 1)[0]
        hess = region.hessian(t, H, pay)
        want_h = ref.hessian(t, H, Wi)
        bound = 1e-9 * max(1.0, np.linalg.norm(want_h, 2))
        assert np.linalg.norm(hess - want_h, 2) <= bound, (name, kind)
        low, ref_low = region.rt_lambda_min(t, pay), ref.rt_lambda_min(t, Wi)
        if not pb.k:
            assert low == 0.0
            continue
        alone = np.linalg.eigvalsh(eval_poly(pb.w, t))
        assert low == min(alone[0], 0.0)
        rt = np.linalg.eigvalsh(ref.r_T(Wi, n))
        assert ref_low == rt[0]
        assert matkit.psd_mask(rt) == matkit.psd_mask(alone), (name, kind)
    vals = region.values(points[:3], payload[:3])
    for v, want_v in zip(vals, ref.values(points[:3], W[:3])):
        assert np.linalg.norm(v - want_v, 2) \
            <= 1e-9 * max(1.0, np.linalg.norm(want_v, 2)), (name, kind)
    return got


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("workload", ["partial-accept", "partial-reject"])
def test_poly_region_matches_the_pencil_region_on_corpora(
        workload, seed, tmp_path, monkeypatch):
    """On every butterfly input of the partial corpora, the PolyRegion of
    each kind answers as Region(R, kind) on p's realization R (the pencil
    path is the reference): the same mask, and the same Hessian, R_T sign
    and values at each point (assert_region_answers_match), at sizes 1-3."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import corpus
    rng = np.random.default_rng(seed)
    counts = {kind: [0, 0] for kind in realize.REGION_KINDS}
    for item in corpus.build(workload, seed, tmp_path, DATA):
        try:
            pb = poly_butterfly(item.poly)
        except NotConvexible:
            continue
        R = linearize_poly(item.poly)
        for n in (1, 2, 3):
            mats = partialcvx._herm_stack(n, [(n, n, True)] * (R.h + R.g),
                                          0.6, rng, 4)
            for kind in realize.REGION_KINDS:
                got = assert_region_answers_match(pb, R, kind, mats, rng,
                                                  item.name)
                counts[kind][0] += int(got.sum())
                counts[kind][1] += len(mats)
    for kind, (inside, total) in counts.items():
        assert inside > 0, kind
        if kind in ("dom", "kebab"):
            assert inside == total
        elif workload == "partial-reject":
            assert inside < total, kind


# ---------------------------------------------------------------------------
# polynomial butterfly decomposition

def test_poly_butterfly_xax_textbook_form():
    p = FreePoly.from_terms(CTX_AX, {(1, 0, 1): 1.0})
    pb = poly_butterfly(p)
    assert pb.k == 1
    assert pb.psd_at_zero()
    # ell = x, w = a, fbar = 0, copied from p's one coefficient
    assert pb.ell.coeffs == {(1,): 1.0}
    assert pb.w.coeffs == {(0,): 1.0}
    assert pb.fbar.coeffs == {}


def test_poly_butterfly_builds_no_realization(tmp_path, monkeypatch):
    """The butterfly is p's coefficients, copied, and its regions judge
    w(A) and prove emptiness from w's coefficients: partial on x a x - x x
    (every plus-kind size proved empty) and on 40 random polynomials of
    x-degree at most two, at every region, calls neither linearize_poly
    nor Realization.pencils."""
    calls = []
    for owner, name in ((realize, "linearize_poly"),
                        (realize.Realization, "pencils")):
        def spy(*args, name=name, call=getattr(owner, name), **kw):
            calls.append(name)
            return call(*args, **kw)
        monkeypatch.setattr(owner, name, spy)
    xaxxx = tmp_path / "xaxxx.txt"
    xaxxx.write_text("vars a: a | x: x\n1 * x a x\n-1 * x x\n")
    files = [xaxxx]
    rng = np.random.default_rng(36)
    while len(files) < 41:
        p = rand_sym_poly(rng, int(rng.integers(0, 3)),
                          int(rng.integers(1, 3)))
        if p.degree_in_class("x") == 0:
            continue
        files.append(tmp_path / ("p%d.txt" % len(files)))
        files[-1].write_text(format_poly(p))
    for path in files:
        for region in ("default", "dom", "kebab-plus", "ball:0.5"):
            code = cli.main(["partial", str(path), "--region", region,
                             "--sizes", "1,2", "--samples", "3",
                             "--out", str(tmp_path / "r.json")])
            assert code in (0, 1, 3), (path.read_text(), region)
    assert calls == []


@settings(max_examples=60, deadline=None)
@given(seed=seeds, h=st.integers(0, 2), g=st.integers(1, 2))
def test_middle_matrix_butterfly_on_random_polynomials(seed, h, g):
    """On random symmetric polynomials of x-degree at most two: p = fbar
    + ell* w ell coefficient by coefficient (poly_mul); 2 ell(A, H)* w(A)
    ell(A, H) is the central second difference of eval_poly in the
    direction H (exact for x-degree two); the PolyRegion of each kind
    answers as Region(linearize_poly(p), kind) (assert_region_answers_match);
    psd_at_zero is whether J11 is PSD."""
    rng = np.random.default_rng(seed)
    p = rand_sym_poly(rng, h, g)
    if p.degree_in_class("x") == 0:
        return
    pb = poly_butterfly(p)
    recon = pb.fbar
    if pb.k:
        recon = recon + pb.ell.adjoint() @ pb.w @ pb.ell
    assert (p - recon).coeffs == {}
    R = linearize_poly(p)
    assert pb.psd_at_zero() == matkit.is_psd(R.frame.J11).is_psd
    for n in (1, 2, 3):
        mats = partialcvx._herm_stack(n, [(n, n, True)] * (h + g), 0.6,
                                      rng, 6)
        for kind in realize.REGION_KINDS:
            assert_region_answers_match(pb, R, kind, mats, rng, kind)
        payload = butterfly.PolyRegion(pb).test(mats)[1]
        t = HermTuple(n, tuple(mats[0, :h]), tuple(mats[0, h:]),
                      validate=False)
        H = tuple(matkit.sample_herm(n, 1.0, rng) for _ in range(g))

        def at(s):
            return eval_poly(p, HermTuple(n, t.A, tuple(
                X + s * D for X, D in zip(t.X, H)), validate=False))

        diff = at(1.0) - 2 * at(0.0) + at(-1.0)
        hess = butterfly.PolyRegion(pb).hessian(t, H, payload[0])
        assert np.linalg.norm(hess - diff, 2) \
            <= 1e-12 * max(1.0, np.linalg.norm(diff, 2))


def reconstruct_eval(pb, t):
    out = eval_poly(pb.fbar, t)
    if pb.k:
        ell = eval_poly(pb.ell, t)
        w = eval_poly(pb.w, t)
        out = out + ell.conj().T @ w @ ell
    return out


@settings(max_examples=12, deadline=None)
@given(seed=seeds)
def test_poly_butterfly_reconstructs_squares(seed):
    """p = u* u + affine part, with u linear in x, decomposes and evaluates back."""
    rng = np.random.default_rng(seed)
    ctx = CTX_A2X
    words_a = [(), (0,), (0, 0)]

    def rand_a_poly():
        return FreePoly.from_terms(
            ctx, {w: complex(rng.normal(), rng.normal()) * 0.5
                  for w in words_a if rng.random() < 0.7})

    u = rand_a_poly()
    for j in (1, 2):
        u = u + FreePoly.letter(ctx, ctx.name(j)) @ rand_a_poly()
    aff = rand_a_poly()
    p = u.adjoint() @ u + aff + aff.adjoint()
    if p.degree_in_class("x") < 2:
        return
    pb = poly_butterfly(p)
    assert pb.psd_at_zero()
    for n in (1, 2):
        t = rand_herm_tuple(ctx, n, rng, scale=0.5)
        want = eval_poly(p, t)
        got = reconstruct_eval(pb, t)
        assert np.allclose(got, want, atol=1e-7 * max(1.0, np.linalg.norm(want, 2)))


@pytest.mark.parametrize("scale", [1e9, 1e12])
def test_poly_butterfly_fbar_drops_rounding_at_scale(scale):
    """The fbar of scale (x x + x a x) is 0: fbar copies the words of
    x-degree at most one, and there are none, at any scale."""
    p = FreePoly.from_terms(CTX_AX, {(1, 1): scale, (1, 0, 1): scale})
    assert poly_butterfly(p).fbar.coeffs == {}


def seeded_sos(ctx, seed, span):
    """Sum of two squares q* q with q = c0 w0 + sum c_i u_i x v_i over
    ctx's a-letters and its one x-letter, complex c_i and |u_i v_i| =
    span, so p has a-degree 2 span."""
    rng = np.random.default_rng(seed)
    h = ctx.h

    def aword(m):
        return tuple(int(i) for i in rng.integers(0, h, size=m))

    def coeff():
        return complex(rng.normal(), rng.normal())

    p = FreePoly.zero(ctx)
    for _ in range(2):
        q = FreePoly.from_terms(ctx, {aword(1): coeff()})
        for _ in range(2):
            m = int(rng.integers(0, span + 1))
            q = q + FreePoly.from_terms(
                ctx, {aword(m) + (h,) + aword(span - m): coeff()})
        p = p + q.adjoint() @ q
    assert p.degree_in_class("a") == 2 * span
    return p


def realization_fbar(R, ctx, dega, tol):
    """The terms of x-degree at most one read off a realization R of p:
    c* M_w J c at each a-word w up to length dega, M_w = (J S_w1)...(J
    S_wm), and v_r* T_j v_l at each pair of them, v_w = M_w J c, at the
    word r~ x_j l; the terms above tol are kept."""
    prods, level = {(): np.eye(R.e, dtype=complex)}, [()]
    for _ in range(dega):
        level = [w + (j,) for w in level for j in range(R.h)]
        prods.update({w: prods[w[:-1]] @ R.J @ R.S[w[-1]] for w in level})
    words = list(prods)
    V = np.array([prods[w] @ R.J @ R.c for w in words])
    fbar = {w: val for w, val in zip(words, V @ R.c.conj()) if abs(val) > tol}
    for jx, T in enumerate(R.T):
        pairs = V.conj() @ T @ V.T
        for r, l in zip(*np.nonzero(np.abs(pairs) > tol)):
            fbar[words[r][::-1] + (ctx.h + jx,) + words[l]] = pairs[r, l]
    return fbar


@pytest.mark.parametrize("span", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1])
def test_poly_butterfly_gram_product_matches_pair_loop(seed, span):
    """Sums of squares (seeded_sos) in two a-letters at a-degree 2 span
    (4 to 8).  The Gram product ell* w ell (poly_mul) holds, word by word,
    the pair loop over w's entries: w_m[r, s] at the word ell_r~ m ell_s
    (ell_r the monomial of row r); with fbar it makes p exactly.  The
    copied fbar agrees with its reading off p's realization."""
    p = seeded_sos(VarContext(("a", "b"), ("x",)), seed, span)
    pb = poly_butterfly(p)
    scale = max(1.0, max(abs(p.scalar_coeff(w)) for w in p.words()))
    row = {int(np.flatnonzero(v)[0]): w for w, v in pb.ell.coeffs.items()}
    assert sorted(row) == list(range(pb.k))
    pairs = {}
    for m, W in pb.w.coeffs.items():
        for r, s in zip(*np.nonzero(W)):
            word = row[r][::-1] + m + row[s]
            pairs[word] = pairs.get(word, 0) + W[r, s]
    gram = pb.ell.adjoint() @ pb.w @ pb.ell
    assert set(gram.coeffs) == set(pairs)
    for w, c in pairs.items():
        assert abs(gram.scalar_coeff(w) - c) <= EPS * scale
    assert (p - (pb.fbar + gram)).coeffs == {}
    fbar = realization_fbar(linearize_poly(p), p.ctx, 2 * span,
                            1e-10 * scale)
    assert set(pb.fbar.coeffs) == set(fbar)
    for w, c in fbar.items():
        assert abs(pb.fbar.scalar_coeff(w) - c) <= 1e-12 * scale


def full_word_series_terms(J, JC, B, max_len):
    """Terms of (J - sum_j C_j letter_j)^{-1} B = sum_w M_w B with
    M_w = (J C_w1)...(J C_wm) J, from the stack JC of the J C_j.

    Returns (words, terms): the words over range(len(JC)) up to max_len
    in degree-lexicographic order and the blocks M_w B stacked in that
    order, one batched product per word length (M_{jw} B = (J C_j) M_w B).
    """
    level_w, level = [()], (J @ B)[None]
    words, terms = [()], [level]
    for _ in range(max_len):
        level_w = [(j,) + w for j in range(len(JC)) for w in level_w]
        level = (JC[:, None] @ level[None]).reshape(-1, *B.shape)
        words += level_w
        terms.append(level)
    return words, np.concatenate(terms)


@pytest.mark.parametrize("letters, span", [
    (("a", "b"), 2), (("a", "b"), 3), (("a", "b"), 4),
    (("a", "b", "c"), 2), (("a", "b", "c"), 3)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pruned_series_matches_every_word(seed, letters, span):
    """realize.polynomial_of reads p back from its realization R by the
    series sum_w (c* N_w J c) z_w, N_l = J Z_l, grown over the surviving
    prefixes only.  On sums of squares (seeded_sos) at a-degree 2 span it
    keeps fewer words than the series over every word up to p's degree,
    and matches that series, and p, on every one of those words (a word
    it drops reads 0) to rounding."""
    p = seeded_sos(VarContext(letters, ("x",)), seed, span)
    R = linearize_poly(p)
    pruned = realize.polynomial_of(R)
    assert pruned is not None
    N = np.array([R.J @ Z for Z in R.S + R.T])
    words, terms = full_word_series_terms(R.J, N, R.c[:, None], p.degree())
    series = terms[:, :, 0] @ R.c.conj()
    assert set(pruned.coeffs) <= set(words)
    assert len(pruned.coeffs) < len(words)
    scale = max(1.0, max(abs(p.scalar_coeff(w)) for w in p.words()))
    for w, c in zip(words, series):
        got = pruned.scalar_coeff(w) if w in pruned.coeffs else 0.0
        want = p.scalar_coeff(w) if w in p.coeffs else 0.0
        assert abs(got - c) <= 1e-12 * scale, w
        assert abs(c - want) <= 1e-12 * scale, w


def test_partial_three_letters_at_adegree_10_keeps_16_words(monkeypatch):
    """A sum of four squares in three a-letters at a-degree 10: a series
    over every a-word would have 88,573 words; partial exits 0, and the
    border vector and the middle matrix it copies from p hold at most 16
    words between them."""
    made = []
    build = butterfly.poly_butterfly
    monkeypatch.setattr(butterfly, "poly_butterfly",
                        lambda q: made.append(build(q)) or made[-1])
    assert cli.main(["partial",
                     str(TEST_DATA / "three_letter_sos_adeg10.txt")]) == 0
    (pb,) = made
    assert len(pb.ell.coeffs) + len(pb.w.coeffs) <= 16


def test_poly_butterfly_rejects_quartic_with_witness():
    ctx = VarContext((), ("x",))
    p = FreePoly.from_terms(ctx, {(0, 0, 0, 0): 1.0})
    with pytest.raises(NotConvexible) as ei:
        poly_butterfly(p)
    wit = ei.value.witness
    assert wit is not None
    gap = wit.gap(p)
    assert np.linalg.eigvalsh(gap)[0] == pytest.approx(wit.lambda_min, abs=1e-10)
    assert wit.lambda_min < -1e-8


def test_midpoint_search_clean_on_square():
    ctx = VarContext((), ("x",))
    p = FreePoly.from_terms(ctx, {(0, 0): 1.0})
    assert midpoint_violation_search(p, samples=40) is None
    assert reference_midpoint_search(p) is None
    assert midpoint_violation_search(p) is None


def reference_midpoint_search(p, samples=120):
    """The per-sample midpoint search: one candidate (A, X1, X2) of
    sample_herm draws at a time, judged by its own gap."""
    rng = np.random.default_rng(0)
    h, g = p.ctx.h, p.ctx.g
    for n in (2, 3):
        for _ in range(samples):
            A = tuple(matkit.sample_herm(n, 1.0, rng) for _ in range(h))
            X1 = tuple(matkit.sample_herm(n, 1.0, rng) for _ in range(g))
            X2 = tuple(matkit.sample_herm(n, 1.0, rng) for _ in range(g))
            cand = butterfly.MidpointWitness(A, X1, X2, 0.0)
            lam = float(np.linalg.eigvalsh(cand.gap(p))[0])
            if lam < -1e-8:
                return butterfly.MidpointWitness(A, X1, X2, lam)
    return None


def test_midpoint_search_matches_per_sample_loop(monkeypatch):
    """The block search finds the per-sample loop's witness, bit for bit,
    on x4 and on seeded polynomials of the benchmark's x-degree > 2
    shapes, each of which has one."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import corpus
    polys = [parse_poly((DATA / "x4_poly.txt").read_text())]
    polys += [parse_poly(corpus._word_text(words, random.Random(seed)))
              for words in corpus._DEEP for seed in range(3)]
    for p in polys:
        want = reference_midpoint_search(p)
        got = midpoint_violation_search(p)
        assert want is not None and got.lambda_min == want.lambda_min
        for g_mats, w_mats in ((got.A, want.A), (got.X1, want.X1),
                               (got.X2, want.X2)):
            assert len(g_mats) == len(w_mats)
            assert all(np.array_equal(M, N) for M, N in zip(g_mats, w_mats))
