"""Butterfly forms: caterpillar identity, sqrt form, slice normal form,
polynomial decomposition.

Every alternative evaluator is compared against eval_realization, which is
plain pencil inversion and serves as the oracle throughout.
"""

import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_herm_tuple, rand_minimal_smr
from ncconvex import butterfly, cli, matkit, partialcvx, realize
from ncconvex.butterfly import (
    KebabError,
    NotConvexible,
    butterfly_build,
    caterpillar_eval,
    fbar_eval,
    midpoint_violation_search,
    poly_butterfly,
    slice_reduce,
)
from ncconvex.ncalg import (FreePoly, HermTuple, VarContext, eval_poly,
                            parse_poly)
from ncconvex.realize import (
    eval_realization,
    in_dom,
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


@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_fbar_is_affine_in_x(seed):
    rng = np.random.default_rng(seed)
    R = rand_minimal_smr(rng, e=4, h=1, g=2)
    pts = kebab_points(R, rng, 3)
    for t in pts:
        n = t.n
        X2 = tuple(matkit.sample_herm(n, 0.2, rng) for _ in range(R.g))
        t_sum = HermTuple(n, t.A, tuple(a + b for a, b in zip(t.X, X2)),
                          validate=False)
        t_other = HermTuple(n, t.A, X2, validate=False)
        t_zero = R.zero_x(t)
        lhs = fbar_eval(R, t_sum)
        rhs = (fbar_eval(R, t) + fbar_eval(R, t_other)
               - fbar_eval(R, t_zero))
        assert np.allclose(lhs, rhs, atol=1e-8)


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


# ---------------------------------------------------------------------------
# slice normal form at frozen a-points

@settings(max_examples=12, deadline=None)
@given(seed=seeds, n=st.integers(1, 2))
def test_slice_membership_matches_in_dom(seed, n):
    rng = np.random.default_rng(seed)
    R = rand_minimal_smr(rng, e=4, h=1, g=2)
    A = tuple(matkit.sample_herm(n, 0.35, rng) for _ in range(R.h))
    form = slice_reduce(R, A, n=n)
    for _ in range(12):
        X = tuple(matkit.sample_herm(n, 0.35, rng) for _ in range(R.g))
        t = HermTuple(n, A, X, validate=False)
        assert form.membership(X) == in_dom(R, t)


def test_slice_membership_plus_on_xax():
    p = FreePoly.from_terms(CTX_AX, {(1, 0, 1): 1.0})
    R = linearize_poly(p)
    X = (np.array([[0.4]], dtype=complex),)
    pos = slice_reduce(R, (np.array([[1.0 + 0j]]),))
    neg = slice_reduce(R, (np.array([[-1.0 + 0j]]),))
    assert pos.membership_plus(X)
    assert not neg.membership_plus(X)


@pytest.mark.parametrize("workload", ["partial-accept", "partial-reject"])
def test_slice_membership_plus_matches_dom_plus_on_corpora(
        workload, tmp_path, monkeypatch):
    """At a frozen A, the slice normal form decides dom+ membership as the
    dom-plus Region does, on the realizations of the partial corpora."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import corpus
    rng = np.random.default_rng(0)
    inside = total = 0
    for item in corpus.build(workload, 1, tmp_path, DATA):
        R = linearize_poly(item.poly)
        region = Region(R, "dom-plus")
        for n in (1, 2):
            A = tuple(matkit.sample_herm(n, 0.6, rng) for _ in range(R.h))
            form = slice_reduce(R, A, n=n)
            for _ in range(4):
                X = tuple(matkit.sample_herm(n, 0.6, rng) for _ in range(R.g))
                want = HermTuple(n, A, X, validate=False) in region
                assert form.membership_plus(X) == want, item.name
                inside += want
                total += 1
    assert inside > 0
    if workload == "partial-reject":
        assert inside < total


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("workload", ["partial-accept", "partial-reject"])
def test_poly_region_matches_the_pencil_region_on_corpora(
        workload, seed, tmp_path, monkeypatch):
    """On every butterfly input of the partial corpora, the PolyRegion of
    each kind admits the draws that Region(R, kind) admits, and its ell/w
    Hessian and R_T lambda_min match the pencil's, at sizes 1-3."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import corpus
    rng = np.random.default_rng(seed)
    kinds = [k for k in realize.REGION_KINDS if k != "ball"]
    inside = total = 0
    for item in corpus.build(workload, seed, tmp_path, DATA):
        try:
            pb = poly_butterfly(item.poly)
        except NotConvexible:
            continue
        R = pb.realization
        for n in (1, 2, 3):
            mats = partialcvx._herm_stack(n, [(n, n, True)] * (R.h + R.g),
                                          0.6, rng, 4)
            for kind in kinds:
                region = butterfly.PolyRegion(pb, kind)
                got, payload = region.test(mats)
                want, W = Region(R, kind).test(mats)
                assert np.array_equal(got, want), (item.name, kind, n)
            # kebab-plus, the last kind, gives the counts and the points
            inside += int(got.sum())
            total += len(mats)
            for i, (w, ev) in enumerate(payload):
                t = HermTuple(n, tuple(mats[i, :R.h]), tuple(mats[i, R.h:]),
                              validate=False)
                H = partialcvx._herm_stack(n, [(n, n, True)] * R.g, 1.0,
                                           rng, 1)[0]
                hess = region.hessian(t, H, w)
                ref = partialcvx._hessians(R, W[i][None], H[None])[0]
                bound = 1e-9 * max(1.0, np.linalg.norm(ref, 2))
                assert np.linalg.norm(hess - ref, 2) <= bound, item.name
                rt_low = np.linalg.eigvalsh(realize.r_T(R, t, factors=W[i]))[0]
                assert abs(region.rt_lambda_min(ev) - rt_low) \
                    <= 1e-9 * max(1.0, abs(rt_low)), item.name
    assert inside > 0
    if workload == "partial-reject":
        assert inside < total


# ---------------------------------------------------------------------------
# polynomial butterfly decomposition

def test_poly_butterfly_xax_textbook_form():
    p = FreePoly.from_terms(CTX_AX, {(1, 0, 1): 1.0})
    pb = poly_butterfly(p)
    assert pb.k == 1
    assert pb.psd_at_zero
    # ell = x (phase-normalized), w = a, fbar = 0
    assert set(pb.ell.words()) == {(1,)}
    assert complex(pb.ell.coeffs[(1,)][0, 0]) == pytest.approx(1.0, abs=1e-10)
    assert set(pb.w.words()) == {(0,)}
    assert complex(pb.w.coeffs[(0,)][0, 0]) == pytest.approx(1.0, abs=1e-10)
    assert not pb.fbar.words() or all(
        np.max(np.abs(C)) < 1e-10 for C in pb.fbar.coeffs.values())


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
    assert pb.psd_at_zero
    for n in (1, 2):
        t = rand_herm_tuple(ctx, n, rng, scale=0.5)
        want = eval_poly(p, t)
        got = reconstruct_eval(pb, t)
        assert np.allclose(got, want, atol=1e-7 * max(1.0, np.linalg.norm(want, 2)))


def pair_loop_fbar_ell(pb, tol=1e-10, fbar_tol=1e-10):
    """Reference fbar and ell of a PolyButterfly from its realization: the
    resolvent series word by word and fbar's x-linear part pair by pair;
    ell keeps its entries above tol and fbar its terms above fbar_tol."""
    R = pb.realization
    p_ctx = pb.fbar.ctx
    V = R.frame.V_T
    dega = max((sum(1 for i in w if p_ctx.letter_class(i) == "a")
                for w in pb.w.coeffs), default=0)
    prods = {(): np.eye(R.e, dtype=complex)}
    level = [()]
    for _ in range(dega):
        level = [w + (j,) for w in level for j in range(R.h)]
        prods.update({w: prods[w[:-1]] @ R.J @ R.S[w[-1]] for w in level})
    wc = [(w, M @ R.J @ R.c) for w, M in prods.items()]
    fbar, ell = {}, {}
    for w, v in wc:
        val = complex(R.c.conj() @ v)
        if abs(val) > fbar_tol:
            fbar[w] = val
    for jx, T in enumerate(R.T):
        letter = (p_ctx.h + jx,)
        for w, v in wc:
            vec = V.conj().T @ T @ v
            if np.max(np.abs(vec)) > tol:
                ell[letter + w] = vec
        for wl, vl in wc:
            tv = T @ vl
            for wr, vr in wc:
                val = complex(vr.conj() @ tv)
                if abs(val) > fbar_tol:
                    fbar[wr[::-1] + letter + wl] = val
    return fbar, ell


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


@pytest.mark.parametrize("span", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1])
def test_poly_butterfly_gram_product_matches_pair_loop(seed, span):
    """Sums of squares (seeded_sos) in two a-letters at a-degree 2 span
    (4 to 8)."""
    p = seeded_sos(VarContext(("a", "b"), ("x",)), seed, span)
    pb = poly_butterfly(p)
    # fbar drops its terms at the scale of p's coefficients
    fbar, ell = pair_loop_fbar_ell(pb, fbar_tol=1e-10 * max(
        1.0, max(abs(p.scalar_coeff(w)) for w in p.words())))
    assert set(pb.fbar.coeffs) == set(fbar)
    scale = max(abs(c) for c in fbar.values())
    for w, c in fbar.items():
        assert abs(pb.fbar.scalar_coeff(w) - c) <= 1e-12 * scale
    # ell is unique up to the isometry of the dead-direction trim and the
    # phase rule, so compare the Gram matrices of its coefficients
    assert set(pb.ell.coeffs) == set(ell)
    words = sorted(ell)
    E = np.hstack([pb.ell.coeffs[w] for w in words])
    E_ref = np.column_stack([ell[w] for w in words])
    assert np.allclose(E.conj().T @ E, E_ref.conj().T @ E_ref,
                       atol=1e-12 * scale, rtol=0)


@pytest.mark.parametrize("scale", [1e9, 1e12])
def test_poly_butterfly_fbar_drops_rounding_at_scale(scale):
    """The fbar of scale (x x + x a x) is 0.  The rounding of c* W c at
    that scale (-5.7e-08 at 1e9, 3.7e-05 at 1e12) lies below 1e-10 max(1,
    max_w |coeff_w(p)|), so no term of it is kept."""
    p = FreePoly.from_terms(CTX_AX, {(1, 1): scale, (1, 0, 1): scale})
    assert poly_butterfly(p).fbar.coeffs == {}


def full_word_series_terms(J, JC, B, max_len):
    """Terms of (J - sum_j C_j letter_j)^{-1} B = sum_w M_w B with
    M_w = (J C_w1)...(J C_wm) J, from the stack JC of the J C_j.

    Returns (words, terms): the words over range(len(JC)) up to max_len
    in degree-lexicographic order and the blocks M_w B stacked in that
    order, one batched product per word length (M_{jw} B = (J C_j) M_w B);
    the last len(JC)**max_len blocks are the words of length max_len.
    """
    level_w, level = [()], (J @ B)[None]
    words, terms = [()], [level]
    for _ in range(max_len):
        level_w = [(j,) + w for j in range(len(JC)) for w in level_w]
        level = (JC[:, None] @ level[None]).reshape(-1, *B.shape)
        words += level_w
        terms.append(level)
    return words, np.concatenate(terms)


def every_word_series(JB, JC, dega, grow, max_len, tau):
    """_word_series_terms without the growth bound: every word up to
    length dega (J B comes formed, so J = I, which forms it exactly)."""
    words, terms = full_word_series_terms(np.eye(len(JB)), JC, JB, dega)
    return words, terms, len(JC) ** dega


def record_series(monkeypatch):
    """Record (args, (words, terms, last)) of each _word_series_terms call."""
    series, calls = butterfly._word_series_terms, []

    def spy(*args):
        out = series(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(butterfly, "_word_series_terms", spy)
    return calls


@pytest.mark.parametrize("letters, span", [
    (("a", "b"), 2), (("a", "b"), 3), (("a", "b"), 4),
    (("a", "b", "c"), 2), (("a", "b", "c"), 3)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pruned_series_matches_every_word(seed, letters, span, monkeypatch):
    """On sums of squares (seeded_sos) at a-degree 2 span, the series over
    the surviving words keeps the blocks of the series over every word
    bit for bit and in the same order, and w, ell and fbar keep the same
    words with the same coefficients.  These agree to rounding, not bit
    for bit: BLAS computes the columns past a product's last full block
    of columns with other kernels, which round differently, so a word's
    column can round differently among the survivors than among every
    word.  Three letters stop at a-degree 6: over every word, a-degree 8
    would take a Gram of 9841^2 entries (1.5 GB)."""
    p = seeded_sos(VarContext(letters, ("x",)), seed, span)
    calls = record_series(monkeypatch)
    pruned = poly_butterfly(p)
    monkeypatch.setattr(butterfly, "_word_series_terms", every_word_series)
    full = poly_butterfly(p)

    (args, (words, terms, last)), = calls
    all_words, all_terms, _ = every_word_series(*args)
    at = [all_words.index(w) for w in words]
    assert len(words) < len(all_words) and at == sorted(at)
    assert np.array_equal(terms, all_terms[at])
    assert last == sum(len(w) == 2 * span for w in words)
    scale = max(1.0, max(abs(p.scalar_coeff(w)) for w in p.words()))
    for got, want in ((pruned.w, full.w), (pruned.ell, full.ell),
                      (pruned.fbar, full.fbar)):
        assert set(got.coeffs) == set(want.coeffs)
        for w, c in got.coeffs.items():
            assert np.abs(c - want.coeffs[w]).max() <= 64 * EPS * scale


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


# ---------------------------------------------------------------------------
# poly_butterfly's self-checks, on realizations that are not p's

CTX_ABX = VarContext(("a", "b"), ("x",))


def chain_realization(letters, s):
    """e = m + 1 states with J the exchange matrix and J S_j = N_j, N_j
    the links of the upper shift labelled j, link i weighted s_i (s one
    weight for all links, or m of them; letters and weights palindromes,
    so S_j is Hermitian); T = e_1 e_1*, so V_T = e_1 and V_T* M_w V_T is
    the product of the weights, s^m for one weight, exactly for
    w = letters and 0 for every other word."""
    e = len(letters) + 1
    J = np.fliplr(np.eye(e))
    S = []
    for j in range(2):
        N = np.zeros((e, e))
        for link, (letter, weight) in enumerate(
                zip(letters, np.broadcast_to(s, len(letters)))):
            if letter == j:
                N[link, link + 1] = weight
        S.append(J @ N)
    T = np.zeros((e, e))
    T[0, 0] = 1.0
    return realize.Realization.make(J, S, [T], np.eye(e)[0])


@pytest.mark.parametrize("letters", [(1, 1), (0, 1, 0), (0, 1, 1, 0)])
def test_poly_butterfly_flags_a_series_past_dega(letters, monkeypatch):
    """x a x + x b x has a-degree 1 and degree 3, so the series must vanish
    on every a-word of length 2 to 4 above 1e-9: one word alive at 2e-9
    is flagged at its length, and at 5e-10 it is let through (and the
    identity check fails instead)."""
    p = FreePoly.from_terms(CTX_ABX, {(2, 0, 2): 1.0, (2, 1, 2): 1.0})
    m = len(letters)
    monkeypatch.setattr(butterfly, "linearize_poly",
                        lambda q: chain_realization(letters, 2e-9 ** (1 / m)))
    with pytest.raises(butterfly.RealizationError,
                       match="a-series fails to terminate at degree %d$" % m):
        poly_butterfly(p)
    monkeypatch.setattr(butterfly, "linearize_poly",
                        lambda q: chain_realization(letters, 5e-10 ** (1 / m)))
    with pytest.raises(butterfly.RealizationError, match="identity residual"):
        poly_butterfly(p)


def test_poly_butterfly_growth_bound_keeps_a_small_prefix(monkeypatch):
    """rho = 1e6 > 1.  In the chain with link weights (eps, L, L, eps),
    eps = 5e-11 and L = 1e6, the one-letter word's block (sqrt(2) eps =
    7.1e-11) lies below tau = 1e-10 (p at scale 1e12 leaves tau = tol),
    yet the word of length 4 grown from it has V* M_w V = (eps L)^2 =
    2.5e-9.  The growth bound, not the block size, decides: the prefix is
    kept, and the termination check flags the word."""
    p = FreePoly.from_terms(CTX_ABX, {(2, 0, 2): 1e12, (2, 1, 2): 1e12})
    eps, L = 5e-11, 1e6
    monkeypatch.setattr(
        butterfly, "linearize_poly",
        lambda q: chain_realization((0, 1, 1, 0), (eps, L, L, eps)))
    calls = record_series(monkeypatch)
    with pytest.raises(butterfly.RealizationError,
                       match="a-series fails to terminate at degree 4$"):
        poly_butterfly(p)
    (args, (words, terms, _)), = calls
    grow, tau = args[3], args[5]
    assert grow == pytest.approx(L) and tau == 1e-10
    assert np.linalg.norm(terms[words.index((0,))]) < tau


def test_partial_three_letters_at_adegree_10_keeps_16_words(monkeypatch):
    """A sum of four squares in three a-letters at a-degree 10: the series
    over every word would have 88,573 words and a Gram of 117 GiB; over
    the surviving words, partial exits 0 and keeps at most 16."""
    calls = record_series(monkeypatch)
    assert cli.main(["partial",
                     str(TEST_DATA / "three_letter_sos_adeg10.txt")]) == 0
    (_, (words, _, _)), = calls
    assert len(words) <= 16


@pytest.mark.parametrize("c, flagged", [(2e-8, True), (5e-9, False)])
def test_poly_butterfly_flags_identity_residual(c, flagged, monkeypatch):
    """The realization of x a x handed in for x a x + c a: the butterfly
    misses the term c a, which is flagged above 1e-8 only."""
    xax = FreePoly.from_terms(CTX_AX, {(1, 0, 1): 1.0})
    p = xax + FreePoly.from_terms(CTX_AX, {(0,): c})
    monkeypatch.setattr(butterfly, "linearize_poly", lambda q: linearize_poly(xax))
    if flagged:
        with pytest.raises(butterfly.RealizationError,
                           match="butterfly identity residual"):
            poly_butterfly(p)
    else:
        assert poly_butterfly(p).k == 1
