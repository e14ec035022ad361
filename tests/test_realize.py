"""Descriptor realizations: linearize, minimize, domains.

Oracle: eval_realization must reproduce eval_poly on the common domain; the
small frozen examples (x^2, a constant, x a x) pin the expected sizes and
signatures of the pipeline output.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (congruent_copy, padded_copy, probe_loop,
                      rand_herm_tuple, rand_minimal_smr, rand_poly, rand_smr,
                      rand_sym_poly, rand_symmetric_poly)
from ncconvex import butterfly, matkit, ncalg, partialcvx, realize
from ncconvex.ncalg import FreePoly, HermTuple, VarContext, eval_poly
from ncconvex.realize import (
    NotEquivalent,
    NotInDomain,
    Realization,
    eval_realization,
    in_dom,
    in_dom_kebab,
    in_dom_plus,
    linearize_poly,
    minimize,
    r_T,
    realization_from_json,
    realization_to_json,
    resolvent,
    state_space_similarity,
)

DATA = Path(realize.__file__).parent / "data"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

CTX_X = VarContext((), ("x",))
CTX_AX = VarContext(("a",), ("x",))

seeds = st.integers(0, 2**32 - 1)


def eval_agreement(p, R, rng, n_points=20, sizes=(1, 2, 3), tol=1e-8):
    """Compare eval_realization against eval_poly on random tuples."""
    checked = 0
    for _ in range(n_points):
        n = int(rng.choice(sizes))
        t = rand_herm_tuple(p.ctx, n, rng, scale=0.4)
        if not in_dom(R, t):
            continue
        pv = eval_poly(p, t)
        rv = eval_realization(R, t)
        err = np.linalg.norm(pv - rv, 2) / max(1.0, np.linalg.norm(pv, 2))
        assert err <= tol, f"eval mismatch {err:.3e}"
        checked += 1
    assert checked >= n_points // 2


def assert_word_coefficients(p, R, tol=1e-10):
    """Every word coefficient of R's series up to length deg p + 1,
    c* J^-1 (Z_w1 J^-1) ... (Z_wm J^-1) c, equals p's to tol relative to
    p's largest coefficient."""
    rep = realize.smr_linear_rep(R)
    scale = max(abs(p.scalar_coeff(w)) for w in p.coeffs)
    words, vecs = [()], rep.v[None, :]
    for _ in range(p.degree() + 2):
        want = np.array([p.scalar_coeff(w) for w in words])
        assert np.max(np.abs(vecs @ rep.u.conj() - want)) <= tol * scale
        # row k of vecs is M_w v for words[k]; prepend each letter
        words = [(z,) + w for z in range(p.ctx.nletters) for w in words]
        vecs = np.concatenate([vecs @ M.T for M in rep.mats])


# ---------------------------------------------------------------------------
# frozen pipeline outputs

def test_linearize_square():
    p = FreePoly.from_terms(CTX_X, {(0, 0): 1.0})
    R = linearize_poly(p)
    assert R.e == 3
    assert R.is_signature()
    signs = sorted(np.diag(R.J).real)
    assert signs == pytest.approx([-1.0, 1.0, 1.0])
    eval_agreement(p, R, np.random.default_rng(1))


def test_linearize_constant():
    p = FreePoly.from_terms(CTX_X, {(): 4.0})
    R = linearize_poly(p)
    assert R.e == 1
    t = HermTuple(2, (), (np.zeros((2, 2), dtype=complex),), validate=False)
    assert np.allclose(eval_realization(R, t), 4.0 * np.eye(2), atol=1e-12)


def test_linearize_xax():
    p = FreePoly.from_terms(CTX_AX, {(1, 0, 1): 1.0})
    R = linearize_poly(p)
    assert R.e == 4
    assert R.is_signature()
    eval_agreement(p, R, np.random.default_rng(2))


@pytest.mark.parametrize("scale", [1e3, 1.0, 1e-6, 1e-11, 1e-13])
def test_linearize_is_scale_invariant(scale):
    """Coefficients far below the rank cut still realize the polynomial:
    same state dimension as at scale 1, values relatively exact."""
    terms = {(1, 0, 0, 0, 0): 1.0, (0, 0, 0, 0, 1): 1.0, (0, 1, 0): 0.5}
    p = FreePoly.from_terms(CTX_AX, {w: scale * c for w, c in terms.items()})
    R = linearize_poly(p)
    assert R.e == linearize_poly(FreePoly.from_terms(CTX_AX, terms)).e
    assert_word_coefficients(p, R)
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(10):
        t = rand_herm_tuple(CTX_AX, int(rng.choice((1, 2, 3))), rng, scale=0.4)
        if not in_dom(R, t):
            continue
        pv = eval_poly(p, t)
        err = np.linalg.norm(pv - eval_realization(R, t), 2)
        assert err <= 1e-8 * np.linalg.norm(pv, 2)
        checked += 1
    assert checked >= 5
    # and a realization with c scaled by the same factor is still minimal
    # and similar to itself by the identity
    Rc = replace(R, c=scale * R.c)
    assert np.allclose(state_space_similarity(Rc, Rc), np.eye(R.e),
                       atol=1e-8)


def test_linearize_requires_symmetry():
    p = FreePoly.from_terms(CTX_X, {(0,): 1j})
    with pytest.raises(realize.SymmetryError):
        linearize_poly(p)


# ---------------------------------------------------------------------------
# pipeline properties

@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_linearize_reproduces_eval(seed):
    rng = np.random.default_rng(seed)
    p = rand_symmetric_poly(CTX_AX, rng, max_len=3, terms=4, scale=0.6)
    R = linearize_poly(p)
    assert R.is_signature()
    assert_word_coefficients(p, R)
    eval_agreement(p, R, rng)


@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_minimize_is_idempotent_and_preserves_eval(seed):
    rng = np.random.default_rng(seed)
    p = rand_symmetric_poly(CTX_AX, rng, max_len=3, terms=4, scale=0.6)
    R = linearize_poly(p)
    assert minimize(R) is R, "linearize output is minimal with J^2 = I"
    # an unreachable block, and a congruence with J^2 != I
    C = np.diag(rng.uniform(0.5, 2.0, size=R.e))
    for other in (padded_copy(R), congruent_copy(R, C)):
        Rm = minimize(other)
        assert Rm.e == R.e
        assert Rm.is_signature()
        assert realize.is_minimal_rep(realize.smr_linear_rep(Rm))
        eval_agreement(p, Rm, rng)


def direct_sum(R1, R2, sign=1.0):
    """The realization of r1 + sign r2: block diagonal J, S, T (R2's
    blocks times sign) and c stacked."""
    e1, e = R1.e, R1.e + R2.e

    def block(A, B):
        out = np.zeros((e, e), dtype=complex)
        out[:e1, :e1], out[e1:, e1:] = A, sign * B
        return out

    return Realization.make(
        block(R1.J, R2.J), [block(A, B) for A, B in zip(R1.S, R2.S)],
        [block(A, B) for A, B in zip(R1.T, R2.T)],
        np.concatenate([R1.c, R2.c]))


# the e that the earlier Krylov reduction and intertwiner solve gave on
# each input as it stands, padded and made congruent; on r1 - r1 that
# solve raised, and the function is zero
MINIMIZE_E = {"r1+r2": 6, "r1+r1": 3, "r1-r1": 0}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(MINIMIZE_E))
def test_minimize_dimension_of_direct_sums(name, seed):
    rng = np.random.default_rng(100 + seed)
    R1, R2 = rand_smr(rng, e=3), rand_smr(rng, e=3)
    C = np.diag(rng.uniform(0.5, 2.0, size=6))
    R = {"r1+r2": lambda: direct_sum(R1, R2),
         "r1+r1": lambda: direct_sum(R1, R1),
         "r1-r1": lambda: direct_sum(R1, R1, -1.0)}[name]()
    for other in (R, padded_copy(R), congruent_copy(R, C)):
        Rm = minimize(other)
        assert Rm.e == MINIMIZE_E[name]
        assert Rm.is_signature()
        assert realize.is_minimal_rep(realize.smr_linear_rep(Rm))
        for _ in range(5):
            t = matkit.sample_tuple(2, (R.h, R.g), 0.3, rng)
            if not in_dom(other, t):
                continue
            # the e = 0 realization is the zero function
            want = eval_realization(Rm, t) if Rm.e else np.zeros((2, 2))
            assert np.allclose(eval_realization(other, t), want, atol=1e-8)


@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_symmetrize_restores_signature(seed):
    rng = np.random.default_rng(seed)
    R = rand_minimal_smr(rng, e=4, h=1, g=2)
    assert R.is_signature()
    assert minimize(R) is R
    Rc = congruent_copy(R, np.diag(rng.uniform(0.5, 2.0, size=R.e)))
    assert not Rc.is_signature()
    sym = minimize(Rc)
    assert sym.e == R.e
    assert sym.is_signature()
    # same function: check on random domain points
    for _ in range(10):
        t = matkit.sample_tuple(2, (R.h, R.g), 0.3, rng)
        if in_dom(R, t) and in_dom(sym, t):
            assert np.allclose(eval_realization(R, t),
                               eval_realization(sym, t), atol=1e-7)


# ---------------------------------------------------------------------------
# similarity

@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_similarity_roundtrip(seed):
    rng = np.random.default_rng(seed)
    R = rand_minimal_smr(rng, e=4, h=1, g=2)
    S0 = state_space_similarity(R, R)
    assert not isinstance(S0, NotEquivalent)
    assert np.allclose(S0, np.eye(R.e), atol=1e-6)


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_similarity_between_pipeline_outputs(seed):
    rng = np.random.default_rng(seed)
    p = rand_symmetric_poly(CTX_AX, rng, max_len=3, terms=4, scale=0.6)
    R1 = linearize_poly(p)
    if R1.e == 0:
        return
    # rebuild from a unitarily conjugated copy of the same function
    M = rng.normal(size=(R1.e, R1.e)) + 1j * rng.normal(size=(R1.e, R1.e))
    U, _ = np.linalg.qr(M)
    R2 = Realization.make(U @ R1.J @ U.conj().T,
                          [U @ Z @ U.conj().T for Z in R1.S],
                          [U @ Z @ U.conj().T for Z in R1.T],
                          U @ R1.c)
    R2 = minimize(R2)
    S = state_space_similarity(R1, R2)
    assert not isinstance(S, NotEquivalent)
    assert np.allclose(S.conj().T @ R2.J @ S, R1.J, atol=1e-6)


def test_similarity_rejects_distinct_functions():
    p1 = FreePoly.from_terms(CTX_X, {(0, 0): 1.0})
    p2 = FreePoly.from_terms(CTX_X, {(0, 0): 1.0, (0,): 1.0})
    R1, R2 = linearize_poly(p1), linearize_poly(p2)
    if R1.e != R2.e:
        assert isinstance(state_space_similarity(R1, R2), NotEquivalent)
    else:
        out = state_space_similarity(R1, R2)
        assert isinstance(out, NotEquivalent)


# ---------------------------------------------------------------------------
# domains

def test_dom_predicates_on_xax():
    p = FreePoly.from_terms(CTX_AX, {(1, 0, 1): 1.0})
    R = linearize_poly(p)
    Apos = np.array([[1.0]], dtype=complex)
    Aneg = np.array([[-1.0]], dtype=complex)
    X = np.array([[0.3]], dtype=complex)
    tpos = HermTuple(1, (Apos,), (X,), validate=False)
    tneg = HermTuple(1, (Aneg,), (X,), validate=False)
    assert in_dom(R, tpos) and in_dom(R, tneg)
    # localizing matrix is PSD exactly when A is PSD
    assert in_dom_plus(R, tpos)
    assert not in_dom_plus(R, tneg)
    lam_pos = np.linalg.eigvalsh(matkit.herm(r_T(R, tpos)))[0]
    lam_neg = np.linalg.eigvalsh(matkit.herm(r_T(R, tneg)))[0]
    assert lam_pos > -1e-10
    assert lam_neg < -1e-3


@settings(max_examples=15, deadline=None)
@given(seed=seeds, n=st.integers(1, 3))
def test_dom_invariant_under_unitaries(seed, n):
    rng = np.random.default_rng(seed)
    R = rand_smr(rng, e=3, h=1, g=1)
    t = matkit.sample_tuple(n, (1, 1), 0.4, rng)
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    U, _ = np.linalg.qr(M)
    tc = HermTuple(n, tuple(U @ a @ U.conj().T for a in t.A),
                   tuple(U @ x @ U.conj().T for x in t.X), validate=False)
    assert in_dom(R, t) == in_dom(R, tc)
    if in_dom(R, t):
        assert in_dom_plus(R, t) == in_dom_plus(R, tc)


def test_kebab_requires_zero_slice():
    p = FreePoly.from_terms(CTX_AX, {(1, 0, 1): 1.0})
    R = linearize_poly(p)
    t = HermTuple(1, (np.array([[0.5]], dtype=complex),),
                  (np.array([[0.2]], dtype=complex),), validate=False)
    assert in_dom_kebab(R, t) == (in_dom(R, t)
                                  and in_dom(R, R.zero_x(t)))


# ---------------------------------------------------------------------------
# kernels: Krylov closure, Hankel rank, eigen-threshold domain test,
# Kronecker sums

def svd_orth(B, rtol):
    """Orthonormal basis of the column space, SVD rank truncation."""
    if B.size == 0:
        return np.zeros((B.shape[0], 0), dtype=complex)
    U, s, _ = np.linalg.svd(B, full_matrices=False)
    if len(s) == 0 or s[0] == 0:
        return np.zeros((B.shape[0], 0), dtype=complex)
    k = int(np.sum(s > rtol * s[0]))
    return U[:, :k]


def svd_krylov_closure(mats, seed, rtol=realize.RTOL_RANK):
    """The Krylov closure by one SVD rank truncation of [Q, M_i Q] per
    round (svd_orth), as a reference for the Gram-Schmidt closure."""
    Q = svd_orth(seed.reshape(-1, 1), rtol)
    while True:
        Q2 = svd_orth(np.hstack([Q] + [M @ Q for M in mats]), rtol)
        if Q2.shape[1] == Q.shape[1]:
            return Q2
        Q = Q2


def svd_hankel_rank(p, rtol=realize.RTOL_RANK):
    """Numerical rank of the Hankel matrix coeff(u v) of p, u over the
    prefixes and v over the suffixes of its support, by SVD: the
    reference for the minimal dimension."""
    pre = {u: i for i, u in enumerate(sorted(
        {w[:t] for w in p.coeffs for t in range(len(w) + 1)}))}
    suf = {v: i for i, v in enumerate(sorted(
        {w[t:] for w in p.coeffs for t in range(len(w) + 1)}))}
    H = np.zeros((len(pre), len(suf)), dtype=complex)
    for w in p.coeffs:
        for t in range(len(w) + 1):
            H[pre[w[:t]], suf[w[t:]]] = p.scalar_coeff(w)
    s = np.linalg.svd(H, compute_uv=False)
    return int(np.sum(s > rtol * s[0])) if s.size and s[0] else 0


def minimal_dims(polys):
    """Per polynomial, (linearize_poly's e, the Gram-Schmidt reach closure
    dimension of its padded realization) and the references (the SVD
    rank of the Hankel matrix, the SVD closure dimension)."""
    got, want = [], []
    for p in polys:
        R = linearize_poly(p)
        rep = realize.smr_linear_rep(padded_copy(R))
        got.append((R.e, realize._krylov_closure(rep.mats, rep.v).shape[1]))
        want.append((svd_hankel_rank(p),
                     svd_krylov_closure(rep.mats, rep.v).shape[1]))
    return got, want


@pytest.mark.parametrize("workload", ["partial-accept", "partial-reject"])
def test_krylov_closure_dims_match_svd_closure_on_corpora(
        workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import corpus
    polys = [item.poly for seed in range(1, 6)
             for item in corpus.build(workload, seed, tmp_path, DATA)]
    got, want = minimal_dims(polys)
    assert got == want


@settings(max_examples=25, deadline=None)
@given(seed=seeds, letters=st.sampled_from([CTX_X, CTX_AX,
                                            VarContext(("a",), ("x", "y"))]))
def test_krylov_closure_dims_match_svd_closure(seed, letters):
    rng = np.random.default_rng(seed)
    q = rand_poly(letters, rng, max_len=3, terms=4)
    polys = [q.adjoint() @ q,
             rand_symmetric_poly(letters, rng, max_len=4, terms=6)]
    got, want = minimal_dims(polys)
    assert got == want


def test_krylov_closure_is_invariant_and_orthonormal():
    rng = np.random.default_rng(3)
    R = linearize_poly(rand_symmetric_poly(CTX_AX, rng, max_len=4, terms=6))
    rep = realize.smr_linear_rep(padded_copy(R))
    Q = realize._krylov_closure(rep.mats, rep.v)
    assert Q.shape[1] == R.e
    assert np.allclose(Q.conj().T @ Q, np.eye(Q.shape[1]), atol=1e-12)
    for M in rep.mats:
        MQ = M @ Q
        assert np.linalg.norm(MQ - Q @ (Q.conj().T @ MQ)) <= 1e-10
    assert np.linalg.norm(rep.v - Q @ (Q.conj().T @ rep.v)) <= 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_in_dom_eigen_threshold_matches_svd_rule(seed):
    """smin/smax from one eigvalsh give the SVD verdict on both sides of
    the threshold."""
    rng = np.random.default_rng(seed)
    R = rand_smr(rng, e=4, h=1, g=2, scale=0.8)
    for n in (1, 2, 3):
        t = rand_herm_tuple(VarContext(("a",), ("x", "y")), n, rng, scale=1.0)
        sv = np.linalg.svd(R.pencil(t), compute_uv=False)
        ratio = sv[-1] / max(1.0, sv[0])
        for tol_inv, want in ((0.99 * ratio, True), (1.01 * ratio, False)):
            assert in_dom(R, t, tol_inv) == want
            assert (sv[-1] > tol_inv * max(1.0, sv[0])) == want


def test_singular_pencil_is_outside_dom():
    one = np.eye(1, dtype=complex)
    R = Realization.make(one, [one], [], [1.0])
    t = HermTuple(1, (one,), (), validate=False)
    assert not in_dom(R, t)
    assert not in_dom_plus(R, t)
    with pytest.raises(NotInDomain):
        resolvent(R, t)


def test_ball_region_implies_dom():
    # 1 / (1 - 2a - 2x) is singular at a = x = 1/4, inside the ball
    one = np.eye(1)
    R = Realization.make(one, [2 * one], [2 * one], [1.0])
    ball = realize.Region(R, "ball", radius=0.5)
    singular = HermTuple(1, (0.25 * one,), (0.25 * one,), validate=False)
    assert not in_dom(R, singular)
    assert singular not in ball
    assert HermTuple(1, (0.1 * one,), (0.2 * one,), validate=False) in ball


@pytest.mark.parametrize("kind", realize.REGION_KINDS)
def test_zero_function_realization_has_every_point_in_its_region(kind):
    # minimize(R + (-R)) has e = 0: its pencil is empty, so invertible,
    # and R_T is vacuous; only the ball's radius can reject a point
    p = FreePoly.from_terms(CTX_AX, {(1, 0, 1): 1.0})
    R = linearize_poly(p)
    Z = minimize(direct_sum(R, R, -1.0))
    assert Z.e == 0
    rng = np.random.default_rng(7)
    pts = [matkit.sample_tuple(2, (Z.h, Z.g), 0.5, rng) for _ in range(3)]
    region = realize.Region(Z, kind, radius=0.5 if kind == "ball" else None)
    mask, W = region.test_points(pts)
    assert mask.tolist() == [True] * 3
    assert W.shape == (3, 0, 0)
    if kind == "ball":
        far = HermTuple(2, (np.eye(2),), (np.eye(2),), validate=False)
        assert far not in region
    else:
        assert all(pt in region for pt in pts)
    assert in_dom(Z, pts[0]) and in_dom_plus(Z, pts[0])


def test_kron_sum_equals_sum_of_krons():
    rng = np.random.default_rng(3)
    coeffs = [rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
              for _ in range(3)]
    mats = [rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
            for _ in range(3)]
    want = sum(np.kron(C, M) for C, M in zip(coeffs, mats))
    assert np.allclose(realize.kron_sum(coeffs, mats), want, atol=1e-13)
    assert realize.kron_sum((), ()).shape == (0, 0)
    # with leading batch axes each point's sum comes out bit for bit as
    # it does alone, for one term (a single x-letter) and for several
    for L, n in ((1, 1), (1, 3), (3, 1), (3, 3)):
        coeffs = rng.normal(size=(L, 4, 3)) + 1j * rng.normal(size=(L, 4, 3))
        mats = rng.normal(size=(2, 6, L, n, n)) \
            + 1j * rng.normal(size=(2, 6, L, n, n))
        stack = realize.kron_sum(coeffs, mats)
        assert stack.shape == (2, 6, 4 * n, 3 * n)
        for i in range(2):
            for j in range(6):
                alone = realize.kron_sum(coeffs, mats[i, j])
                assert np.array_equal(stack[i, j], alone)
                want = sum(np.kron(C, M) for C, M in zip(coeffs, mats[i, j]))
                assert np.allclose(alone, want, atol=1e-13)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["dom", "dom-plus", "kebab-plus", "ball"])
def test_handed_on_factors_match_from_scratch(seed, kind):
    """resolvent, r_T and eval_realization from the pencil inverse a
    region test hands on equal the functions that invert the pencil
    themselves, and that inverse is np.linalg.inv of the point's pencil."""
    rng = np.random.default_rng(seed)
    R = rand_smr(rng, e=4, h=1, g=2)
    if kind.endswith("plus"):  # R_T of a random R is rarely PSD
        R = linearize_poly(FreePoly.from_terms(CTX_AX, {(1, 0, 1): 1.0}))
    region = realize.Region(R, kind, radius=0.5)
    checked = 0
    for n in (1, 2, 3):
        points = [matkit.sample_tuple(n, (R.h, R.g), 0.5, rng)
                  for _ in range(6)]
        mask, W = region.test_points(points)
        for t, inside, f in zip(points, mask, W):
            if not (inside and in_dom(R, t)):
                continue
            checked += 1
            assert np.array_equal(f, np.linalg.inv(R.pencil(t)))
            for got, want in ((resolvent(R, t, factors=f), resolvent(R, t)),
                              (r_T(R, t, factors=f), r_T(R, t)),
                              (eval_realization(R, t, f),
                               eval_realization(R, t))):
                assert np.abs(got - want).max() \
                    <= 1e-13 * max(1.0, np.abs(want).max())
    assert checked > 0


THIN = "vars a: a b | x: x\n1 * x a x\n1 * x b x\n1 * b x\n1 * x b\n"


def herm_stack(n, count, scale, rng, size):
    """size draws of count Hermitian n x n matrices from one
    matkit.sample_blocks call, as (size, count, n, n)."""
    return np.stack(matkit.sample_blocks([(n, n, True)] * count, scale, rng,
                                         size), axis=1)


def boundary_point(region, out, inside):
    """A point of the segment from out (outside the region) to inside
    where region.test changes its answer: bisected until the parameter's
    two ends are adjacent floats, and the accepted end returned."""
    lo, hi = 0.0, 1.0
    while lo < (lo + hi) / 2 < hi:
        mid = (lo + hi) / 2
        if region.test(((1 - mid) * out + mid * inside)[None])[0][0]:
            hi = mid
        else:
            lo = mid
    return (1 - hi) * out + hi * inside


def eigh_reference(region, mats):
    """Region membership of a stack by eigendecomposition, as an
    independent reference: eigh of every pencil (and of the pencils at
    (A, 0) for the kebab kinds), _invertible on its eigenvalues, the
    ball's norms, and on the plus kinds R_T = V* Q diag(1/lam) Q* V,
    V = V_T (x) I, judged by eigvalsh and psd_mask."""
    R, B, n = region.R, len(mats), mats.shape[-1]
    P = R.pencils(region._with_zero_x(mats))
    lam, Q = np.linalg.eigh(P)
    mask = realize._invertible(lam, region.tol_inv)
    if region.kind == "ball":
        norms = np.linalg.svd(mats, compute_uv=False).max(axis=-1)
        inside = np.all(norms <= region.radius * (1 + 1e-12), axis=1)
        mask &= np.tile(inside, len(P) // B)
    if region.kind.endswith("plus") and R.frame.k:
        V = R.frame.lift(n)
        for i in np.flatnonzero(mask):
            RT = matkit.herm(V.conj().T @ (Q[i] / lam[i]) @ Q[i].conj().T @ V)
            mask[i] = matkit.psd_mask(np.linalg.eigvalsh(RT), region.tol)
    return mask.reshape(-1, B).all(axis=0)


def assert_matches_reference(region, mats):
    """Region.test's mask is eigh_reference's, and the W it hands on is
    np.linalg.inv of each point's own pencil wherever that exists."""
    mask, W = region.test(mats)
    assert np.array_equal(mask, eigh_reference(region, mats))
    R, n = region.R, mats.shape[-1]
    for i, b in enumerate(mats):
        t = HermTuple(n, tuple(b[:R.h]), tuple(b[R.h:]), validate=False)
        try:
            want = np.linalg.inv(R.pencil(t))
        except np.linalg.LinAlgError:
            assert not mask[i]
            continue
        assert np.array_equal(W[i], want)


def boundary_gaps(region, b):
    """How far the point b lies from the region's boundary, relative to
    scale: for each pencil of b, the gap of R_T's lambda_min to
    -tol scale (scale = max(1, ||R_T||)) on the plus kinds, and the gap of
    the pencil's smallest |eigenvalue| to tol_inv max(1, its largest)."""
    R = region.R
    t = HermTuple.make(b[:R.h], b[R.h:])
    gaps = []
    for u in ([t, R.zero_x(t)] if region.kind.startswith("kebab") else [t]):
        a = np.abs(np.linalg.eigvalsh(R.pencil(u)))
        gaps.append(abs(a.min() - region.tol_inv * max(1.0, a.max()))
                    / max(1.0, a.max()))
        if region.kind.endswith("plus") and R.frame.k:
            ev = np.linalg.eigvalsh(r_T(R, u, factors=np.linalg.inv(
                R.pencil(u))))
            scale = max(1.0, np.abs(ev).max())
            gaps.append(abs(ev[0] + region.tol * scale) / scale)
    return min(gaps)


@pytest.mark.parametrize("kind", realize.REGION_KINDS)
def test_region_mask_matches_eigh_reference(kind, monkeypatch):
    """Region.test, one batched LU inverse per stack, gives the mask of
    the eigendecomposition reference and hands on np.linalg.inv of each
    point's pencil: on random blocks; at bisected boundary points, where
    the two may differ only within 1e-12 scale of the boundary; at
    pencils of condition number near 1e9; and at an exactly singular
    pencil inside a block.  The rejection sampler leaves the generator
    where a per-draw loop does, with the same point and W."""
    one = np.eye(1)
    resolvent_1 = Realization.make(one, [2 * one], [2 * one], [1.0])
    polys = [FreePoly.from_terms(CTX_AX, {(1, 0, 1): 1.0}),
             ncalg.parse_poly(THIN),
             FreePoly.from_terms(CTX_X, {(0, 0, 0, 0): 1.0})]
    rng = np.random.default_rng(5)
    crossings = 0
    # with tol_inv 0.3, dom of resolvent_1 is a region of its own, where a
    # polynomial's pencil is always invertible
    for R, tol_inv in [(linearize_poly(p), 1e-10) for p in polys] \
            + [(resolvent_1, 0.3)]:
        region = realize.Region(R, kind, tol_inv=tol_inv, radius=0.5)
        for n in (1, 2, 3):
            draws = herm_stack(n, R.h + R.g, 0.6, rng, 96)
            mask = region.test(draws)[0]
            for B in (1, 2, 5, 16, 32):
                for at in range(0, 96 - B, 7):
                    assert_matches_reference(region, draws[at:at + B])
            if mask.all() or not mask.any():
                continue
            ins, outs = draws[mask], draws[~mask]
            for j in range(min(len(ins), len(outs), 8)):
                b = boundary_point(region, outs[j], ins[j])
                crossings += 1
                if not np.array_equal(region.test(b[None])[0],
                                      eigh_reference(region, b[None])):
                    assert boundary_gaps(region, b) <= 1e-12
                block = np.concatenate([outs[:3], b[None], ins[:2]])
                assert np.argmax(region.test(block)[0]) == len(outs[:3])
    assert crossings > 0

    # P = I - 2A - 2X of resolvent_1 with eigenvalues (d, 0.7) in a
    # random frame: d = +-1e-9 gives condition number 7e8, d = 0 an
    # exactly singular pencil (diagonal, so the LU meets a zero pivot)
    region = realize.Region(resolvent_1, kind, radius=1.0)
    U = np.linalg.qr(rng.normal(size=(2, 2))
                     + 1j * rng.normal(size=(2, 2)))[0]
    A = np.diag([0.05, 0.1]).astype(complex)

    def point(d, frame=U):
        D = frame @ np.diag([d, 0.7]) @ frame.conj().T
        return np.stack([A, (np.eye(2) - 2 * A - D) / 2])

    for d in (1e-9, -1e-9):
        cond = np.linalg.cond(resolvent_1.pencils(point(d)[None])[0])
        assert 1e8 < cond < 1e10
    singular = point(0.0, np.eye(2))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(resolvent_1.pencils(singular[None]))
    far = herm_stack(2, 2, 0.6, rng, 4)
    for block in ([point(-1e-9), point(1e-9)],
                  [point(-1e-9), singular, point(1e-9)],
                  [singular, far[0], point(1e-9), far[1]],
                  [far[2], far[3], singular]):
        assert_matches_reference(region, np.stack(block))
    assert region.test(singular[None])[0].tolist() == [False]

    # the rejection sampler against a per-draw loop of one-point tests,
    # at a budget of 60 draws per probe
    monkeypatch.setattr(partialcvx, "MAX_ATTEMPTS", 60)
    for R in (linearize_poly(polys[1]), resolvent_1):
        region = realize.Region(R, kind, radius=0.5)
        for n in (1, 2, 3):
            for seed in range(3):
                ref, rng = (np.random.default_rng(seed) for _ in range(2))
                want = list(probe_loop(region, n, 4, ref, 0.6))
                got = list(partialcvx.region_probes(region, n, 4, rng, 0.6))
                assert rng.bit_generator.state == ref.bit_generator.state
                assert len(got) == len(want)
                for (t, _, W), (t_ref, _, W_ref) in zip(got, want):
                    for M, N in zip(t.mats, t_ref.mats):
                        assert np.array_equal(M, N)
                    assert np.array_equal(W, W_ref)


@pytest.mark.parametrize("radius", [0.5, 0.3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ball_accepts_its_own_draws(n, radius):
    """Draws at scale radius are rescaled to norm radius, whose computed
    norm may exceed it by a few ulps; the ball still holds them."""
    R = linearize_poly(FreePoly.from_terms(CTX_AX, {(1, 0, 1): 1.0}))
    mats = herm_stack(n, R.h + R.g, radius, np.random.default_rng(n), 200)
    mask, _ = realize.Region(R, "ball", radius=radius).test(mats)
    assert mask.all()


def test_region_rejects_bad_kind_and_radius():
    R = linearize_poly(FreePoly.from_terms(CTX_AX, {(1, 0, 1): 1.0}))
    for kind, radius in (("dom+", None), ("ball", None), ("ball", 0.0),
                         ("ball", float("nan"))):
        with pytest.raises(ValueError):
            realize.Region(R, kind, radius=radius)


# ---------------------------------------------------------------------------
# serialization

@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_realization_json_roundtrip(seed):
    rng = np.random.default_rng(seed)
    R = rand_smr(rng, e=3, h=1, g=2)
    obj = realization_to_json(R)
    assert obj["classes"] == {"a": 1, "x": 2}
    R2 = realization_from_json(obj)
    assert R2.e == R.e
    assert np.array_equal(R2.J, R.J)
    for M, N in zip(R.S + R.T, R2.S + R2.T):
        assert np.array_equal(M, N)
    assert np.array_equal(R.c, R2.c)


def sos_degree8(seed):
    """q* q + r* r with q, r = c0 w0 + two terms c u x v, |u v| = 3, over
    a-letters a, b and complex coefficients: degree 8 in all."""
    rng = np.random.default_rng(seed)
    ctx = VarContext(("a", "b"), ("x",))

    def coeff():
        return complex(rng.normal(), rng.normal())

    def aword(m):
        return tuple(int(i) for i in rng.integers(0, 2, size=m))

    p = FreePoly.zero(ctx)
    for _ in range(2):
        q = FreePoly.from_terms(ctx, {aword(1): coeff()})
        for _ in range(2):
            m = int(rng.integers(0, 4))
            q = q + FreePoly.from_terms(ctx, {aword(m) + (2,) + aword(3 - m):
                                              coeff()})
        p = p + q.adjoint() @ q
    assert p.degree() == 8
    return p


REACH_ORDER_POLYS = {
    "xax": lambda: ncalg.parse_poly((DATA / "xax_poly.txt").read_text()),
    "x4": lambda: ncalg.parse_poly((DATA / "x4_poly.txt").read_text()),
    "intro": lambda: ncalg.parse_poly((DATA / "intro_poly.txt").read_text()),
    "ill_conditioned_sos_2": lambda: ncalg.parse_poly(
        (Path(__file__).parent / "data" / "ill_conditioned_sos_2.txt")
        .read_text()),
    "sos_degree8": lambda: sos_degree8(4),
    # complex coefficients, and all 4 suffix states are kept
    "complex_observable": lambda: rand_symmetric_poly(
        CTX_AX, np.random.default_rng(7), max_len=3, terms=4),
}


def poly_linear_rep(p):
    """Reference: the suffix-state linear representation of p over
    linearize_poly's states.  The letter action prepends when the result
    is again a state and kills the vector otherwise, v = e_() and
    u* e_w = coeff(w), so M_w v = e_w for every state w and the word
    coefficients come out exactly."""
    states = realize._suffix_states(p)
    idx = {w: i for i, w in enumerate(states)}
    d = len(states)
    v = np.zeros(d, dtype=complex)
    v[idx[()]] = 1.0
    mats = np.zeros((p.ctx.nletters, d, d), dtype=complex)
    for w in states[1:]:
        mats[w[0], idx[w], idx[w[1:]]] = 1.0
    u = np.zeros(d, dtype=complex)
    for w in p.coeffs:
        u[idx[w]] = np.conj(p.scalar_coeff(w))
    return realize.LinearRep(u, tuple(mats), v)


@pytest.mark.parametrize("name", sorted(REACH_ORDER_POLYS))
def test_poly_linear_rep_states_are_in_reach_order(name):
    """The reach closure of the suffix-state representation takes the
    standard basis vectors in their own order, so it is exactly I."""
    rep = poly_linear_rep(REACH_ORDER_POLYS[name]())
    Q = realize._krylov_closure(rep.mats, rep.v)
    assert np.array_equal(Q, np.eye(rep.dim))


@pytest.mark.parametrize("name", sorted(set(REACH_ORDER_POLYS) - {"intro"}))
def test_linearize_poly_skips_only_an_identity_closure(name):
    """linearize_poly, which leaves out the reach closure Q of the suffix
    states, gives bit for bit the realization read from the Hankel matrix
    and letter forms taken in Q's coordinates, as minimize takes them:
    G[i, j] = coeff(s_i~ s_j) and Gz[z][i, j] = coeff(s_i~ z s_j) for the
    words s_i that reach Q's columns."""
    p = REACH_ORDER_POLYS[name]()
    rep = poly_linear_rep(p)
    Q = realize._krylov_closure(rep.mats, rep.v)
    states = realize._suffix_states(p)
    H = np.array([[p.scalar_coeff(s[::-1] + t) for t in states]
                  for s in states], dtype=complex)
    Hz = np.array([[[p.scalar_coeff(s[::-1] + (z,) + t) for t in states]
                    for s in states] for z in range(p.ctx.nletters)],
                  dtype=complex)
    Qh = Q.conj().T
    want = realize._signature_realization(Qh @ H @ Q, Qh @ Hz @ Q,
                                          Qh @ rep.v, p.ctx.h, 0.0)
    got = linearize_poly(p)
    assert got.e == want.e
    for a, b in zip((got.J, got.c) + got.S + got.T,
                    (want.J, want.c) + want.S + want.T):
        assert np.array_equal(a, b)
    assert (len(got.S), len(got.T)) == (len(want.S), len(want.T))


# ---------------------------------------------------------------------------
# dom+ proved empty from the coefficients of the matrix each region judges

def corpus_polys(monkeypatch, tmp_path, workload, seeds):
    """{(seed, name): the input polynomial} of a benchmark corpus."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import corpus
    return {(seed, item.name): item.poly for seed in seeds
            for item in corpus.build(workload, seed, tmp_path, DATA)}


def reference_dom_plus_empty(R, scale, tol=matkit.TOL_PSD):
    """The constant-direction proof that prove_empty replaced, as the
    reference: (u, a, c, norm_bound, lambda_bound) or None.

    With J^2 = I and jointly nilpotent letters N_l = J Z_l, R_T(A, X)
    (u (x) y) = (J11 u) (x) y for every u with J V_T u orthogonal to the
    smallest N_l*-invariant subspace O containing every ran N_l* V_T;
    (built as realize._krylov_closure builds its closure, from a
    frontier of several columns); among those (the kernel Q of
    O* J V_T) u is the lowest eigenvector of
    Q* J11 Q when it is negative, else the u of its kernel that J11 moves
    most.  ||R_T|| <= B = sum_(m < e) rho^m, rho = scale sum_l ||N_l||
    (1 + 1e-12), and lambda_min(R_T) <= ((a + B) - sqrt((B - a)^2 +
    4 c^2)) / 2 by interlacing."""
    frame = R.frame
    if R.psd_at_zero(tol) or not frame.k or not R.is_signature() \
            or not R.letters[1]:
        return None
    N, _, norms = R.letters
    Nh = N.conj().swapaxes(-1, -2)
    O = np.zeros((R.e, 0), dtype=complex)
    frontier = np.hstack(Nh @ frame.V_T)
    while frontier.shape[1]:
        k = O.shape[1]
        O, _ = realize._pivoted_gs(O, frontier, realize._krylov_cut(N))
        frontier = np.hstack([O[:, :0]] + [M @ O[:, k:] for M in Nh])
    _, s, Vh = np.linalg.svd(O.conj().T @ R.J @ frame.V_T)
    Q = Vh[int(np.sum(s > realize.RTOL_RANK)):].conj().T
    if not Q.shape[1]:
        return None
    J11 = frame.J11
    mu, E = np.linalg.eigh(matkit.herm(Q.conj().T @ J11 @ Q))
    if mu[0] < -realize.RTOL_RANK:
        v = E[:, 0]
    else:
        ker = E[:, mu <= realize.RTOL_RANK]
        if not ker.shape[1]:
            return None
        v = ker @ np.linalg.svd(J11 @ Q @ ker)[2][0].conj()
    u = Q @ v
    u = u * (matkit.unit_phase(u) / np.linalg.norm(u))
    a = float(np.real(u.conj() @ J11 @ u))
    c = float(np.linalg.norm(J11 @ u - a * u))
    rho = scale * float(norms.sum()) * (1 + 1e-12)
    B = 1.0
    for _ in range(R.e - 1):
        B = 1.0 + rho * B
        if not tol * B <= 2:
            return None
    lam = ((a + B) - math.hypot(B - a, 2 * c)) / 2
    if not lam < -tol * max(1.0, B):
        return None
    return u, a, c, B, lam


def proof_corpus(monkeypatch, tmp_path):
    """(label, polynomial, scale) cases: 300 seeded rand_sym_poly inputs of
    x-degree <= 2 at --scale 0.3, 0.6 and 2 whose w(0) fails psd_mask;
    x4 and deep0-4 of partial-reject at seeds 1-3 and 40 seeded random
    polynomials of x-degree 3-5, at --scale 0.6."""
    rng = np.random.default_rng(2036)
    cases = []
    for i in range(300):
        p = rand_sym_poly(rng, int(rng.integers(0, 3)),
                          int(rng.integers(1, 3)))
        if p.degree_in_class("x") != 2:
            continue
        if butterfly.poly_butterfly(p).psd_at_zero():
            continue
        cases += [("sym%d" % i, p, scale) for scale in (0.3, 0.6, 2.0)]
    polys = corpus_polys(monkeypatch, tmp_path, "partial-reject", (1, 2, 3))
    cases += [("%s@%d" % (name, seed), p, 0.6)
              for (seed, name), p in polys.items()
              if name == "x4_poly.txt" or name.startswith("deep")]
    found = 0
    while found < 40:
        p = rand_sym_poly(rng, int(rng.integers(0, 3)),
                          int(rng.integers(1, 3)), max_x=5)
        if p.degree_in_class("x") >= 3:
            cases.append(("deg%d" % found, p, 0.6))
            found += 1
    return cases


def test_empty_proof_holds_wherever_the_reference_does(monkeypatch,
                                                       tmp_path):
    """On proof_corpus, the region's empty_proof holds wherever the
    constant-direction reference does: for x-degree <= 2 from w's
    coefficients (PolyRegion), above that from R_T's series on the same
    realization (Region), where its norm_bound and lambda_bound are no
    larger than the reference's (lambda_bound to rounding).  It proves
    more cases than the reference, among them x a x - x x, which the
    reference cannot."""
    counts = {"reference": 0, "new": 0}
    for label, p, scale in proof_corpus(monkeypatch, tmp_path):
        R = linearize_poly(p)
        ref = reference_dom_plus_empty(R, scale)
        if p.degree_in_class("x") <= 2:
            region = butterfly.PolyRegion(butterfly.poly_butterfly(p),
                                          "dom-plus")
        else:
            region = realize.Region(R, "dom-plus")
        proof = region.empty_proof(scale)
        counts["reference"] += ref is not None
        counts["new"] += proof is not None
        if ref is None:
            continue
        assert proof is not None, (label, scale)
        if isinstance(region, realize.Region):
            assert proof.norm_bound <= ref[3], label
            # no larger up to rounding: where c is 0 both bounds are a,
            # computed from different unit vectors
            assert proof.lambda_bound <= ref[4] + 1e-12 * max(1.0,
                                                             abs(ref[4])), \
                label
    assert counts["new"] > counts["reference"] > 0, counts
    xaxxx = ncalg.parse_poly("vars a: a | x: x\n1 * x a x\n-1 * x x\n")
    assert reference_dom_plus_empty(linearize_poly(xaxxx), 0.6) is None
    proof = butterfly.PolyRegion(butterfly.poly_butterfly(xaxxx),
                                 "dom-plus").empty_proof(0.6)
    assert proof.form == "rayleigh"
    assert proof.lambda_bound == pytest.approx(-0.4)


def eval_series(words, coeffs, t):
    """sum_w coeffs[w] (x) Z^w at the point t (letters a, then x)."""
    mats, n = t.mats, t.n
    total = np.zeros((coeffs.shape[1] * n,) * 2, dtype=complex)
    for w, M in zip(words, coeffs):
        Zw = np.eye(n, dtype=complex)
        for l in w:
            Zw = Zw @ mats[l]
        total += np.kron(M, Zw)
    return total


def at_norm(mats, scale):
    """Each matrix of a stack of points rescaled to spectral norm scale."""
    norms = np.linalg.svd(mats, compute_uv=False)[..., 0]
    return mats * (scale / np.maximum(norms, 1e-300))[..., None, None]


def test_empty_proof_is_sound(monkeypatch, tmp_path):
    """R_T's series equals r_T at random points to 1e-12 relative; and
    where a proof holds, no draw at sizes 1-3 passes the plus regions'
    test, neither as drawn nor rescaled to norm exactly the scale, and
    lambda_min of the judged matrix is at most lambda_bound (to
    rounding)."""
    rng = np.random.default_rng(3601)
    proved = 0
    for label, p, scale in proof_corpus(monkeypatch, tmp_path)[::4]:
        R = linearize_poly(p)
        words, coeffs, _ = realize._word_series(R, R.frame.V_T)
        for n in (1, 2):
            m = partialcvx._herm_stack(n, [(n, n, True)] * (R.h + R.g),
                                       0.6, rng, 1)[0]
            t = HermTuple(n, tuple(m[:R.h]), tuple(m[R.h:]), validate=False)
            rt = r_T(R, t)
            assert np.linalg.norm(eval_series(words, coeffs, t) - rt, 2) \
                <= 1e-12 * max(1.0, np.linalg.norm(rt, 2)), label
        if p.degree_in_class("x") <= 2:
            pb = butterfly.poly_butterfly(p)
            regions = [butterfly.PolyRegion(pb, kind)
                       for kind in ("dom-plus", "kebab-plus")]
        else:
            regions = [realize.Region(R, kind)
                       for kind in ("dom-plus", "kebab-plus")]
        proof = regions[0].empty_proof(scale)
        if proof is None:
            continue
        proved += 1
        for n in (1, 2, 3):
            parts = [(n, n, True)] * (regions[0].h + regions[0].g)
            drawn = partialcvx._herm_stack(n, parts, scale, rng, 50)
            for mats in (drawn, at_norm(drawn, scale)):
                for region in regions:
                    inside, payloads = region.test(mats)
                    assert not inside.any(), (label, region.kind)
                if isinstance(regions[0], realize.Region):
                    low = np.linalg.eigvalsh(realize._compress(
                        payloads, R.frame.lift(n)))[:, 0]
                else:
                    low = np.array([ev[0] for _, ev in payloads])
                # up to eigvalsh's rounding: w constant gives the bound
                assert low.max() <= proof.lambda_bound \
                    + 1e-12 * proof.norm_bound, label
    assert proved > 100


def test_x_degree_above_two_has_a_dom_plus_empty_proof(monkeypatch,
                                                        tmp_path):
    """On x4 and the deep inputs of partial-reject at seeds 1-5 the proof
    exists, and on u (x) y R_T's Rayleigh quotient is at most the proved
    bound at points of sizes 1-3; at seed 1 both plus regions reject 2000
    draws per size at the proof's scale, and lambda_min of each drawn
    R_T is at most the proved bound."""
    polys = corpus_polys(monkeypatch, tmp_path, "partial-reject",
                         range(1, 6))
    polys = {key: p for key, p in polys.items()
             if key[1] == "x4_poly.txt" or key[1].startswith("deep")}
    assert len(polys) == 30
    rng = np.random.default_rng(7)
    for (seed, _), p in polys.items():
        R = linearize_poly(p)
        proof = realize.Region(R, "dom-plus").empty_proof(0.6)
        assert proof is not None
        assert proof.lambda_bound < -1e-8 * max(1.0, proof.norm_bound)
        u = proof.u
        assert abs(np.linalg.norm(u) - 1) <= 1e-12
        for n in (1, 2, 3):
            parts = [(n, n, True)] * (R.h + R.g)
            m = partialcvx._herm_stack(n, parts, 0.6, rng, 1)[0]
            t = HermTuple(n, tuple(m[:R.h]), tuple(m[R.h:]), validate=False)
            y = rng.normal(size=n) + 1j * rng.normal(size=n)
            uy = np.kron(u, y / np.linalg.norm(y))
            assert np.real(uy.conj() @ r_T(R, t) @ uy) <= proof.lambda_bound
            if seed != 1:
                continue
            mats = partialcvx._herm_stack(n, parts, 0.6, rng, 2000)
            inside, W = realize.Region(R, "dom-plus").test(mats)
            assert not inside.any()
            assert not realize.Region(R, "kebab-plus").test(mats)[0].any()
            # every drawn R_T lies below the proved bound
            rt = realize._compress(W, R.frame.lift(n))
            assert np.linalg.eigvalsh(rt)[:, 0].max() <= proof.lambda_bound


@pytest.mark.parametrize("workload", ["partial-accept", "partial-reject"])
def test_no_dom_plus_empty_proof_on_butterfly_inputs(workload, monkeypatch,
                                                     tmp_path):
    """The inputs of x-degree <= 2, which have a butterfly and dom+
    points, have no proof, from w or from their realization's R_T."""
    polys = corpus_polys(monkeypatch, tmp_path, workload, range(1, 4))
    checked = 0
    for p in polys.values():
        if p.degree_in_class("x") > 2:
            continue
        pb = butterfly.poly_butterfly(p)
        assert butterfly.PolyRegion(pb, "dom-plus").empty_proof(0.6) is None
        assert realize.Region(linearize_poly(p),
                              "dom-plus").empty_proof(0.6) is None
        checked += 1
    assert checked == (75 if workload == "partial-accept" else 57)


def test_rational_realizations_have_no_constant_direction():
    """Random minimal realizations are rational: their letters are not
    nilpotent, so R_T has no finite series and there is no proof."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        R = rand_minimal_smr(rng, e=4, h=1, g=2)
        region = realize.Region(R, "dom-plus")
        assert region.series() is None
        assert region.empty_proof(0.6) is None


def test_dom_plus_empty_proof_needs_a_strong_bound():
    """At a large scale the bounds are too weak: x4 has a proof at 0.6 and
    50 (the kernel form's lambda_bound is about -1 / norm_bound), none at
    100 or 1e300; and x a x - x x (w = a - 1, lambda_min(w(A)) <= -1 +
    scale) none at scale 1."""
    R = linearize_poly(ncalg.parse_poly((DATA / "x4_poly.txt").read_text()))
    region = realize.Region(R, "dom-plus")
    assert region.empty_proof(0.6) is not None
    assert region.empty_proof(50.0).form == "kernel"
    for scale in (100.0, 1e300):
        assert region.empty_proof(scale) is None
    pb = butterfly.poly_butterfly(ncalg.parse_poly(
        "vars a: a | x: x\n1 * x a x\n-1 * x x\n"))
    region = butterfly.PolyRegion(pb, "kebab-plus")
    assert region.empty_proof(0.99).lambda_bound == pytest.approx(-0.01)
    assert region.empty_proof(1.0) is None


