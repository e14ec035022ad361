"""Partial convexity on descriptor realizations.

The Hessian oracle is a central second difference computed by plain shifted
evaluation; both closed forms must match it, and the localizing-matrix
criterion must call convexity the same way the sampled Hessian does.
"""

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import probe_loop, rand_minimal_smr, rand_smr, sample_in_region
from ncconvex import butterfly, matkit, ncalg, partialcvx, realize
from ncconvex.ncalg import FreePoly, HermTuple, VarContext
from ncconvex.partialcvx import (
    ConvexEvidence,
    RegionEmpty,
    Witness,
    convexity_verdict,
    finite_diff_hessian,
    negativity_witness,
    partial_hessian,
    partial_hessian_forms,
)
from ncconvex.realize import (
    Region,
    in_dom,
    in_dom_plus,
    linearize_poly,
    r_T,
)

CTX_AX = VarContext(("a",), ("x",))

seeds = st.integers(0, 2**32 - 1)


def xax_realization():
    return linearize_poly(FreePoly.from_terms(CTX_AX, {(1, 0, 1): 1.0}))


def dom_points(R, rng, count, sizes=(1, 2, 3), scale=0.4, attempts=300):
    out = []
    for _ in range(attempts):
        if len(out) >= count:
            break
        n = int(rng.choice(sizes))
        t = matkit.sample_tuple(n, (R.h, R.g), scale, rng)
        if in_dom(R, t):
            out.append(t)
    return out


# ---------------------------------------------------------------------------
# Hessian forms against the finite-difference oracle

@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_hessian_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    R = rand_smr(rng, e=int(rng.integers(2, 6)), h=1, g=2)
    pts = dom_points(R, rng, 4)
    assert pts
    for t in pts:
        H = tuple(matkit.sample_herm(t.n, 1.0, rng) for _ in range(R.g))
        alg = partial_hessian(R, t, H)
        fd = finite_diff_hessian(R, t, H)
        err = np.linalg.norm(alg - fd, 2) / max(1.0, np.linalg.norm(alg, 2))
        assert err <= 1e-6


@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_hessian_forms_agree(seed):
    rng = np.random.default_rng(seed)
    R = rand_smr(rng, e=4, h=1, g=2)
    for t in dom_points(R, rng, 4):
        H = tuple(matkit.sample_herm(t.n, 1.0, rng) for _ in range(R.g))
        f1, f2 = partial_hessian_forms(R, t, H)
        assert np.allclose(f1, f2, atol=1e-10 * max(1.0, np.linalg.norm(f1, 2)))


@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_hessian_scales_quadratically_in_direction(seed):
    rng = np.random.default_rng(seed)
    R = rand_smr(rng, e=4, h=1, g=2)
    pts = dom_points(R, rng, 2)
    for t in pts:
        H = tuple(matkit.sample_herm(t.n, 1.0, rng) for _ in range(R.g))
        one = partial_hessian(R, t, H)
        three = partial_hessian(R, t, tuple(3.0 * Hi for Hi in H))
        assert np.allclose(three, 9.0 * one, atol=1e-8 * max(1.0, np.linalg.norm(one, 2)))


# ---------------------------------------------------------------------------
# localizing matrix on the canonical example

def test_xax_hessian_psd_exactly_on_psd_a():
    R = xax_realization()
    rng = np.random.default_rng(11)
    pos = neg = 0
    for _ in range(60):
        n = int(rng.choice((1, 2)))
        t = matkit.sample_tuple(n, (1, 1), 0.6, rng)
        if not in_dom(R, t):
            continue
        H = (matkit.sample_herm(n, 1.0, rng),)
        lam = np.linalg.eigvalsh(partial_hessian(R, t, H))[0]
        if in_dom_plus(R, t):
            assert lam >= -1e-8
            pos += 1
        elif np.linalg.eigvalsh(matkit.herm(r_T(R, t)))[0] < -1e-3:
            neg += 1
    assert pos >= 5 and neg >= 5


def test_negativity_witness_on_xax():
    R = xax_realization()
    rng = np.random.default_rng(3)
    bad = None
    for _ in range(200):
        t = matkit.sample_tuple(2, (1, 1), 0.6, rng)
        if in_dom(R, t) and np.linalg.eigvalsh(
                matkit.herm(r_T(R, t)))[0] < -1e-3:
            bad = t
            break
    assert bad is not None
    wit = negativity_witness(R, bad)
    assert wit.value < 0
    assert wit.bad_lambda < -1e-3
    # re-verify the quadratic form from the stored data alone
    val = partial_hessian(R, wit.point, wit.direction)
    quad = float(np.real(wit.h.conj() @ val @ wit.h))
    assert quad == pytest.approx(wit.value, rel=1e-9)
    assert quad < 0


def test_negativity_witness_h_has_a_canonical_phase(monkeypatch):
    """h does not carry the arbitrary phase of eigh's eigenvectors: with
    each eigenvector of R_T turned by its own unit phase, the witness's h
    and value are the same."""
    R = xax_realization()
    rng = np.random.default_rng(3)
    bad = next(t for t in (matkit.sample_tuple(2, (1, 1), 0.6, rng)
                           for _ in range(200))
               if in_dom(R, t) and np.linalg.eigvalsh(r_T(R, t))[0] < -1e-3)
    want = negativity_witness(R, bad)
    eigh = np.linalg.eigh

    def turned(M):
        lam, U = eigh(M)
        return lam, U * np.exp(1j * np.linspace(0.7, 2.9, U.shape[-1]))

    monkeypatch.setattr(np.linalg, "eigh", turned)
    got = negativity_witness(R, bad)
    monkeypatch.undo()
    assert np.abs(got.h - want.h).max() <= 1e-12
    assert got.value == pytest.approx(want.value, rel=1e-12)


def test_negativity_witness_factors_only_its_doubled_point(monkeypatch):
    """With R_T at bad handed on, the one pencil inverse the witness
    takes is the doubled point's, in its own Hessian check: the
    companion's W comes from region.test, so resolvent runs only at the
    doubled point."""
    R = xax_realization()
    rng = np.random.default_rng(3)
    bad = next(t for t in (matkit.sample_tuple(2, (1, 1), 0.6, rng)
                           for _ in range(200))
               if in_dom(R, t) and np.linalg.eigvalsh(r_T(R, t))[0] < -1e-3)
    rt = r_T(R, bad, factors=realize.resolvent(R, bad))
    want = negativity_witness(R, bad)
    inverse, factored = realize.resolvent, []

    def spy(R_, t, tol_inv=matkit.TOL_INV, factors=None):
        factored.append(t.n)
        return inverse(R_, t, tol_inv, factors)

    monkeypatch.setattr(realize, "resolvent", spy)
    monkeypatch.setattr(partialcvx, "resolvent", spy)
    got = negativity_witness(R, bad, rt=rt)
    assert factored == [got.point.n]
    assert np.array_equal(got.h, want.h) and got.value == want.value


def test_negativity_witness_rejects_definite_points():
    t = HermTuple(1, (np.array([[1.0 + 0j]]),), (np.array([[0.1 + 0j]]),),
                  validate=False)
    # with k = 0, R_T is the empty matrix, which is not indefinite either
    for R in (xax_realization(),
              realize.Realization.make(np.eye(1), [0.5 * np.eye(1)],
                                       [np.zeros((1, 1))], [1.0])):
        with pytest.raises(ValueError, match="not indefinite"):
            negativity_witness(R, t)


# ---------------------------------------------------------------------------
# the companion of a realization's witness

def indefinite_point(R, rng, sizes=(1, 2), scale=1.5, tries=200):
    """A dom point of R where lambda_min(R_T) < -1e-3, at a size drawn
    from sizes and c03's scale 1.5, or None."""
    for _ in range(tries):
        n = int(rng.choice(sizes))
        t = matkit.sample_tuple(n, (R.h, R.g), scale, rng)
        if in_dom(R, t) and np.linalg.eigvalsh(r_T(R, t))[0] < -1e-3:
            return t
    return None


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("seed", range(5))
def test_span_cols_match_the_companion_resolvent(seed, m):
    """The witness's columns are the companion's resolvent arithmetic:
    with the resolvent of the companion block (A1, X1) of the doubled
    point, from a pencil factored here, and K_i the lower left block of
    H_i, sum_i kron(T_i, K_i) R(A1, X1) (c (x) e_()) is (V_T (x) I) xi,
    xi the unit negative eigenvector of R_T(bad) (unit_phase); the
    companion has size e and h = e_() (+) 0."""
    rng = np.random.default_rng(seed)
    R = rand_minimal_smr(rng, e=4, h=1, g=2)
    bad = indefinite_point(R, rng, sizes=(m,))
    assert bad is not None
    wit = negativity_witness(R, bad)
    e = R.e
    assert wit.point.n == e + m
    assert np.array_equal(wit.h, np.eye(e + m)[0])
    comp = HermTuple(e, tuple(A[:e, :e] for A in wit.point.A),
                     tuple(X[:e, :e] for X in wit.point.X), validate=False)
    res = realize.resolvent(R, comp)
    G = sum(np.kron(T, Hi[e:, :e]) for T, Hi in zip(R.T, wit.direction))
    got = G @ (res @ np.kron(R.c, np.eye(e)[0]))
    lam, vecs = np.linalg.eigh(r_T(R, bad))
    xi = vecs[:, 0] * matkit.unit_phase(vecs[:, 0])
    want = R.frame.lift(m) @ xi
    assert np.linalg.norm(got - want) <= 1e-9
    assert wit.value == pytest.approx(2 * lam[0], rel=1e-9)


def test_negativity_witness_draws_nothing_on_minimal_smrs(monkeypatch):
    """On 200 seeded minimal realizations with e <= 12 (h 0-2, g 1-2) and
    a dom point of size 1 or 2 where R_T is indefinite, every witness is built without drawing a region point: its
    value is 2 lambda_min(R_T) within 1e-8 max(1, |lambda_min|), at a
    point of size e + m."""
    def no_draw(*args, **kw):
        raise AssertionError("the witness drew a region point")

    cases, rng = 0, np.random.default_rng(3)
    while cases < 200:
        R = rand_minimal_smr(rng, e=int(rng.integers(2, 13)),
                             h=int(rng.integers(0, 3)),
                             g=int(rng.integers(1, 3)))
        bad = indefinite_point(R, rng)
        if bad is None:
            continue
        monkeypatch.setattr(matkit, "judged_draws", no_draw)
        wit = negativity_witness(R, bad)
        monkeypatch.undo()
        cases += 1
        lam = wit.bad_lambda
        assert abs(wit.value - 2 * lam) <= 1e-8 * max(1.0, abs(lam))
        assert wit.point.n == R.e + bad.n


# ---------------------------------------------------------------------------
# the middle-matrix sharpness witness of a polynomial butterfly

def random_xdeg2_poly(rng, h, g):
    """A random symmetric polynomial of x-degree two in h a-letters and g
    x-letters with complex coefficients: words u x_i m x_j v (a-words of
    length up to two, mixed x_i ... x_j included) and x-affine words,
    each with its adjoint.  It holds x_0 x_0 with coefficient -1, so w has
    a -1 on its diagonal, and a word that gives ell two border monomials
    (a x_0 x_0 with h > 0, x_0 x_1 with h = 0, where g is at least 2)."""
    g = g if h else max(g, 2)

    def a_word(top):
        return tuple(rng.integers(0, h, int(rng.integers(0, top + 1)))) \
            if h else ()

    def coeff():
        return complex(rng.normal(), rng.normal())

    x0 = h
    terms = {(x0, x0): -1.0}
    terms[(0, x0, x0) if h else (x0, x0 + 1)] = coeff()
    for _ in range(int(rng.integers(1, 5))):
        i, j = (h + int(l) for l in rng.integers(0, g, 2))
        word = a_word(2) + (i,) + a_word(2) + (j,) + a_word(2)
        terms[word] = terms.get(word, 0) + coeff()
    for _ in range(int(rng.integers(0, 3))):
        word = a_word(1) + (h + int(rng.integers(0, g)),) + a_word(1)
        terms[word] = terms.get(word, 0) + coeff()
    sym = {}
    for word, c in terms.items():
        sym[word] = sym.get(word, 0) + c
        sym[word[::-1]] = sym.get(word[::-1], 0) + np.conj(c)
    ctx = VarContext(tuple("ab"[:h]), tuple("xy"[:g]))
    return FreePoly.from_terms(ctx, sym)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, h=st.integers(0, 2), g=st.integers(1, 2),
       m=st.integers(1, 3))
def test_middle_matrix_witness_matches_w_and_the_pencils(seed, h, g, m):
    """At a random point where w(A) has lambda_min < -1e-3, the witness's
    quadratic value is 2 lambda_min(w(A)) and the pencil Hessian of
    linearize_poly(p) at the reported point gives it too; each H_j and
    each matrix of the point is Hermitian and h is a unit vector."""
    from ncconvex import butterfly
    rng = np.random.default_rng(seed)
    p = random_xdeg2_poly(rng, h, g)
    pb = butterfly.poly_butterfly(p)
    assert pb.k >= 2
    for _ in range(20):
        t = matkit.sample_tuple(m, (h, p.ctx.g), 0.6, rng)
        w = ncalg.eval_poly(pb.w, t)
        lam = np.linalg.eigvalsh(w)[0]
        if lam < -1e-3:
            break
    assume(lam < -1e-3)
    wit = partialcvx.middle_matrix_witness(pb, t, w)
    tol = 1e-9 * max(1.0, abs(lam))
    assert abs(wit.value - 2 * lam) <= tol
    assert abs(wit.bad_lambda - lam) <= 1e-12 * max(1.0, abs(lam))
    R = linearize_poly(p)
    quad = np.real(wit.h.conj() @ partial_hessian(R, wit.point, wit.direction)
                   @ wit.h)
    assert abs(quad - wit.value) <= tol
    for Hj in wit.direction + wit.point.mats:
        assert np.array_equal(Hj, Hj.conj().T)
    assert np.linalg.norm(wit.h) == 1.0
    # the bad point is the doubled point's last block, and X is 0 there
    M = wit.point.n - m
    for big, small in zip(wit.point.mats, t.mats):
        assert np.array_equal(big[M:, M:], small)
    for X in wit.point.X:
        assert not X[:M, :M].any()


def test_middle_matrix_witness_rejects_psd_w_and_reports_a_missed_check(
        monkeypatch):
    """A PSD w(A) is a ValueError; a witness whose value on p misses
    2 lambda_min(w(A)) is a WitnessCheckFailure, not a witness."""
    from ncconvex import butterfly
    pb = butterfly.poly_butterfly(ncalg.parse_poly(
        "vars a: a | x: x\n1 * x a x\n"))
    t = HermTuple(1, (np.array([[-0.5]]),), (np.array([[0.3]]),))
    with pytest.raises(ValueError, match="not indefinite"):
        partialcvx.middle_matrix_witness(pb, HermTuple(
            1, (np.array([[0.5]]),), (np.zeros((1, 1)),)), np.eye(1) * 0.5)
    wit = partialcvx.middle_matrix_witness(pb, t, np.array([[-0.5]]))
    assert wit.value == pytest.approx(-1.0, rel=1e-15)
    assert wit.point.n == 2
    with pytest.raises(partialcvx.WitnessCheckFailure, match="on p"):
        partialcvx.middle_matrix_witness(pb, t, np.array([[-0.6]]))


# ---------------------------------------------------------------------------
# block rejection sampler against a per-draw loop

THIN_AB = ncalg.parse_poly("vars a: a b | x: x\n1 * x a x\n1 * x b x\n"
                           "1 * b x\n1 * x b\n")
X4 = FreePoly.from_terms(VarContext((), ("x",)), {(0, 0, 0, 0): 1.0})


def reference_member(R, kind, tol=1e-8, tol_inv=1e-10, radius=0.45):
    """Region membership of one point from first principles: an explicit
    Kronecker pencil, its singular values and an inverse-based R_T.  Every
    kind implies dom."""
    V_T = R.frame.V_T

    def pencil(t):
        P = np.kron(R.J, np.eye(t.n))
        for Z, M in zip(R.S + R.T, t.A + t.X):
            P = P - np.kron(Z, M)
        return P

    def dom(t):
        sv = np.linalg.svd(pencil(t), compute_uv=False)
        return sv[-1] > tol_inv * max(1.0, sv[0])

    def plus(t):
        if not dom(t):
            return False
        if V_T.shape[1] == 0:
            return True
        V = np.kron(V_T, np.eye(t.n))
        ev = np.linalg.eigvalsh(
            matkit.herm(V.conj().T @ np.linalg.inv(pencil(t)) @ V))
        return ev[0] >= -tol * max(1.0, np.abs(ev).max())

    return {
        "dom": dom,
        "dom-plus": plus,
        "kebab": lambda t: dom(t) and dom(R.zero_x(t)),
        "kebab-plus": lambda t: plus(t) and plus(R.zero_x(t)),
        "ball": lambda t: dom(t) and all(np.linalg.norm(M, 2) <= radius
                                         for M in t.mats),
    }[kind]


def reference_herm(n, scale, rng):
    """One Gaussian Hermitian draw: real part, then imaginary part, then
    the rescale to spectral norm scale when the norm is larger."""
    H = matkit.herm(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    nH = np.linalg.norm(H, 2)
    return H * (scale / nH) if nH > scale else H


def reference_sample(R, member, n, scale, rng, max_attempts):
    """The per-draw loop: one reference_herm per matrix, a-class first,
    and one membership test per draw.  Returns (attempt index, point)."""
    for k in range(max_attempts):
        A = tuple(reference_herm(n, scale, rng) for _ in range(R.h))
        X = tuple(reference_herm(n, scale, rng) for _ in range(R.g))
        t = HermTuple(n, A, X, validate=False)
        if member(t):
            return k, t
    return None, None


def block_position(k):
    """first / middle / last: where attempt k falls in blocks 1, 2, 4, ..."""
    size = 1
    while k >= size:
        k -= size
        size *= 2
    return "first" if k == 0 else "last" if k == size - 1 else "middle"


def test_block_sampler_matches_per_draw_loop(monkeypatch):
    """region_probes, without extras (one stream per size) and with them
    (one stream per probe, whose hits fall at every block_position), finds
    the points of a per-draw loop of first-principles membership tests, up
    to a budget of 40 draws per probe, and leaves the generator where that
    loop leaves it."""
    # 1 / (1 - 2a - 2x) with tol_inv 0.3: dom, kebab, dom-plus and
    # kebab-plus all differ, where a polynomial's pencil is always invertible
    one = np.eye(1)
    resolvent_1 = realize.Realization.make(one, [2 * one], [2 * one], [1.0])
    cases = [(R, kind, tol_inv) for kind in realize.REGION_KINDS
             for R, tol_inv in ((linearize_poly(THIN_AB), 1e-10),
                                (resolvent_1, 0.3))]
    cases += [(xax_realization(), kind, 1e-10) for kind in ("dom-plus", "ball")]
    monkeypatch.setattr(partialcvx, "MAX_ATTEMPTS", 40)
    seen = set()
    for R, kind, tol_inv in cases:
        region = Region(R, kind, tol_inv=tol_inv,
                        radius=0.45 if kind == "ball" else None)
        member = reference_member(R, kind, tol_inv=tol_inv)
        for n, seed, extra in itertools.product((1, 2, 3), range(4),
                                                ((), (0.6,))):
            ref_rng = np.random.default_rng(seed)
            rng = np.random.default_rng(seed)
            got = partialcvx.region_probes(region, n, 3, rng, 0.6, extra)
            for _ in range(3):
                k, want = reference_sample(R, member, n, 0.6, ref_rng, 40)
                if want is None:
                    seen.add("exhausted")
                    continue
                t, H, _ = next(got)
                for M, N in zip(t.mats, want.mats):
                    assert np.array_equal(M, N)
                for M in H:
                    assert np.array_equal(M, matkit.sample_herm(n, 0.6,
                                                                ref_rng))
                if extra:
                    seen.add(block_position(k))
            assert next(got, None) is None
            assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert seen == {"first", "middle", "last", "exhausted"}


@pytest.mark.parametrize("max_attempts", [1, 11, 500])
def test_block_sampler_empty_region_exhausts_budget(max_attempts,
                                                    monkeypatch):
    """On an empty region every probe ends after MAX_ATTEMPTS misses and
    yields nothing, with and without extras, and the generator ends after
    the draws of a per-draw loop."""
    monkeypatch.setattr(partialcvx, "MAX_ATTEMPTS", max_attempts)
    R = linearize_poly(X4)
    member = reference_member(R, "dom-plus")
    for extra in ((), (1.0,)):
        ref_rng, rng = np.random.default_rng(2), np.random.default_rng(2)
        for _ in range(2):
            assert reference_sample(R, member, 2, 0.6, ref_rng,
                                    max_attempts) == (None, None)
        assert list(partialcvx.region_probes(Region(R, "dom-plus"), 2, 2,
                                             rng, 0.6, extra)) == []
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_exhausted_probe_judges_exactly_its_budget(monkeypatch):
    """A probe with extras that misses an empty region judges exactly
    MAX_ATTEMPTS draws (its stream's last block is trimmed to the draws
    left), and the draws and the generator's state are still those of
    the per-probe loop."""
    judged = []
    test = Region.test

    def spy(self, mats):
        judged.append(len(mats))
        return test(self, mats)

    monkeypatch.setattr(Region, "test", spy)
    region = Region(linearize_poly(X4), "dom-plus")
    rng, ref_rng = np.random.default_rng(2), np.random.default_rng(2)
    assert list(partialcvx.region_probes(region, 2, 3, rng, 0.6,
                                         (1.0,))) == []
    assert sum(judged) == 3 * partialcvx.MAX_ATTEMPTS == 1500
    judged.clear()
    assert list(probe_loop(region, 2, 3, ref_rng, 0.6, (1.0,))) == []
    assert judged == [1] * 1500
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("kind", realize.REGION_KINDS)
def test_block_sampler_with_no_letters(kind):
    """With no letters the one point of size n is the empty tuple: every
    probe hands it on at the first draw, with the inverse of the pencil
    J (x) I_n, and draws no normals."""
    R = realize.Realization.make(np.eye(1), [], [], [1.0])
    region = Region(R, kind, radius=0.5 if kind == "ball" else None)
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    probes = list(partialcvx.region_probes(region, 2, 3, rng, 0.6))
    assert len(probes) == 3
    for t, _, W in probes:
        assert (t.n, t.A, t.X) == (2, (), ())
        assert np.array_equal(W, np.eye(2))
    assert rng.bit_generator.state == state


# 1/(1 - 2a - 2x) at tol_inv 0.3: at seed 6 dom takes the first two 2 x 2
# draws at scale 0.8 and rejects the third; at scale 0.1 it takes them all
@pytest.mark.parametrize("scale", [0.8, 0.1])
@pytest.mark.parametrize("stop", [0, 1, 2, 3, 5, None])
def test_region_probes_without_extras_match_the_per_probe_loop(scale, stop):
    """The block of first draws yields the per-probe loop's points and
    payloads, and rng ends where that loop leaves it, also when the
    consumer stops after stop probes."""
    one = np.eye(1)
    R = realize.Realization.make(one, [2 * one], [2 * one], [1.0])
    region = Region(R, "dom", tol_inv=0.3)
    rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
    probes = partialcvx.region_probes(region, 2, 12, rng, scale)
    got = list(itertools.islice(probes, stop))
    probes.close()
    want = list(itertools.islice(
        probe_loop(region, 2, 12, ref_rng, scale), stop))
    assert len(got) == len(want)
    for (t, extra, W), (t_ref, _, W_ref) in zip(got, want):
        assert extra.shape == (0, 2, 2)
        assert all(np.array_equal(M, N) for M, N in zip(t.mats, t_ref.mats))
        assert np.array_equal(W, W_ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def same_payload(got, want):
    """A Region's pencil inverse or a PolyRegion's (w(A), eigenvalues),
    entry for entry."""
    pair = [p if isinstance(p, tuple) else (p,) for p in (got, want)]
    return all(np.array_equal(a, b) for a, b in zip(*pair))


@pytest.mark.parametrize("kind", realize.REGION_KINDS)
@pytest.mark.parametrize("with_extra", [False, True])
def test_region_probes_match_the_per_probe_loop(kind, with_extra):
    """On every kind of a realize.Region and a butterfly.PolyRegion,
    region_probes yields the points, extras and payloads of the per-probe
    loop of per-draw sample_in_region calls, and rng ends where that loop
    leaves it, also when the consumer stops after stop probes: without
    extras from one stream, with them from one stream per probe, closed
    at its point before its extras are drawn."""
    one = np.eye(1)
    resolvent_1 = realize.Realization.make(one, [2 * one], [2 * one], [1.0])
    # at scale 3, w(A) = A - 0.1 makes the plus kinds reject part of the
    # draws, as do the ball at radius 2 and resolvent_1's pencil at
    # tol_inv 0.3
    pb = butterfly.poly_butterfly(ncalg.parse_poly(
        "vars a: a | x: x\n1 * x a x\n-0.1 * x x\n"))
    regions = [Region(resolvent_1, kind, tol_inv=0.3, radius=2.0),
               butterfly.PolyRegion(pb, kind, radius=2.0)]
    for region, seed, stop in itertools.product(regions, range(3),
                                                (0, 1, 3, None)):
        extra = (1.0, 0.0) if with_extra else ()
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        probes = partialcvx.region_probes(region, 2, 8, rng, 3.0, extra)
        got = list(itertools.islice(probes, stop))
        probes.close()
        want = list(itertools.islice(
            probe_loop(region, 2, 8, ref_rng, 3.0, extra), stop))
        assert len(got) == len(want)
        for (t, H, W), (t_ref, H_ref, W_ref) in zip(got, want):
            assert all(np.array_equal(M, N)
                       for M, N in zip(t.mats, t_ref.mats))
            assert H.shape == (len(extra), 2, 2)
            assert all(np.array_equal(M, N) for M, N in zip(H, H_ref))
            assert same_payload(W, W_ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


# w(0) = 0, 1, -1, -0.1 and -1e-9: at tol 1e-8 the last passes
ORIGIN_POLYS = ("vars a: a | x: x\n1 * x a x\n",
                "vars a: a | x: x\n1 * x x\n1 * x a x\n",
                "vars a: a | x: x\n1 * x a x\n-1 * x x\n",
                "vars a: a | x: x\n1 * x a x\n-0.1 * x x\n",
                "vars a: a | x: x\n1 * x a x\n-1e-9 * x x\n")


def origin_regions(kind, tol):
    """(region, analysed function) pairs: the PolyRegions of
    ORIGIN_POLYS, and the Regions of their realizations, of x4's and of
    seeded minimal realizations."""
    out = []
    for text in ORIGIN_POLYS:
        pb = butterfly.poly_butterfly(ncalg.parse_poly(text))
        out.append((butterfly.PolyRegion(pb, kind, tol), pb))
        R = linearize_poly(pb.p)
        out.append((Region(R, kind, tol), R))
    x4 = (Path(ncalg.__file__).parent / "data" / "x4_poly.txt").read_text()
    reals = [linearize_poly(ncalg.parse_poly(x4))]
    rng = np.random.default_rng(5)
    reals += [rand_minimal_smr(rng, e=int(rng.integers(2, 6)), h=1, g=1)
              for _ in range(12)]
    return out + [(Region(R, kind, tol), R) for R in reals]


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
@pytest.mark.parametrize("kind", ["dom-plus", "kebab-plus"])
def test_plus_regions_hold_the_origin_exactly_when_psd_at_zero(kind, tol):
    """On the plus kinds, region.test accepts the zero stack at n = 1..3
    exactly when R_T(0, 0) passes psd_mask: psd_at_zero(tol), of the
    butterfly (w(0)) or of the realization (J11).  Both answers occur."""
    answers = set()
    for region, f in origin_regions(kind, tol):
        want = f.psd_at_zero(tol)
        answers.add(want)
        for n in (1, 2, 3):
            zero = np.zeros((1, region.h + region.g, n, n), dtype=complex)
            assert bool(region.test(zero)[0][0]) == want
    assert answers == {True, False}


def reference_hessian(R, t, H, factors):
    """partial_hessian one point at a time, from the resolvent:
    2 (c (x) I)* R L R L R (c (x) I) with L = sum T_i (x) H_i."""
    res = realize.resolvent(R, t, factors=factors)
    LRc = R.x_sum(H, t.n) @ (res @ R.c_lift(t.n))
    return matkit.herm(2.0 * (LRc.conj().T @ res @ LRc))


def reference_verdict(R, region, sizes, samples, rng, tol=1e-8, scale=0.6,
                      midpoint_pairs=10):
    """convexity_verdict one sample at a time: each point from
    sample_in_region, then that sample's own draws and evaluations.
    Returns the verdict (None for an empty region) and the Hessian probes
    as (direction, lambda_min) pairs."""
    probes = []
    count, min_lambda = 0, np.inf
    for n in sizes:
        for _ in range(samples):
            hit = sample_in_region(region, n, scale, rng)
            if hit is None:
                continue
            t, factors = hit
            H = tuple(matkit.sample_herm(n, 1.0, rng) for _ in range(R.g))
            try:
                val = reference_hessian(R, t, H, factors)
            except realize.NotInDomain:
                continue
            lam = float(np.linalg.eigvalsh(val)[0])
            probes.append((H, lam))
            count += 1
            min_lambda = min(min_lambda, lam)
            if lam < -tol * max(1.0, float(np.linalg.norm(val, 2))):
                probe = partialcvx.HessianProbe(t, H, val, lam)
                return Witness(probe, -lam), probes
    if count == 0:
        return None, probes
    pairs = viol = 0
    for n in sizes:
        for _ in range(midpoint_pairs):
            hit = sample_in_region(region, n, scale, rng)
            if hit is None:
                continue
            t1, f1 = hit
            Y = tuple(matkit.sample_herm(n, scale, rng) for _ in range(R.g))
            t2 = HermTuple(n, t1.A, Y, validate=False)
            mid = HermTuple(n, t1.A,
                            tuple((a + b) / 2 for a, b in zip(t1.X, Y)),
                            validate=False)
            inside, Ws = region.test_points([t2, mid])
            if not inside.all():
                continue
            try:
                gap = (realize.eval_realization(R, t1, f1)
                       + realize.eval_realization(R, t2, Ws[0])) \
                    / 2 - realize.eval_realization(R, mid, Ws[1])
            except realize.NotInDomain:
                continue
            pairs += 1
            lam = float(np.linalg.eigvalsh(matkit.herm(gap))[0])
            if lam < -tol * max(1.0, float(np.linalg.norm(gap, 2))):
                viol += 1
    return ConvexEvidence(count, float(min_lambda), pairs, viol), probes


def block_verdict(R, region, sizes, samples, rng, monkeypatch, **kw):
    """convexity_verdict with its Hessian probes recorded as
    (direction, lambda_min) pairs; None for an empty region."""
    probes = []
    hessian = Region.hessian

    def spy(self, t, H, W):
        val = hessian(self, t, H, W)
        probes.append((tuple(H), float(np.linalg.eigvalsh(val)[0])))
        return val

    monkeypatch.setattr(Region, "hessian", spy)
    try:
        out = convexity_verdict(region, sizes, samples, rng, **kw)
    except RegionEmpty:
        out = None
    monkeypatch.setattr(Region, "hessian", hessian)
    return out, probes


def assert_same_verdict(got, want):
    (out, probes), (ref, ref_probes) = got, want
    assert len(probes) == len(ref_probes)
    for (H, lam), (H_ref, lam_ref) in zip(probes, ref_probes):
        assert all(np.array_equal(a, b) for a, b in zip(H, H_ref))
        assert lam == lam_ref
    if isinstance(ref, Witness):
        assert isinstance(out, Witness)
        assert out.margin == ref.margin
        assert np.array_equal(out.probe.value, ref.probe.value)
        for M, N in zip(out.probe.point.mats + out.probe.direction,
                        ref.probe.point.mats + ref.probe.direction):
            assert np.array_equal(M, N)
    else:
        assert out == ref


QUARTIC_SQUARE = ncalg.parse_poly("vars a: | x: x\n1 * x x x x\n"
                                  "0.4 * x x\n")


def test_speculative_witness_matches_per_sample_loop(monkeypatch):
    # x^4 + 0.4 x^2 on dom: every draw is accepted and a Hessian probe is
    # negative now and then, so witnesses fall at probe indices of every
    # block_position
    R = linearize_poly(QUARTIC_SQUARE)
    region = Region(R, "dom")
    seen = set()
    for seed in range(40):
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = reference_verdict(R, region, (2,), 15, ref_rng, scale=0.9)
        got = block_verdict(R, region, (2,), 15, rng, monkeypatch, scale=0.9)
        assert_same_verdict(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        if isinstance(want[0], Witness):
            seen.add(block_position(len(want[1]) - 1))
    assert seen == {"first", "middle", "last"}


@pytest.mark.parametrize("kind", ["dom", "dom-plus", "kebab-plus", "ball"])
def test_speculative_rejections_match_per_sample_loop(kind, monkeypatch):
    # regions that reject part of the draws, so that probes follow
    # rejected points and the sampler's rewind
    one = np.eye(1)
    resolvent_1 = realize.Realization.make(one, [2 * one], [2 * one], [1.0])
    cases = [(xax_realization(), 1e-10), (linearize_poly(THIN_AB), 1e-10),
             (resolvent_1, 0.3)]
    n = 1
    for R, tol_inv in cases:
        region = Region(R, kind, tol_inv=tol_inv, radius=0.45)
        for seed in range(6):
            ref_rng = np.random.default_rng(seed)
            rng = np.random.default_rng(seed)
            want = reference_verdict(R, region, (n,), 12, ref_rng,
                                     midpoint_pairs=12)
            got = block_verdict(R, region, (n,), 12, rng, monkeypatch,
                                scale=0.6, midpoint_pairs=12)
            assert_same_verdict(got, want)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


# ---------------------------------------------------------------------------
# sampled verdicts

def test_convexity_verdict_positive_on_xax_psd_region():
    R = xax_realization()
    region = Region(R, "dom-plus")
    out = convexity_verdict(region, sizes=(1, 2), samples=20,
                            rng=np.random.default_rng(5))
    assert isinstance(out, ConvexEvidence)
    assert out.min_lambda >= -1e-8
    assert out.midpoint_violations == 0
    assert out.samples > 0


@pytest.mark.parametrize("kind", realize.REGION_KINDS)
def test_convexity_verdict_on_an_empty_realization(kind):
    """e = 0: every point lies in every region, and every Hessian and
    midpoint gap is the zero matrix."""
    Z = np.zeros((0, 0))
    R = realize.Realization.make(Z, [Z], [Z], np.zeros(0))
    region = Region(R, kind, radius=0.5 if kind == "ball" else None)
    out = convexity_verdict(region, sizes=(1, 2), samples=3,
                            rng=np.random.default_rng(1), midpoint_pairs=2)
    assert isinstance(out, ConvexEvidence)
    assert (out.samples, out.min_lambda) == (6, 0.0)
    assert (out.midpoint_pairs, out.midpoint_violations) == (4, 0)


def test_convexity_verdict_witness_on_quartic():
    p = FreePoly.from_terms(VarContext((), ("x",)), {(0, 0, 0, 0): 1.0})
    R = linearize_poly(p)
    out = convexity_verdict(Region(R), sizes=(2,), samples=60,
                            rng=np.random.default_rng(9))
    assert isinstance(out, Witness)
    assert out.probe.lambda_min < 0
    assert out.margin > 0
    # witness re-verifies against the finite-difference oracle
    fd = finite_diff_hessian(R, out.probe.point, out.probe.direction)
    assert np.linalg.eigvalsh(matkit.herm(fd))[0] < 0


def test_convexity_verdict_empty_region():
    # x^4: R_T is negative definite wherever the pencil is invertible
    R = linearize_poly(FreePoly.from_terms(VarContext((), ("x",)),
                                           {(0, 0, 0, 0): 1.0}))
    region = Region(R, "dom-plus")
    with pytest.raises(RegionEmpty):
        convexity_verdict(region, sizes=(1,), samples=4,
                          rng=np.random.default_rng(0))
