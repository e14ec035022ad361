"""Caterpillar and root-butterfly realizations for partial convexity.

Everything here lives on top of a signature realization r = c* P(a,x)^{-1} c
with P = J (x) I - sum T_i (x) x_i - sum S_j (x) a_j.  Writing W(A) for the
resolvent at (A, 0) and V_T for the inclusion of ran T:

  caterpillar   r = c*Wc + c*W L W c + c*W L R L W c,   L = sum T_i (x) X_i
  butterfly     r = ell* w (I - Lhat w)^{-1} ell + fbar, Lhat = sum That_i (x) X_i
  sqrt form     r = ell* sqrt(w) (I - sqrt(w) Lhat sqrt(w))^{-1} sqrt(w) ell + fbar

with w(A) = R_T(A, 0), ell(A, X) = (V_T (x) I)* L W(A) (c (x) I) and fbar
the affine-in-x part (the first two caterpillar terms).  The evaluators
read W, R and w from the pencil inverses that one Region(R, "dom").test
of the pair (A, 0), (A, X) hands on.

A symmetric polynomial of x-degree at most two has its butterfly
p = fbar + ell* w ell straight from its coefficients (poly_butterfly:
the border vector ell and the middle matrix w), and PolyRegion samples
every region of such a polynomial through w(A) alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matkit, realize
from .ncalg import FreePoly, HermTuple, eval_poly
from .matkit import TOL_INV, TOL_PSD, is_psd, sqrt_psd
from .realize import NotInDomain, Realization, Region, kron_sum


class KebabError(ValueError):
    """(A, 0) is outside dom r, so the kebab expansion does not apply."""


class NotConvexible(ValueError):
    """The polynomial cannot be convex in x (degree in x exceeds two).

    When a concrete midpoint violation was found it rides along as
    .witness (a MidpointWitness); verify via its gap eigenvalues.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class RealizationError(ValueError):
    """The polynomial butterfly failed its identity check."""


def _kebab_pair(R, t, tol_inv):
    """(inside, W) of the points (A, 0) and (A, X), in that order: which
    lie in dom at tol_inv, and their pencils' inverses, from one
    Region(R, "dom").test."""
    return Region(R, "dom", tol_inv=tol_inv).test(
        realize._stack([R.zero_x(t), t]))


def _affine_terms(R, t, W):
    """(C, W C, L W C) with C = c (x) I, W the resolvent at (A, 0) and
    L = sum T_i (x) X_i."""
    C = R.c_lift(t.n)
    Wc = W @ C
    return C, Wc, R.x_sum(t.X, t.n) @ Wc


def caterpillar_eval(R, t, tol_inv=TOL_INV):
    """Three caterpillar terms at (A, X) in dom-kebab; returns (t0, t1, t2)."""
    inside, W = _kebab_pair(R, t, tol_inv)
    if not inside[0]:
        raise KebabError("(A, 0) is outside dom r")
    if not inside[1]:
        raise NotInDomain("(A, X) is outside dom r")
    C, Wc, LWc = _affine_terms(R, t, W[0])
    return (C.conj().T @ Wc, Wc.conj().T @ LWc,
            realize._compress(W[1], LWc))


@dataclass(frozen=True)
class ButterflyCert:
    """Evaluator bundle for the butterfly forms of one realization."""

    R: Realization

    def w_eval(self, t, tol_inv=TOL_INV):
        """w(A) = R_T(A, 0), a Hermitian kn x kn matrix."""
        return realize.r_T(self.R, self.R.zero_x(t), tol_inv)

    def _zero_slice(self, t):
        """(W, w): the pencil's inverse at (A, 0) and w(A) (None when
        k = 0); None when (A, 0) or (A, X) is outside dom."""
        inside, W = _kebab_pair(self.R, t, TOL_INV)
        if not inside.all():
            return None
        w = realize.r_T(self.R, self.R.zero_x(t), factors=W[0]) \
            if self.R.frame.k else None
        return W[0], w

    def _sandwich(self, rw, t):
        """I - sqrt(w) Lhat sqrt(w), Lhat = sum That_i (x) X_i."""
        return np.eye(len(rw)) - rw @ kron_sum(self.R.frame.That, t.X) @ rw

    def eval_sqrt_form(self, t):
        """fbar + (sqrt(w) ell)* (I - sqrt(w) Lhat sqrt(w))^{-1} sqrt(w) ell.

        Requires w(A) PSD; raises DomainError otherwise (through sqrt_psd).
        """
        at = self._zero_slice(t)
        if at is None:
            raise NotInDomain("point is outside dom-kebab")
        W, w = at
        C, Wc, LWc = _affine_terms(self.R, t, W)
        f = C.conj().T @ Wc + Wc.conj().T @ LWc
        if w is None:
            return f
        rw = sqrt_psd(w)
        ell = rw @ (self.R.frame.lift(t.n).conj().T @ LWc)
        return f + ell.conj().T @ np.linalg.solve(self._sandwich(rw, t), ell)

    def in_domain_item4(self, t):
        """Characterization: dom-kebab and w(A) PSD and I - sqrt(w) Lhat sqrt(w) PD."""
        at = self._zero_slice(t)
        if at is None:
            return False
        w = at[1]
        return w is None or (is_psd(w).is_psd and is_psd(
            matkit.herm(self._sandwich(sqrt_psd(w), t))).is_pd)


def butterfly_build(R):
    return ButterflyCert(R)


# ---------------------------------------------------------------------------
# polynomial butterfly: p = fbar(a,x) + ell(a,x)* w(a) ell(a,x) coefficientwise

@dataclass(frozen=True)
class PolyButterfly:
    """The butterfly p = fbar + ell* w ell of a symmetric polynomial p of
    x-degree at most two, copied from p's coefficients (poly_butterfly).

    ell: FreePoly with k x 1 unit-vector coefficients, the border vector
    of the monomials x_j v (v an a-word);
    w: FreePoly in the a-letters with k x k coefficients, the middle matrix;
    fbar: the terms of p of x-degree at most one;
    p: the polynomial.
    """

    ell: FreePoly
    w: FreePoly
    fbar: FreePoly
    p: FreePoly

    @property
    def k(self):
        return self.w.shape[0]

    @property
    def w0(self):
        return self.w.coeffs.get((), np.zeros((self.k, self.k), complex))

    def psd_at_zero(self, tol=TOL_PSD):
        """Whether w(0) passes psd_mask at tol."""
        return bool(is_psd(self.w0, tol).is_psd)


class PolyRegion(realize.RegionKind):
    """A sampling region of a polynomial butterfly pb, judged through w(A).

    p's realization R has R_T(A, X) PSD exactly where w(A) is, and a
    pencil that is invertible everywhere (the J S_j and J T_i are jointly
    nilpotent), so every kind of realize.Region is judged without R:

    dom, kebab: every point;
    dom-plus, kebab-plus: w(A) PSD at tol (psd_mask), the same set;
    ball: RegionKind's ball rule.

    realize.Region's interface (kind, h, g, dim, k, test, hessian,
    values, rt_lambda_min, series, empty_proof); test evaluates w at the
    whole stack with one eval_poly and hands on each point's (w(A), its
    ascending eigenvalues), from which hessian and rt_lambda_min answer.
    h, g, k and dim (k, the size of w's coefficients, for the sampler's
    block cap) come from pb, and series from w's coefficients.
    """

    def __init__(self, pb, kind="dom", tol=TOL_PSD, radius=None):
        super().__init__(kind, tol, radius)
        self.pb = pb
        self.h, self.g, self.k, self.dim = pb.p.ctx.h, pb.p.ctx.g, pb.k, pb.k

    def _tuple(self, mats):
        """A stack of points (B, h + g, n, n) as one HermTuple of stacks."""
        stacks = mats.swapaxes(0, 1)
        return HermTuple(mats.shape[-1], tuple(stacks[:self.h]),
                         tuple(stacks[self.h:]), validate=False)

    def test(self, mats):
        """(mask, [(w(A), eigenvalues)]) for a stack of points
        (B, h + g, n, n)."""
        w = eval_poly(self.pb.w, self._tuple(mats))
        ev = np.linalg.eigvalsh(w)
        mask = self._ball(mats)
        if self.kind.endswith("plus") and self.k:
            mask &= matkit.psd_mask(ev, self.tol)
        return mask, list(zip(w, ev))

    def hessian(self, t, H, payload):
        """The x-Hessian 2 L* w(A) L at t in the directions H, with
        L = ell(A, H) and w(A) from the payload."""
        L = eval_poly(self.pb.ell, HermTuple(t.n, t.A, tuple(H),
                                             validate=False))
        return matkit.herm(2.0 * (L.conj().T @ payload[0] @ L))

    def values(self, points, payloads):
        """p at points of one size, from one eval_poly of their stack."""
        return eval_poly(self.pb.p, self._tuple(realize._stack(points)))

    def rt_lambda_min(self, t, payload):
        """min(lambda_min(w(A)), 0) from the payload's eigenvalues: the
        sign of R_T(A, X)'s lambda_min, not its value (0 when k = 0)."""
        return min(payload[1][0], 0.0) if self.k else 0.0

    def series(self):
        """w(A) = sum_m w_m (x) A^m as realize.prove_empty's series, w(0)
        first; no term is left out."""
        words = [()] + [m for m in self.pb.w.coeffs if m]
        Ms = [self.pb.w0] + [self.pb.w.coeffs[m] for m in words[1:]]
        return words, np.asarray(Ms), np.zeros(0)


@dataclass(frozen=True)
class MidpointWitness:
    """Concrete midpoint-convexity violation in x at a frozen a-point."""

    A: tuple
    X1: tuple
    X2: tuple
    lambda_min: float

    def gap(self, p):
        """The Hermitian midpoint gap, also of stacks of candidates."""
        n = (self.X1 or self.A)[0].shape[-1]
        mid = tuple((u + v) / 2 for u, v in zip(self.X1, self.X2))
        t1 = HermTuple(n, self.A, self.X1, validate=False)
        t2 = HermTuple(n, self.A, self.X2, validate=False)
        tm = HermTuple(n, self.A, mid, validate=False)
        g = (eval_poly(p, t1) + eval_poly(p, t2)) / 2 - eval_poly(p, tm)
        return matkit.herm(g)


def midpoint_violation_search(p, samples=120):
    """Seeded random search for a midpoint-convexity-in-x violation (gap
    eigenvalue below -1e-8) at sizes 2 and 3, scale 1; None if clean: the
    first flagged of samples candidates (A, X1, X2) per size, from a
    matkit.judged_draws stream of sample_blocks draws."""
    rng = np.random.default_rng(0)
    h, g = p.ctx.h, p.ctx.g

    def candidate(mats, lam=0.0):
        return MidpointWitness(tuple(mats[:h]), tuple(mats[h:h + g]),
                               tuple(mats[h + g:]), lam)

    def judge(block):
        lam = np.linalg.eigvalsh(candidate(block.swapaxes(0, 1)).gap(p))
        return lam[:, 0] < -1e-8, lam[:, 0]

    for n in (2, 3):
        parts = [(n, n, True)] * (h + 2 * g)
        draws = matkit.judged_draws(
            lambda B: np.stack(matkit.sample_blocks(parts, 1.0, rng, B), 1),
            judge, lambda B: matkit.skip_blocks(parts, 1.0, rng, B), rng, 1,
            samples, samples)
        hit = next((d for d in draws if d[1]), None)
        draws.close()
        if hit is not None:
            return candidate(hit[0], float(hit[2]))
    return None


def poly_butterfly(p):
    """The butterfly p = fbar + ell* w ell of a symmetric polynomial of
    x-degree at most two, read off p's coefficients: the border vector
    ell and the middle matrix w (Camino-Helton-Skelton-Ye 2003).

    A word u x_i m x_j v, with a-words u, m and v, has the second
    derivative 2 (H_i u~)* m (H_j v) in the direction H.  So its
    coefficient c goes, as c m, to the entry of w at the row of the
    monomial x_i u~ and the column of x_j v, where ell holds each such
    monomial with a unit-vector coefficient (degree-lexicographic order);
    fbar is the words of x-degree at most one.  Every coefficient is
    copied, so p = fbar + ell* w ell holds exactly; the check at the end
    confirms it in one pass over w: each nonzero entry re-assembles to a
    word of p with that coefficient, and there are as many entries as
    words of x-degree two (else RealizationError).

    Rejects x-degree > 2 with NotConvexible carrying a midpoint witness
    when the seeded search finds one.  No realization is built.
    """
    if not p.is_symmetric:
        raise realize.SymmetryError("polynomial is not symmetric")
    degx = p.degree_in_class("x")
    if degx > 2:
        wit = midpoint_violation_search(p)
        raise NotConvexible("degree %d in x exceeds two" % degx, wit)
    ctx, h = p.ctx, p.ctx.h
    fbar, entries = {}, {}
    for word, c in p.coeffs.items():
        at = [i for i, letter in enumerate(word) if letter >= h]
        if len(at) < 2:
            fbar[word] = c
            continue
        i, j = at
        # (row monomial x_i u~, middle a-word m, column monomial x_j v)
        entries[(word[i::-1], word[i + 1:j], word[j:])] = c[0, 0]
    border = sorted({b for r, _, s in entries for b in (r, s)},
                    key=lambda b: (len(b), b))
    idx = {b: i for i, b in enumerate(border)}
    k = len(border)
    w_terms = {}
    for (r, m, s), c in entries.items():
        w_terms.setdefault(m, np.zeros((k, k), dtype=complex))[
            idx[r], idx[s]] = c
    landed = 0
    for m, C in w_terms.items():
        for r, s in zip(*np.nonzero(C)):
            word = border[r][::-1] + m + border[s]
            if word not in p.coeffs or p.coeffs[word][0, 0] != C[r, s]:
                raise RealizationError("the middle matrix misses the word %r"
                                       % (word,))
            landed += 1
    if landed != len(entries):
        raise RealizationError("%d words of x-degree two, %d entries of w"
                               % (len(entries), landed))
    unit = np.eye(k, dtype=complex)
    ell = FreePoly._trusted(ctx, {b: unit[:, [i]] for b, i in idx.items()},
                            (k, 1))
    return PolyButterfly(ell, FreePoly._trusted(ctx, w_terms, (k, k)),
                         FreePoly._trusted(ctx, fbar, (1, 1)), p)
