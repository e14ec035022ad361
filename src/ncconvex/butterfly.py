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
of the pair (A, 0), (A, X) hands on.  For polynomials the resolvent
series terminates and w, ell, fbar become polynomials, and PolyRegion
samples the regions of such a polynomial through w(A) alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matkit, realize
from .ncalg import FreePoly, HermTuple, eval_poly
from .matkit import TOL_INV, TOL_PSD, is_psd, sqrt_psd
from .realize import (NotInDomain, RangeTFrame, Realization, Region,
                      kron_sum, linearize_poly)


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
    """Structural property of the realization failed numerically."""


def _pencil_block(C0, coeffs, A_mats, n):
    """C0 (x) I_n - sum_j coeffs[j] (x) A_j."""
    return kron_sum((C0,) + tuple(coeffs), [np.eye(n)] + [-A for A in A_mats])


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


def fbar_eval(R, t, tol_inv=TOL_INV):
    """Affine-in-x part: the first two caterpillar terms."""
    t0, t1, _ = caterpillar_eval(R, t, tol_inv)
    return t0 + t1


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
# slice normal form: fix A, reduce membership in x to W* Lambda(X) W - F

@dataclass(frozen=True)
class SliceNormalForm:
    """Data (W, F) with membership tests W* Lambda(X) W - F invertible / PD.

    Lambda(X) = J11 (x) I - sum S11_j (x) A_j - sum That_i (x) X_i acts on
    ran T (x) C^n; W includes the surviving subspace; empty=True means no X
    puts (A, X) in dom r.
    """

    frame: RangeTFrame
    A_mats: tuple
    n: int
    J11: np.ndarray
    S11: tuple
    W: np.ndarray
    F: np.ndarray
    empty: bool = False

    def lam(self, X):
        return _pencil_block(self.J11, self.S11 + self.frame.That,
                             self.A_mats + tuple(X), self.n)

    def reduced(self, X):
        return self.W.conj().T @ self.lam(X) @ self.W - self.F

    def membership(self, X, tol_inv=TOL_INV):
        """X-slice analogue of in_dom at the frozen A."""
        if self.empty:
            return False
        M = self.reduced(X)
        if M.size == 0:
            return True
        sv = np.linalg.svd(M, compute_uv=False)
        return sv[-1] > tol_inv * max(1.0, sv[0])

    def membership_plus(self, X, tol_psd=TOL_PSD):
        """X-slice analogue of in_dom_plus at the frozen A."""
        if self.empty:
            return False
        M = self.reduced(X)
        if M.size == 0:
            return True
        return is_psd(matkit.herm(M), tol_psd).is_pd


def _complement(U, dim):
    """Orthonormal basis of the complement of ran U inside C^dim."""
    if U.shape[1] == 0:
        return np.eye(dim, dtype=complex)
    Q, _ = np.linalg.qr(np.hstack([U, np.eye(dim, dtype=complex)]))
    # columns of Q beyond rank(U) span the complement
    r = U.shape[1]
    return Q[:, r:dim]


def slice_reduce(R, A_mats, n=None, tol_inv=TOL_INV, rtol=realize.RTOL_RANK):
    """Normal form of the x-slice of dom r / dom+ r at frozen A.

    Splits the pencil at ran T (x) C^n; with B, D the off-diagonal and
    lower-right X-independent blocks, D invertible gives F = B D^{-1} B*
    directly, and a singular D is handled by splitting off its kernel: the
    slice is empty unless B restricted to ker D is injective, in which case
    the form compresses to the complement of its range.  n gives the matrix
    size when the a-class is empty.
    """
    A_mats = tuple(np.asarray(M, dtype=complex) for M in A_mats)
    n = A_mats[0].shape[0] if A_mats else (n or 1)
    frame = R.frame
    V = frame.V_T
    e, k = R.e, frame.k
    Vp = _complement(V, e)
    J11 = frame.J11
    S11 = tuple(matkit.herm(V.conj().T @ M @ V) for M in R.S)
    if k == 0:
        W = np.zeros((0, 0), dtype=complex)
        return SliceNormalForm(frame, A_mats, n, J11, S11, W,
                               np.zeros((0, 0), dtype=complex))

    J12 = V.conj().T @ R.J @ Vp
    J22 = matkit.herm(Vp.conj().T @ R.J @ Vp)
    S12 = tuple(V.conj().T @ M @ Vp for M in R.S)
    S22 = tuple(matkit.herm(Vp.conj().T @ M @ Vp) for M in R.S)

    B = _pencil_block(J12, S12, A_mats, n)
    D = _pencil_block(J22, S22, A_mats, n)

    kn = k * n
    if D.size == 0:
        return SliceNormalForm(frame, A_mats, n, J11, S11,
                               np.eye(kn, dtype=complex),
                               np.zeros((kn, kn), dtype=complex))

    U, s, Vh = np.linalg.svd(D)
    rank = int(np.sum(s > tol_inv * max(1.0, s[0])))
    if rank == D.shape[0]:
        F = matkit.herm(B @ np.linalg.solve(D, B.conj().T))
        return SliceNormalForm(frame, A_mats, n, J11, S11,
                               np.eye(kn, dtype=complex), F)

    # split ker D; D is Hermitian so the kernel bases of D and D* agree
    ker = Vh.conj().T[:, rank:]
    ran = Vh.conj().T[:, :rank]
    B1 = B @ ker
    B2 = B @ ran
    D0 = ran.conj().T @ D @ ran
    s1 = np.linalg.svd(B1, compute_uv=False) if B1.size else np.zeros(0)
    if B1.shape[1] and (len(s1) < B1.shape[1]
                        or s1[-1] <= tol_inv * max(1.0, s1[0] if len(s1) else 1.0)):
        W = np.zeros((kn, 0), dtype=complex)
        return SliceNormalForm(frame, A_mats, n, J11, S11, W,
                               np.zeros((0, 0), dtype=complex), empty=True)
    U1 = realize._orth(B1, rtol) if B1.shape[1] else np.zeros((kn, 0), complex)
    U2 = _complement(U1, kn)
    if D0.size:
        F = matkit.herm(U2.conj().T @ B2 @ np.linalg.solve(D0, B2.conj().T) @ U2)
    else:
        F = np.zeros((U2.shape[1], U2.shape[1]), dtype=complex)
    return SliceNormalForm(frame, A_mats, n, J11, S11, U2, F)


# ---------------------------------------------------------------------------
# polynomial butterfly: p = ell(a,x)* w(a) ell(a,x) + fbar(a,x) coefficientwise

@dataclass(frozen=True)
class PolyButterfly:
    """Coefficientwise butterfly decomposition of a symmetric polynomial.

    ell: FreePoly with k x 1 coefficients (linear in x);
    w: FreePoly in the a-letters with k x k Hermitian-symmetric coefficients;
    fbar: scalar FreePoly affine in x;
    psd_at_zero: whether w(0) is PSD (the convexity-near-zero indicator).
    """

    ell: FreePoly
    w: FreePoly
    fbar: FreePoly
    realization: Realization
    psd_at_zero: bool

    @property
    def k(self):
        return self.w.shape[0]


class PolyRegion:
    """A sampling region of a polynomial butterfly pb, judged through w(A).

    Its realization R has R_T(A, X) = w(A) plus (R.frame.k - k) n zeros
    and a pencil that is invertible everywhere (the J S_j and J T_i are
    jointly nilpotent), so with k > 0:

    dom, kebab: every point;
    dom-plus, kebab-plus: w(A) PSD at tol (psd_mask), the same set.

    Same interface as realize.Region (R, kind, test); test evaluates w at
    the whole stack with one eval_poly and hands on each point's
    (w(A), its ascending eigenvalues).  The ball is realize.Region's
    alone.
    """

    def __init__(self, pb, kind="dom", tol=TOL_PSD):
        if kind not in realize.REGION_KINDS or kind == "ball":
            raise ValueError("no butterfly region of kind %r" % kind)
        self.pb, self.R, self.kind, self.tol = pb, pb.realization, kind, tol

    def test(self, mats):
        """(mask, [(w(A), eigenvalues)]) for a stack of points
        (B, h + g, n, n)."""
        h, n = self.R.h, mats.shape[-1]
        t = HermTuple(n, tuple(mats[:, :h].swapaxes(0, 1)),
                      tuple(mats[:, h:].swapaxes(0, 1)), validate=False)
        w = eval_poly(self.pb.w, t)
        ev = np.linalg.eigvalsh(w)
        mask = np.ones(len(mats), dtype=bool)
        if self.kind.endswith("plus") and self.pb.k:
            mask = matkit.psd_mask(ev, self.tol)
        return mask, list(zip(w, ev))

    def hessian(self, t, H, w):
        """The x-Hessian 2 L* w(A) L at t in the directions H, with
        L = ell(A, H) and w = w(A)."""
        L = eval_poly(self.pb.ell, HermTuple(t.n, t.A, tuple(H),
                                             validate=False))
        return matkit.herm(2.0 * (L.conj().T @ w @ L))

    def rt_lambda_min(self, ev):
        """lambda_min of R_T(A, X) from the eigenvalues ev of w(A)."""
        low = ev[0] if self.pb.k else 0.0
        return min(low, 0.0) if self.R.frame.k > self.pb.k else low


def _word_series_terms(JB, JC, dega, grow, max_len, tau):
    """Terms of (J - sum_j C_j letter_j)^{-1} B = sum_w M_w B with
    M_w = (J C_w1)...(J C_wm) J, from JB = J B and the stack JC of the
    J C_j, over the words that survive the growth bound.

    The series grows one length at a time, M_{jw} B = (J C_j) M_w B, one
    batched product per length over the surviving words only.  A word w
    survives while its block X_w = M_w B keeps
    ||X_w||_F grow^(max_len - |w|) > tau; otherwise it is dropped and
    never extended.  Returns (words, terms, last): the surviving words up
    to length dega in degree-lexicographic order, their blocks stacked in
    that order, and how many of them have length dega (the last ones).
    """
    level_w, level = [()], JB[None]
    words, terms = [], []
    for m in range(dega + 1):
        if m:
            level_w = [(j,) + w for j in range(len(JC)) for w in level_w]
            level = (JC[:, None] @ level[None]).reshape(-1, *JB.shape)
        alive = np.linalg.norm(level, axis=(1, 2)) \
            * grow ** (max_len - m) > tau
        level_w = [w for w, kept in zip(level_w, alive) if kept]
        level = level[alive]
        words += level_w
        terms.append(level)
    return words, np.concatenate(terms), len(level_w)


def _check_termination(JC, V, MvV, dega, max_len, tol):
    """Raise RealizationError unless every entry of V* M_w V is at most
    tol for the words w of length dega + 1 to max_len.

    Such a word is u v with |v| = dega and |u| >= 1, and M_{uv} = N_u M_v
    with N_u = (J C_u1)...(J C_um), so V* M_w V = (V* N_u)(M_v V).  MvV
    stacks the M_v V (e x k) of the surviving words of length dega (see
    _word_series_terms); a word grown from a dropped one needs no check,
    its block lies below the growth bound's tau, at most tol.  The left
    factors V* N_u grow one letter at a time (V* N_{uz} = (V* N_u)(J C_z)),
    and each length of u is one matrix product, all left factors stacked
    by rows against all M_v V side by side, and one reduction.
    """
    e, k = V.shape
    right = MvV.transpose(1, 0, 2).reshape(e, -1)
    left = V.conj().T[None]
    for m in range(dega + 1, max_len + 1):
        left = (left[:, None] @ JC[None]).reshape(len(left) * len(JC), k, e)
        if np.abs(left.reshape(-1, e) @ right).max(initial=0.0) > tol:
            raise RealizationError(
                "a-series fails to terminate at degree %d" % m)


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
    eigenvalue below -1e-8) at sizes 2 and 3, scale 1; None if clean: a
    matkit.block_search over sample_herm candidates (A, X1, X2) per size."""
    rng = np.random.default_rng(0)
    h, g = p.ctx.h, p.ctx.g

    def candidate(mats, lam=0.0):
        return MidpointWitness(tuple(mats[:h]), tuple(mats[h:h + g]),
                               tuple(mats[h + g:]), lam)

    def judge(mats):
        lam = np.linalg.eigvalsh(candidate(mats).gap(p))[:, 0]
        return lam < -1e-8, lam

    for n in (2, 3):
        parts = [(n, n, True)] * (h + 2 * g)
        hit = matkit.block_search(
            lambda B: matkit.sample_blocks(parts, 1.0, rng, B), judge, rng,
            samples, skip=lambda B: matkit.skip_blocks(parts, 1.0, rng, B))
        if hit is not None:
            mats, lam, i = hit
            return candidate([M[i] for M in mats], float(lam[i]))
    return None


def poly_butterfly(p):
    """Decompose a symmetric polynomial, convexible in x, as ell* w ell + fbar.

    Rejects degree > 2 in x with NotConvexible carrying a midpoint witness
    when the seeded search finds one.  The resolvent series for
    w(a) terminates because a minimal realization of a polynomial has
    jointly nilpotent series generators.  The series is built up to the
    a-degree dega only; _check_termination verifies that V* M_w V
    vanishes (entries at most 1e-9) on the longer words up to length
    max_len = max(dega, deg p) + 1, through the left factors V* N_u of
    V* M_{uv} V = (V* N_u)(M_v V) with |v| = dega, and raises
    RealizationError if residual terms survive.  The coefficientwise
    identity p = ell* w ell + fbar is checked last (residual at most
    1e-8 max(1, max_w |coeff_w(p)|), the rounding of coefficients that
    size, else RealizationError); terms of fbar below tol = 1e-10 times
    that scale drop out as rounding, and those of w and ell below tol.
    Dead directions (common kernel of all w and ell coefficients) are
    trimmed so small examples come out in their textbook size.

    The series runs over the words that can matter only, so its cost
    follows the support of p rather than h^dega.  Every quantity read
    from a word w comes from its block X_w = M_w [V, c]; a word u w grown
    from w has X_{uw} = N_u X_w, and ||N_u||_2 <= rho^|u| with
    rho = max_j ||J S_j||_2.  Up to length max_len, then, every block
    grown from w has ||X||_F <= ||X_w||_F max(1, rho)^(max_len - |w|),
    and every block of the series (length up to dega) has ||X||_F <= Xmax
    = ||J [V, c]||_F max(1, rho)^dega.  V has orthonormal columns, so the
    kept quantities are bounded by the blocks they are read from:
      - an entry of V* X V (w, and the termination check at 10 tol) by
        ||X||_F, kept above tol;
      - an entry of ell, V* T_j X c, by max_j ||T_j||_2 ||X||_F, kept
        above tol;
      - c* W_w c by ||c|| ||X_w||_F, kept above tol scale;
      - a Gram entry (W_r c)* T_j W_l c of fbar by
        max_j ||T_j||_2 Xmax ||X_r||_F (and the same with l), kept above
        tol scale.
    With tau = tol / max(1, max ||T_j||, ||c|| / scale,
    max ||T_j|| Xmax / scale), a word whose bound is at most tau adds
    nothing that any of these thresholds keeps, and neither does any word
    grown from it; _word_series_terms drops it and does not extend it.
    What survives is taken in the same degree-lexicographic order as the
    full series, so every kept coefficient is the same product of the
    same blocks.  BLAS blocks a product by its number of columns, N here
    rather than every word, so a coefficient can round differently in
    its last bits.
    """
    if not p.is_symmetric:
        raise realize.SymmetryError("polynomial is not symmetric")
    degx = p.degree_in_class("x")
    if degx > 2:
        wit = midpoint_violation_search(p)
        raise NotConvexible("degree %d in x exceeds two" % degx, wit)
    ctx = p.ctx
    tol = 1e-10  # coefficients of w and ell below it are dropped
    scale = np.abs(list(p.coeffs.values())).max(initial=1.0)
    R = linearize_poly(p)
    frame = R.frame
    V = frame.V_T
    k = frame.k
    dega = p.degree_in_class("a")
    max_len = max(dega, p.degree()) + 1

    # a-side resolvent series W(a) = (J - sum S_j a_j)^{-1} up to degree
    # dega over the surviving words (see the docstring for tau); a-letter
    # j in the series is global letter j
    JS = np.array([R.J @ S for S in R.S]).reshape(-1, R.e, R.e)
    JB = R.J @ np.hstack([V, R.c[:, None]])
    # the spectral norms of the J S_j and of the T_j, from one batched SVD
    mats = np.concatenate([JS, np.reshape(R.T, (-1, R.e, R.e))])
    norms = np.linalg.svd(mats, compute_uv=False).max(axis=1, initial=0.0)
    grow = max(1.0, norms[:len(JS)].max(initial=0.0))
    max_T = norms[len(JS):].max(initial=0.0)
    max_X = np.linalg.norm(JB) * grow ** dega
    tau = tol / max(1.0, max_T, np.linalg.norm(R.c) / scale,
                    max_T * max_X / scale)
    words, terms, last = _word_series_terms(JB, JS, dega, grow, max_len, tau)
    _check_termination(JS, V, terms[len(terms) - last:, :, :k],
                       dega, max_len, tol * 10)
    VMV = V.conj().T @ terms[:, :, :k]
    # e x N, column W_w c: an F-ordered copy, so that the products below
    # run in BLAS (a strided view of terms does not, and rounds otherwise)
    WC = np.ascontiguousarray(terms[:, :, k]).T

    # w(a) = V* W(a) V restricted to words within degree
    keep = np.abs(VMV).max(axis=(1, 2), initial=0.0) > tol
    w_terms = {w: C for w, C, kept in zip(words, VMV, keep) if kept}
    w_poly = FreePoly.from_terms(ctx, w_terms, (k, k)) if w_terms \
        else FreePoly.zero(ctx, (k, k))

    # ell_j(a) = V* T_j W(a) c ; ell = sum_j x_j ell_j
    ell_terms = {}
    for jx, T in enumerate(R.T):
        E = (V.conj().T @ T) @ WC
        keep = np.abs(E).max(axis=0, initial=0.0) > tol
        for w, vec, kept in zip(words, E.T, keep):
            if kept:
                ell_terms[(ctx.h + jx,) + w] = vec.reshape(k, 1)
    ell_poly = FreePoly.from_terms(ctx, ell_terms, (k, 1)) if ell_terms \
        else FreePoly.zero(ctx, (k, 1))

    # fbar = c* W c + c* W (sum T_j x_j) W c; the x-linear part is the
    # Gram product G = WC* T_j WC, G[r, l] = (W_wr c)* T_j W_wl c
    vals = R.c.conj() @ WC
    f_terms = {words[i]: vals[i]
               for i in np.flatnonzero(np.abs(vals) > tol * scale)}
    for jx, T in enumerate(R.T):
        G = WC.conj().T @ (T @ WC)
        for l, r in zip(*np.nonzero(np.abs(G.T) > tol * scale)):
            f_terms[words[r][::-1] + (ctx.h + jx,) + words[l]] = G[r, l]
    fbar = FreePoly.from_terms(ctx, {w: np.array([[c]])
                                     for w, c in f_terms.items()})

    # trim common dead directions of all w and ell coefficients
    rows = [M for M in w_poly.coeffs.values()]
    rows += [vec.reshape(1, k).conj() for vec in ell_terms.values()]
    if rows:
        stack = np.vstack([np.asarray(M) for M in rows])
        Q = realize._orth(stack.conj().T, realize.RTOL_RANK)
    else:
        Q = np.zeros((k, 0), dtype=complex)
    if Q.shape[1] < k:
        k2 = Q.shape[1]
        w_poly = FreePoly._trusted(ctx, {w: Q.conj().T @ C @ Q
                                         for w, C in w_poly.coeffs.items()},
                                   (k2, k2))
        ell_poly = FreePoly._trusted(ctx, {w: Q.conj().T @ C
                                           for w, C in ell_poly.coeffs.items()},
                                     (k2, 1))
        k = k2

    # canonical phase: the lowest ell coefficient's largest-modulus entry
    # real positive
    if ell_poly.coeffs:
        phase = matkit.unit_phase(ell_poly.coeffs[ell_poly.words()[0]])
        ell_poly = FreePoly._trusted(ctx, {w: phase * C
                                           for w, C in ell_poly.coeffs.items()},
                                     ell_poly.shape)

    # nilpotency certificate at a = 0
    J11 = frame.J11
    psd_at_zero = bool(is_psd(J11).is_psd) if k else True
    if k and psd_at_zero:
        # sqrt with numerically-zero eigenvalues clamped to exact zero, so
        # the vanishing test is not polluted by sqrt(eps) noise
        lamj, Uj = np.linalg.eigh(J11)
        cut = 1e-10 * max(1.0, float(lamj[-1]))
        lamj = np.where(lamj > cut, lamj, 0.0)
        rj = matkit.herm(Uj @ np.diag(np.sqrt(lamj)) @ Uj.conj().T)
        for That in frame.That:
            if np.linalg.norm(rj @ That @ rj, 2) > 1e-8 * max(
                    1.0, np.linalg.norm(That, 2)):
                raise RealizationError(
                    "sqrt(J11) That sqrt(J11) does not vanish")

    # verify the coefficientwise identity p = ell* w ell + fbar
    recon = fbar
    if k:
        recon = recon + (ell_poly.adjoint() @ w_poly @ ell_poly)
    diff = p - recon
    resid = np.abs(list(diff.coeffs.values())).max(initial=0.0)
    if resid > 1e-8 * scale:
        raise RealizationError("butterfly identity residual %g" % resid)
    return PolyButterfly(ell_poly, w_poly, fbar, R, psd_at_zero)

