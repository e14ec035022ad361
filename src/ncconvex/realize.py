"""Descriptor realizations of nc rational functions.

The central object is the symmetric realization

    r(a, x) = c* (J - sum_i T_i x_i - sum_j S_j a_j)^{-1} c

with J a signature matrix (J* = J, J^2 = I) and Hermitian coefficient
matrices.  This module builds minimal such realizations (linearize_poly
for symmetric nc polynomials, minimize for any symmetric realization),
decides the domain hierarchy dom / dom+ / dom-kebab / dom-kebab+,
solves the state-space similarity between minimal realizations, and
reads a realization with jointly nilpotent letters back as its
polynomial (polynomial_of).

The series bridge: a realization with invertible Hermitian J expands as

    r = sum_w  c* J^{-1} (Z_{i1} J^{-1}) ... (Z_{im} J^{-1}) c,

so (u, M, v) with u = J^{-1} c, M_i = Z_i J^{-1}, v = c is a linear
representation of the coefficient series.  Minimal signature
realizations come from the Hankel matrix H[x, y] = coeff(x y) of that
series: its rank is the minimal dimension (Fliess), and with rows indexed
by reversed words it is Hermitian, its inertia the signature of J.  One
Hermitian eigendecomposition of H, taken in coordinates of the reachable
states (the suffix states of a polynomial, the Krylov closure of c for a
realization), gives the dimension, J and the basis at once
(_signature_realization).

At a point (A, X) the pencil P = J (x) I - sum S_j (x) A_j - sum T_i (x) X_i
is Hermitian.  A Region, the one membership test, inverts a stack of
pencils with one batched LU and hands each point's inverse W = P^{-1} on:
the plus kinds read R_T = (V_T (x) I)* W (V_T (x) I) from it, and
resolvent, r_T and eval_realization take it as factors=, trusted, and do
not factor the pencil again.  Invertibility itself is decided on the
pencil's eigenvalues (eigvalsh), at the relative threshold of
_invertible.  in_dom, in_dom_plus, in_dom_kebab and in_dom_kebab_plus are
the one-point case.  Region shares its kind and radius check, its ball
rule and its emptiness proof (RegionKind, empty_proof) with
butterfly.PolyRegion, which judges the regions of a polynomial butterfly
through its middle matrix instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import matkit
from .ncalg import (COEFF_DROP, FreePoly, HermTuple, SymmetryError,
                    VarContext, check_herm)
from .matkit import TOL_INV, TOL_PSD, jmat, junmat, junvec

RTOL_RANK = 1e-10


class NotInDomain(ValueError):
    """Evaluation requested outside dom r."""


class MinimalityError(ValueError):
    """A minimal realization was required."""


class NotEquivalent:
    """Sentinel: the two realizations do not realize the same function."""

    def __init__(self, reason):
        self.reason = reason

    def __repr__(self):
        return "NotEquivalent(%r)" % self.reason


@dataclass(frozen=True)
class Realization:
    """Descriptor realization c*(J - sum T_i x_i - sum S_j a_j)^{-1} c.

    S carries the a-class coefficients, T the x-class ones.  All
    coefficient matrices are Hermitian e x e; c is an e-vector.  rank_cut
    is (smallest kept, largest dropped) relative |lam| of the Hankel
    eigendecomposition that built the realization (linearize_poly,
    minimize), None for one given as it stands.
    """

    J: np.ndarray
    S: tuple
    T: tuple
    c: np.ndarray
    rank_cut: tuple = field(default=None, repr=False, compare=False)
    _lifts: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @classmethod
    def make(cls, J, S, T, c, rank_cut=None):
        def hermitian(M, what):
            return matkit.herm(check_herm(np.asarray(M, dtype=complex), what))
        J = hermitian(J, "J")
        S = tuple(hermitian(M, "S") for M in S)
        T = tuple(hermitian(M, "T") for M in T)
        c = np.asarray(c, dtype=complex).reshape(-1)
        e = J.shape[0]
        for M in S + T:
            if M.shape != (e, e):
                raise matkit.ShapeError("coefficient size mismatch")
        if c.shape != (e,):
            raise matkit.ShapeError("c must be an e-vector")
        return cls(J, S, T, c, rank_cut)

    @property
    def e(self):
        return self.J.shape[0]

    @property
    def h(self):
        return len(self.S)

    @property
    def g(self):
        return len(self.T)

    def is_signature(self):
        return np.linalg.norm(self.J @ self.J - np.eye(self.e), 2) <= 1e-8

    @cached_property
    def frame(self):
        """The RangeTFrame of ran T, built on first use (see
        _range_t_frame); replace() gives a fresh one."""
        return _range_t_frame(self)

    @property
    def k(self):
        """The dimension of ran T."""
        return self.frame.k

    def psd_at_zero(self, tol=TOL_PSD):
        """Whether R_T(0, 0) = J11 passes psd_mask at tol (true when
        k = 0)."""
        return bool(matkit.is_psd(self.frame.J11, tol).is_psd)

    @cached_property
    def letters(self):
        """(N, nilpotent, norms): the letters N_l = J Z_l (S, then T) as a
        stack (L, e, e), whether they are jointly nilpotent, and then
        their spectral norms (else None); tested on first use, once for
        _word_series (polynomial_of, Region.series) and the reach words of
        partialcvx.negativity_witness."""
        N = np.reshape([self.J @ Z for Z in self.S + self.T],
                       (self.h + self.g, self.e, self.e))
        if len(N) and not _jointly_nilpotent(N, _krylov_cut(N)):
            return N, False, None
        return N, True, np.linalg.svd(N, compute_uv=False).max(
            axis=-1, initial=0.0)

    def pencil(self, t):
        """P(A, X) = J (x) I - sum T_i (x) X_i - sum S_j (x) A_j."""
        return self.pencils(_stack([t]))[0]

    def pencils(self, mats):
        """The pencils at a stack of points (B, h + g, n, n), as (B, en, en)."""
        B, _, n, _ = mats.shape
        eye = np.broadcast_to(np.eye(n), (B, 1, n, n))
        return kron_sum((self.J,) + self.S + self.T,
                        np.concatenate([eye, -mats], axis=1))

    def x_sum(self, mats, n):
        """L = sum T_i (x) mats[i] for g matrices n x n (mats may carry
        leading batch axes, see kron_sum); the zero en x en matrix when
        there is no x-letter."""
        if not self.T:
            return np.zeros((self.e * n, self.e * n), dtype=complex)
        return kron_sum(self.T, mats)

    def c_lift(self, n):
        """c (x) I_n, built once per n (read-only)."""
        return _lift(self._lifts, self.c.reshape(-1, 1), n)

    def zero_x(self, t):
        """The point (A, 0) of the same size."""
        z = tuple(np.zeros((t.n, t.n), dtype=complex) for _ in t.X)
        return HermTuple(t.n, t.A, z, t.validate)


def _lift(cache, V, n):
    """V (x) I_n, built once per n into cache and kept read-only."""
    if n not in cache:
        L = np.kron(V, np.eye(n))
        L.flags.writeable = False
        cache[n] = L
    return cache[n]


def _stack(points):
    """Points of one size n as an array (B, h + g, n, n)."""
    t = points[0]
    return np.asarray([p.mats for p in points], dtype=complex) \
        .reshape(len(points), len(t.mats), t.n, t.n)


def kron_sum(coeffs, mats):
    """sum_k coeffs[k] (x) mats[k] as one matrix product per point.

    coeffs are e x f and mats n x m; the result is en x fm, and the
    empty sum is the 0 x 0 matrix.  mats may carry leading batch axes
    (..., L, n, m), giving (..., en, fm): each point gets its own
    product, so it comes out bit for bit the same alone or in a stack.
    """
    if len(coeffs) == 0:
        return np.zeros((0, 0), dtype=complex)
    C = np.asarray(coeffs, dtype=complex)
    M = np.asarray(mats, dtype=complex)
    (L, e, f), (n, m), batch = C.shape, M.shape[-2:], M.shape[:-3]
    P = C.reshape(L, e * f).T @ M.reshape(batch + (L, n * m))
    return P.reshape(batch + (e, f, n, m)).swapaxes(-3, -2) \
        .reshape(batch + (e * n, f * m))


def _invertible(lam, tol_inv):
    """Relative smin threshold on the eigenvalues of each Hermitian matrix
    of a stack (..., en); an empty (e = 0) pencil is invertible."""
    a = np.abs(lam)
    return a.min(axis=-1, initial=np.inf) \
        > tol_inv * np.maximum(1.0, a.max(axis=-1, initial=0.0))


def resolvent(R, t, tol_inv=TOL_INV, factors=None):
    """P(A, X)^{-1}: the inverse a Region handed on as factors (its test
    has put t in dom), or that of a one-point dom test, which raises
    NotInDomain when the pencil is singular at tol_inv."""
    if factors is not None:
        return factors
    inside, W = Region(R, "dom", tol_inv=tol_inv).test(_stack([t]))
    if not inside[0]:
        raise NotInDomain("pencil is numerically singular at tol_inv=%g"
                          % tol_inv)
    return W[0]


def _compress(W, lift):
    """lift* W lift, made Hermitian, for a lift V (x) I; W may be a stack
    (B, en, en)."""
    return matkit.herm(lift.conj().T @ W @ lift)


def eval_realization(R, t, factors=None):
    """(c (x) I)* P(A,X)^{-1} (c (x) I), Hermitian, from the pencil's
    inverse (see resolvent); raises NotInDomain at singular pencils."""
    return _compress(resolvent(R, t, TOL_INV, factors), R.c_lift(t.n))


@dataclass(frozen=True)
class RangeTFrame:
    """Isometry V_T onto span of the ranges of the T_i, plus compressions."""

    V_T: np.ndarray  # e x k
    That: tuple      # k x k Hermitian compressions V_T* T_i V_T
    J11: np.ndarray  # k x k, V_T* J V_T: R_T(0, 0) when J = J^-1
    _lifts: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @property
    def k(self):
        return self.V_T.shape[1]

    def lift(self, n):
        """V_T (x) I_n, built once per n (read-only)."""
        return _lift(self._lifts, self.V_T, n)


def _range_t_frame(R):
    """Orthonormal basis of ran T = span of the ranges of all T_i; read it
    as R.frame, which builds it once."""
    e = R.e
    if R.g == 0:
        V = np.zeros((e, 0), dtype=complex)
        return RangeTFrame(V, (), np.zeros((0, 0), dtype=complex))
    stack = np.hstack([np.asarray(T, dtype=complex) for T in R.T])
    U, s, _ = np.linalg.svd(stack, full_matrices=False)
    k = int(np.sum(s > RTOL_RANK * max(1.0, s[0] if len(s) else 1.0)))
    V = U[:, :k]
    That = tuple(matkit.herm(V.conj().T @ T @ V) for T in R.T)
    return RangeTFrame(V, That, matkit.herm(V.conj().T @ R.J @ V))


def r_T(R, t, tol_inv=TOL_INV, factors=None):
    """Hermitian compressed resolvent R_T = (V_T (x) I)* P^{-1} (V_T (x) I),
    from the pencil's inverse (see resolvent)."""
    return _compress(resolvent(R, t, tol_inv, factors), R.frame.lift(t.n))


@dataclass(frozen=True)
class EmptyProof:
    """prove_empty's proof, by its kernel or rayleigh form, from the unit
    u with a = u* M_0 u and c = ||M_0 u - a u||: lambda_min(M) <=
    lambda_bound < -tol max(1, norm_bound) at every draw."""

    form: str
    u: np.ndarray
    a: float
    c: float
    norm_bound: float
    lambda_bound: float


def _jointly_nilpotent(N, cut):
    """Whether every product of e letters N (a stack (L, e, e)) vanishes:
    the subspaces K_0 = C^e, K_(m+1) = sum_l N_l K_m (orthonormal, by
    _pivoted_gs with the absolute cut) shrink at every step until 0; a
    step that keeps the dimension keeps it for ever."""
    K = np.eye(N.shape[-1], dtype=complex)
    while K.shape[1]:
        K_next, _ = _pivoted_gs(K[:, :0], np.hstack(N @ K), cut)
        if K_next.shape[1] == K.shape[1]:
            return False
        K = K_next
    return True


def _kernel_direction(M0, Ms):
    """In the common kernel Q of the stack Ms (at RTOL_RANK of its largest
    singular value), the lowest eigenvector of Q* M0 Q when it is
    negative, else the vector of its kernel that M0 moves most; or None."""
    Q = np.eye(len(M0), dtype=complex)
    if len(Ms):
        _, sv, Vh = np.linalg.svd(Ms.reshape(-1, len(M0)),
                                  full_matrices=False)
        Q = Vh[int(np.sum(sv > RTOL_RANK * max(1.0, sv[0]))):].conj().T
    if not Q.shape[1]:
        return None
    mu, E = np.linalg.eigh(matkit.herm(Q.conj().T @ M0 @ Q))
    if mu[0] < -RTOL_RANK:
        return Q @ E[:, 0]
    ker = E[:, mu <= RTOL_RANK]
    if not ker.shape[1]:
        return None
    return Q @ (ker @ np.linalg.svd(M0 @ Q @ ker)[2][0].conj())


def prove_empty(series, scale, tol=TOL_PSD):
    """An EmptyProof that psd_mask at tol rejects the matrix polynomial
    M = sum_w M_w (x) Z^w at every point of norm <= scale, or None (M_0
    passes psd_mask, so the origin is a region point, or no bound holds).

    series = (words, Ms, rest): the words w and their k x k M_w (M_0
    first), and rest[m], a bound on the summed norms of those of length m
    left out as rounding.  Draws have norm <= s = scale (1 + 1e-12), so
    ||M|| <= B = sum_w ||M_w|| s^|w| + sum_m rest[m] s^m.  The kernel form
    takes u with M_w u = 0 for w nonempty (_kernel_direction): M maps
    u (x) y to (M_0 u) (x) y, and interlacing on u (x) y and (M_0 u - a u)
    (x) y / c gives lambda_min(M) <= ((a + B) - sqrt((B - a)^2 + 4 c^2))
    / 2.  The rayleigh form takes the lowest eigenvector u of M_0:
    lambda_min(M) <= a + sum_w |u* M_w u| s^|w|.  The smaller bound
    proves when it is below -tol max(1, B).
    """
    words, Ms, rest = series
    mu, E = np.linalg.eigh(matkit.herm(Ms[0]))
    if matkit.psd_mask(mu, tol):
        return None
    s = scale * (1 + 1e-12)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = s ** np.array([len(w) for w in words], dtype=float)
        B = np.linalg.svd(Ms, compute_uv=False)[:, 0] @ powers \
            + rest @ s ** np.arange(len(rest))
    if not np.isfinite(B):
        return None
    proofs = []
    for form, u in (("kernel", _kernel_direction(Ms[0], Ms[1:])),
                    ("rayleigh", E[:, 0])):
        if u is None:
            continue
        u = u * (matkit.unit_phase(u) / np.linalg.norm(u))
        a = float(np.real(u.conj() @ Ms[0] @ u))
        c = float(np.linalg.norm(Ms[0] @ u - a * u))
        lam = ((a + B) - math.hypot(B - a, 2 * c)) / 2 if form == "kernel" \
            else a + np.abs(Ms[1:] @ u @ u.conj()) @ powers[1:]
        proofs.append(EmptyProof(form, u, a, c, float(B), float(lam)))
    best = min(proofs, key=lambda proof: proof.lambda_bound)
    return best if best.lambda_bound < -tol * max(1.0, B) else None


def _word_series(R, X):
    """(words, coefficients, rest) of X* P^-1 X = sum_w (X* N_w J X) z_w
    for an e x r matrix X when R has J^2 = I and jointly nilpotent letters
    N_l = J Z_l (P^-1 = (I - sum N_l z_l)^-1 J), else None.

    The blocks Y_w = X* N_w grow one letter at a time, Y_(w l) = Y_w N_l;
    w is dropped, and never extended, once ||Y_w||_F is at most
    RTOL_RANK ||X||_F rho^|w|, rho = max(1, max_l ||N_l||_2), its
    rounding.  Its extensions by j letters have norm <= ||Y_w||_F
    ||J X||_F (sum_l ||N_l||_2)^j, summed into rest by length.
    """
    if not R.is_signature() or not R.letters[1]:
        return None
    e, L, r, (N, _, norms) = R.e, R.h + R.g, X.shape[1], R.letters
    rho = max([1.0] + list(norms))
    JX, cut = R.J @ X, RTOL_RANK * np.linalg.norm(X)
    reach = np.linalg.norm(JX) * norms.sum() ** np.arange(e)
    kept, words, Y, coeffs, rest = [], [()], X.conj().T[None], [], np.zeros(e)
    for m in range(1, e + 1):
        kept += words
        coeffs.append((Y.reshape(-1, e) @ JX).reshape(-1, r, r))
        grown = (Y.reshape(1, -1, e) @ N).reshape(-1, r, e)
        size = np.linalg.norm(grown.reshape(-1, r * e), axis=1)
        alive = size > cut * rho ** m
        rest[m:] += size[~alive].sum() * reach[:e - m]
        words = [w + (l,) for l in range(L) for w in words]
        words = [w for w, keep in zip(words, alive) if keep]
        Y = grown[alive]
    return kept, np.concatenate(coeffs), rest


def polynomial_of(R):
    """R's function as a FreePoly over the letters a1..ah, x1..xg when R
    has J^2 = I and jointly nilpotent letters N_l = J Z_l, else None.

    Its coefficients are the c* N_w J c of _word_series at X = c.  r is
    symmetric, so each coefficient is averaged with the conjugate of its
    reversed word's, and those below COEFF_DROP times the largest are
    dropped.
    """
    series = _word_series(R, R.c[:, None])
    if series is None:
        return None
    words, coeffs, _ = series
    coeffs = dict(zip(words, coeffs[:, 0, 0]))
    sym = {w: (c + np.conj(coeffs.get(w[::-1], np.conj(c)))) / 2
           for w, c in coeffs.items()}
    largest = max(map(abs, sym.values()), default=0.0)
    ctx = VarContext(tuple("a%d" % (i + 1) for i in range(R.h)),
                     tuple("x%d" % (i + 1) for i in range(R.g)))
    return FreePoly(ctx, {w: np.array([[c]]) for w, c in sym.items()
                          if abs(c) >= COEFF_DROP * largest})


REGION_KINDS = ("dom", "dom-plus", "kebab", "kebab-plus", "ball")


def _inverses(P):
    """(W, ok) for a stack of pencils: their inverses from one batched LU,
    and which exist.  A stack with an exactly singular pencil is inverted
    one pencil at a time; that pencil's W is zero."""
    try:
        return np.linalg.inv(P), np.ones(len(P), dtype=bool)
    except np.linalg.LinAlgError:
        W, ok = np.zeros_like(P), np.zeros(len(P), dtype=bool)
        for i, Pi in enumerate(P):
            try:
                W[i], ok[i] = np.linalg.inv(Pi), True
            except np.linalg.LinAlgError:
                pass
        return W, ok


class RegionKind:
    """What every sampling region shares: its kind, checked against
    REGION_KINDS (a ball needs a positive finite radius), psd_mask's tol,
    the ball rule and the one-size point helpers.  A region's test(mats)
    returns (mask, payloads) for a stack of points (B, h + g, n, n), and
    its hessian, values and rt_lambda_min answer from those payloads; its
    k is the size of R_T per unit of n, and series() gives the
    coefficients of the matrix the plus kinds judge, from which
    empty_proof(scale) proves them empty at scale."""

    def __init__(self, kind, tol, radius):
        if kind not in REGION_KINDS:
            raise ValueError("unknown region kind %r" % kind)
        if kind == "ball" and not (radius is not None and np.isfinite(radius)
                                   and radius > 0):
            raise ValueError("a ball needs a positive finite radius")
        self.kind, self.tol, self.radius = kind, tol, radius

    def _ball(self, mats):
        """Which points lie in the ball (every point, for the other
        kinds): every matrix of spectral norm <= radius (1 + 1e-12), since
        a draw rescaled to norm radius computes a norm a few ulps above
        it."""
        if self.kind != "ball":
            return np.ones(len(mats), dtype=bool)
        norms = np.linalg.svd(mats, compute_uv=False).max(axis=-1)
        return np.all(norms <= self.radius * (1 + 1e-12), axis=1)

    def empty_proof(self, scale):
        """prove_empty of series() at tol, or None (k = 0, no series)."""
        series = self.series() if self.k else None
        return series and prove_empty(series, scale, self.tol)

    def test_points(self, points):
        """test on a sequence of HermTuples of one size."""
        return self.test(_stack(points))

    def __contains__(self, t):
        return bool(self.test_points([t])[0][0])


class Region(RegionKind):
    """A sampling region of R, tested a stack of points at a time.

    dom: the pencil is invertible at relative threshold tol_inv (smin and
    smax are the extreme |eigenvalues| of the Hermitian pencil).
    dom-plus: also R_T(A, X) PSD at tol (psd_mask; vacuous when k = 0).
    kebab, kebab-plus: dom, dom-plus at both (A, X) and (A, 0).
    ball: dom, and RegionKind's ball rule.

    test is the one membership call, with one path for every kind: the
    ball's norms; one batched LU inverse W of every pencil (and of the
    pencils at (A, 0) for the kebab kinds), an exactly singular pencil
    lying outside; on the plus kinds with k > 0, R_T = V* W V,
    V = V_T (x) I, judged by psd_mask; then the dom rule, _invertible on
    the eigvalsh of the pencils still in.  It hands on each point's W, from
    which hessian, values and rt_lambda_min evaluate, and so can a
    consumer (resolvent, r_T and eval_realization with factors=), without
    factoring the pencil again.
    """

    def __init__(self, R, kind="dom", tol=TOL_PSD, tol_inv=TOL_INV,
                 radius=None):
        super().__init__(kind, tol, radius)
        self.R, self.tol_inv = R, tol_inv
        # the samplers' view: letter counts and the pencil's size per n
        self.h, self.g, self.dim = R.h, R.g, R.e

    @property
    def k(self):
        return self.R.k

    def series(self):
        """R_T = sum_w (V_T* N_w J V_T) (x) Z^w as prove_empty's series
        (_word_series at X = V_T; M_0 = J11), or None for a rational R."""
        return _word_series(self.R, self.R.frame.V_T)

    def _with_zero_x(self, mats):
        """The stack, followed for the kebab kinds by its points (A, 0)."""
        if not self.kind.startswith("kebab"):
            return mats
        at_zero = mats.copy()
        at_zero[:, self.R.h:] = 0
        return np.concatenate([mats, at_zero])

    def test(self, mats):
        """(mask, W) for a stack of points (B, h + g, n, n): which lie in
        the region, and the inverses (B, en, en) of their pencils."""
        B, n = mats.shape[0], mats.shape[-1]
        mask = self._ball(mats)
        P = self.R.pencils(self._with_zero_x(mats))
        W, ok = _inverses(P)
        per_point = 2 if self.kind.startswith("kebab") else 1
        mask &= ok.reshape(per_point, B).all(axis=0)
        judges = []
        if self.kind.endswith("plus") and self.k:
            lift = self.R.frame.lift(n)
            judges.append(lambda idx: matkit.psd_mask(
                np.linalg.eigvalsh(_compress(W[idx], lift)), self.tol))
        judges.append(lambda idx: _invertible(np.linalg.eigvalsh(P[idx]),
                                              self.tol_inv))
        # each judge sees only the pencils of the points still in
        for judge in judges:
            idx = np.flatnonzero(np.tile(mask, per_point))
            passed = np.ones(len(P), dtype=bool)
            passed[idx] = judge(idx)
            mask &= passed.reshape(per_point, B).all(axis=0)
        return mask, W[:B]

    def hessian(self, t, H, W):
        """The x-Hessian 2 (c (x) I)* W L W L W (c (x) I) at t, with
        L = sum T_i (x) H_i and W its pencil's inverse."""
        LWc = self.R.x_sum(H, t.n) @ (W @ self.R.c_lift(t.n))
        return matkit.herm(2.0 * (LWc.conj().T @ W @ LWc))

    def values(self, points, W):
        """r at points of one size, from their pencils' inverses W."""
        return [eval_realization(self.R, t, Wi) for t, Wi in zip(points, W)]

    def rt_lambda_min(self, t, W):
        """lambda_min of R_T at t, from its pencil's inverse W (0 when
        k = 0)."""
        if not self.k:
            return 0.0
        return float(np.linalg.eigvalsh(r_T(self.R, t, factors=W))[0])


def in_dom(R, t, tol_inv=TOL_INV):
    """(A, X) in dom r: pencil invertible at relative threshold tol_inv."""
    return t in Region(R, "dom", tol_inv=tol_inv)


def in_dom_plus(R, t):
    """(A, X) in dom+ r: in dom and R_T(A, X) PSD (vacuous when k = 0)."""
    return t in Region(R, "dom-plus")


def in_dom_kebab(R, t, tol_inv=TOL_INV):
    return t in Region(R, "kebab", tol_inv=tol_inv)


def in_dom_kebab_plus(R, t):
    return t in Region(R, "kebab-plus")


# ---------------------------------------------------------------------------
# linear representations of coefficient series

@dataclass(frozen=True)
class LinearRep:
    """Recognizable-series data: coeff(w) = u* M_{i1} ... M_{im} v."""

    u: np.ndarray
    mats: tuple
    v: np.ndarray

    @property
    def dim(self):
        return len(self.v)


def smr_linear_rep(R):
    """Series-side view of a realization with invertible Hermitian J."""
    Jinv = np.linalg.inv(R.J)
    mats = tuple(Z @ Jinv for Z in (R.S + R.T))
    return LinearRep(Jinv @ R.c, mats, R.c.copy())


def _krylov_cut(mats):
    """Absolute rank cut RTOL_RANK max(1, ||M_i||_F) of a Krylov loop from
    a unit seed."""
    return RTOL_RANK * max([1.0] + [np.linalg.norm(M) for M in mats])


def _pivoted_gs(Q, cand, cut):
    """Extend the orthonormal columns Q by the candidates that leave its
    span: column-pivoted Gram-Schmidt, taking largest residual first while
    it exceeds cut (re-orthogonalized once against Q, never beyond
    dimension Q.shape[0]).  Returns (Q extended, indices of the kept
    candidates in the order taken)."""
    d = Q.shape[0]
    res = cand - Q @ (Q.conj().T @ cand)
    res = res - Q @ (Q.conj().T @ res)
    kept, new = [], []
    while Q.shape[1] + len(new) < d:
        norms = np.linalg.norm(res, axis=0)
        j = int(np.argmax(norms))
        if norms[j] <= cut:
            break
        q = res[:, j] / norms[j]
        res = res - np.outer(q, q.conj() @ res)
        new.append(q)
        kept.append(j)
    return (np.column_stack([Q] + new) if new else Q), kept


def _krylov_closure(mats, seed):
    """Smallest invariant subspace (under all mats) containing the seed,
    as orthonormal columns.

    Built breadth first: each level orthogonalizes only the frontier, the
    images M_i q of the columns q the previous level added, against the
    columns kept so far (_pivoted_gs with the cut of _krylov_cut), and
    stops when a level adds nothing.  The seed is normalized first, so the
    closure does not depend on its scale: a seed of tiny norm (say the
    coefficients of 1e-11 x x x x) spans the same subspace as its unit
    direction; only a zero seed gives the empty closure.
    """
    Q = np.zeros((len(seed), 0), dtype=complex)
    nrm = np.linalg.norm(seed)
    if nrm == 0:
        return Q
    frontier, cut = (seed / nrm).reshape(-1, 1), _krylov_cut(mats)
    while frontier.shape[1]:
        k = Q.shape[1]
        Q, _ = _pivoted_gs(Q, frontier, cut)
        frontier = np.hstack([Q[:, :0]] + [M @ Q[:, k:] for M in mats])
    return Q


def is_minimal_rep(rep):
    d = rep.dim
    if _krylov_closure(rep.mats, rep.v).shape[1] != d:
        return False
    adj = tuple(M.conj().T for M in rep.mats)
    return _krylov_closure(adj, rep.u).shape[1] == d


def _krylov_pairs(mats, v, pmats, u):
    """d independent Krylov columns C = [M_w v] and their partners
    D = [P_w u], built breadth first by C_{iw} = M_i C_w and
    D_{iw} = P_i D_w from the columns kept so far.

    The pair (v, u) is first scaled to a unit v, and each level keeps the
    candidates that _pivoted_gs takes with the cut of _krylov_cut; each
    kept pair is scaled to a unit C column.  Neither scaling changes
    D C^{-1}.  Raises MinimalityError when the span stops short of d
    (the representation is not reachable, so not minimal).
    """
    d = len(v)
    cut = _krylov_cut(mats)
    Q = np.zeros((d, 0), dtype=complex)
    C, D = [Q], [Q]
    nv = np.linalg.norm(v) or 1.0
    cand, part = v[:, None] / nv, u[:, None] / nv
    while cand.shape[1] and Q.shape[1] < d:
        Q, kept = _pivoted_gs(Q, cand, cut)
        scale = np.linalg.norm(cand[:, kept], axis=0)
        newC, newD = cand[:, kept] / scale, part[:, kept] / scale
        C.append(newC)
        D.append(newD)
        cand = np.hstack([newC[:, :0]] + [M @ newC for M in mats])
        part = np.hstack([newD[:, :0]] + [P @ newD for P in pmats])
    C, D = np.hstack(C), np.hstack(D)
    if C.shape[1] < d:
        raise MinimalityError(
            "Krylov columns span %d of %d states; the representation is "
            "not minimal" % (C.shape[1], d))
    return C, D


def _reach_words(mats, v):
    """The words w of independent states M_w v, built breadth first as in
    _krylov_pairs: each level's candidates are M_l q for every letter l
    and every state q the previous level kept, with the word l w, and it
    keeps those that _pivoted_gs takes with the cut of _krylov_cut; each
    kept state is normalized before it is extended.  So the words are
    suffix-closed, the empty word first (when v is not 0); fewer than
    len(v) of them when the Krylov closure of v is a proper subspace."""
    d = len(v)
    nv = np.linalg.norm(v)
    if not nv:
        return []
    cut = _krylov_cut(mats)
    Q = np.zeros((d, 0), dtype=complex)
    cand, cand_words, words = v[:, None] / nv, [()], []
    while cand.shape[1] and Q.shape[1] < d:
        Q, kept = _pivoted_gs(Q, cand, cut)
        new = cand[:, kept] / np.linalg.norm(cand[:, kept], axis=0)
        new_words = [cand_words[j] for j in kept]
        words += new_words
        cand = np.hstack([new[:, :0]] + [M @ new for M in mats])
        cand_words = [(l,) + w for l in range(len(mats)) for w in new_words]
    return words


def _signature_realization(G, Gz, a, h, scale):
    """The minimal signature realization read from one eigendecomposition.

    G is the Hankel matrix of a symmetric series in coordinates of its
    reachable states, G[s, t] = coeff(w_s~ w_t) when the state s is
    reached by the word w_s; the stack Gz holds the letter forms
    Gz[z][s, t] = coeff(w_s~ z w_t), and a holds the coordinates of the
    empty word's state.  G = U Lam U* is cut at |lam| > RTOL_RANK base,
    base = max(max|lam|, scale), where scale is the size of the data G
    was computed from (0 when G is exact); the rank kept is the minimal
    dimension, and the realization is

        J = sign(Lam),  Z_z = |Lam|^-1/2 U* Gz[z] U |Lam|^-1/2,
        c = J |Lam|^1/2 U* a,

    kept eigenvalues in descending order; Z_z and c follow from the
    factorization G = (U |Lam|^1/2) J (|Lam|^1/2 U*), and the kernel of G,
    the unobservable states, drops out.  The letters are a-letters first
    (the first h go to S).  rank_cut records the decision: the smallest
    kept and the largest dropped |lam| / base.
    """
    lam, U = np.linalg.eigh(G)
    mag = np.abs(lam)
    base = max(mag.max(initial=0.0), scale)
    keep = mag > RTOL_RANK * base
    ratio = mag / base if base else mag
    cut = (float(ratio[keep].min(initial=1.0)),
           float(ratio[~keep].max(initial=0.0)))
    idx = np.flatnonzero(keep)
    idx = idx[np.argsort(-lam[idx], kind="stable")]
    lam, U = lam[idx], U[:, idx]
    root = np.sqrt(np.abs(lam))
    J = np.sign(lam)
    P = U / root
    Zs = matkit.herm(P.conj().T @ Gz @ P)
    c = J * root * (U.conj().T @ a)
    return Realization.make(np.diag(J), Zs[:h], Zs[h:], c, rank_cut=cut)


def _suffix_states(p):
    """The suffixes of p's support and of its reversed words, shortest
    first and in letter order within a length.  That is the order in which
    the reach closure of e_() under prepending a letter takes them
    (breadth first, each level the states z s for z in letter order and s
    in the previous level's order), so in these coordinates that closure
    is exactly the identity and linearize_poly leaves it out."""
    states = {()}
    for w in p.coeffs:
        states.update(s[t:] for s in (w, w[::-1]) for t in range(len(w)))
    return sorted(states, key=lambda s: (len(s), s))


def linearize_poly(p):
    """Symmetric scalar polynomial -> minimal signature realization.

    The Hankel matrix H[u, v] = coeff(u~ v) over the suffixes u, v of the
    support (of p and of its reversed words) holds every nonzero entry of
    p's Hankel matrix, so its rank is the minimal dimension (Fliess).  It
    is Hermitian because p is symmetric, and with the letter forms
    H_z[u, v] = coeff(u~ z v) it is _signature_realization's input in the
    coordinates of the suffix states, in _suffix_states' order (the empty
    word's state is e_()).
    Each word w gives |w| + 1 entries of H and |w| entries of the H_z.
    """
    if not p.is_scalar:
        raise matkit.ShapeError("linearization handles scalar coefficients")
    if not p.is_symmetric:
        raise SymmetryError("polynomial is not symmetric")
    idx = {s: i for i, s in enumerate(_suffix_states(p))}
    d = len(idx)
    H = np.zeros((d, d), dtype=complex)
    Hz = np.zeros((p.ctx.nletters, d, d), dtype=complex)
    for w, coef in p.coeffs.items():
        cw = coef[0, 0]
        rows = [idx[w[:t][::-1]] for t in range(len(w) + 1)]
        cols = [idx[w[t:]] for t in range(len(w) + 1)]
        H[rows, cols] = cw
        Hz[list(w), rows[:-1], cols[1:]] = cw
    a = np.zeros(d, dtype=complex)
    a[idx[()]] = 1.0
    return _signature_realization(H, Hz, a, p.ctx.h, 0.0)


def minimize(R):
    """The minimal signature realization of R's function.

    The reach closure Q of the series representation (M_z = Z_z J^-1,
    v = c) holds every state M_w c.  In its coordinates the Hankel
    matrix is G = Q* J^-1 Q, since coeff(x y) = (M_x~ c)* J^-1 (M_y c),
    and the letter forms are Q* J^-1 Z_z J^-1 Q; _signature_realization
    reads the realization from them.  G is computed, so its rank is cut
    against ||J^-1||, its size for orthonormal Q, as well: states whose
    contributions cancel to rounding, as in the direct sum of R and -R,
    drop out.  R itself comes back when Q keeps all e states and
    J^2 = I: then G is unitarily congruent to J, of full rank, and R is
    already minimal in signature form.
    """
    Jinv = np.linalg.inv(R.J)
    Q = _krylov_closure(tuple(Z @ Jinv for Z in R.S + R.T), R.c)
    if Q.shape[1] == R.e and R.is_signature():
        return R
    JQ = Jinv @ Q
    Zs = np.asarray(R.S + R.T, dtype=complex).reshape(-1, R.e, R.e)
    return _signature_realization(Q.conj().T @ JQ, JQ.conj().T @ Zs @ JQ,
                                  Q.conj().T @ R.c, R.h,
                                  np.linalg.norm(Jinv, 2))


def state_space_similarity(R1, R2):
    """Unique S with S J Z_j = K W_j S (all letters), S J c = K b.

    R1 carries (J, Z, c), R2 carries (K, W, b); both must be minimal
    signature realizations of a common function, in which case S also
    satisfies S* K S = J.  With A_j = J Z_j and B_j = K W_j, S maps
    A_w J c to B_w K b for every word w, so S C1 = C2 on the Krylov pairs
    of _krylov_pairs; R1 is reachable, so C1 is invertible and
    S = C2 C1^{-1}, an O(e^3) solve.  Returns NotEquivalent when the
    relative residual of the full system exceeds 1e-8 or the congruence
    check fails at that tolerance.
    """
    tol = 1e-8
    for R in (R1, R2):
        if not is_minimal_rep(smr_linear_rep(R)):
            raise MinimalityError("state_space_similarity requires minimal inputs")
    if (R1.e != R2.e or R1.h != R2.h or R1.g != R2.g):
        return NotEquivalent("size mismatch")
    J, K = R1.J, R2.J
    A = tuple(J @ Z for Z in R1.S + R1.T)
    B = tuple(K @ W for W in R2.S + R2.T)
    a, b = J @ R1.c, K @ R2.c
    C1, C2 = _krylov_pairs(A, a, B, b)
    S = np.linalg.solve(C1.T, C2.T).T
    sq = sum(np.linalg.norm(S @ Ai - Bi @ S) ** 2 for Ai, Bi in zip(A, B))
    sq += np.linalg.norm(S @ a - b) ** 2
    res = np.sqrt(sq) / max(1.0, np.linalg.norm(b))
    if res > tol:
        return NotEquivalent("intertwining system inconsistent (residual %g)" % res)
    congr = np.linalg.norm(S.conj().T @ K @ S - J, 2)
    if congr > tol * max(1.0, np.linalg.norm(S, 2) ** 2):
        return NotEquivalent("congruence defect %g" % congr)
    return S


def realization_to_json(R):
    """JSON-ready dict {e, J, S, T, c, classes}; matrices row-major [re, im]."""
    return {
        "e": R.e,
        "J": jmat(R.J),
        "S": [jmat(M) for M in R.S],
        "T": [jmat(M) for M in R.T],
        "c": jmat(R.c),
        "classes": {"a": R.h, "x": R.g},
    }


def realization_from_json(obj):
    """Inverse of realization_to_json; ValueError on a malformed or
    non-finite entry and on a J that is singular at TOL_INV (the pencil's
    dom rule, _invertible, on the eigenvalues of J)."""
    R = Realization.make(junmat(obj["J"]), [junmat(M) for M in obj["S"]],
                         [junmat(M) for M in obj["T"]], junvec(obj["c"]))
    if not _invertible(np.linalg.eigvalsh(R.J), TOL_INV):
        raise ValueError("J is numerically singular")
    return R
