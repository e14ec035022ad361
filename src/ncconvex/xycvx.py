"""xy-convexity of bivariate nc polynomials.

An xy-pair is ((X, Y), V) with V an isometry satisfying
V*YXV = (V*YV)(V*XV); xy-convexity asks the defect
V* p(X, Y) V - p(V*(X, Y)V) to be PSD over all such pairs.  Up to unitaries
the pair has a three-block form, and on the admissible support class
(degree <= 2 in each letter, no x^2y^2-type words) the defect is exactly a
quadratic form: border vector [alpha, t0 alpha, gamma, s0 gamma] against a
middle matrix Mxy built from twelve structural coefficients.

Certificates p = pencil + Lambda* Lambda, with
Lambda = L_x x + L_y y + L_yx yx + L_xy xy, come from the 4 x 4 Gram matrix
of (L_x, L_y, L_yx, L_xy), whose entries are pinned by the twelve
structural coefficients.  Singular fully pinned 2 x 2 blocks give the
face that every PSD completion lies on, and when their kernel vectors
fix every free entry the Gram is read off that face with no solve;
otherwise a log-barrier solve maximizes its smallest eigenvalue over the
free entries, and its dual certificate proves the negative outcomes.
The columns of one factor G = F* F are the L vectors, which reassemble
the polynomial coefficientwise.

An uncertified Gram is refuted by construction: dual_witness reads inner
blocks and a border vector off the dual certificate Z, and pinned_witness
(no Z) evaluates the middle matrix at scalar inner blocks on a fixed ray
of levels; mxy_witness_pair completes either to an xy-pair.
middle_matrix_psd_scan samples inner blocks for the example studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matkit
from .matkit import (BlockMatrix2, TOL_PSD, herm, is_psd, jmat, junvec,
                     psd_mask, sample_blocks)
from .ncalg import (ContextError, FreePoly, HermTuple, ShapeError,
                    SymmetryError, VarContext, eval_poly)


class PairError(ValueError):
    """The supplied ((X, Y), V) is not an xy-pair."""


class AssemblyError(ValueError):
    """Gram factor columns fail the structural identities; upstream numerics."""


XY_CTX = VarContext((), ("x", "y"))

_LETTER = {"x": 0, "y": 1}


def _w(s):
    """Word string like "xyx" to a letter-index tuple."""
    return tuple(_LETTER[ch] for ch in s)


# admissible support: degree <= 2 in each letter separately and no
# x^2y^2 / y^2x^2 style words
L_WORDS = ("", "x", "y", "xx", "yy", "xy", "yx", "xyy", "yyx", "xxy", "yxx",
           "xyx", "yxy", "xyxy", "yxyx", "xyyx", "yxxy")
L_SET = frozenset(_w(s) for s in L_WORDS)

# the twelve structural (degree >= 2) coefficients driving the Hessian
STRUCTURAL = ("xx", "yy", "xyx", "yxy", "xyy", "yyx", "xxy", "yxx",
              "xyyx", "xyxy", "yxyx", "yxxy")

PENCIL_WORDS = ("", "x", "y", "xy", "yx")


@dataclass(frozen=True)
class Reject:
    """Support screen failure; the offending monomial is named."""

    monomial: str
    reason: str

    @property
    def accepted(self):
        return False


def _word_str(w):
    return "".join("x" if i == 0 else "y" for i in w) or "1"


@dataclass(frozen=True)
class PLPoly:
    """Screened scalar symmetric polynomial on the admissible support."""

    poly: FreePoly

    @property
    def accepted(self):
        return True

    def c(self, word):
        """Coefficient by word string, e.g. c("xyx")."""
        return self.poly.scalar_coeff(_w(word))


def from_coeffs(coeffs):
    """FreePoly over the (x, y) context from {word-string: coefficient}."""
    return FreePoly.from_terms(XY_CTX, {_w(s): complex(v)
                                        for s, v in coeffs.items()})


def support_screen(p):
    """Admit p into the screened class or Reject naming a bad monomial."""
    if p.ctx.g != 2 or p.ctx.h != 0:
        raise ContextError("expected two x-class letters and no a-class")
    if not p.is_scalar:
        raise ShapeError("support screen handles scalar polynomials")
    if not p.is_symmetric:
        raise SymmetryError("polynomial is not symmetric")
    for w in p.words():
        if w not in L_SET:
            return Reject(_word_str(w), "monomial outside the admissible "
                          "support for separate convexity")
    return PLPoly(p)


# ---------------------------------------------------------------------------
# xy-pairs

@dataclass(frozen=True)
class XYPair:
    X: np.ndarray
    Y: np.ndarray
    V: np.ndarray


def _norm2(M):
    """Spectral norm of each matrix of a stack (..., r, c), as norm(M, 2)
    reads it: the largest singular value."""
    return np.linalg.svd(M, compute_uv=False).max(axis=-1)


def _herm_norm2(M):
    """Spectral norm of each Hermitian matrix of a stack (..., n, n): the
    largest eigenvalue modulus, from one batched eigvalsh."""
    ev = np.linalg.eigvalsh(M)
    return np.maximum(np.abs(ev[..., 0]), np.abs(ev[..., -1]))


def xy_pair_residual(X, Y, V):
    """Norm of V*YXV - (V*YV)(V*XV), the defining product identity; X and
    Y may be stacks (B, n, n) sharing V, giving one norm per pair."""
    Vh = V.conj().T
    return _norm2(Vh @ Y @ X @ V - (Vh @ Y @ V) @ (Vh @ X @ V))


def is_xy_pair(X, Y, V, tol=1e-10):
    """X and Y are Hermitian, V is an isometry and the product identity
    holds, each at relative tol; X and Y may be stacks sharing V, giving
    one verdict per pair.  The norms of X, Y and V*V - I come from
    eigvalsh, that of the product identity's residual from its singular
    values."""
    iso = _herm_norm2(V.conj().T @ V - np.eye(V.shape[1])) <= tol
    XY = np.stack([X, Y])
    norms = _herm_norm2(XY)
    skew = np.abs(XY - XY.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    herm = np.all(skew <= tol * np.maximum(1.0, norms), axis=0)
    scale = np.maximum(1.0, norms[0] * norms[1])
    return iso & herm & (xy_pair_residual(X, Y, V) <= tol * scale)


def _three_block(top, side, blocks, left):
    """Assemble [[top, side, 0], [side*, b11, b12], [0, b12*, b22]] or the
    mirrored version with the coupling in the third block column; the
    blocks may be stacks (..., r, c), giving a stack."""
    n0 = top.shape[-1]
    b11, b12, b22 = blocks
    n1, n2 = b11.shape[-1], b22.shape[-1]
    N = n0 + n1 + n2
    M = np.zeros(top.shape[:-2] + (N, N), dtype=complex)
    M[..., :n0, :n0] = top
    M[..., n0:n0 + n1, n0:n0 + n1] = b11
    M[..., n0:n0 + n1, n0 + n1:] = b12
    M[..., n0 + n1:, n0:n0 + n1] = b12.conj().swapaxes(-1, -2)
    M[..., n0 + n1:, n0 + n1:] = b22
    cols = slice(n0, n0 + n1) if left else slice(n0 + n1, N)
    M[..., :n0, cols] = side
    M[..., cols, :n0] = side.conj().swapaxes(-1, -2)
    return M


def sample_xy_pairs(dims, scale, rng, size):
    """size random xy-pairs in the canonical three-block form, as stacks
    X, Y (size, n, n) and the isometry V they share.

    The draws are those of size sample_xy_pair calls, from one
    matkit.sample_blocks call.
    """
    n0, n1, n2 = dims
    # X couples the top block to the second, Y couples it to the third
    parts = [(n0, n0, True), (n0, n1, False), (n1, n1, True),
             (n1, n2, False), (n2, n2, True),
             (n0, n0, True), (n0, n2, False), (n1, n1, True),
             (n1, n2, False), (n2, n2, True)]
    m = sample_blocks(parts, scale, rng, size)
    X = _three_block(m[0], m[1], (m[2], m[3], m[4]), left=True)
    Y = _three_block(m[5], m[6], (m[7], m[8], m[9]), left=False)
    V = np.zeros((n0 + n1 + n2, n0), dtype=complex)
    V[:n0, :n0] = np.eye(n0)
    return X, Y, V


def sample_xy_pair(dims, scale=1.0, rng=None):
    """Random xy-pair in the canonical three-block form."""
    rng = np.random.default_rng(0) if rng is None else rng
    X, Y, V = sample_xy_pairs(dims, scale, rng, 1)
    return XYPair(X[0], Y[0], V)


@dataclass(frozen=True)
class DefectReport:
    defect: np.ndarray
    report: matkit.PsdReport

    @property
    def is_psd(self):
        return self.report.is_psd


def _check_pairs(X, Y, V, tol):
    """PairError unless every pair of the stack passes is_xy_pair at tol."""
    if not np.all(is_xy_pair(X, Y, V, tol)):
        raise PairError("V* YX V != (V*YV)(V*XV) beyond tolerance")


def _defects(poly, X, Y, V):
    """Hermitian defects V* p(X, Y) V - p(V*XV, V*YV) of a stack of pairs
    (or of one pair) sharing V."""
    Vh = V.conj().T
    big = eval_poly(poly, HermTuple(X.shape[-1], (), (X, Y), validate=False))
    X0, Y0 = Vh @ X @ V, Vh @ Y @ V
    small = eval_poly(poly, HermTuple(X0.shape[-1], (), (X0, Y0),
                                      validate=False))
    return herm(Vh @ big @ V - small)


def xy_convexity_test(p, pair, pair_tol=1e-8):
    """Defect V* p(X,Y) V - p(X0, Y0) with a PSD verdict."""
    poly = p.poly if isinstance(p, PLPoly) else p
    _check_pairs(pair.X, pair.Y, pair.V, pair_tol)
    defect = _defects(poly, pair.X, pair.Y, pair.V)
    return DefectReport(defect, is_psd(defect))


# ---------------------------------------------------------------------------
# middle matrix

@dataclass(frozen=True)
class MxyEval:
    matrix: np.ndarray
    block_sizes: tuple

    def block(self, j, k):
        starts = np.concatenate([[0], np.cumsum(self.block_sizes)])
        return self.matrix[..., starts[j]:starts[j + 1],
                           starts[k]:starts[k + 1]]


def middle_matrix(p, beta1, beta2, delta0, delta1):
    """The 4 x 4-block middle matrix at the given inner blocks.

    The blocks may carry leading batch axes (..., n1, n2), all the same,
    giving a stack of middle matrices; each point gets its own products,
    so it comes out bit for bit the same alone or in a stack.
    """
    n1 = delta0.shape[-1]
    n2 = beta2.shape[-1]
    if beta1.shape[-2:] != (n1, n2) or delta1.shape[-2:] != (n1, n2):
        raise ShapeError("beta1, delta1 must be n1 x n2")
    c = {w: p.c(w) for w in STRUCTURAL}
    I1 = np.eye(n1)
    I2 = np.eye(n2)
    b1, b2, d0, d1 = beta1, beta2, delta0, delta1
    b1h, d1h = b1.conj().swapaxes(-1, -2), d1.conj().swapaxes(-1, -2)
    # block rows and columns of sizes (n1, n1, n2, n2); None is a zero block
    rows = (
        (c["xx"] * I1 + c["xyx"] * d0
         + c["xyyx"] * (d0 @ d0 + d1 @ d1h),
         c["xxy"] * I1 + c["xyxy"] * d0,
         c["xxy"] * b1 + c["xyy"] * d1 + c["xyxy"] * (d0 @ b1 + d1 @ b2),
         c["xyyx"] * d1),
        (c["yxx"] * I1 + c["yxyx"] * d0, c["yxxy"] * I1, c["yxxy"] * b1,
         None),
        (c["yxx"] * b1h + c["yyx"] * d1h + c["yxyx"] * (b1h @ d0 + b2 @ d1h),
         c["yxxy"] * b1h,
         c["yy"] * I2 + c["yxy"] * b2 + c["yxxy"] * (b2 @ b2 + b1h @ b1),
         c["yyx"] * I2 + c["yxyx"] * b2),
        (c["xyyx"] * d1h, None, c["xyy"] * I2 + c["xyxy"] * b2,
         c["xyyx"] * I2))
    sizes = (n1, n1, n2, n2)
    at = np.concatenate([[0], np.cumsum(sizes)])
    M = np.zeros(d0.shape[:-2] + (at[-1], at[-1]), dtype=complex)
    for j, row in enumerate(rows):
        for k, blk in enumerate(row):
            if blk is not None:
                M[..., at[j]:at[j + 1], at[k]:at[k + 1]] = blk
    return MxyEval(M, sizes)


@dataclass(frozen=True)
class AllPsdEvidence:
    samples: int
    min_lambda: float

    @property
    def is_witness(self):
        return False


@dataclass(frozen=True)
class MxyWitness:
    """Inner blocks and a border vector with lambda_min = vector* M vector
    < 0: an eigenvalue of the middle matrix, or dual_witness's value."""

    delta0: np.ndarray
    delta1: np.ndarray
    beta1: np.ndarray
    beta2: np.ndarray
    lambda_min: float
    vector: np.ndarray

    @property
    def is_witness(self):
        return True


def _inner_parts(n1, n2):
    """delta0, beta2, delta1, beta1: the scan's draw order per sample."""
    return [(n1, n1, True), (n2, n2, True), (n1, n2, False), (n1, n2, False)]


def middle_matrix_psd_scan(p, sizes=((1, 1), (2, 1), (2, 2)), samples=40,
                           rng=None, scale=1.0, sampler=None, tol=TOL_PSD):
    """Eigencheck the middle matrix at sampled inner blocks, one sample at
    a time, by psd_mask at tol; the first failing sample is the witness.
    sampler(rng, (n1, n2)) may replace the default Gaussian draw (one
    sample_blocks call), e.g. to restrict to a biconvexity region."""
    rng = np.random.default_rng(0) if rng is None else rng
    min_lambda = np.inf
    for nm in sizes:
        for _ in range(samples):
            if sampler is None:
                d0, b2, d1, b1 = (m[0] for m in sample_blocks(
                    _inner_parts(*nm), scale, rng, 1))
            else:
                d0, d1, b1, b2 = sampler(rng, nm)
            lam, vecs = np.linalg.eigh(herm(middle_matrix(p, b1, b2, d0,
                                                          d1).matrix))
            min_lambda = min(min_lambda, float(lam[0]))
            if not psd_mask(lam, tol):
                return MxyWitness(d0, d1, b1, b2, float(lam[0]), vecs[:, 0])
    return AllPsdEvidence(len(sizes) * samples, float(min_lambda))


# the level ray of pinned_witness: s = 0 and s = +-2^k for k = -10..10
PINNED_LEVELS = np.concatenate([[0.0], np.ldexp(1.0, np.arange(-10, 11)),
                                -np.ldexp(1.0, np.arange(-10, 11))])


def pinned_witness(p, tol=TOL_PSD, levels=PINNED_LEVELS):
    """An MxyWitness at scalar inner blocks delta0 = beta2 = s and
    delta1 = beta1 = 0 for one level s, or None when the middle matrix
    passes psd_mask at tol on every level.

    All levels go through one stacked middle_matrix and one batched eigh;
    the witness is the level whose lambda_min is most negative relative to
    max(1, ||M(s)||).  Every pinned reject of the Gram stage has such a
    level on the default ray: a negative diagonal pin, or an indefinite
    xxy or yyx block, is a principal block of M(0); when
    |c_xyxy|^2 > c_xyyx c_yxxy, the determinant of the (0, 1) principal
    block is a quadratic in s with a negative leading coefficient; and a
    pin beyond the PSD bound on a column of vanishing diagonal makes a
    diagonal entry linear in s.
    """
    s = np.asarray(levels, dtype=complex).reshape(-1, 1, 1)
    z = np.zeros_like(s)
    lam, vecs = np.linalg.eigh(herm(middle_matrix(p, z, s, s, z).matrix))
    rel = lam[:, 0] / np.maximum(1.0, np.abs(lam).max(axis=1))
    i = int(np.argmin(rel))
    if psd_mask(lam[i], tol):
        return None
    return MxyWitness(s[i], z[i], z[i], s[i], float(lam[i, 0]),
                      vecs[i, :, 0])


def _hermitian_map(u, v):
    """(v u* + u v*) / |u|^2 - (u* v) u u* / |u|^4, the Hermitian map with
    u -> v when u* v is real; zero at u = 0."""
    uu = np.vdot(u, u).real or 1.0
    return (np.outer(v, u.conj()) + np.outer(u, v.conj())
            - np.vdot(u, v).real / uu * np.outer(u, u.conj())) / uu


def dual_witness(p, Z):
    """The MxyWitness read off the Gram's dual certificate Z.

    At inner blocks (delta0, 0, 0, beta2), b = [alpha, alpha', gamma,
    gamma'] has b* M b = sum G_uw <f_u, f_w> with f_x = [alpha; 0],
    f_y = [0; gamma], f_yx = [delta0 alpha; gamma'], f_xy = [alpha';
    beta2 gamma].  Their Gram is any PSD matrix that meets Z's constraints,
    so the rows of Z = F F* serve (eigenvalues above 1e-12 of the largest;
    a row with Z diagonal at most 1e-12 tr Z, barrier residue, is zeroed)
    and b* M b = <G, Z>.  The bottom block spans f_y (and f_yx if f_x = 0)."""
    lam, U = np.linalg.eigh(herm(Z))
    keep = lam > 1e-12 * lam[-1]
    F = U[:, keep] * np.sqrt(lam[keep])
    F[np.diagonal(Z).real <= 1e-12 * np.trace(Z).real] = 0
    fx, fy, fyx, fxy = F
    span = np.column_stack([fy] + ([fyx] if not fx.any() else []))
    Q, sv, _ = np.linalg.svd(span)
    k = int(np.count_nonzero(sv))
    top, bottom = Q[:, k:].conj().T, Q[:, :k].conj().T
    alpha, gamma = top @ fx, bottom @ fy
    delta0 = _hermitian_map(alpha, top @ fyx)
    beta2 = _hermitian_map(gamma, bottom @ fxy)
    b = np.concatenate([alpha, top @ fxy, gamma, bottom @ fyx])
    z = np.zeros((len(alpha), len(gamma)), dtype=complex)
    M = middle_matrix(p, z, beta2, delta0, z).matrix
    return MxyWitness(delta0, z, z, beta2, float(np.vdot(b, M @ b).real), b)


@dataclass(frozen=True)
class PairWitness:
    """Concrete xy-pair + vector h and the pair's defect D, from an Mxy
    witness; value is h* D h."""

    pair: XYPair
    h: np.ndarray
    value: float
    defect: np.ndarray

    def recheck(self, tol=TOL_PSD):
        """None when the completed pair passes is_xy_pair and
        h* D h < -tol max(1, ||D||), else a one-line reason."""
        pair = self.pair
        if not is_xy_pair(pair.X, pair.Y, pair.V):
            return "the completed witness is not an xy-pair"
        val = float(np.real(self.h.conj() @ self.defect @ self.h))
        bound = -tol * max(1.0, float(_norm2(self.defect)))
        if not val < bound:
            return ("the completed witness has h* D h = %.6g, not below %.6g"
                    % (val, bound))
        return None


def mxy_witness_pair(p, wit):
    """Complete an Mxy witness to an xy-pair where the defect fails PSD.

    Follows the vector-completion argument: with X0 = Y0 the 2 x 2 flip
    and h = e1, {h, X0 h} and {h, Y0 h} are independent, so the
    off-diagonal blocks can be solved for so that the border vector lands
    on the witness eigenvector.  The pair is not checked here: every
    caller runs PairWitness.recheck, the one check of a completed witness.
    """
    X0 = Y0 = np.array([[0.0, 1.0], [1.0, 0.0]])
    h = np.array([1.0, 0.0], dtype=complex)
    n1 = wit.delta0.shape[0]
    n2 = wit.beta2.shape[0]
    f = wit.vector
    f1, f2 = f[:n1], f[n1:2 * n1]
    f3, f4 = f[2 * n1:2 * n1 + n2], f[2 * n1 + n2:]
    By = np.column_stack([h, Y0 @ h])
    Bx = np.column_stack([h, X0 @ h])
    A = np.linalg.solve(By.T, np.column_stack([f1, f2]).T).T.conj().T
    C = np.linalg.solve(Bx.T, np.column_stack([f3, f4]).T).T.conj().T
    X = _three_block(X0, A, (np.zeros((n1, n1), complex), wit.beta1,
                             wit.beta2), left=True)
    Y = _three_block(Y0, C, (wit.delta0, wit.delta1,
                             np.zeros((n2, n2), complex)), left=False)
    V = np.zeros((X.shape[0], 2), dtype=complex)
    V[:2, :2] = np.eye(2)
    pair = XYPair(X, Y, V)
    defect = _defects(p.poly if isinstance(p, PLPoly) else p, X, Y, V)
    val = float(np.real(h.conj() @ defect @ h))
    return PairWitness(pair, h, val, defect)


# ---------------------------------------------------------------------------
# the compressed 2 x 2 forms Q and P and the blockwise tensor calculus

@dataclass(frozen=True)
class QForm:
    """First and third block rows/columns of the middle matrix."""

    p: PLPoly

    def eval(self, delta0, delta1, beta1, beta2):
        """The (1,1), (1,3), (3,1) and (3,3) blocks of middle_matrix."""
        M = middle_matrix(self.p, beta1, beta2, delta0, delta1)
        return np.block([[M.block(0, 0), M.block(0, 2)],
                         [M.block(2, 0), M.block(2, 2)]])


def extract_Q(p):
    return QForm(p)


@dataclass(frozen=True)
class PData:
    """Coefficient blocks of the compressed quadratic 2 x 2 polynomial."""

    blocks: dict

    def __getitem__(self, jk):
        return self.blocks[jk]


def build_P(p):
    P00 = np.array([[p.c("xx"), 0], [0, p.c("yy")]], dtype=complex)
    P01 = 0.5 * np.array([[p.c("xyx"), p.c("xyy")], [p.c("yyx"), 0]],
                         dtype=complex)
    P02 = 0.5 * np.array([[0, p.c("xxy")], [p.c("yxx"), p.c("yxy")]],
                         dtype=complex)
    P12 = np.array([[0, p.c("xyxy")], [0, 0]], dtype=complex)
    P21 = np.array([[0, 0], [p.c("yxyx"), 0]], dtype=complex)
    P11 = np.array([[p.c("xyyx"), 0], [0, 0]], dtype=complex)
    P22 = np.array([[0, 0], [0, p.c("yxxy")]], dtype=complex)
    return PData({(0, 0): P00, (0, 1): P01, (1, 0): P01, (0, 2): P02,
                  (2, 0): P02, (1, 1): P11, (1, 2): P12, (2, 1): P21,
                  (2, 2): P22})


def _ast(tau, R, parts):
    """Khatri-Rao tau (2x2 scalar) against R partitioned by parts."""
    A = BlockMatrix2.from_blocks(
        np.array([[tau[0, 0]]]), np.array([[tau[0, 1]]]),
        np.array([[tau[1, 0]]]), np.array([[tau[1, 1]]]))
    B = BlockMatrix2.from_matrix(np.asarray(R, dtype=complex), parts[0])
    return matkit.khatri_rao(A, B).full()


def eval_Q_via_P(P, S, parts):
    """ℰP(S) = E* (sum P_jk (x) S_j S_k) E as a blockwise tensor sum; at the
    canonical block pair S it equals the Q form on those blocks."""
    S1, S2 = S
    n = sum(parts)
    if S1.shape != (n, n) or S2.shape != (n, n):
        raise ShapeError("S blocks do not match the partition")
    mats = (np.eye(n, dtype=complex), np.asarray(S1, complex),
            np.asarray(S2, complex))
    kr = np.zeros((n, n), dtype=complex)
    for j in range(3):
        for k in range(3):
            kr = kr + _ast(P[(j, k)], mats[j] @ mats[k], parts)
    return kr


# ---------------------------------------------------------------------------
# Gram certificates

@dataclass(frozen=True)
class GramFace:
    """The face of the pinned Gram that every PSD completion lies on.

    blocks lists the fully pinned 2 x 2 blocks (j, k) whose lambda_min is
    within tol scale of 0; each one's kernel vector u, placed at (j, k),
    has G u = 0 for every PSD completion G (Borwein-Wolkowicz facial
    reduction).  When these equations fix every free entry, the completion
    that solves them is the only candidate; residual is ||G U|| there,
    with the unit kernel vectors as the columns of U.
    """

    blocks: tuple
    residual: float


@dataclass(frozen=True)
class GramCertResult:
    """Outcome of the pinned 4 x 4 Gram solve for p = pencil + Lambda*Lambda.

    status: "feasible", "not-certifiable-pinned" (the fully pinned part of
    the pattern is already indefinite, a proof of infeasibility), or
    "not-certifiable" (the largest smallest eigenvalue of the Gram over its
    free entries is negative).  In the first case G is the completed Gram
    of (L_x, L_y, L_yx, L_xy) and F its factor, G = F* F up to the clipped
    eigenvalues, whose columns are those four vectors.  In the last case Z
    is the barrier solve's dual certificate: Z is PSD with tr Z = 1 and
    <E_i, Z> = 0 for every free direction E_i, so <G, Z> = dual_value is
    the same for every completion G of the pins, and
    lambda_min(G) <= dual_value < 0 proves that none is PSD, up to the
    float64 residuals of those identities.

    face is the GramFace when G was read off the face of the pins with no
    solve (a rank-one Gram, say); only a feasible G is taken from it.
    solver_steps and gap are the Newton step count and the duality gap of
    the barrier solve, 0 when none ran: a pinned reject, no free entry, or
    a G read off the face.
    """

    status: str
    G: np.ndarray = None
    F: np.ndarray = None
    pinned_lambda_min: float = 0.0
    reduced_lambda: float = 0.0
    Z: np.ndarray = None
    dual_value: float = 0.0
    solver_steps: int = 0
    gap: float = 0.0
    face: GramFace = None

    @property
    def is_feasible(self):
        return self.status == "feasible"


def _reduced_pins(p):
    """Entry pins on the Gram of (L_x, L_y, L_yx, L_xy): the structural
    coefficient identities.  full pins fix an entry, half pins fix twice
    its real part.
    """
    diag = np.array([p.c("xx"), p.c("yy"), p.c("xyyx"), p.c("yxxy")])
    full = {(1, 2): p.c("yyx"), (0, 3): p.c("xxy"), (2, 3): p.c("xyxy")}
    half = {(0, 2): p.c("xyx"), (1, 3): p.c("yxy")}
    return diag, full, half


def _structural_scale(p):
    """max(1, largest |structural coefficient| of p): the scale of the Gram
    pins and of the identities its factor must meet.  The pencil words,
    which do not bear on xy-convexity, do not widen it."""
    return max([1.0] + [abs(p.c(w)) for w in STRUCTURAL])


def _uncertified(lam, G, tol):
    """The Gram stage's rule: G's smallest eigenvalue lam lies below
    -tol max(1, max|G|)."""
    return lam < -tol * max(1.0, float(np.max(np.abs(G))))


def _face_completion(base, E, kernels, bound):
    """(G, GramFace) when the kernel vectors (j, k, u) of singular pinned
    blocks fix every free entry: the real least-squares solution theta of
    (base + sum_i theta_i E_i) U = 0 has full column rank and
    ||G U|| <= bound.  None otherwise."""
    if not kernels:
        return None
    U = np.zeros((4, len(kernels)), dtype=complex)
    for i, (j, k, u) in enumerate(kernels):
        U[[j, k], i] = u
    EU = (E @ U).reshape(len(E), -1)
    rhs = -(base @ U).ravel()
    theta, _, rank, _ = np.linalg.lstsq(
        np.concatenate([EU.real, EU.imag], axis=1).T,
        np.concatenate([rhs.real, rhs.imag]), rcond=None)
    if rank < len(E):
        return None
    G = base + np.tensordot(theta, E, 1)
    residual = float(np.linalg.norm(G @ U))
    if residual > bound:
        return None
    return G, GramFace(tuple((j, k) for j, k, _ in kernels), residual)


def _reduced_feasibility(p, tol):
    """Best achievable smallest eigenvalue of the pinned reduced Gram.

    Returns (verdict, lambda_or_pin, G, solve) where verdict
    "pinned-reject" carries a provable obstruction, otherwise
    lambda_or_pin is the smallest eigenvalue of G, the completion of the
    pins, and solve the GramCertResult fields of how it was found: none
    with no free entry; face (a GramFace) when the singular fully pinned
    blocks fix a completion that passes the Gram stage's rule; else
    solver_steps, gap and Z of its matkit.max_min_eig solve, which
    maximizes the smallest eigenvalue.
    """
    diag, full, half = _reduced_pins(p)
    scale = _structural_scale(p)
    if float(np.max(np.abs(diag.imag))) > tol * scale:
        return "pinned-reject", float(-np.max(np.abs(diag.imag))), None, None
    if float(np.min(diag.real)) < -tol * scale:
        return "pinned-reject", float(np.min(diag.real)), None, None
    # a pin of modulus m (half the modulus of a half pin) on a column
    # whose diagonal vanishes at tol scale must meet the PSD bound
    # m^2 <= G_jj G_kk: its principal 2 x 2 block passes at tol scale
    pins = [(j, k, abs(v)) for (j, k), v in full.items()] \
        + [(j, k, abs(v) / 2) for (j, k), v in half.items()]
    small = diag.real <= tol * scale
    for j, k, m in pins:
        if (small[j] or small[k]) and float(np.linalg.eigvalsh(
                [[diag.real[j], m], [m, diag.real[k]]])[0]) < -tol * scale:
            return "pinned-reject", -m, None, None
    # a column is eliminated (zero) when its diagonal and its pins vanish
    alive = [i for i in range(4) if not small[i] or any(
        m > tol * scale for j, k, m in pins if i in (j, k))]
    # fully pinned principal 2 x 2 blocks are PSD-necessary, and a
    # singular one gives the face of every PSD completion: G u = 0 for its
    # kernel vector u
    pin_lam, kernels = 0.0, []
    for (j, k), v in full.items():
        if j in alive and k in alive:
            blk = np.array([[diag.real[j], v],
                            [np.conj(v), diag.real[k]]])
            lam = float(np.linalg.eigvalsh(blk)[0])
            pin_lam = min(pin_lam, lam)
            if lam <= tol * scale:
                kernels.append((j, k, np.linalg.eigh(blk)[1][:, 0]))
    if pin_lam < -tol * scale:
        return "pinned-reject", pin_lam, None, None

    base = np.zeros((4, 4), dtype=complex)
    for i in alive:
        base[i, i] = diag.real[i]
    for (j, k), v in full.items():
        if j in alive and k in alive:
            base[j, k] = v
            base[k, j] = np.conj(v)
    for (j, k), v in half.items():
        if j in alive and k in alive:
            base[j, k] = v.real / 2
            base[k, j] = v.real / 2
    # free entries: Re and Im of G[0, 1], Im of G[0, 2] and of G[1, 3]
    params = []
    if 0 in alive and 1 in alive:
        params += [(1.0, 0, 1), (1j, 0, 1)]
    if 0 in alive and 2 in alive:
        params.append((1j, 0, 2))
    if 1 in alive and 3 in alive:
        params.append((1j, 1, 3))
    if not params:
        return "solved", float(np.linalg.eigvalsh(base)[0]), base, {}
    E = np.zeros((len(params), 4, 4), dtype=complex)
    for i, (v, j, k) in enumerate(params):
        E[i, j, k] = v
        E[i, k, j] = np.conj(v)
    face = _face_completion(base, E, kernels, tol * scale)
    if face is not None:
        G, rec = face
        lam = float(np.linalg.eigvalsh(G)[0])
        if not _uncertified(lam, G, tol):
            return "solved", lam, G, {"face": rec}
    # the barrier's gap n mu sits far below the assembly tolerance, and
    # the factor step clips it out of the pins
    sol = matkit.max_min_eig(base, E)
    G = base + np.tensordot(sol.theta, E, 1)
    return "solved", float(np.linalg.eigvalsh(G)[0]), G, {
        "solver_steps": sol.steps, "gap": sol.gap, "Z": sol.Z}


def gram_complete_certificate(p, tol=1e-8):
    """Complete the pinned 4 x 4 Gram and factor it, G = F* F.

    The factor keeps the eigenvalues above 1e-10 of the largest; each kept
    eigenvector takes matkit.unit_phase, so F carries no LAPACK phase.
    """
    verdict, lam_red, G, solve = _reduced_feasibility(p, tol)
    if verdict == "pinned-reject":
        return GramCertResult("not-certifiable-pinned",
                              pinned_lambda_min=lam_red)
    P = build_P(p)
    pinned = np.block([[P[(1, 1)], P[(1, 2)]], [P[(2, 1)], P[(2, 2)]]])
    lam_pin = float(np.linalg.eigvalsh(herm(pinned))[0])
    Z = solve.pop("Z", None)
    if _uncertified(lam_red, G, tol):
        if Z is not None:
            solve.update(Z=Z, dual_value=float(np.vdot(G, Z).real))
        return GramCertResult("not-certifiable", pinned_lambda_min=lam_pin,
                              reduced_lambda=lam_red, **solve)
    lam, U = np.linalg.eigh(herm(G))
    lam = np.clip(lam, 0.0, None)
    keep = lam > 1e-10 * max(lam[-1], 1e-300)
    U = U[:, keep] * [matkit.unit_phase(u) for u in U[:, keep].T]
    F = np.sqrt(lam[keep])[:, None] * U.conj().T
    return GramCertResult("feasible", G, F, lam_pin, lam_red, **solve)


# ---------------------------------------------------------------------------
# certificates: assembly, verification, serialization

@dataclass(frozen=True)
class XYCert:
    """p = pencil + Lambda* Lambda with Lambda = Lx x + Ly y + Lxy xy + Lyx yx."""

    N: int
    Lx: np.ndarray
    Ly: np.ndarray
    Lxy: np.ndarray
    Lyx: np.ndarray
    pencil: dict  # word string -> complex
    residuals: dict = field(default_factory=dict)

    def reconstruct(self):
        """The certified polynomial, coefficientwise."""
        coeffs = dict(self.pencil)
        for w, v in _lambda_square_coeffs(self.Lx, self.Ly,
                                          self.Lxy, self.Lyx).items():
            coeffs[w] = coeffs.get(w, 0j) + v
        return from_coeffs(coeffs)


def _lambda_square_coeffs(Lx, Ly, Lxy, Lyx):
    """Word coefficients of Lambda* Lambda."""
    def ip(u, v):
        return complex(np.vdot(u, v))

    return {
        "xx": ip(Lx, Lx), "yy": ip(Ly, Ly),
        "xy": ip(Lx, Ly), "yx": ip(Ly, Lx),
        "xxy": ip(Lx, Lxy), "yxx": ip(Lxy, Lx),
        "xyx": ip(Lx, Lyx) + ip(Lyx, Lx),
        "yxy": ip(Ly, Lxy) + ip(Lxy, Ly),
        "yyx": ip(Ly, Lyx), "xyy": ip(Lyx, Ly),
        "yxxy": ip(Lxy, Lxy), "xyyx": ip(Lyx, Lyx),
        "yxyx": ip(Lxy, Lyx), "xyxy": ip(Lyx, Lxy),
    }


def assemble_certificate(p, F, tol=1e-8):
    """The Gram factor F, columns (L_x, L_y, L_yx, L_xy), to a certificate.

    Checks the twelve structural coefficient identities and that the
    pencil part is Hermitian, each at tol * max(1, largest |structural
    coefficient| of p), the scale of the Gram pins; any failure is an
    AssemblyError pointing at upstream numerics.  The residuals kept in
    the certificate are absolute.  p is a PLPoly, which only support_screen
    builds, so its words outside PENCIL_WORDS are STRUCTURAL ones, and the
    identities leave p - Lambda* Lambda on the pencil words.
    """
    Lx, Ly, Lyx, Lxy = F.T
    bound = tol * _structural_scale(p)
    square = _lambda_square_coeffs(Lx, Ly, Lxy, Lyx)
    residuals = {w: abs(square[w] - p.c(w)) for w in STRUCTURAL}
    worst = max(residuals.values())
    if worst > bound:
        raise AssemblyError("structural identity residual %.2e" % worst)
    pencil = {w: p.c(w) - square.get(w, 0j) for w in PENCIL_WORDS}
    herm_gap = max(abs(pencil[""].imag), abs(pencil["x"].imag),
                   abs(pencil["y"].imag),
                   abs(pencil["xy"] - np.conj(pencil["yx"])))
    if herm_gap > bound:
        raise AssemblyError("pencil part is not hermitian (%.2e)" % herm_gap)
    return XYCert(F.shape[0], Lx, Ly, Lxy, Lyx, pencil, residuals)


@dataclass(frozen=True)
class VerifyReport:
    coeff_ok: bool
    max_coeff_residual: float
    sampled_ok: bool
    pairs: int
    min_defect_eig: float

    @property
    def ok(self):
        return self.coeff_ok and self.sampled_ok


def verify_certificate(p, cert, samples=25, rng=None, dims=(2, 2, 2)):
    """Coefficientwise identity (to 1e-8 max(1, largest |coefficient| of
    p), the rounding scale of the pencil words) plus sampled defect
    positivity (pairs at scale 0.8, matkit.psd_mask), separately."""
    rng = np.random.default_rng(0) if rng is None else rng
    poly = p.poly if isinstance(p, PLPoly) else p
    recon = cert.reconstruct()
    max_resid = 0.0
    for w in set(poly.words()) | set(recon.words()):
        max_resid = max(max_resid,
                        abs(poly.scalar_coeff(w) - recon.scalar_coeff(w)))
    coeff_ok = max_resid <= 1e-8 * max(
        [1.0] + [abs(poly.scalar_coeff(w)) for w in poly.words()])
    # the sampled pairs as one stack, with is_psd's verdict per defect
    X, Y, V = sample_xy_pairs(dims, 0.8, rng, samples)
    _check_pairs(X, Y, V, 1e-8)
    ev = np.linalg.eigvalsh(_defects(poly, X, Y, V))
    return VerifyReport(coeff_ok, max_resid, bool(psd_mask(ev).all()),
                        int(samples), float(min([np.inf] + ev[:, 0].tolist())))


def certificate_to_json(cert):
    return {
        "N": int(cert.N),
        "Lambda": {"x": jmat(cert.Lx), "y": jmat(cert.Ly),
                   "xy": jmat(cert.Lxy), "yx": jmat(cert.Lyx)},
        "pencil": {(k if k else "1"): jmat(v) for k, v in cert.pencil.items()},
        "residuals": {k: float(v) for k, v in cert.residuals.items()},
    }


def certificate_from_json(obj):
    pencil = {}
    for k, (a, b) in obj["pencil"].items():
        pencil["" if k == "1" else k] = complex(a, b)
    return XYCert(int(obj["N"]), junvec(obj["Lambda"]["x"]),
                  junvec(obj["Lambda"]["y"]), junvec(obj["Lambda"]["xy"]),
                  junvec(obj["Lambda"]["yx"]), pencil,
                  {k: float(v) for k, v in obj.get("residuals", {}).items()})


def synthesize_certified(rng, N=3, scale=1.0):
    """Random certified polynomial pencil + Lambda* Lambda (test generator)."""
    def col():
        return (rng.normal(size=N) + 1j * rng.normal(size=N)) \
            * scale / np.sqrt(2)

    Lx, Ly, Lxy, Lyx = col(), col(), col(), col()
    lam_xy = complex(rng.normal(), rng.normal()) * scale
    pencil = {"": complex(rng.normal()) * scale,
              "x": complex(rng.normal()) * scale,
              "y": complex(rng.normal()) * scale,
              "xy": lam_xy, "yx": np.conj(lam_xy)}
    coeffs = dict(pencil)
    for w, v in _lambda_square_coeffs(Lx, Ly, Lxy, Lyx).items():
        coeffs[w] = coeffs.get(w, 0j) + v
    return from_coeffs(coeffs), (Lx, Ly, Lxy, Lyx, pencil)


# ---------------------------------------------------------------------------
# appendix probe: hat substitution relating Q and the middle matrix

def _hat_blocks(delta0, delta1, beta1, beta2, t):
    n = delta0.shape[0]
    m = beta2.shape[0]
    hd0 = np.zeros((n + m, n + m), dtype=complex)
    hd0[:n, :n] = delta0
    hd1 = np.zeros((n + m, m + n), dtype=complex)
    hd1[:n, :m] = delta1
    hd1[n:, :m] = t * np.eye(m)
    hb1 = np.zeros((n + m, m + n), dtype=complex)
    hb1[:n, :m] = beta1
    hb1[:n, m:] = t * np.eye(n)
    hb2 = np.zeros((m + n, m + n), dtype=complex)
    hb2[:m, :m] = beta2
    return hd0, hd1, hb1, hb2


@dataclass(frozen=True)
class ProbeReport:
    deviations: dict  # t -> max-entry deviation from the permuted middle matrix
    decay_ok: bool
    sampled: int


def mxy_q_equivalence_probe(p, rng=None, samples=5):
    """Hat-substituted Q, block-conjugated by diag(1, 1/t), against the
    row/column-permuted middle matrix; reports the deviation per t in
    1e2, 1e4, 1e6, on 2 x 2 inner blocks drawn at scale 0.7.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    n = m = 2
    Q = extract_Q(p)
    worst = dict.fromkeys((1e2, 1e4, 1e6), 0.0)
    D0, B2, D1, B1 = sample_blocks(_inner_parts(n, m), 0.7, rng, samples)
    Ms = middle_matrix(p, B1, B2, D0, D1).matrix
    # block order (1, 4, 3, 2) of the (n, n, m, m) partition
    idx = np.concatenate([
        np.arange(0, n), np.arange(2 * n + m, 2 * n + 2 * m),
        np.arange(2 * n, 2 * n + m), np.arange(n, 2 * n)])
    for d0, d1, b1, b2, M in zip(D0, D1, B1, B2, Ms):
        target = M[np.ix_(idx, idx)]
        for t in worst:
            hd0, hd1, hb1, hb2 = _hat_blocks(d0, d1, b1, b2, t)
            Qhat = Q.eval(hd0, hd1, hb1, hb2)
            D = np.diag(np.concatenate([
                np.ones(n), np.full(m, 1.0 / t),
                np.ones(m), np.full(n, 1.0 / t)]))
            Qp = D @ Qhat @ D
            worst[t] = max(worst[t], float(np.max(np.abs(Qp - target))))
    ts = sorted(worst)
    decay_ok = all(worst[b] <= worst[a] / 10 + 1e-14
                   for a, b in zip(ts, ts[1:]))
    return ProbeReport(worst, decay_ok, samples)
