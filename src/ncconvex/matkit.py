"""Dense Hermitian numerical kernel.

Eigendecomposition-backed PSD predicates, PSD square roots, Khatri-Rao
(blockwise Kronecker) products with their isometric embeddings, a
log-barrier solver for the largest smallest eigenvalue of an affine
Hermitian family (with its dual certificate), and seeded Hermitian
samplers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ncalg import HermTuple, ShapeError, check_herm

TOL_INV = 1e-10
TOL_PSD = 1e-8


class DomainError(ValueError):
    """Input outside the operation's mathematical domain."""


class SingularError(ValueError):
    """A (near-)singular matrix where an invertible one is required."""


def herm(M):
    """Hermitian part (M + M*)/2, of each matrix of a stack (..., n, n)."""
    return (M + M.conj().swapaxes(-1, -2)) / 2


def unit_phase(v):
    """The unit number u that makes the largest-modulus entry of u v real
    positive (1 for a zero v): the one phase rule of reported
    eigenvectors, which do not carry LAPACK's arbitrary phase."""
    z = complex(v.flat[np.argmax(np.abs(v))])
    return np.conj(z) / abs(z) if z else 1.0


@dataclass(frozen=True)
class PsdReport:
    lambda_min: float
    lambda_max: float
    verdict: str  # PD | PSD | Indefinite | ND
    tol_used: float

    @property
    def is_psd(self):
        return self.verdict in ("PD", "PSD")

    @property
    def is_pd(self):
        return self.verdict == "PD"


def psd_mask(ev, tol=TOL_PSD):
    """is_psd's PSD verdict per row of ascending eigenvalues (..., n):
    lambda_min >= -tol max(1, |lambda_min|, |lambda_max|), the larger
    modulus being the spectral norm of the Hermitian matrix."""
    lo, hi = ev[..., 0], ev[..., -1]
    return lo >= -tol * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))


def is_psd(M, tol=TOL_PSD):
    """Eigenvalue verdict for a Hermitian matrix.

    PSD iff psd_mask, the one PSD rule; PD with the strict +tol margin
    of the same scale.  ND symmetric for the negative side.
    """
    M = herm(check_herm(np.asarray(M, dtype=complex)))
    if M.size == 0:
        return PsdReport(0.0, 0.0, "PD", tol)
    ev = np.linalg.eigvalsh(M)
    lo, hi = float(ev[0]), float(ev[-1])
    scale = max(1.0, abs(lo), abs(hi))
    if psd_mask(ev, tol):
        verdict = "PD" if lo > tol * scale else "PSD"
    else:
        verdict = "ND" if hi < -tol * scale else "Indefinite"
    return PsdReport(lo, hi, verdict, tol)


def sqrt_psd(M, tol=TOL_PSD):
    """PSD square root; eigenvalues within tol of zero are clamped to 0."""
    M = np.asarray(M, dtype=complex)
    rep = is_psd(M, tol)
    if not rep.is_psd:
        raise DomainError("matrix is indefinite (lambda_min=%g)" % rep.lambda_min)
    lam, U = np.linalg.eigh(herm(M))
    lam = np.clip(lam, 0.0, None)
    return herm(U @ np.diag(np.sqrt(lam)) @ U.conj().T)


# ---------------------------------------------------------------------------
# largest smallest eigenvalue of an affine Hermitian family

GAP_REL = 1e-13
_SHRINK = 1e-2
_STAGE_STEPS = 100
_LOOSE = 1e-2


@dataclass(frozen=True)
class MaxMinEig:
    """max t subject to F0 + sum_i theta_i F_i - t I > 0, with its dual.

    Z is PSD with tr Z = 1 and <F_i, Z> = 0, so every theta has
    lambda_min(F0 + sum_i theta_i F_i) <= <F0, Z>: when <F0, Z> < 0 no
    theta makes the family PSD.  gap = <F0, Z> - t = n mu, the duality gap
    of the last barrier centre; steps counts the Newton steps.
    """

    t: float
    theta: np.ndarray
    Z: np.ndarray
    gap: float
    steps: int


def max_min_eig(F0, Fs):
    """Largest lambda_min(F0 + sum_i theta_i Fs[i]) over real theta.

    Path-following log-barrier method on the variables (theta, t):
    Newton steps maximize t + mu log det F with F = F0 + sum theta_i F_i
    - t I (gradient c + mu tr(F^-1 A_k), Hessian mu tr(F^-1 A_k F^-1 A_l)
    for the directions A = (F_1, ..., F_m, -I)), damped by 1/(1 + lambda)
    while the Newton decrement lambda^2 > 1/4.  The path starts at
    mu = 1e-2 from theta = 0 and t = lambda_min(F0) - n mu, where every
    eigenvalue of F is at least n mu.  mu shrinks by 1e-2 per stage until
    the gap n mu is at most GAP_REL; the last centre is tight, and there
    Z = mu F^-1 is the dual certificate.  It solves for
    F0 / max(1, max|F0|), so that the Hessian cannot underflow at large
    F0, and scales t, theta and the gap back (Z does not change).

    Each stage works in the eigenbasis of F at its start and inverts F
    through its Jacobi scaling: F's entries there are as small as its
    small eigenvalues, so the last centres resolve eigenvalues near n mu
    instead of rounding at eps max|F|, and Z meets tr Z = 1 and
    <F_i, Z> = 0 to about 1e-14.  A Newton step reads the gradient off
    one matrix-vector product and the Hessian off one matrix product of
    the stacked products F^-1 A_k.

    The maximum must be finite, i.e. some Z > 0 has tr Z = 1 and
    <F_i, Z> = 0 (traceless F_i, for example); SingularError when a stage
    fails to centre.
    """
    F0 = np.asarray(F0, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(F0))))
    F0 = F0 / scale
    n = F0.shape[0]
    A = np.concatenate([np.asarray(Fs, dtype=complex).reshape(-1, n, n),
                        -np.eye(n)[None]])
    m = A.shape[0]
    c = np.zeros(m)
    c[-1] = 1.0
    eye = np.eye(n).ravel()
    mu, steps = _SHRINK, 0
    x = c * (float(np.linalg.eigvalsh(F0)[0]) - n * mu)
    while True:
        last = n * mu <= GAP_REL
        d, U = np.linalg.eigh(F0 + (x @ A.reshape(m, -1)).reshape(n, n))
        Af = U.conj().T @ A @ U
        Af2 = Af.reshape(m, -1)
        D = np.diag(d)
        y = np.zeros_like(x)
        dec, stage = np.inf, 0
        while True:
            F = (y @ Af2).reshape(n, n) + D
            s = 1 / np.sqrt(np.diagonal(F).real)
            ss = s[:, None] * s
            Fi = np.linalg.inv(F * ss) * ss
            if dec <= (1e-20 if last else _LOOSE):
                break
            if stage == _STAGE_STEPS:
                raise SingularError("the barrier solve did not centre")
            B = Fi @ Af
            # tr B_k, and tr(B_k B_l) as the rows of B against those of B^T
            g = c + mu * (B.reshape(m, -1) @ eye).real
            H = mu * (B.reshape(m, -1)
                      @ B.swapaxes(1, 2).reshape(m, -1).T).real
            dy = np.linalg.solve(H, g)
            dec = float(g @ dy) / mu
            y = y + (dy / (1 + np.sqrt(dec)) if dec > 0.25 else dy)
            stage += 1
        steps += stage
        x = x + y
        if last:
            Z = herm(mu * (U @ Fi @ U.conj().T))
            return MaxMinEig(scale * float(x[-1]), scale * x[:-1], Z,
                             scale * n * mu, steps)
        mu *= _SHRINK


# ---------------------------------------------------------------------------
# Khatri-Rao product of conformally partitioned block 2x2 matrices

@dataclass(frozen=True)
class BlockMatrix2:
    """2x2 block matrix with explicit row/column partition sizes."""

    blocks: tuple  # ((B11, B12), (B21, B22)) as ndarrays
    row_parts: tuple
    col_parts: tuple

    @classmethod
    def from_blocks(cls, b11, b12, b21, b22):
        b = [[np.atleast_2d(np.asarray(x, dtype=complex)) for x in row]
             for row in ((b11, b12), (b21, b22))]
        rp = (b[0][0].shape[0], b[1][0].shape[0])
        cp = (b[0][0].shape[1], b[0][1].shape[1])
        for i in range(2):
            for j in range(2):
                if b[i][j].shape != (rp[i], cp[j]):
                    raise ShapeError("inconsistent block partition at (%d,%d)" % (i, j))
        return cls(tuple(tuple(row) for row in b), rp, cp)

    @classmethod
    def from_matrix(cls, M, p):
        """Split a matrix at row and column p."""
        M = np.asarray(M, dtype=complex)
        return cls.from_blocks(M[:p, :p], M[:p, p:], M[p:, :p], M[p:, p:])

    def full(self):
        return np.block([[self.blocks[0][0], self.blocks[0][1]],
                         [self.blocks[1][0], self.blocks[1][1]]])


def khatri_rao(A, B):
    """Blockwise Kronecker product (A_ij (x) B_ij) of 2x2 block matrices."""
    rows = []
    for i in range(2):
        rows.append(tuple(np.kron(A.blocks[i][j], B.blocks[i][j])
                          for j in range(2)))
    return BlockMatrix2(
        tuple(rows),
        tuple(a * b for a, b in zip(A.row_parts, B.row_parts)),
        tuple(a * b for a, b in zip(A.col_parts, B.col_parts)),
    )


def _inclusions(parts):
    n = sum(parts)
    V1 = np.zeros((n, parts[0]), dtype=complex)
    V1[:parts[0], :] = np.eye(parts[0])
    V2 = np.zeros((n, parts[1]), dtype=complex)
    V2[parts[0]:, :] = np.eye(parts[1])
    return V1, V2


def build_embedding_E(parts_A, parts_B):
    """Isometry E = [V1 (x) W1, V2 (x) W2] for the given column partitions.

    Satisfies E* (A (x) B) E = khatri_rao(A, B) for matrices partitioned
    with these sizes; E* E = I.
    """
    V1, V2 = _inclusions(parts_A)
    W1, W2 = _inclusions(parts_B)
    return np.hstack([np.kron(V1, W1), np.kron(V2, W2)])


# ---------------------------------------------------------------------------
# seeded samplers

def _rescaled_herm(Z, scale):
    """Hermitian parts of Z[..., 0, :, :] + i Z[..., 1, :, :], each rescaled
    to spectral norm scale when its norm is larger."""
    H = herm(Z[..., 0, :, :] + 1j * Z[..., 1, :, :])
    nH = np.linalg.svd(H, compute_uv=False).max(axis=-1)
    big = nH > scale
    f = np.divide(scale, nH, out=np.ones_like(nH), where=big)
    return np.where(big[..., None, None], H * f[..., None, None], H)


def _widths(parts, scale):
    """(scale per part, normals per draw of each part): 2 r c, or none
    for a Hermitian part at scale 0, which is drawn as zero."""
    scales = [scale] * len(parts) if np.isscalar(scale) else list(scale)
    return scales, [0 if herm_ and s == 0 else 2 * r * c
                    for (r, c, herm_), s in zip(parts, scales)]


def skip_blocks(parts, scale, rng, size):
    """Move rng past the normals sample_blocks(parts, scale, rng, size)
    draws, without building the matrices."""
    rng.normal(size=(size, sum(_widths(parts, scale)[1])))


def sample_blocks(parts, scale, rng, size):
    """size draws of a list of matrices, as one stack (size, r, c) per part.

    parts lists (r, c, hermitian); scale is one scale for every part or a
    sequence of one scale per part.  A Hermitian part (r = c) is the
    Hermitian part of a complex Gaussian (real part, then imaginary
    part), rescaled to spectral norm scale when its norm is larger; a
    rectangular one is the complex Gaussian (real + i imag) * scale /
    sqrt 2.  One rng.normal call fills the stacks in the order of size
    loops that draw the parts one after another (_widths), and the
    Hermitian parts of one size and scale share one batched rescale, with
    the norms from one svd(., compute_uv=False), the LAPACK call behind
    norm(., 2).
    """
    scales, widths = _widths(parts, scale)
    Z = rng.normal(size=(size, sum(widths)))
    out, groups, at = [], {}, 0
    for (r, c, herm_), s, w in zip(parts, scales, widths):
        if w == 0:
            out.append(np.zeros((size, r, c), dtype=complex))
            continue
        raw = Z[:, at:at + w].reshape(size, 2, r, c)
        at += w
        if herm_:
            groups.setdefault((r, s), []).append((len(out), raw))
            out.append(None)
        else:
            out.append((raw[:, 0] + 1j * raw[:, 1]) * s / np.sqrt(2))
    for (_, s), group in groups.items():
        H = _rescaled_herm(np.stack([raw for _, raw in group], axis=1), s)
        for j, (k, _) in enumerate(group):
            out[k] = H[:, j]
    return out


def sample_herm(n, scale, rng):
    """Gaussian Hermitian matrix of spectral norm <= scale: sample_blocks
    of one part."""
    return sample_blocks([(n, n, True)], scale, rng, 1)[0][0]


def sample_tuple(n, counts, scale, rng):
    """HermTuple with counts = (h, g) matrices of spectral norm <= scale,
    one sample_blocks draw of h + g parts."""
    M = [B[0] for B in sample_blocks([(n, n, True)] * sum(counts), scale,
                                     rng, 1)]
    return HermTuple.make(M[:counts[0]], M[counts[0]:])


def judged_draws(draw, judge, skip, rng, first, cap, total):
    """The candidates rng draws, one at a time, each as (candidate,
    verdict, payload): a stream drawn and judged in blocks.

    draw(B) draws B candidates from rng, in blocks of first, 2 first,
    4 first, ... (at most cap), and judge(block) returns (verdicts,
    payloads), one of each per candidate.  The stream ends after total
    candidates, its last block trimmed to the draws left, so no draw past
    that budget is judged.  When the consumer stops inside a block (the
    generator's close), rng is rewound to the block's start and moved
    past the candidates yielded by skip(count), so every candidate and
    rng's state are those of a loop that draws one candidate at a time.
    The one reader and setter of rng's state.
    """
    size, left = first, total
    while left > 0:
        B = min(size, cap, left)
        state = rng.bit_generator.state
        block = draw(B)
        verdicts, payloads = judge(block)
        done = 0
        try:
            for done, item in enumerate(zip(block, verdicts, payloads), 1):
                yield item
        finally:
            if done < B:
                rng.bit_generator.state = state
                skip(done)
        size *= 2
        left -= B


# ---------------------------------------------------------------------------
# report JSON: matrices and vectors as row-major [re, im] entries

def jmat(M):
    """The [re, im] entries of a complex array, nested row-major by one
    tolist: a matrix gives rows of pairs, a vector a list of pairs."""
    M = np.asarray(M, dtype=complex)
    return np.stack([M.real, M.imag], -1).tolist()


def junmat(rows):
    """Inverse of jmat (no rows give the 0 x 0 matrix); raises ValueError
    on a malformed or non-finite entry."""
    if isinstance(rows, list) and not rows:
        return np.zeros((0, 0), dtype=complex)
    try:
        M = np.array([[complex(re, im) for re, im in row] for row in rows],
                     dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError("bad matrix entry: %s" % exc)
    if not np.all(np.isfinite(M)):
        raise ValueError("non-finite matrix entry")
    return M


def junvec(entries):
    """Inverse of jmat on a vector, with junmat's checks."""
    return junmat([entries])[0]
