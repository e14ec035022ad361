"""Partial-convexity analysis for descriptor realizations.

The x-partial Hessian of r = c* P(a,x)^{-1} c in direction h is

    r_xx(a, x)[h] = 2 c* R (sum T_i h_i) R (sum T_i h_i) R c,

with R the resolvent; positivity of the compressed resolvent R_T governs
convexity in x.  This module computes the Hessian two ways, samples
convexity verdicts over regions, and when R_T is indefinite at a point it
assembles a dispersed-variable witness: a doubled point, an antidiagonal
direction and a vector h with h* r_xx h < 0.  On a realization it is
built from a span-saturation probe over direct sums (negativity_witness,
which draws companions and factors pencils); on a polynomial with a
butterfly p = fbar + ell* w ell, from w(A)'s negative eigenvector and a
companion point fixed by ell, and checked on p (middle_matrix_witness,
which draws nothing and uses no realization).

Region points come from a block rejection sampler (_sample_in_region):
a matkit.block_search of up to MAX_ATTEMPTS draws, with one
matkit.sample_blocks call and one region.test call per block, that
leaves the generator where a loop of per-draw sample_tuple calls would,
so every draw and verdict is the per-sample loop's.  The scans draw one
probe at a time (region_probes): a point, then its directions or
midpoint partner; on the plus kinds partial checks one point per size
(first_probe).  An accepted point comes with the payload its region's
test handed on, and the scans ask the region for what they evaluate
there (its hessian, values and rt_lambda_min).  A realize.Region hands
on the pencil's inverse W (one batched LU per block), from which the
span probe and negativity_witness's R_T evaluate as well.  A
butterfly.PolyRegion, the region of every polynomial with a butterfly,
hands on w(A) and its eigenvalues, for middle_matrix_witness; the
localizing scan hands its payload to sharpness_witness, which picks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matkit, realize
from .ncalg import HermTuple, eval_poly
from .matkit import TOL_PSD, sample_herm
from .realize import Region, eval_realization, r_T, resolvent

# entries per sampled block of the matrices a region judges, B (dim n)^2
# (pencils, dim = e, or w(A), dim = k): 16 MB of complex numbers
BLOCK_ENTRIES = 1 << 20
# draws per region probe before it gives up
MAX_ATTEMPTS = 500


class RegionEmpty(ValueError):
    """No sampled tuple satisfied the region predicate."""


class SpanFailure(ValueError):
    """Span saturation did not reach ran T (x) C^m within the round cap."""

    def __init__(self, achieved, target):
        self.achieved = achieved
        self.target = target
        super().__init__("span dimension %d of %d" % (achieved, target))


def partial_hessian(R, t, H, tol_inv=matkit.TOL_INV):
    """Hessian value 2 (c (x) I)* R L R L R (c (x) I) with L = sum T_i (x) H_i;
    raises NotInDomain when the pencil at t is singular at tol_inv."""
    return Region(R).hessian(t, H, resolvent(R, t, tol_inv))


def partial_hessian_forms(R, t, H):
    """Both algebraic forms: triple-resolvent and the R_T sandwich."""
    res = resolvent(R, t)
    L = R.x_sum(H, t.n)
    C = R.c_lift(t.n)
    LRc = L @ (res @ C)
    form1 = 2.0 * (LRc.conj().T @ res @ LRc)
    V = R.frame.lift(t.n)
    RT = V.conj().T @ res @ V
    half = V.conj().T @ LRc
    form2 = 2.0 * (half.conj().T @ RT @ half)
    return form1, form2


def finite_diff_hessian(R, t, H):
    """Central second difference of s -> r(A, X + sH) at s = 0, step 1e-4."""
    eps = 1e-4

    def shifted(s):
        X = tuple(Xi + s * Hi for Xi, Hi in zip(t.X, H))
        return eval_realization(R, HermTuple(t.n, t.A, X, validate=False))
    return (shifted(eps) - 2.0 * shifted(0.0) + shifted(-eps)) / eps ** 2


@dataclass(frozen=True)
class HessianProbe:
    point: HermTuple
    direction: tuple
    value: np.ndarray
    lambda_min: float


@dataclass(frozen=True)
class ConvexEvidence:
    samples: int
    min_lambda: float
    midpoint_pairs: int
    midpoint_violations: int

    @property
    def is_witness(self):
        return False


@dataclass(frozen=True)
class Witness:
    probe: HessianProbe
    margin: float

    @property
    def is_witness(self):
        return True


def _herm_stack(n, parts, scale, rng, size):
    """matkit.sample_blocks of n x n Hermitian parts as one array
    (size, len(parts), n, n)."""
    if not parts:
        return np.zeros((size, 0, n, n), dtype=complex)
    return np.stack(matkit.sample_blocks(parts, scale, rng, size), axis=1)


def _sample_in_region(region, n, scale, rng, max_attempts=MAX_ATTEMPTS):
    """The first of max_attempts sample_tuple draws that lies in the
    region, with the payload its test handed on; None when none does.

    A matkit.block_search, blocks capped by BLOCK_ENTRIES and skipped
    with skip_blocks, so every draw and point is the per-draw loop's.
    The point is built unvalidated (the draws are Hermitian), so a
    realization with no letters gives the empty tuple of size n.  The
    region gives the letter counts h and g and dim, the size of its
    matrices per unit of n; the cap changes only how the draws are
    blocked, not which they are.
    """
    h = region.h
    parts = [(n, n, True)] * (h + region.g)
    cap = max(1, BLOCK_ENTRIES // max(1, region.dim * n) ** 2)
    hit = matkit.block_search(
        lambda B: _herm_stack(n, parts, scale, rng, B), region.test, rng,
        max_attempts, cap=cap,
        skip=lambda B: matkit.skip_blocks(parts, scale, rng, B))
    if hit is None:
        return None
    mats, W, i = hit
    return HermTuple(n, tuple(mats[i, :h]), tuple(mats[i, h:]),
                     validate=False), W[i]


def region_probes(region, n, samples, rng, scale, extra=()):
    """samples region probes at size n, drawn one at a time.

    A probe is the point of a _sample_in_region call (the first of
    MAX_ATTEMPTS draws at scale that lies in the region) followed by one
    Hermitian n x n draw per entry of extra, at that scale.  Yields
    (t, extras, payload): the point as a HermTuple, its draws
    (len(extra), n, n) and the payload the region's test handed on.  A
    probe whose draws all miss the region draws nothing more and yields
    nothing.
    Between two probes the caller may draw from rng itself: the next
    probe draws after it.
    """
    parts = [(n, n, True)] * len(extra)
    for _ in range(samples):
        hit = _sample_in_region(region, n, scale, rng)
        if hit is not None:
            t, W = hit
            yield t, _herm_stack(n, parts, extra, rng, 1)[0], W


def first_probe(region, n, samples, rng, scale):
    """The x-Hessian's eigenvalues and the region's rt_lambda_min at the
    first Hessian probe convexity_verdict draws at size n: the first of
    samples region probes, with its g directions H at scale 1.  None when
    every probe misses the region; the generator ends after the probe's
    draws."""
    probe = next(region_probes(region, n, samples, rng, scale,
                               (1.0,) * region.g), None)
    if probe is None:
        return None
    t, H, payload = probe
    return (np.linalg.eigvalsh(region.hessian(t, H, payload)),
            float(region.rt_lambda_min(t, payload)))


def convexity_verdict(region, sizes=(1, 2, 3), samples=30, rng=None,
                      tol=TOL_PSD, scale=0.5, midpoint_pairs=10):
    """Sample Hessian probes over the region; witness on first negativity.

    region is a realize.Region or a butterfly.PolyRegion.  The midpoint
    inequality r(A, (X+Y)/2) <= (r(A,X) + r(A,Y))/2 is cross-checked on
    paired samples from the same region.

    Both scans draw region_probes: a Hessian probe is a region point and
    its g directions H (at scale 1), a midpoint probe a point (A, X) and
    its Y (at scale).  The region decides which points lie in it, and
    answers from the payload its test handed on: each Hessian is
    region.hessian, judged by matkit.psd_mask at tol.  The points (A, Y)
    and (A, (X + Y)/2) of a midpoint probe are tested with one more
    region.test, and its gap comes from region.values at the three
    points.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    count, min_lambda = 0, np.inf
    for n in sizes:
        for t, H, W in region_probes(region, n, samples, rng, scale,
                                     (1.0,) * region.g):
            val = region.hessian(t, H, W)
            ev = np.linalg.eigvalsh(val)
            low = float(ev[0])
            count += 1
            min_lambda = min(min_lambda, low)
            if not matkit.psd_mask(ev, tol):
                return Witness(HessianProbe(t, tuple(H), val, low), -low)
    if count == 0:
        raise RegionEmpty("no region point found at sizes %r" % (sizes,))

    pairs = viol = 0
    for n in sizes:
        for t, Y, W in region_probes(region, n, midpoint_pairs, rng,
                                     scale, (scale,) * region.g):
            far = HermTuple(n, t.A, tuple(Y), validate=False)
            mid = HermTuple(n, t.A, tuple((X + Yi) / 2
                                          for X, Yi in zip(t.X, Y)),
                            validate=False)
            inside, Wc = region.test_points([far, mid])
            if not inside.all():
                continue
            val = region.values([t, far, mid], [W, Wc[0], Wc[1]])
            gap = (val[0] + val[1]) / 2 - val[2]
            pairs += 1
            viol += int(not matkit.psd_mask(np.linalg.eigvalsh(gap), tol))
    return ConvexEvidence(count, float(min_lambda), pairs, viol)


# ---------------------------------------------------------------------------
# span saturation over direct sums (the dispersed-variable machinery)

@dataclass(frozen=True)
class SpanData:
    """Accumulated direct-sum probe: point (A1, X1), direction H, mixer w.

    cols (em x M) are the columns (I (x) w)(sum T_i (x) H_i) R(A1, X1)
    (c (x) I) in e m coordinates, each probe's block from its own pencil
    inverse; they span achieved_dim directions of ran T (x) C^m
    (coordinates via V_T).
    """

    A1: tuple
    X1: tuple
    H: tuple
    w: np.ndarray
    cols: np.ndarray
    achieved_dim: int
    target_dim: int
    rounds: int

    @property
    def M(self):
        return self.cols.shape[1]

    @property
    def saturated(self):
        return self.achieved_dim >= self.target_dim


def _dirsum(blocks):
    out = np.zeros((sum(b.shape[0] for b in blocks),) * 2, dtype=complex)
    at = 0
    for b in blocks:
        s = b.shape[0]
        out[at:at + s, at:at + s] = b
        at += s
    return out


def span_probe(R, m, rng=None, region=None):
    """Direct-sum probes until the span fills ran T (x) C^m.

    Each probe is a point of region (default dom r) drawn at scale 0.5,
    MAX_ATTEMPTS attempts at most.  Probe sizes start at 1 (the
    scalar-point hypothesis) and cycle through 1, 1, 2, 3; the round cap
    is 20 k m.
    Partial spans are returned, not raised.  A probe's columns are
    (I (x) z)(sum T_i (x) H_i) W (c (x) I) from its pencil inverse W, with
    I (x) z applied blockwise through a reshape.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    region = Region(R) if region is None else region
    k = R.frame.k
    target = k * m
    cap = 20 * k * m
    kept = []  # (point, H, z, columns) of each probe that grew the span
    acc = np.zeros((target, 0), dtype=complex)
    rank = rounds = 0
    Vm = R.frame.lift(m)
    while rank < target and rounds < cap:
        rounds += 1
        n = (1, 1, 2, 3)[(rounds - 1) % 4]
        hit = _sample_in_region(region, n, 0.5, rng)
        if hit is None:
            continue
        t, W = hit
        H = tuple(sample_herm(n, 1.0, rng) for _ in range(R.g))
        z = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        LWc = R.x_sum(H, n) @ (W @ R.c_lift(n))
        cols = (z @ LWc.reshape(R.e, n, n)).reshape(R.e * m, n)
        Q = realize._orth(np.hstack([acc, Vm.conj().T @ cols]),
                          realize.RTOL_RANK)
        if Q.shape[1] > rank:
            acc, rank = Q, Q.shape[1]
            kept.append((t, H, z, cols))
    A1 = tuple(_dirsum([t.A[j] for t, *_ in kept]) for j in range(R.h))
    X1 = tuple(_dirsum([t.X[j] for t, *_ in kept]) for j in range(R.g))
    Hd = tuple(_dirsum([H[j] for _, H, *_ in kept]) for j in range(R.g))
    w = np.hstack([np.zeros((m, 0), dtype=complex)]
                  + [z for _, _, z, _ in kept])
    cols = np.hstack([np.zeros((R.e * m, 0), dtype=complex)]
                     + [c for *_, c in kept])
    return SpanData(A1, X1, Hd, w, cols, rank, target, rounds)


@dataclass(frozen=True)
class ConvexityWitness:
    """Dispersed witness: doubled point, antidiagonal direction, vector h."""

    point: HermTuple
    direction: tuple
    h: np.ndarray
    value: float
    margin: float
    bad_lambda: float


def negativity_witness(R, bad, rng=None, region=None, rt=None):
    """Witness h* r_xx h < 0 from a point where R_T is indefinite.

    bad must satisfy lambda_min(R_T(bad)) < -1e-6; rt is R_T at bad, if
    at hand (r_T from its pencil inverse).  The witness doubles bad
    with a span-saturating companion (A1, X1), takes the direction
    H_i = [[0, K_i*], [K_i, 0]] with K_i = w H_i^{probe}, and h supported
    on the companion block solving span.cols v = V_T-coordinates of the
    negative eigenvector, so the companion's pencil is never factored.
    region is the dom Region the companions are drawn from (default dom
    r); its tol_inv decides the pencils at bad (without rt) and at the
    doubled point, whose Hessian is the witness's own check.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    region = Region(R) if region is None else region
    m = bad.n
    lam, vecs = np.linalg.eigh(r_T(R, bad, region.tol_inv)
                               if rt is None else rt)
    if not len(lam) or lam[0] >= -1e-6:
        raise ValueError("R_T is not indefinite at this point "
                         "(lambda_min=%g)" % (lam[0] if len(lam) else 0.0))
    xi = vecs[:, 0] * matkit.unit_phase(vecs[:, 0])
    span = span_probe(R, m, rng, region)
    if not span.saturated:
        raise SpanFailure(span.achieved_dim, span.target_dim)
    M = span.M
    K = tuple(span.w @ Hi for Hi in span.H)  # m x M each
    targetv = R.frame.lift(m) @ xi  # a unit vector: V_T is an isometry
    v, *_ = np.linalg.lstsq(span.cols, targetv, rcond=None)
    if np.linalg.norm(span.cols @ v - targetv) > 1e-6:
        raise SpanFailure(span.achieved_dim, span.target_dim)

    A = tuple(_dirsum([a1, a2]) for a1, a2 in zip(span.A1, bad.A))
    X = tuple(_dirsum([x1, x2]) for x1, x2 in zip(span.X1, bad.X))
    H = tuple(np.block([[np.zeros((M, M)), Ki.conj().T],
                        [Ki, np.zeros((m, m))]]) for Ki in K)
    point = HermTuple(M + m, A, X, validate=False)
    h = np.concatenate([v, np.zeros(m, dtype=complex)])
    h = h / np.linalg.norm(h)
    val = partial_hessian(R, point, H, region.tol_inv)
    quad = float(np.real(h.conj() @ val @ h))
    if quad >= 0:
        raise SpanFailure(span.achieved_dim, span.target_dim)
    return ConvexityWitness(point, H, h, quad, -quad, float(lam[0]))


# ---------------------------------------------------------------------------
# the sharpness witness of a polynomial butterfly, from w alone

class WitnessCheckFailure(ValueError):
    """A constructed witness missed its check on p."""


def _companion(border, h):
    """The companion point A' of ell's border words x_j v, and the columns
    v(A') e_() (M x k, in border order).

    Sigma is the suffix-closed set of their a-words v, the empty word
    first (M = |Sigma|), and A'_l = S_l + S_l^T with S_l e_u = e_(l u)
    where l u is in Sigma, so v(A') e_() is e_v plus terms on shorter
    words: the columns of one x-letter's words are independent."""
    sigma = sorted({b[i:] for b in border for i in range(1, len(b) + 1)},
                   key=lambda u: (len(u), u))
    at = {u: i for i, u in enumerate(sigma)}
    S = np.zeros((h, len(sigma), len(sigma)))
    for u, i in at.items():
        for l in range(h):
            if (l,) + u in at:
                S[l, at[(l,) + u], i] = 1.0
    A1 = S + S.swapaxes(1, 2)
    cols = np.zeros((len(sigma), len(border)))
    for c, b in enumerate(border):
        y = np.eye(len(sigma))[0]
        for l in reversed(b[1:]):
            y = A1[l] @ y
        cols[:, c] = y
    return tuple(A1), cols


def middle_matrix_witness(pb, bad, w):
    """Witness h* p_xx h = 2 lambda_min(w(A)) < 0 for a polynomial with
    butterfly pb (p = fbar + ell* w ell, x-degree at most two) at a point
    bad = (A, X) of size m, from w = w(A) alone: no pencil, no draw.

    The x-Hessian is 2 ell(A, H)* w(A) ell(A, H).  xi is the unit
    negative eigenvector of w(A) (matkit.unit_phase); the companion A'
    (_companion) makes the columns U_j = [v(A') e_()] over the border
    words x_j v independent, so K_j = Xi_j U_j^+ solves K_j U_j = Xi_j
    (Xi_j: xi's m-blocks of those words).  At the doubled point
    (A' (+) A, 0 (+) X), in the direction H_j = [[0, K_j*], [K_j, 0]] and
    with h = e_() (+) 0, ell(., H) h = 0 (+) xi, so h* p_xx h = 2 xi* w(A)
    xi.  That value is checked on p itself, by the second difference
    p(., H) + p(., -H) - 2 p(., 0), exact at x-degree two: it must equal
    2 lambda_min within 1e-9 max(1, |lambda_min|), else
    WitnessCheckFailure.  ValueError when w(A) is not indefinite.
    """
    lam, vecs = np.linalg.eigh(w)
    if not len(lam) or lam[0] >= -1e-6:
        raise ValueError("w(A) is not indefinite at this point "
                         "(lambda_min=%g)" % (lam[0] if len(lam) else 0.0))
    xi = vecs[:, 0] * matkit.unit_phase(vecs[:, 0])
    m, ctx = bad.n, pb.p.ctx
    # ell's coefficient at a border word is the unit vector of its index
    border = sorted(pb.ell.coeffs,
                    key=lambda b: np.argmax(np.abs(pb.ell.coeffs[b])))
    A1, U = _companion(border, ctx.h)
    M = len(U)
    Xi = xi.reshape(-1, m).T
    K = []
    for j in range(ctx.h, ctx.h + ctx.g):
        mine = [i for i, b in enumerate(border) if b[0] == j]
        # U_j^+ = (U_j^T U_j)^-1 U_j^T: full column rank, integer entries
        Uj = U[:, mine]
        K.append(Xi[:, mine] @ np.linalg.solve(Uj.T @ Uj, Uj.T))
    A = tuple(_dirsum([a1, a2]) for a1, a2 in zip(A1, bad.A))
    X = tuple(_dirsum([np.zeros((M, M)), x2]) for x2 in bad.X)
    H = tuple(np.block([[np.zeros((M, M)), Kj.conj().T],
                        [Kj, np.zeros((m, m))]]) for Kj in K)
    point = HermTuple(M + m, A, X, validate=False)
    h = np.zeros(M + m, dtype=complex)
    h[0] = 1.0
    quad = _second_difference(pb.p, point, H, h)
    if abs(quad - 2.0 * lam[0]) > 1e-9 * max(1.0, abs(lam[0])):
        raise WitnessCheckFailure(
            "h* p_xx h = %.17g on p, 2 lambda_min(w(A)) = %.17g"
            % (quad, 2.0 * lam[0]))
    return ConvexityWitness(point, H, h, quad, -quad, float(lam[0]))


def sharpness_witness(region, bad, payload, rng):
    """The sharpness witness at a point bad of the dom region where R_T is
    indefinite, from the payload region's test handed on there: on a
    realize.Region negativity_witness, with R_T from the pencil inverse
    and companions drawn from rng in that region; on a
    butterfly.PolyRegion middle_matrix_witness, from w(A)."""
    if isinstance(region, Region):
        return negativity_witness(region.R, bad, rng=rng, region=region,
                                  rt=r_T(region.R, bad, factors=payload))
    return middle_matrix_witness(region.pb, bad, payload[0])


def _second_difference(p, t, H, v):
    """v* (p(A, H) + p(A, -H) - 2 p(A, 0)) v at t's A: the x-Hessian's
    quadratic value in the direction H at every X when p has x-degree at
    most two, from one eval_poly of the three points."""
    X = tuple(np.stack([Hj, -Hj, np.zeros_like(Hj)]) for Hj in H)
    A = tuple(np.stack([Al] * 3) for Al in t.A)
    vals = eval_poly(p, HermTuple(t.n, A, X, validate=False))
    return float(np.real(v.conj() @ (vals[0] + vals[1] - 2.0 * vals[2])
                         @ v))
