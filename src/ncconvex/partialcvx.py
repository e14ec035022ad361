"""Partial-convexity analysis for descriptor realizations.

The x-partial Hessian of r = c* P(a,x)^{-1} c in direction h is

    r_xx(a, x)[h] = 2 c* R (sum T_i h_i) R (sum T_i h_i) R c,

with R the resolvent; positivity of the compressed resolvent R_T governs
convexity in x.  This module computes the Hessian two ways, samples
convexity verdicts over regions, and when R_T is indefinite at a point it
assembles a dispersed-variable witness: a doubled point, an antidiagonal
direction and a vector h with h* r_xx h < 0.  Neither witness draws.  On
a realization the companion is the shift companion on the reach words of
J c, at the largest scale 2^-j in dom (negativity_witness, which factors
the doubled point's pencil to check itself); on a polynomial with a
butterfly p = fbar + ell* w ell, w(A)'s negative eigenvector and the
shift companion on the a-words of ell (middle_matrix_witness, which
uses no realization and is checked on p).

Region points come from region_probes, one loop over a
matkit.judged_draws stream: the draws come in blocks, each one
matkit.sample_blocks call judged by one region.test, and a probe is the
next draw the region accepts (up to MAX_ATTEMPTS misses in a row).  The
stream rewinds the generator when its consumer stops inside a block, so
every draw and verdict is that of a per-draw loop.  The localizing
scan's probes (no directions) share one stream per size, whose first
block is all its samples; a Hessian or midpoint probe closes its stream
at its point and then draws its directions or midpoint partner.  On the
plus kinds partial checks one point per size (first_probe): the origin
when the region's test accepts it, so an input convex at zero draws no
region point, else the first region probe.  An accepted point comes with
the payload its region's test handed on, and the scans ask the region
for what they evaluate there (its hessian, values and rt_lambda_min).
A realize.Region hands on the pencil's inverse W (one batched LU per
block), from which negativity_witness's R_T and companion columns
evaluate as well.  A butterfly.PolyRegion, the region of every
polynomial with a butterfly, hands on w(A) and its eigenvalues, for
middle_matrix_witness; the localizing scan hands its payload to
sharpness_witness, which picks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import matkit, realize
from .ncalg import HermTuple, eval_poly
from .matkit import TOL_PSD
from .realize import Region, eval_realization, r_T, resolvent

# entries per sampled block of the matrices a region judges, B (dim n)^2
# (pencils, dim = e, or w(A), dim = k): 16 MB of complex numbers
BLOCK_ENTRIES = 1 << 20
# draws per region probe before it gives up
MAX_ATTEMPTS = 500


class RegionEmpty(ValueError):
    """No sampled tuple satisfied the region predicate."""


class SpanFailure(ValueError):
    """A realization's companion fell short: its reach words span fewer
    than e states, its columns do not reach ran T (x) C^m, or the witness
    missed its check."""

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


def _block_cap(region, n):
    """The most draws of one sampled block at size n: BLOCK_ENTRIES over
    the (dim n)^2 entries of each draw's matrix.  It changes only how the
    draws are blocked, not which they are."""
    return max(1, BLOCK_ENTRIES // max(1, region.dim * n) ** 2)


def _point(mats, h):
    """The HermTuple of one draw (h + g, n, n), built unvalidated (the
    draws are Hermitian), so a draw of no letters gives the empty tuple
    of size n."""
    return HermTuple(mats.shape[-1], tuple(mats[:h]), tuple(mats[h:]),
                     validate=False)


def region_probes(region, n, samples, rng, scale, extra=None):
    """samples region probes at size n.

    A probe is the next draw at scale that lies in the region, followed,
    when extra is a scale, by g Hermitian n x n draws at that scale; a
    probe whose MAX_ATTEMPTS draws in a row all miss the region draws
    nothing more and yields nothing.  Yields (t, extras, payload): the
    point as a HermTuple, its extra draws (g or 0, n, n) and the payload
    the region's test handed on.

    The draws are a matkit.judged_draws stream, each block one
    matkit.sample_blocks call judged by one region.test, capped by
    _block_cap.  Without extra draws (the localizing scan, or g = 0) all
    probes share one stream, whose first block is samples; a probe with
    extra draws (the Hessian and midpoint scans, first_probe) closes its
    own stream, first block 1, at its point and then draws them.  A stream
    ends at the most draws its probes may take, samples MAX_ATTEMPTS or
    MAX_ATTEMPTS, so a probe that misses judges exactly its MAX_ATTEMPTS
    draws.  So every draw, point, payload and rng state is that of a loop
    of per-draw sample_tuple calls.
    """
    parts = [(n, n, True)] * (region.h + region.g)
    extras = [(n, n, True)] * (region.g if extra is not None else 0)

    def stream(first, total):
        return matkit.judged_draws(
            lambda B: _herm_stack(n, parts, scale, rng, B), region.test,
            lambda B: matkit.skip_blocks(parts, scale, rng, B), rng, first,
            _block_cap(region, n), total)

    draws = stream(1, MAX_ATTEMPTS) if extras \
        else stream(samples, samples * MAX_ATTEMPTS)
    try:
        for _ in range(samples):
            hit = next((d for d in itertools.islice(draws, MAX_ATTEMPTS)
                        if d[1]), None)
            if extras:
                draws.close()
                draws = stream(1, MAX_ATTEMPTS)
            if hit is not None:
                mats, _, payload = hit
                yield (_point(mats, region.h),
                       _herm_stack(n, extras, extra, rng, 1)[0], payload)
    finally:
        draws.close()


def first_probe(region, n, samples, rng, scale):
    """(eigenvalues, rt_lambda_min, origin) of the plus kinds' one Hessian
    check at size n: the x-Hessian's eigenvalues and the region's
    rt_lambda_min at one region point, in g directions H at scale 1, and
    whether that point is the origin.

    The origin (0_n for every letter) comes first, judged by the region's
    own test: on dom+ and kebab+ it is in exactly when R_T(0, 0) passes
    psd_mask (w(0) for a polynomial butterfly, J11 for a realization),
    and then it is the point and H are the generator's first draws.
    Otherwise the point is the first of samples region probes
    (region_probes), followed by its H, as convexity_verdict draws them.
    None when every probe misses the region; the generator ends after the
    draws of H."""
    g, zero = region.g, np.zeros((n, n), dtype=complex)
    origin = HermTuple(n, (zero,) * region.h, (zero,) * g, validate=False)
    inside, payloads = region.test_points([origin])
    if inside[0]:
        probe = (origin, _herm_stack(n, [(n, n, True)] * g, 1.0, rng, 1)[0],
                 payloads[0])
    else:
        probe = next(region_probes(region, n, samples, rng, scale, 1.0),
                     None)
        if probe is None:
            return None
    t, H, payload = probe
    return (np.linalg.eigvalsh(region.hessian(t, H, payload)),
            float(region.rt_lambda_min(t, payload)), bool(inside[0]))


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
        for t, H, W in region_probes(region, n, samples, rng, scale, 1.0):
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
                                     scale, scale):
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
# the sharpness witness of a realization, at a shift companion

def _dirsum(blocks):
    out = np.zeros((sum(b.shape[0] for b in blocks),) * 2, dtype=complex)
    at = 0
    for b in blocks:
        s = b.shape[0]
        out[at:at + s, at:at + s] = b
        at += s
    return out


def _doubled(companion, bad, K):
    """The doubled point (companion (+) bad), a-letters first, the
    antidiagonal direction H_i = [[0, K_i*], [K_i, 0]] for each m x M
    block K_i, and h = e_() (+) 0, for the companion's M x M letter
    matrices and bad of size m."""
    M, m = companion[0].shape[0], bad.n
    mats = [_dirsum([c, b]) for c, b in zip(companion, bad.mats)]
    H = tuple(np.block([[np.zeros((M, M)), Ki.conj().T],
                        [Ki, np.zeros((m, m))]]) for Ki in K)
    h = np.zeros(M + m, dtype=complex)
    h[0] = 1.0
    return (HermTuple(M + m, tuple(mats[:len(bad.A)]),
                      tuple(mats[len(bad.A):]), validate=False), H, h)


def _shift_companion(words, letters):
    """The stack (letters, M, M) of A'_l = S_l + S_l^T on a suffix-closed
    set of M words, the empty word first: S_l e_u = e_(l u) where l u is
    a word of the set, so A'_w e_() is e_w plus terms on shorter words."""
    at = {u: i for i, u in enumerate(words)}
    S = np.zeros((letters, len(words), len(words)))
    for u, i in at.items():
        for l in range(letters):
            if (l,) + u in at:
                S[l, at[(l,) + u], i] = 1.0
    return S + S.swapaxes(1, 2)


@dataclass(frozen=True)
class ConvexityWitness:
    """Dispersed witness: doubled point, antidiagonal direction, vector h."""

    point: HermTuple
    direction: tuple
    h: np.ndarray
    value: float
    margin: float
    bad_lambda: float


def negativity_witness(R, bad, region=None, rt=None):
    """Witness h* r_xx h = 2 lambda_min(R_T(bad)) < 0 at a point bad where
    R_T is indefinite, at a companion built, not drawn.

    bad must satisfy lambda_min(R_T(bad)) < -1e-6; rt is R_T at bad, if
    at hand (r_T from its pencil inverse), and xi its unit negative
    eigenvector (matkit.unit_phase), read as a k x m matrix Xi.  R has
    J^2 = I, so at a point Y (its matrices Y_l, a-letters first) the
    pencil inverse is (I - N)^-1 (J (x) I) with N = sum N_l (x) Y_l,
    N_l = J Z_l (Z_l: S, then T), and W (c (x) e_()) is
    sum_w N_w J c (x) Y_w e_().  The reach words of J c
    (realize._reach_words) are e words whose states N_w J c span C^e,
    and on them the shift companion A' (_shift_companion) has
    A'_w e_() = e_w plus terms on shorter words, so at a small scale the
    e x e matrix U of W (c (x) e_()) has full rank.  Y = 2^-j A' at the
    largest scale (j < 53) whose point passes region's test, U comes
    from the inverse W that test handed on, and one lstsq solves
    sum_i T_i U K_i^T = V_T Xi.  At the doubled point (Y (+) bad), in the
    direction H_i = [[0, K_i*], [K_i, 0]] and with h = e_() (+) 0,
    (sum T_i (x) H_i) W (c (x) I) h = 0 (+) (V_T (x) I) xi, so
    h* r_xx h = 2 xi* R_T(bad) xi.  That value is the witness's own
    check, a Hessian at the doubled point, the one pencil this factors.
    SpanFailure when the reach words are fewer than e, the solve's
    residual exceeds 1e-6 or the check is not negative; NotInDomain when
    no scale passes or the doubled pencil is singular at region's
    tol_inv.  region is the dom Region (default dom r), whose tol_inv also
    decides the pencil at bad without rt.
    """
    region = Region(R) if region is None else region
    m, e, k = bad.n, R.e, R.frame.k
    lam, vecs = np.linalg.eigh(r_T(R, bad, region.tol_inv)
                               if rt is None else rt)
    if not len(lam) or lam[0] >= -1e-6:
        raise ValueError("R_T is not indefinite at this point "
                         "(lambda_min=%g)" % (lam[0] if len(lam) else 0.0))
    xi = vecs[:, 0] * matkit.unit_phase(vecs[:, 0])
    words = realize._reach_words(R.letters[0], R.J @ R.c)[0]
    if len(words) < e:
        raise SpanFailure(len(words), e)
    A1 = _shift_companion(words, R.h + R.g)
    for j in range(53):
        Y = 2.0 ** -j * A1
        inside, W = region.test(Y[None])
        if inside[0]:
            break
    else:
        raise realize.NotInDomain(
            "the companion's pencil is numerically singular at tol_inv=%g "
            "at every scale 2^-j, j < 53" % region.tol_inv)
    U = (W[0][:, ::e] @ R.c).reshape(e, e)
    G = np.hstack([T @ U for T in R.T])
    target = R.frame.V_T @ xi.reshape(k, m)
    Kt, _, rank, _ = np.linalg.lstsq(G, target, rcond=None)
    if np.linalg.norm(G @ Kt - target) > 1e-6:
        raise SpanFailure(rank, k)

    point, H, h = _doubled(Y, bad, [Ki.T for Ki in np.split(Kt, R.g)])
    val = partial_hessian(R, point, H, region.tol_inv)
    quad = float(np.real(val[0, 0]))
    if quad >= 0:
        raise SpanFailure(rank, k)
    return ConvexityWitness(point, H, h, quad, -quad, float(lam[0]))


# ---------------------------------------------------------------------------
# the sharpness witness of a polynomial butterfly, from w alone

class WitnessCheckFailure(ValueError):
    """A constructed witness missed its check on p."""


def _companion(border, h):
    """The companion point A' of ell's border words x_j v, and the columns
    v(A') e_() (M x k, in border order).

    Sigma is the suffix-closed set of their a-words v, the empty word
    first (M = |Sigma|), and A' its _shift_companion, so v(A') e_() is
    e_v plus terms on shorter words: the columns of one x-letter's words
    are independent."""
    sigma = sorted({b[i:] for b in border for i in range(1, len(b) + 1)},
                   key=lambda u: (len(u), u))
    A1 = _shift_companion(sigma, h)
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
    point, H, h = _doubled(A1 + (np.zeros((M, M)),) * ctx.g, bad, K)
    quad = _second_difference(pb.p, point, H, h)
    if abs(quad - 2.0 * lam[0]) > 1e-9 * max(1.0, abs(lam[0])):
        raise WitnessCheckFailure(
            "h* p_xx h = %.17g on p, 2 lambda_min(w(A)) = %.17g"
            % (quad, 2.0 * lam[0]))
    return ConvexityWitness(point, H, h, quad, -quad, float(lam[0]))


def sharpness_witness(region, bad, payload):
    """The sharpness witness at a point bad of the dom region where R_T is
    indefinite, from the payload region's test handed on there: on a
    realize.Region negativity_witness, with R_T from the pencil inverse
    and its companion tested in that region; on a butterfly.PolyRegion
    middle_matrix_witness, from w(A).  Neither draws."""
    if isinstance(region, Region):
        return negativity_witness(region.R, bad, region=region,
                                  rt=region.r_T(payload, bad.n))
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
