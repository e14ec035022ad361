"""Shared generators for the test suite.

Random objects are drawn from seeded numpy generators; hypothesis drives
the seeds so failures shrink to a reproducible integer.
"""

from unittest import mock

import numpy as np
import pytest

from ncconvex import matkit, partialcvx, realize, xycvx
from ncconvex.ncalg import FreePoly, HermTuple, VarContext


def rand_words(ctx, rng, max_len, count):
    words = set()
    for _ in range(count):
        ln = int(rng.integers(0, max_len + 1))
        words.add(tuple(int(rng.integers(0, ctx.nletters)) for _ in range(ln)))
    return sorted(words)


def rand_poly(ctx, rng, max_len=3, terms=5, scale=1.0):
    """Random scalar polynomial with complex coefficients."""
    coeffs = {}
    for w in rand_words(ctx, rng, max_len, terms):
        coeffs[w] = complex(rng.normal(), rng.normal()) * scale
    return FreePoly.from_terms(ctx, coeffs)


def rand_symmetric_poly(ctx, rng, max_len=3, terms=5, scale=1.0):
    """p + p* for a random p; always symmetric."""
    p = rand_poly(ctx, rng, max_len, terms, scale)
    return p + p.adjoint()


def rand_sym_poly(rng, h, g, max_x=2):
    """q + q* for a q of 1-5 random words of x-degree 0 to max_x over h
    a-letters and g x-letters, a-words of length 0-2 around and between
    the x-letters (so x_i ... x_j words with i != j when g = 2)."""
    ctx = VarContext(("a", "b")[:h], ("x", "y")[:g])

    def aword(m):
        return tuple(int(i) for i in rng.integers(0, h, size=m if h else 0))

    terms = {}
    for _ in range(int(rng.integers(1, 6))):
        w = aword(int(rng.integers(0, 3)))
        for _ in range(int(rng.integers(0, max_x + 1))):
            w += (h + int(rng.integers(0, g)),) + aword(
                int(rng.integers(0, 2)))
        terms[w] = terms.get(w, 0) + complex(rng.normal(), rng.normal())
    q = FreePoly.from_terms(ctx, {w: np.array([[c]])
                                  for w, c in terms.items()})
    return q + q.adjoint()


def rand_herm_tuple(ctx, n, rng, scale=0.7):
    A = tuple(matkit.sample_herm(n, scale, rng) for _ in range(ctx.h))
    X = tuple(matkit.sample_herm(n, scale, rng) for _ in range(ctx.g))
    return HermTuple(n, A, X, validate=False)


def rand_smr(rng, e=4, h=1, g=2, scale=0.5):
    """Random symmetric descriptor realization (not necessarily minimal)."""
    signs = rng.choice([-1.0, 1.0], size=e)
    if not np.any(signs > 0):
        signs[0] = 1.0
    J = np.diag(signs).astype(complex)
    S = tuple(matkit.sample_herm(e, scale, rng) for _ in range(h))
    T = tuple(matkit.sample_herm(e, scale, rng) for _ in range(g))
    c = rng.normal(size=e) + 1j * rng.normal(size=e)
    c = c / np.linalg.norm(c)
    return realize.Realization.make(J, S, T, c)


def padded_copy(R):
    """R with an unreachable 2 x 2 block (J = I there, every other
    coefficient zero): the same function at e + 2, not minimal."""
    e2 = R.e + 2

    def pad(M, fill=0.0):
        out = fill * np.eye(e2, dtype=complex)
        out[:R.e, :R.e] = M
        return out

    return realize.Realization.make(
        pad(R.J, 1.0), [pad(M) for M in R.S], [pad(M) for M in R.T],
        np.concatenate([R.c, np.zeros(2)]))


def congruent_copy(R, C):
    """C* J C, C* Z C, C* c: the same function, J^2 != I unless C is
    unitary."""
    Ch = C.conj().T
    return realize.Realization.make(
        Ch @ R.J @ C, [Ch @ Z @ C for Z in R.S], [Ch @ Z @ C for Z in R.T],
        Ch @ R.c)


def rand_minimal_smr(rng, e=4, h=1, g=2, scale=0.5, attempts=10):
    """Random SMR passed through minimize."""
    for _ in range(attempts):
        Rm = realize.minimize(rand_smr(rng, e, h, g, scale))
        if Rm.e > 0:
            return Rm
    raise RuntimeError("could not draw a minimal SMR")


def sample_in_region(region, n, scale, rng, max_attempts=None):
    """The per-draw rejection loop: the first of max_attempts (default
    partialcvx.MAX_ATTEMPTS) matkit.sample_tuple draws that lies in the
    region, each judged alone by region.test_points, with the payload its
    test handed on; None when none does."""
    for _ in range(max_attempts or partialcvx.MAX_ATTEMPTS):
        t = matkit.sample_tuple(n, (region.h, region.g), scale, rng)
        inside, payloads = region.test_points([t])
        if inside[0]:
            return t, payloads[0]
    return None


def probe_loop(region, n, samples, rng, scale, extra=None):
    """partialcvx.region_probes one probe and one draw at a time: each
    probe's point from sample_in_region, then, when extra is a scale, one
    matkit.sample_herm at it per x-letter."""
    count = region.g if extra is not None else 0
    for _ in range(samples):
        hit = sample_in_region(region, n, scale, rng)
        if hit is not None:
            t, payload = hit
            yield t, [matkit.sample_herm(n, extra, rng)
                      for _ in range(count)], payload


def reference_max_min_eig(F0, Fs):
    """matkit.max_min_eig from a cold start: the path from mu = 1 at
    t = lambda_min(F0) - n, every shrink 1e-2, the gradient's traces and
    the Hessian's einsum per step.  Its last centre is matkit's, so both
    give the same t, theta and Z."""
    F0 = np.asarray(F0, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(F0))))
    F0 = F0 / scale
    n = F0.shape[0]
    A = np.concatenate([np.asarray(Fs, dtype=complex).reshape(-1, n, n),
                        -np.eye(n)[None]])
    c = np.zeros(A.shape[0])
    c[-1] = 1.0
    x = c * (float(np.linalg.eigvalsh(F0)[0]) - n)
    mu, steps = 1.0, 0
    while True:
        last = n * mu <= matkit.GAP_REL
        d, U = np.linalg.eigh(F0 + (x @ A.reshape(len(x), -1)).reshape(n, n))
        Af = U.conj().T @ A @ U
        Af2 = Af.reshape(len(x), -1)
        D = np.diag(d)
        y = np.zeros_like(x)
        dec, stage = np.inf, 0
        while True:
            F = (y @ Af2).reshape(n, n) + D
            s = 1 / np.sqrt(np.diagonal(F).real)
            ss = s[:, None] * s
            Fi = np.linalg.inv(F * ss) * ss
            if dec <= (1e-20 if last else 1e-2):
                break
            if stage == 100:
                raise matkit.SingularError("the barrier solve did not centre")
            B = Fi @ Af
            g = c + mu * np.trace(B, axis1=1, axis2=2).real
            H = mu * np.einsum("kij,lji->kl", B, B).real
            dy = np.linalg.solve(H, g)
            dec = float(g @ dy) / mu
            y = y + (dy / (1 + np.sqrt(dec)) if dec > 0.25 else dy)
            stage += 1
        steps += stage
        x = x + y
        if last:
            Z = matkit.herm(mu * (U @ Fi @ U.conj().T))
            return matkit.MaxMinEig(scale * float(x[-1]), scale * x[:-1], Z,
                                    scale * n * mu, steps)
        mu *= 1e-2


def full_gram_certificate(pl, tol=1e-8):
    """xycvx.gram_complete_certificate with its barrier solve taken to the
    tight centre: matkit.max_min_eig without its certify stop."""
    solve = matkit.max_min_eig
    with mock.patch.object(matkit, "max_min_eig",
                           lambda F0, Fs, certify=None: solve(F0, Fs)):
        return xycvx.gram_complete_certificate(pl, tol)


@pytest.fixture
def rng():
    return np.random.default_rng(20230823)


# ---------------------------------------------------------------------------
# acceptance gate reporting: one verdict line per criterion

ACCEPTANCE_REPORTS = {}


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        ACCEPTANCE_REPORTS[report.nodeid] = report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_REPORTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for nodeid in sorted(ACCEPTANCE_REPORTS):
        report = ACCEPTANCE_REPORTS[nodeid]
        name = nodeid.split("::")[-1]
        tag = name[len("test_c"):] if name.startswith("test_c") else name
        num, _, label = tag.partition("_")
        if report.passed:
            verdict = "PASS"
        elif report.skipped and hasattr(report, "wasxfail"):
            verdict = "FAIL (documented limitation, expected)"
        else:
            verdict = "FAIL"
        terminalreporter.write_line(
            "ACCEPTANCE %s %s: %s" % (num, label.replace("_", "-"), verdict))
