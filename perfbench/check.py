"""Re-check each report against its input's known answer.

Nothing here calls the package's own verifiers.  Witnesses are
re-evaluated from the report on the input polynomial with
`ncalg.eval_poly`: midpoint gaps directly, Hessian quadratic values by a
central second difference, xy-pair defects from the pair.  An xy
certificate is re-expanded coefficient by coefficient.
"""

from __future__ import annotations

import json

import numpy as np

from ncconvex import ncalg

import corpus

EPS = 1e-3      # central-difference step; exact for x-degree 2
FD_RTOL = 1e-4  # allows the O(EPS^2) term of x-degree 3 and 4 inputs
RTOL = 1e-7


def _mat(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _vec(rows):
    return np.array([complex(re, im) for re, im in rows])


def _eval(p, A, X):
    n = (list(A) + list(X))[0].shape[0]
    return ncalg.eval_poly(p, ncalg.HermTuple(n, tuple(A), tuple(X),
                                              validate=False))


def _close(a, b, scale, rtol):
    return abs(a - b) <= rtol * max(1.0, abs(b), scale)


def _midpoint(p, w):
    A = [_mat(M) for M in w["A"]]
    X1 = [_mat(M) for M in w["X1"]]
    X2 = [_mat(M) for M in w["X2"]]
    mid = [(a + b) / 2 for a, b in zip(X1, X2)]
    gap = (_eval(p, A, X1) + _eval(p, A, X2)) / 2 - _eval(p, A, mid)
    gap = (gap + gap.conj().T) / 2
    lam = float(np.linalg.eigvalsh(gap)[0])
    if not lam < 0:
        return "midpoint gap is PSD (lambda_min %g)" % lam
    if not _close(lam, w["gap_lambda_min"], np.linalg.norm(gap, 2), RTOL):
        return "midpoint gap %g, report says %g" % (lam, w["gap_lambda_min"])
    return None


def _hessian(p, w):
    A = [_mat(M) for M in w["point"]["A"]]
    X = [_mat(M) for M in w["point"]["X"]]
    H = [_mat(M) for M in w["direction"]]
    h = _vec(w["h"])

    def at(s):
        return _eval(p, A, [x + s * d for x, d in zip(X, H)])

    D = (at(EPS) - 2 * at(0.0) + at(-EPS)) / EPS ** 2
    q = float(np.real(h.conj() @ D @ h))
    if not q < 0:
        return "%s: h* Hessian h = %g is not negative" % (w["kind"], q)
    if not _close(q, w["quadratic_value"], np.linalg.norm(D, 2), FD_RTOL):
        return "%s: h* Hessian h = %g, report says %g" % (
            w["kind"], q, w["quadratic_value"])
    return None


def _pair(p, w):
    X, Y, V, h = _mat(w["X"]), _mat(w["Y"]), _mat(w["V"]), _vec(w["h"])
    Vh = V.conj().T
    X0, Y0 = Vh @ X @ V, Vh @ Y @ V
    scale = max(1.0, np.linalg.norm(X, 2) * np.linalg.norm(Y, 2))
    if np.linalg.norm(Vh @ V - np.eye(V.shape[1]), 2) > 1e-10:
        return "pair witness V is not an isometry"
    if np.linalg.norm(Vh @ Y @ X @ V - Y0 @ X0, 2) > 1e-8 * scale:
        return "pair witness is not an xy-pair"
    D = Vh @ _eval(p, (), (X, Y)) @ V - _eval(p, (), (X0, Y0))
    q = float(np.real(h.conj() @ D @ h))
    if not q < 0:
        return "xy-pair defect h* D h = %g is not negative" % q
    if not _close(q, w["defect_value"], np.linalg.norm(D, 2), RTOL):
        return "xy-pair defect %g, report says %g" % (q, w["defect_value"])
    return None


def _certificate(p, cert):
    """p = pencil + Lambda* Lambda, with Lambda = sum_u L_u u over the
    words u in {x, y, xy, yx}; the u*v coefficient is <L_u, L_v>."""
    L = {u: _vec(v) for u, v in cert["Lambda"].items()}
    coeffs = {("" if w == "1" else w): complex(*c)
              for w, c in cert["pencil"].items()}
    for u, Lu in L.items():
        for v, Lv in L.items():
            w = u[::-1] + v
            coeffs[w] = coeffs.get(w, 0) + complex(np.vdot(Lu, Lv))
    given = {"".join(p.ctx.name(i) for i in w): complex(p.scalar_coeff(w))
             for w in p.words()}
    scale = max([1.0] + [abs(c) for c in given.values()])
    worst = max(abs(coeffs.get(w, 0) - given.get(w, 0))
                for w in set(coeffs) | set(given))
    if worst > 1e-6 * scale:
        return "certificate misses the input by %g" % worst
    return None


def _partial(item, rc, results):
    midpoint = results.get("not_convexible", {}).get("witness")
    hessian = [c["witness"] for c in results["hessian_scan"]["per_size"]
               if "witness" in c]
    sharp = results["localizing_scan"].get("sharpness_witness")
    problems = [_midpoint(item.poly, midpoint)] if midpoint else []
    problems += [_hessian(item.poly, w)
                 for w in hessian + ([sharp] if sharp else [])]
    if item.answer == corpus.CONVEX:
        if rc != 0 or midpoint or hessian or sharp:
            problems.append("convex input: exit %s, witnesses %s" % (
                rc, [k for k, v in (("midpoint", midpoint),
                                    ("hessian", hessian),
                                    ("sharpness", sharp)) if v]))
    elif item.answer == corpus.CONVEX_ON_DOM_PLUS:
        if rc not in (0, 3) or midpoint or hessian:
            problems.append("convex on dom+: exit %s, midpoint witness %s, "
                            "%d Hessian witnesses" % (rc, bool(midpoint),
                                                      len(hessian)))
    elif rc != 1 or not midpoint:
        problems.append("x-degree above two: exit %s, midpoint witness %s"
                        % (rc, bool(midpoint)))
    return problems


def _xy(item, rc, results):
    if item.answer == corpus.XY_CERTIFIED:
        if rc != 0 or results.get("verdict") != "certified":
            return ["certified input: exit %s, verdict %s"
                    % (rc, results.get("verdict"))]
        return [_certificate(item.poly, results["certificate"])]
    if rc != 1 or "pair_witness" not in results:
        return ["witness input: exit %s without a pair witness" % rc]
    return [_pair(item.poly, results["pair_witness"])]


def check(item, rc, stdout, stderr):
    """The list of failed checks for one call; empty when it passed."""
    if isinstance(rc, BaseException):
        return ["crash: %s: %s" % (type(rc).__name__, rc)]
    if rc not in (0, 1, 2, 3):
        return ["exit code %r outside {0, 1, 2, 3}" % (rc,)]
    if "Traceback" in stderr:
        return ["traceback on stderr"]
    if rc == 2:
        return ["input rejected: %s" % stderr.strip()]
    by_command = _xy if item.argv[0] == "xy" else _partial
    try:
        problems = by_command(item, rc, json.loads(stdout)["results"])
    except (ValueError, KeyError, TypeError) as exc:
        return ["unreadable report: %r" % exc]
    return [p for p in problems if p]
