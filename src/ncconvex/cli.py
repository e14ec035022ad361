"""Command line front end.

Subcommands
-----------
eval       evaluate a polynomial file at a matrix tuple file
partial    convexity in the designated letters for a polynomial or
           realization: domain scans, butterfly data, witnesses.  The
           input is resolved once into the analysed function, the
           butterfly of a polynomial of x-degree at most two or else a
           realization, and every scan asks the region it makes
xy         convexity in x and y separately for a bivariate polynomial:
           support screen, then the Gram certificate, then, only where no
           certificate verifies, a constructed witness and its xy-pair:
           read off the Gram's dual certificate, else built on a level ray
reproduce  rerun a pinned example study and compare with the stored summary

Reports are one compact, key-sorted JSON line with matrices as row-major
[re, im] entries (`python -m json.tool` pretty-prints one).  With a fixed
seed and config a rerun reproduces the report byte for byte apart from the
time_s fields.  partial and xy run in one process, partial with one seed
per size (--workers is accepted only as 1, and the report leaves it out).
Exit codes: 0 success, 1 mathematical negative (verified witness or screen
rejection), 2 input error (including input so large that partial or xy
overflows float64), 3 numerically inconclusive (including a numerical
breakdown such as a failed factorization or a polynomial butterfly whose
identity check fails; the reason goes to stderr), 4 internal error (any
other uncaught exception; its type and message go to stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, butterfly, examples, matkit, ncalg, partialcvx, \
    realize, xycvx
from .matkit import jmat, junmat
from .ncalg import ContextError, HermTuple, ShapeError, SymmetryError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4

# the float64 computation broke down: no verdict either way
NUMERICAL_BREAKDOWNS = (np.linalg.LinAlgError, matkit.SingularError,
                        butterfly.RealizationError)

# bound on the size n a tuple file without matrices may ask eval for
MAX_TUPLE_N = 1024


class InputError(Exception):
    """Bad file, flag, or precondition; maps to exit code 2."""


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class AnalysisConfig:
    seed: int = 0
    sizes: tuple = (1, 2, 3)
    samples: int = 30
    tol_psd: float = 1e-8
    tol_inv: float = 1e-10
    region: str = "default"
    scale: float = 0.6
    out: str = None

    def __post_init__(self):
        if not self.sizes or any(int(s) < 1 for s in self.sizes):
            raise InputError("sizes must be positive")
        if int(self.samples) < 1:
            raise InputError("samples must be at least 1")
        for name in ("tol_psd", "tol_inv", "scale"):
            value = float(getattr(self, name))
            if not (np.isfinite(value) and value > 0):
                raise InputError("%s must be positive and finite" % name)
        if int(self.seed) < 0:
            raise InputError("seed must be nonnegative")

    def echo(self, command):
        """The fields command reads, as its report states them."""
        out = {"seed": int(self.seed), "samples": int(self.samples),
               "tol_psd": float(self.tol_psd)}
        if command == "partial":
            out.update(sizes=[int(s) for s in self.sizes],
                       scale=float(self.scale), tol_inv=float(self.tol_inv),
                       region=self.region)
        return out


def config_from_args(args):
    if args.workers != 1:
        raise InputError("--workers %d: partial and xy run in one process, "
                         "so only --workers 1 is accepted" % args.workers)
    # --sizes, --scale, --tol-inv and --region are flags of partial alone
    partial_only = {name: getattr(args, name)
                    for name in ("sizes", "scale", "tol_inv", "region")
                    if hasattr(args, name)}
    sizes = partial_only.get("sizes")
    if isinstance(sizes, str):
        try:
            partial_only["sizes"] = tuple(int(s) for s in sizes.split(","))
        except ValueError:
            raise InputError("bad --sizes %r; expected e.g. 1,2,3" % sizes)
    return AnalysisConfig(seed=args.seed, samples=args.samples,
                          tol_psd=args.tol_psd, out=args.out, **partial_only)


# ---------------------------------------------------------------------------
# matrix JSON and file loading

def _read(path):
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(str(exc))


def load_poly(path):
    try:
        return ncalg.parse_poly(_read(path))
    except ValueError as exc:
        raise InputError("%s: %s" % (path, exc))


def load_input(path):
    """Polynomial text or realization JSON, sniffed by leading brace."""
    text = _read(path)
    if text.lstrip().startswith("{"):
        try:
            R = realize.realization_from_json(json.loads(text))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError("%s: bad realization JSON: %s" % (path, exc))
        return "realization", R
    try:
        return "poly", ncalg.parse_poly(text)
    except ValueError as exc:
        raise InputError("%s: %s" % (path, exc))


def load_tuple(path, ctx):
    """JSON {n, A: [matrices], X: [matrices]} against a variable context;
    n, a positive integer <= MAX_TUPLE_N, is read only without matrices."""
    try:
        data = json.loads(_read(path))
    except ValueError as exc:
        raise InputError("%s: %s" % (path, exc))
    if not isinstance(data, dict):
        raise InputError("%s: a tuple file holds one JSON object" % path)
    A, X = data.get("A", []), data.get("X", [])
    if not (isinstance(A, list) and isinstance(X, list)):
        raise InputError("%s: A and X must be lists of matrices" % path)
    try:
        A, X = [junmat(M) for M in A], [junmat(M) for M in X]
    except ValueError as exc:
        raise InputError("%s: %s" % (path, exc))
    if len(A) != ctx.h or len(X) != ctx.g:
        raise InputError(
            "tuple has %d a-class and %d x-class matrices; polynomial "
            "expects %d and %d" % (len(A), len(X), ctx.h, ctx.g))
    mats = A + X
    if not mats:
        n = data.get("n", 1)
        if isinstance(n, float) and n.is_integer():
            n = int(n)
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise InputError("%s: n must be a positive integer, not %r"
                             % (path, n))
        if n > MAX_TUPLE_N:
            raise InputError("%s: n = %d is above the bound %d"
                             % (path, n, MAX_TUPLE_N))
    else:
        n = mats[0].shape[0]
        if n < 1:
            raise InputError("%s: tuple matrices must have a positive size"
                             % path)
        for M in mats:
            if M.shape != (n, n):
                raise InputError("tuple matrices must share one square size")
    return HermTuple(n, tuple(A), tuple(X), validate=False)


# ---------------------------------------------------------------------------
# report plumbing

def new_report(command, cfg):
    return {"tool": {"name": "ncconvex", "version": __version__},
            "command": command, "config": cfg.echo(command), "results": {}}


def strip_timings(obj):
    """Copy with every time_s field removed, for byte comparisons."""
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items() if k != "time_s"}
    if isinstance(obj, list):
        return [strip_timings(v) for v in obj]
    return obj


def emit_report(report, out):
    """The report as one compact, key-sorted JSON line, on stdout or in
    the file out."""
    text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    if out:
        Path(out).write_text(text)
        print("report written to %s" % out)
    else:
        sys.stdout.write(text)


def _tuple_json(t):
    return {"n": t.n, "A": [jmat(M) for M in t.A],
            "X": [jmat(M) for M in t.X]}


def _poly_json(p):
    """{word: coefficient}, all coefficients from one stacked jmat: [re, im]
    pairs for a scalar polynomial, rows of them otherwise."""
    words = p.words()
    C = np.reshape([p.coeffs[w] for w in words], (len(words),) + p.shape)
    return dict(zip(map(p.ctx.word_text, words),
                    jmat(C[:, 0, 0] if p.is_scalar else C)))


# ---------------------------------------------------------------------------
# regions

def make_region(name, f, cfg):
    """The region named by --region ("default" is dom-plus) of the
    analysed function f: for a polynomial butterfly, its
    butterfly.PolyRegion, which judges w(A) alone and factors no pencil;
    for a realization, its realize.Region, whose tol_inv, --tol-inv,
    decides every pencil of the scans it drives."""
    kind, radius = ("dom-plus" if name == "default" else name), None
    try:
        if name.startswith("ball:"):
            kind, radius = "ball", float(name.split(":", 1)[1])
        if isinstance(f, butterfly.PolyButterfly):
            return butterfly.PolyRegion(f, kind, cfg.tol_psd, radius)
        return realize.Region(f, kind, cfg.tol_psd, cfg.tol_inv, radius)
    except ValueError as exc:
        raise InputError("bad region %r (%s); expected dom, dom-plus, kebab, "
                         "kebab-plus or ball:RADIUS" % (name, exc))


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args):
    p = load_poly(args.poly)
    t = load_tuple(args.tuple, p.ctx)
    try:
        val = ncalg.eval_poly(p, t)
    except ContextError as exc:
        raise InputError(str(exc))
    herm_res = float(np.linalg.norm(val - val.conj().T, 2))
    for row in val:
        print("  ".join(ncalg.format_complex(z) for z in row))
    print("hermiticity residual: %s" % ncalg.format_complex(herm_res))
    if args.out:
        emit_report({"tool": {"name": "ncconvex", "version": __version__},
                     "command": "eval",
                     "results": {"value": jmat(val),
                                 "herm_residual": herm_res}}, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# partial convexity

def _serialize_hessian_witness(wit):
    probe = wit.probe
    hess = np.asarray(probe.value)
    h = np.linalg.eigh(hess)[1][:, 0]
    h = h * matkit.unit_phase(h)
    return {
        "kind": "hessian-negativity",
        "point": _tuple_json(probe.point),
        "direction": [jmat(H) for H in probe.direction],
        "h": jmat(h),
        "quadratic_value": float(np.real(h.conj() @ hess @ h)),
        "lambda_min": float(probe.lambda_min),
        "margin": float(wit.margin),
    }


def _serialize_doubling_witness(wit):
    return {
        "kind": "doubled-point",
        "point": _tuple_json(wit.point),
        "direction": [jmat(H) for H in wit.direction],
        "h": jmat(wit.h),
        "quadratic_value": float(wit.value),
        "bad_lambda": float(wit.bad_lambda),
        "margin": float(wit.margin),
    }


def _serialize_midpoint_witness(wit):
    # gap_lambda_min is the search's lambda_min: the same gap's eigvalsh
    return {
        "kind": "midpoint",
        "A": [jmat(M) for M in wit.A],
        "X1": [jmat(M) for M in wit.X1],
        "X2": [jmat(M) for M in wit.X2],
        "lambda_min": float(wit.lambda_min),
        "gap_lambda_min": float(wit.lambda_min),
    }


PLUS_REASON = ("the x-Hessian is 2 u* R_T u \u2ab0 0 on the region, and its "
               "x-slices are LMI domains")

EMPTY_PROOF = (
    "the matrix M that psd_mask judges (w(A), or R_T(A, X)) is sum_w M_w "
    "(x) Z^w, so ||M|| <= norm_bound at every draw of norm <= --scale; "
    "with a = u* M_0 u and c = ||M_0 u - a u||, the kernel form (M_w u = 0 "
    "for w nonempty) by interlacing, or the rayleigh form (u the lowest "
    "eigenvector of M_0) by a + sum_w |u* M_w u| scale^|w|, gives "
    "lambda_min(M) <= lambda_bound < -tol_psd max(1, norm_bound): "
    "psd_mask rejects every draw at every size")


def _serialize_empty_proof(proof):
    return {"statement": EMPTY_PROOF, "form": proof.form, "u": jmat(proof.u),
            "a": proof.a, "c": proof.c, "norm_bound": proof.norm_bound,
            "lambda_bound": proof.lambda_bound}


def _hessian_scan_size(region, cfg, size, seed, proof):
    """One size of the Hessian scan over region, drawn from seed.

    On dom-plus and kebab-plus there is no witness to search for: the
    x-Hessian is 2 u* R_T u with u = (V_T (x) I)* L R (c (x) I), PSD
    wherever R_T is, and the x-slices of the region are LMI domains.  The
    size is certified from one region point (partialcvx.first_probe): the
    origin when the region's test accepts it, and the entry then says
    so ("point": "origin"), else the first Hessian probe of
    convexity_verdict.  A Hessian that fails psd_mask there can only come
    from rounding, and the size is then inconclusive.  With proof, the
    region's empty_proof, the size is empty with that proof and draws
    nothing.  The other kinds run the sampled Hessian and midpoint
    scan."""
    rng = np.random.default_rng(seed)
    if region.kind.endswith("plus"):
        if proof is not None:
            return {"size": size, "empty": True,
                    "proof": _serialize_empty_proof(proof)}
        probe = partialcvx.first_probe(region, size, cfg.samples, rng,
                                       cfg.scale)
        if probe is None:
            return {"size": size, "empty": True}
        ev, rt_low, origin = probe
        out = {"size": size, "empty": False, "samples": 1,
               "min_lambda": float(ev[0]), "rt_lambda_min": rt_low}
        if origin:
            out["point"] = "origin"
        if matkit.psd_mask(ev, cfg.tol_psd):
            out["reason"] = PLUS_REASON
        else:
            out["inconclusive"] = (
                "the x-Hessian at the region point has lambda_min %g, not "
                "PSD at tol_psd; 2 u* R_T u is PSD there, so this is "
                "rounding" % ev[0])
        return out
    # draws wider than a ball would all miss it
    scale = min(cfg.scale, region.radius) if region.kind == "ball" \
        else cfg.scale
    try:
        verdict = partialcvx.convexity_verdict(
            region, sizes=(size,), samples=cfg.samples, rng=rng,
            tol=cfg.tol_psd, scale=scale)
    except partialcvx.RegionEmpty:
        return {"size": size, "empty": True}
    out = {"size": size, "empty": False}
    if verdict.is_witness:
        out["witness"] = _serialize_hessian_witness(verdict)
    else:
        out.update(samples=verdict.samples,
                   min_lambda=float(verdict.min_lambda),
                   midpoint_pairs=verdict.midpoint_pairs,
                   midpoint_violations=verdict.midpoint_violations)
    return out


def _localizing_scan(f, cfg, rng):
    """Search dom for a point where the localizing matrix R_T goes
    indefinite, and return at the first doubled-point witness there, which
    shows that convexity stops at the PSD region (sharpness) without
    contradicting the region verdict; after a witness that could not be
    completed the next indefinite point tries.

    The points are the region_probes of f's dom region, judged by its
    rt_lambda_min, and partialcvx.sharpness_witness builds the witness
    from the payload, with no draw: for a butterfly from w(A), checked on
    p, with no pencil or realization (a missed check is recorded as
    check_failure); for a realization from the R_T of the pencil inverse
    and the shift companion on its reach words, tested in the same dom
    (span_failure, outside_dom).  With k = 0 no point can be indefinite,
    and the scan draws nothing."""
    region = make_region("dom", f, cfg)
    if not region.k:
        return {"checked": 0, "reason": "k = 0: R_T has no nonzero "
                "eigenvalue at any point, so none is indefinite"}
    entry = {"checked": 0}
    for n in cfg.sizes:
        for t, _, W in partialcvx.region_probes(
                region, int(n), cfg.samples, rng, cfg.scale):
            entry["checked"] += 1
            if not region.rt_lambda_min(t, W) < -1e-3:
                continue
            try:
                wit = partialcvx.sharpness_witness(region, t, W)
            except partialcvx.WitnessCheckFailure as exc:
                entry["check_failure"] = str(exc)
                continue
            except partialcvx.SpanFailure as exc:
                entry["span_failure"] = str(exc)
                continue
            except realize.NotInDomain as exc:
                entry["outside_dom"] = str(exc)
                continue
            entry["sharpness_witness"] = _serialize_doubling_witness(wit)
            return entry
    return entry


def _check_float_range(p):
    """InputError when the squared norm of p's coefficients overflows
    float64: the realization and the butterfly of partial carry products
    at that scale."""
    with np.errstate(over="ignore"):
        sq = np.sum(np.abs([c[0, 0] for c in p.coeffs.values()]) ** 2)
    if not np.isfinite(sq):
        raise InputError("the input is too large for float64 (the squared "
                         "norm of its coefficients overflows)")


def _ensure_smr(R, notes):
    """realize.minimize(R), with a note when it replaced R."""
    Rm = realize.minimize(R)
    if Rm.e < R.e:
        notes.append("minimized input realization")
    elif Rm is not R:
        notes.append("symmetrized input realization")
    return Rm


PROVED_EMPTY_REASON = ("the region is proved empty at every size, so "
                       "there is no PSD region for convexity to be sharp "
                       "at")
READ_BACK_NOTE = ("read back as a polynomial (its letters J Z are jointly "
                  "nilpotent) and analysed as one")


def _trivial(results, reason, notes, cfg, report):
    results["trivial"] = reason
    if notes:
        results["notes"] = notes
    emit_report(report, cfg.out)
    return EXIT_OK


def cmd_partial(args):
    cfg = config_from_args(args)
    kind, obj = load_input(args.input)
    report = new_report("partial", cfg)
    results = report["results"]
    notes = []
    negative = False

    # the analysed function f: the butterfly of a polynomial of x-degree
    # at most two, else a realization
    if kind == "poly":
        p, f = obj, None
        results["input"] = {"kind": "polynomial",
                            "coefficients": _poly_json(p)}
        if not p.is_symmetric:
            raise SymmetryError("polynomial is not symmetric")
    else:
        f = _ensure_smr(obj, notes)
        results["input"] = {"kind": "realization", "e": f.e,
                            "classes": {"a": f.h, "x": f.g}}
        if f.e == 0:
            return _trivial(results, "the function is zero, so its x-Hessian "
                            "vanishes identically and it is convex in x",
                            notes, cfg, report)
        # a polynomial in realization form takes the polynomial path, on
        # this realization; with k = 0 it does not depend on x at all
        p = realize.polynomial_of(f) if f.k else None
        if p is not None:
            notes.append(READ_BACK_NOTE)
    if p is not None:
        _check_float_range(p)
        if p.degree_in_class("x") == 0:
            return _trivial(results, "no term has an x-letter, so the "
                            "x-Hessian vanishes identically and the "
                            "polynomial is convex in x", notes, cfg, report)
        t0 = time.monotonic()
        try:
            f = butterfly.poly_butterfly(p)
            results["butterfly_poly"] = {
                "k": f.k,
                "ell": _poly_json(f.ell),
                "w": _poly_json(f.w),
                "fbar": _poly_json(f.fbar),
                "time_s": time.monotonic() - t0,
            }
        except butterfly.NotConvexible as exc:
            entry = {"message": str(exc), "time_s": time.monotonic() - t0}
            if exc.witness is not None:
                entry["witness"] = _serialize_midpoint_witness(exc.witness)
                negative = True
            results["not_convexible"] = entry
            if f is None:
                f = realize.linearize_poly(p)

    # Hessian scan over the configured region, one seed per size; on the
    # plus kinds the emptiness proof depends on f, --scale and --tol-psd
    # alone, so it holds at every size or at none
    seeds = np.random.SeedSequence(cfg.seed).spawn(len(cfg.sizes) + 1)
    t0 = time.monotonic()
    region = make_region(cfg.region, f, cfg)
    proof = region.empty_proof(cfg.scale) \
        if region.kind.endswith("plus") else None
    chunks = [_hessian_scan_size(region, cfg, int(s), seeds[i], proof)
              for i, s in enumerate(cfg.sizes)]
    scan = {"region": cfg.region if cfg.region != "default" else "dom-plus",
            "per_size": chunks, "time_s": time.monotonic() - t0}
    results["hessian_scan"] = scan
    negative = negative or any("witness" in c for c in chunks)

    t0 = time.monotonic()
    if proof is not None:
        neg_entry = {"checked": 0, "reason": PROVED_EMPTY_REASON}
    else:
        neg_entry = _localizing_scan(f, cfg, np.random.default_rng(seeds[-1]))
    neg_entry["time_s"] = time.monotonic() - t0
    results["localizing_scan"] = neg_entry

    if "not_convexible" not in results:
        # x-degree above two has no butterfly; at (0, 0) the sandwich is I
        # and w = R_T = J11 (J = J^-1), so the item-4 test there is whether
        # w(0), or J11, passes psd_mask at --tol-psd (w_psd_at_zero)
        t0 = time.monotonic()
        at_zero = f.psd_at_zero(cfg.tol_psd)
        results["butterfly"] = {"k": f.k, "sqrt_domain_at_zero": at_zero,
                                "time_s": time.monotonic() - t0}
        if "butterfly_poly" in results:
            results["butterfly_poly"]["w_psd_at_zero"] = at_zero

    if notes:
        results["notes"] = notes
    reasons = [] if negative else [
        "size %d: %s" % (c["size"], c["inconclusive"])
        for c in chunks if "inconclusive" in c]
    if not negative and all(c["empty"] for c in chunks):
        if proof is None:
            why = "%d probes of %d draws each per size" % (
                cfg.samples, partialcvx.MAX_ATTEMPTS)
        else:
            why = ("proved empty: lambda_min(M) <= %.6g < -tol_psd "
                   "max(1, %.6g) at every draw of norm <= %g, by the %s "
                   "form, u* M_0 u = %.3g and ||M_0 u - (u* M_0 u) u|| = "
                   "%.6g" % (proof.lambda_bound, proof.norm_bound, cfg.scale,
                             proof.form, proof.a, proof.c))
        results["inconclusive"] = (
            "no region point at any size (%s at sizes %s: %s)" % (
                scan["region"], ",".join(str(int(s)) for s in cfg.sizes),
                why))
        reasons.append(results["inconclusive"])
    emit_report(report, cfg.out)
    for reason in reasons:
        print("inconclusive: %s" % reason, file=sys.stderr)
    if negative:
        return EXIT_NEGATIVE
    return EXIT_INCONCLUSIVE if reasons else EXIT_OK


# ---------------------------------------------------------------------------
# xy convexity

# the most pairs the certificate's sampled check draws (--samples)
XY_CHECK_PAIRS = 25


def _xy_certify(pl, cfg, results):
    """Stage 1 of xy: the Gram certificate p = pencil + Lambda* Lambda,
    assembled and verified on pairs drawn from --seed, each step's
    artifacts in results.  Returns (reason, Z): reason is None when it
    verifies, else why not, and Z is the Gram's dual certificate, when it
    has one."""
    t0 = time.monotonic()
    gram = xycvx.gram_complete_certificate(pl, tol=cfg.tol_psd)
    gram_entry = {"status": gram.status,
                  "pinned_lambda_min": float(gram.pinned_lambda_min),
                  "reduced_lambda": float(gram.reduced_lambda),
                  "solver_steps": int(gram.solver_steps),
                  "gap": float(gram.gap),
                  "time_s": time.monotonic() - t0}
    results["gram"] = gram_entry
    if gram.face is not None:
        # G read off the face of the singular pinned blocks, with no solve
        gram_entry["face"] = {"blocks": [list(b) for b in gram.face.blocks],
                              "residual": gram.face.residual}
    if gram.Z is not None:
        # the dual certificate: no completion of the pins is PSD
        gram_entry["dual_value"] = float(gram.dual_value)
        gram_entry["Z"] = jmat(gram.Z)
    if not gram.is_feasible:
        return "no Gram certificate (%s)" % gram.status, gram.Z
    try:
        cert = xycvx.assemble_certificate(pl, gram.F, tol=cfg.tol_psd)
    except xycvx.AssemblyError as exc:
        results["assembly_error"] = str(exc)
        return "the certificate assembly failed: %s" % exc, None
    verify = xycvx.verify_certificate(pl, cert,
                                      samples=min(cfg.samples, XY_CHECK_PAIRS),
                                      rng=np.random.default_rng(cfg.seed))
    results["certificate"] = xycvx.certificate_to_json(cert)
    results["verification"] = {
        "coeff_ok": bool(verify.coeff_ok),
        "max_coeff_residual": float(verify.max_coeff_residual),
        "sampled_pairs": verify.pairs,
        "sampled_ok": bool(verify.sampled_ok),
        "min_defect_eig": float(verify.min_defect_eig),
    }
    reason = None if verify.ok else "the certificate failed its verification"
    return reason, None


def cmd_xy(args):
    """xy: support screen, then the Gram certificate, then a refutation.

    A verified certificate exits 0 with no refutation run.  Otherwise the
    witness is constructed: xycvx.dual_witness reads it off the Gram's
    dual certificate Z, and every case without one (a pinned reject, a
    breakdown, an assembly or verification failure) takes
    xycvx.pinned_witness on its level ray.  The witness exits 1 only as a
    completed xy-pair that passes its re-check; anything short of that
    exits 3 with the reason on stderr.
    """
    cfg = config_from_args(args)
    p = load_poly(args.poly)
    report = new_report("xy", cfg)
    results = report["results"]
    try:
        pl = xycvx.support_screen(p)
    except (ContextError, ShapeError, SymmetryError) as exc:
        raise InputError(str(exc))
    if not pl.accepted:
        results["screen"] = {"accepted": False,
                             "rejected_monomial": pl.monomial,
                             "reason": pl.reason}
        emit_report(report, cfg.out)
        return EXIT_NEGATIVE
    results["screen"] = {"accepted": True}

    # stage 1, certify: a verified certificate settles p
    Z = None
    try:
        reason, Z = _xy_certify(pl, cfg, results)
    except (matkit.SingularError, np.linalg.LinAlgError) as exc:
        # a breakdown here must not cost stage 2 its witness
        reason = "numerical breakdown: %s: %s" % (type(exc).__name__, exc)
        results["gram_breakdown"] = reason
    if reason is None:
        results["verdict"] = "certified"
        emit_report(report, cfg.out)
        return EXIT_OK

    # stage 2, refute: the witness read off Z, else the level ray's
    wit = xycvx.dual_witness(pl, Z) if Z is not None \
        else xycvx.pinned_witness(pl, cfg.tol_psd)
    if Z is not None:
        results["dual_witness"] = {"value": float(wit.lambda_min)}
    elif wit is not None:
        results["pinned_witness"] = {"level": float(wit.delta0[0, 0].real),
                                     "lambda_min": float(wit.lambda_min)}
    if wit is None:
        reason += ", and the level ray found no witness"
    else:
        # exit 1 only on a completed pair that passes the re-check
        try:
            pair = xycvx.mxy_witness_pair(pl, wit)
            reason = pair.recheck(cfg.tol_psd)
        except xycvx.PairError as exc:
            reason = "the witness completion failed: %s" % exc
        if reason is None:
            results["pair_witness"] = {
                "X": jmat(pair.pair.X), "Y": jmat(pair.pair.Y),
                "V": jmat(pair.pair.V), "h": jmat(pair.h),
                "defect_value": float(pair.value),
            }
            emit_report(report, cfg.out)
            return EXIT_NEGATIVE
        results["pair_witness_error"] = reason

    results["verdict"] = "inconclusive"
    emit_report(report, cfg.out)
    print("inconclusive: %s" % reason, file=sys.stderr)
    return EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# reproduce

_REPRODUCE = {
    "intro-eval": (examples.intro_eval_summary, "expected_intro_eval.json"),
    "example-A3": (examples.example_a3_summary, "expected_example_a3.json"),
    "example-A4": (examples.example_a4_summary, "expected_example_a4.json"),
}


def _data_path(name):
    return Path(__file__).with_name("data") / name


def cmd_reproduce(args):
    if args.id not in _REPRODUCE:
        raise InputError("unknown example id %r; expected one of %s"
                         % (args.id, ", ".join(sorted(_REPRODUCE))))
    runner, fname = _REPRODUCE[args.id]
    try:
        expected = json.loads(_data_path(fname).read_text())
    except OSError as exc:
        raise InputError("missing stored summary: %s" % exc)
    actual = runner()
    match = json.dumps(actual, sort_keys=True) \
        == json.dumps(expected, sort_keys=True)
    report = {"tool": {"name": "ncconvex", "version": __version__},
              "command": "reproduce", "id": args.id,
              "match": match, "expected": expected, "actual": actual}
    if args.out:
        emit_report(report, args.out)
    if match:
        print("%s: ok" % args.id)
        return EXIT_OK
    import difflib
    exp_text = json.dumps(expected, indent=2, sort_keys=True).splitlines()
    act_text = json.dumps(actual, indent=2, sort_keys=True).splitlines()
    for line in difflib.unified_diff(exp_text, act_text,
                                     fromfile="expected", tofile="actual",
                                     lineterm=""):
        print(line)
    return EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# parser

def _add_config_flags(sub, samples_help):
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--samples", type=int, default=30, help=samples_help)
    sub.add_argument("--tol-psd", dest="tol_psd", type=float, default=1e-8)
    # accepted as 1 only (config_from_args), so that command lines that
    # still pass it keep working
    sub.add_argument("--workers", type=int, default=1,
                     help=argparse.SUPPRESS)
    sub.add_argument("--out", default=None, help="write the JSON report here")


@functools.cache
def build_parser():
    """The command line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="ncconvex",
        description="convexity analysis for nc polynomials and rationals")
    parser.add_argument("--version", action="version",
                        version="ncconvex %s" % __version__)
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("eval", help="evaluate a polynomial at a tuple")
    s.add_argument("poly", help="polynomial text file")
    s.add_argument("tuple", help="JSON tuple file {n, A: [...], X: [...]}")
    s.add_argument("--out", default=None)
    s.set_defaults(fn=cmd_eval)

    s = subs.add_parser("partial",
                        help="convexity in the designated letters")
    s.add_argument("input", help="polynomial text or realization JSON")
    _add_config_flags(s, "samples per size")
    s.add_argument("--sizes", default="1,2,3",
                   help="comma separated matrix sizes")
    s.add_argument("--scale", type=float, default=0.6,
                   help="sampling scale for matrix entries")
    s.add_argument("--tol-inv", dest="tol_inv", type=float, default=1e-10)
    s.add_argument("--region", default="default",
                   help="dom, dom-plus, kebab, kebab-plus, or ball:RADIUS")
    s.set_defaults(fn=cmd_partial)

    s = subs.add_parser("xy", help="convexity in x and y separately")
    s.add_argument("poly", help="bivariate polynomial text file")
    _add_config_flags(s, "pairs on which the certificate is checked "
                      "(at most %d)" % XY_CHECK_PAIRS)
    s.set_defaults(fn=cmd_xy)

    s = subs.add_parser("reproduce", help="rerun a pinned example study")
    s.add_argument("id", help="intro-eval, example-A3, or example-A4")
    s.add_argument("--out", default=None)
    s.set_defaults(fn=cmd_reproduce)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    overflow = np.errstate(over="raise") if args.command in ("partial", "xy") \
        else contextlib.nullcontext()
    try:
        with overflow:
            return args.fn(args)
    except (InputError, ContextError, ShapeError, SymmetryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except FloatingPointError as exc:
        print("error: the input is too large for float64 (%s)" % exc,
              file=sys.stderr)
        return EXIT_INPUT
    except NUMERICAL_BREAKDOWNS as exc:
        print("inconclusive: numerical breakdown: %s: %s"
              % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
