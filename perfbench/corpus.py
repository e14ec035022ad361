"""Seeded input corpora for the three benchmark workloads.

Each workload is a list of `Item`s: one input file for the program, the
command line that feeds it to `ncconvex.cli.main`, and the answer the
input is known to have by construction.  The seed only draws
coefficients (and, for partial-accept, swaps the two a-letters).  Word
supports are fixed per slot, so the realization size e, which sets the
O(e^6) linearize cost, is the same on every seed; the program's own
--seed is the slot number, so its sampling does not vary with the seed
either.  Each corpus holds 25 inputs.  Four passes then time 100 calls,
the fewest that leave 10 beyond p90, and both quantiles fall in the
middle of one input's repeated calls (ranks 50.5 and 90.9 of 100), not
on the gap between two inputs, where they would follow the noise of a
single call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from ncconvex import ncalg, xycvx

# known answers
CONVEX_ON_DOM_PLUS = "convex-on-dom-plus"  # exit 0, or 3 if no draw accepted
NOT_CONVEX_MIDPOINT = "not-convex-midpoint"  # exit 1 with a midpoint witness
CONVEX = "convex"                          # exit 0 with no witness at all
XY_CERTIFIED = "xy-certified"              # exit 0, verdict certified
XY_WITNESS = "xy-witness"                  # exit 1 with a pair witness

# Run length is set through these flags only, never through the
# program's 500-attempt rejection cap.  At default flags x4 alone takes
# 16 s and a thin-region polynomial 5 to 34 s.
FLAGS = {
    "partial-reject": ["--sizes", "2", "--samples", "1", "--workers", "1"],
    "partial-accept": ["--sizes", "1,2", "--samples", "2", "--workers", "1"],
    "xy-corpus": ["--workers", "1"],
}

# A partial-accept input is redrawn when a singular value of its Hankel
# matrix lies strictly between these two fractions of the largest one.
HANKEL_GAP = (1e-12, 1e-4)


@dataclass
class Item:
    name: str
    argv: list
    answer: str
    poly: ncalg.FreePoly  # the input, for the independent re-checks


def _term_lines(terms):
    return "".join("%s * %s\n" % (ncalg.format_complex(c), " ".join(w) or "1")
                   for w, c in terms.items() if c != 0)


def _symmetric(terms):
    """Add the adjoint of every word, so the polynomial is symmetric."""
    out = {}
    for w, c in terms.items():
        out[w] = out.get(w, 0) + c
        rw = tuple(reversed(w))
        if rw != w:
            out[rw] = out.get(rw, 0) + np.conj(c)
    return out


# ---------------------------------------------------------------------------
# partial-reject: shipped inputs plus seeded thin-region polynomials

# x w(a) x with an odd-degree weight w, plus x-affine terms: convex exactly
# where w(A) is PSD, so dom+ is a thin slice of the sampled ball
_THIN = (
    (("x", "a", "x"), ("a", "x", "a")),
    (("x", "a", "a", "a", "x"),),
    (("x", "a", "x"), ("x", "b", "x"), ("b", "x")),
    (("x", "a", "x"), ("x", "a", "a", "a", "x"), ("a", "x")),
    (("x", "a", "b", "a", "x"), ("a",)),
    (("x", "b", "x"), ("x", "a", "a", "a", "x"), ("a", "b")),
)
# x-degree above two: never convexible, every dom+ draw is rejected
_DEEP = (
    (("x", "x", "x"), ("x", "a", "x")),
    (("x", "x", "x"), ("x", "a", "x"), ("a", "x", "a")),
    (("x", "x", "x", "x"), ("x", "b", "x")),
    (("x", "a", "x", "x"), ("x", "a", "a", "a", "x")),
    (("x", "x", "x", "x"), ("x", "a", "x", "x"), ("b",)),
)


def _word_text(words, r):
    # positive weights keep the region nonempty; the rest take any sign
    terms = {}
    for w in words:
        c = r.uniform(0.5, 1.5)
        if w.count("x") != 2:
            c *= r.choice((-1, 1))
        terms[w] = c
    return "vars a: a b | x: x\n" + _term_lines(_symmetric(terms))


def _partial_reject(seed, data_dir):
    r = random.Random(seed)
    shipped = [(name, (data_dir / name).read_text(), answer)
               for name, answer in (("x4_poly.txt", NOT_CONVEX_MIDPOINT),
                                    ("xax_poly.txt", CONVEX_ON_DOM_PLUS))]
    thin = [("thin%d.txt" % i, _word_text(w, r), CONVEX_ON_DOM_PLUS)
            for i, w in enumerate(_THIN * 3)]
    deep = [("deep%d.txt" % i, _word_text(w, r), NOT_CONVEX_MIDPOINT)
            for i, w in enumerate(_DEEP)]
    return shipped + thin + deep


# ---------------------------------------------------------------------------
# partial-accept: sum_k q_k* q_k with q_k affine in x, a-word coefficients

# (K, m, L, word seed): K squares, m x-terms per q_k, a-words of length
# <= L.  The word seed fixes the support and with it e (shown).  Longer
# a-words grow e, and poly_butterfly's a-word series with it, so the few
# L = 2 slots carry the large-e tail.
_SQUARES = (
    (2, 1, 1, 0), (2, 1, 1, 1), (3, 1, 1, 0),  # e = 8, 8, 9
    (2, 2, 1, 0), (3, 2, 1, 0), (3, 2, 1, 3),  # e = 10, 10, 11
    (2, 2, 1, 1), (3, 1, 2, 1), (2, 1, 2, 0),  # e = 12, 12, 12
    (3, 3, 1, 0), (3, 2, 1, 1), (3, 2, 1, 2),  # e = 13, 13, 13
    (4, 3, 1, 0), (4, 2, 1, 1), (3, 1, 2, 0),  # e = 14, 14, 15
    (4, 4, 1, 0), (4, 3, 1, 1), (2, 2, 2, 0),  # e = 16, 16, 16
    (5, 4, 1, 0), (5, 5, 1, 1), (2, 2, 2, 1),  # e = 17, 17, 18
    (6, 5, 1, 0), (3, 2, 2, 1), (3, 2, 2, 3),  # e = 18, 19, 21
    (4, 2, 2, 0),                              # e = 30
)


def _square_words(K, m, L, wseed):
    r = random.Random(wseed)

    def aword():
        return tuple(r.choice("ab") for _ in range(r.randint(0, L)))

    return [[aword()] + [aword() + ("x",) + aword() for _ in range(m)]
            for _ in range(K)]


def _ill_conditioned(terms):
    """True when the Hankel matrix H[u, v] = coeff(u v), over the prefixes
    u and suffixes v of the support, is close to a matrix of lower rank.

    Products from different squares can nearly cancel.  Then the minimal
    realization is numerically ill-defined, and `partial` reduces to the
    wrong size and crashes in signature_decompose (a known defect, kept
    on record in design.json).  This workload times well-posed inputs.
    """
    pre = sorted({w[:k] for w in terms for k in range(len(w) + 1)})
    suf = sorted({w[k:] for w in terms for k in range(len(w) + 1)})
    H = np.array([[terms.get(u + v, 0.0) for v in suf] for u in pre])
    s = np.linalg.svd(H, compute_uv=False) / np.linalg.norm(H, 2)
    low, high = HANKEL_GAP
    return bool(np.any((s > low) & (s < high)))


def _sum_of_squares_text(qs, r):
    swap = {"a": "b", "b": "a", "x": "x"} if r.random() < 0.5 else None
    while True:
        terms = {}
        for q in qs:
            cs = [r.uniform(0.5, 1.5) * r.choice((-1, 1)) for _ in q]
            for c1, w1 in zip(cs, q):
                for c2, w2 in zip(cs, q):
                    w = tuple(reversed(w1)) + w2
                    if swap:
                        w = tuple(swap[ch] for ch in w)
                    terms[w] = terms.get(w, 0) + c1 * c2
        if not _ill_conditioned(terms):
            return "vars a: a b | x: x\n" + _term_lines(terms)


def _partial_accept(seed, data_dir):
    r = random.Random(seed)
    return [("sos%d.txt" % i,
             _sum_of_squares_text(_square_words(*spec), r), CONVEX)
            for i, spec in enumerate(_SQUARES)]


# ---------------------------------------------------------------------------
# xy-corpus: certified pencil + Lambda* Lambda, each with two twins whose
# x x or y y coefficient is made negative

def _xy_text(p, negate=None):
    terms = {}
    for w in p.words():
        c = complex(p.scalar_coeff(w))
        word = "".join(p.ctx.name(i) for i in w)
        terms[tuple(word)] = -abs(c) if word == negate else c
    return "vars a: | x: x y\n" + _term_lines(terms)


def _xy_corpus(seed, data_dir):
    rng = np.random.default_rng(seed)
    out = []
    for N in (1, 2, 3, 4):
        for j in range(2):
            p, _ = xycvx.synthesize_certified(rng, N=N)
            out.append(("cert_N%d_%d.txt" % (N, j), _xy_text(p),
                        XY_CERTIFIED))
            for word in ("xx", "yy"):
                out.append(("twin_%s_N%d_%d.txt" % (word, N, j),
                            _xy_text(p, word), XY_WITNESS))
    # the shipped example A4 polynomial is not xy-convex either
    out.append(("square_xy_poly.txt",
                (data_dir / "square_xy_poly.txt").read_text(), XY_WITNESS))
    return out


_BUILDERS = {"partial-reject": _partial_reject,
             "partial-accept": _partial_accept,
             "xy-corpus": _xy_corpus}
WORKLOADS = tuple(_BUILDERS)


def build(workload, seed, work_dir, data_dir):
    """Write the workload's inputs under work_dir and return its Items."""
    command = "xy" if workload == "xy-corpus" else "partial"
    items = []
    for slot, (name, text, answer) in enumerate(
            _BUILDERS[workload](seed, data_dir)):
        path = work_dir / name
        path.write_text(text)
        argv = [command, str(path), "--seed", str(slot)] + FLAGS[workload]
        items.append(Item(name, argv, answer, ncalg.parse_poly(text)))
    return items
