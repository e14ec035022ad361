"""Free *-algebra of noncommutative polynomials in two classes of letters.

Letters come in an a-class (frozen parameters) and an x-class (the variables
convexity is asked about).  Every letter is formally symmetric, so the adjoint
of a word is the reversed word.  Polynomials carry matrix coefficients (scalar
polynomials use 1x1 coefficients) and evaluate at tuples of Hermitian matrices
by substitution:

    p(A, X) = sum_w  coeff(w) (x) (product of the matrices along w).
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass, field

import numpy as np


class ContextError(ValueError):
    """Polynomials built over different variable contexts were combined."""


class ShapeError(ValueError):
    """Matrix shapes are inconsistent with the operation."""


class SymmetryError(ValueError):
    """A symmetric polynomial was required."""


class HermitianError(ValueError):
    """A Hermitian matrix (tuple) was required."""


COEFF_DROP = 1e-14
TOL_HERM = 1e-10


@dataclass(frozen=True)
class VarContext:
    """Ordered letter names for the two classes; a-class first globally."""

    a_names: tuple
    x_names: tuple

    def __post_init__(self):
        names = self.a_names + self.x_names
        if len(set(names)) != len(names):
            raise ContextError("letter names must be unique: %r" % (names,))

    @property
    def h(self):
        return len(self.a_names)

    @property
    def g(self):
        return len(self.x_names)

    @property
    def nletters(self):
        return self.h + self.g

    def letter_class(self, i):
        return "a" if i < self.h else "x"

    @functools.cached_property
    def names(self):
        """Every letter's name by global index, built once per context."""
        return self.a_names + self.x_names

    def name(self, i):
        return self.names[i]

    def word_text(self, w):
        """The word's letter names joined by spaces; "1" when it is empty."""
        return " ".join(map(self.names.__getitem__, w)) or "1"

    @functools.cached_property
    def _indices(self):
        """{name: global index}, built once per context."""
        return {nm: i for i, nm in enumerate(self.names)}

    def index_of(self, name):
        i = self._indices.get(name)
        if i is None:
            raise ContextError("unknown letter %r" % name)
        return i


def word_adjoint(w):
    """Adjoint of a word of symmetric letters: reversal."""
    return tuple(reversed(w))


def _as_coeff(c):
    """c as a 2-D complex array; one that already is comes back unchanged."""
    if type(c) is np.ndarray and c.dtype == complex and c.ndim == 2:
        return c
    arr = np.atleast_2d(np.asarray(c, dtype=complex))
    if arr.ndim != 2:
        raise ShapeError("coefficients must be scalars or 2d matrices")
    return arr


def _drop_small(coeffs):
    """coeffs without the words whose coefficient has max |entry| <
    COEFF_DROP, decided by one reduction over the stacked coefficients."""
    if not coeffs:
        return {}
    keep = np.abs(list(coeffs.values())).max(axis=(1, 2)) >= COEFF_DROP
    return {w: c for (w, c), kept in zip(coeffs.items(), keep) if kept}


@dataclass(frozen=True)
class FreePoly:
    """nc polynomial: map word -> matrix coefficient over a VarContext.

    Coefficients all share one shape (rows, cols); scalar polynomials are the
    (1, 1) case.  Words are tuples of global letter indices.  Zero
    coefficients are dropped on construction.
    """

    ctx: VarContext
    coeffs: dict = field(default_factory=dict)
    shape: tuple = (1, 1)

    def __post_init__(self):
        # one pass over the words checks shapes and letter ranges
        nl = self.ctx.nletters
        checked = {}
        for w, c in self.coeffs.items():
            arr = _as_coeff(c)
            if arr.shape != self.shape:
                raise ShapeError(
                    "coefficient shape %r != declared %r" % (arr.shape, self.shape))
            if w and (min(w) < 0 or max(w) >= nl):
                raise ContextError("word %r uses letters outside the context" % (w,))
            checked[tuple(w)] = arr
        object.__setattr__(self, "coeffs", _drop_small(checked))

    @classmethod
    def _trusted(cls, ctx, coeffs, shape):
        """A polynomial built from valid ones: coeffs maps word tuples over
        ctx to 2-D complex arrays of shape, so only the drop rule runs."""
        p = object.__new__(cls)
        object.__setattr__(p, "ctx", ctx)
        object.__setattr__(p, "shape", shape)
        object.__setattr__(p, "coeffs", _drop_small(coeffs))
        return p

    @classmethod
    def from_terms(cls, ctx, terms, shape=(1, 1)):
        """Build from {word: coefficient}; accumulates repeated words."""
        acc = {}
        for w, c in terms.items():
            w = tuple(w)
            arr = _as_coeff(c)
            if shape == (1, 1) and arr.shape != (1, 1):
                shape = arr.shape
            acc[w] = acc.get(w, np.zeros(arr.shape, complex)) + arr
        return cls(ctx, acc, shape)

    @classmethod
    def zero(cls, ctx, shape=(1, 1)):
        return cls(ctx, {}, shape)

    @classmethod
    def unit(cls, ctx):
        return cls(ctx, {(): np.eye(1, dtype=complex)})

    @classmethod
    def letter(cls, ctx, name):
        return cls(ctx, {(ctx.index_of(name),): np.eye(1, dtype=complex)})

    @property
    def is_scalar(self):
        return self.shape == (1, 1)

    def scalar_coeff(self, w):
        """Coefficient of a word as a complex number (scalar polynomials)."""
        c = self.coeffs.get(tuple(w))
        return 0j if c is None else complex(c[0, 0])

    def words(self):
        """Stored words in degree-lexicographic order."""
        return sorted(self.coeffs, key=lambda w: (len(w), w))

    def degree(self):
        return max((len(w) for w in self.coeffs), default=0)

    def degree_in_class(self, klass):
        """Max count of letters of the given class over stored words."""
        if klass not in ("a", "x"):
            raise ValueError("class must be 'a' or 'x'")
        return self._class_degrees[klass]

    @functools.cached_property
    def _class_degrees(self):
        """{"a": a-degree, "x": x-degree}, from one pass over the words;
        decided once per polynomial, which is immutable."""
        h = self.ctx.h
        dega = degx = 0
        for w in self.coeffs:
            na = sum(1 for i in w if i < h)
            dega, degx = max(dega, na), max(degx, len(w) - na)
        return {"a": dega, "x": degx}

    def _check_ctx(self, other):
        if self.ctx != other.ctx:
            raise ContextError("mismatched variable contexts")

    def __add__(self, other):
        if np.isscalar(other):
            other = FreePoly(self.ctx, {(): other * np.eye(1)})
        self._check_ctx(other)
        if self.shape != other.shape:
            raise ShapeError("coefficient shapes differ: %r vs %r"
                             % (self.shape, other.shape))
        acc = dict(self.coeffs)
        for w, c in other.coeffs.items():
            acc[w] = acc.get(w, np.zeros(self.shape, complex)) + c
        return FreePoly._trusted(self.ctx, acc, self.shape)

    def __sub__(self, other):
        return self + (other * (-1.0) if isinstance(other, FreePoly) else -other)

    def __mul__(self, other):
        if np.isscalar(other):
            return FreePoly._trusted(
                self.ctx, {w: c * other for w, c in self.coeffs.items()},
                self.shape)
        return poly_mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return poly_mul(self, other)

    def adjoint(self):
        return adjoint(self)

    @functools.cached_property
    def is_symmetric(self):
        """coeff(w*) = coeff(w)^* for every word, up to 10 COEFF_DROP (a
        missing word's coefficient is zero); decided once per polynomial,
        which is immutable, by one comparison of the stacked coefficients
        against those of the adjoint words."""
        if self.shape[0] != self.shape[1]:
            return False
        if not self.coeffs:
            return True
        zero = np.zeros(self.shape, complex)
        C = np.array(list(self.coeffs.values()))
        Cstar = np.array([self.coeffs.get(word_adjoint(w), zero)
                          for w in self.coeffs])
        gap = np.abs(Cstar - C.conj().swapaxes(1, 2)).max(axis=(1, 2))
        return not (gap > COEFF_DROP * 10).any()

    def eval(self, t):
        return eval_poly(self, t)

    def __str__(self):
        return format_poly(self)


def poly_mul(p, q):
    """Product in the free algebra: concatenate words, multiply coefficients."""
    p._check_ctx(q)
    if p.shape[1] != q.shape[0]:
        raise ShapeError("inner coefficient dimensions differ: %r vs %r"
                         % (p.shape, q.shape))
    acc = {}
    shape = (p.shape[0], q.shape[1])
    for wu, cu in p.coeffs.items():
        for wv, cv in q.coeffs.items():
            w = wu + wv
            acc[w] = acc.get(w, np.zeros(shape, complex)) + cu @ cv
    return FreePoly._trusted(p.ctx, acc, shape)


def adjoint(p):
    """Involution: reverse words, conjugate-transpose coefficients."""
    return FreePoly._trusted(
        p.ctx, {word_adjoint(w): c.conj().T for w, c in p.coeffs.items()},
        (p.shape[1], p.shape[0]))


def check_herm(M, what="matrix"):
    """M itself; raises HermitianError when ||M - M*|| > TOL_HERM max(1,
    ||M||).  An exactly Hermitian M skips the two spectral norms."""
    D = M - M.conj().T
    if D.any() and np.linalg.norm(D, 2) > TOL_HERM * max(
            1.0, np.linalg.norm(M, 2)):
        raise HermitianError("%s is not Hermitian" % what)
    return M


@dataclass(frozen=True)
class HermTuple:
    """Evaluation point: lists of n x n matrices for the two classes.

    The constructor checks nothing.  HermTuple.make checks the shapes and,
    unless validate=False, that every entry is Hermitian (relative
    tolerance TOL_HERM); the opt-out exists because plain polynomial
    evaluation is well defined at arbitrary square matrices.  The field
    records the choice, and Realization.zero_x carries it on.
    """

    n: int
    A: tuple
    X: tuple
    validate: bool = True

    @classmethod
    def make(cls, A=(), X=(), validate=True):
        A = tuple(np.asarray(M, dtype=complex) for M in A)
        X = tuple(np.asarray(M, dtype=complex) for M in X)
        mats = A + X
        if not mats:
            raise ShapeError("empty tuple; give at least one matrix or use n")
        n = mats[0].shape[0]
        for M in mats:
            if M.shape != (n, n):
                raise ShapeError("all matrices must share one square size")
        t = cls(n, A, X, validate)
        if validate:
            for M in mats:
                check_herm(M, "tuple entry")
        return t

    @property
    def mats(self):
        """All matrices in global letter order (a-class first)."""
        return self.A + self.X


def eval_poly(p, t):
    """Evaluate p at the tuple: sum_w coeff(w) (x) prod(matrices of w).

    The matrices may carry leading batch axes (..., n, n), all the same,
    giving (..., r n, s n) for r x s coefficients; each point gets its own
    products, so it comes out bit for bit the same alone or in a stack.
    Every word prefix is multiplied out once, left to right, and shared by
    the words that extend it.
    """
    if len(t.A) != p.ctx.h or len(t.X) != p.ctx.g:
        raise ContextError("tuple has %d+%d matrices, context wants %d+%d"
                           % (len(t.A), len(t.X), p.ctx.h, p.ctx.g))
    n = t.n
    mats = [np.asarray(M, dtype=complex) for M in t.mats]
    batch = mats[0].shape[:-2] if mats else ()
    r, s = p.shape
    prods = {(): np.broadcast_to(np.eye(n, dtype=complex), batch + (n, n))}
    out = np.zeros(batch + (r * n, s * n), dtype=complex)
    for w, c in p.coeffs.items():
        for k in range(len(w)):
            if w[:k + 1] not in prods:
                prods[w[:k + 1]] = mats[w[0]] if k == 0 \
                    else prods[w[:k]] @ mats[w[k]]
        if r == s == 1:
            # a scalar coefficient: the broadcast product's own products
            out += c[0, 0] * prods[w]
        else:
            # coeff (x) prod as one broadcast product, c[i, j] prod[k, l]
            term = c[:, None, :, None] * prods[w][..., None, :, None, :]
            out += term.reshape(batch + (r * n, s * n))
    return out


# ---------------------------------------------------------------------------
# text format: `vars a: ... | x: ...` header, then `coeff * letter letter ...`
# per term with `1` for the unit word; complex coefficients as `a+bi`.

def format_complex(z):
    z = complex(z)
    if z.imag == 0:
        return "%.17g" % z.real
    return "%.17g%+.17gi" % (z.real, z.imag)


def parse_complex(s):
    s = s.strip().replace(" ", "")
    if s.endswith("i"):
        s = s[:-1] + "j"
    try:
        z = complex(s)
    except ValueError as exc:
        raise ValueError("bad complex literal %r" % s) from exc
    if not cmath.isfinite(z):
        raise ValueError("non-finite coefficient %r" % s)
    return z


def format_poly(p):
    if not p.is_scalar:
        raise ShapeError("text format covers scalar-coefficient polynomials")
    lines = ["vars a: %s | x: %s"
             % (" ".join(p.ctx.a_names), " ".join(p.ctx.x_names))]
    for w in p.words():
        lines.append("%s * %s" % (format_complex(p.scalar_coeff(w)),
                                  p.ctx.word_text(w)))
    return "\n".join(lines) + "\n"


def parse_poly(text):
    """Inverse of format_poly; raises ValueError with the offending line.

    The terms of a word add up as complex numbers, from 0j, so a signed
    zero comes out as +0; the coefficients are one stacked array."""
    ctx = None
    terms = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vars"):
            try:
                body = line[len("vars"):]
                a_names, x_names = (), ()
                for seg in body.split("|"):
                    klass, _, names = seg.partition(":")
                    names = tuple(names.split())
                    if klass.strip() == "a":
                        a_names = names
                    elif klass.strip() == "x":
                        x_names = names
                    else:
                        raise ValueError("unknown class %r" % klass.strip())
                ctx = VarContext(a_names, x_names)
            except Exception as exc:
                raise ValueError("line %d: bad vars header: %s" % (lineno, exc))
            continue
        if ctx is None:
            raise ValueError("line %d: term before vars header" % lineno)
        coeff_s, sep, word_s = line.partition("*")
        if not sep:
            raise ValueError("line %d: expected `coeff * word`" % lineno)
        try:
            coeff = parse_complex(coeff_s)
        except ValueError as exc:
            raise ValueError("line %d: %s" % (lineno, exc))
        names = word_s.split()
        if names == ["1"]:
            w = ()
        else:
            try:
                w = tuple(ctx.index_of(nm) for nm in names)
            except ContextError as exc:
                raise ValueError("line %d: %s" % (lineno, exc))
        terms[w] = terms.get(w, 0j) + coeff
        if not cmath.isfinite(terms[w]):
            raise ValueError("line %d: coefficients of %r sum to a non-finite "
                             "value" % (lineno, word_s.strip()))
    if ctx is None:
        raise ValueError("no vars header found")
    coeffs = np.array(list(terms.values()), dtype=complex).reshape(-1, 1, 1)
    return FreePoly(ctx, dict(zip(terms, coeffs)))
