"""Free-algebra layer: words, polynomials, evaluation, text format.

The warm-up evaluation is checked against plain numpy arithmetic computed
inline, so the algebra layer never certifies itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_herm_tuple, rand_poly, rand_symmetric_poly, rand_words
from ncconvex import ncalg
from ncconvex.ncalg import (
    ContextError,
    FreePoly,
    HermitianError,
    HermTuple,
    ShapeError,
    VarContext,
    eval_poly,
    format_poly,
    parse_poly,
    word_adjoint,
)

CTX_XY = VarContext((), ("x1", "x2"))
CTX_AX = VarContext(("a",), ("x",))
CTX_BIG = VarContext(("a1", "a2"), ("x1", "x2"))

seeds = st.integers(0, 2**32 - 1)


# ---------------------------------------------------------------------------
# frozen evaluation oracle: direct numpy arithmetic, no ncalg involved

def test_intro_eval_matches_direct_arithmetic():
    X1 = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    X2 = np.array([[-1.0, -1.0], [-1.0, -1.0]], dtype=complex)
    direct = X1 @ X2 - 17.0 * X2 @ X1 + 4.0 * np.eye(2)

    p = FreePoly.from_terms(CTX_XY, {(0, 1): 1.0, (1, 0): -17.0, (): 4.0})
    val = eval_poly(p, HermTuple(2, (), (X1, X2), validate=False))

    assert np.array_equal(val, direct)
    assert np.array_equal(val.real, np.array([[69.0, 99.0], [61.0, 99.0]]))
    assert np.all(val.imag == 0.0)


def test_word_adjoint_reverses():
    assert word_adjoint((0, 1, 2)) == (2, 1, 0)
    assert word_adjoint(()) == ()


def test_degrees():
    p = FreePoly.from_terms(CTX_AX, {(0, 1, 1, 0): 1.0, (1,): 2.0, (): 1.0})
    assert p.degree() == 4
    assert p.degree_in_class("a") == 2
    assert p.degree_in_class("x") == 2
    q = FreePoly.from_terms(CTX_AX, {(0, 0, 0): 1.0, (1, 0, 1): 1.0})
    assert (q.degree_in_class("a"), q.degree_in_class("x")) == (3, 2)
    with pytest.raises(ValueError, match="class must be"):
        q.degree_in_class("b")


def test_as_coeff_passes_complex_matrices_through():
    M = np.eye(2, dtype=complex)
    assert ncalg._as_coeff(M) is M
    for c in (2, [[1.0, 2.0]], np.eye(2), np.eye(2, dtype=np.complex64)):
        arr = ncalg._as_coeff(c)
        assert arr.dtype == complex and arr.ndim == 2
        assert np.array_equal(arr, np.atleast_2d(c))


@pytest.mark.parametrize("coeffs, shape, error", [
    ({(0,): np.eye(2)}, (1, 1), ShapeError),
    ({(0,): np.zeros((1, 1, 1))}, (1, 1), ShapeError),
    ({(0, 2): 1.0}, (1, 1), ContextError),
    ({(): 1.0, (1, -1): 1.0}, (1, 1), ContextError),
])
def test_free_poly_rejects_bad_coefficients(coeffs, shape, error):
    with pytest.raises(error):
        FreePoly(CTX_AX, coeffs, shape)


def test_free_poly_drops_coefficients_below_coeff_drop():
    drop = ncalg.COEFF_DROP
    big = np.zeros((2, 2), dtype=complex)
    big[1, 0] = 1j * drop
    p = FreePoly(CTX_AX, {(): np.full((2, 2), drop / 2), (0,): big,
                          (1, 0): np.eye(2, dtype=complex) * 0.99 * drop,
                          (1,): np.eye(2)}, (2, 2))
    assert list(p.coeffs) == [(0,), (1,)]
    assert p.coeffs[(0,)] is big
    assert p.coeffs[(1,)].dtype == complex
    assert FreePoly(CTX_AX, {(0,): 3}).coeffs[(0,)].shape == (1, 1)


def test_letter_classes():
    assert CTX_BIG.letter_class(0) == "a"
    assert CTX_BIG.letter_class(2) == "x"
    assert CTX_BIG.index_of("x2") == 3
    with pytest.raises(ContextError):
        CTX_BIG.index_of("nope")


# ---------------------------------------------------------------------------
# algebraic properties of evaluation

@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=st.integers(1, 3))
def test_eval_is_multiplicative(seed, n):
    rng = np.random.default_rng(seed)
    p = rand_poly(CTX_BIG, rng)
    q = rand_poly(CTX_BIG, rng)
    t = rand_herm_tuple(CTX_BIG, n, rng)
    left = eval_poly(p @ q, t)
    right = eval_poly(p, t) @ eval_poly(q, t)
    assert np.allclose(left, right, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=st.integers(1, 3))
def test_eval_is_additive(seed, n):
    rng = np.random.default_rng(seed)
    p = rand_poly(CTX_BIG, rng)
    q = rand_poly(CTX_BIG, rng)
    t = rand_herm_tuple(CTX_BIG, n, rng)
    assert np.allclose(eval_poly(p + q, t), eval_poly(p, t) + eval_poly(q, t),
                       atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=st.integers(1, 3))
def test_adjoint_transposes_eval_on_hermitian_tuples(seed, n):
    rng = np.random.default_rng(seed)
    p = rand_poly(CTX_BIG, rng)
    t = rand_herm_tuple(CTX_BIG, n, rng)
    assert np.allclose(eval_poly(p.adjoint(), t), eval_poly(p, t).conj().T,
                       atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=st.integers(1, 3))
def test_symmetric_poly_evaluates_hermitian(seed, n):
    rng = np.random.default_rng(seed)
    p = rand_symmetric_poly(CTX_BIG, rng)
    assert p.is_symmetric
    val = eval_poly(p, rand_herm_tuple(CTX_BIG, n, rng))
    assert np.allclose(val, val.conj().T, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_eval_respects_direct_sums(seed):
    rng = np.random.default_rng(seed)
    p = rand_poly(CTX_BIG, rng)
    t1 = rand_herm_tuple(CTX_BIG, 2, rng)
    t2 = rand_herm_tuple(CTX_BIG, 3, rng)

    def dsum(M1, M2):
        out = np.zeros((5, 5), dtype=complex)
        out[:2, :2], out[2:, 2:] = M1, M2
        return out

    big = HermTuple(5,
                    tuple(dsum(a, b) for a, b in zip(t1.A, t2.A)),
                    tuple(dsum(a, b) for a, b in zip(t1.X, t2.X)),
                    validate=False)
    assert np.allclose(eval_poly(p, big),
                       dsum(eval_poly(p, t1), eval_poly(p, t2)), atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=seeds, n=st.integers(1, 3))
def test_eval_unitary_equivariance(seed, n):
    rng = np.random.default_rng(seed)
    p = rand_poly(CTX_BIG, rng)
    t = rand_herm_tuple(CTX_BIG, n, rng)
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    U, _ = np.linalg.qr(M)
    conj = HermTuple(n,
                     tuple(U @ a @ U.conj().T for a in t.A),
                     tuple(U @ x @ U.conj().T for x in t.X),
                     validate=False)
    assert np.allclose(eval_poly(p, conj), U @ eval_poly(p, t) @ U.conj().T,
                       atol=1e-10)


def kron_loop_eval(p, t):
    """The per-word evaluation eval_poly replaced: each word multiplied out
    from the identity, and its coefficient applied by np.kron."""
    n = t.n
    out = np.zeros((p.shape[0] * n, p.shape[1] * n), dtype=complex)
    for w, c in p.coeffs.items():
        prod = np.eye(n, dtype=complex)
        for i in w:
            prod = prod @ t.mats[i]
        out += np.kron(c, prod)
    return out


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (3, 3)])
@pytest.mark.parametrize("real", [False, True])
def test_eval_poly_matches_kron_loop(shape, real):
    # words of length up to 4 over three letters share many prefixes;
    # real matrices check that the products still run in complex arithmetic
    rng = np.random.default_rng(7 + shape[1] + 10 * real)
    for _ in range(12):
        terms = {}
        for _ in range(int(rng.integers(1, 14))):
            w = tuple(int(i) for i in rng.integers(0, 3, rng.integers(0, 5)))
            terms[w] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        p = FreePoly.from_terms(CTX_BIG, terms, shape)
        n, B = int(rng.integers(1, 5)), 3
        mats = rng.normal(size=(4, B, n, n))
        if not real:
            mats = mats + 1j * rng.normal(size=(4, B, n, n))
        mats = mats + np.conj(np.swapaxes(mats, -1, -2))
        stacked = eval_poly(p, HermTuple(n, tuple(mats[:2]), tuple(mats[2:]),
                                         validate=False))
        assert stacked.shape == (B, shape[0] * n, shape[1] * n)
        for b in range(B):
            t = HermTuple(n, tuple(mats[:2, b]), tuple(mats[2:, b]),
                          validate=False)
            want = kron_loop_eval(p, t)
            assert np.array_equal(eval_poly(p, t), want)
            assert np.array_equal(stacked[b], want)


def broadcast_eval(p, t):
    """eval_poly's general path for every coefficient shape: each word's
    coefficient (x) its product as one 5-D broadcast term."""
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
        term = c[:, None, :, None] * prods[w][..., None, :, None, :]
        out += term.reshape(batch + (r * n, s * n))
    return out


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(1, 3), B=st.integers(1, 4),
       scale=st.sampled_from((1e-3, 1.0, 1e3)))
def test_scalar_eval_is_the_broadcast_path_bit_for_bit(seed, n, B, scale):
    # eval_poly multiplies a scalar coefficient straight into the product
    rng = np.random.default_rng(seed)
    p = rand_poly(CTX_BIG, rng, max_len=4, terms=9, scale=scale)
    mats = rng.normal(size=(4, B, n, n)) + 1j * rng.normal(size=(4, B, n, n))
    mats = mats + np.conj(np.swapaxes(mats, -1, -2))
    stack = HermTuple(n, tuple(mats[:2]), tuple(mats[2:]), validate=False)
    got = eval_poly(p, stack)
    assert got.tobytes() == broadcast_eval(p, stack).tobytes()
    for b in range(B):
        t = HermTuple(n, tuple(mats[:2, b]), tuple(mats[2:, b]),
                      validate=False)
        alone = eval_poly(p, t)
        assert alone.tobytes() == broadcast_eval(p, t).tobytes()
        assert alone.tobytes() == got[b].tobytes()


def test_eval_rejects_wrong_counts():
    p = rand_poly(CTX_BIG, np.random.default_rng(0))
    t = HermTuple(2, (np.eye(2, dtype=complex),), (np.eye(2, dtype=complex),),
                  validate=False)
    with pytest.raises(ContextError):
        eval_poly(p, t)


# ---------------------------------------------------------------------------
# tuple validation

def test_herm_tuple_validation():
    good = np.array([[1.0, 2.0 - 1j], [2.0 + 1j, 0.0]])
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    HermTuple.make(A=(good,), X=())
    with pytest.raises(HermitianError):
        HermTuple.make(A=(bad,), X=())
    with pytest.raises(ShapeError):
        HermTuple.make(A=(good,), X=(np.eye(3, dtype=complex),))


# ---------------------------------------------------------------------------
# text format round trips

def test_parse_poly_frozen_example():
    text = "vars a: a | x: x\n1 * x a x\n-2.5 * 1\n"
    p = parse_poly(text)
    assert p.ctx == CTX_AX
    assert p.scalar_coeff((1, 0, 1)) == pytest.approx(1.0)
    assert p.scalar_coeff(()) == pytest.approx(-2.5)


def test_parse_poly_reports_line_numbers():
    text = "vars a: a | x: x\n1 * x a x\nnot a term\n"
    with pytest.raises(ValueError, match="line 3"):
        parse_poly(text)


def test_parse_poly_rejects_unknown_letter():
    with pytest.raises(ValueError, match="line 2"):
        parse_poly("vars a: a | x: x\n1 * x b\n")


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_format_parse_round_trip(seed):
    rng = np.random.default_rng(seed)
    p = rand_poly(CTX_BIG, rng, max_len=4, terms=6)
    q = parse_poly(format_poly(p))
    assert q.ctx == p.ctx
    assert set(q.words()) == set(p.words())
    for w in p.words():
        assert q.scalar_coeff(w) == pytest.approx(p.scalar_coeff(w),
                                                  rel=1e-12, abs=1e-15)


def test_format_complex_round_trip_specials():
    for z in (0j, 1 + 0j, -17 + 0j, 0.5j, 1.25 - 3.5j, complex(1e-14, 1.0)):
        assert ncalg.parse_complex(ncalg.format_complex(z)) == pytest.approx(z)


def reference_parse_poly(text):
    """parse_poly term by term: each word's coefficient through numpy's
    isfinite and FreePoly.from_terms, which adds it into np.zeros."""
    ctx, terms = None, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vars"):
            try:
                a_names, x_names = (), ()
                for seg in line[len("vars"):].split("|"):
                    klass, _, names = seg.partition(":")
                    if klass.strip() == "a":
                        a_names = tuple(names.split())
                    elif klass.strip() == "x":
                        x_names = tuple(names.split())
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
        s = coeff_s.strip().replace(" ", "")
        try:
            coeff = complex(s[:-1] + "j" if s.endswith("i") else s)
        except ValueError:
            raise ValueError("line %d: bad complex literal %r"
                             % (lineno, s[:-1] + "j" if s.endswith("i") else s))
        if not np.isfinite(coeff):
            raise ValueError("line %d: non-finite coefficient %r"
                             % (lineno, s[:-1] + "j" if s.endswith("i") else s))
        names = word_s.split()
        try:
            w = () if names == ["1"] else tuple(
                ctx.index_of(nm) for nm in names)
        except ContextError as exc:
            raise ValueError("line %d: %s" % (lineno, exc))
        terms[w] = terms.get(w, 0j) + coeff
        if not np.isfinite(terms[w]):
            raise ValueError("line %d: coefficients of %r sum to a non-finite "
                             "value" % (lineno, word_s.strip()))
    if ctx is None:
        raise ValueError("no vars header found")
    return FreePoly.from_terms(ctx, {w: np.array([[c]])
                                     for w, c in terms.items()})


def parse_outcome(parse, text):
    """The error and its message, or the context and every coefficient's
    bytes (so signed zeros count), word by word in order."""
    try:
        p = parse(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return p.ctx, p.shape, [(w, c.shape, c.dtype, c.tobytes())
                            for w, c in p.coeffs.items()]


LITERALS = ["1", "0", "-0", "1-0i", "-0-0i", "-0+0i", "-2-0i", "2.5",
            "-3+4i", "5e-15", "-9.99e-15", "1e-14", "1e-300i", "1e308"]
TERM_WORDS = ["1", "x", "a x", "x a x", "x x", "a"]
OTHER_LINES = ["", "  ", "# a comment", "2 * x a x # a comment"]
BAD_LINES = ["nan * x", "inf * 1", "1+ * x", "x * x", "1 * z", "1 * x y",
             "1 * ", "1 x a", "vars q: x", "vars a: a | x: a",
             "vars a: | x: x"]
text_lines = st.one_of(
    st.tuples(st.sampled_from(LITERALS), st.sampled_from(TERM_WORDS)).map(
        lambda t: "%s * %s" % t),
    st.sampled_from(OTHER_LINES))


@settings(max_examples=300, deadline=None)
@given(header=st.sampled_from(["vars a: a | x: x", "vars a: a b | x: x y",
                               ""]),
       lines=st.lists(text_lines, max_size=12),
       bad=st.none() | st.tuples(st.integers(0, 12),
                                 st.sampled_from(BAD_LINES)))
def test_parse_poly_matches_from_terms_bit_for_bit(header, lines, bad):
    """One pass over the terms gives from_terms' coefficients bit for bit,
    repeated words and signed zeros included, and every error message."""
    if bad is not None:
        lines.insert(bad[0], bad[1])
    text = "\n".join([header] + lines) + "\n"
    assert parse_outcome(parse_poly, text) \
        == parse_outcome(reference_parse_poly, text)


def test_parse_poly_sums_signed_zeros_to_plus_zero():
    """A -0 part comes out +0, as from_terms' sum into np.zeros gives it."""
    p = parse_poly("vars a: | x: x\n1-0i * 1\n-0-2i * x\n")
    assert not np.signbit(p.coeffs[()].imag).any()
    assert not np.signbit(p.coeffs[(0,)].real).any()


def per_word_is_symmetric(p):
    """is_symmetric word by word: each coefficient against its adjoint
    word's (a missing one counts as zero), up to 10 COEFF_DROP."""
    tol = ncalg.COEFF_DROP * 10
    if p.shape[0] != p.shape[1]:
        return False
    for w, c in p.coeffs.items():
        cstar = p.coeffs.get(word_adjoint(w))
        if cstar is None:
            if np.max(np.abs(c)) > tol:
                return False
        elif np.max(np.abs(cstar - c.conj().T)) > tol:
            return False
    return True


@settings(max_examples=200, deadline=None)
@given(seed=seeds, rows=st.integers(1, 3), cols=st.integers(1, 3),
       skew=st.sampled_from([0.0, 5e-14, 9.9e-14, 1e-13, 1.01e-13, 2e-13,
                             1.0]))
def test_is_symmetric_matches_per_word_reference(seed, rows, cols, skew):
    """The stacked comparison decides as the per-word loop does, on square
    and non-square coefficients, with adjoint pairs and lone words that
    miss symmetry by about 10 COEFF_DROP."""
    rng = np.random.default_rng(seed)
    shape = (rows, cols)

    def noise():
        return skew * (rng.uniform(-1, 1, shape)
                       + 1j * rng.uniform(-1, 1, shape))

    coeffs = {}
    for w in rand_words(CTX_BIG, rng, 3, 5):
        if w in coeffs:
            continue
        c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        if rows == cols and rng.random() < 0.8:
            if w == word_adjoint(w):
                c = c + c.conj().T
            coeffs[word_adjoint(w)] = c.conj().T + noise()
        coeffs[w] = c
    if rng.random() < 0.5:
        coeffs[(0, 1, 2)] = noise()
    p = FreePoly(CTX_BIG, coeffs, shape)
    assert p.is_symmetric == per_word_is_symmetric(p)
    q = p + p.adjoint() if rows == cols else p
    assert q.is_symmetric == per_word_is_symmetric(q)
