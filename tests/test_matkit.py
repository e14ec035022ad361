"""Matrix utilities: PSD tools, the largest smallest eigenvalue solver,
blockwise Kronecker products, and seeded samplers.

The blockwise product is checked against a literal four-block loop written
here, and the embedding identity against full Kronecker products.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_max_min_eig
from ncconvex import matkit
from ncconvex.matkit import (
    BlockMatrix2,
    DomainError,
    build_embedding_E,
    herm,
    is_psd,
    khatri_rao,
    max_min_eig,
    sample_herm,
    sqrt_psd,
)

seeds = st.integers(0, 2**32 - 1)


def rand_psd(n, rng, rank=None):
    rank = n if rank is None else rank
    F = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    return herm(F @ F.conj().T)


# ---------------------------------------------------------------------------
# basic PSD tooling

def test_is_psd_reports():
    rep = is_psd(np.diag([2.0, 1.0]).astype(complex))
    assert rep.is_psd and rep.is_pd
    rep = is_psd(np.diag([1.0, 0.0]).astype(complex))
    assert rep.is_psd and not rep.is_pd
    rep = is_psd(np.diag([1.0, -1.0]).astype(complex))
    assert not rep.is_psd
    assert rep.lambda_min == pytest.approx(-1.0)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=st.integers(1, 6))
def test_sqrt_psd_squares_back(seed, n):
    rng = np.random.default_rng(seed)
    M = rand_psd(n, rng)
    S = sqrt_psd(M)
    assert np.allclose(S, S.conj().T, atol=1e-12)
    assert is_psd(S).is_psd
    assert np.allclose(S @ S, M, atol=1e-9 * max(1.0, np.linalg.norm(M)))


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(DomainError):
        sqrt_psd(np.diag([1.0, -1.0]).astype(complex))


# ---------------------------------------------------------------------------
# largest smallest eigenvalue of an affine family, with its dual

def pair_directions(n, pairs):
    """Re and Im directions of the Hermitian entries (j, k), as a stack."""
    E = []
    for j, k in pairs:
        for v in (1.0, 1j):
            M = np.zeros((n, n), dtype=complex)
            M[j, k], M[k, j] = v, np.conj(v)
            E.append(M)
    return np.array(E).reshape(-1, n, n)


def assert_dual_certificate(F0, Fs, sol):
    """Z PSD, tr Z = 1, <F_i, Z> = 0 and <F0, Z> - t = gap (weak duality)."""
    scale = max(1.0, float(np.max(np.abs(F0))))
    Z = sol.Z
    assert np.array_equal(Z, Z.conj().T)
    assert np.linalg.eigvalsh(Z)[0] >= -1e-12
    assert abs(np.trace(Z).real - 1) <= 1e-10
    for Fi in Fs:
        assert abs(np.vdot(Fi, Z)) <= 1e-10
    assert np.vdot(F0, Z).real - sol.t == pytest.approx(sol.gap,
                                                      abs=1e-12 * scale)
    assert 0 < sol.gap <= matkit.GAP_REL * scale
    G = F0 + np.tensordot(sol.theta, np.reshape(Fs, (-1,) + F0.shape), 1)
    # t is strictly feasible and within the gap of the dual bound
    assert sol.t < np.linalg.eigvalsh(G)[0] <= np.vdot(F0, Z).real + 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=seeds, n=st.integers(1, 4), scale=st.sampled_from((0.1, 1, 30)))
def test_max_min_eig_without_parameters_is_lambda_min(seed, n, scale):
    rng = np.random.default_rng(seed)
    F0 = herm(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * scale
    sol = max_min_eig(F0, np.zeros((0, n, n)))
    lam = np.linalg.eigvalsh(F0)[0]
    assert sol.theta.shape == (0,)
    assert sol.t == pytest.approx(lam, abs=1e-12 * max(1.0, np.abs(F0).max()))
    assert sol.steps > 0
    assert_dual_certificate(F0, [], sol)


@pytest.mark.parametrize("diag", [(1.0, 2.0, 3.0, 4.0), (3.0, -1.5, 0.5, 2.0),
                                  (2.0, 2.0, 5.0, -7.0)])
@pytest.mark.parametrize("pair", [(0, 1), (1, 3), (2, 3)])
def test_max_min_eig_diagonal_with_one_free_pair(diag, pair):
    # a free off-diagonal entry only spreads the spectrum of its 2 x 2
    # block, so the optimum keeps it at zero
    F0 = np.diag(diag).astype(complex)
    E = pair_directions(4, [pair])
    sol = max_min_eig(F0, E)
    assert sol.t == pytest.approx(min(diag), abs=1e-12 * max(map(abs, diag)))
    assert np.abs(sol.theta).max() <= 1e-9
    assert_dual_certificate(F0, E, sol)


@settings(max_examples=20, deadline=None)
@given(seed=seeds, scale=st.sampled_from((0.1, 1, 30)))
def test_max_min_eig_dual_certificate_on_random_families(seed, scale):
    rng = np.random.default_rng(seed)
    F0 = herm(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) * scale
    E = pair_directions(4, [(0, 1), (0, 2), (1, 3)])
    sol = max_min_eig(F0, E)
    assert_dual_certificate(F0, E, sol)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=st.integers(1, 4), m=st.integers(0, 3),
       scale=st.sampled_from((0.1, 1, 30, 1e6)))
def test_max_min_eig_matches_the_cold_start_reference(seed, n, m, scale):
    """The warm-started path ends at the reference's last centre: the
    same t, theta and Z to 1e-10 relative, and the same gap."""
    rng = np.random.default_rng(seed)
    F0 = herm(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * scale
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    E = pair_directions(n, pairs[:m])
    sol, ref = max_min_eig(F0, E), reference_max_min_eig(F0, E)
    s = max(1.0, float(np.abs(F0).max()))
    assert sol.t == pytest.approx(ref.t, rel=1e-10, abs=1e-10 * s)
    np.testing.assert_allclose(sol.theta, ref.theta, rtol=1e-10,
                               atol=1e-10 * s)
    np.testing.assert_allclose(sol.Z, ref.Z, rtol=0, atol=1e-10)
    assert sol.gap == pytest.approx(ref.gap, rel=1e-12)


def test_max_min_eig_is_deterministic():
    rng = np.random.default_rng(7)
    F0 = herm(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    E = pair_directions(4, [(0, 1), (2, 3)])
    a, b = max_min_eig(F0, E), max_min_eig(F0, E)
    assert (a.t, a.gap, a.steps) == (b.t, b.gap, b.steps)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.Z, b.Z)


@pytest.mark.parametrize("seed", range(3))
def test_max_min_eig_is_scale_equivariant_at_1e200(seed):
    # the solve runs on F0 / max(1, max|F0|): at 1e200 F0 an unscaled
    # Newton Hessian, about mu tr(F^-1 A F^-1 A), would be near 1e-200
    rng = np.random.default_rng(seed)
    F0 = herm(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    F0 = F0 / np.abs(F0).max()
    E = pair_directions(4, [(0, 1), (0, 2), (1, 3)])
    s = 1e200
    unit, big = max_min_eig(F0, E), max_min_eig(s * F0, E)
    assert big.t == pytest.approx(s * unit.t, rel=1e-12)
    np.testing.assert_allclose(big.theta, s * unit.theta, rtol=1e-10,
                               atol=1e-12 * s)
    assert big.gap == pytest.approx(s * unit.gap, rel=1e-10)
    np.testing.assert_allclose(big.Z, unit.Z, rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# blockwise Kronecker product and the embedding identity

def manual_blockwise_kron(A, B):
    """Oracle: literal loop over the four blocks."""
    rows = []
    for i in range(2):
        rows.append([np.kron(A.blocks[i][j], B.blocks[i][j])
                     for j in range(2)])
    return np.block(rows)


@settings(max_examples=40, deadline=None)
@given(seed=seeds,
       pa=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       pb=st.tuples(st.integers(1, 3), st.integers(1, 3)))
def test_khatri_rao_matches_manual_loop(seed, pa, pb):
    rng = np.random.default_rng(seed)
    na, nb = sum(pa), sum(pb)
    A = BlockMatrix2.from_matrix(rng.normal(size=(na, na))
                                 + 1j * rng.normal(size=(na, na)), pa[0])
    B = BlockMatrix2.from_matrix(rng.normal(size=(nb, nb))
                                 + 1j * rng.normal(size=(nb, nb)), pb[0])
    got = khatri_rao(A, B).full()
    assert np.allclose(got, manual_blockwise_kron(A, B), atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(seed=seeds,
       pa=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       pb=st.tuples(st.integers(1, 3), st.integers(1, 3)))
def test_embedding_compresses_kron_to_khatri_rao(seed, pa, pb):
    rng = np.random.default_rng(seed)
    na, nb = sum(pa), sum(pb)
    Afull = rng.normal(size=(na, na)) + 1j * rng.normal(size=(na, na))
    Bfull = rng.normal(size=(nb, nb)) + 1j * rng.normal(size=(nb, nb))
    A = BlockMatrix2.from_matrix(Afull, pa[0])
    B = BlockMatrix2.from_matrix(Bfull, pb[0])
    E = build_embedding_E(pa, pb)
    assert np.allclose(E.conj().T @ E, np.eye(E.shape[1]), atol=1e-13)
    compressed = E.conj().T @ np.kron(Afull, Bfull) @ E
    assert np.allclose(compressed, khatri_rao(A, B).full(), atol=1e-12)


def test_block_matrix_partition_validation():
    with pytest.raises(matkit.ShapeError):
        BlockMatrix2.from_blocks(np.eye(2), np.eye(2), np.eye(2),
                                 np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# samplers

def test_sample_herm_is_hermitian(rng):
    for n in (1, 2, 5):
        M = sample_herm(n, 0.5, rng)
        assert M.shape == (n, n)
        assert np.allclose(M, M.conj().T, atol=1e-14)


def test_sample_herm_keeps_its_draws():
    """sample_herm is sample_blocks's one-part case; it draws the real
    part, then the imaginary part, and rescales by the norm(., 2) factor,
    bit for bit, leaving the generator where that loop leaves it."""
    for n in (1, 2, 5):
        for scale in (0.3, 5.0):
            rng, ref = np.random.default_rng(n), np.random.default_rng(n)
            for _ in range(4):
                H = matkit.herm(ref.normal(size=(n, n))
                                + 1j * ref.normal(size=(n, n)))
                nH = np.linalg.norm(H, 2)
                want = H * (scale / nH) if nH > scale else H
                assert np.array_equal(sample_herm(n, scale, rng), want)
            assert rng.bit_generator.state == ref.bit_generator.state
    assert not np.any(sample_herm(3, 0, rng))


def test_sample_tuple_counts(rng):
    t = matkit.sample_tuple(3, (2, 1), 0.5, rng)
    assert len(t.A) == 2 and len(t.X) == 1
    assert t.n == 3


def test_sample_blocks_per_part_scale_keeps_the_loop_draws():
    """With one scale per part, sample_blocks draws what a loop of one
    sample_herm (Hermitian parts) or scaled Gaussian (rectangular parts)
    per part draws, part after part, and skips the scale-0 Hermitian
    parts, leaving the generator where that loop leaves it."""
    parts = [(2, 2, True), (3, 1, False), (2, 2, True), (3, 3, True),
             (2, 2, True)]
    scales = [0.4, 2.0, 1.0, 0.7, 0.0]
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    got = matkit.sample_blocks(parts, scales, rng, 3)
    for b in range(3):
        for (r, c, herm_), s, stack in zip(parts, scales, got):
            if herm_:
                want = sample_herm(r, s, ref)
            else:
                want = (ref.normal(size=(r, c))
                        + 1j * ref.normal(size=(r, c))) * s / np.sqrt(2)
            assert np.array_equal(stack[b], want)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("scale", [0.7, [0.0, 0.0, 1.3, 0.5]],
                         ids=["one-scale", "per-part"])
def test_skip_blocks_leaves_the_generator_where_sample_blocks_does(scale):
    """skip_blocks draws as many normals as sample_blocks, also with a
    Hermitian part at scale 0 (no draws) and rectangular parts (drawn at
    any scale)."""
    parts = [(2, 2, True), (2, 3, False), (3, 3, True), (1, 2, False)]
    for size in (1, 3):
        drawn, skipped = np.random.default_rng(7), np.random.default_rng(7)
        matkit.sample_blocks(parts, scale, drawn, size)
        matkit.skip_blocks(parts, scale, skipped, size)
        assert drawn.bit_generator.state == skipped.bit_generator.state


@pytest.mark.parametrize("first, cap", [(1, 4), (1, 100), (3, 5), (3, 100)])
def test_judged_draws_match_per_draw_loop(first, cap):
    """The stream yields the candidates, verdicts and payloads of a loop
    of one-candidate draws, in blocks of first, 2 first, ... (at most
    cap), and its close leaves the generator where that loop leaves it,
    for a consumer that stops at every position of every block: at a
    block's end nothing is rewound, inside one the rewind skips past the
    candidates yielded."""
    positions = set()
    for stop in range(31):
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        want = [ref.random() for _ in range(stop)]
        drawn, skipped = [], []

        def draw(B):
            drawn.append(B)
            return rng.random(B)

        stream = matkit.judged_draws(
            draw, lambda block: (block > 0.5, -block),
            lambda B: skipped.append(B) or rng.random(B), rng, first, cap,
            1000)
        got = list(itertools.islice(stream, stop))
        stream.close()
        assert rng.bit_generator.state == ref.bit_generator.state
        assert [c for c, _, _ in got] == want
        assert all(v == (c > 0.5) and p == -c for c, v, p in got)
        blocks, size = [], first
        while sum(blocks) < stop:
            blocks.append(min(size, cap))
            size *= 2
        assert drawn == blocks
        inside = stop - sum(blocks[:-1])
        assert skipped == ([inside] if blocks and inside < blocks[-1]
                           else [])
        if blocks and blocks[-1] > 1:
            positions.add("first" if inside == 1 else "last"
                          if inside == blocks[-1] else "middle")
    assert positions == {"first", "middle", "last"}


@pytest.mark.parametrize("first, cap, total", [(1, 100, 500), (1, 4, 10),
                                               (3, 100, 7), (5, 5, 5)])
def test_judged_draws_trim_the_last_block_to_the_budget(first, cap, total):
    """The stream draws exactly total candidates, the last block trimmed
    to the draws left, and ends there; its candidates and the generator's
    state are those of total one-candidate draws."""
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    drawn = []

    def draw(B):
        drawn.append(B)
        return rng.random(B)

    stream = matkit.judged_draws(
        draw, lambda block: (block > 2, block), lambda B: rng.random(B),
        rng, first, cap, total)
    got = [c for c, _, _ in stream]
    assert got == [ref.random() for _ in range(total)]
    assert rng.bit_generator.state == ref.bit_generator.state
    assert sum(drawn) == total
    blocks, size = [], first
    while sum(blocks) < total:
        blocks.append(min(size, cap, total - sum(blocks)))
        size *= 2
    assert drawn == blocks


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(1, 4),
       scale=st.sampled_from((1e-3, 1.0, 1e4)))
def test_psd_mask_agrees_with_is_psd(seed, n, scale):
    """psd_mask on a stack's eigenvalues gives is_psd's verdict row by
    row, also for lambda_min within rounding of the threshold."""
    rng = np.random.default_rng(seed)
    B = 12
    U = np.linalg.qr(rng.normal(size=(B, n, n))
                     + 1j * rng.normal(size=(B, n, n)))[0]
    ev = rng.uniform(0, 1, size=(B, n)) * scale
    lo = -matkit.TOL_PSD * np.maximum(1.0, np.abs(ev).max(axis=1))
    ev[:, 0] = lo * (1 + rng.choice([-1e-9, 0.0, 1e-9, -0.5, 0.5], size=B))
    M = herm((U * ev[:, None, :]) @ U.conj().swapaxes(-1, -2))
    mask = matkit.psd_mask(np.linalg.eigvalsh(M))
    assert mask.tolist() == [is_psd(Mi).is_psd for Mi in M]


# ---------------------------------------------------------------------------
# report codec

def _pairs(v):
    """The per-entry [re, im] comprehension the codec replaces."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(v)]


@pytest.mark.parametrize("M", [
    np.random.default_rng(3).normal(size=(3, 4))
    + 1j * np.random.default_rng(4).normal(size=(3, 4)),
    np.arange(6.0).reshape(2, 3),
    np.array([[-0.0, 1.0], [complex(2.0, -0.0), complex(-0.0, -0.0)]]),
    np.zeros((0, 0), dtype=complex),
    np.zeros((3, 0), dtype=complex),
], ids=["complex", "real", "negative-zero", "0x0", "3x0"])
def test_jmat_matches_the_per_entry_lists(M):
    want = [_pairs(row) for row in np.asarray(M, dtype=complex)]
    got = matkit.jmat(M)
    assert got == want
    # == does not see the sign of a zero; the encoded text does
    assert repr(got) == repr(want)
    for row in np.asarray(M):
        assert matkit.jmat(row) == _pairs(row)
        assert repr(matkit.jmat(row)) == repr(_pairs(row))
    if M.size:
        assert np.array_equal(matkit.junmat(got), M)
