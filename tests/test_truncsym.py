"""Truncated polynomial ring and the determinant scalar.

The oracle below reimplements truncated multiplication over plain dicts
keyed by exponent tuples, sharing nothing with the code under test, and
expands prod_j L_j^(p-1) directly.  The degree-by-degree top-monomial
scalar is also compared with the dense-grid products it replaced
(oracle_helpers.top_scalar_by_grid_products), and those grid products,
the ring's elements in oracle_helpers.GridRing, with the dict oracle.
"""

from __future__ import annotations

import collections
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socle_verify import GF, TruncatedPolynomialRing, linalg, truncsym
from oracle_helpers import GridRing, NotScalarMultiple, SingularMatrix, top_scalar_by_grid_products


def dict_mul(a, b, p, nvars):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if any(x >= p for x in e):
                continue
            c = out.get(e)
            out[e] = ca * cb if c is None else c + ca * cb
    return {e: c for e, c in out.items() if not c.is_zero()}


def top_scalar_oracle(k, matrix):
    """Expand prod_j (sum_i matrix[j,i] x_i)^(p-1) with dict arithmetic."""
    p = k.p
    nvars = matrix.shape[0]
    acc = {(0,) * nvars: k.one()}
    for j in range(nvars):
        form = {}
        for i in range(nvars):
            c = k.element_from_code(int(matrix[j, i]))
            if not c.is_zero():
                e = tuple(1 if v == i else 0 for v in range(nvars))
                form[e] = c
        for _ in range(p - 1):
            acc = dict_mul(acc, form, p, nvars)
    return acc.get((p - 1,) * nvars, k.element(0))


def scalar(ring, matrix):
    """The top-monomial scalar of one matrix, from a one-member stack."""
    return ring.field.element_from_code(int(ring.top_monomial_scalar(np.asarray(matrix)[None])[0]))


def test_ring_basics():
    k = GF(3)
    ring = GridRing(k, 2)
    x1, x2 = ring.variable(1), ring.variable(2)
    assert (x1**3).is_zero()
    assert str(x1 * x2) == "x1 x2"
    assert ring.top_monomial() == x1**2 * x2**2
    sq = (x1 + x2) ** 2
    assert sq.coefficient((1, 1)) == k.element(2)
    assert sq.coefficient((2, 0)) == k.one()
    assert ring.one() * x1 == x1
    assert ring.scalar(2) + ring.scalar(1) == ring.zero()


def test_variable_index_bounds():
    ring = GridRing(GF(3), 2)
    with pytest.raises(ValueError):
        ring.variable(0)
    with pytest.raises(ValueError):
        ring.variable(3)


def test_grid_size_bounded():
    assert GridRing(GF(2), 12).shape == (2,) * 12  # 2^12 cells, at the limit
    for p, m in ((2, 13), (5, 6), (2, 10**9)):
        with pytest.raises(ValueError, match="exceeds the limit"):
            TruncatedPolynomialRing(GF(p), m)


def test_elementary_and_diagonal_scalars():
    k = GF(5)
    ring = TruncatedPolynomialRing(k, 3)
    # elementary: determinant one, scalar one
    m = np.eye(3, dtype=np.int64)
    m[0, 2] = 3
    assert scalar(ring, m) == 1
    # diagonal: scalar is (product of entries)^(p-1)
    d = np.diag(np.array([2, 3, 1], dtype=np.int64))
    det = k.element(6)
    assert scalar(ring, d) == det ** (5 - 1)


def test_gf9_diagonal_frozen():
    k = GF(3, 2)
    ring = TruncatedPolynomialRing(k, 2)
    m = np.diag(np.array([k.code_of(k.from_coeffs([0, 1])), k.code_of(k.one())], dtype=np.int64))
    assert str(scalar(ring, m)) == "2"  # t^2 = -1 mod t^2+1


def test_top_scalar_matches_dict_oracle():
    k = GF(5)
    ring = TruncatedPolynomialRing(k, 3)
    rng = random.Random(404)
    checked = 0
    while checked < 15:
        m = np.array([[rng.randrange(5) for _ in range(3)] for _ in range(3)], dtype=np.int64)
        expected = top_scalar_oracle(k, m)
        if round(np.linalg.det(m)) % 5 == 0:
            assert expected.is_zero()
            assert scalar(ring, m).is_zero()
            continue
        assert scalar(ring, m) == expected
        checked += 1


def test_top_scalar_matches_dict_oracle_gf9():
    k = GF(3, 2)
    ring = TruncatedPolynomialRing(k, 2)
    ops_det_nonzero = 0
    for codes in itertools.product(range(9), repeat=4):
        m = np.array(codes, dtype=np.int64).reshape(2, 2)
        expected = top_scalar_oracle(k, m)
        if expected.is_zero():
            continue
        ops_det_nonzero += 1
        if ops_det_nonzero % 11:  # thin out, full set is 6480 cases
            continue
        assert scalar(ring, m) == expected


def grid_to_dict(k, grid):
    return {
        tuple(int(e) for e in exps): k.element_from_code(int(grid[exps]))
        for exps in zip(*np.nonzero(grid))
    }


@pytest.mark.parametrize("p,n,nvars", [(2, 1, 4), (3, 1, 3), (5, 1, 2), (2, 2, 3), (3, 2, 2), (5, 2, 2)])
def test_mul_grids_matches_dict_mul(p, n, nvars):
    k = GF(p, n)
    ring = GridRing(k, nvars)
    rng = random.Random(77 + 10 * p + n)

    def random_grid(density):
        cells = [rng.randrange(1, k.q) if rng.random() < density else 0 for _ in range(p**nvars)]
        return np.array(cells, dtype=np.int64).reshape(ring.shape)

    # the last pair has a fully dense b, so every cell takes the nonzero loop
    pairs = [(random_grid(0.5), random_grid(0.5)) for _ in range(6)]
    pairs.append((random_grid(0.7), random_grid(1.0)))
    for a, b in pairs:
        got = grid_to_dict(k, ring._mul_grids(a, b))
        assert got == dict_mul(grid_to_dict(k, a), grid_to_dict(k, b), p, nvars)


@pytest.mark.parametrize("p,n,nvars", [(2, 1, 6), (2, 1, 7), (2, 1, 8), (2, 2, 3)])
def test_top_scalar_matches_dict_oracle_at_gl_check_shapes(p, n, nvars):
    """One-member stacks, then the same matrices as one stack."""
    k = GF(p, n)
    ring = TruncatedPolynomialRing(k, nvars)
    rng = random.Random(505 + nvars + 10 * n)
    mats, expected = [], []
    while len(mats) < 4:
        m = np.array([[rng.randrange(k.q) for _ in range(nvars)] for _ in range(nvars)], dtype=np.int64)
        lam = top_scalar_oracle(k, m)  # det^(p-1), zero exactly when m is singular
        assert scalar(ring, m) == lam
        if lam.is_zero():
            continue
        mats.append(m)
        expected.append(k.code_of(lam))
    assert ring.top_monomial_scalar(np.stack(mats)).tolist() == expected


def _random_stack(k, rng, size, nvars):
    return np.array(
        [rng.randrange(k.q) for _ in range(size * nvars * nvars)], dtype=np.int64
    ).reshape(size, nvars, nvars)


def _widest_piece(p, nvars):
    """Most monomials of one total degree in the truncated grid."""
    degrees = collections.Counter(sum(e) for e in itertools.product(range(p), repeat=nvars))
    return max(degrees.values())


@pytest.mark.parametrize("p,n,nvars", [(2, 1, 5), (3, 1, 3), (5, 1, 2), (2, 2, 3), (3, 2, 2)])
def test_stacked_top_scalar_matches_single_and_chunking(monkeypatch, p, n, nvars):
    """A stack gives each member's scalar in a one-member stack, whatever
    the chunk size; a singular member gets 0 and leaves the other members'
    scalars as they were."""
    k = GF(p, n)
    ring = TruncatedPolynomialRing(k, nvars)
    ops = ring.ops
    rng = random.Random(606 + 10 * p + n)
    stack = _random_stack(k, rng, 40, nvars)
    stack = stack[ops.det(stack) != 0]
    got = ring.top_monomial_scalar(stack)
    assert got.tolist() == [k.code_of(scalar(ring, m)) for m in stack]
    # the gathered block of one degree: members x cells x variables x planes
    width = nvars * _widest_piece(p, nvars) * n
    for cells in (1, width * 3):
        monkeypatch.setattr(linalg, "MAX_STACK_CELLS", cells)
        small = TruncatedPolynomialRing(k, nvars)
        assert small.chunk == max(1, cells // width)
        assert small.chunk < len(stack)
        members = []
        scalars = small._top_scalars
        monkeypatch.setattr(
            small, "_top_scalars", lambda part: members.append(len(part)) or scalars(part)
        )
        assert np.array_equal(small.top_monomial_scalar(stack), got)
        assert max(members) == small.chunk
        assert max(members) * width <= max(cells, width)
    singular = stack.copy()
    mid = len(stack) // 2
    singular[mid, 0] = 0
    lams = ring.top_monomial_scalar(singular)
    assert lams[mid] == k.code_of(top_scalar_oracle(k, singular[mid])) == 0
    assert np.array_equal(np.delete(lams, mid), np.delete(got, mid))
    assert ring.top_monomial_scalar(stack[:0]).shape == (0,)


def _assert_matches_oracles(ring, stack):
    """The kernel equals the grid products and the dict oracle on every member."""
    k = ring.field
    got = ring.top_monomial_scalar(stack)
    assert got.shape == (len(stack),)
    assert np.array_equal(got, top_scalar_by_grid_products(ring, stack))
    assert got.tolist() == [k.code_of(top_scalar_oracle(k, m)) for m in stack]
    return got


@pytest.mark.parametrize("p,m,n", [(2, 8, 1), (2, 6, 2), (3, 5, 1), (3, 4, 2), (5, 4, 1), (5, 3, 2)])
def test_top_scalar_matches_oracles_at_benchmark_shapes(p, m, n):
    """Random stacks with singular members, at every gl-check benchmark shape."""
    k = GF(p, n)
    ring = TruncatedPolynomialRing(k, m)
    stack = _random_stack(k, random.Random(808 + 100 * p + 10 * m + n), 10, m)
    stack[1, 0] = stack[1, 1]  # equal rows
    stack[4, :, 2] = 0  # a zero column
    got = _assert_matches_oracles(ring, stack)
    assert got[1] == got[4] == 0
    assert np.count_nonzero(got) == np.count_nonzero(ring.ops.det(stack))


def test_top_scalar_matches_oracles_at_one_variable_and_p_4093():
    """m = 1 at the largest prime: p - 1 = 4092 factors on one-cell pieces."""
    k = GF(4093)
    ring = TruncatedPolynomialRing(k, 1)
    assert ring.chunk >= 4092
    rng = random.Random(909)
    stack = np.array([0, 1, 4092] + rng.sample(range(2, 4092), 5), dtype=np.int64).reshape(-1, 1, 1)
    assert _assert_matches_oracles(ring, stack).tolist() == [0] + [1] * 7  # Fermat


@pytest.mark.parametrize("n", [1, 2])
def test_top_scalar_matches_oracles_where_the_reduction_fires_often(monkeypatch, n):
    """p = 61, m = 2: 120 factors of growth 2n * 60, so the accumulator is
    reduced mod p every 5 to 7 degrees; with the float bound down to p it
    is reduced in every degree, and the scalars do not change."""
    k = GF(61, n)
    ring = TruncatedPolynomialRing(k, 2)
    stack = _random_stack(k, random.Random(1313 + n), 6, 2)
    stack[1, 0] = stack[1, 1]  # equal rows
    stack[3, :, 1] = 0  # a zero column
    got = _assert_matches_oracles(ring, stack)
    assert got[1] == got[3] == 0
    assert np.array_equal(got, ring.ops.pow(ring.ops.det(stack), 60))
    monkeypatch.setattr(linalg, "EXACT_FLOAT_BOUND", 61)
    assert np.array_equal(ring.top_monomial_scalar(stack), got)


def test_top_scalar_equals_det_power_at_p_4093_over_gf_p2():
    """m = 1 over GF(4093^2): 4092 factors, reduced about every third one,
    give det^(p-1), which is not 1 off GF(4093)."""
    k = GF(4093, 2)
    ring = TruncatedPolynomialRing(k, 1)
    rng = random.Random(1414)
    stack = np.array([0, 1] + [rng.randrange(k.q) for _ in range(6)], dtype=np.int64).reshape(-1, 1, 1)
    got = ring.top_monomial_scalar(stack)
    assert np.array_equal(got, ring.ops.pow(stack[:, 0, 0], 4092))
    assert got[0] == 0 and got[1] == 1 and np.count_nonzero(got > 1) >= 5


def test_top_scalar_matches_oracles_on_the_largest_grid():
    """The 2^12 grid over GF(2): pieces of up to 924 monomials, one member per chunk."""
    k = GF(2)
    ring = TruncatedPolynomialRing(k, 12)
    stack = _random_stack(k, random.Random(1010), 4, 12)
    stack[0] = np.eye(12, dtype=np.int64)
    stack[1, 5] = 0
    got = _assert_matches_oracles(ring, stack)
    assert got[0] == 1 and got[1] == 0


def test_top_scalar_matches_oracles_over_gf256_at_chunk_one(monkeypatch):
    monkeypatch.setattr(linalg, "MAX_STACK_CELLS", 1)
    k = GF(2, 8)
    ring = TruncatedPolynomialRing(k, 3)
    assert ring.chunk == 1
    stack = _random_stack(k, random.Random(1111), 6, 3)
    stack[2, 1] = 0
    assert _assert_matches_oracles(ring, stack)[2] == 0


@pytest.mark.parametrize("size", [0, 1, 5, 7, 11])
def test_top_scalar_on_partial_and_one_member_chunks(monkeypatch, size):
    """Chunks of 5 members: empty, one-member, full and partial last chunks."""
    k = GF(3, 2)
    width = 3 * _widest_piece(3, 3) * 2
    monkeypatch.setattr(linalg, "MAX_STACK_CELLS", 5 * width)
    ring = TruncatedPolynomialRing(k, 3)
    assert ring.chunk == 5
    stack = _random_stack(k, random.Random(1212 + size), size, 3)
    got = _assert_matches_oracles(ring, stack)
    assert got.dtype == np.int64


def test_degree_gathers_are_built_on_the_first_scalar():
    """A ring reads its chunk off the piece sizes and builds no gather; the
    first top_monomial_scalar call builds them, once per (p, m)."""
    truncsym._degree_gathers.cache_clear()
    ring = TruncatedPolynomialRing(GF(3, 2), 4)
    assert truncsym._degree_gathers.cache_info().currsize == 0
    ring.top_monomial_scalar(np.eye(4, dtype=np.int64)[None])
    TruncatedPolynomialRing(GF(3, 2), 4).top_monomial_scalar(np.eye(4, dtype=np.int64)[None])
    info = truncsym._degree_gathers.cache_info()
    assert (info.currsize, info.misses) == (1, 1)
    widest = max(len(g) for g in truncsym._degree_gathers(3, 4))
    assert widest == _widest_piece(3, 4) == 19
    assert ring.chunk == max(1, linalg.MAX_STACK_CELLS // (4 * widest * 2))


def test_chunk_holds_one_member_at_the_grid_limit():
    # 12 variables x 924 monomials of degree 6 x 8 planes over GF(2^8)
    # exceed MAX_STACK_CELLS alone
    ring = TruncatedPolynomialRing(GF(2, 8), 12)
    assert 12 * _widest_piece(2, 12) * 8 > linalg.MAX_STACK_CELLS
    assert ring.chunk == 1


def test_stacked_linear_forms_and_products_match_single():
    k = GF(3, 2)
    ring = GridRing(k, 3)
    rng = random.Random(707)
    coeffs = np.array([[rng.randrange(9) for _ in range(3)] for _ in range(5)], dtype=np.int64)
    forms = ring.linear_form(coeffs)
    singles = [ring.linear_form(c) for c in coeffs]
    assert np.array_equal(forms, np.stack([f.grid for f in singles]))
    left = np.stack([(f + ring.scalar(1)).grid for f in singles])
    got = ring._mul_grids(left, forms)
    for g, f in zip(got, singles):
        assert np.array_equal(g, ((f + ring.scalar(1)) * f).grid)


def test_substitute_matrix_equals_linear_forms():
    k = GF(3, 2)
    ring = GridRing(k, 2)
    x1, x2 = ring.variable(1), ring.variable(2)
    poly = x1 * x2 + x1**2
    m = np.array([[k.code_of(k.from_coeffs([0, 1])), 1], [0, 1]], dtype=np.int64)
    via_matrix = poly.substitute(m)
    forms = [ring.linear_form(m[0]), ring.linear_form(m[1])]
    via_forms = poly.substitute(forms)
    assert via_matrix == via_forms


def test_substitute_is_a_ring_map():
    k = GF(5)
    ring = GridRing(k, 2)
    x1, x2 = ring.variable(1), ring.variable(2)
    images = [x2 + x1 * x2, ring.scalar(2) * x1]
    a = x1 + x2**2
    b = x1 * x2 + ring.one()
    assert (a * b).substitute(images) == a.substitute(images) * b.substitute(images)
    assert (a + b).substitute(images) == a.substitute(images) + b.substitute(images)


def test_singular_matrix_rejected():
    """substitute() rejects a singular matrix; top_monomial_scalar takes
    only stacks and gives a singular member the scalar 0."""
    ring = GridRing(GF(3), 2)
    assert ring.top_monomial_scalar(np.zeros((1, 2, 2), dtype=np.int64)).tolist() == [0]
    with pytest.raises(ValueError, match="wrong shape"):
        ring.top_monomial_scalar(np.eye(2, dtype=np.int64))
    with pytest.raises(SingularMatrix):
        ring.variable(1).substitute(np.array([[1, 2], [2, 1]], dtype=np.int64))
    with pytest.raises(ValueError, match="not a stack"):
        ring.variable(1).substitute(np.eye(2, dtype=np.int64)[None])


def test_non_scalar_image_detected():
    # substituting non-linear images by hand can land off the top line;
    # top_monomial_scalar itself must never do so for invertible input
    k = GF(2)
    ring = TruncatedPolynomialRing(k, 2)
    assert isinstance(NotScalarMultiple("x"), ValueError)
    for codes in itertools.product(range(2), repeat=4):
        m = np.array(codes, dtype=np.int64).reshape(2, 2)
        if round(np.linalg.det(m)) % 2 == 0:
            continue
        lam = scalar(ring, m)
        assert lam == 1  # GL_2(F_2) determinants are all 1


@settings(max_examples=30)
@given(st.integers(0, 2**30))
def test_scalar_multiplicative_in_matrix(seed):
    k = GF(3)
    ring = _RING_GF3
    rng = random.Random(seed)

    def invertible():
        while True:
            m = np.array([[rng.randrange(3) for _ in range(2)] for _ in range(2)], dtype=np.int64)
            if round(np.linalg.det(m)) % 3:
                return m

    a, b = invertible(), invertible()
    ab = a @ b % 3
    assert scalar(ring, ab) == scalar(ring, a) * scalar(ring, b)


_RING_GF3 = TruncatedPolynomialRing(GF(3), 2)
