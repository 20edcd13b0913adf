"""Exact linear algebra over finite fields.

Matrices are arrays of element codes.  Determinants are checked against a
permutation-expansion oracle computed with FieldElement arithmetic, which
shares no code with the Gaussian elimination under test, and against the
one-matrix column loop with FieldElement pivots; the six elementwise ops
(gathers from log/antilog and carry-free digit tables up to
DIGIT_TABLE_ROWS, coefficient planes above) against FieldElement
arithmetic.  rref is checked against the loop that updates the whole
matrix per pivot, decode and matmul against the divmod decode and the
product one plane pair at a time (tests/oracle_helpers.py).
"""

from __future__ import annotations

import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socle_verify import GF, linalg
from socle_verify.ffield import FieldSpec
from socle_verify.linalg import DIGIT_TABLE_ROWS, FieldOps

from oracle_helpers import (decode_by_divmod, det_by_column_loop, in_row_space, matmul_by_planes,
                            rref_by_full_update, solve)


@functools.cache
def field_ops(p, n):
    return FieldOps(GF(p, n))


def det_oracle(ops, m):
    """Leibniz expansion with field elements; fine for size <= 4."""
    k = ops.spec
    size = m.shape[0]
    total = k.element(0)
    for perm in itertools.permutations(range(size)):
        sign = 1
        for i in range(size):
            for j in range(i + 1, size):
                if perm[i] > perm[j]:
                    sign = -sign
        term = k.one() if sign > 0 else -k.one()
        for i in range(size):
            term = term * k.element_from_code(int(m[i, perm[i]]))
        total = total + term
    return k.code_of(total)


def random_matrix(k, rng, rows, cols):
    return np.array(
        [[rng.randrange(k.q) for _ in range(cols)] for _ in range(rows)], dtype=np.int64
    )


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (5, 2)])
def test_det_matches_leibniz_expansion(p, n):
    k = GF(p, n)
    ops = FieldOps(k)
    rng = random.Random(1234 + p * 10 + n)
    for size in (1, 2, 3, 4):
        for _ in range(20):
            m = random_matrix(k, rng, size, size)
            assert ops.det(m[None]).tolist() == [det_oracle(ops, m)]


def known_det_matrix(k, ops, rng, size, singular):
    """P L U with L unit lower triangular, U upper triangular and P a row
    permutation, and its determinant sign(P) * prod diag(U), computed with
    FieldElement arithmetic; a singular one gets a zero on U's diagonal."""
    lower = np.tril(random_matrix(k, rng, size, size), -1) + np.eye(size, dtype=np.int64)
    upper = np.triu(random_matrix(k, rng, size, size), 1)
    diag = [rng.randrange(1, k.q) for _ in range(size)]
    if singular:
        diag[rng.randrange(size)] = 0
    upper[np.arange(size), np.arange(size)] = diag
    perm = list(range(size))
    rng.shuffle(perm)
    det = k.one()
    for c in diag:
        det = det * k.element_from_code(c)
    if sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size)) % 2:
        det = -det
    return ops.matmul(lower, upper)[perm], k.code_of(det)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (5, 2)])
def test_stacked_det_matches_oracles(p, n):
    """A (B, s, s) stack against the per-matrix column loop at sizes 1..8,
    against Leibniz up to size 5, and against known determinants built as
    P L U; a third of the built members and some random ones are singular."""
    k = GF(p, n)
    ops = FieldOps(k)
    rng = random.Random(4321 + 10 * p + n)
    for size in range(1, 9):
        members, known = [], []
        for i in range(6):
            m, d = known_det_matrix(k, ops, rng, size, singular=i % 3 == 0)
            members.append(m)
            known.append(d)
        for i in range(6):
            m = random_matrix(k, rng, size, size)
            if size > 1 and i % 2:
                m[-1] = m[0]
            members.append(m)
        got = ops.det(np.stack(members))
        assert got.shape == (len(members),)
        assert got[:6].tolist() == known
        assert got.tolist() == [det_by_column_loop(ops, m) for m in members]
        if size <= 5:
            assert got.tolist() == [det_oracle(ops, m) for m in members]
        assert 0 in got.tolist()
    assert ops.det(np.zeros((0, 3, 3), dtype=np.int64)).shape == (0,)


@pytest.mark.parametrize("p", [2, 3, 5, 4093])
def test_prime_field_det_stack_equals_the_one_matrix_loop(p):
    """Over GF(p) the codes are the residues; a stack's int64 codes must be
    those of the one-matrix column loop, byte for byte, at sizes 1..8 with
    a third of the members singular (a zero column, a repeated row, or a
    built P L U with a zero on the diagonal)."""
    k = GF(p)
    ops = FieldOps(k)
    rng = random.Random(97 + p)
    singular = 0
    for size in range(1, 9):
        members = []
        for i in range(12):
            if i % 3 == 0:
                m, _ = known_det_matrix(k, ops, rng, size, singular=True)
            else:
                m = random_matrix(k, rng, size, size)
            if i % 6 == 1:
                m[:, rng.randrange(size)] = 0
            elif i % 6 == 2 and size > 1:
                m[-1] = m[0]
            members.append(m)
        want = np.array([det_by_column_loop(ops, m) for m in members], dtype=np.int64)
        got = ops.det(np.stack(members))
        assert got.dtype == np.int64 and got.tobytes() == want.tobytes(), size
        singular += int((want == 0).sum())
    assert singular >= 8 * 4


@pytest.mark.parametrize("p,n", [(2, 1), (4093, 1), (3, 2), (13, 4)])
def test_det_stack_with_singular_members_at_every_pivot_column(p, n):
    """A stack of 240 members of size 6 against the one-matrix column loop,
    over GF(2), GF(4093), a table field and the plane field GF(13^4) above
    q = 4096.  For every column c, a third of the members have column c a
    random combination of the columns before it (a zero column at c = 0),
    so elimination runs out of pivots by column c; another third have zeros
    on top of column c, so its pivot, if any, comes from a swap."""
    k = GF(p, n)
    ops = FieldOps(k)
    rng = random.Random(2024 + p + n)
    size = 6
    members = []
    for i in range(240):
        m = random_matrix(k, rng, size, size)
        c = (i // 3) % size
        if i % 3 == 0:
            coeffs = random_matrix(k, rng, c, 1)
            m[:, c] = ops.matmul(m[:, :c], coeffs)[:, 0] if c else 0
        elif i % 3 == 1:
            m[: rng.randrange(1, size), c] = 0
        members.append(m)
    want = np.array([det_by_column_loop(ops, m) for m in members], dtype=np.int64)
    got = ops.det(np.stack(members))
    assert got.tobytes() == want.tobytes()
    assert not want[::3].any() and want[1::3].any()


def test_det_of_identity_and_swap():
    ops = FieldOps(GF(5))
    assert ops.det(ops.eye(4)[None]).tolist() == [1]
    m = ops.eye(4)
    m[[0, 1]] = m[[1, 0]]
    assert ops.det(m[None]).tolist() == [4]  # -1 mod 5


def test_det_takes_only_stacks():
    ops = FieldOps(GF(3, 2))
    for m in (ops.eye(3), np.zeros(3, dtype=np.int64), np.zeros((2, 3, 4), dtype=np.int64)):
        with pytest.raises(ValueError, match="stack"):
            ops.det(m)


# every code of the fields below the table bound; GF(13^8) is above it and
# is checked on seeded codes, the per-call x^(q-2)
@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 2), (5, 2), (2, 8), (4093, 1), (13, 8)])
def test_inv_and_pow_match_field_elements(p, n):
    ops = field_ops(p, n)
    k = ops.spec
    if k.q <= DIGIT_TABLE_ROWS:
        codes = np.arange(k.q, dtype=np.int64)
    else:
        rng = np.random.default_rng(p * 100 + n)
        codes = np.concatenate([[0, 1, p, k.q - 1], rng.integers(0, k.q, 200)]).astype(np.int64)
    elements = [k.element_from_code(int(c)) for c in codes]
    want = [0 if x.is_zero() else k.code_of(x.inverse()) for x in elements]
    assert ops.inv(codes).tolist() == want
    assert ops.inv(codes[None]).tolist() == [want]
    assert ops.mul(codes, ops.inv(codes)).tolist() == (codes != 0).tolist()
    assert ops.inv(0) == 0 and ops.inv(1) == 1
    for exponent in (1, 2, p - 1, p, 2 * p + 3, k.q - 1):
        assert ops.pow(codes, exponent).tolist() == [k.code_of(x**exponent) for x in elements]


# all pairs up to q = 81 (with two moduli of which t is not a primitive
# element: t has order 4 modulo t^2 + 1 over GF(3), 5 modulo t^4 + t^3 +
# t^2 + t + 1 over GF(2)), seeded pairs up to GF(61^2), whose carry-free
# sum table is the largest, and GF(13^4) just above the table bound
@pytest.mark.parametrize("p,n,modulus", [
    (2, 2, None), (2, 3, None), (3, 2, None), (5, 2, None), (3, 3, None), (7, 2, None), (3, 4, None),
    (3, 2, "t^2+1"), (2, 4, "t^4+t^3+t^2+t+1"),
    (2, 8, None), (3, 7, None), (5, 5, None), (7, 4, None), (61, 2, None), (13, 4, None),
])
def test_elementwise_ops_match_field_elements(p, n, modulus):
    k = FieldSpec(p, n, modulus)
    ops = FieldOps(k)
    assert ops._gathered == (k.q <= DIGIT_TABLE_ROWS)
    if k.q <= 81:
        a, b = (x.reshape(-1) for x in np.meshgrid(np.arange(k.q), np.arange(k.q)))
    else:
        rng = np.random.default_rng(k.q)
        edges = [0, 1, p, k.q - 1]
        a = np.concatenate([np.repeat(edges, 4), rng.integers(0, k.q, 300)])
        b = np.concatenate([np.tile(edges, 4), rng.integers(0, k.q, 300)])
    x = [k.element_from_code(int(c)) for c in a]
    y = [k.element_from_code(int(c)) for c in b]
    assert ops.add(a, b).tolist() == [k.code_of(u + v) for u, v in zip(x, y)]
    assert ops.sub(a, b).tolist() == [k.code_of(u - v) for u, v in zip(x, y)]
    assert ops.mul(a, b).tolist() == [k.code_of(u * v) for u, v in zip(x, y)]
    assert ops.neg(a).tolist() == [k.code_of(-u) for u in x]
    assert ops.inv(a).tolist() == [0 if u.is_zero() else k.code_of(u.inverse()) for u in x]
    for exponent in (1, 2, p, k.q - 1, k.q, 2 * k.q + 3):
        assert ops.pow(a, exponent).tolist() == [k.code_of(u**exponent) for u in x]
        assert ops.pow(0, exponent) == 0
    assert ops.inv(0) == 0
    # broadcasting, as numpy does
    assert ops.mul(a[:3, None], b[None, :5]).tolist() == [
        [k.code_of(u * v) for v in y[:5]] for u in x[:3]]


def test_field_ops_of_one_spec_share_gather_tables():
    first, second = FieldOps(GF(3, 2)), FieldOps(FieldSpec(3, 2, [1, 0, 1]))
    assert first.spec == second.spec and first.spec is not second.spec
    assert first._tables is second._tables
    assert FieldOps(FieldSpec(3, 2, "t^2+t+2"))._tables is not first._tables


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 2)])
@pytest.mark.parametrize("rows,cols,rank", [(12, 5, 5), (5, 12, 5), (9, 9, 4), (14, 6, 2), (4, 11, 1)])
def test_rref_matches_full_update_oracle(p, n, rows, cols, rank):
    k = GF(p, n)
    ops = field_ops(p, n)
    rng = random.Random(rows * 100 + cols * 10 + rank + k.q)
    # a product (rows x rank) @ (rank x cols) has rank at most `rank`
    m = ops.matmul(random_matrix(k, rng, rows, rank), random_matrix(k, rng, rank, cols))
    m[rng.randrange(rows)] = 0
    reduced, pivots = ops.rref(m)
    want, want_pivots = rref_by_full_update(ops, m)
    assert pivots == want_pivots and len(pivots) <= rank
    assert reduced.dtype == want.dtype and np.array_equal(reduced, want)


def test_rref_fixed_example_gf2():
    ops = FieldOps(GF(2))
    m = np.array([[1, 1, 0, 1], [1, 0, 1, 0], [0, 1, 1, 0]], dtype=np.int64)
    r, pivots = ops.rref(m)
    assert pivots == [0, 1, 3]
    expected = np.array([[1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]], dtype=np.int64)
    assert np.array_equal(r, expected)

    # a dependent third row drops the rank
    m2 = np.array([[1, 1, 0, 1], [1, 0, 1, 0], [0, 1, 1, 1]], dtype=np.int64)
    _, pivots2 = ops.rref(m2)
    assert pivots2 == [0, 1]


def test_rref_shape_invariants():
    k = GF(3, 2)
    ops = FieldOps(k)
    rng = random.Random(77)
    for _ in range(25):
        m = random_matrix(k, rng, 4, 6)
        r, pivots = ops.rref(m)
        assert ops.rank(m) == len(pivots)
        # pivot columns are standard basis vectors
        for row, col in enumerate(pivots):
            column = r[:, col]
            assert column[row] == 1
            assert not np.any(np.delete(column, row))
        # row space unchanged: each original row reduces to zero against r
        for row in m:
            assert in_row_space(ops, row, r, pivots)


def test_solve_recovers_known_solution():
    k = GF(5, 2)
    ops = FieldOps(k)
    rng = random.Random(31)
    for _ in range(20):
        while True:
            a = random_matrix(k, rng, 4, 4)
            if ops.det(a[None])[0] != 0:
                break
        x = np.array([rng.randrange(k.q) for _ in range(4)], dtype=np.int64)
        b = ops.matvec(a, x)
        sol = solve(ops, a, b)
        assert sol is not None
        assert np.array_equal(ops.matvec(a, sol), b)
        assert np.array_equal(sol, x)  # invertible, so unique


def test_solve_reports_inconsistency():
    ops = FieldOps(GF(3))
    a = np.array([[1, 1], [2, 2]], dtype=np.int64)
    assert solve(ops, a, np.array([1, 1], dtype=np.int64)) is None
    assert solve(ops, a, np.array([1, 2], dtype=np.int64)) is not None


def test_nullspace_annihilates_and_has_right_dimension():
    k = GF(3, 2)
    ops = FieldOps(k)
    rng = random.Random(5150)
    for _ in range(25):
        m = random_matrix(k, rng, 3, 5)
        ns = ops.nullspace(m)
        assert ns.shape[0] == 5 - ops.rank(m)
        if ns.size:
            prod = ops.matmul(m, ns.T)
            assert not prod.any()
        # basis rows are independent, and in RREF
        assert ops.rank(ns) == ns.shape[0]
        assert np.array_equal(ops.rref(ns)[0], ns)


def test_matmul_matches_naive_loops_gf9():
    k = GF(3, 2)
    ops = FieldOps(k)
    rng = random.Random(99)
    a = random_matrix(k, rng, 3, 4)
    b = random_matrix(k, rng, 4, 2)
    got = ops.matmul(a, b)
    for i in range(3):
        for j in range(2):
            acc = k.element(0)
            for l in range(4):
                acc = acc + k.element_from_code(int(a[i, l])) * k.element_from_code(
                    int(b[l, j])
                )
            assert int(got[i, j]) == k.code_of(acc)


# fields with q <= DIGIT_TABLE_ROWS that the tests, the catalog and the
# benchmark use, and the largest single-gather fields for p = 3 and p = 5
SINGLE_GATHER_FIELDS = [
    (2, 1), (3, 1), (5, 1), (7, 1), (4093, 1),
    (2, 2), (2, 3), (2, 8), (3, 2), (3, 3), (3, 7), (5, 2), (5, 3), (5, 5), (7, 2),
]  # fmt: skip


@pytest.mark.parametrize("p,n", SINGLE_GATHER_FIELDS)
def test_decode_matches_divmod_on_every_code(p, n):
    ops = field_ops(p, n)
    codes = np.arange(p**n, dtype=np.int64)
    assert ops.decode(codes).shape == (p**n, n)
    assert np.array_equal(ops.decode(codes), decode_by_divmod(ops, codes))
    grid = codes[: (p**n // 3) * 3].reshape(3, -1)
    assert np.array_equal(ops.decode(grid), decode_by_divmod(ops, grid))
    assert np.array_equal(ops.encode(ops.decode(codes)), codes)


# several d-digit chunks per code: GF(3^8) and GF(5^6) take two, GF(67^3)
# three; GF(4093) fills the digit table
@pytest.mark.parametrize("p,n", [(3, 8), (5, 6), (67, 3), (4093, 1)])
def test_decode_matches_divmod_across_chunks(p, n):
    ops = field_ops(p, n)
    assert ops._digits.shape[0] <= DIGIT_TABLE_ROWS
    rng = np.random.default_rng(p * 100 + n)
    edges = [p**k + e for k in range(n) for e in (-1, 0, 1)]
    codes = np.concatenate([[0, p**n - 1], edges, rng.integers(0, p**n, 5000)]).astype(np.int64)
    assert np.array_equal(ops.decode(codes), decode_by_divmod(ops, codes))
    grid = rng.integers(0, p**n, (40, 25))
    assert np.array_equal(ops.decode(grid), decode_by_divmod(ops, grid))
    assert np.array_equal(ops.encode(ops.decode(codes)), codes)
    assert np.array_equal(ops.decode(np.int64(p**n - 1)), [p - 1] * n)


# (p, n, modulus), the default modulus when None; t^3 + 2t + 2 over GF(3)
# and t^4 + t^3 + t^2 + t + 1 over GF(2) are not the defaults, and t has
# order 13 and 5 in them, so it is not a primitive element
MATMUL_FIELDS = [(p, n, None) for p in (2, 3, 5, 67) for n in (1, 2, 3, 8)]
MATMUL_FIELDS += [(3, 3, "t^3+2*t+2"), (2, 4, "t^4+t^3+t^2+t+1")]
# (rows, K, columns): no rows, one column, K = 1, and 7 rows that leave a
# partial last chunk when a chunk holds 3 rows
MATMUL_SHAPES = [(0, 4, 3), (5, 4, 1), (6, 1, 5), (1, 1, 1), (7, 5, 6), (7, 9, 2)]


@pytest.mark.parametrize("p,n,modulus", MATMUL_FIELDS,
                         ids=["-".join(str(x) for x in case if x is not None) for case in MATMUL_FIELDS])
def test_matmul_matches_plane_oracle(monkeypatch, p, n, modulus):
    """One BLAS product, in row chunks and with the int64 product, against
    n^2 separate plane products reduced by long division."""
    ops = FieldOps(GF(p, n, modulus))
    rng = np.random.default_rng(7 * p + n)
    for rows, depth, cols in MATMUL_SHAPES:
        a = rng.integers(0, p**n, (rows, depth))
        b = rng.integers(0, p**n, (depth, cols))
        expect = matmul_by_planes(ops, a, b)
        assert expect.shape == (rows, cols)
        assert np.array_equal(ops.matmul(a, b), expect)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "MAX_PRODUCT_CELLS", 3 * n * n * cols)
            assert np.array_equal(ops.matmul(a, b), expect)
            patch.setattr(linalg, "MAX_PRODUCT_CELLS", 1)
            assert np.array_equal(ops.matmul(a, b), expect)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "EXACT_FLOAT_BOUND", 0)
            assert np.array_equal(ops.matmul(a, b), expect)
            patch.setattr(linalg, "MAX_PRODUCT_CELLS", 3 * n * n * cols)
            assert np.array_equal(ops.matmul(a, b), expect)


def test_encode_decode_roundtrip():
    k = GF(5, 2)
    ops = FieldOps(k)
    codes = np.arange(25, dtype=np.int64).reshape(5, 5)
    assert np.array_equal(ops.encode(ops.decode(codes)), codes)


@settings(max_examples=40)
@given(st.integers(0, 2**30))
def test_det_is_multiplicative_gf5(seed):
    k = GF(5)
    ops = FieldOps(k)
    rng = random.Random(seed)
    a = random_matrix(k, rng, 3, 3)
    b = random_matrix(k, rng, 3, 3)
    det_a, det_b, det_ab = ops.det(np.stack([a, b, ops.matmul(a, b)])).tolist()
    assert det_ab == k.code_of(k.element_from_code(det_a) * k.element_from_code(det_b))
