"""Dense exact linear algebra over GF(p^n) on integer-coded numpy arrays.

A matrix over GF(p^n) is an int64 ndarray whose entries are base-p codes of
field elements (code = sum_i c_i * p^i).  Prime fields (n == 1) take
short-circuit paths: codes are the residues themselves, and add, sub, neg
and mul work mod p.

Elementwise arithmetic over GF(p^n), n > 1, with q <= DIGIT_TABLE_ROWS is
one or two gathers on codes from tables built once per field (see
_GatherTables): mul is ext[log a + log b], add reads both codes' digits in
base 2p-1, where they add without carries, and maps the sum back through a
table of (2p-1)^n <= 5^7 entries; sub adds the negation, and neg, inv and
pow (on every field up to that bound) read the same tables.  Above the
bound the elementwise ops work on coefficient planes mod p, mul as one
contraction through _fold and inv as x^(q-2) by pow's repeated squaring, so
every extension degree the scalar layer supports works here too.

decode is a table gather.  The digit table holds the d base-p digits of
every number below p^d, for the largest d <= n with p^d <= DIGIT_TABLE_ROWS;
a code is cut into ceil(n/d) chunks of d digits, and each chunk is one
gather.  When q <= DIGIT_TABLE_ROWS, which holds for every prime field,
the whole code is one gather with no division.

matmul_stack takes stacks of products, (B, R, K) @ (B, K, C), and matmul
is its one-member call.  Over GF(p^n), n > 1, all n^2 plane products of a
member are one BLAS product (delayed reduction, as in FFLAS-FFPACK): the
left rows decoded as (w*n, K) times the right factor decoded once as
(K, C*n).  The n blocks with i + j = l are added into plane l, and the
2n-1 planes, taken mod p, are reduced mod the modulus by one product with
_reduction, whose row e is t^e mod the modulus as FieldSpec.from_coeffs
reduces it, and encoded.  _fold, which mul takes above the gather
tables' bound, is read off the same table.  The rows are taken
in chunks: rows of one member whose decoded left rows and whose product
each hold at most MAX_PRODUCT_CELLS entries, or several small members
that hold at most MAX_STACK_CELLS together.  So the memory a stack takes
stays a few times that of one chunk's operands however many members it
has.

det takes only (B, s, s) stacks and returns one code per member, every
member eliminated in the same numpy pass through the elementwise ops.
rref updates, per pivot, only the rows with a nonzero entry in its column
and only the columns from it on.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .ffield import FieldSpec

__all__ = ["FieldOps", "member_chunks", "DIGIT_TABLE_ROWS", "MAX_PRODUCT_CELLS", "MAX_STACK_CELLS", "EXACT_FLOAT_BOUND"]

# rows of the digit table decode gathers from; p <= MAX_CHARACTERISTIC = 4096,
# so a chunk has at least one digit, and the table takes at most 256 KB.
# Fields up to this order take their elementwise ops from gather tables of at
# most 5^7 entries, under 0.8 MB in all per field
DIGIT_TABLE_ROWS = 4096
# entries of one chunk of matmul_stack's decoded left rows and of its plane
# product; a chunk has >= 1 left row
MAX_PRODUCT_CELLS = 2**21
# entries a chunk of several whole members may hold, here, in kG stacks and
# in truncsym's gathered blocks: stacks pay off where numpy's per-call cost
# outweighs the arithmetic, on small members, and larger chunks would only
# raise the peak memory
MAX_STACK_CELLS = 2**14
# a float64 product of depth K with factors below p is exact while
# K (p-1)^2 < EXACT_FLOAT_BOUND; deeper products run in int64
EXACT_FLOAT_BOUND = 2**52


def member_chunks(count: int, cells: int) -> list[slice]:
    """Slices of a stack of `count` members of `cells` entries each that
    hold at most MAX_STACK_CELLS entries together, and at least one
    member: one |G| x |G| matrix at |G| = 125, 22 at |G| = 27."""
    step = max(1, MAX_STACK_CELLS // max(cells, 1))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


class FieldOps:
    """Vectorized field arithmetic bound to one FieldSpec."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.p = spec.p
        self.n = spec.n
        self._powers = self.p ** np.arange(self.n, dtype=np.int64)
        digits = 1
        while digits < self.n and self.p ** (digits + 1) <= DIGIT_TABLE_ROWS:
            digits += 1
        self._chunk_base = self.p**digits
        self._chunks = -(-self.n // digits)
        # _digits[c] = the `digits` base-p digits of c, lowest first
        self._digits = (
            np.arange(self._chunk_base, dtype=np.int64)[:, None] // self._powers[:digits]
        ) % self.p
        # elementwise ops gather from _tables up to the digit table's bound
        self._gathered = spec.q <= DIGIT_TABLE_ROWS

    @functools.cached_property
    def _tables(self) -> _GatherTables:
        return _gather_tables(self.spec)

    @functools.cached_property
    def _reduction(self) -> np.ndarray:
        """(2n-1, n): row e holds the coefficients of t^e mod the modulus."""
        rows = [self.spec.from_coeffs([0] * e + [1]).coeffs for e in range(2 * self.n - 1)]
        return np.array(rows, dtype=np.int64)

    @functools.cached_property
    def _fold(self) -> np.ndarray:
        """Entry (i, (j, k)) is the coefficient of t^k in t^(i+j) mod the modulus."""
        return self._reduction[np.add.outer(np.arange(self.n), np.arange(self.n))].reshape(self.n, -1)

    # -- code <-> coefficient planes -----------------------------------------

    def decode(self, a: np.ndarray) -> np.ndarray:
        """(...,) codes in [0, q) -> (..., n) coefficient planes, a new array."""
        rest = np.asarray(a, dtype=np.int64)
        chunks = []
        for _ in range(self._chunks - 1):
            rest, low = np.divmod(rest, self._chunk_base)
            chunks.append(np.take(self._digits, low, axis=0))
        chunks.append(np.take(self._digits, rest, axis=0))
        if len(chunks) == 1:
            return chunks[0]
        return np.concatenate(chunks, axis=-1)[..., : self.n]

    def encode(self, planes: np.ndarray) -> np.ndarray:
        return (planes % self.p) @ self._powers

    # -- elementwise arithmetic (broadcasting like numpy) ---------------------

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.n == 1:
            return (np.asarray(a) + np.asarray(b)) % self.p
        if self._gathered:
            t = self._tables
            return t.unspread[t.spread[a] + t.spread[b]]
        return self.encode(self.decode(a) + self.decode(b))

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.n == 1:
            return (np.asarray(a) - np.asarray(b)) % self.p
        if self._gathered:
            t = self._tables
            return t.unspread[t.spread[a] + t.neg_spread[b]]
        return self.encode(self.decode(a) - self.decode(b))

    def neg(self, a: np.ndarray) -> np.ndarray:
        if self.n == 1:
            return (-np.asarray(a)) % self.p
        if self._gathered:
            return self._tables.neg[a]
        return self.encode(-self.decode(a))

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.n == 1:
            return (np.asarray(a) * np.asarray(b)) % self.p
        if self._gathered:
            t = self._tables
            return t.ext[t.log[a] + t.log[b]]
        return self._mul_by_planes(a, b)

    def _mul_by_planes(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Products of codes, broadcasting: the smaller factor's shifted
        planes contracted with the other's planes."""
        if np.size(a) > np.size(b):
            a, b = b, a
        # entries stay below n^2 p^3 < 2^63 for every p <= 4096 and n <= 8
        return self.encode(np.einsum("...j,...jk->...k", self.decode(b), self.shifted_planes(a)))

    def shifted_planes(self, a: np.ndarray) -> np.ndarray:
        """(..., n, n) planes of a t^j for codes a, a's planes times _fold:
        entry [..., j, k] is congruent mod p to the coefficient of t^k and
        below n p^2.  They are left unreduced: a % p here made _mul_by_planes
        about a third slower (gl-check 5,1,8), and its encode reduces anyway."""
        shifted = self.decode(a) @ self._fold
        return shifted.reshape(shifted.shape[:-1] + (self.n, self.n))

    # -- powers and inverses ---------------------------------------------------

    def pow(self, a: np.ndarray, exponent: int) -> np.ndarray:
        """a^exponent elementwise, exponent >= 1: exp[e log a mod (q-1)] from
        the gather tables, 0 -> 0, or by repeated squaring above their bound."""
        a = np.asarray(a, dtype=np.int64)
        if self._gathered:
            t, order = self._tables, self.spec.q - 1
            return np.where(a != 0, t.ext[t.log[a] * (exponent % order) % order], 0)
        result = None
        while True:
            if exponent & 1:
                result = a if result is None else self.mul(result, a)
            exponent >>= 1
            if not exponent:
                return result
            a = self.mul(a, a)

    def inv(self, a: np.ndarray) -> np.ndarray:
        """Inverses of codes elementwise, with 0 -> 0.

        A gather from the inverse table, exp[-log a mod (q-1)], for
        q <= DIGIT_TABLE_ROWS; above that x^(q-2), which is 1/x for x != 0
        and 0 at 0, by pow's repeated squaring.
        """
        if self._gathered:
            return self._tables.inverse[a]
        return self.pow(a, self.spec.q - 2)

    # -- matrix products --------------------------------------------------------

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product of two code matrices: the one-member stack of matmul_stack."""
        return self.matmul_stack(np.asarray(a)[None], np.asarray(b)[None])[0]

    def matmul_stack(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Products (B, R, K) @ (B, K, C) of code matrices, member by member.

        A chunk is up to `step` left rows of one member, its decoded left
        rows and its plane product each holding at most MAX_PRODUCT_CELLS
        entries, or several whole members that hold at most MAX_STACK_CELLS
        together.  The right factors of a chunk's members are decoded once.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        (members, rows, depth), cols = a.shape, b.shape[-1]
        # BLAS has no integer product; a float one is exact at this depth
        kind = np.float64 if (self.p - 1) ** 2 * depth < EXACT_FLOAT_BOUND else np.int64
        per_row = self.n * max(depth, self.n * cols, 1)
        step = max(1, MAX_PRODUCT_CELLS // per_row)
        chunks = member_chunks(members, per_row * max(rows, 1))
        if len(chunks) <= 1 and rows <= step:
            return self._product(a, self._right_factors(b, kind))
        out = np.zeros((members, rows, cols), dtype=np.int64)
        for part in chunks:
            right = self._right_factors(b[part], kind)
            for lo in range(0, rows, step):
                out[part, lo : lo + step] = self._product(a[part, lo : lo + step], right)
        return out

    def _right_factors(self, b: np.ndarray, kind: type) -> np.ndarray:
        """Right factors (g, K, C) as _product takes them, in dtype kind: the
        codes over a prime field, else planes (g, K, n*C) with columns (j, c)."""
        if self.n == 1:
            return b.astype(kind)
        right = self.decode(b).transpose(0, 1, 3, 2)
        return np.ascontiguousarray(right, dtype=kind).reshape(len(b), b.shape[1], self.n * b.shape[2])

    def _product(self, a: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Codes (g, w, C) of left code rows (g, w, K) times _right_factors:
        over GF(p^n), n > 1, the 2n-1 planes times _reduction."""
        if self.n == 1:
            prod = (a.astype(right.dtype) @ right).astype(np.int64, copy=False)
            prod %= self.p
            return prod
        # entries of the reduced planes stay below (2n-1) p^2; encode takes them mod p
        return self.encode(self._plane_product(a, right) @ self._reduction)

    def _plane_product(self, a: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Planes (g, w, C, 2n-1) of t^0 .. t^(2n-2), mod p but not yet mod
        the modulus, of left code rows (g, w, K) times right factors decoded
        as (g, K, n*C).

        The left rows are decoded and taken as (i, r), so block [i, :, j, :]
        of a member's BLAS product is the plane product a_i b_j; its entries
        are sums of K terms below p^2, and the n blocks with i + j = l are
        added into plane l, so the reduction takes 2n-1 planes, not n^2
        blocks.
        """
        n, (size, width, depth) = self.n, a.shape
        left = np.ascontiguousarray(self.decode(a).transpose(0, 3, 1, 2), dtype=right.dtype)
        prod = (left.reshape(size, n * width, depth) @ right).astype(np.int64, copy=False)
        cols = right.shape[-1] // n
        prod = prod.reshape(size, n, width, n, cols)
        planes = np.zeros((2 * n - 1, size, width, cols), dtype=np.int64)
        for i in range(n):
            planes[i : i + n] += prod[:, i].transpose(2, 0, 1, 3)
        planes %= self.p
        return np.moveaxis(planes, 0, -1)

    def matvec(self, a: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.matmul(a, v.reshape(-1, 1)).reshape(-1)

    # -- echelon forms -----------------------------------------------------------

    def rref(self, m: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Reduced row echelon form.  Returns (nonzero rows, pivot columns).

        The RREF basis of a row space is unique, so results are reproducible
        regardless of input row order.  Each pivot updates only the rows
        with a nonzero entry in its column, and only from its column on:
        left of it the pivot row is zero.
        """
        m = np.array(m, dtype=np.int64, copy=True)
        if m.ndim != 2:
            raise ValueError("rref expects a matrix")
        rows, cols = m.shape
        pivots: list[int] = []
        r = 0
        for c in range(cols):
            if r == rows:
                break
            nz = np.flatnonzero(m[r:, c])
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            if i != r:
                m[[r, i]] = m[[i, r]]
            pc = int(m[r, c])
            if pc != 1:
                m[r, c:] = self.mul(self.inv(pc), m[r, c:])
            hit = np.flatnonzero(m[:, c])
            hit = hit[hit != r]
            if hit.size:
                m[hit, c:] = self.sub(m[hit, c:], self.mul(m[hit, c][:, None], m[r, c:]))
            pivots.append(c)
            r += 1
        return m[:r], pivots

    def rank(self, m: np.ndarray) -> int:
        return len(self.rref(m)[1])

    def nullspace(self, m: np.ndarray) -> np.ndarray:
        """RREF basis of {x : m @ x = 0}, one row per basis vector.

        m is eliminated with its columns reversed: the kernel vector of a
        free column f then has its 1 at f and its other entries at pivot
        columns after f, so, read back in order, it is the RREF row with
        pivot f, and no other kernel vector meets f.  The free columns are
        read off a column mask with the pivots cleared.
        """
        m = np.asarray(m, dtype=np.int64)
        cols = m.shape[1]
        reduced, pivots = self.rref(m[:, ::-1])
        free_mask = np.ones(cols, dtype=bool)
        free_mask[pivots] = False
        free = np.flatnonzero(free_mask)
        basis = np.zeros((len(free), cols), dtype=np.int64)
        basis[np.arange(len(free)), free] = 1
        basis[:, pivots] = self.neg(reduced[:, free].T)
        return np.ascontiguousarray(basis[::-1, ::-1])

    def det(self, m: np.ndarray) -> np.ndarray:
        """Determinants, as (B,) codes, of a (B, s, s) stack of square matrices.

        Forward elimination on codes, every member in the same pass: in
        column c each member swaps up its first row with a nonzero entry
        there, negating its determinant, multiplies the determinant by that
        pivot and clears the column below it with the scaled pivot row, in
        the trailing block only (in place over GF(p), then one % p).  inv
        takes a zero pivot to 0, so a singular member ends at 0 with no bookkeeping.
        """
        m = np.array(m, dtype=np.int64, copy=True)
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise ValueError("det takes a stack (B, s, s) of square matrices")
        size = m.shape[-1]
        members = np.arange(len(m))
        det = np.ones(len(m), dtype=np.int64)
        for c in range(size):
            rows = c + (m[:, c:, c] != 0).argmax(axis=1)
            swapped = rows != c
            if swapped.any():
                m[members, rows], m[:, c] = m[:, c].copy(), m[members, rows]
                det = np.where(swapped, self.neg(det), det)
            pivot = m[:, c, c]
            det = self.mul(det, pivot)
            if c + 1 == size:
                break
            row = self.mul(m[:, None, c, c + 1 :], self.inv(pivot)[:, None, None])
            block = m[:, c + 1 :, c + 1 :]
            if self.n == 1:
                block -= m[:, c + 1 :, c, None] * row
                block %= self.p
            else:
                block[...] = self.sub(block, self.mul(m[:, c + 1 :, c, None], row))
        return det

    def eye(self, size: int) -> np.ndarray:
        m = np.zeros((size, size), dtype=np.int64)
        np.fill_diagonal(m, 1)
        return m


class _GatherTables(NamedTuple):
    """Code tables of one GF(q), q <= DIGIT_TABLE_ROWS, with g primitive.

    log[g^k] = k and log[0] = 2(q-1); ext[k] = g^k for k < 2(q-1) and 0
    from there on, so ext[log a + log b] = a b with any zero factor landing
    in the zeros.  spread reads a code's base-p digits in base 2p-1, where
    the digits of a sum of two stay below 2p-1 and never carry; unspread
    maps such a sum back to the code of its digits mod p.
    """

    log: np.ndarray
    ext: np.ndarray
    inverse: np.ndarray
    neg: np.ndarray
    spread: np.ndarray
    neg_spread: np.ndarray
    unspread: np.ndarray


@functools.cache
def _gather_tables(spec: FieldSpec) -> _GatherTables:
    """The tables of spec, built on first use by products of coefficient
    planes and shared by every FieldOps of an equal spec."""
    ops = FieldOps(spec)
    p, n, order = spec.p, spec.n, spec.q - 1
    # the modulus need not be primitive (t has order 4 modulo t^2 + 1 over
    # GF(3)), so g is the first code whose powers g^0 .. g^(q-2) are distinct;
    # each candidate's powers double the known prefix per plane product.  The
    # codes below p are the prime field, of order p - 1 < q - 1 when n > 1.
    for g in range(1 if n == 1 else p, spec.q):
        exp, step = np.ones(1, dtype=np.int64), np.int64(g)
        while len(exp) < order:
            exp = np.concatenate([exp, ops._mul_by_planes(exp, step)])
            step = ops._mul_by_planes(step, step)
        exp = exp[:order]
        if np.count_nonzero(np.bincount(exp)) == order:
            break
    steps = np.arange(order, dtype=np.int64)
    log = np.full(spec.q, 2 * order, dtype=np.int64)
    log[exp] = steps
    ext = np.zeros(4 * order + 1, dtype=np.int64)
    ext[: 2 * order] = np.tile(exp, 2)
    inverse = np.zeros(spec.q, dtype=np.int64)
    inverse[exp] = exp[-steps % order]
    planes = ops.decode(np.arange(spec.q, dtype=np.int64))
    wide = (2 * p - 1) ** np.arange(n, dtype=np.int64)
    spread = planes @ wide
    neg = ops.encode(-planes)
    sums = np.arange((2 * p - 1) ** n, dtype=np.int64)
    unspread = ops.encode(sums[:, None] // wide % (2 * p - 1))
    return _GatherTables(log, ext, inverse, neg, spread, spread[neg], unspread)
