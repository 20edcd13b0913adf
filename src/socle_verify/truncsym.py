"""The gl-check kernel on k[x_1, ..., x_m] / (x_1^p, ..., x_m^p).

This truncated polynomial ring is the shape of the graded algebra of kG
when every generator sits in the same filtration degree (and, with a
degree-weighted grading, in general).  Its one job here: push an
invertible linear change of variables through the top monomial
prod_j x_j^(p-1).  The image of a linear substitution is homogeneous and
the top degree m*(p-1) holds no monomial other than the top one inside
the truncation, so the image of the top monomial is an exact scalar
multiple of itself; that scalar is what gets compared against det^(p-1).

top_monomial_scalar works one degree at a time.  After d linear
factors the accumulator lives on the piece D_d of monomials of total
degree d, and cell c of D_d receives acc[c - e_i] * a_i from each
variable i with c_i >= 1.  Per (p, m), one gather array per degree maps
every cell of D_d and variable i to its source in D_(d-1), or to a zero
sentinel when c_i = 0.  One factor is then one gather of the
accumulator's coefficient planes, one batched float64 product with the
members' n x n multiplication matrices over GF(p).  The accumulator is
reduced mod p only when the next product could leave the exact float64
integers (delayed reduction, as in FFLAS-FFPACK).  The top piece is the
single top monomial, whose planes are reduced and encoded to the scalar
by FieldOps.encode.

top_monomial_scalar takes only stacks: (B, m, m) matrices in, B scalar
codes out, computed in chunks whose gathered block (members x |D_d|
cells x m variables x n planes) holds at most linalg.MAX_STACK_CELLS
entries in every degree, and at least one member, so the memory a stack
takes stays small however many matrices a caller passes.  A stack is not
checked for invertibility: a singular member gets the scalar 0, which is
its det^(p-1).
"""

from __future__ import annotations

import functools

import numpy as np

from . import linalg
from .ffield import FieldSpec
from .linalg import FieldOps

__all__ = ["TruncatedPolynomialRing", "MAX_GRID_CELLS"]

# largest p^m accepted: the ring has p^m monomials
MAX_GRID_CELLS = 4096


@functools.cache
def _degree_gathers(p: int, m: int) -> tuple[np.ndarray, ...]:
    """The gathers of the degree-by-degree product, read-only.

    A piece D_d lists the monomials of total degree d in row-major grid
    order.  Entry d - 1 has shape (|D_d|, m): row k, column i holds the
    position in D_(d-1) of c - e_i, for c the k-th monomial of D_d, or
    |D_(d-1)|, the zero sentinel after the piece, when c_i = 0.
    """
    cells = np.indices((p,) * m).reshape(m, -1)  # digits of each flat index
    degree = cells.sum(axis=0)
    order = np.argsort(degree, kind="stable")
    sizes = np.bincount(degree)
    starts = np.cumsum(sizes) - sizes
    place = np.empty_like(degree)  # position of each cell inside its piece
    place[order] = np.arange(len(order)) - starts[degree[order]]
    below = np.arange(p**m) - (p ** np.arange(m - 1, -1, -1))[:, None]  # c - e_i
    gather = np.where(cells > 0, place[np.maximum(below, 0)], sizes[degree - 1])
    pieces = np.split(gather.T[order], starts[1:])[1:]  # D_0 has no source
    for piece in pieces:
        piece.flags.writeable = False
    return tuple(pieces)


class TruncatedPolynomialRing:
    """k[x_1..x_m] with every variable's p-th power truncated to zero."""

    def __init__(self, field: FieldSpec, nvars: int):
        if nvars < 1:
            raise ValueError("need at least one variable")
        # p >= 2, so capping the exponent at the bit length of the limit keeps
        # p^m cheap to compute and still decides the comparison
        if field.p ** min(nvars, MAX_GRID_CELLS.bit_length()) > MAX_GRID_CELLS:
            raise ValueError(f"{field.p}^{nvars} coefficient grid exceeds the limit of {MAX_GRID_CELLS} cells")
        self.field = field
        self.nvars = nvars
        self.p = field.p
        self.ops = FieldOps(field)
        # members per stack chunk, read when the ring is made from the piece
        # sizes |D_d|, the coefficients of (1 + x + ... + x^(p-1))^m; the
        # gathers themselves are built on the first top_monomial_scalar call
        sizes = np.ones(1, dtype=np.int64)
        for _ in range(nvars):
            sizes = np.convolve(sizes, np.ones(self.p, dtype=np.int64))
        self.chunk = max(1, linalg.MAX_STACK_CELLS // (nvars * int(sizes.max()) * field.n))

    def top_monomial_scalar(self, stack: np.ndarray) -> np.ndarray:
        """(B,) codes of the scalars lambda_b with (prod_j L_j^(p-1)) =
        lambda_b * top monomial, where L_j = sum_i stack[b, j, i] x_i.

        Computed self.chunk members at a time, with no invertibility
        check: a singular member's scalar is 0.
        """
        stack = np.asarray(stack, dtype=np.int64)
        if stack.ndim != 3 or stack.shape[1:] != (self.nvars, self.nvars):
            raise ValueError("substitution matrix stack has the wrong shape")
        lams = [np.zeros(0, dtype=np.int64)]
        for lo in range(0, len(stack), self.chunk):
            lams.append(self._top_scalars(stack[lo : lo + self.chunk]))
        return np.concatenate(lams)

    def _top_scalars(self, stack: np.ndarray) -> np.ndarray:
        """Scalar codes of one chunk, multiplied out one degree at a time.

        acc holds the planes of piece D_d and a zero sentinel cell, as
        nonnegative integers up to top, congruent mod p to the true planes.
        An entry of the float64 product sums m*n terms, each an entry of
        acc times a matrix entry below p, so it is at most top * growth with
        growth = m*n*(p-1).  acc is reduced, to top = p - 1, only when that
        bound would reach linalg.EXACT_FLOAT_BOUND = 2^52: every partial sum
        is then an integer below 2^52 and the product is exact.  After a
        reduction the bound is m*n*(p-1)^2; p^m <= MAX_GRID_CELLS gives
        m <= 12 and p <= 4096, and n <= MAX_EXTENSION_DEGREE = 8, so it is
        below 12 * 8 * 4095^2 < 2^31 and a reduction always makes room.
        The top planes are reduced by encode.
        """
        size, p, n = len(stack), self.p, self.ops.n
        mats = self._mult_matrices(stack)
        growth = self.nvars * n * (p - 1)
        acc = np.zeros((size, 2, n))
        acc[:, 0, 0] = 1  # the planes of 1
        top = 1
        for d, gather in enumerate(_degree_gathers(p, self.nvars)):
            if top * growth >= linalg.EXACT_FLOAT_BOUND:
                np.remainder(acc, p, out=acc)
                top = p - 1
            top *= growth
            terms = np.take(acc, gather, axis=1).reshape(size, len(gather), -1)
            acc = np.zeros((size, len(gather) + 1, n))
            np.matmul(terms, mats[d // (p - 1)], out=acc[:, :-1])
        return self.ops.encode(acc[:, 0].astype(np.int64))

    def _mult_matrices(self, stack: np.ndarray) -> np.ndarray:
        """(m, B, m*n, n) float64: block [j, b] maps the planes of f, taken
        as (i, l), to the planes of sum_i stack[b, j, i] * f_i.

        Row (i, l) holds the planes of stack[b, j, i] * t^l, its shifted
        planes reduced mod p.
        """
        mats = (self.ops.shifted_planes(stack) % self.p).swapaxes(0, 1)  # (j, b, i, l, k)
        return np.ascontiguousarray(mats, dtype=np.float64).reshape(
            self.nvars, len(stack), self.nvars * self.ops.n, self.ops.n
        )
