"""Truncated polynomial rings k[x_1, ..., x_m] / (x_1^p, ..., x_m^p).

This is the shape of the graded algebra of kG when every generator sits
in the same filtration degree (and, with a degree-weighted grading, in
general).  Elements are dense coefficient grids of shape (p, ..., p).
A product of two elements visits only the nonzero cells of its right
factor: each adds a shifted copy of the left factor's coefficient planes,
times that cell's coefficient, into unreduced int64 planes, and the sum
is reduced mod p, folded mod the field's modulus and encoded once at the
end (delayed modular reduction, as in FFLAS-FFPACK).

The ring's one nontrivial job here: push an invertible linear change of
variables through the top monomial prod_j x_j^((p-1)), by multiplying
one linear form at a time into an accumulator.  The image of a linear
substitution is homogeneous, the top degree m*(p-1) contains no
monomial other than the top one inside the truncation, so the image of
the top monomial is an exact scalar multiple of itself; that scalar is
what gets compared against det^(p-1).

top_monomial_scalar does not use the dense grid.  After d linear
factors the accumulator lives on the piece D_d of monomials of total
degree d, and cell c of D_d receives acc[c - e_i] * a_i from each
variable i with c_i >= 1.  Per (p, m), one gather array per degree maps
every cell of D_d and variable i to its source in D_(d-1), or to a zero
sentinel when c_i = 0.  One factor is then one gather of the
accumulator's coefficient planes, one batched float64 product with the
members' n x n multiplication matrices over GF(p) and one reduction
mod p.  The top piece is the single top monomial, whose planes are
encoded to the scalar.

top_monomial_scalar takes a stack of matrices (B, m, m) and returns B
scalar codes, computed in chunks whose gathered block (members x |D_d|
cells x m variables x n planes) holds at most MAX_STACK_CELLS entries in
every degree, and at least one member, so the memory a stack takes stays
small however many matrices a caller passes.  A stack is not checked for
invertibility: a singular member gets the scalar 0, which is its
det^(p-1).  A single matrix must be invertible.
"""

from __future__ import annotations

import functools

import numpy as np

from .ffield import FieldElement, FieldMismatch, FieldSpec
from .linalg import FieldOps

__all__ = [
    "TruncatedPolynomialRing",
    "TruncatedPolynomial",
    "SingularMatrix",
    "MAX_GRID_CELLS",
    "MAX_STACK_CELLS",
]

# largest p^m accepted; elements are dense int64 grids of p^m cells
MAX_GRID_CELLS = 4096
# float64 entries of top_monomial_scalar's gathered block per degree; a chunk
# has >= 1 member
MAX_STACK_CELLS = 2**14


class SingularMatrix(ValueError):
    """Linear substitutions must be invertible."""


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
            raise ValueError(
                f"{field.p}^{nvars} coefficient grid exceeds the limit of {MAX_GRID_CELLS} cells"
            )
        self.field = field
        self.nvars = nvars
        self.p = field.p
        self.ops = FieldOps(field)
        self.shape = (self.p,) * nvars
        # planes of t^n modulo the modulus, for the companion shift
        self._t_n = np.array([(-c) % self.p for c in field.modulus[:-1]], dtype=np.int64)
        # members per stack chunk, read when the ring is made from the piece
        # sizes |D_d|, the coefficients of (1 + x + ... + x^(p-1))^m; the
        # gathers themselves are built on the first top_monomial_scalar call
        sizes = np.ones(1, dtype=np.int64)
        for _ in range(nvars):
            sizes = np.convolve(sizes, np.ones(self.p, dtype=np.int64))
        self.chunk = max(1, MAX_STACK_CELLS // (nvars * int(sizes.max()) * field.n))

    def zero(self) -> TruncatedPolynomial:
        return TruncatedPolynomial(self, np.zeros(self.shape, dtype=np.int64))

    def one(self) -> TruncatedPolynomial:
        grid = np.zeros(self.shape, dtype=np.int64)
        grid[(0,) * self.nvars] = 1
        return TruncatedPolynomial(self, grid)

    def scalar(self, c: int | FieldElement) -> TruncatedPolynomial:
        grid = np.zeros(self.shape, dtype=np.int64)
        grid[(0,) * self.nvars] = self.field.code_of(self.field.element(c))
        return TruncatedPolynomial(self, grid)

    def variable(self, j: int) -> TruncatedPolynomial:
        if not 1 <= j <= self.nvars:
            raise ValueError(f"variable index {j} out of range 1..{self.nvars}")
        grid = np.zeros(self.shape, dtype=np.int64)
        grid[tuple(1 if k == j - 1 else 0 for k in range(self.nvars))] = 1
        return TruncatedPolynomial(self, grid)

    def monomial(self, exponents: tuple[int, ...], coeff: int | FieldElement = 1) -> TruncatedPolynomial:
        if len(exponents) != self.nvars or any(not 0 <= e < self.p for e in exponents):
            raise ValueError(f"exponents must be {self.nvars} values in 0..{self.p - 1}")
        grid = np.zeros(self.shape, dtype=np.int64)
        grid[tuple(exponents)] = self.field.code_of(self.field.element(coeff))
        return TruncatedPolynomial(self, grid)

    def top_monomial(self) -> TruncatedPolynomial:
        return self.monomial((self.p - 1,) * self.nvars)

    def linear_form(self, coeffs: np.ndarray) -> TruncatedPolynomial | np.ndarray:
        """sum_i coeffs[i] * x_(i+1) from a vector of field codes.

        A (B, m) stack of vectors gives the (B,) + shape stack of grids.
        """
        coeffs = np.asarray(coeffs, dtype=np.int64)
        if coeffs.ndim not in (1, 2) or coeffs.shape[-1] != self.nvars:
            raise ValueError(f"need {self.nvars} coefficients")
        grid = np.zeros(coeffs.shape[:-1] + self.shape, dtype=np.int64)
        for i in range(self.nvars):
            grid[(...,) + tuple(1 if k == i else 0 for k in range(self.nvars))] = coeffs[..., i]
        return TruncatedPolynomial(self, grid) if coeffs.ndim == 1 else grid

    def _mul_grids(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Truncated products of coefficient grids, member by member.

        a and b are single grids or (B,) + shape stacks of codes.
        """
        single = a.ndim == self.nvars
        if single:
            a, b = a[None], b[None]
        out = self.ops.encode(self._mul_planes(self.ops.decode(a), b))
        return out[0] if single else out

    def _mul_planes(self, planes: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Coefficient planes (B,) + shape + (n,) times code grids (B,) + shape.

        Visits the cells nonzero in any member of b and adds the shifted
        planes, times each member's coefficient planes there, into
        unreduced int64 planes; reduced once at the end.
        """
        ops = self.ops
        n, p = ops.n, self.p
        # unreduced product planes t^0 .. t^(2n-2): a cell of a plane sums at
        # most p^m * n terms, each below p^2.  p^m <= MAX_GRID_CELLS = 4096
        # forces p < 2^12, and n <= 8, so a sum stays below 2^39, far from 2^63
        acc = np.zeros(planes.shape[:-1] + (2 * n - 1,), dtype=np.int64)
        lead = (slice(None),)
        for exps in zip(*np.nonzero(b.any(axis=0))):
            dst = lead + tuple(slice(e, p) for e in exps)
            src = planes[lead + tuple(slice(0, p - e) for e in exps)]
            cell = ops.decode(b[lead + exps]).T.reshape((n, -1) + (1,) * (self.nvars + 1))
            for j in range(n):
                if cell[j].any():
                    acc[dst + (slice(j, j + n),)] += src * cell[j]
        acc %= p
        return acc if n == 1 else ops.reduce_planes(acc)

    def _substitution_rows(self, matrix: np.ndarray) -> np.ndarray:
        """Validate one linear substitution x_j -> sum_i matrix[j,i] x_i;
        a singular matrix raises SingularMatrix."""
        matrix = np.asarray(matrix, dtype=np.int64)
        if matrix.shape != (self.nvars, self.nvars):
            raise ValueError("substitution matrix has the wrong shape")
        if self.ops.det(matrix) == 0:
            raise SingularMatrix("linear substitution matrix is singular")
        return matrix

    def top_monomial_scalar(self, matrix: np.ndarray) -> FieldElement | np.ndarray:
        """Scalar lambda with (prod_j L_j^(p-1)) = lambda * top monomial,
        where L_j = sum_i matrix[j,i] x_i.

        One matrix must be invertible and gives a FieldElement.  A
        (B, m, m) stack gives the (B,) codes of its members' scalars,
        computed self.chunk members at a time, with no invertibility
        check: a singular member's scalar is 0.
        """
        matrix = np.asarray(matrix, dtype=np.int64)
        if matrix.ndim == 2:
            stack = self._substitution_rows(matrix)[None]
            return self.field.element_from_code(int(self.top_monomial_scalar(stack)[0]))
        if matrix.ndim != 3 or matrix.shape[1:] != (self.nvars, self.nvars):
            raise ValueError("substitution matrix has the wrong shape")
        lams = [np.zeros(0, dtype=np.int64)]
        for lo in range(0, len(matrix), self.chunk):
            lams.append(self._top_scalars(matrix[lo : lo + self.chunk]))
        return np.concatenate(lams)

    def _top_scalars(self, stack: np.ndarray) -> np.ndarray:
        """Scalar codes of one chunk, multiplied out one degree at a time.

        acc holds the planes of piece D_d and a zero sentinel cell.  The
        float64 product sums m*n terms below (p-1)^2 per entry, exact while
        m*n*(p-1)^2 < linalg.EXACT_FLOAT_BOUND = 2^52; p^m <= MAX_GRID_CELLS
        gives m <= 12 and p <= 4096, and n <= MAX_EXTENSION_DEGREE = 8, so
        it is below 12 * 8 * 4095^2 < 2^31.
        """
        size, p, n = len(stack), self.p, self.ops.n
        mats = self._mult_matrices(stack)
        acc = np.zeros((size, 2, n))
        acc[:, 0, 0] = 1  # the planes of 1
        for d, gather in enumerate(_degree_gathers(p, self.nvars)):
            terms = np.take(acc, gather, axis=1).reshape(size, len(gather), -1)
            acc = np.zeros((size, len(gather) + 1, n))
            np.remainder(terms @ mats[d // (p - 1)], p, out=acc[:, :-1])
        return self.ops.encode(acc[:, 0].astype(np.int64))

    def _mult_matrices(self, stack: np.ndarray) -> np.ndarray:
        """(m, B, m*n, n) float64: block [j, b] maps the planes of f, taken
        as (i, l), to the planes of sum_i stack[b, j, i] * f_i.

        Row (i, l) holds the planes of stack[b, j, i] * t^l, made from the
        planes of stack[b, j, i] by l companion shifts.
        """
        p, n = self.p, self.ops.n
        cols = [self.ops.decode(stack)]
        for _ in range(n - 1):
            low = cols[-1]
            shifted = np.zeros_like(low)
            shifted[..., 1:] = low[..., :-1]
            cols.append((shifted + low[..., -1:] * self._t_n) % p)
        mats = np.stack(cols, axis=-2).swapaxes(0, 1)  # (j, b, i, l, k)
        return np.ascontiguousarray(mats, dtype=np.float64).reshape(
            self.nvars, len(stack), self.nvars * n, n
        )


class TruncatedPolynomial:
    __slots__ = ("ring", "grid")

    def __init__(self, ring: TruncatedPolynomialRing, grid: np.ndarray):
        self.ring = ring
        self.grid = grid

    def _check(self, other: "TruncatedPolynomial") -> None:
        if other.ring is not self.ring:
            raise FieldMismatch("polynomials from different rings")

    def __add__(self, other: "TruncatedPolynomial") -> "TruncatedPolynomial":
        self._check(other)
        return TruncatedPolynomial(self.ring, self.ring.ops.add(self.grid, other.grid))

    def __sub__(self, other: "TruncatedPolynomial") -> "TruncatedPolynomial":
        self._check(other)
        return TruncatedPolynomial(self.ring, self.ring.ops.sub(self.grid, other.grid))

    def __neg__(self) -> "TruncatedPolynomial":
        return TruncatedPolynomial(self.ring, self.ring.ops.neg(self.grid))

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            code = self.ring.field.code_of(self.ring.field.element(other))
            return TruncatedPolynomial(self.ring, self.ring.ops.mul(self.grid, np.int64(code)))
        if isinstance(other, TruncatedPolynomial):
            self._check(other)
            return TruncatedPolynomial(self.ring, self.ring._mul_grids(self.grid, other.grid))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "TruncatedPolynomial":
        if k < 0:
            raise ValueError("negative powers are not defined here")
        acc = self.ring.one()
        for _ in range(k):
            acc = acc * self
        return acc

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedPolynomial)
            and other.ring is self.ring
            and np.array_equal(self.grid, other.grid)
        )

    def __hash__(self):
        return hash((id(self.ring), self.grid.tobytes()))

    def is_zero(self) -> bool:
        return not self.grid.any()

    def coefficient(self, exponents: tuple[int, ...]) -> FieldElement:
        return self.ring.field.element_from_code(int(self.grid[tuple(exponents)]))

    def substitute(
        self, images: "list[TruncatedPolynomial] | np.ndarray"
    ) -> "TruncatedPolynomial":
        """Evaluate at x_j -> images[j-1].

        A square matrix of field codes means the linear substitution
        x_j -> sum_i matrix[j,i] x_i; it must be invertible.
        """
        if isinstance(images, np.ndarray):
            if images.ndim != 2:
                raise ValueError("substitute takes one matrix, not a stack")
            matrix = self.ring._substitution_rows(images)
            images = [self.ring.linear_form(matrix[j]) for j in range(self.ring.nvars)]
        if len(images) != self.ring.nvars:
            raise ValueError(f"need {self.ring.nvars} images")
        for img in images:
            self._check(img)
        pow_tables = []
        for img in images:
            tab = [self.ring.one()]
            for _ in range(self.ring.p - 1):
                tab.append(tab[-1] * img)
            pow_tables.append(tab)
        acc = self.ring.zero()
        for exps in np.ndindex(*self.ring.shape):
            c = int(self.grid[exps])
            if not c:
                continue
            term = self.ring.scalar(self.ring.field.element_from_code(c))
            for j, e in enumerate(exps):
                if e:
                    term = term * pow_tables[j][e]
            acc = acc + term
        return acc

    def __str__(self) -> str:
        terms = []
        for exps in np.ndindex(*self.ring.shape):
            c = int(self.grid[exps])
            if not c:
                continue
            mono = " ".join(
                f"x{j + 1}" if e == 1 else f"x{j + 1}^{e}" for j, e in enumerate(exps) if e
            )
            lit = str(self.ring.field.element_from_code(c))
            if not mono:
                terms.append(lit if self.ring.field.n == 1 else f"({lit})")
            elif c == 1:
                terms.append(mono)
            else:
                terms.append(f"{lit}*{mono}" if self.ring.field.n == 1 else f"({lit})*{mono}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"TruncatedPolynomial({self})"
