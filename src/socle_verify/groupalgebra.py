"""Group algebras kG of finite p-groups over GF(p^n).

Elements are (|G|,) int64 arrays of field codes indexed by the group's
normal-form order, and stacks of them are (B, |G|) arrays; there is no
element class.  GroupAlgebra.parse and format read and write literals,
multiply_codes multiplies and FieldOps adds and scales.  Because G is a
p-group and char k = p, the algebra is local: the Jacobson radical is
the augmentation ideal J, its powers give a filtration that ends in a
one-dimensional socle spanned by the sum of all group elements, and the
filtration is what everything downstream (dimension subgroups, graded
algebra, automorphism blocks) is measured against.

The filtration is read off the Jennings monomials in lifts of the
dimension-subgroup quotients (RadicalFiltration), over the prime field,
and reused for every field of the same characteristic, with no echelon
form: the monomial coordinates of x (a gather into lift-word order and a
p x p binomial matrix per lift) of weight < r vanish exactly when x lies
in J^r, and its weight-r ones are its class in J^r/J^(r+1).  A basis of
J^r is read off in closed form too: each lift word of weight >= r less
its terms on the monomials of weight < r (RadicalFiltration.basis).  The
oracle radical_filtration_by_products() echelonizes the stacked products
J^r (g_i - 1) instead.  The filtration is also the one holder of the
Jennings layers F_r/F_(r+1): the series, the lifts of each layer, and
each lift's table index, monomial row and degree, which JenningsBasis and
the automorphism checks read from it.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .ffield import GF, FieldMismatch, FieldSpec, split_terms
from . import linalg
from .linalg import FieldOps
from .pgroup import PcGroup

# the bound on narrow left factors in multiply_codes (see its docstring)
SPARSE_PRODUCT_SHARE = 8

__all__ = [
    "GroupAlgebra",
    "RadicalFiltration",
    "FiltrationError",
    "NotAUnit",
    "radical_filtration",
    "radical_filtration_by_products",
    "dimension_subgroups_definitional",
    "series_definitions_agree",
]


class FiltrationError(ValueError):
    """Radical filtration or socle structure violates a required invariant."""


class NotAUnit(ValueError):
    """Element has augmentation zero, hence lies in the radical."""


def column_sums(ops: FieldOps, codes: np.ndarray) -> np.ndarray:
    """Field sums of codes along axis 0.

    For a vector this is its augmentation; for an automorphism matrix it is
    the augmentation of every column (the image of every group element).
    """
    if ops.n == 1:
        return codes.sum(axis=0) % ops.p
    return ops.encode(ops.decode(codes).sum(axis=0))


class RadicalFiltration:
    """J^0 > J^1 > ... > J^s > J^(s+1) = 0, read off the Jennings monomials.

    group.jennings_lifts() gives the table indices of y_1, ..., y_M, in
    ascending degree, lifting bases of the quotients F_r/F_(r+1) of the
    recursive dimension series.  The |G| monomials prod_j (y_j - 1)^(e_j)
    with 0 <= e_j < p have weight sum_j e_j deg(y_j), and by Jennings'
    theorem those of weight >= r form a basis of J^r, so dims and gr_dims
    are weight counts.  One prefix pass gives the lift words
    y_1^(e_1) ... y_M^(e_M) and their weights; row sum_j e_j p^(j-1) of
    words, weights and coordinates() belongs to the exponent vector e.
    A monomial is its word plus words of smaller exponent vectors, so the
    monomials are a basis of kG exactly when the words enumerate G, which
    the build checks.  The filtration is prime-field data: ops is always
    GF(p)'s, and coordinates() takes the ops of any field of
    characteristic p.

    The layers: series[r-1] is F_r as a sorted tuple of table indices,
    ending at its first trivial term (0,), and lifts[r-1] the indices of
    the lifts of F_r/F_(r+1).  Over all M lifts in ascending degree,
    lift_indices[j] is the index of y_j, lift_rows[j] = p^j the row of its
    monomial y_j - 1, and lift_degrees[j] = weights[lift_rows[j]] the r
    with y_j in F_r but not in F_(r+1).
    """

    def __init__(self, group: PcGroup):
        self.group = group
        self.ops = FieldOps(GF(group.p))
        n = group.order
        p = group.p
        t = group.cayley_table
        self.series, self.lifts = group.jennings_lifts()

        words = np.zeros(1, dtype=np.int64)
        weights = np.zeros(1, dtype=np.int64)
        for r, layer in enumerate(self.lifts, start=1):
            for yi in layer:
                word_blocks, block_weights = [words], [weights]
                for e in range(1, p):
                    word_blocks.append(t[word_blocks[-1], yi])
                    block_weights.append(weights + e * r)
                words = np.concatenate(word_blocks)
                weights = np.concatenate(block_weights)
        if not np.array_equal(np.sort(words), np.arange(n)):
            raise FiltrationError("the lift words y_1^(e_1) ... y_M^(e_M) do not enumerate G")
        self.words = words
        self.weights = weights
        # group index of the j-th lift y_j, row of its monomial y_j - 1, and
        # its degree r, for y_j in F_r but not in F_(r+1)
        self.lift_indices = np.array([y for layer in self.lifts for y in layer], dtype=np.int64)
        self.lift_rows = p ** np.arange(len(self.lift_indices))
        self.lift_degrees = weights[self.lift_rows]
        # binomial[f, e] = C(f, e) mod p: y^f = sum_e C(f, e) (y - 1)^e
        self._binomial = np.array(
            [[math.comb(f, e) % p for e in range(p)] for f in range(p)], dtype=np.int64
        )

        self.gr_dims = [int(d) for d in np.bincount(weights)]
        self.socle_degree = len(self.gr_dims) - 1
        # dims[r] = dim J^r, for r = 0 .. s + 1
        self.dims = [int(d) for d in np.cumsum(self.gr_dims[::-1])[::-1]] + [0]

    def coordinates(self, ops: FieldOps, codes: np.ndarray) -> np.ndarray:
        """Coordinates on the Jennings monomials of the columns of codes.

        codes is a (|G|,) vector or a (|G|, k) array over any field of the
        group's characteristic.  Its rows are gathered into lift-word order,
        then y_1^(f_1) ... y_M^(f_M) = prod_j sum_(e_j) C(f_j, e_j) (y_j - 1)^(e_j),
        expanded in order, is applied one lift axis at a time.
        """
        p = self.group.p
        m = len(self.lift_rows)
        x = ops.decode(np.asarray(codes)[self.words])
        rest = x.shape[1:]
        x = x.reshape((p,) * m + rest)
        for _ in range(m):
            # the last lift axis is contracted and its exponent comes out in
            # front, so after m passes the axes are back in their order
            x = np.tensordot(self._binomial, x, axes=([0], [m - 1])) % p
        return ops.encode(x.reshape((len(self.words),) + rest))

    def basis(self, r: int) -> np.ndarray:
        """The (dim J^r, |G|) codes of a basis of J^r, read off in closed form:
        for each lift word y^e of weight >= r, in row order, its part on the
        Jennings monomials of weight >= r.

        y^e = sum_f prod_j C(e_j, f_j) (y_j - 1)^(f_j), and by Jennings'
        theorem the terms of weight >= r lie in J^r; the row is y^e minus
        the terms of weight < r, monomial f holding prod_j C(f_j, g_j)
        (-1)^(f_j-g_j) at y^g.  Those terms hold only words of weight < r,
        so row e is y^e plus lower words, and the rows are independent.  A
        product of M factors below p stays below |G|.  A row of J^2 holds
        only y^e, 1 and degree-1 lifts, which keeps the tails of random
        substitutions narrow.
        """
        p = self.group.p
        exponents = (np.arange(len(self.words))[:, None] // self.lift_rows) % p
        high, low = exponents[self.weights >= r], exponents[self.weights < r]
        signed = self._binomial * (-1) ** np.add.outer(np.arange(p), np.arange(p)) % p
        coefficients = self._binomial[high[:, None], low[None]].prod(axis=-1) % p
        monomials = signed[low[:, None], exponents[None]].prod(axis=-1) % p
        rows = self.ops.sub(np.eye(len(self.words), dtype=np.int64)[self.weights >= r],
                            self.ops.matmul(coefficients, monomials))
        return rows[:, np.argsort(self.words)]

    def matches(self, bases: list[np.ndarray]) -> bool:
        """Whether bases[r], of independent rows, spans J^r for every r: it
        has dims[r] rows, and their coordinates of weight < r vanish."""
        return len(bases) == len(self.dims) and all(
            b.shape[0] == self.dims[r]
            and not self.coordinates(self.ops, b.T)[self.weights < r].any()
            for r, b in enumerate(bases)
        )


def radical_filtration_by_products(
    group: PcGroup, ops: FieldOps | None = None
) -> tuple[list[np.ndarray], list[list[int]]]:
    """(bases, pivots): RREF bases of the filtration, by brute force.

    The oracle for RadicalFiltration: J^(r+1) is echelonized from the
    stacked m*dim J^r x |G| products J^r (g_i - 1).
    """
    ops = ops if ops is not None else FieldOps(GF(group.p))
    n = group.order
    t = group.cayley_table
    inv = group.inverse_table
    rtake = [t[:, int(inv[gi])] for gi in group.generator_indices]

    first = np.zeros((n - 1, n), dtype=np.int64)
    first[:, 0] = ops.p - 1
    first[np.arange(n - 1), np.arange(1, n)] = 1
    bases: list[np.ndarray] = [ops.eye(n)]
    pivots: list[list[int]] = [list(range(n))]
    b, piv = ops.rref(first)
    bases.append(b)
    pivots.append(piv)
    while bases[-1].shape[0] > 0:
        prev = bases[-1]
        # J^(r+1) = sum_i J^r (g_i - 1): the augmentation ideal is
        # generated, as a right ideal over itself, by the generator
        # differences
        stacked = np.vstack([ops.sub(prev[:, rt], prev) for rt in rtake])
        b, piv = ops.rref(stacked)
        if b.shape[0] >= prev.shape[0]:
            raise FiltrationError("radical filtration failed to descend strictly")
        bases.append(b)
        pivots.append(piv)
    return bases, pivots


def radical_filtration(group: PcGroup) -> RadicalFiltration:
    """Prime-field radical filtration, built once per group and kept on it."""
    if group._radical_filtration is None:
        group._radical_filtration = RadicalFiltration(group)
    return group._radical_filtration


def dimension_subgroups_definitional(group: PcGroup) -> list[tuple[int, ...]]:
    """F_r = {g : g - 1 in J^r}, straight from the definition.

    Entry k of the result is F_(k+1), the sorted tuple of its indices.
    Interior repeats (zero layers) are kept so the indexing carries
    degrees; the chain ends at its first trivial term (0,), matching
    jennings_series_recursive.
    """
    filt = radical_filtration(group)
    ops = filt.ops
    n = group.order
    diffs = ops.eye(n)
    diffs[0] = ops.p - 1
    diffs[0, 0] = 0
    # column g holds the coordinates of g - 1, which lies in J^r when
    # those of weight < r vanish
    coords = filt.coordinates(ops, diffs)
    out: list[tuple[int, ...]] = []
    for r in range(1, filt.socle_degree + 2):
        idxs = np.flatnonzero(~coords[filt.weights < r].any(axis=0)).tolist()
        if group._closure_indices(idxs) != idxs:
            raise FiltrationError(f"membership set for J^{r} is not a subgroup")
        out.append(tuple(idxs))
        if out[-1] == (0,):
            break
    if out[-1] != (0,):
        raise FiltrationError("dimension subgroup chain did not reach the trivial group")
    return out


def series_definitions_agree(group: PcGroup) -> bool:
    """Whether the recursive dimension series the filtration was built from,
    radical_filtration(group).series, equals the definitional one.

    The definitional chain may run on in trivial terms past the recursive one.
    """
    recursive = radical_filtration(group).series
    definitional = dimension_subgroups_definitional(group)
    return definitional[: len(recursive)] == recursive and all(
        sub == (0,) for sub in definitional[len(recursive) :]
    )


class GroupAlgebra:
    """The algebra kG with a vectorized convolution product."""

    def __init__(self, group: PcGroup, field: FieldSpec):
        if field.p != group.p:
            raise FieldMismatch(
                f"group has prime {group.p} but field has characteristic {field.p}"
            )
        self.group = group
        self.field = field
        self.ops = FieldOps(field)
        t = group.cayley_table
        inv = group.inverse_table
        # khinv[k,h] = index of k * h^-1; left multiplication by a is then
        # the matrix a[khinv]
        self._khinv = t[:, inv]
        self._hkinv = t[inv].T  # hkinv[k,g] = index of g^-1 * k

    @property
    def dimension(self) -> int:
        return self.group.order

    @property
    def filtration(self) -> RadicalFiltration:
        return radical_filtration(self.group)

    @property
    def socle_degree(self) -> int:
        return self.filtration.socle_degree

    # -- elements: (|G|,) code vectors ---------------------------------------------

    def one(self) -> np.ndarray:
        """The codes of 1, the identity's basis vector."""
        return np.eye(1, self.dimension, dtype=np.int64)[0]

    def parse(self, text: str) -> np.ndarray:
        """The codes of a literal such as 'g1 + 2*g2 g3 + (t+1)*g1^2'."""
        return self.parse_terms(text, lambda word: np.eye(
            1, self.dimension, self.group.parse_word(word), dtype=np.int64)[0])

    def parse_terms(self, text: str, monomial) -> np.ndarray:
        """The codes of a literal sum of signed terms 'c*word', where c is a
        decimal residue or a parenthesized field literal, 1 if omitted, and
        monomial(word) gives the codes of the word ('1' when the term has
        none): the one accumulation of kG and subst: literals."""
        acc = np.zeros(self.dimension, dtype=np.int64)
        for sign, term in split_terms(text):
            coeff, word = _split_coeff(term, self.field)
            acc = (self.ops.add if sign > 0 else self.ops.sub)(acc, self.ops.mul(monomial(word), coeff))
        return acc

    def format(self, codes: np.ndarray) -> str:
        """The literal of codes that parse() reads back: a term 'c*word' per
        nonzero, in group index order, c parenthesized over an extension
        field and left out when it is 1; '0' for zero."""
        terms = []
        for idx in np.flatnonzero(codes).tolist():
            word = self.group.word_str(idx)
            c = self.field.element_from_code(int(codes[idx]))
            terms.append(word if codes[idx] == 1 else f"{c}*{word}" if self.field.n == 1 else f"({c})*{word}")
        return " + ".join(terms) if terms else "0"

    # -- multiplication ----------------------------------------------------------

    def left_mult_matrix(self, codes: np.ndarray) -> np.ndarray:
        """Matrix of x -> a*x in the group basis (column-vector convention);
        a (B, |G|) stack of codes gives the (B, |G|, |G|) stack of matrices."""
        return codes.take(self._khinv, axis=-1)

    def right_mult_matrix(self, codes: np.ndarray) -> np.ndarray:
        """Matrix of x -> x*a, or their stack, as left_mult_matrix."""
        return codes.take(self._hkinv, axis=-1)

    def multiply_codes(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a*b for (|G|,) code vectors, or member by member for a (B, |G|)
        stack a and a (B, |G|) stack b, or every column of a (B, |G|, k) one.

        A left factor of w nonzeros per member, w k SPARSE_PRODUCT_SHARE <=
        n^2 |G| over GF(p^n), is w |G| k gathered table products; a wider one
        is |G|^2 gathers and n^2 BLAS plane products (README: measurements).
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.ndim == 1:
            return self.multiply_codes(a[None], b[None])[0]
        columns = b if b.ndim == 3 else b[..., None]
        width = (a != 0).sum(axis=1).max(initial=0)
        if width * columns.shape[2] * SPARSE_PRODUCT_SHARE <= self.ops.n**2 * self.dimension:
            out = self._support_product(*self._left_support(a), columns)
        else:
            out = self._by_member_chunks(len(a), columns.shape[1:], self.dimension**2, lambda part: (
                self.ops.matmul_stack(self.left_mult_matrix(a[part]), columns[part])))
        return out if b.ndim == 3 else out[..., 0]

    def _left_support(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(gathers, coeffs) of a (B, |G|) stack: the (B, w, |G|) indices of
        h^-1 g and the (B, w) coefficients a[h] at each member's nonzeros h,
        padded to the widest member with coefficient 0."""
        width = int((a != 0).sum(axis=1).max(initial=0))
        support = np.argsort(a == 0, axis=1, kind="stable")[:, :width]
        return self._hkinv.T[support], np.take_along_axis(a, support, axis=1)

    def _support_product(self, gathers: np.ndarray, coeffs: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """a x for every column x of a (B, |G|, k) stack, a given by its
        _left_support: (a x)[g] = sum_h a[h] x[h^-1 g], one gather of the
        (B, w, |G|, k) terms, one product and one field sum over w."""
        members = np.arange(len(columns))[:, None, None]
        cells = coeffs.shape[1] * math.prod(columns.shape[1:])
        return self._by_member_chunks(len(columns), columns.shape[1:], cells, lambda part: column_sums(
            self.ops, self.ops.mul(coeffs[part, :, None, None], columns[members[part], gathers[part]]).swapaxes(0, 1)))

    def _by_member_chunks(self, count: int, shape: tuple[int, ...], cells: int, product) -> np.ndarray:
        """product(part) of every member chunk, as one (count,) + shape array;
        a single chunk's result is returned as it is."""
        chunks = linalg.member_chunks(count, cells)
        if len(chunks) == 1:
            return product(chunks[0])
        out = np.zeros((count,) + shape, dtype=np.int64)
        for part in chunks:
            out[part] = product(part)
        return out

    def unit_inverse(self, units: np.ndarray) -> np.ndarray:
        """The (B, |G|) codes of the inverses of a (B, |G|) stack of unit codes.

        u = eps(1 - z) with z in J, and z^(s+1) = 0 for the socle degree s,
        so u^-1 = eps^-1 (1 + z + ... + z^s).  When s w <= |G| for the w
        nonzeros of the widest z, the sum runs forward, each power one
        product by z's support, gathered once; else it is
        (1 + z)(1 + z^2)(1 + z^4)..., at most s.bit_length() squarings.  The
        members run together and stop at the first power that is 0 in every
        member.  Every member is checked by u u^-1 = 1.
        """
        units = np.asarray(units, dtype=np.int64)
        eps = column_sums(self.ops, units.T)
        if not eps.all():
            raise NotAUnit("element lies in the augmentation ideal")
        einv = self.ops.inv(eps)[:, None]
        one = self.one()
        z = self.ops.sub(one, self.ops.mul(units, einv))
        acc = self.ops.add(one, z)
        if self.socle_degree * (z != 0).sum(axis=1).max(initial=0) <= self.dimension:
            support, power = self._left_support(z), z[..., None]
            for _ in range(self.socle_degree - 1):
                power = self._support_product(*support, power)
                if not power.any():
                    break
                acc = self.ops.add(acc, power[..., 0])
        else:
            for _ in range(self.socle_degree.bit_length() - 1):
                z = self.multiply_codes(z, z)
                if not z.any():
                    break
                acc = self.multiply_codes(acc, self.ops.add(one, z))
        inverses = self.ops.mul(acc, einv)
        if not np.array_equal(self.multiply_codes(units, inverses), np.broadcast_to(one, units.shape)):
            raise NotAUnit("the inverse series did not invert the element")
        return inverses

    # -- the socle -------------------------------------------------------------------

    def socle_vector(self) -> np.ndarray:
        """The codes of the sum of all group elements, which spans the socle.

        The socle, the two-sided annihilator of J, is the space fixed by
        left and right translation by every generator.  The Cayley table is
        certified to be a group table when the group is built, and the pc
        generators generate G, so translations act transitively on the
        group basis and the only fixed vectors are the constants.  The
        filtration agrees by construction.  dims[s] counts the monomials of
        the top weight s, and only the all-(p-1) exponent vector has that
        weight, so J^s is spanned by the top monomial prod_j (y_j - 1)^(p-1).
        In characteristic p, (y - 1)^(p-1) = sum_(e<p) y^e, so that monomial
        is the sum of the lift words y_1^(e_1) ... y_M^(e_M), which is the
        sum of all elements of G once the build has checked that the words
        enumerate G.  socle_vector_by_nullspace() recomputes the fixed space
        and JenningsBasis.socle_product() the top monomial, as oracles.
        """
        return np.ones(self.dimension, dtype=np.int64)

    def socle_vector_by_nullspace(self) -> np.ndarray:
        """Codes of the spanning vector of the translation-fixed space, by
        brute force, in RREF.

        The oracle for socle_vector(): the nullspace of the stacked
        (T - I) blocks of left and right translation by every generator, a
        2m|G| x |G| system over the prime field.  Raises FiltrationError
        unless the fixed space is one-dimensional.
        """
        t = self.group.cayley_table
        inv = self.group.inverse_table
        n = self.dimension
        ops = self.filtration.ops
        rows = []
        for gi in self.group.generator_indices:
            for gather in (t[int(inv[gi])], t[:, int(inv[gi])]):
                block = np.zeros((n, n), dtype=np.int64)
                block[np.arange(n), gather] = 1
                block[np.arange(n), np.arange(n)] = (block[np.arange(n), np.arange(n)] - 1) % ops.p
                rows.append(block)
        fixed = ops.nullspace(np.vstack(rows))
        if fixed.shape[0] != 1:
            raise FiltrationError(
                f"translation-fixed space has dimension {fixed.shape[0]}, expected 1"
            )
        return fixed[0]


def _split_coeff(term: str, field: FieldSpec) -> tuple[int, str]:
    """(code of the coefficient, word) of one term."""
    t = term.strip()
    if t.startswith("("):
        # split_terms has balanced the parentheses, and field literals hold none
        inner, _, rest = t[1:].partition(")")
        return field.code_of(field.parse(inner)), rest.lstrip().removeprefix("*").strip() or "1"
    m = re.match(r"^(\d+)\s*\*?\s*(.*)$", t)
    if m:
        return int(m.group(1)) % field.p, m.group(2).strip() or "1"
    return 1, t
