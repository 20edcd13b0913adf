"""Independent checkers shared by the unit tests and the acceptance gate.

These work directly in the group algebra: a claimed bracket or p-power
value is confirmed by forming the corresponding algebra element and
testing the congruence one radical power deeper.  None of it touches the
layer bookkeeping inside the jennings module.  Group elements are table
indices here as in the package.  The collector puts words in normal form
from the presentation alone, the oracle for words and products in the
certified table; it works on exponent vectors, which normal_form_index
turns into indices without the table.  The group-table oracles at the end
(the table by collection, the all-triples certificate, random
presentations and random loops) work on index tables.  The field-kernel
oracles (decode by division, the product one plane pair at a time, the
determinant by a column loop) are the FieldOps kernels as they were before
decode became a table gather, matmul one BLAS product and det a stacked
elimination on codes.  The report by members and the random inner draw
by elements are the verification and the inner automorphism as they were
built for one automorphism at a time, before runs were verified as stacks.
The data by matrix are an automorphism's lift images and socle image read
off its dense matrix, as verification read them before each constructor
computed them on its own.  The coordinate rows by identity are the
low-weight coordinates of the group basis as basis(r) formed them before
it built only those rows.
The product by matrix is GroupAlgebra.multiply_codes as it was before
narrow left factors became gathers over their support, and the sampled
pairs one at a time are check_pairs' sampled check as it was before the
pairs were grouped by their left element.
The substitution images by elements are one random_substitutions member
as it was drawn before the images were summed on their codes.  The top-monomial scalar by
grid products is TruncatedPolynomialRing.top_monomial_scalar as it was
before it worked degree by degree; GridRing and TruncatedPolynomial, the
ring's elements as dense coefficient grids, are what it multiplies.
Irreducibility by trial division is the default-modulus test as it was
before Rabin's test.  The filtration by monomial echelon is
RadicalFiltration as it was before it read dimensions off the monomial
weights and bases off the kernel of the monomial coordinates.  The
generators and closure by np.unique and the nullspace by np.setdiff1d are
PcGroup._generators_among, PcGroup._closure_indices and FieldOps.nullspace
as they were before their index sets became boolean index masks.

The small helpers (center, subgroup_closure, presentation_text,
in_row_space, layer_ranks, pbw_dimension, apply_automorphism, ...) are
API that only the tests use, kept here rather than in the package; so is
AlgebraElement, operator notation on the code arrays the package uses
for elements of kG.  Subgroups are sorted index tuples, as the package's
Jennings series are.  in_radical_power and gr_coordinates, which read an
element's Jennings coordinates, were GroupAlgebra methods, and solve and
reduce_rows were FieldOps methods, before they left the package with no
caller there.  The degree-one closure by witnesses is
JenningsBasis.degree_one_generates as it was before it read each layer's
span off lie_bracket and p_restriction.  The plane reduction by long
division reduces product planes modulo the field's modulus without the
table FieldOps reduces through.  is_pm1_power and DomainError were
FieldElement's (p-1)-st power test and its error, before gl-check
stopped testing a lambda equal to det^(p-1) for being such a power.
The top monomial by gathers is prod_j (y_j - 1)^(p-1) as RadicalFiltration
built it, one gather per factor, before the socle line was read off the
build's check that the lift words enumerate G.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from socle_verify.automorphisms import NotMultiplicative
from socle_verify.ffield import GF, FieldElement, FieldMismatch, _poly_mod
from socle_verify.groupalgebra import FiltrationError, column_sums, radical_filtration_by_products
from socle_verify.jennings import DimensionMismatch
from socle_verify.linalg import FieldOps
from socle_verify.pgroup import (
    InconsistentPresentation,
    PcGroup,
    _normal_form_blocks,
    associative_on_all_triples,
    catalog,
)
from socle_verify.truncsym import TruncatedPolynomialRing


class NotScalarMultiple(ValueError):
    """Image of the top monomial picked up lower-order terms."""


class SingularMatrix(ValueError):
    """Linear substitutions must be invertible."""


class DomainError(ValueError):
    """Raised when an argument is outside an operation's domain."""


def is_pm1_power(x):
    """Whether a unit x of GF(q) is a (p-1)-st power in the multiplicative group.

    The multiplicative group is cyclic of order q-1, so the (p-1)-st
    powers form its unique subgroup of index gcd(p-1, q-1) = p-1, and
    membership reduces to one exponentiation.
    """
    if x.is_zero():
        raise DomainError("zero is not a unit; (p-1)-st power test undefined")
    return x ** ((x.spec.q - 1) // (x.spec.p - 1)) == 1


class AlgebraElement:
    """Operator notation on the (|G|,) codes of a GroupAlgebra element.

    + and - add codes by FieldOps, * is multiply_codes or, by an int or a
    FieldElement, the scalar product, ** takes exponents >= 0, == compares
    codes and str is GroupAlgebra.format.  An int or FieldElement operand of
    + and - is that scalar times 1.
    """

    __slots__ = ("algebra", "codes")

    def __init__(self, algebra, codes):
        self.algebra = algebra
        self.codes = np.asarray(codes, dtype=np.int64)

    @classmethod
    def one(cls, algebra):
        return cls(algebra, algebra.one())

    @classmethod
    def embed(cls, algebra, g):
        """The basis element of the group element of table index g."""
        return cls(algebra, np.eye(1, algebra.dimension, int(g), dtype=np.int64)[0])

    def _scalar(self, c):
        return self.algebra.field.code_of(self.algebra.field.element(c))

    def _codes(self, other):
        if isinstance(other, AlgebraElement):
            if other.algebra is not self.algebra:
                raise FieldMismatch("elements belong to different group algebras")
            return other.codes
        return self.algebra.one() * self._scalar(other)

    def __add__(self, other):
        return AlgebraElement(self.algebra, self.algebra.ops.add(self.codes, self._codes(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return AlgebraElement(self.algebra, self.algebra.ops.sub(self.codes, self._codes(other)))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return AlgebraElement(self.algebra, self.algebra.multiply_codes(self.codes, self._codes(other)))
        return AlgebraElement(self.algebra, self.algebra.ops.mul(self.codes, self._scalar(other)))

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers: invert the unit with GroupAlgebra.unit_inverse")
        acc = AlgebraElement.one(self.algebra)
        for _ in range(k):
            acc = acc * self
        return acc

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement) and other.algebra is self.algebra
                and np.array_equal(self.codes, other.codes))

    def is_zero(self):
        return not self.codes.any()

    def augmentation(self):
        return self.algebra.field.element_from_code(int(column_sums(self.algebra.ops, self.codes)))

    def coefficient(self, g):
        """The coefficient of the group element of table index g."""
        return self.algebra.field.element_from_code(int(self.codes[g]))

    def __str__(self):
        return self.algebra.format(self.codes)


def _lift_combination(algebra, basis, degree, coords):
    """sum of coords[i] * (w_i - 1) over the degree-`degree` lifts."""
    acc = AlgebraElement(algebra, np.zeros(algebra.dimension, dtype=np.int64))
    layers = basis.filtration.lifts
    lifts = layers[degree - 1] if degree - 1 < len(layers) else ()
    assert coords.size == len(lifts)
    k = algebra.field
    for c, w in zip(coords, lifts):
        term = AlgebraElement.embed(algebra, w) - 1
        acc = acc + term * k.element(int(c))
    return acc


def assert_bracket_compatible(algebra, basis, j1, j2):
    """(u-1)(v-1) - (v-1)(u-1) is congruent to the bracket lift mod J^(r+s+1)."""
    r1 = basis.filtration.lift_degrees[j1]
    r2 = basis.filtration.lift_degrees[j2]
    u = AlgebraElement.embed(algebra, basis.filtration.lift_indices[j1]) - 1
    v = AlgebraElement.embed(algebra, basis.filtration.lift_indices[j2]) - 1
    x = u * v - v * u
    degree, coords = basis.lie_bracket(j1, j2)
    assert degree == r1 + r2
    top = algebra.filtration.socle_degree + 1
    if degree > top:
        assert x.is_zero()
        return
    y = _lift_combination(algebra, basis, degree, coords)
    assert in_radical_power(algebra, x.codes, degree)
    assert in_radical_power(algebra, (x - y).codes, min(degree + 1, top))


def assert_p_power_compatible(algebra, basis, j):
    """(u-1)^p is congruent to the p-restriction lift mod J^(p*r+1)."""
    p = algebra.group.p
    r = basis.filtration.lift_degrees[j]
    u = AlgebraElement.embed(algebra, basis.filtration.lift_indices[j]) - 1
    x = AlgebraElement.one(algebra)
    for _ in range(p):
        x = x * u
    degree, coords = basis.p_restriction(j)
    assert degree == p * r
    top = algebra.filtration.socle_degree + 1
    if degree > top:
        assert x.is_zero()
        return
    y = _lift_combination(algebra, basis, degree, coords)
    assert in_radical_power(algebra, x.codes, degree)
    assert in_radical_power(algebra, (x - y).codes, min(degree + 1, top))


def assert_lie_structure_compatible(algebra, basis):
    count = len(basis.filtration.lift_degrees)
    for j1 in range(count):
        assert_p_power_compatible(algebra, basis, j1)
        for j2 in range(count):
            assert_bracket_compatible(algebra, basis, j1, j2)


def commutator_filtration_bound(group, chain):
    """[F_r, F_s] <= F_(r+s) for the full chain, checked element by element."""
    depth = len(chain)
    for r in range(1, depth + 1):
        for s in range(1, depth + 1):
            target = chain[min(r + s, depth) - 1]
            target_set = set(target)
            for a in chain[r - 1]:
                for b in chain[s - 1]:
                    if _commutator_by_products(group, a, b) not in target_set:
                        return False, (r, s, a, b)
    return True, None


def pbw_polynomial_oracle(p, layer_ranks):
    """Coefficients of prod_r (1 + t^r + ... + t^((p-1)r))^d_r via numpy."""
    poly = np.array([1], dtype=object)
    for idx, rank in enumerate(layer_ranks):
        r = idx + 1
        factor = np.zeros((p - 1) * r + 1, dtype=object)
        factor[::r] = 1
        for _ in range(rank):
            poly = np.convolve(poly, factor)
    return [int(c) for c in poly]


def layer_ranks(basis):
    """d_r = dim F_r/F_(r+1) for r = 1 .. max degree."""
    return [len(lifts) for lifts in basis.filtration.lifts]


def in_radical_power(algebra, x, r):
    """Whether the element of codes x lies in J^r: its coordinates of
    weight < r vanish."""
    filt = algebra.filtration
    return not filt.coordinates(algebra.ops, x)[filt.weights < r].any()


def gr_coordinates(algebra, x, r):
    """Coordinates of x + J^(r+1) on the weight-r Jennings monomials, for
    the element of codes x."""
    filt = algebra.filtration
    if not 0 <= r <= filt.socle_degree:
        raise FiltrationError(f"degree {r} outside 0..{filt.socle_degree}")
    coords = filt.coordinates(algebra.ops, x)
    if coords[filt.weights < r].any():
        raise FiltrationError(f"element does not lie in J^{r}")
    return coords[filt.weights == r]


def solve(ops, a, b):
    """One solution x of a @ x = b over the field of ops, or None if the
    system is inconsistent, by the RREF of [a | b]."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64).reshape(-1)
    r, pivots = ops.rref(np.concatenate([a, b.reshape(-1, 1)], axis=1))
    cols = a.shape[1]
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    x[pivots] = r[:, -1]
    return x


def reduce_rows(ops, v, basis, pivots):
    """Eliminate the pivot coordinates of an RREF basis from rows of v."""
    v = np.array(v, dtype=np.int64, copy=True)
    if len(pivots) == 0 or v.size == 0:
        return v
    single = v.ndim == 1
    if single:
        v = v.reshape(1, -1)
    coef = v[:, pivots]
    if np.any(coef):
        v = ops.sub(v, ops.matmul(coef, basis))
    return v.reshape(-1) if single else v


def degree_one_closure_by_witnesses(basis):
    """Close degree one under brackets and p-powers; must fill every layer.

    JenningsBasis.degree_one_generates as it was before it spanned each
    layer from lie_bracket and p_restriction.  Every vector the closure
    produces keeps a witness group index, so brackets and p-th powers of
    closure vectors stay inside what witness commutators and witness powers
    span.
    """
    ops = basis.filtration.ops
    group = basis.group
    witnesses = [(1, y) for y in basis.filtration.lifts[0]]
    spans = {}

    def absorb(r, g):
        if basis.d(r) == 0:
            return False
        w = basis.class_coordinates(g, r)
        rows, pivots = spans.get(r, (np.zeros((0, basis.d(r)), dtype=np.int64), []))
        if not np.any(reduce_rows(ops, w, rows, pivots)):
            return False
        spans[r] = ops.rref(np.vstack([rows, w.reshape(1, -1)]))
        return True

    for r, y in witnesses:
        absorb(r, y)
    frontier = list(witnesses)
    while frontier:
        fresh = []
        for ra, ha in frontier:
            for rb, hb in witnesses:
                for r, g in (
                    (ra + rb, group.commutator(ha, hb)),
                    (ra + rb, group.commutator(hb, ha)),
                ):
                    if absorb(r, g):
                        fresh.append((r, g))
            pw = group.power(ha, group.p)
            if absorb(group.p * ra, pw):
                fresh.append((group.p * ra, pw))
        witnesses.extend(fresh)
        frontier = fresh
    for r in range(1, len(basis.filtration.lifts) + 1):
        have = spans[r][0].shape[0] if r in spans else 0
        if have != basis.d(r):
            raise DimensionMismatch(
                f"degree-one closure spans {have} of {basis.d(r)} dimensions in layer {r}"
            )
    return True


def pbw_dimension(basis, r):
    """Number of lift-power products y_1^(e_1)...y_M^(e_M) of total degree r."""
    poly = basis.pbw_polynomial()
    return poly[r] if 0 <= r < len(poly) else 0


def lifts_by_gr_coordinates(algebra, chain):
    """Lifts of each F_r/F_(r+1), chosen by graded coordinates in kG.

    chain is F_1, F_2, ... down to the first trivial term.  Walking F_r in
    index order, g is kept when the degree-r graded coordinates of g - 1
    are independent of those kept so far.  Entry r-1 of the result holds
    the lifts of degree r.
    """
    ops = algebra.ops
    out = []
    for r in range(1, len(chain)):
        lifts = []
        basis = np.zeros((0, algebra.filtration.gr_dims[r]), dtype=np.int64)
        pivots = []
        for idx in chain[r - 1]:
            if idx == 0:
                continue
            w = gr_coordinates(algebra, (AlgebraElement.embed(algebra, idx) - 1).codes, r)
            if np.any(reduce_rows(ops, w, basis, pivots)):
                lifts.append(idx)
                basis, pivots = ops.rref(np.vstack([basis, w.reshape(1, -1)]))
        out.append(tuple(lifts))
    return out


def lift_words_by_walk(group, lifts):
    """Group index of y_1^(e_1) ... y_M^(e_M) at entry sum_j e_j p^(j-1).

    The row order of RadicalFiltration.words, computed one word at a time
    by a walk over the Cayley table.
    """
    t = group.cayley_table
    p = group.p
    idx = list(lifts)
    words = []
    for row in range(p ** len(idx)):
        acc = 0
        for j, y in enumerate(idx):
            for _ in range(row // p**j % p):
                acc = int(t[acc, y])
        words.append(acc)
    return words


def top_monomial_by_gathers(filt):
    """The codes of prod_j (y_j - 1)^(p-1) over filt's lifts in ascending
    degree, one gather per factor."""
    ops = filt.ops
    t = filt.group.cayley_table
    inv = filt.group.inverse_table
    top = np.zeros(filt.group.order, dtype=np.int64)
    top[0] = 1
    for layer in filt.lifts:
        for yi in layer:
            # (x y)[k] = x[k y^-1], so x (y - 1) is a gather minus x
            right = t[:, int(inv[yi])]
            for _ in range(1, filt.group.p):
                top = ops.sub(top[right], top)
    return top


def filtration_by_monomial_echelon(group, ops=None, lifts=None):
    """(bases, pivots): the RREF bases of J^0 > J^1 > ... > J^(s+1) = 0, by echelon.

    The Jennings monomials prod_j (y_j - 1)^(e_j) in the lifts (those of
    group.jennings_lifts(), or `lifts`, one tuple per degree) come out of
    one prefix pass: x (y - 1) is a gather of x minus x.  The bases are
    built from the top weight down: the weight-r monomials, reduced by the
    basis of J^(r+1), are echelonized and merged with that basis,
    back-reduced by them.  Raises FiltrationError when the weight-r
    monomials are not independent modulo the heavier ones.
    """
    ops = ops if ops is not None else FieldOps(GF(group.p))
    n = group.order
    t = group.cayley_table
    inv = group.inverse_table
    lifts = group.jennings_lifts()[1] if lifts is None else lifts
    monomials = np.zeros((1, n), dtype=np.int64)
    monomials[0, 0] = 1
    weights = np.zeros(1, dtype=np.int64)
    for r, layer in enumerate(lifts, start=1):
        for y in layer:
            right = t[:, int(inv[y])]
            blocks, block_weights = [monomials], [weights]
            for e in range(1, group.p):
                blocks.append(ops.sub(blocks[-1][:, right], blocks[-1]))
                block_weights.append(weights + e * r)
            monomials = np.vstack(blocks)
            weights = np.concatenate(block_weights)

    bases = [np.zeros((0, n), dtype=np.int64)]
    pivots = [[]]
    for r in range(int(weights.max()), -1, -1):
        rows = monomials[weights == r]
        q, qp = ops.rref(reduce_rows(ops, rows, bases[-1], pivots[-1]))
        if not qp or len(qp) != rows.shape[0]:
            raise FiltrationError(f"weight-{r} monomials give no basis of J^{r}/J^{r + 1}")
        merged = pivots[-1] + qp
        order = np.argsort(merged)
        stacked = np.vstack([reduce_rows(ops, bases[-1], q, qp), q])
        bases.append(stacked[order])
        pivots.append([merged[i] for i in order])
    if bases[1].shape[0] != 1:
        raise FiltrationError(f"last nonzero radical power has dimension {bases[1].shape[0]}, expected 1")
    return bases[::-1], pivots[::-1]


def coordinate_rows_by_identity(filt, r):
    """The weight < r rows of the coordinates of the group basis, read off
    coordinates() of the |G| x |G| identity.

    The oracle for RadicalFiltration.coordinate_rows, and for basis(r) as
    it was before it formed only those rows.
    """
    return filt.coordinates(filt.ops, filt.ops.eye(filt.group.order))[filt.weights < r]


def products_oracle_with_complements(group, ops=None):
    """(bases, pivots, complements, comp_pivots) of the filtration, by brute force.

    radical_filtration_by_products(), and each graded complement echelonized
    from the basis of J^r reduced by that of J^(r+1).
    """
    ops = ops if ops is not None else FieldOps(GF(group.p))
    bases, pivots = radical_filtration_by_products(group, ops)
    complements, comp_pivots = [], []
    for r in range(len(bases) - 1):
        q, qp = ops.rref(reduce_rows(ops, bases[r], bases[r + 1], pivots[r + 1]))
        if q.shape[0] != bases[r].shape[0] - bases[r + 1].shape[0]:
            raise FiltrationError(f"graded complement in degree {r} has the wrong rank")
        complements.append(q)
        comp_pivots.append(qp)
    return bases, pivots, complements, comp_pivots


def jennings_monomials(algebra):
    """prod_j (y_j - 1)^(e_j) over the filtration's lifts, multiplied out in kG.

    Entry sum_j e_j p^(j-1) holds the monomial with exponents e, the row
    order of RadicalFiltration.coordinates().
    """
    one = AlgebraElement.one(algebra)
    monomials = [one]
    for layer in algebra.filtration.lifts:
        for y in layer:
            x = AlgebraElement.embed(algebra, y) - one
            powers = [one]
            for _ in range(algebra.group.p - 1):
                powers.append(powers[-1] * x)
            monomials = [m * pw for pw in powers for m in monomials]
    return monomials


def graded_blocks_by_projection(auto, basis, oracle):
    """The induced blocks, by projection onto graded complements and a solve per lift.

    oracle is (bases, pivots, complements, comp_pivots) from
    products_oracle_with_complements().  An image class is projected along
    J^(r+1) onto the RREF complement of degree r, and its coordinates there
    are solved for in terms of the classes of the layer's lifts.  Returns
    [(r, block)] for the layers of nonzero rank.
    """
    bases, pivots, complements, comp_pivots = oracle
    alg = auto.algebra
    ops = alg.ops
    one = alg.one()

    def graded(x, r):
        assert not reduce_rows(ops, x, bases[r], pivots[r]).any()
        proj = reduce_rows(ops, x, bases[r + 1], pivots[r + 1])
        assert not reduce_rows(ops, proj, complements[r], comp_pivots[r]).any()
        return proj[comp_pivots[r]]

    blocks = []
    for r, lifts in enumerate(basis.filtration.lifts, start=1):
        if not lifts:
            continue
        classes = np.vstack([graded((AlgebraElement.embed(alg, y) - 1).codes, r) for y in lifts])
        block = np.zeros((len(lifts), len(lifts)), dtype=np.int64)
        for j, y in enumerate(lifts):
            image = ops.sub(auto.matrix[:, y], one)
            coords = solve(ops, classes.T, graded(image, r))
            assert coords is not None
            block[:, j] = coords
        blocks.append((r, block))
    return blocks


def report_by_members(auto):
    """verify_stack([auto])[0].as_dict(), computed for this automorphism alone.

    The oracle for the stacked verification, as one automorphism was
    verified before runs were verified as stacks: the socle scalar from one
    matrix-vector product, each layer's block from one coordinates() call on
    this automorphism's lift images and checked column by column, its
    determinant by det_by_column_loop, and det_total and det^(p-1) by
    FieldElement arithmetic.  Raises the errors verify_stack raises.
    """
    from socle_verify.automorphisms import (
        FiltrationNotPreserved,
        LieSubspaceViolated,
        SocleNotPreserved,
        VerificationReport,
    )

    alg = auto.algebra
    ops = alg.ops
    field = alg.field
    v = ops.matvec(auto.matrix, np.ones(alg.dimension, dtype=np.int64))
    lam = int(v[0])
    if lam == 0 or not np.all(v == lam):
        raise SocleNotPreserved("socle vector image is not a nonzero multiple of itself")
    filt = alg.filtration
    cols = [y for lifts in filt.lifts for y in lifts]
    coords = filt.coordinates(ops, ops.sub(auto.matrix[:, cols], alg.one()[:, None]))
    blocks, dets = [], []
    total = field.one()
    first = 0
    for r, lifts in enumerate(filt.lifts, start=1):
        if not lifts:
            continue
        layer_coords = coords[:, first : first + len(lifts)]
        # y_j - 1 is the monomial of the j-th unit exponent vector, row p^j
        rows = alg.group.p ** np.arange(first, first + len(lifts))
        first += len(lifts)
        others = filt.weights == r
        others[rows] = False
        for col in layer_coords.T:
            if col[filt.weights < r].any():
                raise FiltrationNotPreserved(f"image of a degree-{r} lift is not 1 mod J^{r}")
            if col[others].any():
                raise LieSubspaceViolated(f"image class in layer {r} left the span of the layer lifts")
        block = layer_coords[rows]
        det_code = det_by_column_loop(ops, block)
        if det_code == 0:
            raise FiltrationNotPreserved(f"induced block in degree {r} is singular")
        det = field.element_from_code(det_code)
        blocks.append((r, block))
        dets.append(det)
        total = total * det
    lam = field.element_from_code(lam)
    det_pow = total ** (field.p - 1)
    return VerificationReport(
        provenance=auto.provenance,
        socle_scalar=lam,
        blocks=tuple(blocks),
        block_dets=tuple(dets),
        det_total=total,
        det_power=det_pow,
        equation_holds=lam == det_pow,
        lambda_in_power_subgroup=is_pm1_power(lam),
        lambda_is_one=lam == 1,
    ).as_dict()


def data_by_matrix(auto):
    """(|G|, M+1) codes of alpha(y_1), ..., alpha(y_M), alpha(sum of all g),
    read off the dense matrix.

    The oracle for AlgebraAutomorphism.data: the columns of the Jennings
    lifts, read off the layers of the JenningsBasis, and one matrix-vector
    product with the all-ones vector.
    """
    alg = auto.algebra
    cols = [y for lifts in alg.filtration.lifts for y in lifts]
    socle = alg.ops.matvec(auto.matrix, np.ones(alg.dimension, dtype=np.int64))
    return np.column_stack([auto.matrix[:, cols], socle])


def random_inner_by_elements(algebra, rng, terms=3):
    """(matrix, provenance) of one random_inners member, built on its own.

    The oracle for the stacked draws: u = 1 + sum c (g - 1) summed as
    AlgebraElements, u^-1 by unit_inverse_by_series, and L(u) R(u^-1) by
    matmul_by_planes.
    """
    u = AlgebraElement.one(algebra)
    for _ in range(terms):
        g = rng.randrange(1, algebra.dimension)
        c = algebra.field.element_from_code(rng.randrange(1, algebra.field.q))
        u = u + (AlgebraElement.embed(algebra, g) - 1) * c
    uinv = unit_inverse_by_series(algebra, u)
    matrix = matmul_by_planes(
        algebra.ops, algebra.left_mult_matrix(u.codes), algebra.right_mult_matrix(uinv.codes)
    )
    return matrix, f"random-inner: {u}"


def apply_automorphism(auto, x):
    """alpha(x) for an AlgebraElement x: one matrix-vector product."""
    if x.algebra is not auto.algebra:
        raise FieldMismatch("element belongs to a different algebra")
    return AlgebraElement(auto.algebra, auto.algebra.ops.matvec(auto.matrix, x.codes))


def substitution_images(algebra, linear, higher=None):
    """(m, |G|) codes of g_i -> 1 + sum_j linear[i, j] (g_j - 1) + higher[i].

    linear is an m x m matrix of field codes; higher maps a 0-based
    generator index to an AlgebraElement tail.  Each image is summed as
    AlgebraElements, term by term.
    """
    group = algebra.group
    images = []
    for i in range(len(linear)):
        u = AlgebraElement.one(algebra)
        for j in range(group.m):
            c = algebra.field.element_from_code(int(linear[i][j]))
            u = u + (AlgebraElement.embed(algebra, group.generator_indices[j]) - 1) * c
        if higher and i in higher:
            u = u + higher[i]
        images.append(u.codes)
    return np.array(images, dtype=np.int64).reshape(len(linear), algebra.dimension)


def substitution_images_by_elements(algebra, rng):
    """(m, |G|) image codes of one random_substitutions member, built on its own.

    The oracle for random_substitutions: the same draws in the same order
    (the linear part by rejection, then per generator a coin, a J^2 row and
    a unit coefficient), the J^2 rows from filtration_by_monomial_echelon,
    each tail checked to lie in J^2 and the images summed by
    substitution_images.
    """
    ops = algebra.ops
    m = algebra.group.m
    q = algebra.field.q
    while True:
        linear = np.array([[rng.randrange(q) for _ in range(m)] for _ in range(m)], dtype=np.int64)
        if det_by_column_loop(ops, linear) != 0:
            break
    j2 = filtration_by_monomial_echelon(algebra.group)[0][2]
    higher = {}
    for i in range(m):
        if j2.shape[0] and rng.random() < 0.5:
            row = j2[rng.randrange(j2.shape[0])]
            c = algebra.field.element_from_code(rng.randrange(1, q))
            higher[i] = AlgebraElement(algebra, row) * c
            assert in_radical_power(algebra, higher[i].codes, 2)
    return substitution_images(algebra, linear, higher)


def substitution_matrix_by_columns(algebra, images):
    """Matrix of the substitution g_i -> images[i], one column at a time.

    The oracle for the matrix of AlgebraAutomorphism.substitutions: column b,
    for the normal form x g_j^e with j the last generator it mentions, is
    the kG product alpha(x) * images[j]^e of an earlier column with a power
    of an image.  images holds the (m, |G|) image codes.
    """
    group = algebra.group
    n = algebra.dimension
    powers = {}
    for k, image in enumerate(images):
        acc = AlgebraElement.one(algebra)
        for e in range(1, group.p):
            acc = acc * AlgebraElement(algebra, image)
            powers[(k, e)] = acc.codes
    matrix = np.zeros((n, n), dtype=np.int64)
    matrix[0, 0] = 1
    for b in range(1, n):
        exps = group.exponents[b].tolist()
        jlast = max(k for k in range(group.m) if exps[k])
        prefix = list(exps)
        prefix[jlast] = 0
        pcol = matrix[:, normal_form_index(group, prefix)]
        matrix[:, b] = algebra.multiply_codes(pcol, powers[(jlast, exps[jlast])])
    return matrix


def multiply_codes_by_matrix(algebra, a, b):
    """a*b member by member through the |G| x |G| matrix L(a).

    The oracle for GroupAlgebra.multiply_codes, its one path before narrow
    left factors became gathers over their support: a is (B, |G|), b is
    (B, |G|) or (B, |G|, k), and every member is one matmul_by_planes of
    left_mult_matrix(a[b]) with b's columns.
    """
    columns = b if b.ndim == 3 else b[..., None]
    out = np.stack([matmul_by_planes(algebra.ops, algebra.left_mult_matrix(x), y)
                    for x, y in zip(a, columns)])
    return out if b.ndim == 3 else out[..., 0]


def sampled_pairs_one_at_a_time(auto):
    """The sampled literal check of check_pairs, one pair at a time.

    The oracle for the grouped sampled check: the same 10*|G| seeded pairs
    (g, h), drawn in the same order, each one kG product alpha(g) alpha(h)
    compared with alpha(gh); raises NotMultiplicative at the first pair
    that fails.
    """
    alg = auto.algebra
    n = alg.dimension
    t = alg.group.cayley_table
    rng = random.Random(0x9C3A ^ n)
    for _ in range(10 * n):
        g = rng.randrange(n)
        h = rng.randrange(n)
        prod = alg.multiply_codes(auto.matrix[:, g], auto.matrix[:, h])
        if not np.array_equal(prod, auto.matrix[:, t[g, h]]):
            raise NotMultiplicative("alpha(g)alpha(h) != alpha(gh) for a sampled pair")


def unit_inverse_by_series(algebra, u):
    """u^-1 by the geometric series eps^-1 (1 + z + z^2 + ... + z^s), z = 1 - u/eps.

    The oracle for GroupAlgebra.unit_inverse: one matvec per term with the
    left multiplication matrix of z, up to the socle degree s.
    """
    ops = algebra.ops
    einv = algebra.field.code_of(u.augmentation().inverse())
    z = ops.sub(algebra.one(), ops.mul(u.codes, np.full_like(u.codes, einv)))
    lz = algebra.left_mult_matrix(z)
    term = algebra.one()
    acc = term.copy()
    for _ in range(algebra.socle_degree):
        term = ops.matvec(lz, term)
        if not term.any():
            break
        acc = ops.add(acc, term)
    return AlgebraElement(algebra, ops.mul(acc, np.full_like(acc, einv)))


def collect(p, m, power_words, comm_words, word):
    """Collection from the left; word entries are (generator index, exponent >= 0).

    The collection oracle: a second multiplication engine that reads only
    the presentation, never the Cayley table.  PcGroup put words in normal
    form this way, and built its table by it, before both read the
    certified table.  Returns the exponent vector of the normal form.
    """
    w = [[i, e] for i, e in word if e]
    k = 0
    steps = 0
    while k < len(w):
        steps += 1
        if steps > 10_000_000:
            raise RuntimeError("collection did not terminate (runaway presentation)")
        i, e = w[k]
        if e >= p:
            rem = e % p
            repl = [[i, rem]] if rem else []
            pw = power_words[i - 1]
            for _ in range(e // p):
                repl.extend([x, y] for x, y in pw)
            w[k : k + 1] = repl
            k = max(k - 1, 0)
            continue
        if k + 1 < len(w):
            j, d = w[k + 1]
            if i == j:
                w[k][1] = e + d
                del w[k + 1]
                continue
            if i > j:
                cw = comm_words.get((i, j))
                if cw is None:
                    # trivial commutator: the two powers commute as blocks
                    w[k], w[k + 1] = w[k + 1], w[k]
                else:
                    repl = []
                    if e > 1:
                        repl.append([i, e - 1])
                    repl.append([j, 1])
                    repl.append([i, 1])
                    repl.extend([x, y] for x, y in cw)
                    if d > 1:
                        repl.append([j, d - 1])
                    w[k : k + 2] = repl
                k = max(k - 1, 0)
                continue
        k += 1
    exps = [0] * m
    for i, e in w:
        exps[i - 1] = e
    return tuple(exps)


def normal_form_index(group, exponents):
    """The table index sum_i e_i p^(m-i) of the normal form g_1^(e_1) ... g_m^(e_m)."""
    return sum(int(e) * group.p ** (group.m - i) for i, e in enumerate(exponents, start=1))


def element_by_collection(group, word):
    """Index of the normal form of a nonnegative generator word of a group,
    by collection.

    The oracle for PcGroup.parse_word, and PcGroup.collect as it was: each
    exponent is reduced mod |G| first, which every element order divides,
    so collection never expands more than |G| - 1 copies.  The collected
    exponent vector becomes an index by normal_form_index, never through
    the table.
    """
    reduced = [(i, e % group.order) for i, e in word]
    return normal_form_index(group, collect(group.p, group.m, group.power_words, group.comm_words, reduced))


def product_by_collection(group, a, b):
    """Index of a b, collected from the concatenated normal-form words of a and b."""
    word = [
        (i + 1, e)
        for x in (a, b)
        for i, e in enumerate(group.exponents[x].tolist())
        if e
    ]
    return element_by_collection(group, word)


def automorphism_perm_by_normal_forms(group, images):
    """perm[b] = a_1^(e_1) ... a_m^(e_m) for b = g_1^(e_1) ... g_m^(e_m).

    The oracle for PcGroup.group_automorphism, on image indices: each image
    power is a run of table lookups along b's normal form.
    """
    t = group.cayley_table
    perm = []
    for b in range(group.order):
        acc = 0
        for image, e in zip(images, group.exponents[b].tolist()):
            acc = int(t[acc, _power_by_products(group, image, e)])
        perm.append(acc)
    return perm


def _commutator_by_products(group, a, b):
    """[a, b] = a^-1 b^-1 a b by table lookups one at a time."""
    t, inv = group.cayley_table, group.inverse_table
    return int(t[t[t[inv[a], inv[b]], a], b])


def _power_by_products(group, a, k):
    """a^k, k >= 0, by k table lookups."""
    acc = 0
    for _ in range(k):
        acc = int(group.cayley_table[acc, a])
    return acc


def is_abelian(group):
    return not group.comm_words


def trivial_subgroup(group):
    return (0,)


def subgroup_closure(group, generators):
    """The sorted indices of the subgroup the element indices generate,
    closed by table gathers."""
    return tuple(group._closure_indices(list(generators)))


def center(group):
    """Z(G), as sorted indices: the rows of the Cayley table equal to their
    columns."""
    t = group.cayley_table
    return tuple(np.flatnonzero((t == t.T).all(axis=1)).tolist())


def presentation_text(group):
    """The group's pc presentation in the text form from_presentation_text reads."""

    def word_text(word):
        return " ".join(f"g{i}" if e == 1 else f"g{i}^{e}" for i, e in word) or "1"

    lines = [f"pcgroup p={group.p} m={group.m}"]
    for i, word in enumerate(group.power_words, start=1):
        lines.append(f"g{i}^{group.p} = {word_text(word)}")
    for (j, i), word in sorted(group.comm_words.items()):
        lines.append(f"[g{j},g{i}] = {word_text(word)}")
    return "\n".join(lines) + "\n"


def closure_by_products(group, seeds):
    """Sorted index set of the subgroup the seed indices generate, by a walk
    with table lookups one product at a time."""
    t = group.cayley_table
    gens = {s for s in seeds if s}
    found = {0}
    frontier = [0]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = int(t[x, g])
                if y not in found:
                    found.add(y)
                    new.append(y)
        frontier = new
    return tuple(sorted(found))


def lower_central_series_by_products(group):
    """Index sets of gamma_1 = G, gamma_(i+1) = <[x, g] : x in gamma_i, g in G>, to 1."""
    every = range(group.order)
    series = [tuple(every)]
    while series[-1] != (0,):
        series.append(closure_by_products(group, {_commutator_by_products(group, x, g)
                                                  for x in series[-1] for g in every}))
    return series


def frattini_by_products(group):
    """Index set of <x^p, [x, g] : x, g in G>."""
    every = range(group.order)
    seeds = {_power_by_products(group, x, group.p) for x in every}
    seeds |= {_commutator_by_products(group, x, g) for x in every for g in every}
    return closure_by_products(group, seeds)


def agemo_by_products(group, j=1):
    """Index set of <x^(p^j) : x in G>."""
    e = group.p**j
    return closure_by_products(group, {_power_by_products(group, x, e) for x in range(group.order)})


def jennings_series_by_products(group):
    """Index sets of F_1 = G, F_r = <[F_(r-1), G], x^p for x in F_ceil(r/p)>, to 1."""
    p = group.p
    every = range(group.order)
    series = [tuple(every)]
    r = 2
    while series[-1] != (0,):
        seeds = {_commutator_by_products(group, x, g) for x in series[-1] for g in every}
        seeds |= {_power_by_products(group, x, p) for x in series[-(-r // p) - 1]}
        series.append(closure_by_products(group, seeds))
        r += 1
    return series


def generators_by_unique(seeds):
    """The distinct nonidentity seed indices, sorted, by np.unique."""
    gens = np.unique(np.asarray(seeds, dtype=np.int64))
    return gens[gens != 0]


def closure_indices_by_unique(group, seeds):
    """Sorted indices of <seeds>, each breadth-first frontier deduplicated by np.unique."""
    t = group.cayley_table
    seen = np.zeros(group.order, dtype=bool)
    seen[0] = True
    gens = np.array(sorted({int(s) for s in seeds} - {0}), dtype=np.int64)
    frontier = np.zeros(1 if gens.size else 0, dtype=np.int64)
    while frontier.size:
        nxt = np.unique(t[np.ix_(frontier, gens)])
        frontier = nxt[~seen[nxt]]
        seen[frontier] = True
    return [int(i) for i in np.nonzero(seen)[0]]


def nullspace_by_setdiff(ops, m):
    """RREF kernel basis of m, its free columns found by np.setdiff1d."""
    m = np.asarray(m, dtype=np.int64)
    cols = m.shape[1]
    reduced, pivots = ops.rref(m[:, ::-1])
    free = np.setdiff1d(np.arange(cols), pivots)
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = ops.neg(reduced[:, free].T)
    return np.ascontiguousarray(basis[::-1, ::-1])


def cayley_table_by_collection(p, m, power_words, comm_words):
    """The Cayley table of a pc presentation, by collection: m(p-1)|G| collections.

    The oracle for PcGroup's bottom-up build, and the build it replaced.
    power_words[i - 1] is the power word of g_i and comm_words[(j, i)] the
    word of [g_j, g_i], as PcGroup stores them.  In each generator block
    the columns of the powers g_(k+1)^e are collected one element at a
    time, and the column of x g_(k+1)^e, for x in <g_1, ..., g_k>, is the
    gather (a x) g_(k+1)^e of earlier columns.  Works on inconsistent
    presentations too; their tables fail certificate_by_triples.
    """
    elements = list(itertools.product(range(p), repeat=m))
    index = {e: k for k, e in enumerate(elements)}
    n = len(elements)
    table = np.zeros((n, n), dtype=np.int64)
    table[:, 0] = np.arange(n)
    for k, (prefix, cols) in enumerate(_normal_form_blocks(p, m)):
        base = cols[:, 0]
        for e, b in enumerate(base, start=1):
            table[:, b] = [
                index[collect(p, m, power_words, comm_words,
                               [(i + 1, x) for i, x in enumerate(ae) if x] + [(k + 1, e)])]
                for ae in elements
            ]
        table[:, cols] = table[table[:, prefix][:, None, :], base[None, :, None]]
    return table


def certificate_by_triples(table, p, m, power_words, comm_words):
    """Whether a table is the multiplication of the presented group, by brute force.

    The group certificate PcGroup used before Light's test: identity,
    every row and column a permutation, (ab)c = a(bc) on all triples, and
    the defining relations evaluated with multiplications one at a time.
    On top of that, the generators (index p^(m-i)) must reach every
    element under right multiplication; on a table built from a
    presentation an associative table always passes this, since every
    index is then the product of its normal form.
    """
    n = table.shape[0]
    rows = [list(r) for r in table.tolist()]
    if rows[0] != list(range(n)) or [r[0] for r in rows] != list(range(n)):
        return False
    if any(sorted(r) != list(range(n)) for r in rows):
        return False
    if any(sorted(c) != list(range(n)) for c in zip(*rows)):
        return False
    if not associative_on_all_triples(table):
        return False
    gens = [p ** (m - i) for i in range(1, m + 1)]
    seen, frontier = {0}, [0]
    while frontier:
        frontier = [y for x in frontier for y in {rows[x][g] for g in gens} if y not in seen]
        seen.update(frontier)
    if len(seen) != n:
        return False

    def power(x, k):
        acc = 0
        for _ in range(k):
            acc = rows[acc][x]
        return acc

    def word(w):
        acc = 0
        for i, e in w:
            acc = rows[acc][power(gens[i - 1], e)]
        return acc

    inv = [r.index(0) for r in rows]
    for i in range(1, m + 1):
        if power(gens[i - 1], p) != word(power_words[i - 1]):
            return False
    for j in range(2, m + 1):
        for i in range(1, j):
            a, b = gens[j - 1], gens[i - 1]
            if rows[rows[rows[inv[a]][inv[b]]][a]][b] != word(comm_words.get((j, i), ())):
                return False
    return True


def random_presentation(rng):
    """A seeded random pc presentation (p, m, power_words, comm_words).

    p is drawn from {2, 3, 5} and m from 2 up to the largest with
    p^m <= 243.  Each
    power relation, and each commutator relation [g_j, g_i], is present
    with probability 1/2; its word mentions each later generator with
    probability 0.3, with an exponent drawn from 1..p-1.  Most
    draws with many relations are inconsistent.
    """
    p = rng.choice((2, 3, 5))
    m = rng.randint(2, {2: 7, 3: 5, 5: 3}[p])

    def word(after):
        return tuple((i, rng.randrange(1, p)) for i in range(after + 1, m + 1) if rng.random() < 0.3)

    power_words = tuple(word(i) if rng.random() < 0.5 else () for i in range(1, m + 1))
    comm_words = {}
    for j in range(2, m + 1):
        for i in range(1, j):
            w = word(j) if rng.random() < 0.5 else ()
            if w:
                comm_words[(j, i)] = w
    return p, m, power_words, comm_words


def catalog_and_random_groups(names):
    """Every catalog group of names, then every consistent random
    presentation of seeds 0..99 (orders up to 243), as the table tests
    draw them."""
    groups = [catalog(name) for name in names]
    for seed in range(100):
        p, m, power_words, comm_words = random_presentation(random.Random(seed))
        try:
            groups.append(PcGroup(p, m, dict(enumerate(power_words, start=1)), comm_words, name=f"seed {seed}"))
        except InconsistentPresentation:
            pass
    assert len(groups) >= len(names) + 50
    return groups


def random_loop(rng, n):
    """A random Latin square of order n with identity 0 (a loop).

    Rows are drawn one at a time by backtracking over the symbols each
    column has not used yet (a Latin rectangle always extends by a row);
    columns and then rows are permuted so that row 0 and column 0 are the
    identity.
    """
    square = []
    for _ in range(n):
        used = [{r[c] for r in square} for c in range(n)]
        row = []

        def fill(free):
            if len(row) == n:
                return True
            options = sorted(free - used[len(row)])
            rng.shuffle(options)
            for s in options:
                row.append(s)
                if fill(free - {s}):
                    return True
                row.pop()
            return False

        assert fill(frozenset(range(n)))
        square.append(row)
    t = np.array(square, dtype=np.int64)
    t = t[:, np.argsort(t[0])]  # row 0 becomes 0, 1, ..., n - 1
    return t[np.argsort(t[:, 0])]  # and then column 0


def in_row_space(ops, v, basis, pivots):
    """Whether v reduces to zero against an RREF basis with these pivots."""
    return not np.any(reduce_rows(ops, v, basis, pivots))


def is_irreducible_by_trial_division(coeffs, p):
    """Whether a monic polynomial over GF(p), low degree first, has no monic
    factor of degree 1 .. n // 2: p^(n/2) trial divisions."""
    n = len(coeffs) - 1
    if n < 1 or coeffs[-1] != 1:
        return False
    for d in range(1, n // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            if not _poly_mod(coeffs, list(low) + [1], p):
                return False
    return True


def decode_by_divmod(ops, a):
    """(...,) codes -> (..., n) coefficient planes, digit by digit with // and %."""
    powers = ops.p ** np.arange(ops.n, dtype=np.int64)
    return (np.asarray(a, dtype=np.int64)[..., None] // powers) % ops.p


def matmul_by_planes(ops, a, b):
    """a @ b over GF(p^n) as n^2 exact int64 plane products a_i b_j, each
    reduced mod p and added into plane i + j, then reduced and encoded."""
    pa = decode_by_divmod(ops, a)  # (R, K, n)
    pb = decode_by_divmod(ops, b)  # (K, C, n)
    out = np.zeros((pa.shape[0], pb.shape[1], 2 * ops.n - 1), dtype=np.int64)
    for i in range(ops.n):
        for j in range(ops.n):
            out[..., i + j] += (pa[..., i] @ pb[..., j]) % ops.p
    out %= ops.p
    return ops.encode(reduce_planes_by_division(ops, out))


def reduce_planes_by_division(ops, planes):
    """Planes (..., 2n-1) of t^0 .. t^(2n-2), entries below p, reduced mod
    the modulus f by long division from degree 2n-2 down: the coefficient c
    of t^k, k >= n, is cleared by subtracting c t^(k-n) f.  Returns the
    (..., n) planes, entries below p."""
    n, p = ops.n, ops.p
    low = np.array(planes, dtype=np.int64, copy=True)
    f = np.array(ops.spec.modulus[:-1], dtype=np.int64)
    for k in range(2 * n - 2, n - 1, -1):
        low[..., k - n : k] = (low[..., k - n : k] - low[..., k, None] * f) % p
    return low[..., :n]


def det_by_column_loop(ops, m):
    """Determinant code of one square matrix, eliminated column by column.

    The oracle for FieldOps.det: the one-matrix det as it was before det
    took only stacks, with the running determinant a FieldElement and
    each pivot inverted by FieldElement.inverse.
    """
    spec = ops.spec
    m = np.array(m, dtype=np.int64, copy=True)
    size = m.shape[0]
    det = spec.one()
    for c in range(size):
        nz = np.nonzero(m[c:, c])[0]
        if nz.size == 0:
            return 0
        i = c + int(nz[0])
        if i != c:
            m[[c, i]] = m[[i, c]]
            det = -det
        pivot = spec.element_from_code(int(m[c, c]))
        det = det * pivot
        factors = ops.mul(m[c + 1 :, c], np.int64(spec.code_of(pivot.inverse())))
        if np.any(factors):
            m[c + 1 :] = ops.sub(m[c + 1 :], ops.mul(factors[:, None], m[c][None, :]))
    return spec.code_of(det)


def rref_by_full_update(ops, m):
    """Reduced row echelon form with every pivot updating the whole matrix.

    The oracle for FieldOps.rref, which updates only the rows with a
    nonzero entry in the pivot column and only from that column on; here
    each pivot is inverted by FieldElement.inverse.
    """
    spec = ops.spec
    m = np.array(m, dtype=np.int64, copy=True)
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        pivot = spec.element_from_code(int(m[r, c]))
        if pivot != 1:
            m[r] = ops.mul(np.int64(spec.code_of(pivot.inverse())), m[r])
        factors = m[:, c].copy()
        factors[r] = 0
        if np.any(factors):
            m = ops.sub(m, ops.mul(factors[:, None], m[r][None, :]))
        pivots.append(c)
        r += 1
    return m[:r], pivots


class GridRing(TruncatedPolynomialRing):
    """The truncated polynomial ring with its elements: dense coefficient
    grids of shape (p, ..., p).

    A product of two elements visits only the nonzero cells of its right
    factor: each adds a shifted copy of the left factor's coefficient
    planes, times that cell's coefficient, into unreduced int64 planes,
    and the sum is reduced mod p, folded mod the field's modulus and
    encoded once at the end.
    """

    def __init__(self, field, nvars):
        super().__init__(field, nvars)
        self.shape = (self.p,) * nvars

    def zero(self):
        return TruncatedPolynomial(self, np.zeros(self.shape, dtype=np.int64))

    def one(self):
        return self.monomial((0,) * self.nvars)

    def scalar(self, c):
        return self.monomial((0,) * self.nvars, c)

    def variable(self, j):
        if not 1 <= j <= self.nvars:
            raise ValueError(f"variable index {j} out of range 1..{self.nvars}")
        return self.monomial(tuple(1 if k == j - 1 else 0 for k in range(self.nvars)))

    def monomial(self, exponents, coeff=1):
        if len(exponents) != self.nvars or any(not 0 <= e < self.p for e in exponents):
            raise ValueError(f"exponents must be {self.nvars} values in 0..{self.p - 1}")
        grid = np.zeros(self.shape, dtype=np.int64)
        grid[tuple(exponents)] = self.field.code_of(self.field.element(coeff))
        return TruncatedPolynomial(self, grid)

    def top_monomial(self):
        return self.monomial((self.p - 1,) * self.nvars)

    def linear_form(self, coeffs):
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

    def _mul_grids(self, a, b):
        """Truncated products of coefficient grids, member by member.

        a and b are single grids or (B,) + shape stacks of codes.
        """
        single = a.ndim == self.nvars
        if single:
            a, b = a[None], b[None]
        out = self.ops.encode(self._mul_planes(self.ops.decode(a), b))
        return out[0] if single else out

    def _mul_planes(self, planes, b):
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
        return acc if n == 1 else reduce_planes_by_division(ops, acc)


class TruncatedPolynomial:
    """An element of a GridRing: its coefficient grid of field codes."""

    __slots__ = ("ring", "grid")

    def __init__(self, ring, grid):
        self.ring = ring
        self.grid = grid

    def _check(self, other):
        if other.ring is not self.ring:
            raise FieldMismatch("polynomials from different rings")

    def __add__(self, other):
        self._check(other)
        return TruncatedPolynomial(self.ring, self.ring.ops.add(self.grid, other.grid))

    def __sub__(self, other):
        self._check(other)
        return TruncatedPolynomial(self.ring, self.ring.ops.sub(self.grid, other.grid))

    def __neg__(self):
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

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers are not defined here")
        acc = self.ring.one()
        for _ in range(k):
            acc = acc * self
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedPolynomial)
            and other.ring is self.ring
            and np.array_equal(self.grid, other.grid)
        )

    def __hash__(self):
        return hash((id(self.ring), self.grid.tobytes()))

    def is_zero(self):
        return not self.grid.any()

    def coefficient(self, exponents):
        return self.ring.field.element_from_code(int(self.grid[tuple(exponents)]))

    def substitute(self, images):
        """Evaluate at x_j -> images[j-1].

        A square matrix of field codes means the linear substitution
        x_j -> sum_i matrix[j,i] x_i; it must be invertible.
        """
        ring = self.ring
        if isinstance(images, np.ndarray):
            if images.ndim != 2:
                raise ValueError("substitute takes one matrix, not a stack")
            if images.shape != (ring.nvars, ring.nvars):
                raise ValueError("substitution matrix has the wrong shape")
            if det_by_column_loop(ring.ops, images) == 0:
                raise SingularMatrix("linear substitution matrix is singular")
            images = [ring.linear_form(row) for row in images]
        if len(images) != ring.nvars:
            raise ValueError(f"need {ring.nvars} images")
        for img in images:
            self._check(img)
        pow_tables = []
        for img in images:
            tab = [ring.one()]
            for _ in range(ring.p - 1):
                tab.append(tab[-1] * img)
            pow_tables.append(tab)
        acc = ring.zero()
        for exps in np.ndindex(*ring.shape):
            c = int(self.grid[exps])
            if not c:
                continue
            term = ring.scalar(ring.field.element_from_code(c))
            for j, e in enumerate(exps):
                if e:
                    term = term * pow_tables[j][e]
            acc = acc + term
        return acc

    def __str__(self):
        field = self.ring.field
        terms = []
        for exps in np.ndindex(*self.ring.shape):
            c = int(self.grid[exps])
            if not c:
                continue
            mono = " ".join(
                f"x{j + 1}" if e == 1 else f"x{j + 1}^{e}" for j, e in enumerate(exps) if e
            )
            lit = str(field.element_from_code(c))
            if not mono:
                terms.append(lit if field.n == 1 else f"({lit})")
            elif c == 1:
                terms.append(mono)
            else:
                terms.append(f"{lit}*{mono}" if field.n == 1 else f"({lit})*{mono}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return f"TruncatedPolynomial({self})"


def top_scalar_by_grid_products(ring, stack):
    """(B,) codes of the top-monomial scalars of a (B, m, m) stack, on the
    dense grid: each linear form, as a stack of grids, is multiplied p - 1
    times into a (B,) + shape + (n,) accumulator of coefficient planes by
    ring._mul_planes, and everything off the top monomial must vanish.
    No invertibility check: a singular member gives 0."""
    ring = GridRing(ring.field, ring.nvars)
    stack = np.asarray(stack, dtype=np.int64)
    acc = np.zeros((len(stack),) + ring.shape + (ring.ops.n,), dtype=np.int64)
    acc[(slice(None),) + (0,) * (ring.nvars + 1)] = 1  # the planes of 1
    for j in range(ring.nvars):
        form = ring.linear_form(stack[:, j])
        for _ in range(ring.p - 1):
            acc = ring._mul_planes(acc, form)
    acc = ring.ops.encode(acc)
    top = (slice(None),) + (ring.p - 1,) * ring.nvars
    lams = acc[top].copy()
    acc[top] = 0
    if acc.any():
        raise NotScalarMultiple("image of the top monomial is not homogeneous of top degree")
    return lams
