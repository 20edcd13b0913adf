"""Algebra automorphisms of kG and the socle-scalar theorem check.

An automorphism alpha carries its data, the name of the certificate that
makes it an automorphism (kept in pair_check), and its matrix over the
group basis (columns = images of group elements), built on first use.
The data is the (|G|, M+1) array of the codes of alpha(y_1), ...,
alpha(y_M), the images of the Jennings lifts in ascending order, and of
alpha(n), the image of the socle vector

    n = prod_j (y_j - 1)^(p-1) = sum of all g.

The theorem check reads nothing else.  Each constructor holds a
certificate, passes its name and computes the data from what it holds:

  from_group_automorphism  "group-automorphism": PcGroup.group_automorphism
                           checked every defining relation on the images
                           (von Dyck) and that the induced map is bijective;
                           the data are the permutation at the lifts and the
                           permuted ones vector
  inners                   "unit-inverse": conjugation by u, whose inverse
                           unit_inverse checked by u u^-1 = 1; alpha(y) is
                           u (y u^-1), y u^-1 a gather of u^-1, and alpha(n)
                           is u (n u^-1), n u^-1 constant; both are products
                           by the narrow u, gathers over supp(u)
  substitutions            "substitution": generator images of augmentation
                           1 that satisfy the presentation's relations in kG
                           extend to an endomorphism (von Dyck), and a
                           nonsingular degree-1 block makes it bijective; the
                           lift images are the lifts' normal-form words in the
                           images, and alpha(n) = prod_j (alpha(y_j) - 1)^(p-1)
                           in ascending lift order, multiplied from the right
  compose                  "composition": of two automorphisms; the left
                           factor's matrix applied to the right one's data

A matrix from outside (the constructor called with no certificate) is
checked in full, and its data are its lift columns and its row sums.
alpha must fix 1, give every group element an image of augmentation 1,
satisfy the generator identities

    M R_(g_i) = R_(alpha(g_i)) M      for every pc generator g_i,

and pass a seeded spot check on two random products.  R_v is right
multiplication.  The identities say alpha(x g_i) = alpha(x) alpha(g_i)
for every x in kG.  Every group element is a normal-form word in the
generators, so induction on the word, starting from alpha(1) = 1, gives
alpha(x h) = alpha(x) alpha(h) for every group element h, and linearity
extends that to all products.  Bijectivity is then read off the degree-1
block, the check substitutions runs too: the coordinates of
alpha(y_j) - 1 at the weight-1 Jennings monomials, for the degree-1 lifts
y_j, must have a nonzero determinant (_degree_one_dets, layer r = 1 of
the graded action, whose docstring gives the Nakayama argument).  Its
certificate is "generators".

A constructor's matrix is built only when check_pairs or compose asks for
it.  inners and substitutions take stacks: (B, |G|) unit codes and
(B, m, |G|) generator image codes.  An inner: or subst: spec is a
one-member stack; random_inners and random_substitutions draw their
members one after another from one rng and build them as one stack.

check_pairs() is the independent oracle, which the pipeline runs on every
automorphism under --full-check.  It compares the data with the matrix's
lift columns and row sums, runs the generator identities, the spot check
and the rank of the whole matrix, then the literal check
alpha(g)alpha(h) = alpha(gh): over
every pair when the group has at most 256 elements, over 10*|G| seeded
sample pairs beyond that (pair_check then reads "full" or "sampled", and
a sampled check is flagged in provenance).

The theorem under test: alpha scales the socle vector sum-of-all-g by
lambda = det(A)^(p-1), where A is the block-diagonal matrix of the maps
alpha induces on the graded layers F_r/F_(r+1) tensored up to k.  In
particular lambda is a (p-1)-st power in k* and equals 1 over the prime
field.

The check is the same computation for every automorphism, so it runs on
stacks, and verify_stack is the only verifier: it takes all automorphisms
of a run at once, in linalg.member_chunks.  The socle scalars are read off
the alpha(n) columns of the data, one coordinates() call per chunk reads
the lift images of its members, the filtration and Lie-subspace checks are
masks over the members, each Jennings layer, read off the filtration as
the lifts with lift_degrees == r, has one stacked det per chunk, and
det_total and det^(p-1) are elementwise code products.  When members
fail, the first failing member raises the error it raises alone.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .ffield import FieldElement, FieldMismatch
from .groupalgebra import GroupAlgebra, column_sums
from .pgroup import GroupAutomorphism, RelationViolation, _word_value, parse_word_pairs

__all__ = [
    "AlgebraAutomorphism",
    "VerificationReport",
    "NotMultiplicative",
    "SocleNotPreserved",
    "FiltrationNotPreserved",
    "LieSubspaceViolated",
    "SingularLinearPart",
    "DataMismatch",
    "verify_stack",
    "random_inners",
    "random_substitutions",
    "parse_automorphism_specs",
]

# check_pairs() tries every pair up to this order and samples pairs beyond it
FULL_PAIR_CHECK_LIMIT = 256

# largest count a random-* spec, a sweep or gl-check accepts
MAX_COUNT = 10_000

# terms c (g - 1) in the unit of a random inner automorphism
INNER_TERMS = 3

SOCLE_MESSAGE = "socle vector image is not a nonzero multiple of itself"


def check_count(value: int, what: str) -> int:
    """Return value; raise ValueError unless 0 <= value <= MAX_COUNT."""
    if not 0 <= value <= MAX_COUNT:
        raise ValueError(f"{what} must lie in 0..{MAX_COUNT}, got {value}")
    return value


class NotMultiplicative(ValueError):
    """Matrix fails an algebra-homomorphism identity."""


class SocleNotPreserved(ValueError):
    """Image of the socle vector is not a nonzero multiple of itself."""


class FiltrationNotPreserved(ValueError):
    """Image of a filtration layer escaped its radical power."""


class LieSubspaceViolated(ValueError):
    """Image of a layer lift left the span of that layer's lift classes."""


class SingularLinearPart(ValueError):
    """Substitution images have a singular degree-1 block."""


class DataMismatch(ValueError):
    """A constructor's lift and socle images differ from its matrix."""


class AlgebraAutomorphism:
    """An algebra automorphism of kG: its data, its matrix and the name of
    its certificate.

    A caller that already holds a certificate passes its name, which
    pair_check records, the data, and for matrix a function that builds it
    on first use.  With no certificate the matrix is outside input and gets
    the full check (identity column, augmentations, generator identities,
    spot check, degree-1 det); pair_check then reads "generators".  Data
    not given are read off the matrix.
    """

    def __init__(self, algebra: GroupAlgebra, matrix, provenance: str = "matrix",
                 certificate: str | None = None, data: np.ndarray | None = None):
        self.algebra = algebra
        self.provenance = provenance
        self._matrix = None
        if callable(matrix):
            self._build = matrix
        else:
            self._matrix = np.asarray(matrix, dtype=np.int64)
            if self._matrix.shape != (algebra.dimension, algebra.dimension):
                raise ValueError("automorphism matrix has the wrong shape")
        self.data = data if data is not None else _data_of(algebra, self.matrix)
        if certificate is None:
            self._check_identities()
            if _degree_one_dets(algebra, self.data[None])[0] == 0:
                raise NotMultiplicative("matrix is not invertible")
            certificate = "generators"
        self.pair_check = certificate

    @property
    def matrix(self) -> np.ndarray:
        """The |G| x |G| matrix over the group basis, built on first use."""
        if self._matrix is None:
            self._matrix = self._build()
        return self._matrix

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_group_automorphism(cls, algebra: GroupAlgebra, gauto: GroupAutomorphism) -> "AlgebraAutomorphism":
        if gauto.group is not algebra.group:
            raise ValueError("group automorphism belongs to a different group")
        n = algebra.dimension
        lifts = algebra.filtration.lift_indices
        data = np.zeros((n, len(lifts) + 1), dtype=np.int64)
        data[gauto.perm[lifts], np.arange(len(lifts))] = 1
        data[gauto.perm, -1] = 1

        def build() -> np.ndarray:
            matrix = np.zeros((n, n), dtype=np.int64)
            matrix[gauto.perm, np.arange(n)] = 1
            return matrix

        return cls(algebra, build, f"group-auto: {gauto.spec_text()}",
                   certificate="group-automorphism", data=data)

    @classmethod
    def inners(cls, algebra: GroupAlgebra, units: np.ndarray,
               provenances: list[str]) -> list["AlgebraAutomorphism"]:
        """Conjugations by the members of a (B, |G|) stack of unit codes.

        The inverses come from one stacked unit_inverse, which raises
        NotAUnit on augmentation zero and checks u u^-1 = 1 for every
        member.  The lift images u (y u^-1) and the socle image u (n u^-1),
        n u^-1 the augmentation of u^-1 in every entry, are one
        multiply_codes by the narrow left factor u, a sum of gathers over
        its support; the matrices L(u) R(u^-1) are built on first use.
        """
        units = np.asarray(units, dtype=np.int64)
        inverses = algebra.unit_inverse(units)
        group = algebra.group
        # (y a)[g] = a[y^-1 g], and (n a)[g] = sum_h a[h] for every g
        gathers = group.cayley_table[group.inverse_table[algebra.filtration.lift_indices]]
        sums = column_sums(algebra.ops, inverses.T)
        right = np.concatenate([inverses.take(gathers, axis=-1),
                                np.broadcast_to(sums[:, None, None], (len(units), 1, units.shape[1]))], axis=1)
        data = algebra.multiply_codes(units, right.transpose(0, 2, 1))
        return [cls(algebra, functools.partial(_conjugation_matrix, algebra, u, uinv), provenance,
                    certificate="unit-inverse", data=d)
                for u, uinv, d, provenance in zip(units, inverses, data, provenances, strict=True)]

    @classmethod
    def substitutions(cls, algebra: GroupAlgebra, images: np.ndarray,
                      provenances: list[str]) -> list["AlgebraAutomorphism"]:
        """Extend g_i -> images[b, i] multiplicatively, for every member b of
        a (B, m, |G|) stack of image codes, on any pc group.

        By von Dyck's theorem the images extend to an algebra endomorphism
        exactly when they satisfy the presentation's relations in kG; an
        image of augmentation 1 is a unit, and a degree-1 block of nonzero
        determinant makes the map bijective (_degree_one_dets).  The
        checks run in that order, each on the whole stack: augmentations,
        every relation of PcGroup.relations with both sides multiplied out
        by stacked kG products (_word_value), and the degree-1 det.  On an
        abelian presentation, one with no commutator words, kG is
        commutative and only the power relations are checked.  The lift
        images are the lifts' normal-form words evaluated on the images, a
        gather for a lift that is a generator, and alpha(n) is the product
        prod_j (alpha(y_j) - 1)^(p-1) in ascending lift order, by stacked kG
        products from the right, each by one narrow alpha(y_j) - 1.
        """
        group = algebra.group
        images = np.asarray(images, dtype=np.int64)
        m, n = group.m, algebra.dimension
        if images.shape[1:] != (m, n):
            raise ValueError(f"need {m} generator images")
        if not len(images):
            return []
        ops = algebra.ops
        bad = np.argwhere(column_sums(ops, images.transpose(2, 0, 1)) != 1)
        if bad.size:
            raise ValueError(f"image of g{bad[0, 1] + 1} must have augmentation 1")
        value = functools.partial(_word_value, images=images.transpose(1, 0, 2),
                                  product=algebra.multiply_codes, one=algebra.one())
        relations = group.relations if group.comm_words else group.relations[:m]
        # the left sides g_i^p of the m power relations, one power of the (B m, |G|) images
        powers = value(((1, group.p),), images=[images.reshape(-1, n)]).reshape(-1, m, n).transpose(1, 0, 2)
        lefts = [*powers, *(value(lhs) for _, lhs, _ in relations[m:])]
        _raise_first([((left != value(rhs)).any(axis=-1), RelationViolation(f"images break the {name}"))
                      for left, (name, _, rhs) in zip(lefts, relations)])
        words = [[(i, e) for i, e in enumerate(row, start=1) if e]
                 for row in group.exponents[algebra.filtration.lift_indices].tolist()]
        lifts = np.stack([value(word) for word in words], axis=1)
        if (_degree_one_dets(algebra, lifts.transpose(0, 2, 1)) == 0).any():
            raise SingularLinearPart("linear part of the substitution is singular")
        factors = np.repeat(ops.sub(lifts, algebra.one()), group.p - 1, axis=1)
        top = functools.reduce(lambda acc, factor: algebra.multiply_codes(factor, acc),
                               factors.transpose(1, 0, 2)[::-1])
        data = np.concatenate([lifts, top[:, None]], axis=1).transpose(0, 2, 1)
        return [cls(algebra, functools.partial(_substitution_matrix, algebra, member), provenance,
                    certificate="substitution", data=d)
                for member, d, provenance in zip(images, data, provenances, strict=True)]

    def compose(self, other: "AlgebraAutomorphism") -> "AlgebraAutomorphism":
        """self after other: self's matrix applied to other's data."""
        if other.algebra is not self.algebra:
            raise FieldMismatch("automorphisms act on different algebras")
        ops = self.algebra.ops
        left = self.matrix
        return AlgebraAutomorphism(
            self.algebra, lambda: ops.matmul(left, other.matrix),
            f"compose: {self.provenance} ; {other.provenance}",
            certificate="composition", data=ops.matmul(left, other.data),
        )

    # -- checks ----------------------------------------------------------------------

    def _check_identities(self) -> None:
        """Identity column, augmentations, generator identities, spot check."""
        alg = self.algebra
        ops = alg.ops
        n = alg.dimension
        one = alg.one()
        if not np.array_equal(self.matrix[:, 0], one):
            raise NotMultiplicative("matrix does not fix the identity")
        if not np.all(column_sums(ops, self.matrix) == 1):
            raise NotMultiplicative("some group image has augmentation != 1 "
                                    "(augmentation ideal not preserved)")
        t = alg.group.cayley_table
        for gi in alg.group.generator_indices:
            lhs = self.matrix[:, t[:, gi]]
            rhs = ops.matmul(alg.right_mult_matrix(self.matrix[:, gi]), self.matrix)
            if not np.array_equal(lhs, rhs):
                raise NotMultiplicative("generator identity fails: alpha(x g) != alpha(x) alpha(g)")
        # independent spot check straight from the definition of the product
        rng = random.Random(0xA5_5A)
        q = alg.field.q
        for _ in range(2):
            x = np.array([rng.randrange(q) for _ in range(n)], dtype=np.int64)
            y = np.array([rng.randrange(q) for _ in range(n)], dtype=np.int64)
            lhs_v = ops.matvec(self.matrix, alg.multiply_codes(x, y))
            rhs_v = alg.multiply_codes(ops.matvec(self.matrix, x), ops.matvec(self.matrix, y))
            if not np.array_equal(lhs_v, rhs_v):
                raise NotMultiplicative("sampled product is not preserved")

    def check_pairs(self) -> None:
        """Oracle: data, generator identities, spot check and rank, then alpha(g)alpha(h) = alpha(gh).

        The data must equal the matrix's lift columns and row sums, or
        DataMismatch is raised.  The literal check runs on group elements.  Every pair is tried when |G| <= FULL_PAIR_CHECK_LIMIT, an O(|G|^4)
        product; beyond that, 10*|G| seeded sample pairs are tried and the
        provenance is flagged.  Sets pair_check to "full" or "sampled";
        raises NotMultiplicative on a failing identity, rank or pair.
        """
        if self.pair_check in ("full", "sampled"):
            return
        if not np.array_equal(self.data, _data_of(self.algebra, self.matrix)):
            raise DataMismatch("lift or socle images differ from the matrix's lift columns and row sums")
        self._check_identities()
        alg = self.algebra
        ops = alg.ops
        n = alg.dimension
        if ops.rank(self.matrix) != n:
            raise NotMultiplicative("matrix is not invertible")
        t = alg.group.cayley_table
        if n <= FULL_PAIR_CHECK_LIMIT:
            # left factors chunked so the stacked gather stays around 16 MB
            step = max(1, linalg.MAX_PRODUCT_CELLS // (n * n))
            for lo in range(0, n, step):
                cols = self.matrix[:, lo : lo + step]
                c = cols.shape[1]
                left = alg.left_mult_matrix(cols.T).reshape(c * n, n)
                prod = ops.matmul(left, self.matrix).reshape(c, n, n)
                want = self.matrix[:, t[lo : lo + step]].transpose(1, 0, 2)
                if not np.array_equal(prod, want):
                    raise NotMultiplicative("alpha(g)alpha(h) != alpha(gh) for some pair")
            self.pair_check = "full"
            return
        # the pairs (g, h) in draw order, grouped by g: one product per g
        rng = random.Random(0x9C3A ^ n)
        sampled: dict[int, list[int]] = {}
        for _ in range(10 * n):
            g = rng.randrange(n)
            sampled.setdefault(g, []).append(rng.randrange(n))
        for g, hs in sampled.items():
            prod = alg.multiply_codes(self.matrix[:, g], self.matrix[:, hs])
            if not np.array_equal(prod, self.matrix[:, t[g, hs]]):
                raise NotMultiplicative("alpha(g)alpha(h) != alpha(gh) for a sampled pair")
        self.pair_check = "sampled"
        self.provenance += " [sampled multiplicativity]"

    def __repr__(self) -> str:
        return f"AlgebraAutomorphism({self.provenance})"


@dataclass(frozen=True)
class VerificationReport:
    provenance: str
    socle_scalar: FieldElement
    blocks: tuple[tuple[int, np.ndarray], ...] = field(compare=False)
    block_dets: tuple[FieldElement, ...]
    det_total: FieldElement
    det_power: FieldElement
    equation_holds: bool
    lambda_in_power_subgroup: bool
    lambda_is_one: bool

    def as_dict(self) -> dict:
        return {
            "provenance": self.provenance,
            "lambda": str(self.socle_scalar),
            "det_blocks": [
                {"r": int(r), "det": str(d)}
                for (r, _), d in zip(self.blocks, self.block_dets)
            ],
            "det_total": str(self.det_total),
            "det_pow": str(self.det_power),
            "equation_holds": bool(self.equation_holds),
            "in_subgroup": bool(self.lambda_in_power_subgroup),
            "lambda_is_one": bool(self.lambda_is_one),
        }


def verify_stack(autos: list[AlgebraAutomorphism]) -> list[VerificationReport]:
    """Check alpha(socle) = det(A)^(p-1) * socle and the scalar's
    constraints, for automorphisms of one algebra, as one stack.

    Reads only the members' data: the socle scalars from the alpha(n)
    columns, the graded blocks (r, block) and their determinants from
    _graded_stack, det_total and det^(p-1) from elementwise code products.
    The members run in linalg.member_chunks of |G| (M+1) n decoded cells
    each, in order.  When members fail, the first of them raises the error
    it raises alone.
    """
    if not autos:
        return []
    alg = autos[0].algebra
    if any(auto.algebra is not alg for auto in autos):
        raise FieldMismatch("automorphisms act on different algebras")
    ops = alg.ops
    element = functools.cache(alg.field.element_from_code)
    reports = []
    for part in linalg.member_chunks(len(autos), autos[0].data.size * ops.n):
        chunk = autos[part]
        data = np.stack([auto.data for auto in chunk])
        lams, bad = _socle_codes(data)
        layers, failures = _graded_stack(alg, data[:, :, :-1])
        _raise_first([(bad, SocleNotPreserved(SOCLE_MESSAGE))] + failures)
        dets = np.array([d for _, _, d in layers], dtype=np.int64).reshape(len(layers), len(chunk))
        totals = functools.reduce(ops.mul, dets, np.ones(len(chunk), dtype=np.int64))
        powers = ops.pow(totals, alg.field.p - 1)
        # the (p-1)-st powers are the units u with u^((q-1)/(p-1)) = 1
        in_subgroup = ops.pow(lams, (alg.field.q - 1) // (alg.field.p - 1)) == 1
        reports += [
            VerificationReport(
                provenance=auto.provenance,
                socle_scalar=element(lam),
                blocks=tuple((r, blocks[b]) for r, blocks, _ in layers),
                block_dets=tuple(map(element, member_dets)),
                det_total=element(total),
                det_power=element(power),
                equation_holds=lam == power,
                lambda_in_power_subgroup=bool(in_subgroup[b]),
                lambda_is_one=lam == 1,
            )
            for b, (auto, lam, member_dets, total, power) in enumerate(
                zip(chunk, lams.tolist(), dets.T.tolist(), totals.tolist(), powers.tolist()))
        ]
    return reports


def _socle_codes(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lambda codes, failed) of a (B, |G|, M+1) data stack: v = alpha(sum of
    all g) is the last column, lambda its first entry, and a member fails
    unless v = lambda * (sum of all g) with lambda != 0."""
    v = data[:, :, -1]
    lams = v[:, 0]
    return lams, (lams == 0) | (v != lams[:, None]).any(axis=1)


def _data_of(alg: GroupAlgebra, matrix: np.ndarray) -> np.ndarray:
    """The data of a matrix: its lift columns, then its row sums, alpha(sum of all g)."""
    return np.concatenate([matrix[:, alg.filtration.lift_indices],
                           column_sums(alg.ops, matrix.T)[:, None]], axis=1)


def _conjugation_matrix(alg: GroupAlgebra, unit: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """L(u) R(u^-1), the matrix of x -> u x u^-1."""
    return alg.ops.matmul(alg.left_mult_matrix(unit), alg.right_mult_matrix(inverse))


def _substitution_matrix(alg: GroupAlgebra, images: np.ndarray) -> np.ndarray:
    """The matrix of g_i -> images[i], built in the group's generator blocks.

    Once the columns of the prefixes x in <g_1, ..., g_(k-1)> are known
    (PcGroup.generator_blocks()), alpha(x g_k^e) = alpha(x) a_k^e fills the
    columns of all x g_k^e, for e = 1 .. p-1, with one product
    R(a_k^e) * M[:, prefix]: m(p-1) matrix products in all.  The powers
    a^e of all images are one stacked product per exponent.
    """
    group = alg.group
    powers = [images]
    for _ in range(group.p - 2):
        powers.append(alg.multiply_codes(powers[-1], images))
    n = alg.dimension
    matrix = np.zeros((n, n), dtype=np.int64)
    matrix[0, 0] = 1
    for k, (prefix, cols) in enumerate(group.generator_blocks()):
        for power, block in zip(powers, cols):
            matrix[:, block] = alg.ops.matmul(alg.right_mult_matrix(power[k]), matrix[:, prefix])
    return matrix


def _degree_one_dets(alg: GroupAlgebra, lifts: np.ndarray) -> np.ndarray:
    """(B,) determinant codes of the degree-1 blocks of a (B, |G|, k) stack of
    lift images in ascending lift order, k at least the number of degree-1
    lifts: layer r = 1 of _graded_stack.

    The y_j - 1 of the degree-1 lifts span J/J^2, so a nonzero det means
    alpha is onto J/J^2, and by Nakayama an endomorphism of the local
    algebra kG that is onto J/J^2 is onto J, hence onto kG.
    """
    return _graded_stack(alg, lifts[:, :, : len(alg.filtration.lifts[0])])[0][0][2]


def _graded_stack(alg: GroupAlgebra, lifts: np.ndarray) -> tuple[list, list]:
    """(layers, failures) of the graded actions of a (B, |G|, k) stack of the
    images of the first k lifts, all of them for verify_stack.

    The images alpha(y) - 1 of these lifts of all members are read off on
    the Jennings monomials by one coordinates() call.  Block column j in degree
    r holds the coordinates of alpha(y_j) - 1 at the monomials y_i - 1 of
    the layer's lifts; every coordinate of weight < r, and every other one
    of weight r, must vanish, which the failures record as masks over the
    members, in the order one member is checked in: column by column, then
    the layer's determinant.  layers lists (r, (B, d_r, d_r) blocks, (B,)
    determinant codes) for every layer of nonzero rank.  A layer's block
    columns and rows belong to the lifts with filtration.lift_degrees == r.
    """
    ops = alg.ops
    filt = alg.filtration
    lifts = lifts.copy()
    lifts[:, 0] = ops.sub(lifts[:, 0], 1)  # alpha(y) - 1
    size, n, width = lifts.shape
    coords = filt.coordinates(ops, lifts.transpose(1, 0, 2).reshape(n, size * width))
    coords = coords.reshape(n, size, width)
    layers: list[tuple[int, np.ndarray, np.ndarray]] = []
    failures: list[tuple[np.ndarray, Exception]] = []
    for r in sorted(set(filt.lift_degrees[:width].tolist())):
        # the lifts ascend in degree, so those of degree r are one slice
        first, stop = np.searchsorted(filt.lift_degrees, [r, r + 1])
        rows = filt.lift_rows[first:stop]
        layer_coords = coords[:, :, first:stop]
        others = filt.weights == r
        others[rows] = False
        below = layer_coords[filt.weights < r].any(axis=0)
        outside = layer_coords[others].any(axis=0)
        for j in range(len(rows)):
            failures.append((below[:, j], FiltrationNotPreserved(
                f"image of a degree-{r} lift is not 1 mod J^{r}")))
            failures.append((outside[:, j], LieSubspaceViolated(
                f"image class in layer {r} left the span of the layer lifts")))
        blocks = layer_coords[rows].transpose(1, 0, 2)
        dets = ops.det(blocks)
        failures.append((dets == 0, FiltrationNotPreserved(f"induced block in degree {r} is singular")))
        layers.append((r, blocks, dets))
    return layers, failures


def _raise_first(failures: list[tuple[np.ndarray, Exception]]) -> None:
    """Raise the first failed check of the first member that fails one.

    failures lists (mask over the members, error) in the order one member
    is checked in; the first failing member of every check is found, and
    the least (member, check) pair wins.
    """
    failed = [(int(mask.argmax()), k) for k, (mask, _) in enumerate(failures) if mask.any()]
    if failed:
        raise failures[min(failed)[1]][1]


# ---------------------------------------------------------------------------
# seeded random sources

def random_inners(algebra: GroupAlgebra, rng: random.Random, count: int) -> list[AlgebraAutomorphism]:
    """Conjugations by count random units 1 + (sparse combination of
    INNER_TERMS (g - 1)), built as one stack.

    Each member draws (g_k, c_k) for k = 1 .. INNER_TERMS, g_k != 1 and c_k a
    unit, after the member before it.  Unit u = 1 + sum_k c_k (g_k - 1) is
    summed on its coefficients at 1 and at the drawn g_k, every member at
    once.
    """
    n = algebra.dimension
    q = algebra.field.q
    ops = algebra.ops
    draws = np.array([[rng.randrange(1, n), rng.randrange(1, q)] for _ in range(count * INNER_TERMS)],
                     dtype=np.int64).reshape(count, INNER_TERMS, 2)
    units = np.zeros((count, n), dtype=np.int64)
    units[:, 0] = 1
    members = np.arange(count)
    for k in range(INNER_TERMS):
        g, c = draws[:, k, 0], draws[:, k, 1]
        units[members, g] = ops.add(units[members, g], c)
        units[:, 0] = ops.sub(units[:, 0], c)
    provenances = [f"random-inner: {algebra.format(u)}" for u in units]
    return AlgebraAutomorphism.inners(algebra, units, provenances)


def random_substitutions(algebra: GroupAlgebra, rng: random.Random,
                         count: int) -> list[AlgebraAutomorphism]:
    """count random substitutions on C_p^m, drawn one after another and
    built as one stack.

    Each member maps g_i -> 1 + sum_j linear[i, j] (g_j - 1) + tail_i.  The
    linear part is drawn in GL_m(k) by rejection; then, generator by
    generator, with probability 1/2 a tail c * row, for a row of the J^2
    basis and a unit c.  The images are summed on their codes.  On a group
    that is not elementary abelian it raises ValueError, whatever the count.
    """
    group = algebra.group
    if not group.is_elementary_abelian():
        raise ValueError("random-subst draws need an elementary abelian group; "
                         "give images on any pc group with subst:")
    images = [_substitution_draw(algebra, rng) for _ in range(count)]
    return AlgebraAutomorphism.substitutions(
        algebra, np.reshape(images, (count, group.m, algebra.dimension)), ["random-subst"] * count)


def _substitution_draw(algebra: GroupAlgebra, rng: random.Random) -> np.ndarray:
    """The (m, |G|) image codes of one random_substitutions member."""
    group = algebra.group
    ops, m, q = algebra.ops, group.m, algebra.field.q
    while True:
        linear = np.array([[rng.randrange(q) for _ in range(m)] for _ in range(m)], dtype=np.int64)
        if ops.det(linear[None])[0] != 0:
            break
    images = np.zeros((m, algebra.dimension), dtype=np.int64)
    images[:, group.generator_indices] = linear
    images[:, 0] = ops.sub(1, column_sums(ops, linear.T))
    j2 = algebra.filtration.basis(2)[0]
    for i in range(m):
        if j2.shape[0] and rng.random() < 0.5:
            row = j2[rng.randrange(j2.shape[0])]
            images[i] = ops.add(images[i], ops.mul(row, rng.randrange(1, q)))
    return images


# ---------------------------------------------------------------------------
# text specs (CLI surface)

def parse_automorphism_specs(
    algebra: GroupAlgebra, text: str, default_seed: int = 0
) -> list[AlgebraAutomorphism]:
    """Parse one automorphism spec line.

    Forms:
      group-auto: g1 -> g1 g3, g2 -> g2     (omitted generators stay fixed)
      inner: 1 + g1 + (t)*g2
      subst: x1 -> x1 + x2, x2 -> (t)*x2    (x_i stands for g_i - 1)
      random-inner seed=42 [count=5]
      random-subst seed=42 [count=5]
      compose: <spec> ; <spec>              (right side applied first)

    default_seed is used by random-* specs that carry no seed= option.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty automorphism spec")
    head, colon, rest = s.partition(":")
    kind = head.strip().lower()
    if kind == "group-auto":
        return [_parse_group_auto(algebra, rest)]
    if kind == "inner":
        u = algebra.parse(rest.strip())
        return AlgebraAutomorphism.inners(algebra, u[None], [f"inner: {algebra.format(u)}"])
    if kind == "subst":
        return _parse_subst(algebra, rest)
    if kind == "compose":
        parts = [p.strip() for p in rest.split(";")]
        if len(parts) < 2:
            raise ValueError("compose needs at least two specs separated by ';'")
        autos = []
        for part in parts:
            sub = parse_automorphism_specs(algebra, part, default_seed)
            if len(sub) != 1:
                raise ValueError("compose parts must each give a single automorphism")
            autos.append(sub[0])
        return [functools.reduce(AlgebraAutomorphism.compose, autos)]
    words = kind.split() or [""]
    if not colon and words[0] in ("random-inner", "random-subst"):
        opts = _random_options(words[1:])
        rng = random.Random(opts.get("seed", default_seed))
        count = check_count(opts.get("count", 1), "count")
        if words[0] == "random-inner":
            return random_inners(algebra, rng, count)
        return random_substitutions(algebra, rng, count)
    raise ValueError(f"unknown automorphism spec kind {words[0]!r} in {s!r}")


def _random_options(tokens: list[str]) -> dict[str, int]:
    """The seed=<int> and count=<int> options of a random-* spec, each at most once."""
    opts: dict[str, int] = {}
    for tok in tokens:
        key, eq, value = tok.partition("=")
        if key in opts:
            raise ValueError(f"option {key}= given twice, again in {tok!r}")
        if eq and key in ("seed", "count"):
            try:
                opts[key] = int(value)
                continue
            except ValueError:
                pass
        raise ValueError(f"bad option {tok!r}: expected seed=<int> or count=<int>")
    return opts


def _parse_clauses(rest: str, symbol: str, m: int) -> dict[int, str]:
    """{i: rhs} of the comma-separated clauses 'symbol<i> -> rhs', 1 <= i <= m,
    each i at most once."""
    clauses: dict[int, str] = {}
    for clause in rest.split(","):
        clause = clause.strip()
        if not clause:
            continue
        lhs, arrow, rhs = clause.partition("->")
        if not arrow:
            raise ValueError(f"expected '{symbol}i -> ...' in {clause!r}")
        src = lhs.strip()
        if not (src.startswith(symbol) and src[1:].isdigit()):
            raise ValueError(f"left side {src!r} must be a single {symbol}i")
        i = int(src[1:])
        if not 1 <= i <= m:
            raise ValueError(f"{symbol}{i} out of range {symbol}1..{symbol}{m}")
        if i in clauses:
            raise ValueError(f"{symbol}{i} given twice, again in {clause!r}")
        clauses[i] = rhs.strip()
    return clauses


def _parse_group_auto(algebra: GroupAlgebra, rest: str) -> AlgebraAutomorphism:
    group = algebra.group
    images = list(group.generator_indices)
    for i, rhs in _parse_clauses(rest, "g", group.m).items():
        images[i - 1] = group.parse_word(rhs)
    gauto = group.group_automorphism(images)
    return AlgebraAutomorphism.from_group_automorphism(algebra, gauto)


def _parse_subst(algebra: GroupAlgebra, rest: str) -> list[AlgebraAutomorphism]:
    images = np.eye(algebra.dimension, dtype=np.int64)[algebra.group.generator_indices]
    for i, rhs in _parse_clauses(rest, "x", algebra.group.m).items():
        images[i - 1] = algebra.ops.add(algebra.one(), _parse_x_polynomial(algebra, rhs))
    return AlgebraAutomorphism.substitutions(algebra, images[None], [f"subst: {rest.strip()}"])


def _parse_x_polynomial(algebra: GroupAlgebra, text: str) -> np.ndarray:
    """The codes of a polynomial in x_i = g_i - 1 with no constant term.

    Each monomial is a word in the x_i, multiplied out in its order by
    _word_value with kG products.  x_i^|G| = g_i^|G| - 1 = 0 in
    characteristic p, so an exponent above |G| is cut to |G|.
    """
    n = algebra.dimension
    xs = algebra.ops.sub(np.eye(n, dtype=np.int64)[algebra.group.generator_indices], algebra.one())

    def monomial(word: str) -> np.ndarray:
        pairs = parse_word_pairs(word, algebra.group.m, "x")
        if not pairs:
            raise ValueError("substitution images may not contain constant terms")
        if any(e < 1 for _, e in pairs):
            raise ValueError(f"exponents in {word!r} must be at least 1")
        return _word_value([(i, min(e, n)) for i, e in pairs], xs, algebra.multiply_codes, algebra.one())

    return algebra.parse_terms(text, monomial)
