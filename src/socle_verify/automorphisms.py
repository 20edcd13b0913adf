"""Algebra automorphisms of kG, as stacks, and the socle-scalar theorem check.

An automorphism is always a member of a stack.  AlgebraAutomorphism holds
B members of one algebra: their (B, |G|, M+1) data, their B provenances,
the name of the certificate that makes every member an automorphism (kept
in pair_check) and member b's action, apply(b, x), on the columns of a
(|G|, k) code array x over the group basis, which keeps nothing it builds.
Member b's matrix (columns = images of group elements) is apply(b, I).
Member b's data is the (|G|, M+1) array of the codes of alpha(y_1), ...,
alpha(y_M), the images of the Jennings lifts in ascending order, and of
alpha(n), the image of the socle vector

    n = prod_j (y_j - 1)^(p-1) = sum of all g.

The theorem check reads nothing else.  Each constructor holds a
certificate, passes its name and computes the data from what it holds:

  from_group_automorphism  "group-automorphism": PcGroup.group_automorphism
                           checked every defining relation on the images
                           (von Dyck) and that the induced map is bijective;
                           the data are the permutations at the lifts and
                           the permuted ones vectors; the action is a row
                           gather by the inverse permutation
  inners                   "unit-inverse": conjugation by u, whose inverse
                           unit_inverse checked by u u^-1 = 1; alpha(y) is
                           u (y u^-1), y u^-1 a gather of u^-1, and alpha(n)
                           is u (n u^-1), n u^-1 constant; both are products
                           by the narrow u, gathers over supp(u); the action
                           is L(u) (R(u^-1) x), two dense products, a second
                           route to the data for check_pairs
  substitutions            "substitution": generator images of augmentation
                           1 that satisfy the presentation's relations in kG
                           extend to an endomorphism (von Dyck), and a
                           nonsingular degree-1 block makes it bijective; the
                           lift images are the lifts' normal-form words in the
                           images, and alpha(n) = prod_j (alpha(y_j) - 1)^(p-1)
                           in ascending lift order, multiplied from the right;
                           the action needs every alpha(g), so it is the
                           product by the matrix _substitution_matrix builds
  compose                  "composition": of pairs of members; the left
                           member applied to the right one's data and, in
                           the action, to the right one's action on x

A matrix from outside goes through from_matrix, which checks it in full
and makes it a one-member stack; its data are its lift columns and its
row sums.  alpha must fix 1, give every group element an image of
augmentation 1, satisfy the generator identities

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
certificate is "generators", and its action the product by the matrix.

A stack's memory is its data: an action builds what it needs on each call
and drops it, and only check_pairs asks for a whole matrix, apply(b, I).
compose applies its left member to the right one's (|G|, M+1) data, so
with a group automorphism or an inner one on the left it takes no
|G| x |G| matrix product.  inners, substitutions and compose each build
one stack from what they are given.  The sources of many members,
random_inners, random_substitutions, stored_automorphisms and
parse_automorphism_specs, yield stacks of at most one member_slices chunk
each, drawn and built one after another as the consumer asks, so a run's
memory does not grow with its count.

check_pairs() is the independent oracle, which the pipeline runs on every
stack under --full-check.  Member by member it compares the data with the
matrix's lift columns and row sums, runs the generator identities, the
spot check and the rank of the whole matrix, then the literal check
alpha(g)alpha(h) = alpha(gh): over every pair when the group has at most
256 elements, over 10*|G| seeded sample pairs beyond that (pair_check then
reads "full" or "sampled", and a sampled check is flagged in every
provenance).

The theorem under test: alpha scales the socle vector sum-of-all-g by
lambda = det(A)^(p-1), where A is the block-diagonal matrix of the maps
alpha induces on the graded layers F_r/F_(r+1) tensored up to k.  In
particular lambda is a (p-1)-st power in k* and equals 1 over the prime
field.

The check is the same computation for every automorphism, so it runs on
stacks, and verify_stack is the only verifier.  It takes any iterable of
stacks of one algebra and fills each member chunk from consecutive
stacks.  The socle scalars are read off the alpha(n) columns of the data,
one coordinates() call per chunk reads the lift images of its members,
the filtration and Lie-subspace checks are masks over the members, each
Jennings layer, read off the filtration as the lifts with
lift_degrees == r, has one stacked det per chunk, and det_total and
det^(p-1) are elementwise code products.  When members fail, the first
failing member raises the error it raises alone.
"""

from __future__ import annotations

import functools
import random
from collections.abc import Iterable, Iterator
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
    """A stack of algebra automorphisms of one kG: their data, their
    provenances, the name of the certificate they share and each member's
    action.

    The caller holds the certificate: it passes the (B, |G|, M+1) data, B
    provenances, the certificate's name, which pair_check records, and
    for apply a function that returns member b applied to the columns of
    a (|G|, k) code array x, apply(b, x); nothing it builds is kept.  A
    matrix from outside goes through from_matrix.
    """

    def __init__(self, algebra: GroupAlgebra, data: np.ndarray, provenances: list[str],
                 certificate: str, apply):
        if len(provenances) != len(data):
            raise ValueError(f"{len(data)} automorphisms but {len(provenances)} provenances")
        self.algebra = algebra
        self.data = data
        self.provenance = list(provenances)
        self.pair_check = certificate
        self.apply = apply

    def __len__(self) -> int:
        return len(self.provenance)

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_matrix(cls, algebra: GroupAlgebra, matrix, provenance: str = "matrix") -> "AlgebraAutomorphism":
        """A one-member stack of a matrix from outside, checked in full:
        its shape, its entries (codes 0 .. q-1), the identity column,
        augmentations, generator identities and spot check
        (_check_identities), and a nonzero degree-1 det.  Its data are its
        lift columns and row sums, its certificate is "generators" and its
        action the product by the matrix."""
        matrix = np.asarray(matrix, dtype=np.int64)
        if matrix.shape != (algebra.dimension, algebra.dimension):
            raise ValueError("automorphism matrix has the wrong shape")
        if ((matrix < 0) | (matrix >= algebra.field.q)).any():
            raise ValueError(f"automorphism matrix entries must be field codes in 0..{algebra.field.q - 1}")
        _check_identities(algebra, matrix)
        data = _data_of(algebra, matrix)[None]
        if _degree_one_dets(algebra, data)[0] == 0:
            raise NotMultiplicative("matrix is not invertible")
        return cls(algebra, data, [provenance], "generators", lambda b, x: algebra.ops.matmul(matrix, x))

    @classmethod
    def from_group_automorphism(cls, algebra: GroupAlgebra,
                                gautos: list[GroupAutomorphism]) -> "AlgebraAutomorphism":
        """The algebra automorphisms the group automorphisms induce, as one stack."""
        if any(gauto.group is not algebra.group for gauto in gautos):
            raise ValueError("group automorphism belongs to a different group")
        n = algebra.dimension
        lifts = algebra.filtration.lift_indices
        perms = np.array([gauto.perm for gauto in gautos], dtype=np.int64).reshape(-1, n)
        # the lift images are group elements, and a permutation fixes the
        # sum of all g; member b's matrix has column g = e_(alpha(g)), so
        # (alpha x)[alpha(g)] = x[g]: a row gather by the inverse permutation
        data = np.ones((len(perms), n, len(lifts) + 1), dtype=np.int64)
        data[:, :, :-1] = perms[:, None, lifts] == np.arange(n)[:, None]
        return cls(algebra, data, [f"group-auto: {gauto.spec_text()}" for gauto in gautos],
                   "group-automorphism", lambda b, x: x[np.argsort(perms[b])])

    @classmethod
    def inners(cls, algebra: GroupAlgebra, units: np.ndarray,
               provenances: list[str]) -> "AlgebraAutomorphism":
        """Conjugations by the members of a (B, |G|) stack of unit codes.

        The inverses come from one stacked unit_inverse, which raises
        NotAUnit on augmentation zero and checks u u^-1 = 1 for every
        member.  The lift images u (y u^-1) and the socle image u (n u^-1),
        n u^-1 the augmentation of u^-1 in every entry, are one
        multiply_codes by the narrow left factor u, a sum of gathers over
        its support.  Member b's action is L(u) (R(u^-1) x), two dense
        products, so the matrix check_pairs compares the data with comes by
        a second route.
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
        return cls(algebra, data, provenances, "unit-inverse", lambda b, x: algebra.ops.matmul(
            algebra.left_mult_matrix(units[b]), algebra.ops.matmul(algebra.right_mult_matrix(inverses[b]), x)))

    @classmethod
    def substitutions(cls, algebra: GroupAlgebra, images: np.ndarray,
                      provenances: list[str]) -> "AlgebraAutomorphism":
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
        products from the right, each by one narrow alpha(y_j) - 1.  Member
        b's action is the product by its matrix, which needs every alpha(g)
        (_substitution_matrix).
        """
        group = algebra.group
        images = np.asarray(images, dtype=np.int64)
        m, n = group.m, algebra.dimension
        if images.shape[1:] != (m, n):
            raise ValueError(f"need {m} generator images")
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
        return cls(algebra, data, provenances, "substitution",
                   lambda b, x: ops.matmul(_substitution_matrix(algebra, images[b]), x))

    @classmethod
    def compose(cls, pairs: list[tuple[tuple[AlgebraAutomorphism, int], tuple[AlgebraAutomorphism, int]]]):
        """alpha after beta for each pair ((alpha's stack, index), (beta's
        stack, index)) of members of one algebra, as one stack: alpha applied
        to beta's data, and member k's action alpha's applied to beta's."""
        algebra = pairs[0][0][0].algebra
        if any(stack.algebra is not algebra for pair in pairs for stack, _ in pair):
            raise FieldMismatch("automorphisms act on different algebras")

        def apply(k: int, x: np.ndarray) -> np.ndarray:
            (left, i), (right, j) = pairs[k]
            return left.apply(i, right.apply(j, x))

        return cls(algebra, np.stack([left.apply(i, right.data[j]) for (left, i), (right, j) in pairs]),
                   [f"compose: {left.provenance[i]} ; {right.provenance[j]}" for (left, i), (right, j) in pairs],
                   "composition", apply)

    # -- checks ----------------------------------------------------------------------

    def check_pairs(self) -> None:
        """Oracle, member by member: data, generator identities, spot check
        and rank, then alpha(g)alpha(h) = alpha(gh).

        Member b's matrix is its action on the identity, apply(b, I).  The
        data must equal the matrix's lift columns and row sums, or
        DataMismatch is raised.  The literal check runs on group elements.
        Every pair is tried when |G| <= FULL_PAIR_CHECK_LIMIT, an O(|G|^4)
        product; beyond that, 10*|G| seeded sample pairs are tried and
        every provenance is flagged.  Sets pair_check to "full" or
        "sampled"; raises NotMultiplicative on a failing identity, rank or
        pair, for the first member that fails.
        """
        if self.pair_check in ("full", "sampled"):
            return
        alg = self.algebra
        ops = alg.ops
        n = alg.dimension
        t = alg.group.cayley_table
        full = n <= FULL_PAIR_CHECK_LIMIT
        # left factors chunked so the stacked gather stays around 16 MB
        step = max(1, linalg.MAX_PRODUCT_CELLS // (n * n))
        # the sampled pairs (g, h) in draw order, grouped by g: one product per g
        rng = random.Random(0x9C3A ^ n)
        sampled: dict[int, list[int]] = {}
        for _ in range(0 if full else 10 * n):
            g = rng.randrange(n)
            sampled.setdefault(g, []).append(rng.randrange(n))
        for b, data in enumerate(self.data):
            matrix = self.apply(b, ops.eye(n))
            if not np.array_equal(data, _data_of(alg, matrix)):
                raise DataMismatch("lift or socle images differ from the matrix's lift columns and row sums")
            _check_identities(alg, matrix)
            if ops.rank(matrix) != n:
                raise NotMultiplicative("matrix is not invertible")
            for lo in range(0, n if full else 0, step):
                cols = matrix[:, lo : lo + step]
                c = cols.shape[1]
                left = alg.left_mult_matrix(cols.T).reshape(c * n, n)
                prod = ops.matmul(left, matrix).reshape(c, n, n)
                if not np.array_equal(prod, matrix[:, t[lo : lo + step]].transpose(1, 0, 2)):
                    raise NotMultiplicative("alpha(g)alpha(h) != alpha(gh) for some pair")
            for g, hs in sampled.items():
                if not np.array_equal(alg.multiply_codes(matrix[:, g], matrix[:, hs]), matrix[:, t[g, hs]]):
                    raise NotMultiplicative("alpha(g)alpha(h) != alpha(gh) for a sampled pair")
        self.pair_check = "full" if full else "sampled"
        if not full:
            self.provenance = [f"{provenance} [sampled multiplicativity]" for provenance in self.provenance]


def _check_identities(alg: GroupAlgebra, matrix: np.ndarray) -> None:
    """Identity column, augmentations, generator identities, spot check."""
    ops = alg.ops
    n = alg.dimension
    if not np.array_equal(matrix[:, 0], alg.one()):
        raise NotMultiplicative("matrix does not fix the identity")
    if not np.all(column_sums(ops, matrix) == 1):
        raise NotMultiplicative("some group image has augmentation != 1 "
                                "(augmentation ideal not preserved)")
    t = alg.group.cayley_table
    for gi in alg.group.generator_indices:
        lhs = matrix[:, t[:, gi]]
        rhs = ops.matmul(alg.right_mult_matrix(matrix[:, gi]), matrix)
        if not np.array_equal(lhs, rhs):
            raise NotMultiplicative("generator identity fails: alpha(x g) != alpha(x) alpha(g)")
    # independent spot check straight from the definition of the product
    rng = random.Random(0xA5_5A)
    q = alg.field.q
    for _ in range(2):
        x, y = (np.array([rng.randrange(q) for _ in range(n)], dtype=np.int64) for _ in range(2))
        lhs_v = ops.matvec(matrix, alg.multiply_codes(x, y))
        rhs_v = alg.multiply_codes(ops.matvec(matrix, x), ops.matvec(matrix, y))
        if not np.array_equal(lhs_v, rhs_v):
            raise NotMultiplicative("sampled product is not preserved")


@dataclass(frozen=True, slots=True)
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


def member_slices(algebra: GroupAlgebra, count: int) -> list[slice]:
    """linalg.member_chunks of count members of algebra's data, |G| (M+1) n
    decoded cells each: the widest stack a source yields, and the chunk
    verify_stack checks at once."""
    return linalg.member_chunks(count, algebra.dimension * (len(algebra.filtration.lift_indices) + 1) * algebra.ops.n)


def verify_stack(stacks: Iterable[AlgebraAutomorphism]) -> list[VerificationReport]:
    """Check alpha(socle) = det(A)^(p-1) * socle and the scalar's
    constraints, for the members of stacks of one algebra, in order.

    Consumes the stacks one at a time and fills each member chunk
    (member_slices) from consecutive stacks; at most one chunk of members
    waits between stacks.  Reads only the members' data (_verify_chunk).
    When members fail, the first of them raises the error it raises alone.
    """
    reports, provenances, alg = [], [], None
    for stack in stacks:
        if alg is None:
            alg, data = stack.algebra, stack.data[:0]
            element = functools.cache(alg.field.element_from_code)
        if stack.algebra is not alg:
            raise FieldMismatch("automorphisms act on different algebras")
        data, provenances = np.concatenate([data, stack.data]), provenances + stack.provenance
        # every full chunk is checked; the members after the last one wait
        *full, rest = member_slices(alg, len(provenances)) or [slice(0)]
        for part in full:
            reports += _verify_chunk(alg, element, data[part], provenances[part])
        data, provenances = data[rest], provenances[rest]
    return reports + (_verify_chunk(alg, element, data, provenances) if provenances else [])


def _verify_chunk(alg: GroupAlgebra, element, data: np.ndarray, provenances: list[str]) -> list[VerificationReport]:
    """The reports of one (B, |G|, M+1) data chunk: the socle scalars from
    the alpha(n) columns, the graded blocks (r, block) and their
    determinants from _graded_stack, det_total and det^(p-1) from
    elementwise code products; element turns a code into a FieldElement."""
    lams, bad = _socle_codes(data)
    layers, failures = _graded_stack(alg, data[:, :, :-1])
    _raise_first([(bad, SocleNotPreserved(SOCLE_MESSAGE))] + failures)
    dets = np.array([d for _, _, d in layers], dtype=np.int64).reshape(len(layers), len(data))
    totals = functools.reduce(alg.ops.mul, dets, np.ones(len(data), dtype=np.int64))
    powers = alg.ops.pow(totals, alg.field.p - 1)
    # the (p-1)-st powers are the units u with u^((q-1)/(p-1)) = 1
    in_subgroup = alg.ops.pow(lams, (alg.field.q - 1) // (alg.field.p - 1)) == 1
    return [
        VerificationReport(
            provenance=provenance,
            socle_scalar=element(lam),
            # copied: a view would keep the chunk's block stack too, a second
            # array per report when a chunk holds one member
            blocks=tuple((r, blocks[b].copy()) for r, blocks, _ in layers),
            block_dets=tuple(map(element, member_dets)),
            det_total=element(total),
            det_power=element(power),
            equation_holds=lam == power,
            lambda_in_power_subgroup=bool(in_subgroup[b]),
            lambda_is_one=lam == 1,
        )
        for b, (provenance, lam, member_dets, total, power) in enumerate(
            zip(provenances, lams.tolist(), dets.T.tolist(), totals.tolist(), powers.tolist()))
    ]


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

def random_inners(algebra: GroupAlgebra, rng: random.Random, count: int) -> Iterator[AlgebraAutomorphism]:
    """Conjugations by count random units 1 + (sparse combination of
    INNER_TERMS (g - 1)), yielded as stacks of member_slices chunks.

    Each member draws (g_k, c_k) for k = 1 .. INNER_TERMS, g_k != 1 and c_k a
    unit, after the member before it; a chunk is drawn when it is asked
    for.  Unit u = 1 + sum_k c_k (g_k - 1) is summed on its coefficients at
    1 and at the drawn g_k, every member of the chunk at once.
    """
    ops, n, q = algebra.ops, algebra.dimension, algebra.field.q
    for part in member_slices(algebra, count):
        size = len(range(count)[part])
        draws = np.array([[rng.randrange(1, n), rng.randrange(1, q)] for _ in range(size * INNER_TERMS)],
                         dtype=np.int64).reshape(size, INNER_TERMS, 2)
        units = np.zeros((size, n), dtype=np.int64)
        units[:, 0] = 1
        members = np.arange(size)
        for k in range(INNER_TERMS):
            g, c = draws[:, k, 0], draws[:, k, 1]
            units[members, g] = ops.add(units[members, g], c)
            units[:, 0] = ops.sub(units[:, 0], c)
        yield AlgebraAutomorphism.inners(algebra, units, [f"random-inner: {algebra.format(u)}" for u in units])


def random_substitutions(algebra: GroupAlgebra, rng: random.Random,
                         count: int) -> Iterator[AlgebraAutomorphism]:
    """count random substitutions on C_p^m, drawn one after another and
    yielded as stacks of member_slices chunks, each drawn when it is asked
    for.

    Each member maps g_i -> 1 + sum_j linear[i, j] (g_j - 1) + tail_i.  The
    linear part is drawn in GL_m(k) by rejection; then, generator by
    generator, with probability 1/2 a tail c * row, for a row of the J^2
    basis of Jennings monomials and a unit c.  The images are summed on
    their codes.  On a group that is not elementary abelian it raises
    ValueError at once, whatever the count.
    """
    group = algebra.group
    if not group.is_elementary_abelian():
        raise ValueError("random-subst draws need an elementary abelian group; "
                         "give images on any pc group with subst:")
    j2 = algebra.filtration.basis(2)
    return (AlgebraAutomorphism.substitutions(
        algebra, np.reshape([_substitution_draw(algebra, rng, j2) for _ in range(count)[part]],
                            (-1, group.m, algebra.dimension)),
        ["random-subst" for _ in range(count)[part]]) for part in member_slices(algebra, count))


def stored_automorphisms(algebra: GroupAlgebra) -> Iterator[AlgebraAutomorphism]:
    """The group's stored automorphisms, as stacks of member_slices chunks."""
    gautos = algebra.group.stored_automorphisms()
    return (AlgebraAutomorphism.from_group_automorphism(algebra, gautos[part])
            for part in member_slices(algebra, len(gautos)))


def _substitution_draw(algebra: GroupAlgebra, rng: random.Random, j2: np.ndarray) -> np.ndarray:
    """The (m, |G|) image codes of one random_substitutions member; its
    tails are drawn from the rows of j2, a basis of J^2."""
    group = algebra.group
    ops, m, q = algebra.ops, group.m, algebra.field.q
    while True:
        linear = np.array([[rng.randrange(q) for _ in range(m)] for _ in range(m)], dtype=np.int64)
        if ops.det(linear[None])[0] != 0:
            break
    images = np.zeros((m, algebra.dimension), dtype=np.int64)
    images[:, group.generator_indices] = linear
    images[:, 0] = ops.sub(1, column_sums(ops, linear.T))
    for i in range(m):
        if j2.shape[0] and rng.random() < 0.5:
            row = j2[rng.randrange(j2.shape[0])]
            images[i] = ops.add(images[i], ops.mul(row, rng.randrange(1, q)))
    return images


# ---------------------------------------------------------------------------
# text specs (CLI surface)

def parse_automorphism_specs(
    algebra: GroupAlgebra, text: str, default_seed: int = 0
) -> Iterable[AlgebraAutomorphism]:
    """Parse one automorphism spec line into its stacks: one stack of one
    member, or for a random-* spec the stacks of its source, drawn when
    they are asked for.  The line is parsed at once.

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
        return [AlgebraAutomorphism.inners(algebra, u[None], [f"inner: {algebra.format(u)}"])]
    if kind == "subst":
        return [_parse_subst(algebra, rest)]
    if kind == "compose":
        parts = [p.strip() for p in rest.split(";")]
        if len(parts) < 2:
            raise ValueError("compose needs at least two specs separated by ';'")
        autos = []
        for part in parts:
            sub = list(parse_automorphism_specs(algebra, part, default_seed))
            if len(sub) != 1 or len(sub[0]) != 1:
                raise ValueError("compose parts must each give a single automorphism")
            autos += sub
        return [functools.reduce(lambda a, b: AlgebraAutomorphism.compose([((a, 0), (b, 0))]), autos)]
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
    return AlgebraAutomorphism.from_group_automorphism(algebra, [group.group_automorphism(images)])


def _parse_subst(algebra: GroupAlgebra, rest: str) -> AlgebraAutomorphism:
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
