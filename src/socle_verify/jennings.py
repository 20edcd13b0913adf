"""Dimension subgroups, graded layers, and the product basis of kG.

For a p-group G with augmentation ideal J, the dimension subgroups
F_r = {g : g - 1 in J^r} form a chain with elementary abelian quotients.
Writing d_r for the GF(p)-dimension of F_r/F_(r+1) and picking lifts
y_(r,1), ..., y_(r,d_r) in F_r of a quotient basis, the sorted products

    y_1^(e_1) ... y_M^(e_M),    0 <= e_j < p

enumerate G bijectively, (y_j - 1) has degree r_j in the radical
filtration, and the graded dimensions of kG are the coefficients of

    prod_j (1 + t^(r_j) + t^(2 r_j) + ... + t^((p-1) r_j)).

The chain F_r and the lifts come from the radical filtration, which takes
them from PcGroup.jennings_lifts(): the series by the recursive formula
F_r = <[F_(r-1), G], x^p for x in F_ceil(r/p)>, and the lifts by group
closures.  The definitional series, read off the filtration by
dimension_subgroups_definitional(), is kept as the oracle for it.
The filtration holds the layers: the series as sorted index tuples, the
lifts of each layer, and each lift's index, monomial row and degree.
JenningsBasis keeps only the group and the filtration, which the group
caches, so it is built afresh at no cost; it reads the layers, their
ranks d_r and the top degree from the filtration, with no copy or count
of its own: by Jennings' theorem they are right by construction.
jq_dimension_check, which --full-check and the jennings command run,
reads each d_r against the subgroup orders, |F_r| = p^(d_r) |F_(r+1)|,
and the graded dimensions against the product generating function.

A class g F_(r+1), for the table index g, is read off the filtration's
monomial coordinates of g - 1: for g in F_r it is congruent mod J^(r+1)
to sum_j c_j (y_j - 1) over the degree-r lifts, so its coordinates at the
monomials y_j - 1 are the c_j, with no elimination.

The direct sum of the quotients is a restricted Lie algebra: the group
commutator induces the bracket between layers r and r', landing in layer
r + r', and the p-th power map induces the restriction from layer r to
layer p*r.  Everything is generated in degree one under those two
operations.  Lifts are table indices, so lie_bracket and p_restriction
take lift numbers j (the j-th entry of the filtration's lift_indices, of
degree lift_degrees[j]) and return a degree and class coordinates: the
commutator of two lifts is one gather in the Cayley table and the p-th
power a few lookups.  degree_one_generates, which --full-check runs, reads
the Lie structure through those two alone: layer r must be spanned by the
brackets of lift pairs of degrees adding up to r and the restrictions of
the lifts of degree r/p.  The top degree s = (p-1) sum_r r*d_r is
one-dimensional and

    prod_j (y_j - 1)^(p-1) = sum of all elements of G

holds exactly, because (y-1)^(p-1) = 1 + y + ... + y^(p-1) in
characteristic p and the lift words enumerate G, which the radical
filtration checks when it is built; GroupAlgebra.socle_vector reads the
socle line off that check.  JenningsBasis.socle_product multiplies the
product out by kG products, the oracle that --full-check compares with
the sum of all elements.
"""

from __future__ import annotations

import numpy as np

from .groupalgebra import GroupAlgebra, radical_filtration
from .pgroup import PcGroup, _word_value

__all__ = ["JenningsBasis", "DimensionMismatch", "build_jennings_basis"]


class DimensionMismatch(ValueError):
    """A graded dimension, degree, or layer rank came out wrong."""


class JenningsBasis:
    """Layer arithmetic and the product-basis invariants, on the layers the
    filtration holds."""

    def __init__(self, group: PcGroup):
        self.group = group
        # the layers, their ranks d_r and the lift rows and degrees are the
        # filtration's: by Jennings' theorem they are right by construction,
        # and jq_dimension_check confirms them against the subgroup orders
        self.filtration = radical_filtration(group)

    def d(self, r: int) -> int:
        if r < 1:
            raise ValueError("layer degrees start at 1")
        return int(np.count_nonzero(self.filtration.lift_degrees == r))

    # -- layer arithmetic -----------------------------------------------------

    def class_coordinates(self, g: int, r: int) -> np.ndarray:
        """Coordinates of g F_(r+1) on layer r's lifts, for the index g of an
        element of F_r."""
        filt = self.filtration
        if r > len(filt.lifts):  # the series ends at its first trivial term
            if g:
                raise DimensionMismatch(f"g lies outside the trivial subgroup F_{r}")
            return np.zeros(0, dtype=np.int64)
        if g not in filt.series[r - 1]:
            raise DimensionMismatch(f"element is not in F_{r}")
        x = np.zeros(self.group.order, dtype=np.int64)
        x[g] = 1
        x[0] = (x[0] - 1) % self.group.p
        # g F_(r+1) = prod_j y_j^(c_j) F_(r+1) gives g - 1 = sum_j c_j (y_j - 1) mod J^(r+1)
        return filt.coordinates(filt.ops, x)[filt.lift_rows[filt.lift_degrees == r]]

    def lie_bracket(self, j1: int, j2: int) -> tuple[int, np.ndarray]:
        """Bracket of lifts number j1, j2 (0-based); returns (r1+r2, coords).

        The group commutator of the two lifts, one table gather, lands in
        F_(r1+r2); its class there, in degree-(r1+r2) lift coordinates, is
        the induced bracket.
        """
        filt = self.filtration
        r = int(filt.lift_degrees[j1] + filt.lift_degrees[j2])
        y = filt.lift_indices
        return r, self.class_coordinates(self.group.commutator(y[j1], y[j2]), r)

    def p_restriction(self, j: int) -> tuple[int, np.ndarray]:
        """Restriction map on lift number j (0-based); returns (p*r, coords)."""
        filt = self.filtration
        r = self.group.p * int(filt.lift_degrees[j])
        return r, self.class_coordinates(self.group.power(filt.lift_indices[j], self.group.p), r)

    def degree_one_generates(self) -> bool:
        """Every layer r >= 2 must be spanned by the brackets of lifts whose
        degrees add up to r and the restrictions of the lifts of degree r/p.

        The bracket is bilinear, and over GF(p) Jacobson's formula writes
        (sum_i c_i x_i)^[p] as sum_i c_i x_i^[p] plus brackets of lower
        layers, so once every lower layer is full this span is the layer
        that degree one generates; the first layer it falls short in is
        reported.
        """
        degrees = self.filtration.lift_degrees.tolist()
        pairs = [(i, j) for i in range(len(degrees)) for j in range(i)]
        for r in range(2, len(self.filtration.lifts) + 1):
            rows = [self.lie_bracket(i, j)[1] for i, j in pairs if degrees[i] + degrees[j] == r]
            rows += [self.p_restriction(j)[1] for j, dj in enumerate(degrees) if self.group.p * dj == r]
            have = self.filtration.ops.rank(np.reshape(rows, (len(rows), self.d(r))))
            if have != self.d(r):
                raise DimensionMismatch(f"degree-one closure spans {have} of {self.d(r)} dimensions in layer {r}")
        return True

    # -- dimension bookkeeping ---------------------------------------------------

    def pbw_polynomial(self) -> list[int]:
        """Coefficients of prod_j (1 + t^(r_j) + ... + t^((p-1) r_j))."""
        poly = np.ones(1, dtype=np.int64)
        for r in self.filtration.lift_degrees.tolist():
            factor = np.zeros((self.group.p - 1) * r + 1, dtype=np.int64)
            factor[::r] = 1
            poly = np.convolve(poly, factor)
        return poly.tolist()

    def jq_dimension_check(self) -> dict:
        """The layer ranks and graded dimensions against independent counts.

        Each d_r, the number of lifts the filtration chose for F_r/F_(r+1),
        must give |F_r| = p^(d_r) |F_(r+1)| on the subgroup orders of the
        series, and the graded dimensions must match the product
        generating function.  The default filtration counts the weights of
        the same lift monomials, so both hold by construction (Jennings'
        theorem) and the default path does not call this; --full-check
        and the jennings command do, and radical_filtration_by_products()
        (under --full-check) confirms the dimensions independently.
        """
        p = self.group.p
        series = self.filtration.series
        for r, lifts in enumerate(self.filtration.lifts, start=1):
            above, below = len(series[r - 1]), len(series[r])
            if above != p ** len(lifts) * below:
                raise DimensionMismatch(f"|F_{r}/F_{r + 1}| = {above}/{below} is not {p}^{len(lifts)}")
        pbw = self.pbw_polynomial()
        gr = self.filtration.gr_dims
        if len(pbw) != len(gr) or pbw != gr:
            raise DimensionMismatch(f"graded dimensions {gr} != product coefficients {pbw}")
        if sum(pbw) != self.group.order:
            raise DimensionMismatch(f"product coefficients sum to {sum(pbw)}, not {self.group.order}")
        return {
            "gr_dims": list(gr),
            "pbw_dims": list(pbw),
            "socle_degree": self.filtration.socle_degree,
        }

    def socle_product(self, algebra: GroupAlgebra) -> np.ndarray:
        """The codes of prod_j (y_j - 1)^(p-1) in ascending degree order, by
        kG products: the word x_1^(p-1) ... x_M^(p-1) in x_j = y_j - 1,
        multiplied out by _word_value with multiply_codes.

        The oracle for GroupAlgebra.socle_vector, which reads the product
        off the filtration build's enumeration check; runs call it under
        --full-check.
        """
        if algebra.group is not self.group:
            raise ValueError("algebra is over a different group")
        one = algebra.one()
        xs = algebra.ops.sub(np.eye(algebra.dimension, dtype=np.int64)[self.filtration.lift_indices], one)
        word = [(j, self.group.p - 1) for j in range(1, len(xs) + 1)]
        return _word_value(word, xs, algebra.multiply_codes, one)

    def layer_summary(self) -> list[dict]:
        return [
            {
                "r": r,
                "d_r": len(lifts),
                "lifts": [self.group.word_str(y) for y in lifts],
            }
            for r, lifts in enumerate(self.filtration.lifts, start=1)
        ]


def build_jennings_basis(group: PcGroup) -> JenningsBasis:
    """The layer arithmetic on the group's radical filtration, which
    radical_filtration builds once per group (prime-field data, reusable
    for any GF(p^n))."""
    return JenningsBasis(group)
