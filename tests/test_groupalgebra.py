"""Group algebra arithmetic and the radical filtration.

The cyclic case has a transparent model: k[C_p^r] is k[x]/(x^q) with
x = g - 1, so powers of the augmentation ideal drop dimension by one per
step.  That model, plus brute-force annihilator computations, supplies
the oracles here.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socle_verify import GF, FiltrationError, GroupAlgebra, NotAUnit, PcGroup, build_jennings_basis, catalog
from socle_verify.groupalgebra import (
    SPARSE_PRODUCT_SHARE,
    RadicalFiltration,
    column_sums,
    dimension_subgroups_definitional,
    radical_filtration,
    radical_filtration_by_products,
    series_definitions_agree,
)
from socle_verify.linalg import FieldOps
from socle_verify.pipeline import RunStageError, run
from conftest import shared_algebra
from oracle_helpers import (
    AlgebraElement,
    gr_coordinates,
    in_radical_power,
    multiply_codes_by_matrix,
    reduce_rows,
    unit_inverse_by_series,
)
from conftest import shared_products_oracle
from oracle_helpers import (
    catalog_and_random_groups,
    filtration_by_monomial_echelon,
    jennings_monomials,
    jennings_series_by_products,
    products_oracle_with_complements,
    top_monomial_by_gathers,
)

C2_7 = "pcgroup p=2 m=7\n"
HEIS27_X_C3 = "pcgroup p=3 m=4\n[g2,g1] = g3\n"
BENCH_PRESENTATIONS = Path(__file__).resolve().parents[1] / "perfbench" / "presentations"


def test_cyclic_dims_follow_polynomial_model(group):
    # k[C_q] = k[x]/(x^q) gives dim J^r = q - r
    for name, q in (("C2", 2), ("C3", 3), ("C5", 5), ("C4", 4), ("C9", 9), ("C8", 8)):
        filt = radical_filtration(group(name))
        assert filt.dims == list(range(q, -1, -1)), name
        assert filt.socle_degree == q - 1, name


def test_d8_filtration_dims_frozen(group):
    filt = radical_filtration(group("D8"))
    assert filt.dims == [8, 7, 5, 3, 1, 0]
    assert filt.gr_dims == [1, 2, 2, 2, 1]
    assert filt.socle_degree == 4


def test_powers_of_augmentation_generator_span_cyclic(algebra):
    # in C5, (g-1)^r spans J^r exactly
    alg = algebra("C5")
    g = AlgebraElement.embed(alg, alg.group.generator_indices[0])
    x = g - 1
    power = AlgebraElement.one(alg)
    for r in range(1, 5):
        power = power * x
        assert in_radical_power(alg, power.codes, r)
        assert not in_radical_power(alg, power.codes, r + 1)


def test_socle_vector_annihilates(algebra):
    for name in ("D8", "Q8", "C9", "Heis27"):
        alg = algebra(name)
        socle = AlgebraElement(alg, alg.socle_vector())
        for gi in alg.group.generator_indices:
            j = AlgebraElement.embed(alg, gi) - 1
            assert (socle * j).is_zero()
            assert (j * socle).is_zero()


def test_annihilator_is_one_dimensional_brute_force(algebra):
    # solve for {x : x*(g_i-1) = 0 = (g_i-1)*x} directly with nullspaces
    for name in ("D8", "C9", "Q8"):
        alg = algebra(name)
        ops = alg.ops
        rows = []
        for gi in alg.group.generator_indices:
            j = (AlgebraElement.embed(alg, gi) - 1).codes
            rows.append(alg.right_mult_matrix(j))
            rows.append(alg.left_mult_matrix(j))
        null = ops.nullspace(np.vstack(rows))
        assert null.shape[0] == 1
        # the one basis vector is a scalar multiple of the all-group sum
        target = alg.socle_vector()
        nz = int(np.flatnonzero(target)[0])
        k = alg.field
        c = k.element_from_code(int(null[0][nz]))
        assert not c.is_zero()
        scaled = [k.code_of(k.element_from_code(int(v)) / c) for v in null[0]]
        assert scaled == list(target)


def test_structural_socle_matches_nullspace_oracle(algebra, all_names):
    algebras = [algebra(name) for name in all_names]
    c2_7 = PcGroup.from_presentation_text("pcgroup p=2 m=7\n", name="C2^7")
    algebras.append(GroupAlgebra(c2_7, GF(2)))
    assert len(algebras) == 25
    for alg in algebras:
        assert np.array_equal(alg.socle_vector(), alg.socle_vector_by_nullspace()), alg.group.name


def test_top_monomial_by_gathers_is_the_socle_vector(algebra, all_names):
    # the moved check: prod_j (y_j - 1)^(p-1), by one gather per factor and
    # by kG products, is the sum of all elements of G, which socle_vector()
    # reads off the build's enumeration check
    algebras = [algebra(name) for name in [*all_names, "C2^9"]]
    for f in ("c2x7.pc", "heis27xc3.pc"):
        g = PcGroup.from_presentation_text((BENCH_PRESENTATIONS / f).read_text(), name=f)
        algebras.append(GroupAlgebra(g, GF(g.p)))
    assert len(algebras) == 27
    for alg in algebras:
        top = top_monomial_by_gathers(alg.filtration)
        assert np.array_equal(top, np.ones(alg.dimension, dtype=np.int64)), alg.group.name
        assert np.array_equal(top, alg.socle_vector()), alg.group.name
        assert np.array_equal(top, build_jennings_basis(alg.group).socle_product(alg)), alg.group.name


def _assert_same_filtration(filt, oracle, label, ops=None):
    # ops, the filtration's GF(p) by default, is the field of the echelon
    # oracle and of the complement ranks
    ops = ops or filt.ops
    bases, pivots, complements, _ = oracle
    echelon, echelon_pivots = filtration_by_monomial_echelon(filt.group, ops)
    assert len(filt.dims) == len(bases) == len(echelon), label
    assert filt.dims == [b.shape[0] for b in bases], label
    for r, theirs in enumerate(bases):
        # basis(r) is over the prime field, a basis over every field of characteristic p
        mine, my_pivots = ops.rref(filt.basis(r))
        assert my_pivots == pivots[r] == echelon_pivots[r], label
        assert np.array_equal(mine, theirs) and np.array_equal(mine, echelon[r]), label
    assert filt.matches(bases), label
    # read on the Jennings monomials, the oracle's degree-r complement lies
    # in J^r and its classes span the weight-r coordinates
    assert len(complements) == len(filt.gr_dims), label
    for r, comp in enumerate(complements):
        coords = filt.coordinates(ops, comp.T)
        assert not coords[filt.weights < r].any(), label
        assert ops.rank(coords[filt.weights == r]) == filt.gr_dims[r] == comp.shape[0], label


def test_filtration_matches_products_oracle(group, all_names):
    groups = [group(name) for name in all_names]
    groups += [
        PcGroup.from_presentation_text(C2_7, name="C2^7"),
        PcGroup.from_presentation_text(HEIS27_X_C3, name="Heis27xC3"),
    ]
    for g in groups:
        _assert_same_filtration(radical_filtration(g), shared_products_oracle(g), g.name)


def test_filtration_matches_products_oracle_over_extension_field(group, all_names):
    # echelonization commutes with extension of scalars: the GF(p) filtration
    # has the GF(p^2) products' dims, pivots and bases
    names = [name for name in all_names if group(name).order <= 27]
    assert len(names) == 20
    for name in names:
        g = group(name)
        ops = FieldOps(GF(g.p, 2))
        _assert_same_filtration(radical_filtration(g), products_oracle_with_complements(g, ops), name, ops)


def test_basis_matches_both_oracles_over_extension_field_on_every_group(group, all_names):
    # the GF(p) filtration against the prime-field products oracle and the
    # GF(p^2) monomial echelon: the RREF basis over GF(p) of a space spanned
    # over GF(p) is its RREF basis over GF(p^2) (test above); the products
    # over GF(p^2) take about 35 s on the order-125 groups on a 2-core Xeon VM
    groups = [group(name) for name in all_names]
    groups += [
        PcGroup.from_presentation_text((BENCH_PRESENTATIONS / f).read_text(), name=f)
        for f in ("c2x7.pc", "heis27xc3.pc")
    ]
    assert len(groups) == 26
    for g in groups:
        _assert_same_filtration(radical_filtration(g), shared_products_oracle(g), g.name, FieldOps(GF(g.p, 2)))


def _c4_with_lifts(monkeypatch, choose):
    c4 = PcGroup.from_presentation_text("pcgroup p=2 m=2\ng1^2 = g2\n", name="C4")
    series, lifts = c4.jennings_lifts()
    assert lifts == [(c4.generator_indices[0],), (c4.generator_indices[1],)]
    monkeypatch.setattr(c4, "jennings_lifts", lambda: (series, choose(lifts)))
    return c4


def test_filtration_rejects_lifts_that_are_not_a_jennings_basis(monkeypatch):
    # C4 with g1 standing in for the degree-2 lift g2 = g1^2: the lift words
    # then miss g2 and g1 g2, and the weight-1 monomial g1 - 1 already lies
    # in the span of the heavier ones
    c4 = _c4_with_lifts(monkeypatch, lambda lifts: [lifts[0], lifts[0]])
    with pytest.raises(FiltrationError, match="do not enumerate G"):
        RadicalFiltration(c4)
    with pytest.raises(FiltrationError, match="weight-1"):
        filtration_by_monomial_echelon(c4)


def test_swapped_c4_lifts_pass_the_build_and_fail_the_products_oracle(monkeypatch):
    # g2 = g1^2 as the degree-1 lift and g1 as the degree-2 one: the lift
    # words enumerate C4, so the build, which relies on Jennings' theorem
    # for the lifts it is given, and the monomial echelon accept them; only
    # the stacked products see that g1 - 1 does not lie in J^2
    c4 = _c4_with_lifts(monkeypatch, lambda lifts: lifts[::-1])
    filt = RadicalFiltration(c4)
    filtration_by_monomial_echelon(c4)
    assert filt.dims == [4, 3, 2, 1, 0]
    assert np.all(top_monomial_by_gathers(filt) == 1)
    assert filt.matches(radical_filtration_by_products(c4)[0]) is False
    # so a default run passes, and --full-check stops at the products oracle
    alg = GroupAlgebra(c4, GF(2))
    assert run(alg, []).verdict
    with pytest.raises(RunStageError, match=r"\[filtration\] .*filtration_products_oracle"):
        run(alg, [], full_check=True)


def test_echelon_oracle_rejects_exactly_the_lifts_the_build_rejects(all_names, monkeypatch):
    # the monomials are a unitriangular transform of the lift words, so they
    # are independent exactly when the words enumerate G
    rng = random.Random(15)
    groups = [catalog(name) for name in all_names]
    verdicts = []
    for _ in range(240):
        g = rng.choice(groups)
        series, lifts = g.jennings_lifts()
        drawn = [
            tuple(rng.choice(series[r][1:]) for _ in layer)
            for r, layer in enumerate(lifts)
        ]
        monkeypatch.setattr(g, "jennings_lifts", lambda: (series, drawn))
        try:
            RadicalFiltration(g)
            built = True
        except FiltrationError as err:
            assert "do not enumerate G" in str(err)
            built = False
        try:
            filtration_by_monomial_echelon(g, lifts=drawn)
            echelon = True
        except FiltrationError:
            echelon = False
        assert built == echelon, (g.name, drawn)
        monkeypatch.undo()
        verdicts.append(built)
    assert 40 <= sum(verdicts) <= 200


def test_dimension_subgroups_match_recursive_series(group):
    for name in ("D8", "D16", "M16", "Heis27", "ES27", "C4xC2"):
        g = group(name)
        definitional = dimension_subgroups_definitional(g)
        recursive = g.jennings_series_recursive()
        assert len(definitional) == len(recursive), name
        for a, b in zip(definitional, recursive):
            assert a == b, name


def test_lift_degrees_are_the_depths_in_the_products_series(all_names):
    # lift j has degree r exactly when it lies in F_r but not in F_(r+1) of
    # the series built one product at a time
    for g in catalog_and_random_groups(all_names):
        filt = radical_filtration(g)
        series = jennings_series_by_products(g)
        depths = [max(r for r, term in enumerate(series, start=1) if y in term) for y in filt.lift_indices.tolist()]
        assert filt.lift_degrees.tolist() == depths, g.name
        assert depths == sorted(depths), g.name


def test_series_definitions_agree_and_see_a_neighbour_swapped_in(all_names, monkeypatch):
    swaps = 0
    for g in catalog_and_random_groups(all_names):
        assert series_definitions_agree(g), g.name
        filt = radical_filtration(g)
        series = filt.series
        # each term that differs from a neighbour, replaced by that neighbour
        for k in range(len(series)):
            for other in (k - 1, k + 1):
                if 0 <= other < len(series) and series[other] != series[k]:
                    swapped = series[:k] + [series[other]] + series[k + 1:]
                    monkeypatch.setattr(filt, "series", swapped)
                    assert not series_definitions_agree(g), (g.name, k, other)
                    monkeypatch.undo()
                    swaps += 1
    assert swaps >= 200


def test_membership_thresholds_match_subgroups(algebra, group):
    alg = algebra("D8")
    g = group("D8")
    chain = dimension_subgroups_definitional(g)
    for el in range(g.order):
        x = (AlgebraElement.embed(alg, el) - 1).codes
        for r in range(1, len(chain) + 1):
            in_subgroup = r <= len(chain) and el in set(
                chain[min(r, len(chain)) - 1]
            )
            if r <= len(chain):
                assert in_radical_power(alg, x, r) == in_subgroup


def test_gr_coordinates_certificate(algebra):
    alg = algebra("Q8")
    rng = random.Random(42)
    filt = alg.filtration
    monomials = jennings_monomials(alg)
    for r in range(1, filt.socle_degree + 1):
        codes = np.zeros(alg.dimension, dtype=np.int64)
        basis = filt.basis(r)
        for row in basis:
            if rng.random() < 0.5:
                codes = (codes + row) % 2
        x = AlgebraElement(alg, codes)
        coords = gr_coordinates(alg, codes, r)
        assert coords.shape == (filt.gr_dims[r],)  # gr_dims[0] is degree zero
        # subtracting the weight-r monomials, multiplied out, with these
        # coefficients lands one level deeper
        weight_r = [m for m, w in zip(monomials, filt.weights) if w == r]
        rest = x
        for c, m in zip(coords, weight_r):
            rest = rest - m * int(c)
        assert not reduce_rows(alg.ops, rest.codes, *alg.ops.rref(filt.basis(r + 1))).any()


def test_gr_coordinates_rejects_outsiders(algebra):
    alg = algebra("D8")
    with pytest.raises(FiltrationError):
        gr_coordinates(alg, alg.one(), 99)
    with pytest.raises(FiltrationError):
        gr_coordinates(alg, alg.one(), 1)  # 1 is not in J


def test_unit_inverse_roundtrip(algebra):
    alg = algebra("Q8")
    rng = random.Random(7)
    for _ in range(10):
        codes = np.array([rng.randrange(2) for _ in range(8)], dtype=np.int64)
        x = AlgebraElement(alg, codes)
        if x.augmentation().is_zero():
            with pytest.raises(NotAUnit):
                alg.unit_inverse(codes[None])
        else:
            inv = AlgebraElement(alg, alg.unit_inverse(codes[None])[0])
            assert (x * inv) == AlgebraElement.one(alg)
            assert (inv * x) == AlgebraElement.one(alg)


def test_negative_power_names_unit_inverse(algebra):
    alg = algebra("D8")
    x = AlgebraElement.embed(alg, alg.group.generator_indices[0])
    assert x**0 == AlgebraElement.one(alg) and x**2 * x**2 == x**4
    with pytest.raises(ValueError, match=r"GroupAlgebra\.unit_inverse"):
        (1 + x) ** -1
    assert hasattr(GroupAlgebra, "unit_inverse")


def test_unit_inverse_matches_geometric_series(all_names):
    rng = random.Random(11)
    count = 0
    for name in list(all_names) + ["C2^7"]:
        for n in (1, 2):
            alg = shared_algebra(name, n)
            q = alg.field.q
            for _ in range(3):
                u = AlgebraElement(alg, np.array([rng.randrange(q) for _ in range(alg.dimension)], dtype=np.int64))
                if u.augmentation().is_zero():
                    u = u + 1
                inverse = alg.unit_inverse(u.codes[None])[0]
                assert np.array_equal(inverse, unit_inverse_by_series(alg, u).codes), (name, n)
                count += 1
    assert count == 150


def _draw_sparse_units(alg, rng, count, terms=3):
    """count units 1 + sum_k c_k (g_k - 1), drawn as random_inners draws them."""
    ops = alg.ops
    units = np.zeros((count, alg.dimension), dtype=np.int64)
    units[:, 0] = 1
    for u in units:
        for _ in range(terms):
            g, c = rng.randrange(1, alg.dimension), rng.randrange(1, alg.field.q)
            u[g] = ops.add(u[g], c)
            u[0] = ops.sub(u[0], c)
    return units


def test_unit_inverse_both_branches_match_series(all_names, monkeypatch):
    """Sparse units on every catalog group over GF(p) and GF(p^2), three to
    a stack, and a dense unit on C27 (s = 26) and on C2^9: every inverse is
    the geometric series oracle's.  The series runs forward, with no
    multiply_codes call before the check u u^-1 = 1, exactly when s w <= |G|
    for the widest z = 1 - u/eps; otherwise z is squared.  Both occur."""
    rng = random.Random(20)
    cases = [(name, degree, _draw_sparse_units) for name in all_names for degree in (1, 2)]
    cases += [("C27", 2, None), ("C2^9", 2, None)]
    branches = set()
    for name, degree, draw in cases:
        alg = shared_algebra(name, degree)
        n, q = alg.dimension, alg.field.q
        if draw is None:
            units = np.array([[rng.randrange(q) for _ in range(n)]], dtype=np.int64)
            units[0, 0] = alg.ops.add(units[0, 0], 1 if column_sums(alg.ops, units[0]) == 0 else 0)
        else:
            units = draw(alg, rng, 3)
        eps = column_sums(alg.ops, units.T)
        z = alg.ops.sub(alg.one(), alg.ops.mul(units, alg.ops.inv(eps)[:, None]))
        forward = alg.socle_degree * (z != 0).sum(axis=1).max() <= n
        branches.add(bool(forward))
        calls = []
        multiply_codes = alg.multiply_codes
        monkeypatch.setattr(alg, "multiply_codes", lambda a, b: calls.append(1) or multiply_codes(a, b))
        inverses = alg.unit_inverse(units)
        monkeypatch.undo()
        assert len(calls) == 1 if forward else len(calls) >= min(2, alg.socle_degree), name
        for u, inverse in zip(units, inverses):
            assert np.array_equal(inverse, unit_inverse_by_series(alg, AlgebraElement(alg, u)).codes), (name, degree)
    assert branches == {True, False}


@pytest.mark.parametrize("name", ["D8", "C27", "Heis125", "C2^7"])
@pytest.mark.parametrize("degree", [1, 2])
def test_multiply_codes_matches_dense_oracle(name, degree, monkeypatch):
    """Both paths of multiply_codes against the |G| x |G| matrix product, over
    GF(2), GF(3), GF(4), GF(9), GF(5) and GF(25): widest left members of 0,
    1 and 4 nonzeros, at the crossover and one either side of it, and of
    |G|; stacks of 1 and 5 members; right operands (B, |G|) and
    (B, |G|, 3), and the one-vector call.  Up to the crossover the product
    builds no left_mult_matrix, beyond it it does."""
    alg = shared_algebra(name, degree)
    n, q = alg.dimension, alg.field.q
    rng = np.random.default_rng(n * q)
    built = []
    left_mult_matrix = alg.left_mult_matrix
    monkeypatch.setattr(alg, "left_mult_matrix", lambda codes: built.append(1) or left_mult_matrix(codes))
    for k in (None, 3):
        crossover = alg.ops.n**2 * n // (SPARSE_PRODUCT_SHARE * (k or 1))
        for width in sorted({0, 1, 4, crossover - 1, crossover, crossover + 1, n} & set(range(n + 1))):
            for members in (1, 5):
                a = np.zeros((members, n), dtype=np.int64)
                for b, row in enumerate(a):
                    w = width if b == 0 else int(rng.integers(0, width + 1))
                    row[rng.choice(n, w, replace=False)] = rng.integers(1, q, w)
                right = rng.integers(0, q, (members, n) if k is None else (members, n, k))
                want = multiply_codes_by_matrix(alg, a, right)
                built.clear()
                assert np.array_equal(alg.multiply_codes(a, right), want), (width, members, k)
                assert bool(built) == (width > crossover), (width, members, k)
                assert np.array_equal(alg.multiply_codes(a[0], right[0]), want[0]), (width, k)


def test_mult_matrices_agree_with_products(algebra):
    alg = algebra("D8")
    rng = random.Random(3)
    for _ in range(5):
        a = AlgebraElement(alg, np.array([rng.randrange(2) for _ in range(8)], dtype=np.int64))
        b = AlgebraElement(alg, np.array([rng.randrange(2) for _ in range(8)], dtype=np.int64))
        left = AlgebraElement(alg, alg.ops.matvec(alg.left_mult_matrix(a.codes), b.codes))
        right = AlgebraElement(alg, alg.ops.matvec(alg.right_mult_matrix(b.codes), a.codes))
        assert left == a * b
        assert right == a * b


def test_parse_and_str_roundtrip_extension_field(group):
    alg = GroupAlgebra(group("D8"), GF(2, 2))
    x = alg.parse("1 + (t+1)*g1*g2 + (t)*g3")
    assert alg.format(alg.parse(alg.format(x))) == alg.format(x)
    assert AlgebraElement(alg, x).coefficient(alg.group.parse_word("g1 g2")) == alg.field.parse("t+1")
    y = AlgebraElement(alg, alg.parse("g1")) * AlgebraElement(alg, alg.parse("g2"))
    assert y == AlgebraElement.embed(alg, alg.group.parse_word("g1 g2"))
    # over a prime field, with decimal coefficients and consecutive signs
    prime = GroupAlgebra(group("Heis27"), GF(3))
    z = prime.parse("2 + 2*g1*g2 - g3 + g1 g2^2 --g2 + 4 g3")
    assert prime.format(z) == "2*1 + g2 + 2*g1 g2 + g1 g2^2"
    assert np.array_equal(prime.parse(prime.format(z)), z)
    assert AlgebraElement(prime, z).coefficient(prime.group.parse_word("g3")) == 0


def test_scalar_and_augmentation(algebra):
    alg = algebra("C9")
    x = AlgebraElement(alg, alg.parse("2 + g1 + 2*g2"))
    assert x.augmentation() == alg.field.element(5)
    one = AlgebraElement.one(alg)
    assert one * 2 + one * 1 == one * 0
    assert np.array_equal(np.ones(alg.dimension, dtype=np.int64), alg.socle_vector())


def test_field_group_characteristic_mismatch(group):
    from socle_verify import FieldMismatch

    with pytest.raises(FieldMismatch):
        GroupAlgebra(group("D8"), GF(3))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3**4 - 1))
def test_c9_group_embedding_is_multiplicative(code):
    alg = _C9_ALG
    g = alg.group
    a = code % 9
    b = (code * 7 + 1) % 9
    assert AlgebraElement.embed(alg, g.cayley_table[a, b]) == AlgebraElement.embed(alg, a) * AlgebraElement.embed(alg, b)


_C9_ALG = GroupAlgebra(__import__("socle_verify").catalog("C9"), GF(3))
