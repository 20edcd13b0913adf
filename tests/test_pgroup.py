"""Polycyclic group arithmetic against a concrete permutation model.

The dihedral group of order 8 acts on the square's corners; composing
permutations gives a multiplication table computed with no collection
code at all, which pins down both the group law and the normal forms.

The index-level primitives (the Cayley table, the automorphism
permutation built in generator blocks, commutator and power series) are compared
with element-wise definitions: collection of concatenated normal-form
words, and walks with multiply() and inverse().
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socle_verify import (
    InconsistentPresentation,
    NotBijective,
    PcGroup,
    PresentationError,
    RelationViolation,
    catalog,
    catalog_names,
)
from oracle_helpers import (
    agemo_by_products,
    automorphism_perm_by_normal_forms,
    frattini_by_products,
    jennings_series_by_products,
    lower_central_series_by_products,
    product_by_collection,
)


def _compose(f, h):
    return lambda x, f=f, h=h: f(h(x))


def _dihedral_model():
    rot = lambda x: (x + 1) % 4
    ref = lambda x: (-x) % 4
    gens = (ref, rot, _compose(rot, rot))  # g1, g2, g3 = g2^2

    def phi(element):
        f = lambda x: x
        for gen, exp in zip(gens, element.exponents):
            for _ in range(exp):
                f = _compose(f, gen)
        return tuple(f(x) for x in range(4))

    return phi


def test_d8_matches_square_symmetries(group):
    g = group("D8")
    phi = _dihedral_model()
    images = {e.exponents: phi(e) for e in g.elements()}
    assert len(set(images.values())) == 8
    for x in g.elements():
        for y in g.elements():
            fx, fy = images[x.exponents], images[y.exponents]
            composed = tuple(fx[fy[i]] for i in range(4))
            assert images[g.multiply(x, y).exponents] == composed


def test_d8_collection_normal_forms(group):
    g = group("D8")
    s = g.element((1, 0, 0))
    r = g.element((0, 1, 0))
    # s r = r^-1 s, and r^-1 = r g3 in normal form
    assert g.multiply(s, r).exponents == (1, 1, 0)
    assert g.multiply(r, s).exponents == (1, 1, 1)
    assert g.inverse(r).exponents == (0, 1, 1)
    assert g.commutator(r, s).exponents == (0, 0, 1)
    assert g.power(r, 2).exponents == (0, 0, 1)
    assert g.multiply(g.identity(), r) == r


def test_parse_word_and_word_str_roundtrip(group):
    g = group("D16")
    for e in g.elements():
        assert g.parse_word(g.word_str(e)) == e
    assert g.parse_word("g2^3 g1").exponents == g.multiply(
        g.power(g.generator(2), 3), g.generator(1)
    ).exponents


def test_cayley_table_is_a_group(group):
    # identity, inverses, associativity spot checks on every catalog group
    for name in catalog_names():
        g = group(name)
        table = g.cayley_table
        n = g.order
        assert table.shape == (n, n)
        ident = g.index_of(g.identity())
        assert (table[ident] == range(n)).all()
        assert (table[:, ident] == range(n)).all()
        inv = g.inverse_table
        for i in range(n):
            assert table[i, inv[i]] == ident
        # each row and column is a permutation
        for i in range(0, n, max(1, n // 8)):
            assert len(set(table[i])) == n
            assert len(set(table[:, i])) == n


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 124), st.integers(0, 124), st.integers(0, 124))
def test_heis125_associativity(a, b, c):
    g = _HEIS125
    x, y, z = g.element_at(a), g.element_at(b), g.element_at(c)
    assert g.multiply(g.multiply(x, y), z) == g.multiply(x, g.multiply(y, z))


_HEIS125 = catalog("Heis125")


def test_frozen_structure_constants(group):
    expected = {
        # name: (center, frattini, lower central orders, jennings orders)
        "D8": (2, 2, [8, 2, 1], [8, 2, 1]),
        "Q8": (2, 2, [8, 2, 1], [8, 2, 1]),
        # F_3 = F_4 = <r^4> in D16: the squares of F_2 only die at F_5
        "D16": (2, 4, [16, 4, 2, 1], [16, 4, 2, 2, 1]),
        "M16": (4, 4, [16, 2, 1], [16, 4, 2, 2, 1]),
        # exponent 3 kills all cubes, so the chain stops at F_3
        "Heis27": (3, 3, [27, 3, 1], [27, 3, 1]),
        "C4xC2": (8, 2, [8, 1], [8, 2, 1]),
        "ES27": (3, 3, [27, 3, 1], [27, 3, 3, 1]),
    }
    for name, (z, f, lcs, jennings) in expected.items():
        g = group(name)
        assert g.center().order == z, name
        assert g.frattini().order == f, name
        assert [s.order for s in g.lower_central_series()] == lcs, name
        assert [s.order for s in g.jennings_series_recursive()] == jennings, name


def test_agemo_and_frattini(group):
    c9 = group("C9")
    assert c9.agemo(c9.full_subgroup()).order == 3
    assert c9.agemo(c9.full_subgroup(), 2).order == 1
    c4c2 = group("C4xC2")
    # Frattini of C4 x C2 is the square subgroup, generated by g1^2
    frat = c4c2.frattini()
    assert frat.order == 2
    assert c4c2.element((0, 0, 1)) in frat.elements()


def test_subgroup_closure(group):
    g = group("D8")
    s = g.subgroup_closure([g.element((0, 1, 0))])
    assert s.order == 4
    assert g.subgroup_closure([g.element((1, 0, 0)), g.element((0, 1, 0))]).order == 8
    assert g.trivial_subgroup().order == 1


def test_group_automorphism_validates_relations(group):
    g = group("D8")
    # r -> r^3 extends to an automorphism fixing s
    auto = g.group_automorphism(
        [g.element((1, 0, 0)), g.element((0, 1, 1)), g.element((0, 0, 1))]
    )
    assert auto.perm is not None
    # swapping the generators breaks g1^2 = 1
    with pytest.raises(RelationViolation):
        g.group_automorphism(
            [g.element((0, 1, 0)), g.element((1, 0, 0)), g.element((0, 0, 1))]
        )


def test_group_automorphism_rejects_a_broken_commutator(group):
    g = group("Heis27")
    # swapping g1 and g2 keeps every power relation and the central g3, but
    # [g1, g2] = g3^-1, so only [g2, g1] = g3 breaks
    with pytest.raises(RelationViolation, match=r"\[g2,g1\]"):
        g.group_automorphism([g.generator(2), g.generator(1), g.generator(3)])


def test_group_automorphism_rejects_collapse(group):
    g = group("C2xC2")
    same = g.element((1, 0))
    with pytest.raises(NotBijective):
        g.group_automorphism([same, same])


def test_inconsistent_presentation_rejected():
    text = """pcgroup p=2 m=3
g1^2 = g2
g2^2 = g3
g3^2 = 1
[g2,g1] = g3
"""
    with pytest.raises(InconsistentPresentation):
        PcGroup.from_presentation_text(text)


def test_malformed_presentations_rejected():
    with pytest.raises(PresentationError):
        PcGroup.from_presentation_text("pcgroup p=2 m=1\ng1^2 = g5\n")
    with pytest.raises(PresentationError):
        PcGroup.from_presentation_text("not a presentation")
    with pytest.raises(PresentationError):
        # commutator relation must only involve later generators
        PcGroup.from_presentation_text(
            "pcgroup p=2 m=2\ng1^2 = 1\ng2^2 = 1\n[g2,g1] = g1\n"
        )


def test_presentation_text_roundtrip(group):
    for name in ("D8", "Q8", "Heis27", "ES125", "C4xC2"):
        g = group(name)
        rebuilt = PcGroup.from_presentation_text(g.presentation_text(), name=name)
        assert (rebuilt.cayley_table == g.cayley_table).all()


def test_stored_automorphisms_cover_catalog(group):
    for name in catalog_names():
        g = group(name)
        autos = g.stored_automorphisms()
        assert autos, name
        ident = g.identity()
        for auto in autos:
            assert auto.images[0] != ident or g.order <= 2 or len(auto.images) > 1


def test_stored_automorphisms_are_built_once_per_group(monkeypatch):
    """Their relations are checked on the first call only, and every call
    gets a fresh list of the same read-only automorphisms."""
    g = catalog("D8")  # a new group, with nothing built yet
    calls = []
    build = PcGroup.group_automorphism
    monkeypatch.setattr(PcGroup, "group_automorphism",
                        lambda self, images: calls.append(self) or build(self, images))
    first = g.stored_automorphisms()
    assert len(calls) == len(first) > 0
    second = g.stored_automorphisms()
    assert len(calls) == len(first)
    assert second is not first and all(a is b for a, b in zip(first, second))
    first.clear()
    assert len(g.stored_automorphisms()) == len(second)
    assert not any(auto.perm.flags.writeable for auto in second)


def test_elementary_abelian_flags(group):
    assert group("C3xC3").is_elementary_abelian()
    assert group("C2xC2xC2").is_elementary_abelian()
    assert not group("C9").is_elementary_abelian()
    assert not group("D8").is_elementary_abelian()
    assert group("C9").is_abelian()
    assert not group("Heis27").is_abelian()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 26), min_size=2, max_size=5))
def test_word_products_match_table(indices):
    g = _HEIS27
    via_elements = g.identity()
    for i in indices:
        via_elements = g.multiply(via_elements, g.element_at(i))
    code = g.index_of(g.identity())
    for i in indices:
        code = int(g.cayley_table[code, i])
    assert g.index_of(via_elements) == code


_HEIS27 = catalog("Heis27")


def test_generator_blocks_partition_the_normal_forms(group):
    for name in catalog_names():
        g = group(name)
        blocks = g.generator_blocks()
        assert len(blocks) == g.m, name
        covered = np.concatenate([cols.ravel() for _, cols in blocks])
        assert sorted(covered) == list(range(1, g.order)), name
        for k, (prefix, cols) in enumerate(blocks):
            assert cols.shape == (g.p - 1, g.p**k), name
            for x in prefix:
                assert not any(g.element_at(int(x)).exponents[k:]), name
            for e, block in enumerate(cols, start=1):
                for x, col in zip(prefix, block):
                    assert product_by_collection(g, int(x), g.index_of(g.collect([(k + 1, e)]))) == col


def test_cayley_table_matches_collection_on_all_pairs(group):
    count = 0
    for name in catalog_names():
        g = group(name)
        if g.order > 27:
            continue
        t = g.cayley_table
        for a in range(g.order):
            for b in range(g.order):
                assert t[a, b] == product_by_collection(g, a, b), (name, a, b)
        count += 1
    assert count == 20


@pytest.mark.parametrize("name", ["C125", "C5xC5xC5", "Heis125", "ES125"])
def test_cayley_table_matches_collection_on_sampled_pairs(group, name):
    g = group(name)
    rng = random.Random(125)
    for _ in range(2000):
        a, b = rng.randrange(g.order), rng.randrange(g.order)
        assert g.cayley_table[a, b] == product_by_collection(g, a, b), (a, b)


def test_group_automorphism_perm_matches_normal_form_products(group):
    count = 0
    for name in catalog_names():
        g = group(name)
        for auto in g.stored_automorphisms():
            want = automorphism_perm_by_normal_forms(g, auto.images)
            assert auto.perm.tolist() == want, (name, auto)
            count += 1
    assert count == 50


def test_subgroup_series_match_closures_by_products(group):
    for name in catalog_names():
        g = group(name)
        assert [s.indices for s in g.lower_central_series()] == lower_central_series_by_products(g), name
        assert g.frattini().indices == frattini_by_products(g), name
        assert g.agemo(g.full_subgroup(), 1).indices == agemo_by_products(g), name
        assert [s.indices for s in g.jennings_series_recursive()] == jennings_series_by_products(g), name


def test_power_and_commutator_match_products(group):
    g = group("ES27")
    rng = random.Random(27)
    for _ in range(50):
        a, b = g.element_at(rng.randrange(27)), g.element_at(rng.randrange(27))
        k = rng.randrange(-40, 40)
        acc = g.identity()
        for _ in range(abs(k)):
            acc = g.multiply(acc, a if k > 0 else g.inverse(a))
        assert g.power(a, k) == acc
        inv = g.inverse
        assert g.commutator(a, b) == g.multiply(g.multiply(g.multiply(inv(a), inv(b)), a), b)
