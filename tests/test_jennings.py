"""Jennings layers, lifts, brackets, and the dimension bookkeeping.

Frozen values below were derived by hand from the presentations: the
layer of degree r is F_r/F_(r+1), brackets come from group commutators,
and p-restrictions from p-th powers.
"""

from __future__ import annotations

import gc
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from socle_verify import (
    GF,
    FieldMismatch,
    GroupAlgebra,
    PcGroup,
    build_jennings_basis,
    catalog,
    catalog_names,
)
from socle_verify.groupalgebra import dimension_subgroups_definitional, radical_filtration
from socle_verify.jennings import DimensionMismatch, JenningsBasis
from socle_verify.pipeline import build_group_field
from oracle_helpers import (
    assert_lie_structure_compatible,
    catalog_and_random_groups,
    degree_one_closure_by_witnesses,
    layer_ranks,
    lift_words_by_walk,
    lifts_by_gr_coordinates,
    pbw_dimension,
    pbw_polynomial_oracle,
)

BENCH_PRESENTATIONS = Path(__file__).resolve().parents[1] / "perfbench" / "presentations"

# socle degree (p-1) * sum(r * d_r), computed by hand from the chains
SOCLE_DEGREES = {
    "C2": 1, "C4": 3, "C8": 7,
    "C3": 2, "C9": 8, "C27": 26,
    "C5": 4, "C25": 24, "C125": 124,
    "C2xC2": 2, "C3xC3": 4, "C5xC5": 8,
    "C2xC2xC2": 3, "C3xC3xC3": 6, "C5xC5xC5": 12,
    "C4xC2": 4, "D8": 4, "Q8": 4,
    "D16": 8, "M16": 8,
    "Heis27": 8, "Heis125": 16,
    "ES27": 10, "ES125": 28,
}


def test_c4_layers_and_p_restriction(basis):
    b = basis("C4")
    assert b.filtration.lift_degrees.tolist() == [1, 2]
    degree, coords = b.p_restriction(0)
    assert degree == 2
    assert list(coords) == [1]
    # squaring the degree-2 lift falls off the chain
    degree, coords = b.p_restriction(1)
    assert degree == 4
    assert coords.size == 0


def test_d8_bracket_hits_commutator_layer(basis):
    b = basis("D8")
    assert b.filtration.lift_degrees.tolist() == [1, 1, 2]
    degree, coords = b.lie_bracket(1, 0)
    assert degree == 2
    assert list(coords) == [1]
    # bracket is alternating: [u,u] = 0
    degree, coords = b.lie_bracket(0, 0)
    assert not coords.any()


def test_q8_p_restrictions_land_on_center(basis):
    b = basis("Q8")
    for j in (0, 1):
        degree, coords = b.p_restriction(j)
        assert degree == 2
        assert list(coords) == [1]


def test_m16_has_a_zero_layer(basis):
    b = basis("M16")
    assert layer_ranks(b) == [2, 1, 0, 1]
    assert b.d(3) == 0
    assert pbw_dimension(b, 0) == 1
    assert len(b.filtration.lifts) == 4


def test_pbw_polynomial_frozen_examples(basis):
    assert [pbw_dimension(basis("D8"), r) for r in range(5)] == [1, 2, 2, 2, 1]
    assert [pbw_dimension(basis("C8"), r) for r in range(8)] == [1] * 8
    got = [pbw_dimension(basis("Heis27"), r) for r in range(9)]
    assert got == [1, 2, 4, 4, 5, 4, 4, 2, 1]
    assert pbw_dimension(basis("D8"), 99) == 0


def test_pbw_polynomial_matches_convolution_oracle(basis, group):
    for name in catalog_names():
        b = basis(name)
        oracle = pbw_polynomial_oracle(group(name).p, layer_ranks(b))
        got = [pbw_dimension(b, r) for r in range(len(oracle))]
        assert got == oracle, name
        assert sum(oracle) == group(name).order, name


def test_jq_dimension_check_shape(basis):
    for name in ("D8", "Heis27", "C25"):
        out = basis(name).jq_dimension_check()
        assert out["gr_dims"] == out["pbw_dims"]
        assert out["socle_degree"] == SOCLE_DEGREES[name]


def test_layers_come_from_the_filtration_with_no_order_read(monkeypatch):
    """JenningsBasis holds the group and the filtration and nothing else: it
    reads its layers off the filtration's lifts and neither rebuilds the
    series nor reads a subgroup order; jq_dimension_check reads the orders."""
    group = catalog("D16")
    filt = radical_filtration(group)
    for name in ("jennings_series_recursive", "jennings_lifts"):
        monkeypatch.setattr(group, name, lambda: pytest.fail("the series was rebuilt"))
    monkeypatch.setattr(filt, "series", None)  # reading a subgroup order would fail
    b = JenningsBasis(group)
    monkeypatch.undo()
    assert vars(b) == {"group": group, "filtration": filt}
    assert [b.d(r) for r in range(1, len(filt.lifts) + 2)] == [len(lifts) for lifts in filt.lifts] + [0]
    assert [layer["lifts"] for layer in b.layer_summary()] == [[group.word_str(y) for y in lifts]
                                                                for lifts in filt.lifts]
    assert filt.lift_rows.tolist() == [group.p**j for j in range(len(filt.lift_indices))]
    assert len(filt.lifts) == len(filt.series) - 1
    assert b.jq_dimension_check()["socle_degree"] == SOCLE_DEGREES["D16"]


def test_jq_dimension_check_reads_each_rank_against_the_orders(monkeypatch):
    b = JenningsBasis(catalog("D16"))
    lifts = b.filtration.lifts
    monkeypatch.setattr(b.filtration, "lifts", [lifts[0][:1]] + lifts[1:])
    with pytest.raises(DimensionMismatch, match=re.escape("|F_1/F_2| = 16/4 is not 2^1")):
        b.jq_dimension_check()


def test_socle_degrees_frozen(basis, all_names):
    assert set(SOCLE_DEGREES) == set(all_names)
    for name in all_names:
        assert basis(name).jq_dimension_check()["socle_degree"] == SOCLE_DEGREES[name]


def test_degree_one_generates(basis):
    for name in ("D8", "Q8", "D16", "M16", "Heis27", "ES27", "C27"):
        assert basis(name).degree_one_generates()


def _degree_one_outcome(check, b):
    """True, or the DimensionMismatch message check(b) raises."""
    try:
        return check(b)
    except DimensionMismatch as err:
        return str(err)


def test_degree_one_generates_matches_the_closure_by_witnesses(all_names):
    """The per-layer spans of brackets and restrictions against the closure
    over witness group elements, on every catalog group, the two benchmark
    presentations and the consistent random presentations of seeds 0..99."""
    groups = catalog_and_random_groups(all_names)
    groups += [PcGroup.from_presentation_text(path.read_text(), name=path.stem)
               for path in (BENCH_PRESENTATIONS / "c2x7.pc", BENCH_PRESENTATIONS / "heis27xc3.pc")]
    for g in groups:
        b = build_jennings_basis(g)
        assert b.degree_one_generates() is True, g.name
        assert degree_one_closure_by_witnesses(b) is True, g.name


@pytest.mark.parametrize("patched, names", [
    (("commutator", "power"), ("C4", "D8", "Q8", "D16", "M16", "C4xC2", "Heis27", "ES27", "C27")),
    (("power",), ("C4", "C27", "C4xC2")),
])
def test_degree_one_shortfall_matches_the_closure_by_witnesses(monkeypatch, patched, names):
    """With group commutators, p-th powers or both read as the identity, the
    per-layer check and the closure by witnesses fail in the same layer with
    the same message."""
    for name in names:
        g = catalog(name)
        b = build_jennings_basis(g)  # the filtration is built before the patch
        for attr in patched:
            monkeypatch.setattr(g, attr, lambda *args: 0)
        mine = _degree_one_outcome(JenningsBasis.degree_one_generates, b)
        assert isinstance(mine, str) and mine.startswith("degree-one closure spans 0 of "), name
        assert mine == _degree_one_outcome(degree_one_closure_by_witnesses, b), name


def test_normal_form_bijection(group, all_names):
    # the filtration's lift words, against products walked over the table
    for name in list(all_names) + ["C2^7"]:
        filt = radical_filtration(group(name))
        lifts = [y for layer in filt.lifts for y in layer]
        words = lift_words_by_walk(filt.group, lifts)
        assert words == filt.words.tolist(), name
        assert sorted(words) == list(range(filt.group.order)), name


def test_socle_product_formula(basis, algebra):
    for name in ("D8", "Q8", "Heis27", "C25", "C4xC2"):
        alg = algebra(name)
        assert np.array_equal(basis(name).socle_product(alg), alg.socle_vector())


def test_class_coordinates_detect_depth(basis, group):
    g = group("D8")
    b = basis("D8")
    chain = g.jennings_series_recursive()
    # elements of F_1 \ F_2 have nonzero degree-1 coordinates
    f2 = set(chain[1])
    for el in range(1, g.order):
        if el in f2:
            assert not b.class_coordinates(el, 1).any()
            assert b.class_coordinates(el, 2).any()
        else:
            assert b.class_coordinates(el, 1).any()


def test_lie_structure_compatibility_examples(basis, algebra):
    for name in ("C4", "D8", "Q8", "Heis27", "ES27", "M16"):
        assert_lie_structure_compatible(algebra(name), basis(name))


def test_build_rejects_wrong_characteristic(group):
    """The basis holds prime-field data and takes no field; the algebra and
    the CLI's field builder compare the characteristic with the group's prime."""
    with pytest.raises(FieldMismatch):
        GroupAlgebra(group("D8"), GF(3))
    with pytest.raises(FieldMismatch):
        build_group_field(group("D8"), 3)


def test_group_is_freed_with_its_filtration_and_basis():
    """The filtration is built once per group and dies with it; every basis
    reads that one filtration."""
    d8 = catalog("D8")
    assert radical_filtration(d8) is radical_filtration(d8)
    assert build_jennings_basis(d8).filtration is build_jennings_basis(d8).filtration
    assert build_jennings_basis(d8).filtration is radical_filtration(d8)
    ref = weakref.ref(d8)
    del d8
    gc.collect()
    assert ref() is None


def test_build_accepts_matching_extension_field(group):
    b = build_jennings_basis(group("D8"))
    assert b.filtration.lift_degrees.tolist() == [1, 1, 2]
    assert GroupAlgebra(group("D8"), GF(2, 2)).filtration is b.filtration


def test_lifts_match_gr_coordinate_search(group, algebra, all_names):
    cases = [(group(name), algebra(name)) for name in all_names]
    for text, label in (("pcgroup p=2 m=7\n", "C2^7"), ("pcgroup p=3 m=4\n[g2,g1] = g3\n", "Heis27xC3")):
        g = PcGroup.from_presentation_text(text, name=label)
        cases.append((g, GroupAlgebra(g, GF(g.p))))
    for g, alg in cases:
        b = build_jennings_basis(g)
        oracle = lifts_by_gr_coordinates(alg, dimension_subgroups_definitional(g))
        assert [tuple(layer["lifts"]) for layer in b.layer_summary()] == [
            tuple(g.word_str(y) for y in lifts) for lifts in oracle], g.name
        assert b.filtration.lifts == oracle, g.name
