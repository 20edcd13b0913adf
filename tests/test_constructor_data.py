"""Each constructor's own data against the dense matrix.

An automorphism's data are the images of the Jennings lifts and of the
socle vector, computed by its constructor with no |G| x |G| matrix; the
oracle data_by_matrix reads them off the matrix, built when asked for.  The
rows of RadicalFiltration.basis(r), read off in closed form, are compared
with Jennings monomials multiplied out in kG.  A default run must build
no matrix.  Each constructor's action, apply(b, x), is compared with an
oracle matrix built from element images times x, and a composition must
take no product with |G| output columns, that is no |G| x |G| matrix.
"""

from __future__ import annotations

import functools
import random
from pathlib import Path

import numpy as np
import pytest

from socle_verify import GF, GroupAlgebra, PcGroup, automorphisms, pipeline
from socle_verify.automorphisms import AlgebraAutomorphism, DataMismatch, random_inners
from socle_verify.cli import main
from socle_verify.groupalgebra import column_sums
from socle_verify.linalg import FieldOps
from socle_verify.pipeline import RunConfig, RunStageError, prepare, run, sweep, sweep_automorphisms

from conftest import shared_algebra
from oracle_helpers import (
    Member,
    data_by_matrix,
    matmul_by_planes,
    members,
    radical_power_basis_by_monomials,
    random_inner_by_elements,
    substitution_images_by_elements,
    substitution_matrix_by_columns,
)

PRESENTATIONS = Path(__file__).resolve().parents[1] / "perfbench" / "presentations"
# the benchmark's two presentations, and C2^8
LARGE = {
    "c2x7": (PRESENTATIONS / "c2x7.pc").read_text(),
    "heis27xc3": (PRESENTATIONS / "heis27xc3.pc").read_text(),
    "C2^8": "pcgroup p=2 m=8\n",
}


def _presentation_algebra(name, degree):
    group = PcGroup.from_presentation_text(LARGE[name], name=name)
    return GroupAlgebra(group, GF(group.p, degree))


def _dense_units(alg, rng, count):
    """Dense units of random nonzero augmentation, so u n u != u n u^-1
    whenever the augmentation squared is not 1."""
    units = rng.integers(0, alg.field.q, (count, alg.dimension))
    eps = rng.integers(1, alg.field.q, count)
    units[:, 0] = 0
    units[:, 0] = alg.ops.sub(eps, column_sums(alg.ops, units.T))
    return units


def _assert_data_match(alg, stacks, label):
    for stack in stacks:
        assert stack.data.shape == (len(stack), alg.dimension, len(alg.filtration.lift_indices) + 1), label
    for auto in members(stacks):
        assert np.array_equal(auto.data, data_by_matrix(auto)), (label, auto.provenance)


@pytest.mark.parametrize("degree", [1, 2])
def test_data_match_the_dense_matrix_on_the_catalog(all_names, degree):
    rng = np.random.default_rng(degree)
    for name in all_names:
        alg = shared_algebra(name, degree)
        autos = list(sweep_automorphisms(alg, name, 7, 3, 2, 3))
        autos.append(AlgebraAutomorphism.inners(alg, _dense_units(alg, rng, 2), ["dense"] * 2))
        _assert_data_match(alg, autos, name)


@pytest.mark.parametrize("name", list(LARGE))
@pytest.mark.parametrize("degree", [1, 2])
def test_data_match_the_dense_matrix_at_large_order(name, degree):
    alg = _presentation_algebra(name, degree)
    autos = list(sweep_automorphisms(alg, name, 7, 3, 2, 3))
    autos.append(AlgebraAutomorphism.inners(alg, _dense_units(alg, np.random.default_rng(3), 1), ["dense"]))
    assert len(members(autos)) == 6 + 3 * alg.group.is_elementary_abelian()
    _assert_data_match(alg, autos, name)


@pytest.mark.parametrize("degree", [1, 2])
def test_tampered_data_fail_the_full_check(degree):
    """Swapped lift images, or a wrong socle image, are caught by the
    comparison with the matrix under --full-check."""
    alg = shared_algebra("C2xC2xC2", degree)
    for auto in members(sweep_automorphisms(alg, "C2xC2xC2", 7, 1, 1, 1)):
        swapped = auto.data.copy()
        swapped[:, [0, 1]] = swapped[:, [1, 0]]
        wrong = auto.data.copy()
        wrong[:, -1] = 0
        for data in (swapped, wrong):
            if np.array_equal(data, auto.data):
                continue
            bad = AlgebraAutomorphism(alg, data[None], [auto.provenance], "tampered", lambda _, x: auto.apply(x))
            with pytest.raises(DataMismatch):
                bad.check_pairs()
            with pytest.raises(RunStageError, match=r"\[verify\] DataMismatch"):
                run(alg, [bad], full_check=True)


def test_basis_rows_are_the_high_parts_of_the_lift_words(algebra, all_names):
    """Row e of basis(r), for the lift word y^e of weight >= r, is
    sum_f prod_j C(e_j, f_j) (y_j - 1)^(f_j) over the f of weight >= r,
    with math.comb coefficients and the monomials multiplied out by kG
    products (radical_power_basis_by_monomials); its coordinates() are
    those of y^e at weight >= r and vanish below weight r."""
    algebras = [algebra(name) for name in all_names] + [_presentation_algebra("heis27xc3", 1)]
    for alg in algebras:
        filt = alg.filtration
        words = filt.coordinates(filt.ops, filt.ops.eye(alg.dimension)[:, filt.words])
        for r in range(len(filt.dims)):
            high = filt.weights >= r
            rows = filt.basis(r)
            assert rows.shape == (filt.dims[r], alg.dimension), (alg.group.name, r)
            assert np.array_equal(rows, radical_power_basis_by_monomials(alg, r)), (alg.group.name, r)
            assert np.array_equal(filt.coordinates(filt.ops, rows.T), words[:, high] * high[:, None])


def test_empty_stacks_build_nothing(capsys):
    assert main(["run", "--group", "C3xC3", "--no-stored", "--auto", "random-subst count=0",
                 "--auto", "random-inner count=0"]) == 0
    assert main(["sweep", "--groups", "C2,D8,C3xC3", "--inner", "0", "--subst", "0"]) == 0
    capsys.readouterr()
    alg = shared_algebra("C2xC2", 2)
    assert len(AlgebraAutomorphism.inners(alg, np.zeros((0, 4), dtype=np.int64), [])) == 0
    assert len(AlgebraAutomorphism.substitutions(alg, np.zeros((0, 2, 4), dtype=np.int64), [])) == 0
    stored = sweep_automorphisms(alg, "C2xC2", 7, 0, 0, 0)
    assert [auto.pair_check for auto in members(stored)] == ["group-automorphism"] * len(
        alg.group.stored_automorphisms())


def test_default_order_512_run_builds_no_matrix(monkeypatch):
    """C2^9 over GF(4): a group automorphism, five inner ones and three
    substitutions verify with every stack's action, the substitution
    matrix and left_mult_matrix patched to raise: the unit inverses, the
    inner lift and socle images and the substitution socle images are all
    products by narrow left factors."""
    def refuse(*args):
        raise AssertionError("a default run built a |G| x |G| matrix")

    init = AlgebraAutomorphism.__init__

    def refusing_action(self, algebra, data, provenances, certificate, apply):
        init(self, algebra, data, provenances, certificate, refuse)

    monkeypatch.setattr(automorphisms, "_substitution_matrix", refuse)
    monkeypatch.setattr(AlgebraAutomorphism, "__init__", refusing_action)
    monkeypatch.setattr(GroupAlgebra, "left_mult_matrix", refuse)
    algebra, autos = prepare(RunConfig(
        group="C2^9", presentation="pcgroup p=2 m=9\n", n=2, include_stored=False, seed=7,
        auto_specs=("group-auto: g1 -> g1 g2", "random-inner count=5", "random-subst count=3"),
    ))
    stacks = list(autos)
    report = run(algebra, stacks)
    assert len(report.auto_reports) == 9
    assert report.verdict
    with pytest.raises(AssertionError, match="built a"):
        stacks[0].apply(0, np.eye(algebra.dimension, dtype=np.int64))


def _members_and_oracles(alg, seed):
    """(label, one-member stack, oracle matrix) for a group automorphism, an
    inner one, a substitution, a from_matrix member and a two-way and a
    three-way composition whose left member is the substitution.

    The oracles are built from element images: the permutation columns,
    random_inner_by_elements' L(u) R(u^-1), and substitution_matrix_by_columns
    of the substitution's images (substitution_images_by_elements on an
    elementary abelian group, else the generator columns of the oracle of the
    inner after the group automorphism); compositions multiply them with
    matmul_by_planes.
    """
    group, ops = alg.group, alg.ops
    gauto = (group.stored_automorphisms() or [group.group_automorphism([group.parse_word("g1^2")])])[0]
    stored = AlgebraAutomorphism.from_group_automorphism(alg, [gauto])
    permutation = np.eye(alg.dimension, dtype=np.int64)[:, gauto.perm]
    (inner,) = random_inners(alg, random.Random(seed), 1)
    conjugation, _ = random_inner_by_elements(alg, random.Random(seed))
    if group.is_elementary_abelian():
        images = substitution_images_by_elements(alg, random.Random(seed))
    else:
        images = matmul_by_planes(ops, conjugation, permutation)[:, group.generator_indices].T
    subst = AlgebraAutomorphism.substitutions(alg, images[None], ["subst: images"])
    substitution = substitution_matrix_by_columns(alg, images)
    both = AlgebraAutomorphism.compose([((inner, 0), (stored, 0))])
    three = functools.reduce(lambda a, b: AlgebraAutomorphism.compose([((a, 0), (b, 0))]), [subst, inner, stored])
    return [
        ("group-auto", stored, permutation),
        ("inner", inner, conjugation),
        ("subst", subst, substitution),
        ("from_matrix", AlgebraAutomorphism.from_matrix(alg, substitution), substitution),
        ("compose two", both, matmul_by_planes(ops, conjugation, permutation)),
        ("compose three", three, matmul_by_planes(ops, substitution, matmul_by_planes(ops, conjugation, permutation))),
    ]


@pytest.mark.parametrize("name, degree", [("D8", 2), ("Heis27", 2), ("C13", 8)])
def test_each_action_is_its_oracle_matrix_times_x(name, degree):
    """apply(0, x) on a seeded random (|G|, 3) x equals the oracle matrix
    times x, and the action on the identity is the oracle matrix; GF(13^8)
    lies above the gather tables' bound."""
    if name == "C13":
        alg = GroupAlgebra(PcGroup.from_presentation_text("pcgroup p=13 m=1\n", name=name), GF(13, degree))
    else:
        alg = shared_algebra(name, degree)
    rng = np.random.default_rng(degree)
    for label, stack, oracle in _members_and_oracles(alg, 3):
        x = rng.integers(0, alg.field.q, (alg.dimension, 3))
        assert np.array_equal(stack.apply(0, x), matmul_by_planes(alg.ops, oracle, x)), (name, label)
        assert np.array_equal(Member(stack, 0).matrix, oracle), (name, label)
        assert np.array_equal(stack.data[0], data_by_matrix(Member(stack, 0))), (name, label)


def test_compositions_take_no_product_with_group_order_columns(monkeypatch):
    """A Heis125 sweep with 20 compositions on one CPU, and an order-512
    composition of two inner automorphisms, verify with no FieldOps product
    of |G| output columns: compose applies its left member to the right
    one's data, and an inner member's action is two products of that
    width."""
    widths = []
    matmul_stack = FieldOps.matmul_stack

    def spy(self, a, b):
        widths.append(np.shape(b)[-1])
        return matmul_stack(self, a, b)

    monkeypatch.setattr(FieldOps, "matmul_stack", spy)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)  # every run in this process, under the spy
    report = sweep(groups=["Heis125"], inner_count=20, compose_count=20, subst_count=0, extension_degree=1)
    assert report.verdict and sum(map(len, (r.auto_reports for r in report.reports))) > 40
    assert widths and 125 not in widths
    widths.clear()
    algebra, autos = prepare(RunConfig(
        group="C2^9", presentation="pcgroup p=2 m=9\n", n=2, include_stored=False, seed=7,
        auto_specs=("compose: random-inner ; random-inner seed=5",),
    ))
    assert run(algebra, autos).verdict
    assert widths and 512 not in widths
