"""Algebra automorphisms: construction, certificates, and the socle scalar.

The determinant side is cross-checked at two scales: tiny cases where the
blocks can be read off by hand, and multiplicativity under composition,
which the graded action must respect if the bookkeeping is right.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socle_verify import (
    GF,
    FiltrationNotPreserved,
    GroupAlgebra,
    LieSubspaceViolated,
    NotBijective,
    NotMultiplicative,
    RelationViolation,
    SingularLinearPart,
    catalog,
    verify_stack,
)
from socle_verify.automorphisms import (
    FULL_PAIR_CHECK_LIMIT,
    AlgebraAutomorphism,
    _check_identities,
    _degree_one_dets,
    _parse_x_polynomial,
    parse_automorphism_specs,
    random_inners,
    random_substitutions,
)
from socle_verify.cli import main
from socle_verify.pipeline import RunConfig, derive_seed, prepare, run, sweep_automorphisms

from conftest import shared_algebra
from oracle_helpers import (
    AlgebraElement,
    Member,
    apply_automorphism,
    in_radical_power,
    is_pm1_power,
    members,
    normal_form_index,
    sampled_pairs_one_at_a_time,
    substitution_images,
    substitution_images_by_elements,
    substitution_matrix_by_columns,
    unchecked_stack,
)


def _verify(auto):
    """The report of a one-member stack."""
    return verify_stack([auto])[0]


def _substitution(alg, images):
    """The one-member stack of one (m, |G|) array of image codes."""
    return AlgebraAutomorphism.substitutions(alg, images[None], ["subst"])


def test_c3_inversion_report(algebra):
    alg = algebra("C3")
    g = alg.group
    auto = AlgebraAutomorphism.from_group_automorphism(
        alg, [g.group_automorphism([normal_form_index(g, (2,))])]
    )
    rep = _verify(auto)
    d = rep.as_dict()
    assert d["lambda"] == "1"
    assert d["det_blocks"] == [{"r": 1, "det": "2"}]
    assert d["det_total"] == "2"
    assert d["det_pow"] == "1"  # 2^2 = 4 = 1 mod 3
    assert d["equation_holds"] and d["in_subgroup"] and d["lambda_is_one"]


def test_gf9_diagonal_substitution_lambda():
    alg = GroupAlgebra(catalog("C3xC3"), GF(3, 2))
    k = alg.field
    zeta = k.parse("t+1")  # generates the units
    linear = np.array(
        [[k.code_of(zeta), 0], [0, k.code_of(k.one())]], dtype=np.int64
    )
    rep = _verify(_substitution(alg, substitution_images(alg, linear)))
    lam = rep.socle_scalar
    assert lam == zeta * zeta  # det = zeta, lambda = det^(p-1)
    assert str(lam) == "2*t"
    assert rep.det_total == zeta
    assert is_pm1_power(lam)


def test_gf9_spec_example():
    alg = GroupAlgebra(catalog("C3xC3"), GF(3, 2))
    (auto,) = parse_automorphism_specs(alg, "subst: x1 -> (t)*x1, x2 -> x2")
    rep = _verify(auto).as_dict()
    # det = t, so lambda = t^2 = -1 = 2 with modulus t^2+1
    assert rep["det_total"] == "t"
    assert rep["lambda"] == "2"
    assert rep["equation_holds"]


def test_higher_terms_do_not_move_lambda():
    alg = GroupAlgebra(catalog("C3xC3"), GF(3, 2))
    k = alg.field
    linear = np.array([[k.code_of(k.from_coeffs([0, 1])), 1], [0, 1]], dtype=np.int64)
    g1, g2 = (AlgebraElement.embed(alg, gi) - 1 for gi in alg.group.generator_indices)
    tail = g1 * g2 + g2 * g2 * g1
    images = np.stack([substitution_images(alg, linear), substitution_images(alg, linear, higher={1: tail})])
    a, b = verify_stack([AlgebraAutomorphism.substitutions(alg, images, ["plain", "dressed"])])
    assert a.socle_scalar == b.socle_scalar
    assert a.det_total == b.det_total
    assert [d for d in a.block_dets] == [d for d in b.block_dets]


def test_lambda_multiplicative_under_composition(algebra):
    alg = algebra("D8")
    rng = random.Random(11)
    (first,) = random_inners(alg, rng, 1)
    g = alg.group
    second = AlgebraAutomorphism.from_group_automorphism(
        alg, g.stored_automorphisms()[:1]
    )
    a, b, c = verify_stack([first, second, AlgebraAutomorphism.compose([((first, 0), (second, 0))])])
    assert c.socle_scalar == a.socle_scalar * b.socle_scalar
    assert c.det_total == a.det_total * b.det_total


def test_inner_acts_trivially_on_layers(algebra):
    for name in ("Q8", "Heis27"):
        alg = algebra(name)
        rng = random.Random(23)
        (rep,) = verify_stack(random_inners(alg, rng, 1))
        for _degree, block in rep.blocks:
            assert np.array_equal(block, np.eye(block.shape[0], dtype=np.int64))
        assert rep.socle_scalar == 1


def test_stored_group_autos_give_lambda_one(algebra):
    for name in ("D8", "M16", "Heis27", "C27"):
        alg = algebra(name)
        for gauto in alg.group.stored_automorphisms():
            auto = AlgebraAutomorphism.from_group_automorphism(alg, [gauto])
            rep = _verify(auto)
            assert rep.lambda_is_one
            assert rep.equation_holds


def test_apply_matches_group_action(algebra):
    alg = algebra("D8")
    g = alg.group
    gauto = g.stored_automorphisms()[0]
    auto = Member(AlgebraAutomorphism.from_group_automorphism(alg, [gauto]), 0)
    for el in range(g.order):
        assert apply_automorphism(auto, AlgebraElement.embed(alg, el)) == AlgebraElement.embed(alg, gauto.perm[el])


def test_non_multiplicative_matrix_rejected(algebra):
    alg = algebra("C4")
    # swapping an order-4 and an order-2 element is linear and unital but
    # cannot be multiplicative: the image of g1 would square to 1
    n = alg.dimension
    matrix = np.eye(n, dtype=np.int64)
    i = normal_form_index(alg.group, (1, 0))
    j = normal_form_index(alg.group, (0, 1))
    matrix[:, [i, j]] = matrix[:, [j, i]]
    with pytest.raises(NotMultiplicative):
        AlgebraAutomorphism.from_matrix(alg, matrix)


@pytest.mark.parametrize("name,degree", [("D8", 1), ("C3xC3", 2)])
def test_augmentation_map_rejected(algebra, name, degree):
    """x -> eps(x)*1 fixes 1 and satisfies every identity; only the rank rejects it."""
    alg = algebra(name, degree)
    matrix = np.zeros((alg.dimension, alg.dimension), dtype=np.int64)
    matrix[0] = 1
    with pytest.raises(NotMultiplicative, match="not invertible"):
        AlgebraAutomorphism.from_matrix(alg, matrix, "augmentation")


def _swap(alg):
    """The identity with the columns of g1 and g2 = g1^2 of C8 swapped."""
    matrix = np.eye(alg.dimension, dtype=np.int64)
    i = normal_form_index(alg.group, (1, 0, 0))
    j = normal_form_index(alg.group, (0, 1, 0))
    matrix[:, [i, j]] = matrix[:, [j, i]]
    return matrix


def _moved_identity(alg):
    matrix = np.eye(alg.dimension, dtype=np.int64)
    matrix[:, 0] = matrix[:, 1]
    return matrix


def _augmentation_zero(alg):
    matrix = np.eye(alg.dimension, dtype=np.int64)
    matrix[0, 1] = 1  # the element of index 1 -> 1 + itself, of augmentation 0 over GF(2)
    return matrix


def _augmentation_map(alg):
    matrix = np.zeros((alg.dimension, alg.dimension), dtype=np.int64)
    matrix[0] = 1
    return matrix


def _with_code(code):
    """The identity with one off-diagonal entry set to code."""
    def build(alg):
        matrix = np.eye(alg.dimension, dtype=np.int64)
        matrix[1, 2] = code
        return matrix
    return build


# (degree n of the field GF(2^n), matrix on k[C8], whether the generator
# identities are skipped, error, message) for every check of from_matrix
FROM_MATRIX_REJECTIONS = {
    "wrong shape": (1, lambda alg: np.eye(alg.dimension - 1, dtype=np.int64), False, ValueError, "wrong shape"),
    **{f"code {text} over GF({2**n})": (n, _with_code(code), False, ValueError,
                                        re.escape(f"field codes in 0..{2**n - 1}"))
       for n, codes in ((2, (("4", 4), ("2^40", 2**40), ("-1", -1))), (1, (("2", 2), ("2^40", 2**40), ("-1", -1))))
       for text, code in codes},
    "identity column": (1, _moved_identity, False, NotMultiplicative, "does not fix the identity"),
    "augmentation": (1, _augmentation_zero, False, NotMultiplicative, "augmentation != 1"),
    "generator identity": (1, _swap, False, NotMultiplicative, "generator identity fails"),
    "spot check": (1, _swap, True, NotMultiplicative, "sampled product is not preserved"),
    "singular degree-1 block": (1, _augmentation_map, False, NotMultiplicative, "not invertible"),
}


@pytest.mark.parametrize("case", list(FROM_MATRIX_REJECTIONS))
def test_from_matrix_rejects(monkeypatch, case):
    """from_matrix runs every check of a matrix from outside, in order; the
    spot check is reached with the generator identities skipped, which
    alone imply multiplicativity.  An entry outside the field's codes
    0..q-1 is rejected by name, before any check reads it as a code."""
    n, build, skip_generators, error, message = FROM_MATRIX_REJECTIONS[case]
    alg = GroupAlgebra(catalog("C8"), GF(2, n))
    if skip_generators:
        monkeypatch.setattr(alg.group, "generator_indices", [])
    with pytest.raises(error, match=message):
        AlgebraAutomorphism.from_matrix(alg, build(alg), case)


def test_from_matrix_keeps_its_matrix_and_reads_its_data(algebra):
    alg = algebra("D8", 2)
    stored = AlgebraAutomorphism.from_group_automorphism(alg, alg.group.stored_automorphisms()[:1])
    matrix = Member(stored, 0).matrix
    auto = AlgebraAutomorphism.from_matrix(alg, matrix.tolist(), "outside")
    assert (len(auto), auto.provenance, auto.pair_check) == (1, ["outside"], "generators")
    assert np.array_equal(auto.data, stored.data) and np.array_equal(Member(auto, 0).matrix, matrix)
    assert verify_stack([auto])[0].as_dict() == {**verify_stack([stored])[0].as_dict(), "provenance": "outside"}


def test_singular_linear_part_rejected():
    alg = GroupAlgebra(catalog("C3xC3"), GF(3))
    with pytest.raises(SingularLinearPart):
        _substitution(alg, substitution_images(alg, np.array([[1, 2], [2, 4 % 3]], dtype=np.int64)))


def test_substitution_requires_elementary_abelian(algebra):
    """substitutions takes any pc group: on C9 the identity images are the
    identity automorphism; the random draws stay on C_p^m."""
    alg = algebra("C9")
    rep = _verify(_substitution(alg, substitution_images(alg, np.eye(alg.group.m, dtype=np.int64))))
    assert rep.lambda_is_one and rep.equation_holds
    with pytest.raises(ValueError, match="elementary abelian"):
        random_substitutions(alg, random.Random(0), 1)


HEIS27_X_C3 = (Path(__file__).resolve().parents[1] / "perfbench" / "presentations" / "heis27xc3.pc").read_text()

# (group, presentation or None for the catalog, subst: spec over GF(p^2), lambda)
SUBSTITUTION_FIXTURES = [
    ("C8", None, "subst: x1 -> (t)*x1, x2 -> (t^2)*x2, x3 -> (t^4)*x3", "t"),
    ("C27", None, "subst: x1 -> (2*t)*x1, x2 -> (2*t^3)*x2, x3 -> (2*t^9)*x3", "2"),
    ("C4xC2", None, "subst: x2 -> (t)*x2", "t"),
    ("D8xC2", "pcgroup p=2 m=4\ng2^2 = g3\n[g2,g1] = g3\n", "subst: x4 -> (t)*x4", "t"),
    ("Heis27xC3", HEIS27_X_C3, "subst: x4 -> (t)*x4", "2"),
    ("C7xC7", "pcgroup p=7 m=2\n", "subst: x1 -> (t)*x1", "6"),
    ("Heis343", "pcgroup p=7 m=3\n[g2,g1] = g3\n", "subst: x1 -> x1 + x3 + x1*x3", "1"),  # g1 -> g1 g3
    # the lift of degree 2 is g2 g3 g4, a word in generators that do not
    # commute, so evaluating it in another order is a DataMismatch under
    # --full-check; g1 -> g1 g5 with g5 central
    ("Lift32", "pcgroup p=2 m=5\ng1^2 = g2 g3 g4\n[g3,g2] = g5\n[g4,g2] = g5\n[g4,g3] = g5\n",
     "subst: x1 -> x1 + x5 + x1*x5", "1"),
]


def _run_substitution(name, presentation, spec, full_check):
    """The one report of a run of spec over GF(p^2), with no stored automorphisms."""
    algebra, autos = prepare(RunConfig(group=name, presentation=presentation, n=2,
                                       auto_specs=(spec,), include_stored=False))
    report = run(algebra, autos, full_check=full_check)
    assert report.verdict
    (rep,) = report.auto_reports
    return rep


@pytest.mark.parametrize("full_check", [False, True])
@pytest.mark.parametrize("name, presentation, spec, lam", SUBSTITUTION_FIXTURES,
                         ids=[fixture[0] for fixture in SUBSTITUTION_FIXTURES])
def test_substitution_lambda_outside_elementary_abelian(name, presentation, spec, lam, full_check):
    """subst: on cyclic, abelian and non-abelian groups: the relations hold
    in kG, and lambda = det^(p-1) is the listed (p-1)-st power; under
    --full-check the data are compared with the matrix too."""
    rep = _run_substitution(name, presentation, spec, full_check)
    assert str(rep.socle_scalar) == lam
    assert rep.equation_holds and rep.lambda_in_power_subgroup
    assert rep.lambda_is_one == (lam == "1")


@pytest.mark.parametrize("full_check", [False, True])
def test_d8_substitution_with_lambda_t(algebra, full_check):
    """The D8/GF(4) images a1, a2 and a3 = a2^2 of an automorphism with lambda = t."""
    alg = algebra("D8", 2)
    a1 = alg.parse("(t+1) + (t)*g2 + (t)*g2*g3 + g1 + (t+1)*g1*g3")
    a2 = alg.parse("(t)*g3 + (t)*g2 + g2*g3 + g1*g3 + (t)*g1*g2 + (t+1)*g1*g2*g3")
    autos = AlgebraAutomorphism.substitutions(alg, np.stack([a1, a2, alg.multiply_codes(a2, a2)])[None], ["D8"])
    report = run(alg, [autos], full_check=full_check)
    (rep,) = report.auto_reports
    assert report.verdict and str(rep.socle_scalar) == "t"
    assert rep.equation_holds and rep.lambda_in_power_subgroup and not rep.lambda_is_one


SUBSTITUTION_REJECTIONS = [
    ("C8", 2, "subst: x1 -> (t)*x1", "power relation of g1"),
    ("Q8", 2, "subst: x1 -> (t)*x1, x2 -> (t)*x2, x3 -> (t^2)*x3", "commutator relation [g2,g1]"),
    ("Heis27", 3, "subst: x1 -> (t)*x1", "commutator relation [g2,g1]"),
]


@pytest.mark.parametrize("name, p, spec, relation", SUBSTITUTION_REJECTIONS,
                         ids=[rejection[0] for rejection in SUBSTITUTION_REJECTIONS])
def test_substitution_breaking_a_relation_is_rejected(algebra, capsys, name, p, spec, relation):
    """Images that break a relation end with RelationViolation naming it,
    and the command line with exit code 1 and one error line."""
    with pytest.raises(RelationViolation, match=f"^images break the {re.escape(relation)}$"):
        parse_automorphism_specs(algebra(name, 2), spec)
    assert main(["run", "--group", name, "--field", f"{p},2", "--no-stored", "--auto", spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [automorphisms] RelationViolation: images break the {relation}\n"


def test_relation_check_names_the_first_failing_member(algebra):
    """Over Q8/GF(4), diag(t, t, t^2) breaks [g2,g1] and diag(t, 1, 1) the
    power relation of g1: a stack of both names the first member's broken
    relation, whichever way round, though the power relations, all of the
    members at once, are checked first."""
    alg = algebra("Q8", 2)
    t, t2 = 2, 3
    commutator = substitution_images(alg, np.diag([t, t, t2]))
    power = substitution_images(alg, np.diag([t, 1, 1]))
    for stack, relation in (([commutator, power], "commutator relation [g2,g1]"),
                            ([power, commutator], "power relation of g1")):
        with pytest.raises(RelationViolation, match=f"^images break the {re.escape(relation)}$"):
            AlgebraAutomorphism.substitutions(alg, np.stack(stack), ["first", "second"])


@pytest.mark.parametrize("degree", [1, 2])
def test_power_relations_are_one_stacked_power(algebra, monkeypatch, degree):
    """On C2^7 every relation checked is a power relation g_i^2 = 1, and the
    7 left sides of a stack of 3 substitutions are one squaring of the
    (21, 128) images: a build makes that kG product and the 6 of the socle
    image prod_j (alpha(y_j) - 1), 7 in all."""
    alg = algebra("C2^7", degree)
    calls = []
    multiply_codes = alg.multiply_codes
    monkeypatch.setattr(alg, "multiply_codes", lambda a, b: calls.append(np.shape(a)) or multiply_codes(a, b))
    (stack,) = random_substitutions(alg, random.Random(11), 3)
    assert len(stack) == 3
    assert calls[0] == (21, 128) and len(calls) == 7


def test_group_side_rejections(algebra):
    alg = algebra("C2xC2")
    g = alg.group
    with pytest.raises(NotBijective):
        g.group_automorphism([normal_form_index(g, (1, 0))] * 2)


def test_pair_check_modes(algebra, monkeypatch):
    alg = algebra("D8")
    g = alg.group
    auto = AlgebraAutomorphism.from_group_automorphism(alg, g.stored_automorphisms()[:1])
    assert auto.pair_check == "group-automorphism"
    assert AlgebraAutomorphism.from_matrix(alg, Member(auto, 0).matrix).pair_check == "generators"
    assert alg.dimension <= FULL_PAIR_CHECK_LIMIT
    auto.check_pairs()
    assert auto.pair_check == "full"
    assert not auto.provenance[0].endswith("[sampled multiplicativity]")

    import socle_verify.automorphisms as mod

    monkeypatch.setattr(mod, "FULL_PAIR_CHECK_LIMIT", 4)
    sampled = AlgebraAutomorphism.from_group_automorphism(
        alg, g.stored_automorphisms()
    )
    assert sampled.pair_check == "group-automorphism" and len(sampled) == 2
    sampled.check_pairs()
    assert sampled.pair_check == "sampled"
    assert all(provenance.endswith("[sampled multiplicativity]") for provenance in sampled.provenance)
    sampled.check_pairs()  # a second call changes nothing
    assert [provenance.count("[sampled multiplicativity]") for provenance in sampled.provenance] == [1, 1]
    assert _verify(sampled).socle_scalar == _verify(auto).socle_scalar


def _is_group_automorphism(table, perm):
    """Does the permutation perm of group indices preserve the Cayley table?"""
    return np.array_equal(perm[table], table[np.ix_(perm, perm)])


def _accepts(check):
    try:
        check()
    except NotMultiplicative:
        return False
    return True


# what the in-package constructors certify by construction
CERTIFICATES = {"group-automorphism", "unit-inverse", "composition", "substitution"}


def _swept_with_transpositions(algebra, names, degree):
    """(algebra, automorphism, perm) for every automorphism a small sweep
    makes on the given groups and on C2^7; perm swaps two random columns
    other than 0, or is None below order 3."""
    rng = random.Random(derive_seed(5, "pair-oracle", degree))
    for name in list(names) + ["C2^7"]:
        alg = algebra(name, degree)
        n = alg.dimension
        for auto in members(sweep_automorphisms(alg, name, 7, 3, 2, 3)):
            perm = None
            if n >= 3:
                i, j = rng.sample(range(1, n), 2)
                perm = np.arange(n)
                perm[[i, j]] = perm[[j, i]]
            yield alg, auto, perm


@pytest.mark.parametrize("degree", [1, 2])
def test_multiplicativity_certificate_matches_pair_oracle(algebra, all_names, monkeypatch, degree):
    """Constructor certificates, the dense oracle and the pair oracle agree.

    Every automorphism a small sweep makes on the 24 catalog groups and on
    C2^7 carries its constructor's certificate, and its matrix passes the
    validating constructor (identities, spot check, degree-1 rank); up to
    order 27 it passes check_pairs() too.  Each is then corrupted by a
    column transposition fixing column 0: the validating constructor,
    check_pairs() and, up to order 27, the pair loop on its own (after the
    full rank, which a column permutation keeps) reject it exactly when
    the transposition is not a group automorphism.  Each is also rebuilt
    by substitutions from its generator images, read off the matrix: the
    same data, byte for byte, and the same report.
    """
    import socle_verify.automorphisms as mod

    checked = rejected = 0
    for alg, auto, perm in _swept_with_transpositions(algebra, all_names, degree):
        n = alg.dimension
        assert auto.pair_check in CERTIFICATES, auto.provenance
        rebuilt = AlgebraAutomorphism.substitutions(alg, auto.matrix[:, alg.group.generator_indices].T[None],
                                                    [auto.provenance])
        alone = auto.alone()
        assert np.array_equal(rebuilt.data[0], auto.data) and verify_stack([rebuilt]) == verify_stack([alone])
        assert AlgebraAutomorphism.from_matrix(alg, auto.matrix).pair_check == "generators"
        if n <= 27:
            alone.check_pairs()
            assert alone.pair_check == "full"
        checked += 1
        if perm is None:
            continue
        bad = auto.matrix[:, perm]
        expected = _is_group_automorphism(alg.group.cayley_table, perm)
        assert _accepts(lambda: AlgebraAutomorphism.from_matrix(alg, bad, "corrupt")) == expected
        unchecked = unchecked_stack(alg, bad, "corrupt")
        assert _accepts(unchecked.check_pairs) == expected
        if n <= 27:
            pairs_only = unchecked_stack(alg, bad, "corrupt")
            with monkeypatch.context() as patch:
                patch.setattr(mod, "_check_identities", lambda alg, matrix: None)  # the pair loop alone
                assert _accepts(pairs_only.check_pairs) == expected
        rejected += not expected
    assert checked == 205  # 197 on the catalog, 8 on C2^7
    assert rejected > 0


@pytest.mark.parametrize("degree", [1, 2])
def test_grouped_sampled_pairs_match_one_pair_oracle(algebra, all_names, monkeypatch, degree):
    """With every group above FULL_PAIR_CHECK_LIMIT = 4, check_pairs()
    samples its pairs, grouped by their left element.  On every
    automorphism of a small sweep, and on each one corrupted by a column
    transposition, it accepts exactly when the same pairs tried one at a
    time do, with the generator identities skipped so that the pair loop
    alone decides."""
    import socle_verify.automorphisms as mod

    monkeypatch.setattr(mod, "FULL_PAIR_CHECK_LIMIT", 4)
    monkeypatch.setattr(mod, "_check_identities", lambda alg, matrix: None)  # the pair loop alone
    names = [name for name in all_names if 4 < algebra(name, degree).dimension <= 27]
    outcomes = set()
    for alg, auto, perm in _swept_with_transpositions(algebra, names, degree):
        if alg.dimension > 27:
            continue
        for matrix in (auto.matrix, auto.matrix[:, perm]):
            grouped = unchecked_stack(alg, matrix, "pairs")
            expected = _accepts(lambda: sampled_pairs_one_at_a_time(Member(grouped, 0)))
            assert _accepts(grouped.check_pairs) == expected, auto.provenance
            assert grouped.pair_check == ("sampled" if expected else "unchecked")
            outcomes.add(expected)
    assert outcomes == {True, False}


def _projections(alg):
    """On C_p^m, the group endomorphisms killing one generator, as matrices
    of kG: homomorphisms that fix 1 and are not onto."""
    group = alg.group
    n = alg.dimension
    for k in range(group.m):
        matrix = np.zeros((n, n), dtype=np.int64)
        for b in range(n):
            exps = group.exponents[b].tolist()
            exps[k] = 0
            matrix[normal_form_index(group, exps), b] = 1
        yield matrix


@pytest.mark.parametrize("degree", [1, 2])
def test_degree_one_rank_agrees_with_full_rank(algebra, all_names, degree):
    """The constructor's degree-1 det and check_pairs()' full rank agree.

    Checked on every matrix that passes the generator identities, so that
    Nakayama applies: the automorphisms and column-transposed matrices of
    test_multiplicativity_certificate_matches_pair_oracle (both ranks
    full), and the augmentation map x -> eps(x)*1 on every group and the
    projections of C_p^m killing one generator (both deficient).
    """
    seen = {True: 0, False: 0}

    def compare(alg, matrix):
        auto = unchecked_stack(alg, matrix, "compare")
        if not _accepts(lambda: _check_identities(alg, matrix)):
            return
        full = alg.ops.rank(matrix) == alg.dimension
        onto = _degree_one_dets(alg, auto.data)[0] != 0
        assert onto == full
        seen[full] += 1

    for alg, auto, perm in _swept_with_transpositions(algebra, all_names, degree):
        compare(alg, auto.matrix)
        if perm is not None:
            compare(alg, auto.matrix[:, perm])
    for name in list(all_names) + ["C2^7"]:
        alg = algebra(name, degree)
        augmentation = np.zeros((alg.dimension, alg.dimension), dtype=np.int64)
        augmentation[0] = 1
        compare(alg, augmentation)
        unchecked = unchecked_stack(alg, augmentation, "augmentation")
        with pytest.raises(NotMultiplicative, match="not invertible"):
            unchecked.check_pairs()
        if alg.group.is_elementary_abelian():
            for matrix in _projections(alg):
                compare(alg, matrix)
    assert seen[True] >= 205 and seen[False] > 25


def test_criterion_8_matrix_rejected_without_full_check(algebra):
    alg = algebra("C4")
    matrix = np.eye(alg.dimension, dtype=np.int64)
    i = normal_form_index(alg.group, (1, 0))
    j = normal_form_index(alg.group, (0, 1))
    matrix[:, [i, j]] = matrix[:, [j, i]]
    with pytest.raises(NotMultiplicative):
        AlgebraAutomorphism.from_matrix(alg, matrix, "swap")
    unchecked = unchecked_stack(alg, matrix, "swap")
    with pytest.raises(NotMultiplicative):
        unchecked.check_pairs()


def test_spec_parser_all_forms(algebra):
    alg = algebra("D8")
    lines = [
        "group-auto: g1 -> g1 g3, g2 -> g2",
        "inner: 1 + g1 + g1*g2",
        "random-inner seed=42",
        "compose: inner: 1 + g1 + g1*g2 ; random-inner seed=3",
    ]
    autos = [a for line in lines for a in parse_automorphism_specs(alg, line)]
    assert len(autos) == 4
    for auto in autos:
        assert _verify(auto).equation_holds

    ext = GroupAlgebra(catalog("C3xC3"), GF(3, 2))
    autos = parse_automorphism_specs(ext, "subst: x1 -> (t)*x1, x2 -> x2 + x1")
    assert len(autos) == 1
    with pytest.raises(ValueError):
        parse_automorphism_specs(alg, "bogus: nope")


@pytest.mark.parametrize("kind, symbol, rhs", [("group-auto", "g", "g1"), ("subst", "x", "x1")])
@pytest.mark.parametrize("clause, message", [
    ("{s}1 {rhs}", "expected '{s}i -> ...'"),
    ("y1 -> {rhs}", "left side 'y1' must be a single {s}i"),
    ("{s}1{s}2 -> {rhs}", "left side '{s}1{s}2' must be a single {s}i"),
    ("{s}0 -> {rhs}", "{s}0 out of range {s}1..{s}2"),
    ("{s}3 -> {rhs}", "{s}3 out of range {s}1..{s}2"),
    ("{s}2 -> {rhs}", "{s}2 given twice, again in '{s}2 -> {rhs}'"),
])
def test_spec_clauses_are_checked(algebra, kind, symbol, rhs, clause, message):
    """group-auto: and subst: share one clause parser: a missing arrow, a
    wrong symbol, an index outside 1..m and a repeated index are rejected
    on both."""
    alg = algebra("C2xC2")
    text = f"{kind}: {symbol}2 -> {symbol}2, " + clause.format(s=symbol, rhs=rhs)
    with pytest.raises(ValueError, match=re.escape(message.format(s=symbol, rhs=rhs))):
        parse_automorphism_specs(alg, text)


def _x_polynomial_by_operators(alg, rng, terms):
    """A seeded polynomial in x_i = g_i - 1 as (text, value), the value
    multiplied out letter by letter with the AlgebraElement operators.

    Words are 1 to 3 letters, so most are order-sensitive on a non-abelian
    group; an exponent is 1 or 2 (x_i^3 = 0 on Heis27), 1 .. 2|G| or 10^30.
    x_i^|G| = g_i^|G| - 1 = 0, checked here, stands in for the powers above
    2|G|.
    """
    group, field = alg.group, alg.field
    xs = [AlgebraElement.embed(alg, g) - 1 for g in group.generator_indices]
    assert all((x ** group.order).is_zero() for x in xs)
    zero = AlgebraElement(alg, np.zeros(alg.dimension, dtype=np.int64))
    parts, value = [], zero
    for k in range(terms):
        letters, factor = [], AlgebraElement.one(alg)
        for _ in range(rng.choice([1, 2, 2, 3])):
            i = rng.randint(1, group.m)
            e = rng.choice([1, 1, 1, 2, rng.randint(1, 2 * group.order), 10**30])
            letters.append(f"x{i}" if e == 1 else f"x{i}^{e}")
            factor = factor * (xs[i - 1] ** e if e <= 2 * group.order else zero)
        code = rng.randrange(1, field.q)
        c = field.element_from_code(code)
        coeff = rng.choice(["", f"({c})*", f"({c}) "] + ([f"{code}*"] if code < field.p else []))
        if not coeff:
            c = field.one()
        sign = rng.choice(["+", "-"] if k else ["", "-"])
        parts.append(f"{sign} {coeff}{rng.choice([' ', '*', ' * ']).join(letters)}")
        value = value - factor * c if sign == "-" else value + factor * c
    return " ".join(parts), value


@pytest.mark.parametrize("name", ["Heis27", "D8"])
def test_x_polynomial_matches_the_algebra_operators(algebra, name):
    """A subst: polynomial multiplied out by _word_value on codes equals the
    same polynomial built with the AlgebraElement operators: order-sensitive
    words, exponents 1 .. 2|G| and 10^30, signed and scaled terms."""
    alg = algebra(name, 2)
    x1x2, x2x1 = (_parse_x_polynomial(alg, word) for word in ("x1 x2", "x2 x1"))
    xs = [AlgebraElement.embed(alg, g) - 1 for g in alg.group.generator_indices]
    assert np.array_equal(x1x2, (xs[0] * xs[1]).codes)
    assert np.array_equal(x2x1, (xs[1] * xs[0]).codes)
    assert not np.array_equal(x1x2, x2x1)
    rng = random.Random(f"x-polynomial {name}")
    for _ in range(60):
        text, value = _x_polynomial_by_operators(alg, rng, rng.randint(1, 4))
        assert np.array_equal(_parse_x_polynomial(alg, text), value.codes), text


@pytest.mark.parametrize("text, message", [
    ("x0", "x0 out of range"),
    ("x4", "x4 out of range"),
    ("x1^0", "must be at least 1"),
    ("x1 x2^0", "must be at least 1"),
    ("1 + x1", "constant terms"),
    ("x1 + (t)", "constant terms"),
    ("x1 - 2", "constant terms"),
    ("y1", "bad generator token 'y1'"),
])
def test_x_polynomial_rejections(algebra, text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _parse_x_polynomial(algebra("Heis27", 2), text)


@pytest.mark.parametrize("constructor, stack", [
    (AlgebraAutomorphism.inners, lambda alg: np.stack([alg.parse("1 + g1"), alg.parse("1 + g2")])),
    (AlgebraAutomorphism.substitutions, lambda alg: np.stack([np.eye(alg.dimension, dtype=np.int64)[
        alg.group.generator_indices]] * 2)),
])
def test_one_provenance_too_few_is_an_error(algebra, constructor, stack):
    alg = algebra("C3xC3", 2)
    assert len(constructor(alg, stack(alg), ["a", "b"])) == 2
    with pytest.raises(ValueError):
        constructor(alg, stack(alg), ["a"])


@pytest.mark.parametrize("spec, token", [
    ("random-inners count=2", "'random-inners'"),
    ("random-innerfoo", "'random-innerfoo'"),
    ("random-subst-x", "'random-subst-x'"),
    ("random-inner: seed=3", "'random-inner'"),
    ("random-inner count=2 count=3", "'count=3'"),
    ("random-subst seed=1 seed=1", "'seed=1'"),
    ("random-inner seed", "'seed'"),
    ("random-inner seed=x", "'seed=x'"),
    ("random-inner size=2", "'size=2'"),
])
def test_random_spec_heads_are_parsed_exactly(algebra, spec, token):
    with pytest.raises(ValueError, match=re.escape(token)):
        parse_automorphism_specs(algebra("C2xC2"), spec)


def test_spec_parser_default_seed(algebra):
    alg = algebra("D8")
    (a1,) = parse_automorphism_specs(alg, "random-inner", default_seed=5)
    (a2,) = parse_automorphism_specs(alg, "random-inner", default_seed=5)
    (a3,) = parse_automorphism_specs(alg, "random-inner", default_seed=6)
    assert np.array_equal(Member(a1, 0).matrix, Member(a2, 0).matrix)
    assert not np.array_equal(Member(a1, 0).matrix, Member(a3, 0).matrix)


def test_random_substitution_matches_contract():
    alg = GroupAlgebra(catalog("C5xC5"), GF(5, 2))
    rng = random.Random(99)
    (rep,) = verify_stack(random_substitutions(alg, rng, 1))
    assert rep.equation_holds
    assert rep.lambda_in_power_subgroup
    assert rep.socle_scalar == rep.det_power


def _subst_spec(m, coefficient):
    """x_i -> c x_i + x_(i+1) + x_1 x_m: a triangular linear part and J^2 tails."""
    clauses = []
    for i in range(1, m + 1):
        rhs = f"{coefficient}x{i}" + (f" + x{i + 1}" if i < m else "") + f" + x1*x{m}"
        clauses.append(f"x{i} -> {rhs}")
    return "subst: " + ", ".join(clauses)


@pytest.mark.parametrize("degree", [1, 2])
def test_substitution_blocks_match_column_oracle(algebra, all_names, degree, monkeypatch):
    """The generator-block build equals the column loop, byte for byte.

    A stack of three random substitutions and one subst: spec with J^2 tails on
    every elementary abelian catalog group, and over GF(p^2) on C2^7 and
    C3^4 too; the images each build received are recorded and rebuilt by
    substitution_matrix_by_columns.
    """
    built = []
    build = AlgebraAutomorphism.substitutions.__func__

    def recording(cls, alg, images, provenances):
        stack = build(cls, alg, images, provenances)
        built.extend((alg, member, Member(stack, b)) for b, member in enumerate(images))
        return stack

    monkeypatch.setattr(AlgebraAutomorphism, "substitutions", classmethod(recording))
    names = [name for name in all_names if algebra(name).group.is_elementary_abelian()]
    if degree == 2:
        names += ["C2^7", "C3^4"]
    for name in names:
        alg = algebra(name, degree)
        rng = random.Random(derive_seed(7, "subst-blocks", name))
        list(random_substitutions(alg, rng, 3))
        parse_automorphism_specs(alg, _subst_spec(alg.group.m, "(t)*" if degree == 2 else ""))
    assert len(built) == 4 * len(names)
    assert {alg.group.p for alg, _, _ in built} == {2, 3, 5}
    for alg, images, auto in built:
        expected = substitution_matrix_by_columns(alg, images)
        assert np.array_equal(auto.matrix, expected), (alg.group.name, auto.provenance)


@pytest.mark.parametrize("degree", [1, 2])
def test_random_substitution_matches_element_oracle(algebra, all_names, degree):
    """Images summed on codes equal images summed as AlgebraElements.

    A stack of three draws per seed on every elementary abelian catalog
    group and on C2^7, against three oracle draws: the same matrix, byte for byte, as the oracle's images give, and
    the same RNG state after.
    """
    names = [name for name in all_names if algebra(name).group.is_elementary_abelian()]
    names.append("C2^7")
    tails = 0
    for name in names:
        alg = algebra(name, degree)
        for seed in range(3):
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            for auto in members(random_substitutions(alg, rng, 3)):
                images = substitution_images_by_elements(alg, oracle_rng)
                assert np.array_equal(auto.matrix[:, alg.group.generator_indices].T, images), name
                assert np.array_equal(auto.matrix, substitution_matrix_by_columns(alg, images)), name
                assert auto.provenance == "random-subst" and auto.pair_check == "substitution"
                # a J^2 tail is nonzero off the columns of 1 and the generators
                tails += bool(np.delete(images, [0] + alg.group.generator_indices, axis=1).any())
            assert rng.getstate() == oracle_rng.getstate(), name
    assert tails > 0


def _d8_lift_matrix(alg, lift, image):
    """Identity matrix of D8 except that column `lift` holds the vector `image`.

    Its data's alpha(n) column is n, so the socle check passes and the
    graded checks of verify_stack are what fails.
    """
    matrix = np.eye(alg.dimension, dtype=np.int64)
    matrix[:, lift] = image.codes
    data = np.column_stack([matrix[:, alg.filtration.lift_indices], np.ones(alg.dimension, dtype=np.int64)])
    return unchecked_stack(alg, matrix, "lift image", data)


def test_graded_action_rejects_a_lift_image_outside_its_radical_power(algebra):
    alg = algebra("D8")
    (y1, y2), (y3,) = alg.filtration.lifts[:2]
    # y3 has degree 2 but y1 - 1 only lies in J
    auto = _d8_lift_matrix(alg, y3, AlgebraElement.embed(alg, y1))
    with pytest.raises(FiltrationNotPreserved, match="degree-2 lift"):
        verify_stack([auto])


def test_graded_action_rejects_an_image_class_outside_the_lift_span(algebra):
    alg = algebra("D8")
    (y1, y2), (y3,) = alg.filtration.lifts[:2]
    # the weight-2 classes are those of y3 - 1 and (y1 - 1)(y2 - 1); sending
    # y3 - 1 to the second stays in J^2 but leaves the span of the degree-2 lift
    image = 1 + (AlgebraElement.embed(alg, y1) - 1) * (AlgebraElement.embed(alg, y2) - 1)
    assert in_radical_power(alg, (image - 1).codes, 2)
    auto = _d8_lift_matrix(alg, y3, image)
    with pytest.raises(LieSubspaceViolated, match="layer 2"):
        verify_stack([auto])


# non-abelian groups whose relations bind the images of more than one
# generator, over GF(p^2)
SUBST_FUZZ_GROUPS = ("D8", "Q8", "Heis27", "ES27")


def _fuzz_images(alg, data):
    """(kind, (m, |G|) image codes) of one drawn substitution.

    Every kind starts from the generator images u g_i u^-1 under a drawn
    unit u.  "socle" adds c (sum of all g), central and of square 0, to the
    image of every generator that no power or commutator word mentions,
    which keeps every relation and the degree-1 block; "j2" adds a nonzero
    element of J^2 to one image, which may break a relation.
    """
    g, ops, q = alg.group, alg.ops, alg.field.q
    unit = alg.one()
    for _ in range(data.draw(st.integers(1, 3))):
        h, c = data.draw(st.integers(1, g.order - 1)), data.draw(st.integers(1, q - 1))
        unit[h] = ops.add(unit[h], c)
        unit[0] = ops.sub(unit[0], c)
    inverse = alg.unit_inverse(unit[None])[0]
    gens = np.eye(g.order, dtype=np.int64)[g.generator_indices]
    images = alg.multiply_codes(alg.multiply_codes(np.broadcast_to(unit, gens.shape), gens),
                                np.broadcast_to(inverse, gens.shape))
    kind = data.draw(st.sampled_from(("inner", "socle", "j2")))
    if kind == "socle":
        mentioned = {i for word in (*g.power_words, *g.comm_words.values()) for i, _ in word}
        for i in sorted(set(range(1, g.m + 1)) - mentioned):
            images[i - 1] = ops.add(images[i - 1], data.draw(st.integers(1, q - 1)))
    elif kind == "j2":
        j2 = alg.filtration.basis(2)
        coef = data.draw(st.lists(st.integers(0, q - 1), min_size=len(j2), max_size=len(j2)).filter(any))
        i = data.draw(st.integers(0, g.m - 1))
        images[i] = ops.add(images[i], ops.matmul(np.array([coef], dtype=np.int64), j2)[0])
    return kind, images


@pytest.mark.parametrize("name", SUBST_FUZZ_GROUPS)
def test_substitution_images_give_a_typed_error_or_a_verified_automorphism(name):
    """Drawn substitution images on a non-abelian group either raise
    RelationViolation, SingularLinearPart or the augmentation ValueError,
    or pass the pair oracle and verify with lambda = det^(p-1); the images
    that keep every relation by construction always pass."""
    alg = shared_algebra(name, 2)
    outcomes = []

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def draw(data):
        kind, images = _fuzz_images(alg, data)
        try:
            auto = AlgebraAutomorphism.substitutions(alg, images[None], [kind])
        except (RelationViolation, SingularLinearPart, ValueError) as err:
            assert isinstance(err, (RelationViolation, SingularLinearPart)) or "augmentation 1" in str(err)
            assert kind == "j2", err
            outcomes.append((kind, "rejected"))
            return
        auto.check_pairs()
        assert auto.pair_check == "full"
        assert _verify(auto).equation_holds
        outcomes.append((kind, "passed"))

    draw()
    kinds, results = zip(*outcomes)
    assert set(kinds) == {"inner", "socle", "j2"} and set(results) == {"passed", "rejected"}, outcomes
