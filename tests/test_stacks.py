"""Stacked kernels and the stacked verification against one member at a time.

FieldOps.matmul_stack, GroupAlgebra.multiply_codes / unit_inverse on
(B, |G|) stacks, random_inners and verify_stack must give every member
exactly what it gets in a one-member stack, whatever the chunk sizes,
and a stack with a bad member must raise what that member raises alone.
The per-member oracles (report_by_members, random_inner_by_elements,
matmul_by_planes) compute the same things without stacks.
"""

from __future__ import annotations

import json
import random
import re
import tracemalloc

import numpy as np
import pytest

from socle_verify import GF, NotAUnit, automorphisms, linalg, pipeline
from socle_verify.automorphisms import (
    AlgebraAutomorphism,
    member_slices,
    parse_automorphism_specs,
    random_inners,
    verify_stack,
)
from socle_verify.cli import main
from socle_verify.groupalgebra import column_sums
from socle_verify.linalg import FieldOps
from socle_verify.pipeline import run, sweep_automorphisms

from conftest import shared_algebra
from oracle_helpers import (AlgebraElement, matmul_by_planes, members, random_inner_by_elements, report_by_members,
                            unchecked_stack)

# the groups of the benchmark's sweep workload: every catalog group of order
# <= 27 and Heis125
SWEEP_GROUPS = (
    "C2", "C4", "C8", "C3", "C9", "C27", "C5", "C25", "C2xC2", "C3xC3",
    "C5xC5", "C2xC2xC2", "C3xC3xC3", "C4xC2", "D8", "Q8", "D16", "M16",
    "Heis27", "ES27", "Heis125",
)


@pytest.mark.parametrize("degree", [1, 2])
def test_stacked_reports_match_members_verified_alone(degree):
    """Every run of the sweep groups: its stacks, each member alone, and the oracle."""
    for name in SWEEP_GROUPS:
        alg = shared_algebra(name, degree)
        stacks = list(sweep_automorphisms(alg, name, 7, inner_count=2, compose_count=2, subst_count=2))
        autos = members(stacks)
        reports = verify_stack(stacks)
        stacked = [rep.as_dict() for rep in reports]
        alone = [verify_stack([auto.alone()])[0] for auto in autos]
        assert stacked == [rep.as_dict() for rep in alone] == [report_by_members(auto) for auto in autos], name
        assert [rep.as_dict() for rep in run(alg, stacks).auto_reports] == stacked, name
        for rep, one in zip(reports, alone):
            assert [r for r, _ in rep.blocks] == [r for r, _ in one.blocks], name
            assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(rep.blocks, one.blocks)), name


@pytest.mark.parametrize("name, degree", [("D8", 2), ("Heis27", 2), ("C25", 1), ("C2xC2xC2", 2)])
@pytest.mark.parametrize("count", [1, 2, 25])
def test_random_inner_count_matches_sequential_draws(name, degree, count):
    alg = shared_algebra(name, degree)
    autos = members(parse_automorphism_specs(alg, f"random-inner seed=5 count={count}"))
    rng = random.Random(5)
    alone = [members(random_inners(alg, rng, 1))[0] for _ in range(count)]
    after_alone = rng.getstate()
    rng = random.Random(5)
    oracle = [random_inner_by_elements(alg, rng) for _ in range(count)]
    rng = random.Random(5)
    list(random_inners(alg, rng, count))
    assert rng.getstate() == after_alone
    assert len(autos) == len(alone) == count
    for auto, one, (matrix, provenance) in zip(autos, alone, oracle):
        assert np.array_equal(auto.matrix, one.matrix)
        assert np.array_equal(auto.matrix, matrix)
        assert auto.provenance == one.provenance == provenance
        assert auto.pair_check == one.pair_check == "unit-inverse"


# (members, rows, K, columns): an empty stack, a member with no rows, one
# member, a K = 1 product, matvecs and an odd member count
STACK_SHAPES = [(0, 3, 4, 2), (4, 0, 3, 2), (1, 5, 4, 3), (3, 6, 1, 5), (13, 9, 9, 1), (7, 5, 6, 4)]


@pytest.mark.parametrize("p, n", [(2, 1), (3, 2), (2, 8)])
def test_matmul_stack_matches_members(p, n):
    ops = FieldOps(GF(p, n))
    rng = np.random.default_rng(31 * p + n)
    for members, rows, depth, cols in STACK_SHAPES:
        a = rng.integers(0, p**n, (members, rows, depth))
        b = rng.integers(0, p**n, (members, depth, cols))
        got = ops.matmul_stack(a, b)
        assert got.shape == (members, rows, cols) and got.dtype == np.int64
        for k in range(members):
            assert np.array_equal(got[k], ops.matmul(a[k], b[k]))
            if rows:
                assert np.array_equal(got[k], matmul_by_planes(ops, a[k], b[k]))


@pytest.mark.parametrize("p, n", [(2, 1), (3, 2), (2, 8)])
def test_matmul_stack_crosses_chunk_borders(monkeypatch, p, n):
    """Chunks of 3 whole members, of one member, and of 2 rows of one member:
    the partial last chunks and the split members stay correct."""
    ops = FieldOps(GF(p, n))
    rng = np.random.default_rng(47 * p + n)
    members, rows, depth, cols = 7, 5, 6, 4
    a = rng.integers(0, p**n, (members, rows, depth))
    b = rng.integers(0, p**n, (members, depth, cols))
    want = np.stack([matmul_by_planes(ops, x, y) for x, y in zip(a, b)])
    per_row = n * max(depth, n * cols)
    product = ops._product
    for stack_cells, product_cells, sizes in [
        (3 * rows * per_row, linalg.MAX_PRODUCT_CELLS, [(3, 5), (3, 5), (1, 5)]),
        (1, linalg.MAX_PRODUCT_CELLS, [(1, 5)] * 7),
        (1, 2 * per_row, [(1, 2), (1, 2), (1, 1)] * 7),
    ]:
        seen = []
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "MAX_STACK_CELLS", stack_cells)
            patch.setattr(linalg, "MAX_PRODUCT_CELLS", product_cells)
            patch.setattr(ops, "_product", lambda x, r: seen.append(x.shape[:2]) or product(x, r))
            assert np.array_equal(ops.matmul_stack(a, b), want)
        assert seen == sizes


def test_algebra_stacks_cross_member_chunks(monkeypatch):
    """Units inverted, conjugated and verified in chunks of 3 members give
    the matrices and reports of one chunk, and a tampered member in a later
    chunk raises what it raises alone."""
    alg = shared_algebra("Heis27", 2)
    want_stacks = list(parse_automorphism_specs(alg, "random-inner seed=3 count=7"))
    want = members(want_stacks)
    reports = [rep.as_dict() for rep in verify_stack(want_stacks)]
    units = np.stack([alg.parse(a.provenance.partition(": ")[2]) for a in want])
    products = alg.multiply_codes(units, units[::-1])
    monkeypatch.setattr(linalg, "MAX_STACK_CELLS", 3 * 27 * 27)
    assert linalg.member_chunks(7, 27 * 27) == [slice(0, 3), slice(3, 6), slice(6, 9)]
    got = list(parse_automorphism_specs(alg, "random-inner seed=3 count=7"))
    assert all(np.array_equal(x.matrix, y.matrix) for x, y in zip(members(got), want, strict=True))
    assert [rep.as_dict() for rep in verify_stack(got)] == reports
    assert np.array_equal(alg.multiply_codes(units, units[::-1]), products)
    for k in range(7):
        assert np.array_equal(products[k], alg.multiply_codes(units[k], units[6 - k]))
        assert np.array_equal(alg.unit_inverse(units)[k], alg.unit_inverse(units[k : k + 1])[0])
    # verify_stack decodes |G| (M+1) n cells per member
    cells = want[0].data.size * alg.ops.n
    monkeypatch.setattr(linalg, "MAX_STACK_CELLS", 3 * cells)
    sizes = []
    graded = automorphisms._graded_stack
    monkeypatch.setattr(automorphisms, "_graded_stack", lambda a, data: sizes.append(len(data)) or graded(a, data))
    assert [rep.as_dict() for rep in verify_stack(want_stacks)] == reports
    assert sizes == [3, 3, 1]
    # the first bad member (member 4, in the second chunk) raises its error
    # before the socle failure of member 7 in the third
    bad = _bad_automorphisms(alg)
    for auto in bad.values():
        alone = _error_alone(auto)
        with pytest.raises(type(alone), match=re.escape(str(alone))):
            verify_stack([one.alone() for one in want[:4]] + [auto] + [one.alone() for one in want[4:6]]
                         + [bad["socle"]])


# (argv, what it runs): two random sources on one group, and a sweep with
# stored, inner, composed and substituted automorphisms on two groups
CHUNKED_RUNS = [
    (["run", "--group", "C2xC2xC2", "--field", "2,2", "--seed", "3", "--auto", "random-inner count=7",
      "--auto", "random-subst count=7", "--format", "json"], 3 + 14),
    (["sweep", "--seed", "5", "--groups", "C3xC3,D8", "--compose", "5", "--format", "json"], None),
]


@pytest.mark.parametrize("argv, autos", CHUNKED_RUNS, ids=["run", "sweep"])
def test_one_member_chunks_give_the_same_bytes(capsys, monkeypatch, argv, autos):
    """With linalg.MAX_STACK_CELLS so small that every chunk holds one
    member, a run and a sweep print the bytes they print at the default,
    and no source builds a stack wider than one member_slices step."""
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)  # every run in this process, under the spy
    widths = []
    init = AlgebraAutomorphism.__init__

    def spy(self, algebra, *args, **kwargs):
        init(self, algebra, *args, **kwargs)
        assert len(member_slices(algebra, len(self))) <= 1, (len(self), self.provenance)
        widths.append(len(self))

    monkeypatch.setattr(AlgebraAutomorphism, "__init__", spy)
    outputs = {}
    default_cells = linalg.MAX_STACK_CELLS
    for cells in (default_cells, 1):
        widths.clear()
        monkeypatch.setattr(linalg, "MAX_STACK_CELLS", cells)
        assert main(argv) == 0
        outputs[cells] = capsys.readouterr().out
        assert widths and (cells > 1 or set(widths) == {1}), widths
        if autos is not None:
            assert sum(widths) == autos == len(json.loads(outputs[cells])["autos"])
    assert outputs[default_cells] == outputs[1]
    assert json.loads(outputs[1])["verdict"] is True


def _with_column(alg, element, image, socle=None):
    """The identity matrix except that the column of `element` holds `image`.

    With socle = lambda, the data's alpha(n) column is lambda * n instead of
    the matrix's row sums, so the socle check passes and the graded checks
    are what fails.
    """
    matrix = np.eye(alg.dimension, dtype=np.int64)
    matrix[:, element] = image.codes
    data = None
    if socle is not None:
        data = np.column_stack([matrix[:, alg.filtration.lift_indices],
                                np.full(alg.dimension, socle, dtype=np.int64)])
    return unchecked_stack(alg, matrix, "tampered", data)


def _bad_automorphisms(alg):
    """One automorphism per failure of the verification, on a group whose
    first two Jennings layers have ranks 2 and 1 (D8, Heis27)."""
    (y1, y2), (y3,) = alg.filtration.lifts[:2]
    one = AlgebraElement.one(alg)
    x1, x2 = (AlgebraElement.embed(alg, y) for y in (y1, y2))
    lam = alg.field.q - 1  # a nonzero code
    return {
        "socle": _with_column(alg, y2, x1),
        "below": _with_column(alg, y3, x1, socle=lam),
        "outside": _with_column(alg, y3, one + (x1 - one) * (x2 - one), socle=lam),
        "singular": _with_column(alg, y3, one, socle=lam),
    }


def _error_alone(auto):
    """The error verify_stack raises on a one-member stack of auto."""
    with pytest.raises(ValueError) as alone:
        verify_stack([auto])
    return alone.value


@pytest.mark.parametrize("degree", [1, 2])
def test_a_bad_member_raises_what_it_raises_alone(degree):
    alg = shared_algebra("D8", degree)
    good = [auto.alone() for auto in members(sweep_automorphisms(alg, "D8", 7, inner_count=2, subst_count=0))]
    bad = _bad_automorphisms(alg)
    kinds = {}
    for label, auto in bad.items():
        alone = _error_alone(auto)
        kinds[label] = type(alone).__name__
        for at in (0, 2, len(good)):
            stack = good[:at] + [auto] + good[at:]
            with pytest.raises(type(alone), match=re.escape(str(alone))):
                verify_stack(stack)
    assert kinds == {"socle": "SocleNotPreserved", "below": "FiltrationNotPreserved",
                     "outside": "LieSubspaceViolated", "singular": "FiltrationNotPreserved"}
    assert "singular" in str(_error_alone(bad["singular"]))
    # of two bad members, the first one's error is raised
    for first, second in (("outside", "socle"), ("socle", "below"), ("singular", "outside")):
        alone = _error_alone(bad[first])
        with pytest.raises(type(alone), match=re.escape(str(alone))):
            verify_stack([good[0], bad[first], good[1], bad[second]])


def test_a_non_unit_in_a_unit_stack_raises_not_a_unit():
    alg = shared_algebra("Heis27", 2)
    units = np.random.default_rng(5).integers(0, 9, (4, 27))
    units[:, 0] = 0
    units[:, 0] = alg.ops.sub(1, column_sums(alg.ops, units.T))  # augmentation 1
    assert len(AlgebraAutomorphism.inners(alg, units, ["unit"] * 4)) == 4
    bad = np.zeros((1, alg.dimension), dtype=np.int64)
    with pytest.raises(NotAUnit) as alone:
        AlgebraAutomorphism.inners(alg, bad, ["unit"])
    stack = np.vstack([units[:2], bad, units[2:]])
    with pytest.raises(NotAUnit, match=re.escape(str(alone.value))):
        AlgebraAutomorphism.inners(alg, stack, ["unit"] * len(stack))


def test_compose_memory_is_flat_in_the_count(monkeypatch):
    """A stack keeps no member matrix, so the compositions of a sweep, built
    from the stored and inner stacks it keeps, do not grow its memory with
    their count: on Heis125 over GF(5), with as many inner automorphisms as
    compositions, the traced peak at count 400 is within 10 MB of the peak
    at count 100 (about 2 MB apart, where kept matrices made it 25 MB)."""
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)  # every run in this process, under the tracer
    peaks = {}
    for count in (100, 400):
        tracemalloc.start()
        try:
            report = pipeline.sweep(groups=["Heis125"], inner_count=count, compose_count=count, subst_count=0,
                                    extension_degree=1)
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.verdict and len(report.reports[0].auto_reports) > 2 * count
    assert peaks[400] - peaks[100] < 10 * 2**20, peaks
