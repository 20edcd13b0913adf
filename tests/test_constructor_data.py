"""Each constructor's own data against the dense matrix.

An automorphism's data are the images of the Jennings lifts and of the
socle vector, computed by its constructor with no |G| x |G| matrix; the
oracle data_by_matrix reads them off the matrix, built on first use.  The
low-weight coordinate rows behind RadicalFiltration.basis(r) are compared
with coordinates() of the identity.  A default run must build no matrix.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from socle_verify import GF, GroupAlgebra, PcGroup, automorphisms
from socle_verify.automorphisms import AlgebraAutomorphism, DataMismatch
from socle_verify.cli import main
from socle_verify.groupalgebra import column_sums, radical_filtration
from socle_verify.pipeline import RunConfig, RunStageError, prepare, run, sweep_automorphisms

from conftest import shared_algebra
from oracle_helpers import coordinate_rows_by_identity, data_by_matrix

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


def _assert_data_match(alg, autos, label):
    for auto in autos:
        assert auto.data.shape == (alg.dimension, len(alg.filtration.lift_indices) + 1), label
        assert np.array_equal(auto.data, data_by_matrix(auto)), (label, auto.provenance)


@pytest.mark.parametrize("degree", [1, 2])
def test_data_match_the_dense_matrix_on_the_catalog(all_names, degree):
    rng = np.random.default_rng(degree)
    for name in all_names:
        alg = shared_algebra(name, degree)
        autos = sweep_automorphisms(alg, name, 7, 3, 2, 3)
        autos += AlgebraAutomorphism.inners(alg, _dense_units(alg, rng, 2), ["dense"] * 2)
        _assert_data_match(alg, autos, name)


@pytest.mark.parametrize("name", list(LARGE))
@pytest.mark.parametrize("degree", [1, 2])
def test_data_match_the_dense_matrix_at_large_order(name, degree):
    alg = _presentation_algebra(name, degree)
    autos = sweep_automorphisms(alg, name, 7, 3, 2, 3)
    autos += AlgebraAutomorphism.inners(alg, _dense_units(alg, np.random.default_rng(3), 1), ["dense"])
    assert len(autos) == 6 + 3 * alg.group.is_elementary_abelian()
    _assert_data_match(alg, autos, name)


@pytest.mark.parametrize("degree", [1, 2])
def test_tampered_data_fail_the_full_check(degree):
    """Swapped lift images, or a wrong socle image, are caught by the
    comparison with the matrix under --full-check."""
    alg = shared_algebra("C2xC2xC2", degree)
    for auto in sweep_automorphisms(alg, "C2xC2xC2", 7, 1, 1, 1):
        swapped = auto.data.copy()
        swapped[:, [0, 1]] = swapped[:, [1, 0]]
        wrong = auto.data.copy()
        wrong[:, -1] = 0
        for data in (swapped, wrong):
            if np.array_equal(data, auto.data):
                continue
            bad = AlgebraAutomorphism(alg, auto.matrix, auto.provenance, certificate="tampered", data=data)
            with pytest.raises(DataMismatch):
                bad.check_pairs()
            with pytest.raises(RunStageError, match=r"\[verify\] DataMismatch"):
                run(alg, [bad], full_check=True)


def test_coordinate_rows_match_the_identity_oracle(group, all_names):
    groups = [group(name) for name in all_names]
    groups.append(_presentation_algebra("heis27xc3", 1).group)
    for g in groups:
        filt = radical_filtration(g)
        for r in range(len(filt.dims) + 1):
            rows = coordinate_rows_by_identity(filt, r)
            assert np.array_equal(filt.coordinate_rows(r), rows), (g.name, r)


def test_empty_stacks_build_nothing(capsys):
    assert main(["run", "--group", "C3xC3", "--no-stored", "--auto", "random-subst count=0",
                 "--auto", "random-inner count=0"]) == 0
    assert main(["sweep", "--groups", "C2,D8,C3xC3", "--inner", "0", "--subst", "0"]) == 0
    capsys.readouterr()
    alg = shared_algebra("C2xC2", 2)
    assert AlgebraAutomorphism.inners(alg, np.zeros((0, 4), dtype=np.int64), []) == []
    assert AlgebraAutomorphism.substitutions(alg, np.zeros((0, 2, 4), dtype=np.int64), []) == []
    stored = sweep_automorphisms(alg, "C2xC2", 7, 0, 0, 0)
    assert [auto.pair_check for auto in stored] == ["group-automorphism"] * len(alg.group.stored_automorphisms())


def test_default_order_512_run_builds_no_matrix(monkeypatch):
    """C2^9 over GF(4): a group automorphism, five inner ones and three
    substitutions verify with the matrix build, the conjugation product
    and left_mult_matrix patched to raise: the unit inverses, the inner
    lift and socle images and the substitution socle images are all
    products by narrow left factors."""
    def refuse(*args):
        raise AssertionError("a default run built a |G| x |G| matrix")

    monkeypatch.setattr(automorphisms, "_conjugation_matrix", refuse)
    monkeypatch.setattr(AlgebraAutomorphism, "matrix", property(refuse))
    monkeypatch.setattr(GroupAlgebra, "left_mult_matrix", refuse)
    algebra, autos = prepare(RunConfig(
        group="C2^9", presentation="pcgroup p=2 m=9\n", n=2, include_stored=False, seed=7,
        auto_specs=("group-auto: g1 -> g1 g2", "random-inner count=5", "random-subst count=3"),
    ))
    report = run(algebra, autos)
    assert len(report.auto_reports) == 9
    assert report.verdict
    with pytest.raises(AssertionError, match="built a"):
        autos[0].matrix
