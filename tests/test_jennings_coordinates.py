"""Positions in the radical filtration, read off the Jennings monomials.

RadicalFiltration.coordinates() inverts the monomial basis by a gather
and one binomial matrix per lift.  Each read-off is compared with a
computation that takes another route: the monomials multiplied out in
kG, row reduction against the echelon bases of the stacked-product
oracle, and the graded blocks by projection onto that oracle's
complements with a solve per lift.
"""

from __future__ import annotations

import random

import numpy as np

from socle_verify import build_jennings_basis, verify_stack
from socle_verify.pipeline import sweep_automorphisms
from conftest import shared_algebra, shared_products_oracle
from oracle_helpers import graded_blocks_by_projection, in_radical_power, jennings_monomials, members, reduce_rows


def _products_oracle(name):
    # prime-field RREF bases are the RREF bases over GF(p^n) too
    # (test_filtration_matches_products_oracle_over_extension_field)
    return shared_products_oracle(shared_algebra(name, 1).group)


def _cases(all_names):
    return [(name, n) for name in list(all_names) + ["C2^7"] for n in (1, 2)]


def _random_codes(rng, alg, shape):
    return np.array([rng.randrange(alg.field.q) for _ in range(int(np.prod(shape)))],
                    dtype=np.int64).reshape(shape)


def test_coordinates_rebuild_elements_from_multiplied_out_monomials(all_names):
    rng = random.Random(5)
    for name, n in _cases(all_names):
        alg = shared_algebra(name, n)
        filt = alg.filtration
        monomials = np.vstack([m.codes for m in jennings_monomials(alg)])
        assert monomials.shape == (alg.dimension, alg.dimension), name
        x = _random_codes(rng, alg, (alg.dimension, 3))
        coords = filt.coordinates(alg.ops, x)
        # column c of x is sum_i coords[i, c] * monomial_i
        assert np.array_equal(alg.ops.matmul(monomials.T, coords), x), (name, n)
        assert np.array_equal(filt.coordinates(alg.ops, x[:, 0]), coords[:, 0]), (name, n)


def test_in_radical_power_matches_products_oracle(all_names):
    rng = random.Random(11)
    for name, n in _cases(all_names):
        alg = shared_algebra(name, n)
        bases, pivots, _, _ = _products_oracle(name)
        depths = range(len(bases))
        if len(depths) > 8:
            depths = sorted({0, 1, len(bases) - 2, len(bases) - 1, *rng.sample(depths, 4)})
        for depth in depths:
            basis = bases[depth]
            # a random element of J^depth, and one with a stray unit vector added
            coef = _random_codes(rng, alg, (1, basis.shape[0]))
            x = alg.ops.matmul(coef, basis).reshape(-1) if basis.shape[0] else np.zeros(alg.dimension, dtype=np.int64)
            stray = x.copy()
            stray[rng.randrange(alg.dimension)] = rng.randrange(1, alg.field.q)
            for codes in (x, stray):
                for r in range(len(bases) + 1):
                    b, piv = bases[min(r, len(bases) - 1)], pivots[min(r, len(bases) - 1)]
                    want = not reduce_rows(alg.ops, codes, b, piv).any()
                    assert in_radical_power(alg, codes, r) == want, (name, n, depth, r)


def test_graded_action_matches_projection_oracle(all_names):
    count = 0
    for name, n in _cases(all_names):
        alg = shared_algebra(name, n)
        basis = build_jennings_basis(alg.group)
        oracle = _products_oracle(name)
        stacks = list(sweep_automorphisms(alg, name, 7, 3, 2, 3))
        for auto, rep in zip(members(stacks), verify_stack(stacks), strict=True):
            mine = rep.blocks
            theirs = graded_blocks_by_projection(auto, basis, oracle)
            assert len(mine) == len(theirs), (name, n, auto.provenance)
            for (r, a), (s, b) in zip(mine, theirs):
                assert r == s and np.array_equal(a, b), (name, n, auto.provenance)
            count += 1
    assert count == 410  # 394 on the catalog, 16 on C2^7
