"""Acceptance gate: nine verdicts, one per test, summarized at session end.

Each test prints its own PASS line on success; the conftest terminal
summary repeats the status of all nine so a full run ends with an
unambiguous scorecard.  Everything here is exact arithmetic; there are no
tolerances anywhere.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from socle_verify import (
    GF,
    GroupAlgebra,
    InconsistentPresentation,
    NotBijective,
    NotMultiplicative,
    PcGroup,
    catalog_names,
    verify_stack,
)
from socle_verify.automorphisms import AlgebraAutomorphism, random_substitutions
from socle_verify.groupalgebra import dimension_subgroups_definitional
from socle_verify.pipeline import derive_seed, gl_check, sweep

from conftest import register_criterion, shared_algebra, shared_group
from oracle_helpers import (
    AlgebraElement,
    assert_lie_structure_compatible,
    commutator_filtration_bound,
    frattini_by_products,
    in_radical_power,
    is_pm1_power,
    normal_form_index,
)

ACCEPTANCE_SEED = 20260815

CRITERIA = {
    1: "prime-field socle scalar is 1 for >=50 automorphisms of every catalog group",
    2: "extension-field socle scalar equals det^(p-1) for 100 random substitutions",
    3: "definitional and recursive dimension subgroups agree; commutator bound holds",
    4: "graded dimensions match the truncated-symmetric count and socle degree",
    5: "two-sided radical annihilator is spanned by the group-sum product formula",
    6: "bracket and p-power lifts are compatible; degree one generates",
    7: "GL generator identity det^(p-1) holds on the truncated polynomial ring",
    8: "negative controls are rejected",
    9: "sweep output is byte-identical across runs and matches its pinned sha256",
}
for number, title in CRITERIA.items():
    register_criterion(f"test_criterion_{number}_", number, title)


def _announce(number):
    print(f"CRITERION {number} PASS: {CRITERIA[number]}")


def test_criterion_1_prime_field_lambda_one():
    started = time.monotonic()
    report = sweep(
        seed=ACCEPTANCE_SEED,
        inner_count=30,
        compose_count=20,
        subst_count=25,
        extension_degree=1,
    )
    elapsed = time.monotonic() - started
    assert sorted(r.group_name for r in report.reports) == sorted(catalog_names())
    for rep in report.reports:
        assert rep.field.q == rep.field.p
        assert len(rep.auto_reports) >= 50, rep.group_name
        for auto in rep.auto_reports:
            assert auto.socle_scalar == 1, (rep.group_name, auto.provenance)
            assert auto.equation_holds
            assert auto.lambda_in_power_subgroup
    assert report.verdict
    assert elapsed <= 60.0, f"sweep took {elapsed:.1f}s"
    _announce(1)


def test_criterion_2_extension_field_substitutions():
    cases = [
        ("C3xC3", 3), ("C3xC3xC3", 3),
        ("C5xC5", 5), ("C5xC5xC5", 5),
    ]
    for name, p in cases:
        algebra = GroupAlgebra(shared_group(name), GF(p, 2))
        rng = random.Random(derive_seed(ACCEPTANCE_SEED, "accept2", name))
        autos = random_substitutions(algebra, rng, 100)
        for auto, rep in zip(autos, verify_stack(autos)):
            recomputed = rep.det_total ** (p - 1)
            assert rep.socle_scalar == recomputed, (name, auto.provenance)
            assert rep.equation_holds
            assert is_pm1_power(rep.socle_scalar)
            assert rep.lambda_in_power_subgroup
    _announce(2)


def test_criterion_3_series_cross_validation():
    for name in catalog_names():
        group = shared_group(name)
        definitional = dimension_subgroups_definitional(group)
        recursive = group.jennings_series_recursive()
        assert len(definitional) == len(recursive), name
        for a, b in zip(definitional, recursive):
            assert a == b, name
        if len(recursive) > 1:
            assert recursive[1] == frattini_by_products(group), name
        ok, witness = commutator_filtration_bound(group, recursive)
        assert ok, (name, witness)
        # the chain read off over the quadratic extension is the same chain
        ext = shared_algebra(name, 2)
        chain_sets = [set(s) for s in recursive]
        for el in range(group.order):
            x = (AlgebraElement.embed(ext, el) - 1).codes
            for r, members in enumerate(chain_sets, start=1):
                assert in_radical_power(ext, x, r) == (el in members)
    _announce(3)


def test_criterion_4_jennings_quillen_dimensions(basis):
    for name in catalog_names():
        group = shared_group(name)
        b = basis(name)
        out = b.jq_dimension_check()
        assert out["gr_dims"] == out["pbw_dims"], name
        assert sum(out["gr_dims"]) == group.order, name
        by_hand = (group.p - 1) * sum(
            (idx + 1) * rank for idx, rank in enumerate([len(lifts) for lifts in b.filtration.lifts])
        )
        assert out["socle_degree"] == by_hand, name
        assert len(out["gr_dims"]) == by_hand + 1, name
    _announce(4)


def test_criterion_5_socle_identity(basis):
    for name in catalog_names():
        algebra = shared_algebra(name)
        group = algebra.group
        rows = []
        for gi in group.generator_indices:
            j = (AlgebraElement.embed(algebra, gi) - 1).codes
            rows.append(algebra.right_mult_matrix(j))
            rows.append(algebra.left_mult_matrix(j))
        null = algebra.ops.nullspace(np.vstack(rows))
        assert null.shape[0] == 1, name
        target = algebra.socle_vector()
        k = algebra.field
        pivot = int(np.flatnonzero(null[0])[0])
        scale = k.element_from_code(int(target[pivot])) / k.element_from_code(
            int(null[0][pivot])
        )
        scaled = [k.code_of(k.element_from_code(int(v)) * scale) for v in null[0]]
        assert scaled == list(target), name
        # ordered product of (lift - 1)^(p-1) equals the group sum exactly
        assert np.array_equal(basis(name).socle_product(algebra), algebra.socle_vector()), name
    _announce(5)


def test_criterion_6_lie_compatibility(basis):
    for name in catalog_names():
        algebra = shared_algebra(name)
        b = basis(name)
        assert_lie_structure_compatible(algebra, b)
        assert b.degree_one_generates(), name
    _announce(6)


def test_criterion_7_gl_generator_identity():
    for p in (2, 3, 5):
        for m in (1, 2, 3):
            out = gl_check(
                p=p, m=m, count=200, seed=derive_seed(ACCEPTANCE_SEED, "gl", p, m)
            )
            assert out["verdict"], (p, m, out["failures"])
            assert out["failures"] == []
            assert out["checked"]["random"] == 200
            assert out["checked"]["elementary"] == m * (m - 1) * (p - 1)
            assert out["checked"]["diagonal"] == m * (p - 1)
    _announce(7)


def test_criterion_8_negative_controls():
    algebra = shared_algebra("C4")
    group = algebra.group
    matrix = np.eye(algebra.dimension, dtype=np.int64)
    i = normal_form_index(group, (1, 0))
    j = normal_form_index(group, (0, 1))
    matrix[:, [i, j]] = matrix[:, [j, i]]
    with pytest.raises(NotMultiplicative):
        AlgebraAutomorphism(algebra, matrix)

    klein = shared_group("C2xC2")
    with pytest.raises(NotBijective):
        klein.group_automorphism([normal_form_index(klein, (1, 0))] * 2)

    with pytest.raises(InconsistentPresentation):
        PcGroup.from_presentation_text(
            "pcgroup p=2 m=3\n"
            "g1^2 = g2\n"
            "g2^2 = g3\n"
            "g3^2 = 1\n"
            "[g2,g1] = g3\n"
        )
    _announce(8)


# sha256 of `socle-verify sweep --seed 7 --format json`, the pinned report bytes
SWEEP_SEED_7_SHA256 = "dbef57fd5dcf3e0fa541dafc019b9842cd4d95ca947aa2e95c096cc8fd6e156f"


def test_criterion_9_sweep_determinism():
    exe = shutil.which("socle-verify")
    cmd = [exe] if exe else [sys.executable, "-m", "socle_verify.cli"]
    cmd += ["sweep", "--seed", "7", "--format", "json"]
    outputs = []
    for _ in range(2):
        proc = subprocess.run(cmd, capture_output=True, timeout=480)
        assert proc.returncode == 0, proc.stderr.decode()[:500]
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert hashlib.sha256(outputs[0]).hexdigest() == SWEEP_SEED_7_SHA256
    payload = json.loads(outputs[0])
    assert payload["verdict"] is True
    assert payload["master_seed"] == 7
    # the verdict reads equation_holds alone: lambda = det^(p-1) puts lambda
    # in the (p-1)-st powers, and over GF(p) makes it 1
    for rep in payload["reports"]:
        for auto in rep["autos"]:
            assert not auto["equation_holds"] or (
                auto["in_subgroup"] and (rep["field"]["n"] > 1 or auto["lambda_is_one"])
            ), (rep["group"]["name"], auto["provenance"])
    _announce(9)
