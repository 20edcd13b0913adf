"""Orders 243 to 512 on the default path.

Inline pc presentations above the catalog's largest order (125) up to
MAX_ORDER = 512: graded dimensions against the product generating
function, the socle certificate and the socle product formula; at
order 256 the socle scalar against det^(p-1) through the pipeline, and
random substitutions at orders 243 and 512 over GF(p^2).  The
Cayley table and the block-built automorphism permutation are compared with
collection and with table-lookup walks on sampled pairs and one order-512
automorphism.  An order-512 run under --full-check ends in a child
process within its timeout.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys

import numpy as np
import pytest

from socle_verify import GF, GroupAlgebra, PcGroup, build_jennings_basis
from socle_verify.pgroup import MAX_ORDER
from socle_verify.pipeline import RunConfig, prepare, run
from oracle_helpers import automorphism_perm_by_normal_forms, product_by_collection

PRESENTATIONS = {
    "C2^8": "pcgroup p=2 m=8\n",
    "C2^9": "pcgroup p=2 m=9\n",
    "C3^5": "pcgroup p=3 m=5\n",
    "D8xC2^5": "pcgroup p=2 m=8\ng2^2 = g3\n[g2,g1] = g3\n",
}
ORDERS = {"C2^8": 256, "C2^9": 512, "C3^5": 243, "D8xC2^5": 256}
SOCLE_DEGREES = {"C2^8": 8, "C2^9": 9, "C3^5": 10, "D8xC2^5": 9}

_GROUPS: dict[str, PcGroup] = {}


def large_group(name):
    if name not in _GROUPS:
        _GROUPS[name] = PcGroup.from_presentation_text(PRESENTATIONS[name], name=name)
    return _GROUPS[name]


@pytest.mark.parametrize("name", list(PRESENTATIONS))
def test_large_order_structure(name):
    group = large_group(name)
    assert group.order == ORDERS[name] <= MAX_ORDER
    basis = build_jennings_basis(group)
    out = basis.jq_dimension_check()
    assert out["gr_dims"] == basis.pbw_polynomial()
    assert out["socle_degree"] == SOCLE_DEGREES[name]
    algebra = GroupAlgebra(group, GF(group.p))
    assert np.array_equal(algebra.socle_vector(), np.ones(algebra.dimension, dtype=np.int64))
    assert np.array_equal(basis.socle_product(algebra), np.ones(algebra.dimension, dtype=np.int64))


@pytest.mark.parametrize("name", ["C2^9", "D8xC2^5"])
def test_large_cayley_table_matches_collection_on_sampled_pairs(name):
    group = large_group(name)
    rng = random.Random(512)
    for _ in range(2000):
        a, b = rng.randrange(group.order), rng.randrange(group.order)
        assert group.cayley_table[a, b] == product_by_collection(group, a, b), (a, b)


def test_order_512_group_automorphism_matches_normal_form_products():
    group = large_group("C2^9")
    images = [group.parse_word(w) for w in ("g1 g2", "g2 g3", "g3 g9")] + group.generator_indices[3:]
    auto = group.group_automorphism(images)
    assert auto.perm.tolist() == automorphism_perm_by_normal_forms(group, images)


@pytest.mark.parametrize(
    "name, specs",
    [
        pytest.param("D8xC2^5", ("group-auto: g1 -> g1 g4", "random-inner"), id="D8xC2^5"),
        pytest.param("C2^8", ("group-auto: g1 -> g1 g2", "random-inner", "random-subst"), id="C2^8"),
    ],
)
@pytest.mark.parametrize("degree", [1, 2])
def test_order_256_socle_scalar_is_det_power(name, specs, degree):
    algebra, autos = prepare(
        RunConfig(
            group=name,
            presentation=PRESENTATIONS[name],
            n=degree,
            auto_specs=specs,
            include_stored=False,
            seed=4,
        )
    )
    assert algebra.dimension == 256 and algebra.field.q == 2**degree
    report = run(algebra, autos)
    assert report.checks == {
        "graded_dimensions": True,
        "socle_certificate": True,
        "socle_product_formula": True,
    }
    assert len(report.auto_reports) == len(specs)
    for rep in report.auto_reports:
        assert rep.equation_holds, rep.provenance
        assert rep.socle_scalar == rep.det_power, rep.provenance
        assert degree > 1 or rep.socle_scalar == 1, rep.provenance
    if degree > 1 and "random-subst" in specs:
        # with this seed the substitution's linear part has det t+1, not 1
        assert report.auto_reports[-1].socle_scalar != 1
    assert report.verdict


@pytest.mark.parametrize("name", ["C2^9", "C3^5"])
def test_large_substitutions_socle_scalar_is_det_power(name):
    group = large_group(name)
    algebra, autos = prepare(
        RunConfig(
            group=name,
            presentation=PRESENTATIONS[name],
            n=2,
            auto_specs=("random-subst count=2",),
            include_stored=False,
            seed=4,
        )
    )
    assert algebra.dimension == ORDERS[name] and algebra.field.q == group.p**2
    report = run(algebra, autos)
    assert len(report.auto_reports) == 2
    for rep in report.auto_reports:
        assert rep.equation_holds, rep.provenance
        assert rep.socle_scalar == rep.det_power, rep.provenance
        # det^(p-1) = 1 exactly when det lies in GF(p)
        in_prime_field = not any(rep.det_total.coeffs[1:])
        assert (rep.socle_scalar == 1) == in_prime_field, rep.provenance
    # with this seed the second draw's determinant lies outside GF(p)
    assert any(report.auto_reports[-1].det_total.coeffs[1:])
    assert report.auto_reports[-1].socle_scalar != 1
    assert report.verdict


def test_order_512_full_check_ends_in_a_child(tmp_path):
    """--full-check at order 512: two inner automorphisms over GF(4) go
    through every oracle, with the pair check sampled, in a child process
    that must end within 120 s (about 5 s on a 2-core VM) with verdict
    true."""
    path = tmp_path / "c2x9.pc"
    path.write_text(PRESENTATIONS["C2^9"])
    argv = ["run", "--presentation", str(path), "--field", "2,2", "--no-stored",
            "--auto", "random-inner count=2", "--full-check", "--format", "json"]
    proc = subprocess.run([sys.executable, "-m", "socle_verify.cli", *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["verdict"] is True
    assert [auto["provenance"].endswith("[sampled multiplicativity]") for auto in report["autos"]] == [True] * 2
