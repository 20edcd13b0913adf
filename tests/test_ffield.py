"""Finite field arithmetic against independent oracles.

Prime fields are checked against plain integer arithmetic mod p.
Extension fields are checked against hand-expanded products in the pinned
modulus, brute-force inverse search, and exhaustive subgroup enumeration
for the (p-1)-st power subgroup.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socle_verify import GF, FieldMismatch
from socle_verify.ffield import (
    _is_irreducible,
    format_field_literal,
    format_modulus,
    parse_field_literal,
    parse_polynomial_literal,
)

from oracle_helpers import DomainError, is_irreducible_by_trial_division, is_pm1_power


def test_prime_field_matches_integer_arithmetic():
    k = GF(3)
    for a in range(3):
        for b in range(3):
            x, y = k.element(a), k.element(b)
            assert (x + y).coeffs == ((a + b) % 3,)
            assert (x * y).coeffs == ((a * b) % 3,)
            assert (x - y).coeffs == ((a - b) % 3,)


def test_hash_agrees_with_equality_against_ints():
    for p, n in ((5, 1), (3, 2), (2, 2)):
        k = GF(p, n)
        for a in range(p):
            assert k.element(a) == a
            assert hash(k.element(a)) == hash(a), (p, n, a)
            assert len({k.element(a), a}) == 1
        assert {k.element(a): a for a in range(p)} == {a: a for a in range(p)}
    assert len({GF(5).element(3), 3}) == 1
    t = GF(3, 2).from_coeffs([0, 1])
    assert len({t, t + 0, GF(3, 2).element(1)}) == 2


def test_default_moduli_are_smallest_lexicographic():
    # low-degree coefficients compare first, so these are pinned
    assert format_modulus(GF(2, 2)) == "t^2+t+1"
    assert format_modulus(GF(2, 3)) == "t^3+t^2+1"
    assert format_modulus(GF(3, 2)) == "t^2+1"
    assert format_modulus(GF(3, 3)) == "t^3+2*t^2+1"
    assert format_modulus(GF(5, 2)) == "t^2+t+1"
    assert format_modulus(GF(5, 3)) == "t^3+t^2+1"
    assert format_modulus(GF(7, 2)) == "t^2+1"


# the default modulus of every (p, n) that the tests, the CI steps and the
# benchmark build; the search order is part of every report, so these stay
DEFAULT_MODULI = {
    (2, 2): "t^2+t+1", (2, 3): "t^3+t^2+1", (2, 8): "t^8+t^7+t^5+t^4+1",
    (3, 2): "t^2+1", (3, 3): "t^3+2*t^2+1", (3, 7): "t^7+2*t^6+t^5+1", (3, 8): "t^8+t^6+t^5+1",
    (5, 2): "t^2+t+1", (5, 3): "t^3+t^2+1", (5, 5): "t^5+4*t^4+1", (5, 6): "t^6+t^5+t^4+1",
    (5, 8): "t^8+t^6+t^5+1", (7, 2): "t^2+1", (13, 8): "t^8+t^7+2*t^6+1",
    (67, 2): "t^2+1", (67, 3): "t^3+5*t^2+1", (4093, 2): "t^2+3*t+1",
}


def test_default_moduli_pinned():
    for (p, n), text in DEFAULT_MODULI.items():
        assert format_modulus(GF(p, n)) == text, (p, n)
    for p in (2, 3, 5, 7, 13, 67, 4093):
        assert format_modulus(GF(p)) == "t"


def _smallest_by_trial_division(p, n):
    for low_first in itertools.product(range(p), repeat=n):
        if is_irreducible_by_trial_division(list(low_first) + [1], p):
            return tuple(low_first) + (1,)


@pytest.mark.parametrize("p, top", [(2, 6), (3, 6), (5, 4), (7, 4)])
def test_rabin_test_matches_trial_division(p, top):
    """Every monic polynomial of degree 1 .. top over GF(p), and the first
    irreducible one of each degree in the search order."""
    for n in range(1, top + 1):
        for low_first in itertools.product(range(p), repeat=n):
            coeffs = list(low_first) + [1]
            assert _is_irreducible(coeffs, p) == is_irreducible_by_trial_division(coeffs, p), coeffs
        assert GF(p, n).modulus == _smallest_by_trial_division(p, n), (p, n)
    assert not _is_irreducible([1, 0, 2], p)  # not monic
    assert not _is_irreducible([1], p)  # a constant


def test_field_order_bounded():
    assert GF(2, 8).q == 256
    assert GF(233, 8).q == 233**8 < 2**63  # the largest prime with p^8 < 2^63
    for p, n in ((239, 8), (4093, 8), (4093, 6)):
        assert p**n > 2**63
        with pytest.raises(ValueError, match=f"field order {p}\\^{n} exceeds"):
            GF(p, n)


def test_gf4_generator_square():
    k = GF(2, 2)
    t = k.from_coeffs([0, 1])
    # t^2 = t + 1 in GF(4) with modulus t^2+t+1
    assert t * t == t + k.one()


def test_gf9_inverse_of_t():
    k = GF(3, 2)
    t = k.from_coeffs([0, 1])
    # t^2 = -1 with modulus t^2+1, so t * 2t = 2*t^2 = -2 = 1
    assert t.inverse() == k.parse("2*t")
    assert t * t.inverse() == 1


def test_gf9_t_plus_one_is_primitive():
    k = GF(3, 2)
    z = k.parse("t+1")
    powers = []
    e = k.one()
    for _ in range(8):
        e = e * z
        powers.append(e)
    assert powers[-1] == 1
    assert len(set(str(x) for x in powers)) == 8
    assert str(z * z) == "2*t"


@pytest.mark.parametrize(
    "p,n",
    [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (5, 3)],
)
def test_pm1_power_subgroup_membership(p, n):
    # is_pm1_power must agree with the exhaustive image of u -> u^(p-1)
    k = GF(p, n)
    units = [k.element_from_code(c) for c in range(1, k.q)]
    subgroup = set()
    for u in units:
        acc = k.one()
        for _ in range(p - 1):
            acc = acc * u
        subgroup.add(str(acc))
    for u in units:
        assert is_pm1_power(u) == (str(u) in subgroup)
    assert len(subgroup) == (k.q - 1) // (p - 1)
    with pytest.raises(DomainError):
        is_pm1_power(k.element(0))


def test_pm1_sets_frozen():
    k9 = GF(3, 2)
    units = map(k9.element_from_code, range(1, k9.q))
    assert sorted(str(u) for u in units if is_pm1_power(u)) == ["1", "2", "2*t", "t"]
    k25 = GF(5, 2)
    got = sorted(str(u) for u in map(k25.element_from_code, range(1, k25.q)) if is_pm1_power(u))
    assert got == ["1", "4", "4*t", "4*t+4", "t", "t+1"]


def test_inverse_by_brute_force_gf27():
    k = GF(3, 3)
    units = [k.element_from_code(c) for c in range(1, k.q)]
    for u in units:
        found = [v for v in units if u * v == 1]
        assert len(found) == 1
        assert u.inverse() == found[0]


def test_code_roundtrip_gf27():
    k = GF(3, 3)
    seen = set()
    for e in map(k.element_from_code, range(k.q)):
        c = k.code_of(e)
        assert 0 <= c < 27
        assert k.element_from_code(c) == e
        seen.add(c)
    assert len(seen) == 27


def test_literal_roundtrip():
    k = GF(5, 2)
    for text in ("0", "1", "t", "2*t+3", "4*t+4"):
        e = parse_field_literal(k, text)
        assert parse_field_literal(k, format_field_literal(e)) == e


def test_parse_polynomial_literal():
    assert parse_polynomial_literal("t^2+2*t+1", 3) == [1, 2, 1]
    assert parse_polynomial_literal("t^3+t^2+1", 5) == [1, 0, 1, 1]
    # consecutive signs multiply, the sign rule of kG literals
    assert parse_polynomial_literal("t+-1", 3) == [2, 1]
    assert parse_polynomial_literal("t--1", 3) == [1, 1]
    assert parse_polynomial_literal("-t^2 - -t", 5) == [0, 1, 4]


def test_modulus_degree_is_bounded_before_allocation():
    assert parse_polynomial_literal("t^8+1", 2) == [1] + [0] * 7 + [1]
    # huge degrees run in a child process with a memory cap (test_pipeline_cli)
    for text in ("t^9+1", "t^1000+1", "1+t^1000"):
        with pytest.raises(ValueError, match="exceeds 8"):
            parse_polynomial_literal(text, 2)
        with pytest.raises(ValueError, match="exceeds 8"):
            GF(2, 2, text)


@pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (3, 2), (2, 3), (5, 2)])
def test_element_literal_powers_are_reduced(p, n):
    k = GF(p, n)
    # t^d by square-and-multiply equals the dense polynomial reduced mod the modulus
    for d in range(3 * k.q):
        assert parse_field_literal(k, f"2*t^{d}+1") == k.from_coeffs([0] * d + [2]) + 1
    # x^q = x for every x in GF(q), so an exponent 5 mod (q - 1) gives t^5
    huge = 10**11 * (k.q - 1) + 5
    assert parse_field_literal(k, f"t^{huge}") == k.from_coeffs([0, 1]) ** 5


def test_division_by_zero_raises():
    k = GF(3, 2)
    with pytest.raises(ZeroDivisionError):
        k.element(0).inverse()
    with pytest.raises(ZeroDivisionError):
        k.one() / k.element(0)


def test_field_mismatch_raises():
    with pytest.raises(FieldMismatch):
        GF(3, 2).one() + GF(3).one()
    with pytest.raises(FieldMismatch):
        GF(3, 2).from_coeffs([0, 1]) * GF(3, 2, "t^2+t+2").from_coeffs([0, 1])


def test_bad_constructions_rejected():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(3, 9)
    with pytest.raises(ValueError):
        GF(3, 2, "t^2+2")  # (t-1)(t+1), reducible
    with pytest.raises(ValueError):
        GF(3, 2, "2*t^2+1")  # not monic


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_gf9_ring_axioms(a, b, c):
    k = GF(3, 2)
    x, y, z = (k.element_from_code(v) for v in (a, b, c))
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x


@settings(max_examples=60)
@given(st.integers(0, 24))
def test_gf25_frobenius_is_additive(code):
    k = GF(5, 2)
    x = k.element_from_code(code)
    y = k.element_from_code((code * 7 + 3) % 25)
    frob = lambda e: e**5
    assert frob(x + y) == frob(x) + frob(y)
    assert frob(x * y) == frob(x) * frob(y)


@given(st.integers(1, 26))
def test_gf27_inverse_roundtrip(code):
    k = GF(3, 3)
    x = k.element_from_code(code)
    assert x * x.inverse() == 1
    assert x.inverse().inverse() == x
