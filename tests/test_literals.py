"""The literal and spec parsers, fuzzed in process.

kG literals are written by GroupAlgebra.format and read back by
GroupAlgebra.parse, field literals by str() and FieldSpec.parse.  Random
strings over the characters of both grammars must end in a value or in
a ValueError or KeyError, never in another exception.  group-auto: specs
with random image words on non-abelian groups must end in a typed
relation or bijectivity error, or in the automorphism the collection
oracle gives, whose provenance reads back to the same map.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socle_verify import GF, FieldSpec, GroupAlgebra, NotBijective, PcGroup, RelationViolation
from socle_verify.automorphisms import parse_automorphism_specs
from conftest import shared_algebra, shared_group
from oracle_helpers import automorphism_perm_by_normal_forms, element_by_collection

# D8 over GF(2) and GF(4), C3xC3 and Heis27 over GF(9) modulo t^2 + 1, where
# t is not a primitive element, and C7xC7 over GF(49), the smallest 7-group
# with a GF(49) algebra of more than one generator
FIELDS = {"GF(2)": GF(2), "GF(4)": GF(2, 2), "GF(9)": FieldSpec(3, 2, "t^2+1"), "GF(49)": GF(7, 2)}
CASES = (("D8", "GF(2)"), ("D8", "GF(4)"), ("C3xC3", "GF(9)"), ("Heis27", "GF(9)"), ("C7xC7", "GF(49)"))
_C7XC7 = PcGroup.from_presentation_text("pcgroup p=7 m=2\n", name="C7xC7")
ALGEBRAS = [GroupAlgebra(_C7XC7 if name == "C7xC7" else shared_group(name), FIELDS[field])
            for name, field in CASES]

# the characters of field literals, kG literals, words and the spec kinds
# without an option name, so no random-* count above its default of 1 is drawn
ALPHABET = "0123456789gtx+-*^() ,;:>"
SPEC_HEADS = ("", "inner:", "subst:", "group-auto:", "compose:", "random-inner", "random-subst")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_format_then_parse_gives_back_the_codes(data):
    alg = data.draw(st.sampled_from(ALGEBRAS))
    codes = np.array(data.draw(st.lists(st.integers(0, alg.field.q - 1), min_size=alg.dimension,
                                        max_size=alg.dimension)), dtype=np.int64)
    text = alg.format(codes)
    assert np.array_equal(alg.parse(text), codes), text


@pytest.mark.parametrize("field", list(FIELDS))
def test_every_field_code_reads_back_from_its_literal(field):
    spec = FIELDS[field]
    for code in range(spec.q):
        assert spec.code_of(spec.parse(str(spec.element_from_code(code)))) == code


@settings(max_examples=400, deadline=None, derandomize=True)
@given(alg=st.sampled_from(ALGEBRAS), head=st.sampled_from(SPEC_HEADS), text=st.text(ALPHABET, max_size=40))
def test_random_strings_end_in_a_value_or_a_value_error(alg, head, text):
    for parse, literal in ((alg.parse, text), (alg.field.parse, text),
                           (functools.partial(parse_automorphism_specs, alg), head + text)):
        with contextlib.suppress(ValueError, KeyError):
            parse(literal)


# the non-abelian catalog groups of order 8 to 125, where random images
# often break a commutator relation
GROUP_AUTO_GROUPS = ("D8", "Q8", "D16", "M16", "Heis27", "ES27", "Heis125")


@st.composite
def group_auto_words(draw):
    """(group name, {i: word pairs}, stored): the images of a random subset
    of the generators as words with exponents up to 10^6, or, when stored,
    the normal-form words of a stored automorphism's images with letters
    g_j^(k |G|) = 1 inserted anywhere."""
    name = draw(st.sampled_from(GROUP_AUTO_GROUPS))
    g = shared_group(name)
    letter = st.tuples(st.integers(1, g.m), st.integers(0, 10**6))
    if not draw(st.booleans()):
        return name, draw(st.dictionaries(st.integers(1, g.m), st.lists(letter, max_size=4), max_size=g.m)), False
    images = draw(st.sampled_from(g.stored_automorphisms())).images
    words = {}
    for i, image in enumerate(images, start=1):
        word = [(j, e) for j, e in enumerate(g.exponents[image].tolist(), start=1) if e]
        for _ in range(draw(st.integers(0, 3))):
            identity = (draw(st.integers(1, g.m)), g.order * draw(st.integers(0, 10**6 // g.order)))
            word.insert(draw(st.integers(0, len(word))), identity)
        words[i] = word
    return name, words, True


@settings(max_examples=150, deadline=None, derandomize=True)
@given(drawn=group_auto_words())
def test_group_auto_words_give_the_collected_automorphism_or_a_typed_error(drawn):
    name, words, stored = drawn
    alg = shared_algebra(name)
    g = alg.group
    spec = "group-auto: " + ", ".join(
        f"g{i} -> " + (" ".join(f"g{j}^{e}" for j, e in word) or "1") for i, word in words.items())
    try:
        (auto,) = parse_automorphism_specs(alg, spec)
    except (RelationViolation, NotBijective):
        assert not stored, spec
        return
    # the matrix of a group automorphism is the permutation matrix of its perm
    perm = auto.matrix.argmax(axis=0)
    images = [element_by_collection(g, words.get(i, [(i, 1)])) for i in range(1, g.m + 1)]
    assert perm.tolist() == automorphism_perm_by_normal_forms(g, images), spec
    (again,) = parse_automorphism_specs(alg, auto.provenance)
    assert again.provenance == auto.provenance
    assert np.array_equal(again.matrix, auto.matrix), auto.provenance
