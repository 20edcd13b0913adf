"""The bottom-up Cayley table and its certificate, against brute-force oracles.

PcGroup builds its table over G_k = <g_k, ..., g_m> with gathers and
certifies it with Light's associativity test on the generators, a check
that the generators reach every element, and the defining relations.
The oracles here are the table by collection (the build it replaced) and
the certificate it replaced: the all-triples associativity loop and the
relations evaluated one multiplication at a time.  They are run on the
catalog, on the large inline and benchmark presentations, on seeded
random presentations, consistent or not, and on random loops.  Words are
multiplied out in the table too; parse_word is compared with collection
of seeded random words on the same groups.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socle_verify import InconsistentPresentation, PcGroup, PresentationError, catalog, catalog_names
from socle_verify import pgroup
from socle_verify.groupalgebra import radical_filtration, radical_filtration_by_products
from oracle_helpers import (
    cayley_table_by_collection,
    certificate_by_triples,
    element_by_collection,
    normal_form_index,
    random_loop,
    random_presentation,
)
from test_large_order import PRESENTATIONS, large_group

BENCH_PRESENTATIONS = Path(__file__).resolve().parents[1] / "perfbench" / "presentations"


def _collected(group):
    return cayley_table_by_collection(group.p, group.m, group.power_words, group.comm_words)


def test_table_matches_collection_on_every_catalog_group(group):
    for name in catalog_names():
        g = group(name)
        assert np.array_equal(g.cayley_table, _collected(g)), name


@pytest.mark.parametrize("name", list(PRESENTATIONS))
def test_table_matches_collection_on_large_presentations(name):
    g = large_group(name)
    assert np.array_equal(g.cayley_table, _collected(g))


@pytest.mark.parametrize("path", sorted(BENCH_PRESENTATIONS.glob("*.pc")), ids=lambda p: p.stem)
def test_table_matches_collection_on_benchmark_presentations(path):
    g = PcGroup.from_presentation_text(path.read_text(), name=path.stem)
    assert g.order in (81, 128)
    assert np.array_equal(g.cayley_table, _collected(g))


def test_pgroup_has_no_collector():
    """Construction and words read the certified table; collection is a test
    oracle only, so socle_verify.pgroup defines no collector."""
    assert not [name for name in (*vars(pgroup), *vars(PcGroup)) if "collect" in name.lower()]
    groups = [catalog(name) for name in catalog_names()]
    groups += [PcGroup.from_presentation_text(text) for text in PRESENTATIONS.values()]
    groups += [PcGroup.from_presentation_text(path.read_text()) for path in BENCH_PRESENTATIONS.glob("*.pc")]
    for g in groups:
        units = np.eye(g.m, dtype=np.int64)
        assert [g.parse_word(f"g{i}") for i in range(1, g.m + 1)] == [normal_form_index(g, e) for e in units]


def _assert_words_match_collection(g, rng, long_tokens):
    """parse_word against the collection oracle on seeded words: 30 short
    ones with exponents up to 3|G|, a power of 10^40 + 3 and one word of
    long_tokens tokens.  The long word keeps its exponents below 2p, which
    keeps the collector's expansions small."""
    words = [[(rng.randint(1, g.m), rng.randrange(3 * g.order)) for _ in range(rng.randrange(13))]
             for _ in range(30)]
    words.append([(g.m, g.order), (1, 10**40 + 3), (g.m, 1)])
    words.append([(rng.randint(1, g.m), rng.randrange(2 * g.p)) for _ in range(long_tokens)])
    for word in words:
        text = " ".join(f"g{i}^{e}" for i, e in word) or "1"
        assert g.parse_word(text) == element_by_collection(g, word), (g, text[:80])


def test_parse_word_matches_collection():
    rng = random.Random(22)
    groups = [catalog(name) for name in catalog_names()]
    groups += [large_group(name) for name in PRESENTATIONS]
    groups += [PcGroup.from_presentation_text(path.read_text()) for path in sorted(BENCH_PRESENTATIONS.glob("*.pc"))]
    for g in groups:
        _assert_words_match_collection(g, rng, 10_000)


def test_parse_word_matches_collection_on_random_presentations():
    rng = random.Random(23)
    consistent = 0
    for seed in range(100):
        p, m, power_words, comm_words = random_presentation(random.Random(seed))
        try:
            g = PcGroup(p, m, dict(enumerate(power_words, start=1)), comm_words)
        except InconsistentPresentation:
            continue
        _assert_words_match_collection(g, rng, 1_000)
        consistent += 1
    assert consistent >= 50


def test_random_presentations_agree_with_the_collection_oracle():
    verdicts = {True: 0, False: 0}
    for seed in range(100):
        p, m, power_words, comm_words = random_presentation(random.Random(seed))
        try:
            g = PcGroup(p, m, dict(enumerate(power_words, start=1)), comm_words)
        except InconsistentPresentation:
            g = None
        table = cayley_table_by_collection(p, m, power_words, comm_words)
        accepted = certificate_by_triples(table, p, m, power_words, comm_words)
        assert (g is not None) == accepted, seed
        verdicts[accepted] += 1
        if g is None:
            continue
        assert np.array_equal(g.cayley_table, table), seed
        # the products oracle takes about 6 s at order 243 (0.5 s at 125), so
        # there only the tables and verdicts are compared
        if g.order <= 125:
            bases = radical_filtration_by_products(g)[0]
            dims = [bases[r].shape[0] - bases[r + 1].shape[0] for r in range(len(bases) - 1)]
            assert radical_filtration(g).gr_dims == dims, seed
    assert verdicts[True] >= 50 and verdicts[False] >= 15, verdicts


def _relabelled(table, rng):
    """The table of an isomorphic copy, under a random relabelling fixing 0."""
    sigma = np.concatenate([[0], 1 + np.array(rng.sample(range(len(table) - 1), len(table) - 1))])
    out = np.empty_like(table)
    out[np.ix_(sigma, sigma)] = sigma[table]
    return out


def _switched(table, rng):
    """A loop that agrees with the table except on one switched intercalate.

    Intercalates (2x2 subsquares a b / b a) away from row and column 0 exist
    in the tables of elementary abelian 2-groups, where the search always
    succeeds; the switched loop is associative on most triples.
    """
    n = len(table)
    while True:
        r1, r2, c1 = rng.sample(range(1, n), 2) + [rng.randrange(1, n)]
        a, b = table[r1, c1], table[r2, c1]
        c2 = int(np.nonzero(table[r1] == b)[0][0])
        if c2 != 0 and table[r2, c2] == a:
            out = table.copy()
            out[r1, c1], out[r2, c2], out[r1, c2], out[r2, c1] = b, b, a, a
            return out


@pytest.mark.parametrize(
    "text, others",
    [
        ("pcgroup p=2 m=3\n", ("C8", "C4xC2", "D8", "Q8")),
        ("pcgroup p=2 m=3\ng2^2 = g3\n[g2,g1] = g3\n", ("C2xC2xC2", "C8", "Q8")),
        ("pcgroup p=3 m=2\n", ("C9",)),
    ],
    ids=["C2^3", "D8", "C3^2"],
)
def test_certificate_on_random_loops_matches_the_triples_oracle(text, others):
    g = PcGroup.from_presentation_text(text)
    own = g.cayley_table
    rng = random.Random(text)
    loops = [random_loop(rng, g.order) for _ in range(20)]
    tables = [own] + [catalog(name).cayley_table for name in others]
    loops += [_relabelled(tables[i % len(tables)], rng) for i in range(40)]
    if g.p == 2:
        elementary = catalog("C2xC2xC2").cayley_table
        loops += [_switched(elementary, rng) for _ in range(20)]
    verdicts = {True: 0, False: 0}
    for i, loop in enumerate(loops):
        try:
            g._certify(loop)
            accepted = True
        except InconsistentPresentation:
            accepted = False
        assert accepted == certificate_by_triples(loop, g.p, g.m, g.power_words, g.comm_words), i
        verdicts[accepted] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0, verdicts


_NUMBER = st.one_of(st.integers(0, 12), st.integers(0, 10**40)).map(str)
_WORD = st.lists(st.tuples(_NUMBER, st.one_of(st.none(), _NUMBER)), max_size=4).map(
    lambda pairs: " ".join(f"g{i}" if e is None else f"g{i}^{e}" for i, e in pairs) or "1"
)
_LINE = st.one_of(
    st.builds("pcgroup p={} m={}".format, _NUMBER, _NUMBER),
    st.builds("g{}^{} = {}".format, _NUMBER, _NUMBER, _WORD),
    st.builds("[g{},g{}] = {}".format, _NUMBER, _NUMBER, _WORD),
    st.text(max_size=20),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(_LINE, max_size=8).map("\n".join),
    st.builds("pcgroup p={} m={}\n{}".format, st.sampled_from(["2", "3", "5"]),
              st.integers(1, 5).map(str), st.lists(_LINE, max_size=6).map("\n".join)),
))
def test_presentation_text_fuzz_raises_only_presentation_errors(text):
    try:
        g = PcGroup.from_presentation_text(text)
    except (PresentationError, InconsistentPresentation):
        return
    assert g.order <= pgroup.MAX_ORDER


def test_presentation_text_is_bounded():
    text = "pcgroup p=2 m=1\n" + "#" * pgroup.MAX_PRESENTATION_BYTES
    with pytest.raises(PresentationError, match="exceeds"):
        PcGroup.from_presentation_text(text)


@pytest.mark.parametrize("p, m", [(2305843009213693951, 1), (2, 300000000), (2**61 - 1, 10**9)])
def test_huge_p_and_m_are_rejected_before_any_arithmetic(p, m):
    with pytest.raises(PresentationError, match="exceeds supported maximum 512"):
        PcGroup(p, m)
