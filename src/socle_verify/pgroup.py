"""Finite p-groups presented by power-commutator relations.

A group of order p^m has generators g1..gm and relations

    gi^p    = <word in g_(i+1)..gm>
    [gj,gi] = <word in g_(j+1)..gm>      for j > i, [x,y] = x^-1 y^-1 x y

where every element has a unique normal form g1^e1 ... gm^em with
0 <= ei < p.  An element is its table index x = sum_i ei p^(m-i), and a
subgroup, such as a term of the Jennings series, the sorted tuple of its
indices; there is no element or subgroup class.  Row x of
PcGroup.exponents is the normal form of x, parse_word and word_str read
and write words, and products, inverses, commutators and powers are
lookups and gathers in cayley_table and inverse_table.  Construction materializes the full Cayley table bottom-up
over G_k = <g_k, ..., g_m>, whose elements are the first p^(m-k+1)
indices: conjugation by g_k maps g_i to g_i [g_i, g_k] and extends along
normal forms with the table of G_(k+1); the column of g_k is
g_k^e v g_k = g_k^(e+1) v^(g_k), through the power word at e = p - 1;
and a (g_k^f v) = (a g_k^f) v fills the rest with gathers.  It then
certifies the table: identity, cancellation, Light's associativity test
on the generators, the generators reaching every element, and the
defining relations re-checked against the table.  The elements a with
(xa)y = x(ay) for all x, y are closed under products, so a table that
passes is associative: a group of order p^m whose generators satisfy
the relations, which by von Dyck's theorem is the presented group.
Inconsistent presentations are therefore rejected outright.  The
relations are listed once, in PcGroup.relations, and every check of them
evaluates both sides with _word_value: the certificate on the
generators and group_automorphism on generator images, multiplied out
in the table, and AlgebraAutomorphism.substitutions on images in kG,
multiplied out by kG products.  That certificate is what makes the table
safe to use as the multiplication backend everywhere else in the
package, words included: stored automorphisms and spec images are
multiplied out in the table, each power by square-and-multiply.  No
collection runs anywhere in the package.
"""

from __future__ import annotations

import functools
import re
from typing import Iterable, Sequence

import numpy as np

from .ffield import is_prime

__all__ = [
    "PcGroup",
    "GroupAutomorphism",
    "PresentationError",
    "InconsistentPresentation",
    "RelationViolation",
    "NotBijective",
    "UnknownGroup",
    "catalog",
    "catalog_names",
    "catalog_description",
]

MAX_ORDER = 512
# a presentation of order MAX_ORDER, with every relation written out, takes
# under 1 KiB; the bound leaves room for comments
MAX_PRESENTATION_BYTES = 64 * 1024

Word = tuple[tuple[int, int], ...]


class PresentationError(ValueError):
    """Structurally malformed power-commutator presentation."""


class InconsistentPresentation(ValueError):
    """Presentation whose Cayley table fails the group certificate."""


class RelationViolation(ValueError):
    """Generator images do not satisfy a defining relation."""


class NotBijective(ValueError):
    """Generator images induce a non-bijective endomorphism."""


class UnknownGroup(KeyError):
    """A group name, or a list of names, that names no catalog group."""

    def __str__(self) -> str:
        return str(self.args[0])  # KeyError's own str quotes the message


def associative_on_all_triples(table: np.ndarray) -> bool:
    """(ab)c = a(bc) on every triple of a table: one full-table gather per a.

    The brute-force oracle for the certificate's Light test, O(|G|^3);
    `run --full-check` reports it as group_associativity_oracle.
    """
    return all(np.array_equal(table[table[a]], np.take(table[a], table)) for a in range(table.shape[0]))


@functools.cache
def _normal_form_blocks(p: int, m: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """PcGroup.generator_blocks() for order p^m, as read-only arrays."""
    blocks = []
    for k in range(m):
        stride = p ** (m - k - 1)
        prefix = np.arange(p**k, dtype=np.int64) * (stride * p)
        cols = prefix[None, :] + np.arange(1, p, dtype=np.int64)[:, None] * stride
        prefix.flags.writeable = cols.flags.writeable = False
        blocks.append((prefix, cols))
    return tuple(blocks)


class PcGroup:
    """A finite p-group with a certified Cayley-table multiplication backend."""

    def __init__(
        self,
        p: int,
        m: int,
        power_words: dict[int, Word] | None = None,
        comm_words: dict[tuple[int, int], Word] | None = None,
        name: str | None = None,
        stored_auto_words: Sequence[Sequence[str]] | None = None,
    ):
        # bound p and m before any arithmetic on them: testing a huge p for
        # primality, or forming p^m for a huge m, would not end
        if m < 1:
            raise PresentationError("need at least one generator")
        if p > MAX_ORDER or m > MAX_ORDER.bit_length() or p**m > MAX_ORDER:
            raise PresentationError(f"order p^m with p={p}, m={m} exceeds supported maximum {MAX_ORDER}")
        if not is_prime(p):
            raise PresentationError(f"p must be prime, got {p}")
        self.p = p
        self.m = m
        self.name = name
        self._stored_auto_words = [list(ws) for ws in stored_auto_words] if stored_auto_words else []

        powers = dict(power_words or {})
        comms = dict(comm_words or {})
        self.power_words: tuple[Word, ...] = tuple(
            self._check_word(powers.get(i, ()), min_index=i, what=f"g{i}^{p}") for i in range(1, m + 1)
        )
        self.comm_words: dict[tuple[int, int], Word] = {}
        for (j, i), word in sorted(comms.items()):
            if not (1 <= i < j <= m):
                raise PresentationError(f"commutator relation indices ({j},{i}) out of range")
            word = self._check_word(word, min_index=j, what=f"[g{j},g{i}]")
            if word:
                self.comm_words[(j, i)] = word
        # the defining relations as (name, lhs, rhs) word pairs: the m power
        # relations g_i^p = w_i first, then g_j g_i = g_i g_j w_ji for j > i,
        # which is [g_j, g_i] = w_ji
        self.relations: tuple[tuple[str, Word, Word], ...] = tuple(
            [(f"power relation of g{i}", ((i, p),), w) for i, w in enumerate(self.power_words, start=1)]
            + [(f"commutator relation [g{j},g{i}]", ((j, 1), (i, 1)), ((i, 1), (j, 1)) + self.comm_words.get((j, i), ()))
               for j in range(2, m + 1) for i in range(1, j)])

        # row x is the normal form (e_1, ..., e_m) of index x = sum_i e_i p^(m-i)
        self.exponents = np.indices((p,) * m).reshape(m, -1).T
        self.exponents.flags.writeable = False
        self._blocks = _normal_form_blocks(p, m)
        self._certify(self._build_table())
        # built on first use by groupalgebra.radical_filtration and
        # stored_automorphisms, and kept here so they die with the group
        self._radical_filtration = None
        self._stored_automorphisms: tuple[GroupAutomorphism, ...] | None = None

    # -- construction ---------------------------------------------------------

    def _check_word(self, word: Iterable[tuple[int, int]], min_index: int, what: str) -> Word:
        out = []
        last = min_index
        for idx, exp in word:
            if not (min_index < idx <= self.m):
                raise PresentationError(
                    f"relation {what} may only mention generators above index {min_index}, got g{idx}"
                )
            if idx <= last and out:
                raise PresentationError(f"relation {what} right side is not in normal form")
            if not 1 <= exp < self.p:
                raise PresentationError(f"relation {what} has exponent {exp} outside 1..{self.p - 1}")
            last = idx
            out.append((idx, exp))
        return tuple(out)

    def _word_index(self, word: Word) -> int:
        """Table index of a relation's right side, which is a normal form."""
        return sum(e * self.p ** (self.m - i) for i, e in word)

    def _build_table(self) -> np.ndarray:
        """The Cayley table, built bottom-up over G_k = <g_k, ..., g_m>.

        G_k is the first p^(m-k+1) indices, so its table is the top-left
        block of G_(k-1)'s.  From the table t of G_(k+1), of order n:

        - conjugation by g_k maps g_i to g_i w_ik, w_ik the commutator word
          of [g_i, g_k] (a normal form already), and extends to G_(k+1)
          along its normal-form blocks;
        - the column of g_k holds g_k^e v g_k = g_k^(e+1) v^(g_k), which at
          e = p - 1 is w_k v^(g_k), w_k the power word of g_k;
        - g_k^e v g = g_k^e (v g) for g in G_(k+1), and
          a (g_k^f v) = (a g_k^f) v fills the columns of g_k^f G_(k+1).

        No collection runs; an inconsistent presentation still yields a
        table of in-range indices, which _certify rejects.
        """
        p, m = self.p, self.m
        t = np.zeros((1, 1), dtype=np.int64)  # the table of G_(m+1) = 1
        for k in range(m, 0, -1):
            n = t.shape[0]
            conj = np.zeros(n, dtype=np.int64)  # conj[v] = v^(g_k) = g_k^-1 v g_k
            if n > 1:
                images = np.array([p ** (m - i) + self._word_index(self.comm_words.get((i, k), ()))
                                   for i in range(k + 1, m + 1)], dtype=np.int64)
                pw = _consecutive_powers(t, images, p)  # pw[j, e - 1] = (g_(k+1+j)^(g_k))^e
                for j, (prefix, cols) in enumerate(_normal_form_blocks(p, m - k)):
                    conj[cols] = t[conj[prefix], pw[j][:, None]]
            column = np.concatenate([(np.arange(1, p)[:, None] * n + conj).ravel(),
                                     t[self._word_index(self.power_words[k - 1]), conj]])
            grown = np.empty((p * n, p * n), dtype=np.int64)
            grown[:, :n] = (np.arange(p)[:, None, None] * n + t).reshape(p * n, n)
            for f in range(1, p):
                grown[:, f * n : (f + 1) * n] = grown[column, (f - 1) * n : f * n]
            t = grown
        return t

    def generator_blocks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Normal forms grouped by their last generator, one block per generator.

        Entry k holds (prefix, cols) for g_(k+1): prefix lists the indices
        of the normal forms g_1^(e_1) ... g_k^(e_k) in ascending order, and
        cols[e - 1] the indices of x g_(k+1)^e for x in prefix,
        1 <= e < p, which is x + e p^(m-k-1).  Every nonidentity element is
        in exactly one cols, and every prefix is the identity or lies in an
        earlier block, so a map extended along normal forms block by block
        is always known on prefix.
        """
        return self._blocks

    def _certify(self, t: np.ndarray) -> None:
        """Certify t as the multiplication of the presented group and install it.

        Checks the identity, cancellation, Light's associativity test
        (xa)y = x(ay) for each generator a, that right multiplication by
        the generators reaches every index, and the defining relations.
        The a that pass Light's test are closed under products, so once
        the generators pass and generate, t is associative: a group of
        order p^m whose generators satisfy the relations, which by von
        Dyck's theorem is the presented group.
        """
        n = t.shape[0]
        ar = np.arange(n)
        if not (np.array_equal(t[0], ar) and np.array_equal(t[:, 0], ar)):
            raise InconsistentPresentation("identity does not act trivially")
        c = t.astype(np.int16)  # n <= MAX_ORDER; a quarter of the memory traffic
        if not ((np.sort(c, axis=1) == ar).all() and (np.sort(c, axis=0) == ar[:, None]).all()):
            raise InconsistentPresentation("multiplication table is not cancellative")
        # the table index of g_i is p^(m-i)
        self.generator_indices = [self.p ** (self.m - i) for i in range(1, self.m + 1)]
        gens = self.generator_indices
        for a in gens:
            if not (c[c[:, a]] == c[:, c[a]]).all():
                raise InconsistentPresentation("multiplication table is not associative")
        self._cayley = t
        if len(self._closure_indices(gens)) != n:
            raise InconsistentPresentation("generators do not generate the table")
        self._inv = np.argmin(t, axis=1).astype(np.int64)  # t[a, inv(a)] == 0
        # defining relations must hold in the certified table
        broken = self._broken_relation(gens)
        if broken:
            raise InconsistentPresentation(f"{broken} fails in the table")

    def _broken_relation(self, images: Sequence[int]) -> str | None:
        """The name of the first relation the images break, or None.

        images[i] is the table index of the image of g_(i+1); both sides of
        every relation are multiplied out in the table by _word_value.
        """
        value = functools.partial(_word_value, images=images, product=self._cayley.item, one=0)
        return next((name for name, lhs, rhs in self.relations if value(lhs) != value(rhs)), None)

    def _commutators(self, a, b) -> np.ndarray:
        """[a, b] = a^-1 b^-1 a b on index arrays, broadcast against each other."""
        t, inv = self._cayley, self._inv
        return t[t[t[inv[a], inv[b]], a], b]

    def _generators_among(self, seeds: np.ndarray | Sequence[int]) -> np.ndarray:
        """The distinct nonidentity indices among seeds, sorted: a mask over
        the index range with the seeds set and the identity cleared."""
        mask = np.zeros(self.order, dtype=bool)
        mask[np.asarray(seeds, dtype=np.int64)] = True
        mask[0] = False
        return np.flatnonzero(mask)

    # -- basic structure --------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.exponents)

    @property
    def cayley_table(self) -> np.ndarray:
        return self._cayley

    @property
    def inverse_table(self) -> np.ndarray:
        return self._inv

    def commutator(self, a: int, b: int) -> int:
        """[a, b] = a^-1 b^-1 a b."""
        return int(self._commutators(a, b))

    def power(self, a: int, k: int) -> int:
        # every element order divides |G|, which also covers k < 0
        return int(_word_value(((1, k % self.order),), [a], self._cayley.item, 0))

    def is_elementary_abelian(self) -> bool:
        return not self.comm_words and all(not w for w in self.power_words)

    # -- subgroup machinery -------------------------------------------------------

    def _closure_indices(self, seeds: np.ndarray | Sequence[int]) -> list[int]:
        """The sorted indices of the subgroup generated by seeds, by
        breadth-first products with the generators: each step's products are
        set in a fresh index mask, and the next frontier is the part of it
        not yet seen.  Masks keep this off np.unique, whose numpy >= 2.3
        form imports numpy.ma on its first call."""
        t = self._cayley
        seen = np.zeros(self.order, dtype=bool)
        seen[0] = True
        gens = self._generators_among(seeds)
        frontier = np.zeros(1 if gens.size else 0, dtype=np.int64)
        while frontier.size:
            reached = np.zeros(self.order, dtype=bool)
            reached[t[np.ix_(frontier, gens)]] = True
            frontier = np.flatnonzero(reached & ~seen)
            seen[frontier] = True
        return np.flatnonzero(seen).tolist()

    def jennings_series_recursive(self) -> list[tuple[int, ...]]:
        """F_1 = G, F_r = <[F_(r-1), G], x^p for x in F_ceil(r/p)>.

        Returns the indexed chain F_1, F_2, ..., each term its sorted tuple
        of table indices, including the first trivial term (0,).
        Consecutive terms may coincide; the indexing carries the degree
        information and is preserved.
        """
        every = np.arange(self.order)
        series = [tuple(every.tolist())]
        pth = _word_value(((1, self.p),), [every], lambda a, b: self._cayley[a, b], 0)
        r = 2
        while series[-1] != (0,):
            prev = np.array(series[-1], dtype=np.int64)
            ceil_idx = -(-r // self.p)  # ceil(r/p), >= 1
            comms = self._commutators(prev[:, None], every)
            powers = pth[list(series[ceil_idx - 1])]
            series.append(tuple(self._closure_indices(np.concatenate([comms.ravel(), powers]))))
            r += 1
        return series

    def jennings_lifts(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        """The recursive series F_1, F_2, ... and lifts of each F_r/F_(r+1).

        Entry r-1 of the lift list holds the indices of elements of F_r
        whose classes form a basis of the elementary abelian quotient
        F_r/F_(r+1).  Walking F_r in index order, g is kept when it does not
        lie in H = <F_(r+1), lifts kept so far>.  The recursion puts
        [F_r, G] and the p-th powers of F_r inside F_(r+1) <= H, so a kept y
        normalizes H and <H, y> is the union of the cosets H y^e,
        0 <= e < p.
        """
        series = self.jennings_series_recursive()
        t = self._cayley
        lifts: list[tuple[int, ...]] = []
        for r in range(1, len(series)):
            inside = np.zeros(self.order, dtype=bool)
            inside[list(series[r])] = True
            kept: list[int] = []
            for idx in series[r - 1]:
                if not inside[idx]:
                    kept.append(idx)
                    coset = np.nonzero(inside)[0]
                    for _ in range(self.p - 1):
                        coset = t[coset, idx]
                        inside[coset] = True
            lifts.append(tuple(kept))
        return series, lifts

    # -- automorphisms from generator images ----------------------------------------

    def group_automorphism(self, images: Sequence[int]) -> GroupAutomorphism:
        """The automorphism g_i -> images[i - 1], for image table indices."""
        if len(images) != self.m:
            raise ValueError(f"need {self.m} generator images, got {len(images)}")
        t = self._cayley
        images = tuple(int(a) for a in images)
        broken = self._broken_relation(images)
        if broken:
            raise RelationViolation(f"images break the {broken}")

        # extend multiplicatively along normal forms (valid: relations verified)
        perm = np.zeros(self.order, dtype=np.int64)
        pw = _consecutive_powers(t, np.array(images), self.p)  # pw[k, e - 1] = a_(k+1)^e
        for k, (prefix, cols) in enumerate(self.generator_blocks()):
            perm[cols] = t[perm[prefix], pw[k][:, None]]
        counts = np.bincount(perm, minlength=self.order)
        if not np.all(counts == 1):
            raise NotBijective("generator images generate a proper subgroup")
        perm.flags.writeable = False  # stored automorphisms are shared by every caller
        return GroupAutomorphism(self, images, perm)

    def stored_automorphisms(self) -> list[GroupAutomorphism]:
        """The stored automorphisms, their relations checked once per group;
        a fresh list on each call."""
        if self._stored_automorphisms is None:
            self._stored_automorphisms = tuple(
                self.group_automorphism([self.parse_word(w) for w in words])
                for words in self._stored_auto_words
            )
        return list(self._stored_automorphisms)

    # -- words and presentations ------------------------------------------------------

    def word_str(self, x: int) -> str:
        """The normal-form word of index x, such as 'g1 g3^2'; '1' for 0."""
        parts = []
        for k, e in enumerate(self.exponents[x].tolist()):
            if e == 1:
                parts.append(f"g{k + 1}")
            elif e > 1:
                parts.append(f"g{k + 1}^{e}")
        return " ".join(parts) if parts else "1"

    def parse_word(self, text: str) -> int:
        """The index of the element a word such as 'g1 g3^2' names,
        multiplied out in the table.  Each exponent is reduced mod |G| first,
        which every element order divides, so a power takes at most
        log2 |G| squarings."""
        word = [(idx, exp % self.order) for idx, exp in parse_word_pairs(text, self.m, "g")]
        return _word_value(word, self.generator_indices, self._cayley.item, 0)

    @classmethod
    def from_presentation_text(cls, text: str, name: str | None = None) -> PcGroup:
        if len(text) > MAX_PRESENTATION_BYTES or len(text.encode()) > MAX_PRESENTATION_BYTES:
            raise PresentationError(f"presentation text exceeds {MAX_PRESENTATION_BYTES} bytes")
        header = None
        powers: dict[int, Word] = {}
        comms: dict[tuple[int, int], Word] = {}
        power_re = re.compile(r"^g(\d+)\s*\^\s*(\d+)\s*=\s*(.+)$")
        comm_re = re.compile(r"^\[\s*g(\d+)\s*,\s*g(\d+)\s*\]\s*=\s*(.+)$")
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if header is None:
                mh = re.match(r"^pcgroup\s+p=(\d+)\s+m=(\d+)$", line)
                if not mh:
                    raise PresentationError(f"expected 'pcgroup p=<p> m=<m>' header, got {line!r}")
                header = (_parse_number(mh.group(1)), _parse_number(mh.group(2)))
                continue
            p, m = header
            mp = power_re.match(line)
            if mp:
                i, e = _parse_number(mp.group(1)), _parse_number(mp.group(2))
                if not 1 <= i <= m:
                    raise PresentationError(f"power relation for g{i} out of range (m={m})")
                if e != p:
                    raise PresentationError(f"power relation for g{i} must have exponent {p}")
                if i in powers:
                    raise PresentationError(f"power relation for g{i} is given twice")
                powers[i] = tuple(_parse_relation_word(mp.group(3), m))
                continue
            mc = comm_re.match(line)
            if mc:
                j, i = _parse_number(mc.group(1)), _parse_number(mc.group(2))
                if (j, i) in comms:
                    raise PresentationError(f"commutator relation [g{j},g{i}] is given twice")
                comms[(j, i)] = tuple(_parse_relation_word(mc.group(3), m))
                continue
            raise PresentationError(f"unparseable relation line {line!r}")
        if header is None:
            raise PresentationError("empty presentation")
        return cls(header[0], header[1], powers, comms, name=name)

    def __repr__(self) -> str:
        label = self.name or "pcgroup"
        return f"PcGroup({label}, p={self.p}, order={self.order})"


def _word_value(word: Iterable[tuple[int, int]], images: Sequence, product, one):
    """The value of a word of (generator, exponent >= 0) pairs, with
    images[i - 1] in place of g_i, multiplied out by product(a, b) = a b.

    Each power is taken by square-and-multiply: the squares of one image
    commute, so each is multiplied straight into the running product, from
    the right.  The empty word is one, and a one-letter word g_i is
    images[i - 1] itself, with no product.  product is a table lookup on
    group indices (PcGroup._broken_relation, parse_word, power), a gather
    on index arrays (jennings_series_recursive), or a kG product on codes
    (AlgebraAutomorphism.substitutions, subst: monomials).
    """
    acc = None
    for idx, exp in word:
        base = images[idx - 1]
        while exp:
            if exp & 1:
                acc = base if acc is None else product(acc, base)
            exp >>= 1
            if exp:
                base = product(base, base)
    return one if acc is None else acc


def _consecutive_powers(t: np.ndarray, a: np.ndarray, p: int) -> np.ndarray:
    """a^e for e = 1 .. p-1 as the columns of a (len(a), p-1) array, for an
    index array a, by consecutive gathers in the table t."""
    pw = [a]
    for _ in range(p - 2):
        pw.append(t[pw[-1], a])
    return np.stack(pw, axis=1)


def _parse_number(digits: str) -> int:
    """A decimal number of a presentation line; every valid one is short."""
    # int() of a long digit string is quadratic, and refused past 4300 digits
    if len(digits) > 30:
        raise PresentationError(f"number {digits[:30]}... has more than 30 digits")
    return int(digits)


def _parse_relation_word(text: str, m: int) -> list[tuple[int, int]]:
    try:
        return parse_word_pairs(text, m, "g")
    except PresentationError:
        raise
    except ValueError as exc:
        raise PresentationError(str(exc)) from exc


def parse_word_pairs(text: str, m: int, letter: str) -> list[tuple[int, int]]:
    """Parse a word in letter1 .. letterm, such as 'g1 g3^2' (also
    'g1*g3^2') for letter g, into (index, exponent) pairs; '1' is empty."""
    s = text.strip()
    if s == "1" or s == "":
        return []
    pairs = []
    for token in re.split(r"[\s*]+", s):
        mt = re.fullmatch(letter + r"(\d+)(?:\^(\d+))?", token)
        if not mt:
            raise ValueError(f"bad generator token {token!r}")
        idx = int(mt.group(1))
        if not 1 <= idx <= m:
            raise ValueError(f"generator {letter}{idx} out of range (m={m})")
        pairs.append((idx, int(mt.group(2)) if mt.group(2) else 1))
    return pairs


class GroupAutomorphism:
    """A verified automorphism: the generator images' table indices and the
    induced permutation of the indices."""

    __slots__ = ("group", "images", "perm")

    def __init__(self, group: PcGroup, images: tuple[int, ...], perm: np.ndarray):
        self.group = group
        self.images = images
        self.perm = perm

    def spec_text(self) -> str:
        g = self.group
        return ", ".join(
            f"g{i + 1} -> {g.word_str(img)}" for i, img in enumerate(self.images)
        )

    def __repr__(self) -> str:
        return f"GroupAutomorphism({self.spec_text()})"


# ---------------------------------------------------------------------------
# catalog of small test groups

_CATALOG: dict[str, dict] = {
    "C2": dict(p=2, m=1, powers={}, comms={}, desc="cyclic of order 2",
               autos=[["g1"]]),
    "C4": dict(p=2, m=2, powers={1: "g2"}, comms={}, desc="cyclic of order 4",
               autos=[["g1 g2", "g2"]]),
    "C8": dict(p=2, m=3, powers={1: "g2", 2: "g3"}, comms={}, desc="cyclic of order 8",
               autos=[["g1 g2 g3", "g2 g3", "g3"], ["g1 g3", "g2", "g3"]]),
    "C3": dict(p=3, m=1, powers={}, comms={}, desc="cyclic of order 3",
               autos=[["g1^2"]]),
    "C9": dict(p=3, m=2, powers={1: "g2"}, comms={}, desc="cyclic of order 9",
               autos=[["g1^2 g2^2", "g2^2"], ["g1 g2", "g2"]]),
    "C27": dict(p=3, m=3, powers={1: "g2", 2: "g3"}, comms={}, desc="cyclic of order 27",
                autos=[["g1^2 g2^2 g3^2", "g2^2 g3^2", "g3^2"], ["g1 g3", "g2", "g3"]]),
    "C5": dict(p=5, m=1, powers={}, comms={}, desc="cyclic of order 5",
               autos=[["g1^2"], ["g1^4"]]),
    "C25": dict(p=5, m=2, powers={1: "g2"}, comms={}, desc="cyclic of order 25",
                autos=[["g1^4 g2^4", "g2^4"], ["g1 g2", "g2"]]),
    "C125": dict(p=5, m=3, powers={1: "g2", 2: "g3"}, comms={}, desc="cyclic of order 125",
                 autos=[["g1^4 g2^4 g3^4", "g2^4 g3^4", "g3^4"], ["g1 g3", "g2", "g3"]]),
    "C2xC2": dict(p=2, m=2, powers={}, comms={}, desc="elementary abelian of order 4",
                  autos=[["g2", "g1"], ["g1 g2", "g2"]]),
    "C3xC3": dict(p=3, m=2, powers={}, comms={}, desc="elementary abelian of order 9",
                  autos=[["g2", "g1"], ["g1 g2", "g2"], ["g1^2", "g2"]]),
    "C5xC5": dict(p=5, m=2, powers={}, comms={}, desc="elementary abelian of order 25",
                  autos=[["g2", "g1"], ["g1 g2", "g2"], ["g1^2", "g2"]]),
    "C2xC2xC2": dict(p=2, m=3, powers={}, comms={}, desc="elementary abelian of order 8",
                     autos=[["g2", "g3", "g1"], ["g1 g2", "g2", "g3"], ["g2", "g1", "g3"]]),
    "C3xC3xC3": dict(p=3, m=3, powers={}, comms={}, desc="elementary abelian of order 27",
                     autos=[["g2", "g3", "g1"], ["g1 g2", "g2", "g3"], ["g1^2", "g2", "g3"]]),
    "C5xC5xC5": dict(p=5, m=3, powers={}, comms={}, desc="elementary abelian of order 125",
                     autos=[["g2", "g3", "g1"], ["g1 g2", "g2", "g3"], ["g1^2", "g2", "g3"]]),
    "C4xC2": dict(p=2, m=3, powers={1: "g3"}, comms={}, desc="C4 x C2",
                  autos=[["g1 g2", "g2", "g3"], ["g1", "g2 g3", "g3"]]),
    "D8": dict(p=2, m=3, powers={2: "g3"}, comms={(2, 1): "g3"}, desc="dihedral of order 8",
               autos=[["g1 g3", "g2", "g3"], ["g1", "g2 g3", "g3"]]),
    "Q8": dict(p=2, m=3, powers={1: "g3", 2: "g3"}, comms={(2, 1): "g3"}, desc="quaternion of order 8",
               autos=[["g2", "g1 g2", "g3"], ["g2 g3", "g1", "g3"]]),
    "D16": dict(p=2, m=4, powers={2: "g3", 3: "g4"}, comms={(2, 1): "g3 g4", (3, 1): "g4"},
                desc="dihedral of order 16",
                autos=[["g1", "g2 g3", "g3 g4", "g4"], ["g1 g3", "g2", "g3", "g4"]]),
    "M16": dict(p=2, m=4, powers={2: "g3", 3: "g4"}, comms={(2, 1): "g4"},
                desc="modular (Iwasawa) group of order 16",
                autos=[["g1", "g2 g3", "g3 g4", "g4"], ["g1 g4", "g2", "g3", "g4"]]),
    "Heis27": dict(p=3, m=3, powers={}, comms={(2, 1): "g3"},
                   desc="Heisenberg group of order 27 (exponent 3)",
                   autos=[["g2", "g1", "g3^2"], ["g1 g3", "g2", "g3"]]),
    "Heis125": dict(p=5, m=3, powers={}, comms={(2, 1): "g3"},
                    desc="Heisenberg group of order 125 (exponent 5)",
                    autos=[["g2", "g1", "g3^4"], ["g1 g3", "g2", "g3"]]),
    "ES27": dict(p=3, m=3, powers={1: "g3"}, comms={(2, 1): "g3"},
                 desc="extraspecial of order 27, exponent 9",
                 autos=[["g1 g3", "g2", "g3"], ["g1", "g2 g3", "g3"]]),
    "ES125": dict(p=5, m=3, powers={1: "g3"}, comms={(2, 1): "g3"},
                  desc="extraspecial of order 125, exponent 25",
                  autos=[["g1 g3", "g2", "g3"], ["g1", "g2 g3", "g3"]]),
}


def catalog_names() -> list[str]:
    return list(_CATALOG)


def catalog_description(name: str) -> str:
    return _CATALOG[name]["desc"]


def catalog(name: str) -> PcGroup:
    """Build a fresh catalog group (construction re-runs the certificate)."""
    try:
        entry = _CATALOG[name]
    except KeyError:
        raise UnknownGroup(f"unknown catalog group {name!r}; catalog_names() lists the groups") from None
    p, m = entry["p"], entry["m"]
    powers = {i: tuple(parse_word_pairs(w, m, "g")) for i, w in entry["powers"].items()}
    comms = {ji: tuple(parse_word_pairs(w, m, "g")) for ji, w in entry["comms"].items()}
    return PcGroup(p, m, powers, comms, name=name, stored_auto_words=entry["autos"])
