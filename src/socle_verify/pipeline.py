"""End-to-end drivers: single runs, the catalog sweep, and the GL check.

A run builds one group algebra, certifies its filtration and layer
structure, pushes a batch of automorphisms through the socle-scalar
verification, and reports per-automorphism results plus a verdict.  The
sweep repeats that over the whole catalog with stored, random inner,
composed, and (for elementary abelian groups) random substitution
automorphisms over the prime field and a quadratic extension.

All randomness flows from one master seed through a splitmix64 chain
keyed by group name, field degree, and source kind, so reports are
byte-for-byte reproducible.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import math
import os
import pickle
import random
import signal
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import linalg
from .automorphisms import (
    AlgebraAutomorphism,
    VerificationReport,
    check_count,
    member_slices,
    parse_automorphism_specs,
    random_inners,
    random_substitutions,
    stored_automorphisms,
    verify_stack,
)
from .ffield import GF, FieldMismatch, FieldSpec, format_modulus
from .groupalgebra import (
    GroupAlgebra,
    series_definitions_agree,
    radical_filtration_by_products,
)
from .jennings import build_jennings_basis
from .pgroup import (
    PcGroup,
    UnknownGroup,
    associative_on_all_triples,
    catalog,
    catalog_description,
    catalog_names,
)
from .truncsym import TruncatedPolynomialRing

__all__ = [
    "MASTER_SEED",
    "SEED_ENV",
    "SeedError",
    "RunConfig",
    "RunReport",
    "SweepReport",
    "RunStageError",
    "master_seed",
    "derive_seed",
    "prepare",
    "run",
    "sweep",
    "sweep_automorphisms",
    "gl_check",
    "gl_check_work",
    "MAX_GL_WORK",
    "randbelow",
    "render_json",
]

MASTER_SEED = 0xB50C1E
# largest gl_check_work a gl-check accepts; about 2 s of kernel work on a
# 2-core Xeon VM (p = 4093, m = 1, count = 3000)
MAX_GL_WORK = 2**25
SEED_ENV = "SOCLE_VERIFY_SEED"
_MASK = (1 << 64) - 1


class SeedError(ValueError):
    """A SOCLE_VERIFY_SEED value that is not an integer."""


def master_seed() -> int:
    env = os.environ.get(SEED_ENV)
    if not env:
        return MASTER_SEED
    try:
        return int(env)
    except ValueError:
        raise SeedError(f"{SEED_ENV}={env!r} is not an integer seed") from None


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_seed(base: int, *parts: int | str) -> int:
    """Stable 64-bit seed from a base seed and a mixed salt chain."""
    state = _splitmix64(base & _MASK)
    for part in parts:
        if isinstance(part, int):
            v = part & _MASK
        else:
            v = int.from_bytes(hashlib.sha256(str(part).encode()).digest()[:8], "big")
        state = _splitmix64(state ^ v)
    return state


class RunStageError(RuntimeError):
    """Failure wrapped with the pipeline stage it happened in."""

    def __init__(self, stage: str, error: Exception):
        super().__init__(f"[{stage}] {type(error).__name__}: {error}")
        self.stage = stage
        self.error = error

    def __reduce__(self):
        return type(self), (self.stage, self.error)


@dataclass
class RunConfig:
    group: str = "D8"
    presentation: str | None = None  # pc presentation text; overrides the name
    p: int | None = None  # field characteristic; defaults to the group prime
    n: int = 1
    modulus: str | None = None  # modulus literal in t, e.g. "t^2+1"
    auto_specs: tuple[str, ...] = ()
    include_stored: bool = True
    seed: int | None = None  # default seed base for random-* specs without seed=


@dataclass
class RunReport:
    group_name: str
    group_order: int
    p: int
    field: FieldSpec
    layers: list[dict]
    gr_dims: list[int]
    socle_degree: int
    checks: dict[str, bool]
    auto_reports: list[VerificationReport]
    verdict: bool

    def as_dict(self) -> dict:
        return {
            "group": {"name": self.group_name, "order": int(self.group_order), "p": int(self.p)},
            "field": {
                "p": int(self.field.p),
                "n": int(self.field.n),
                "modulus": format_modulus(self.field),
            },
            "jennings": [
                {"r": int(l["r"]), "d_r": int(l["d_r"]), "lifts": list(l["lifts"])}
                for l in self.layers
            ],
            "gr_dims": [int(d) for d in self.gr_dims],
            "socle_degree": int(self.socle_degree),
            "autos": [rep.as_dict() for rep in self.auto_reports],
            "verdict": bool(self.verdict),
            "checks": {k: bool(v) for k, v in self.checks.items()},
        }

    def render_text(self) -> str:
        lines = [
            f"group {self.group_name} (order {self.group_order}, p = {self.p}) "
            f"over GF({self.field.q})"
            + (f" with modulus {format_modulus(self.field)}" if self.field.n > 1 else ""),
            f"  socle degree {self.socle_degree}, graded dimensions {self.gr_dims}",
        ]
        for layer in self.layers:
            lifts = ", ".join(layer["lifts"]) if layer["lifts"] else "-"
            lines.append(f"  layer r={layer['r']}: d_r={layer['d_r']}  lifts: {lifts}")
        for name, ok in self.checks.items():
            lines.append(f"  check {name}: {'ok' if ok else 'FAILED'}")
        for rep in self.auto_reports:
            status = "ok" if rep.equation_holds else "FAILED"
            lines.append(
                f"  [{status}] lambda = {rep.socle_scalar}, det = {rep.det_total}, "
                f"det^(p-1) = {rep.det_power}  <- {rep.provenance}"
            )
        lines.append(f"verdict: {'PASS' if self.verdict else 'FAIL'}")
        return "\n".join(lines)


@dataclass
class SweepReport:
    seed: int
    reports: list[RunReport]
    verdict: bool

    def as_dict(self) -> dict:
        return {
            "master_seed": int(self.seed),
            "reports": [r.as_dict() for r in self.reports],
            "verdict": bool(self.verdict),
        }

    def render_text(self) -> str:
        lines = [f"sweep with master seed {self.seed}"]
        for rep in self.reports:
            ok = sum(1 for r in rep.auto_reports if r.equation_holds)
            lines.append(
                f"  {'PASS' if rep.verdict else 'FAIL'}  {rep.group_name:10s} "
                f"GF({rep.field.q:3d})  autos {ok}/{len(rep.auto_reports)}  "
                f"socle degree {rep.socle_degree}"
            )
        lines.append(f"verdict: {'PASS' if self.verdict else 'FAIL'}")
        return "\n".join(lines)


def build_field(p: int, n: int = 1, modulus: str | None = None) -> FieldSpec:
    return FieldSpec(p, n, modulus)


def build_group_field(group: PcGroup, p: int, n: int = 1, modulus: str | None = None) -> FieldSpec:
    """GF(p^n) for kG.  The characteristic is compared with the group's prime
    before the field and its default modulus are built."""
    if p != group.p:
        GF(p)  # an out-of-range or composite p is reported as such first
        raise FieldMismatch(f"group has prime {group.p} but field has characteristic {p}")
    return build_field(p, n, modulus)


def load_group(name: str, presentation: str | None = None) -> PcGroup:
    """The group a presentation text defines, named name, or else the
    catalog group name."""
    if presentation is not None:
        return PcGroup.from_presentation_text(presentation, name=name or "custom")
    return catalog(name)


@contextlib.contextmanager
def _stage(stage: str):
    """Attribute any error raised in the block to stage; a RunStageError
    from an inner stage passes through unchanged."""
    try:
        yield
    except RunStageError:
        raise
    except Exception as err:
        raise RunStageError(stage, err) from err


def _staged(stage: str, items: Iterable) -> Iterator:
    """The items of an iterable, each drawn under _stage(stage)."""
    with _stage(stage):
        yield from items


def prepare(config: RunConfig) -> tuple[GroupAlgebra, Iterator[AlgebraAutomorphism]]:
    """The group algebra of a run and its automorphisms, as stacks built
    one after another when they are asked for; an error is raised as a
    RunStageError of its stage: group, field or, when the stacks are
    built, automorphisms."""
    with _stage("group"):
        group = load_group(config.group, config.presentation)
    with _stage("field"):
        p = config.p if config.p is not None else group.p
        spec = build_group_field(group, p, config.n, config.modulus)
        algebra = GroupAlgebra(group, spec)

    def stacks() -> Iterator[AlgebraAutomorphism]:
        if config.include_stored:
            yield from stored_automorphisms(algebra)
        base = config.seed if config.seed is not None else master_seed()
        for i, spec_text in enumerate(config.auto_specs):
            yield from parse_automorphism_specs(algebra, spec_text, derive_seed(base, "auto", i))

    return algebra, _staged("automorphisms", stacks())


def _require(ok: bool, stage: str, message: str) -> None:
    """Stop a run at stage when an oracle fails."""
    if not ok:
        raise RunStageError(stage, ValueError(message))


def run(algebra: GroupAlgebra, autos: Iterable[AlgebraAutomorphism], full_check: bool = False) -> RunReport:
    """Certify the algebra's structure and verify the stacks of
    automorphisms, consumed one at a time (under --full-check each is
    check_pairs'd as it arrives) with only the reports kept; an error is
    raised as a RunStageError of its stage: jennings, structure (or the
    socle, filtration or series oracle under --full-check), the stage of
    the stream, such as automorphisms, or verify."""
    group = algebra.group
    with _stage("jennings"):
        basis = build_jennings_basis(group)

    checks: dict[str, bool] = {}
    with _stage("structure"):
        # holds by construction: the layer ranks are the filtration's lift
        # counts, gr_dims counts the weights of the lift monomials, and the
        # PBW coefficients come from the same lift degrees; under
        # --full-check jq_dimension_check reads the ranks against the
        # subgroup orders, and the products oracle below checks the
        # dimensions independently
        if full_check:
            basis.jq_dimension_check()
        checks["graded_dimensions"] = True
        socle = algebra.socle_vector()
        checks["socle_certificate"] = True
        # prod_j (y_j - 1)^(p-1) is the sum of the lift words, so holds by
        # construction once the filtration build has checked that they
        # enumerate G; under --full-check it is multiplied out by kG products
        checks["socle_product_formula"] = not full_check or np.array_equal(basis.socle_product(algebra), socle)
        _require(checks["socle_product_formula"], "socle",
                 "product of (lift - 1)^(p-1) is not the socle vector")
        if full_check:
            checks["group_associativity_oracle"] = associative_on_all_triples(group.cayley_table)
            checks["filtration_products_oracle"] = algebra.filtration.matches(
                radical_filtration_by_products(group)[0]
            )
            _require(checks["filtration_products_oracle"], "filtration",
                     "filtration_products_oracle: the weight >= r monomials do not span "
                     "the products J^r")
            checks["socle_nullspace_oracle"] = np.array_equal(algebra.socle_vector_by_nullspace(), socle)
            # every RadicalFiltration build checks that the lift words
            # y_1^(e_1) ... y_M^(e_M) enumerate G, or raises FiltrationError
            checks["normal_form_bijection"] = True
            basis.degree_one_generates()
            checks["degree_one_generation"] = True
            checks["series_definitions_agree"] = series_definitions_agree(group)
            _require(checks["series_definitions_agree"], "series",
                     "recursive and definitional dimension subgroups differ")

    def checked(stacks: Iterable[AlgebraAutomorphism]) -> Iterator[AlgebraAutomorphism]:
        for stack in stacks:
            stack.check_pairs()
            if len(stack):  # the pair-check mode depends only on the group order
                checks[f"pair_check_{stack.pair_check}"] = True
            yield stack

    with _stage("verify"):
        reports = verify_stack(checked(autos) if full_check else autos)

    # lambda = det^(p-1) is the whole pass rule: a singular graded block
    # raises FiltrationNotPreserved, so det != 0, and then
    # lambda^((q-1)/(p-1)) = det^(q-1) = 1 puts lambda in (k^x)^(p-1); over
    # GF(p) det lies in GF(p)^x, so lambda = 1.  in_subgroup and
    # lambda_is_one stay in the report.
    verdict = all(rep.equation_holds for rep in reports) and all(checks.values())
    return RunReport(
        group_name=group.name or "custom",
        group_order=group.order,
        p=group.p,
        field=algebra.field,
        layers=basis.layer_summary(),
        gr_dims=list(algebra.filtration.gr_dims),
        socle_degree=algebra.filtration.socle_degree,
        checks=checks,
        auto_reports=reports,
        verdict=verdict,
    )


def sweep_automorphisms(
    algebra: GroupAlgebra,
    name: str,
    seed: int,
    inner_count: int = 25,
    compose_count: int = 0,
    subst_count: int = 25,
) -> Iterator[AlgebraAutomorphism]:
    """The stacks of automorphisms one sweep run checks for catalog group
    `name`, built one after another when they are asked for.

    Stored group automorphisms, random inner ones, random compositions of
    those, and random substitutions when the group is elementary abelian,
    each source seeded from (seed, name, field degree, source kind).  Only
    compositions need the stored and inner stacks kept.
    """
    def rng(kind: str) -> random.Random:
        return random.Random(derive_seed(seed, name, algebra.field.n, kind))

    sources = itertools.chain(stored_automorphisms(algebra), random_inners(algebra, rng("inner"), inner_count))
    pool = list(sources) if compose_count else sources
    yield from pool
    members = [(stack, b) for stack in pool for b in range(len(stack))]  # none unless kept
    rng_comp = rng("compose")
    pairs = [(members[rng_comp.randrange(len(members))], members[rng_comp.randrange(len(members))])
             for _ in range(compose_count)]
    for part in member_slices(algebra, compose_count):
        yield AlgebraAutomorphism.compose(pairs[part])
    if algebra.group.is_elementary_abelian() and subst_count:
        yield from random_substitutions(algebra, rng("subst"), subst_count)


def sweep(
    seed: int | None = None,
    groups: list[str] | None = None,
    inner_count: int = 25,
    compose_count: int = 0,
    subst_count: int = 25,
    extension_degree: int = 2,
    full_check: bool = False,
) -> SweepReport:
    """Catalog sweep over GF(p) and GF(p^extension_degree): over the named
    groups, or over the whole catalog when groups is None."""
    check_count(inner_count, "inner count")
    check_count(compose_count, "compose count")
    check_count(subst_count, "substitution count")
    if groups is not None and not groups:
        raise UnknownGroup("groups names no catalog group; None sweeps the whole catalog")
    seed = master_seed() if seed is None else seed
    names = groups if groups is not None else catalog_names()
    for name in names:
        if name not in catalog_names():
            catalog(name)  # raises UnknownGroup here, before any worker starts
    degrees = [1] + ([extension_degree] if extension_degree > 1 else [])

    def share(indices: range) -> list[tuple[int, RunReport | Exception]]:
        """(group index, report) for each run of the groups in turn, or
        (group index, error) for the first run that fails, which ends the
        share."""
        out = []
        for i in indices:
            try:
                group = catalog(names[i])
                for deg in degrees:
                    algebra = GroupAlgebra(group, GF(group.p, deg))
                    autos = sweep_automorphisms(
                        algebra, names[i], seed, inner_count, compose_count, subst_count
                    )
                    out.append((i, run(algebra, _staged("automorphisms", autos), full_check=full_check)))
            except Exception as err:
                return out + [(i, err)]
        return out

    # every run is seeded from its own (seed, name, degree, kind), so a
    # share may run in any process; a stable sort on the group index
    # restores list order, and with it the serial loop's reports and its
    # error, the first in that order
    count = min(_usable_cpus(), len(names))
    results = _in_workers(share, [range(i, len(names), count) for i in range(count)])
    outcomes = sorted((pair for result in results for pair in result), key=lambda pair: pair[0])
    reports = []
    for _, outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
        reports.append(outcome)
    return SweepReport(seed=seed, reports=reports, verdict=all(r.verdict for r in reports))


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork or the
    platform does not say (no os.sched_getaffinity)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1


def _in_workers(fn, shares: list) -> list:
    """[fn(share) for share in shares]: the first share in this process and
    each other one in a forked child, which pickles its result into a pipe,
    writes nothing else and leaves by os._exit.  A child that ends without
    a result raises a RunStageError of stage sweep; on any exception here
    every child still running is killed and reaped first."""
    workers = []  # (pid, read end of its pipe)
    try:
        for part in shares[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(r)
                    with open(w, "wb") as pipe:
                        pickle.dump(fn(part), pipe, pickle.HIGHEST_PROTOCOL)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            workers.append((pid, open(r, "rb")))
        results = [fn(shares[0])]
        while workers:
            pid, pipe = workers[0]
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            workers.pop(0)
            if code:
                raise RunStageError("sweep", ChildProcessError(
                    f"a sweep worker ended without a result (exit status {code})"))
            results.append(pickle.loads(data))
        return results
    finally:
        for pid, pipe in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def randbelow(rng: random.Random, n: int, size: int) -> np.ndarray:
    """`size` draws of rng.randrange(n) as an int64 array, in order.

    CPython's randrange(n) for 0 < n < 2^32 takes one 32-bit MT19937 word
    per try (getrandbits(k) for k = n.bit_length() <= 32 keeps its top k
    bits) and tries again while the value is >= n; getrandbits(32 * w)
    returns w such words, the first in the low bits.  Each round asks for
    exactly the draws still missing, so no word past the last accepted one
    is read, and the values and the final rng state are the loop's.  Other
    n keep the loop.
    """
    if not 0 < n < 1 << 32:
        return np.array([rng.randrange(n) for _ in range(size)], dtype=np.int64)
    shift = 32 - n.bit_length()
    out = np.empty(size, dtype=np.int64)
    filled = 0
    while filled < size:
        need = size - filled
        words = np.frombuffer(rng.getrandbits(32 * need).to_bytes(4 * need, "little"), dtype="<u4")
        draws = words >> shift
        draws = draws[draws < n]
        out[filled : filled + len(draws)] = draws
        filled += len(draws)
    return out


def gl_check_work(p: int, m: int, n: int, count: int) -> int:
    """The kernel work of gl_check on GL_m(GF(p^n)): matrices x m*n*p^m.

    The top-monomial kernel gathers m*n*|D_d| entries per matrix and degree
    d, m*n*p^m over all degrees.  The matrices are the m(m-1) min(q-1, 32)
    elementary ones, the m(q-1) single-entry diagonals, count // 4 full
    diagonals and count dense draws, for q = p^n.
    """
    q = p**n
    matrices = m * (m - 1) * min(q - 1, 32) + m * (q - 1) + count // 4 + count
    return matrices * m * n * p**m


def gl_check(
    p: int,
    m: int,
    n: int = 1,
    count: int = 200,
    seed: int | None = None,
    modulus: str | None = None,
) -> dict:
    """det^(p-1) of the top-monomial action, checked across GL_m(GF(p^n)).

    Elementary matrices and single-entry diagonals are enumerated (full
    coverage of a generating set of GL_m); full diagonals and dense
    invertible matrices are sampled.
    """
    check_count(count, "count")
    seed = master_seed() if seed is None else seed
    spec = build_field(p, n, modulus)
    ring = TruncatedPolynomialRing(spec, m)
    work = gl_check_work(p, m, n, count)
    if work > MAX_GL_WORK:
        raise ValueError(f"gl-check work {work} (matrices x m*n*p^m) exceeds the budget of {MAX_GL_WORK}")
    ops = ring.ops
    rng = random.Random(derive_seed(seed, "gl-check", p, n, m))

    # memoised per distinct code: det -> code of det^(p-1).  Every det is
    # nonzero, so lambda == det^(p-1) is itself a (p-1)-st power
    power = functools.cache(lambda det: spec.code_of(spec.element_from_code(det) ** (p - 1)))

    # the matrices of all kinds as one stack in draw order, with determinants
    # known by construction, except for the dense draws.  The elementary
    # matrices and single-entry diagonals are identities with one (row,
    # column, code) cell set
    units = spec.q - 1
    sampled_units = range(1, spec.q) if units <= 32 else (1 + randbelow(rng, units, 32)).tolist()
    cells = [(i, j, c) for i in range(m) for j in range(m) if i != j for c in sampled_units]
    cells += [(i, i, c) for i in range(m) for c in range(1, spec.q)]
    cells = np.array(cells, dtype=np.int64).reshape(-1, 3)
    enumerated = np.tile(ops.eye(m), (len(cells), 1, 1))
    enumerated[np.arange(len(cells)), cells[:, 0], cells[:, 1]] = cells[:, 2]
    entries = (1 + randbelow(rng, units, count // 4 * m)).reshape(-1, m)
    diagonals = np.zeros((len(entries), m, m), dtype=np.int64)
    diagonals[:, np.arange(m), np.arange(m)] = entries
    mats = [enumerated, diagonals]
    dets = [np.where(cells[:, 0] == cells[:, 1], cells[:, 2], 1),
            functools.reduce(ops.mul, entries.T, np.ones(len(entries), dtype=np.int64))]
    # dense draws in the order a matrix-by-matrix loop draws them, in rounds
    # sized by GL_m(q)'s density in all m x m matrices to hold the ones still
    # missing, up to member_chunks' step; each round keeps its first
    # nonsingular draws up to the need, so the kept ones are the loop's
    density = math.prod(1 - spec.q**-i for i in range(1, m + 1))
    cap = max(1, linalg.MAX_STACK_CELLS // (m * m))
    made = 0
    while made < count:
        size = min(cap, math.ceil((count - made) / density))
        dense = randbelow(rng, spec.q, size * m * m).reshape(size, m, m)
        dense_dets = ops.det(dense)
        keep = np.flatnonzero(dense_dets)[: count - made]
        mats.append(dense[keep])
        dets.append(dense_dets[keep])
        made += len(keep)
    counts = {"elementary": m * (m - 1) * len(sampled_units), "diagonal": m * units,
              "random_diagonal": len(entries), "random": count}

    # lambda against det^(p-1) in one pass, the ring cutting the stack into
    # its chunks; a failure keeps its kind, matrix and draw order
    mats = np.concatenate(mats)
    lams = ring.top_monomial_scalar(mats).tolist()
    kinds = np.repeat(list(counts), list(counts.values())).tolist()
    failures = [
        {"kind": kind, "matrix": mats[i].tolist(), "lambda": str(spec.element_from_code(lam)),
         "expected": str(spec.element_from_code(power(det)))}
        for i, (kind, lam, det) in enumerate(zip(kinds, lams, np.concatenate(dets).tolist(), strict=True))
        if lam != power(det)
    ]

    return {
        "field": {"p": int(p), "n": int(n), "modulus": format_modulus(spec)},
        "m": int(m),
        "seed": int(seed),
        "checked": {k: int(v) for k, v in counts.items()},
        "failures": failures,
        "verdict": not failures,
    }


def render_json(data: dict) -> str:
    return json.dumps(data, indent=2) + "\n"


def catalog_table() -> str:
    lines = []
    for name in catalog_names():
        group = catalog(name)
        lines.append(f"{name:10s} order {group.order:4d}  p={group.p}  {catalog_description(name)}")
    return "\n".join(lines)
