"""Index masks against the set routines they replaced.

PcGroup._generators_among and PcGroup._closure_indices read sorted,
duplicate-free index sets off boolean masks over the group's index range,
and FieldOps.nullspace reads its free columns off a column mask with the
pivots cleared.  Each is compared with its np.unique or np.setdiff1d form
(tests/oracle_helpers.py) on the catalog, the benchmark presentations and
seeded random presentations.  On numpy >= 2.3, np.unique imports numpy.ma
on its first call; a child process runs every subcommand and checks that
numpy.ma is never imported.  Nor is numpy.random: importing it alone
raises a bare interpreter's peak RSS by about 6 MB, so random draws come
from random.Random.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from socle_verify import GF, InconsistentPresentation, PcGroup, catalog_names
from socle_verify.linalg import FieldOps

from oracle_helpers import (
    closure_indices_by_unique,
    generators_by_unique,
    nullspace_by_setdiff,
    random_presentation,
)

ROOT = Path(__file__).resolve().parents[1]
BENCH_PRESENTATIONS = ROOT / "perfbench" / "presentations"


def _random_groups():
    """The consistent presentations among the seeded random ones of test_pc_table."""
    groups = []
    for seed in range(100):
        p, m, power_words, comm_words = random_presentation(random.Random(seed))
        try:
            groups.append(PcGroup(p, m, dict(enumerate(power_words, start=1)), comm_words))
        except InconsistentPresentation:
            continue
    return groups


def _seed_sets(g, rng):
    """Empty, identity-only, duplicated, whole-group, generator and random seed sets."""
    n = g.order
    pc_gens = [g.p ** (g.m - i) for i in range(1, g.m + 1)]
    drawn = [rng.randrange(n) for _ in range(rng.randint(1, 4))]
    yield []
    yield [0]
    yield [0, 0, 0]
    yield pc_gens + pc_gens[::-1]
    yield drawn + drawn + [0]
    yield list(range(n))
    yield np.arange(n)[::-1]
    yield np.array(drawn, dtype=np.int64)


def _assert_masks_match(g, rng):
    for seeds in _seed_sets(g, rng):
        gens = g._generators_among(seeds)
        assert gens.dtype == np.int64
        assert np.array_equal(gens, generators_by_unique(seeds)), seeds
        closure = g._closure_indices(seeds)
        assert closure == closure_indices_by_unique(g, seeds), seeds
        assert all(type(i) is int for i in closure)


def _assert_jennings_terms_match(g, monkeypatch):
    """Every closure of the recursive Jennings series against the oracles."""
    calls = []
    closure = PcGroup._closure_indices

    def recording(self, seeds):
        indices = closure(self, seeds)
        calls.append((seeds, indices))
        return indices

    with monkeypatch.context() as m:
        m.setattr(PcGroup, "_closure_indices", recording)
        series = g.jennings_series_recursive()
    assert calls
    assert [list(sub) for sub in series[1:]] == [indices for _, indices in calls]
    for seeds, indices in calls:
        gens = generators_by_unique(seeds)
        assert np.array_equal(g._generators_among(seeds), gens)
        assert indices == closure_indices_by_unique(g, gens)


def test_masks_match_unique_on_the_catalog(group, monkeypatch):
    rng = random.Random(2024)
    names = catalog_names()
    assert len(names) == 24
    for name in names:
        g = group(name)
        _assert_masks_match(g, rng)
        _assert_jennings_terms_match(g, monkeypatch)


@pytest.mark.parametrize("path", sorted(BENCH_PRESENTATIONS.glob("*.pc")), ids=lambda p: p.stem)
def test_masks_match_unique_on_benchmark_presentations(path, monkeypatch):
    g = PcGroup.from_presentation_text(path.read_text(), name=path.stem)
    _assert_masks_match(g, random.Random(path.stem))
    _assert_jennings_terms_match(g, monkeypatch)


def test_masks_match_unique_on_random_presentations(monkeypatch):
    groups = _random_groups()
    assert len(groups) >= 50
    rng = random.Random(11)
    for g in groups:
        _assert_masks_match(g, rng)
        _assert_jennings_terms_match(g, monkeypatch)


@pytest.mark.parametrize("p, n", [(2, 1), (3, 2)])
def test_nullspace_free_column_mask_matches_setdiff(p, n):
    ops = FieldOps(GF(p, n))
    q = p**n
    rng = np.random.default_rng(7 * q)
    cases = [
        np.zeros((3, 5), dtype=np.int64),  # no pivots: every column is free
        np.zeros((0, 4), dtype=np.int64),
        np.eye(6, dtype=np.int64),  # full rank: no free column
        np.concatenate([np.eye(3, dtype=np.int64), rng.integers(0, q, (3, 4))], axis=1),
    ]
    for _ in range(60):
        rows, cols = int(rng.integers(1, 8)), int(rng.integers(1, 10))
        m = rng.integers(0, q, (rows, cols))
        m[:, rng.random(cols) < 0.3] = 0  # some zero columns
        cases.append(m)
        cases.append(np.concatenate([m, m], axis=0))  # rank below the row count
    seen_ranks = set()
    for m in cases:
        basis = ops.nullspace(m)
        assert basis.dtype == np.int64
        assert np.array_equal(basis, nullspace_by_setdiff(ops, m)), m
        seen_ranks.add(m.shape[1] - basis.shape[0])
    assert 0 in seen_ranks and 6 in seen_ranks
    assert np.array_equal(ops.nullspace(cases[0]), np.eye(5, dtype=np.int64))
    assert ops.nullspace(cases[2]).shape == (0, 6)


# one process for every subcommand; each argv must exit 0.  For numpy.ma
# and numpy.random it reports whether numpy imports the module itself, and
# the first argv after which the module is loaded.  The process runs on one
# CPU, so a sweep runs all of its groups in it and forks no worker
LAZY_MODULES = ["numpy.ma", "numpy.random"]
NUMPY_MA_CHILD = r"""
import contextlib, io, json, os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy
modules = json.loads(sys.argv[2])
eager = {mod: mod in sys.modules for mod in modules}
from socle_verify.cli import main
first = dict.fromkeys(modules)
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"exit code {code} from {argv}")
    for mod in modules:
        if first[mod] is None and mod in sys.modules:
            first[mod] = argv
print(json.dumps({"eager": eager, "first_import": first}))
"""

SUBCOMMANDS = [
    ["run", "--presentation", str(BENCH_PRESENTATIONS / "c2x7.pc"), "--field", "2,2",
     "--no-stored", "--auto", "random-subst"],
    ["run", "--group", "C3xC3", "--field", "3,2", "--auto", "random-inner",
     "--auto", "random-subst", "--full-check"],
    ["sweep", "--groups", "C2,D8,C3xC3", "--inner", "1", "--subst", "1"],
    ["sweep", "--groups", "D8", "--inner", "1", "--subst", "1", "--full-check"],
    ["jennings", "--presentation", str(BENCH_PRESENTATIONS / "heis27xc3.pc")],
    ["gl-check", "--p", "3", "--m", "2", "--n", "2", "--count", "5"],
    ["catalog"],
]


def test_no_subcommand_imports_numpy_ma():
    proc = subprocess.run([sys.executable, "-c", NUMPY_MA_CHILD, json.dumps(SUBCOMMANDS),
                           json.dumps(LAZY_MODULES)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    # a numpy that imports a module with numpy itself leaves nothing to check
    for mod in LAZY_MODULES:
        assert out["eager"][mod] or out["first_import"][mod] is None, (mod, out["first_import"][mod])
