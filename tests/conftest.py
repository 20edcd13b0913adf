"""Shared fixtures.

Groups and algebras are cached per session: catalog() builds a fresh
PcGroup each call, and the radical filtration / Jennings caches are keyed
on object identity, so reusing one instance per name matters for speed.
"""

from __future__ import annotations

import functools

import pytest

from socle_verify import GF, GroupAlgebra, PcGroup, build_jennings_basis, catalog, catalog_names

from oracle_helpers import products_oracle_with_complements

_GROUPS: dict[str, object] = {}
_ALGEBRAS: dict[tuple, object] = {}

# inline presentations the tests use beside the catalog
INLINE = {"C2^7": "pcgroup p=2 m=7\n", "C2^9": "pcgroup p=2 m=9\n", "C3^4": "pcgroup p=3 m=4\n"}


def shared_group(name):
    if name not in _GROUPS:
        if name in INLINE:
            _GROUPS[name] = PcGroup.from_presentation_text(INLINE[name], name=name)
        else:
            _GROUPS[name] = catalog(name)
    return _GROUPS[name]


@functools.lru_cache(maxsize=None)
def shared_products_oracle(group):
    """products_oracle_with_complements(group) over the prime field, once per group."""
    return products_oracle_with_complements(group)


def shared_algebra(name, n=1):
    key = (name, n)
    if key not in _ALGEBRAS:
        group = shared_group(name)
        _ALGEBRAS[key] = GroupAlgebra(group, GF(group.p, n))
    return _ALGEBRAS[key]


@pytest.fixture(scope="session")
def group():
    return shared_group


@pytest.fixture(scope="session")
def algebra():
    return shared_algebra


@pytest.fixture(scope="session")
def basis():
    def make(name):
        return build_jennings_basis(shared_group(name))

    return make


@pytest.fixture(scope="session")
def all_names():
    return catalog_names()


# ---------------------------------------------------------------------------
# Acceptance summary: one PASS/FAIL line per criterion at the end of the run.

_CRITERIA: dict[str, tuple[int, str]] = {}
_RESULTS: dict[int, str] = {}


def register_criterion(nodeid_part: str, number: int, title: str) -> None:
    _CRITERIA[nodeid_part] = (number, title)


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    for part, (number, title) in _CRITERIA.items():
        if part in report.nodeid:
            _RESULTS[number] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for part, (number, title) in sorted(_CRITERIA.items(), key=lambda kv: kv[1][0]):
        status = _RESULTS.get(number, "NOT RUN")
        terminalreporter.write_line(f"criterion {number} {status}: {title}")
