"""The benchmark's workloads: inputs from a seed, one unit of work, checks.

A unit is a fixed list of `socle-verify` command lines run in process
through `cli.main`, with standard output captured.  Every output of every
unit is checked; an item (one automorphism, or one GL matrix) fails when
its command raised or exited non-zero, when `equation_holds` or
`in_subgroup` is false, or when lambda != 1 over a prime field.  For the
default seed the sha256 of each output is pinned too, and an output whose
digest differs fails all of its items.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

DEFAULT_SEED = 7
HELD_OUT_SEED = 11
HERE = Path(__file__).resolve().parent

# the catalog groups of order <= 27 and one group of order 125
SWEEP_GROUPS = (
    "C2", "C4", "C8", "C3", "C9", "C27", "C5", "C25", "C2xC2", "C3xC3",
    "C5xC5", "C2xC2xC2", "C3xC3xC3", "C4xC2", "D8", "Q8", "D16", "M16",
    "Heis27", "ES27", "Heis125",
)
SWEEP_COUNTS = ("--inner", "2", "--subst", "2")

# (presentation file, automorphism specs); each runs over GF(p) and GF(p^2)
LARGE_ORDER = (
    ("c2x7.pc", ("random-inner", "group-auto: g1 -> g1 g2", "random-subst")),
    ("heis27xc3.pc", ("random-inner count=2", "group-auto: g1 -> g1 g4")),
)

GL_CONFIGS = ((2, 8, 1), (2, 6, 2), (3, 5, 1), (3, 4, 2), (5, 4, 1), (5, 3, 2))
GL_COUNT = 50


def _presentation(name: str) -> Path:
    return HERE / "presentations" / name


def _prime_of(path: Path) -> int:
    return int(path.read_text().split("p=", 1)[1].split()[0])


def commands(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """(label, argv) for every command of one unit."""
    s = str(seed)
    if workload == "sweep":
        return [("sweep", ["sweep", "--seed", s, "--groups", ",".join(SWEEP_GROUPS),
                           *SWEEP_COUNTS, "--format", "json"])]
    if workload == "large-order":
        out = []
        for name, specs in LARGE_ORDER:
            path = _presentation(name)
            p = _prime_of(path)
            autos = [arg for spec in specs for arg in ("--auto", spec)]
            for field in (f"{p}", f"{p},2"):
                out.append((f"{path.stem}/GF({field})", [
                    "run", "--presentation", str(path), "--field", field, "--no-stored",
                    "--seed", s, *autos, "--format", "json",
                ]))
        return out
    if workload == "gl-check":
        return [(f"gl/{p},{m},{n}", ["gl-check", "--p", str(p), "--m", str(m), "--n", str(n),
                                     "--count", str(GL_COUNT), "--seed", s, "--format", "json"])
                for p, m, n in GL_CONFIGS]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("sweep", "large-order", "gl-check")

# the host-speed probe that does the workload's kind of work (see speed.py)
PROBE = {"sweep": "loop", "large-order": "loop", "gl-check": "mixed"}

# layers each workload must reach; together they cover every layer
EXPECTED_LAYERS = {
    "sweep": ("cli", "pipeline", "automorphisms", "groupalgebra", "jennings", "pgroup",
              "ffield", "linalg"),
    "large-order": ("cli", "pipeline", "automorphisms", "groupalgebra", "jennings", "pgroup",
                    "ffield", "linalg"),
    "gl-check": ("cli", "pipeline", "truncsym", "ffield", "linalg"),
}

# items per unit (the same for every seed) and sha256 of each output for
# DEFAULT_SEED, as printed by the equivalent `socle-verify` command line
ITEMS_PER_UNIT = {"sweep": 202, "large-order": 12, "gl-check": 1002}
PINNED = {
    "sweep": {
        "sweep": "7ed6e5120cf2a91ce9bce59563b9f21471e99a7de3687ce5877382434a03b64c",
    },
    "large-order": {
        "c2x7/GF(2)": "1eeb17cb83a90276ccf09e4609acd1457d6430b0fb102db6c52cc4f961011ea9",
        "c2x7/GF(2,2)": "ad6882a9157b9012ab69e4927857f1c70a81cd84c93025befc9e6e1e3a11d660",
        "heis27xc3/GF(3)": "b923a9aeb655366e2f679f7ce3763e2fac960aec2829d03b08fb7f0ef8ba8ee6",
        "heis27xc3/GF(3,2)": "445da9721f85b6363008430ffe9cc39f1f244499a82f930eb57b31a20ba1ac3b",
    },
    "gl-check": {
        "gl/2,8,1": "3b2c75b1e8dba271a700efe5d6d6d8853a567eb5a404b7614cb3be25bcfca52f",
        "gl/2,6,2": "1fd6694189b1e9e32670ed8c937f964fea22d2e57390a9ffe519b87130879296",
        "gl/3,5,1": "d576b220085737892af1a5be9f7ca7ea7f034e9afeeb11c5d473447528da36f7",
        "gl/3,4,2": "aebf6b8191cc47c6a5389c447abb64b142174223df8952e2d3fd38e3183d1e05",
        "gl/5,4,1": "b17690eacf9af35270c9b95cb782a1a0803004db262e6203d2eb1d884230470a",
        "gl/5,3,2": "0ced4d4427380f214402a257a749725e99a7206e395d5b39d7a10448c42e1ecd",
    },
}


def run_unit(cli_main, workload: str, seed: int) -> list[tuple[str, int | None, str]]:
    """Run one unit; returns (label, exit code or None if it raised, stdout)."""
    results = []
    for label, argv in commands(workload, seed):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli_main(argv)
        except Exception as err:  # an item that raises is a failed item
            results.append((label, None, f"{type(err).__name__}: {err}"))
            continue
        results.append((label, rc, buf.getvalue()))
    return results


def _report_items(report: dict) -> tuple[int, int]:
    autos = report["autos"]
    prime = report["field"]["n"] == 1
    if not report["verdict"] or not all(report["checks"].values()):
        return len(autos), len(autos)
    bad = sum(
        1 for a in autos
        if not a["equation_holds"] or not a["in_subgroup"] or (prime and a["lambda"] != "1")
    )
    return len(autos), bad


def check_unit(workload: str, seed: int, results) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for the outputs of one unit."""
    attempted = failed = 0
    problems: list[str] = []
    pins = PINNED[workload] if seed == DEFAULT_SEED else {}
    for label, rc, text in results:
        if rc is None:
            problems.append(f"{label}: raised {text}")
            attempted, failed = attempted + 1, failed + 1
            continue
        try:
            doc = json.loads(text)
            if workload == "sweep":
                counts = [_report_items(r) for r in doc["reports"]]
                n, bad = sum(c[0] for c in counts), sum(c[1] for c in counts)
                if not doc["verdict"]:
                    bad = n
            elif workload == "large-order":
                n, bad = _report_items(doc)
            else:
                n = sum(doc["checked"].values())
                bad = n if not doc["verdict"] else len(doc["failures"])
        except (ValueError, KeyError, TypeError) as err:
            problems.append(f"{label}: unreadable output ({type(err).__name__}: {err})")
            attempted, failed = attempted + 1, failed + 1
            continue
        if rc != 0:
            problems.append(f"{label}: exit code {rc}")
            bad = n
        digest = hashlib.sha256(text.encode()).hexdigest()
        if label in pins and digest != pins[label]:
            problems.append(f"{label}: sha256 {digest} differs from the pinned digest")
            bad = n
        elif bad:
            problems.append(f"{label}: {bad} of {n} items failed")
        attempted += n
        failed += bad
    if not problems and attempted != ITEMS_PER_UNIT[workload]:
        problems.append(f"unit checked {attempted} items, expected {ITEMS_PER_UNIT[workload]}")
    return attempted, failed, problems


def setup(workload: str) -> None:
    """Build the structures the workload's verification is checked against."""
    from socle_verify import groupalgebra, jennings, pgroup, pipeline, truncsym
    from socle_verify.ffield import GF

    if workload == "gl-check":
        for p, m, n in GL_CONFIGS:
            truncsym.TruncatedPolynomialRing(pipeline.build_field(p, n), m)
        return
    if workload == "sweep":
        groups = [pgroup.catalog(name) for name in SWEEP_GROUPS]
    else:
        groups = [
            pgroup.PcGroup.from_presentation_text(_presentation(name).read_text(), name=name)
            for name, _ in LARGE_ORDER
        ]
    for group in groups:
        algebras = [groupalgebra.GroupAlgebra(group, GF(group.p, deg)) for deg in (1, 2)]
        groupalgebra.radical_filtration(group)
        jennings.build_jennings_basis(group).jq_dimension_check()
        algebras[0].socle_vector()
