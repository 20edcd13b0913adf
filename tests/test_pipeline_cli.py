"""End-to-end checks of the pipeline API and the command line.

The JSON layout is a stability contract: key order is asserted literally
because downstream tooling diffs raw output.
"""

from __future__ import annotations

import collections
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from socle_verify import pipeline
from socle_verify.automorphisms import MAX_COUNT
from socle_verify.cli import MAX_SPEC_FILE_BYTES, _parser, main
from socle_verify.ffield import FieldElement
from socle_verify.groupalgebra import GroupAlgebra, RadicalFiltration
from socle_verify.jennings import JenningsBasis
from socle_verify.linalg import FieldOps
from socle_verify.pgroup import MAX_PRESENTATION_BYTES, PcGroup, UnknownGroup, catalog, catalog_names
from socle_verify.pipeline import (
    MASTER_SEED,
    MAX_GL_WORK,
    RunConfig,
    RunStageError,
    SeedError,
    build_field,
    gl_check,
    gl_check_work,
    master_seed,
    prepare,
    randbelow,
    run,
    sweep,
)

from oracle_helpers import presentation_text

RUN_KEYS = ["group", "field", "jennings", "gr_dims", "socle_degree", "autos", "verdict", "checks"]
AUTO_KEYS = [
    "provenance",
    "lambda",
    "det_blocks",
    "det_total",
    "det_pow",
    "equation_holds",
    "in_subgroup",
    "lambda_is_one",
]


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_run_json_schema(capsys):
    code, out = run_cli(
        capsys,
        ["run", "--group", "C4", "--field", "2", "--auto", "group-auto: g1 -> g1^3", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out, object_pairs_hook=lambda pairs: pairs)

    def keys(pairs):
        return [k for k, _ in pairs]

    top = dict(data)
    assert keys(data) == RUN_KEYS
    assert keys(top["group"]) == ["name", "order", "p"]
    assert keys(top["field"]) == ["p", "n", "modulus"]
    for entry in top["jennings"]:
        assert keys(entry) == ["r", "d_r", "lifts"]
    for auto in top["autos"]:
        assert keys(auto) == AUTO_KEYS
    plain = json.loads(out)
    assert plain["verdict"] is True
    assert plain["group"]["order"] == 4
    assert plain["gr_dims"] == [1, 1, 1, 1]


def test_run_text_format(capsys):
    code, out = run_cli(capsys, ["run", "--group", "D8", "--field", "2"])
    assert code == 0
    assert "verdict" in out.lower()
    assert "D8" in out


def test_run_is_deterministic(capsys):
    argv = ["run", "--group", "Q8", "--field", "2", "--auto", "random-inner count=3", "--seed", "5", "--format", "json"]
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    assert first == second
    _, third = run_cli(capsys, argv[:-3] + ["7", "--format", "json"])
    assert first != third


def test_run_reads_specs_from_file(capsys, tmp_path):
    spec_file = tmp_path / "autos.txt"
    spec_file.write_text(
        "# stored=off, two sources\n"
        "group-auto: g1 -> g1 g3, g2 -> g2\n"
        "random-inner seed=9 count=2\n"
    )
    code, out = run_cli(
        capsys,
        ["run", "--group", "D8", "--field", "2", "--no-stored", "--auto", f"@{spec_file}", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["autos"]) == 3
    assert data["verdict"] is True


def test_run_accepts_presentation_path(capsys, tmp_path, group):
    pres = tmp_path / "c4c2.pc"
    pres.write_text(presentation_text(group("C4xC2")))
    code, out = run_cli(capsys, ["run", "--group", str(pres), "--field", "2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["group"]["order"] == 8
    # same via --presentation
    code, out2 = run_cli(capsys, ["run", "--presentation", str(pres), "--field", "2", "--format", "json"])
    assert code == 0
    assert json.loads(out2)["group"]["order"] == 8


def test_run_extension_field_modulus_pinned(capsys):
    code, out = run_cli(
        capsys,
        ["run", "--group", "C3xC3", "--field", "3,2", "--auto", "subst: x1 -> (t)*x1, x2 -> x2", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["field"] == {"p": 3, "n": 2, "modulus": "t^2+1"}
    spec_auto = [a for a in data["autos"] if a["provenance"].startswith("subst")]
    assert spec_auto and spec_auto[0]["lambda"] == "2"


def test_error_exit_codes(capsys):
    assert main(["run", "--group", "NOPE", "--field", "2"]) != 0
    capsys.readouterr()
    assert main(["run", "--group", "D8", "--field", "3"]) != 0
    capsys.readouterr()
    assert main(["run", "--group", "D8", "--field", "2", "--auto", "bogus: x"]) != 0
    capsys.readouterr()
    assert main(["run", "--group", "D8", "--field", "4"]) != 0
    capsys.readouterr()


@pytest.mark.parametrize("groups", ["", " ", ",", " , "])
def test_sweep_over_no_group_is_an_error(capsys, groups):
    assert main(["sweep", "--groups", groups, "--inner", "1", "--subst", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --groups {groups!r} names no catalog group;")
    assert "'socle-verify catalog' lists the groups" in captured.err
    assert "leaving --groups out sweeps them all" in captured.err


@pytest.mark.parametrize("group", ["C8", "D8"])
def test_random_subst_outside_elementary_abelian_points_to_subst(capsys, group):
    # random-subst draws a linear part in GL_m(k) with no relation check; a
    # subst: spec takes images on any pc group; the group is refused
    # whatever the count, also when there is nothing to draw
    for argv in (["--auto", "random-subst"], ["--no-stored", "--auto", "random-subst count=0"]):
        assert main(["run", "--group", group, "--field", "2,2", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: [automorphisms] ValueError: random-subst draws need an elementary "
                                "abelian group; give images on any pc group with subst:\n")
        assert "substitution automorphisms need" not in captured.err


def _injected(*args):
    raise ValueError("injected")


D8_RUN = ["run", "--group", "D8"]


@pytest.mark.parametrize("argv, patch, line", [
    (["run", "--presentation", "bad.pc"], None,
     "[group] PresentationError: relation [g2,g1] may only mention generators above index 2, got g2"),
    (D8_RUN + ["--field", "3"], None,
     "[field] FieldMismatch: group has prime 2 but field has characteristic 3"),
    (D8_RUN + ["--auto", "inner: 0"], None,
     "[automorphisms] NotAUnit: element lies in the augmentation ideal"),
    (D8_RUN, (pipeline, "build_jennings_basis", _injected), "[jennings] ValueError: injected"),
    (D8_RUN, (GroupAlgebra, "socle_vector", _injected), "[structure] ValueError: injected"),
    (D8_RUN + ["--full-check"], (JenningsBasis, "socle_product",
                                 lambda self, algebra: np.zeros(algebra.dimension, dtype=np.int64)),
     "[socle] ValueError: product of (lift - 1)^(p-1) is not the socle vector"),
    (D8_RUN + ["--full-check"], (RadicalFiltration, "matches", lambda self, bases: False),
     "[filtration] ValueError: filtration_products_oracle: the weight >= r monomials do not span "
     "the products J^r"),
    (D8_RUN + ["--full-check"], (pipeline, "series_definitions_agree", lambda group: False),
     "[series] ValueError: recursive and definitional dimension subgroups differ"),
    (D8_RUN, (pipeline, "verify_stack", _injected), "[verify] ValueError: injected"),
], ids=["group", "field", "automorphisms", "jennings", "structure", "socle", "filtration", "series", "verify"])
def test_failed_full_check_oracle_ends_in_one_error_line(capsys, monkeypatch, tmp_path, argv, patch, line):
    # an error in any stage, or a --full-check oracle that fails, stops the
    # run with one error line naming the stage
    (tmp_path / "bad.pc").write_text("pcgroup p=2 m=2\ng1^2 = g2\n[g2,g1] = g2\n")
    monkeypatch.chdir(tmp_path)
    if patch:
        monkeypatch.setattr(*patch)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {line}\n"


def test_sweep_recurses_the_series_once_per_group(capsys, monkeypatch):
    # the filtration is built from the recursive series, and the
    # --full-check series oracle reads the series it kept; with one usable
    # CPU every group runs in this process, where the spy counts
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
    counts = collections.Counter()
    recursive = PcGroup.jennings_series_recursive

    def spy(group):
        counts[group.name] += 1
        return recursive(group)

    monkeypatch.setattr(PcGroup, "jennings_series_recursive", spy)
    argv = ["sweep", "--groups", "C2,D8,Q8", "--inner", "1", "--subst", "1", "--full-check"]
    assert main(argv) == 0
    capsys.readouterr()
    assert counts == {"C2": 1, "D8": 1, "Q8": 1}


def test_sweep_api_over_no_group_is_an_error():
    with pytest.raises(UnknownGroup, match="names no catalog group"):
        sweep(groups=[], inner_count=1, subst_count=1)
    with pytest.raises(UnknownGroup) as err:
        sweep(groups=["nosuch"], inner_count=1, subst_count=1)
    assert str(err.value).startswith("unknown catalog group 'nosuch';")


@pytest.mark.parametrize("argv, head, fix", [
    (["run", "--group", "nosuch"], "--group 'nosuch' is neither a catalog group",
     "'socle-verify catalog' lists the groups"),
    (["run", "--group", ""], "--group '' is neither a catalog group",
     "'socle-verify catalog' lists the groups"),
    (["jennings", "--group", "nosuch"], "--group 'nosuch' is neither a catalog group",
     "'socle-verify catalog' lists the groups"),
    (["sweep", "--groups", "C2,nosuch", "--inner", "1"], "--groups names unknown catalog group 'nosuch'",
     "'socle-verify catalog' lists the groups"),
    (["run", "--group", "D8", "--field", ",2"], "--field ',2' is not of the form p[,n[,modulus]]",
     "e.g. '3', '3,2' or '3,2,t^2+1'"),
    (["run", "--group", "D8", "--field", "2,x"], "--field '2,x' is not of the form p[,n[,modulus]]",
     "integers p and n"),
    (["run", "--group", "D8", "--field", ""], "--field '' is not of the form p[,n[,modulus]]",
     "integers p and n"),
    (["jennings", "--group", "D8", "--field", "two"], "--field 'two' is not of the form p[,n[,modulus]]",
     "integers p and n"),
])
def test_argument_errors_name_the_argument_and_the_fix(capsys, argv, head, fix):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {head}") and captured.err.count("\n") == 1
    assert fix in captured.err
    for stale in ("KeyError", "catalog_names()", "invalid literal"):
        assert stale not in captured.err


@pytest.mark.parametrize("argv", [
    ["run", "--group", "nosuch"],
    ["run", "--group", "D8", "--field", ",2"],
    ["sweep", "--groups", "", "--inner", "1", "--subst", "1"],
])
def test_argument_errors_end_without_a_traceback(argv):
    proc = _run_subprocess(argv, timeout=30)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: --") and "Traceback" not in proc.stderr


def test_jennings_subcommand(capsys):
    code, out = run_cli(capsys, ["jennings", "--group", "M16", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    rows = {entry["r"]: entry["d_r"] for entry in data["layers"]}
    assert rows == {1: 2, 2: 1, 3: 0, 4: 1}
    assert data["gr_dims"] == data["pbw_coefficients"]
    assert data["socle_degree"] == 8
    assert data["series_definitions_agree"] is True
    code, out = run_cli(capsys, ["jennings", "--group", "M16", "--field", "2"])
    assert code == 0
    assert main(["jennings", "--group", "M16", "--field", "3"]) != 0
    capsys.readouterr()


def test_gl_check_subcommand(capsys):
    code, out = run_cli(
        capsys,
        ["gl-check", "--p", "3", "--m", "2", "--count", "20", "--seed", "4", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] is True
    assert data["failures"] == []
    assert data["checked"]["random"] == 20
    assert data["checked"]["elementary"] > 0
    assert data["checked"]["diagonal"] > 0


def test_gl_check_kernel_with_an_extra_scalar_is_an_error(capsys, monkeypatch):
    """The kinds, scalars and determinants are paired strictly: a kernel
    that returns one scalar too many ends gl-check with exit code 1 and
    one error line, rather than a report of the shortest list."""
    from socle_verify.truncsym import TruncatedPolynomialRing

    kernel = TruncatedPolynomialRing.top_monomial_scalar
    monkeypatch.setattr(TruncatedPolynomialRing, "top_monomial_scalar",
                        lambda ring, mats: np.append(kernel(ring, mats), 1))
    assert main(["gl-check", "--p", "3", "--m", "2", "--count", "5", "--seed", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_gl_check_rejects_oversized_grid(capsys):
    # 2^40 int64 cells would exhaust memory; the bound rejects it up front
    assert main(["gl-check", "--p", "2", "--m", "40"]) == 1
    assert "exceeds the limit" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["D8", "Heis27"])
def test_full_check_runs_the_oracles(capsys, name):
    code, out = run_cli(capsys, ["run", "--group", name, "--auto", "random-inner count=2",
                                 "--full-check", "--format", "json"])
    assert code == 0
    checks = json.loads(out)["checks"]
    assert checks["pair_check_full"] is True
    assert checks["group_associativity_oracle"] is True
    assert checks["socle_nullspace_oracle"] is True
    assert checks["filtration_products_oracle"] is True
    code, out = run_cli(capsys, ["sweep", "--groups", name, "--inner", "2", "--subst", "2",
                                 "--full-check", "--format", "json"])
    assert code == 0
    for report in json.loads(out)["reports"]:
        assert report["checks"]["pair_check_full"] is True
        assert report["checks"]["group_associativity_oracle"] is True
        assert report["checks"]["socle_nullspace_oracle"] is True
        assert report["checks"]["filtration_products_oracle"] is True

    algebra, autos = prepare(RunConfig(group=name, auto_specs=("random-inner count=2",)))
    assert {auto.pair_check for auto in autos} == {"group-automorphism", "unit-inverse"}
    run(algebra, autos, full_check=True)
    assert {auto.pair_check for auto in autos} == {"full"}


HEIS27_X_C3 = Path(__file__).resolve().parents[1] / "perfbench" / "presentations" / "heis27xc3.pc"


def _spy(monkeypatch):
    """Count FieldOps.rref, JenningsBasis.socle_product and the products oracle."""
    calls = collections.Counter()
    for owner, name in ((FieldOps, "rref"), (JenningsBasis, "socle_product"),
                        (pipeline, "radical_filtration_by_products")):
        def counted(*args, _name=name, _inner=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("argv", [["--group", "D16"], ["--presentation", str(HEIS27_X_C3)]])
def test_default_run_makes_no_echelon_and_no_socle_products(capsys, monkeypatch, argv):
    # each run builds its group, so the filtration is built inside the spy;
    # the socle line is read off the filtration build's enumeration check
    calls = _spy(monkeypatch)
    code, out = run_cli(capsys, ["run", *argv, "--auto", "random-inner count=2", "--format", "json"])
    assert code == 0
    assert json.loads(out)["checks"]["socle_product_formula"] is True
    assert calls == {}


def test_random_substitutions_share_one_echelon(capsys, monkeypatch):
    # basis(2), the J^2 rows of the tails, is the only elimination of the
    # run, and it is kept for every draw
    calls = _spy(monkeypatch)
    code, _ = run_cli(capsys, ["run", "--group", "C2xC2xC2", "--field", "2,2",
                               "--auto", "random-subst count=3"])
    assert code == 0
    assert calls == {"rref": 1}


def test_full_check_runs_the_socle_and_filtration_oracles(capsys, monkeypatch):
    calls = _spy(monkeypatch)
    code, out = run_cli(capsys, ["run", "--group", "D16", "--full-check", "--format", "json"])
    assert code == 0
    checks = json.loads(out)["checks"]
    assert checks["socle_product_formula"] is True
    assert checks["filtration_products_oracle"] is True
    assert calls["socle_product"] == 1 and calls["radical_filtration_by_products"] == 1
    assert calls["rref"] > 0


FIELD_ARITHMETIC = ("__add__", "__neg__", "__sub__", "__rsub__", "__mul__",
                    "inverse", "__truediv__", "__rtruediv__", "__pow__")
SPY_SPECS = ["--auto", "inner: 1 + g1 + (t)*g2", "--auto", "subst: x1 -> (t)*x1, x2 -> x2 + x1*x2",
             "--auto", "random-inner", "--auto", "compose: inner: 1 + (t+1)*g1 ; subst: x2 -> (t)*x2"]


@pytest.mark.parametrize("argv", [
    ["run", "--group", "C3xC3", "--field", field, *SPY_SPECS, *extra]
    for field in ("3,2", "3,2,t^2+1") for extra in ([], ["--full-check"])
] + [["sweep", "--groups", "C2,D8,C3xC3,Heis27", "--full-check"], ["jennings"], ["catalog"]])
def test_subcommands_make_no_scalar_field_arithmetic(capsys, monkeypatch, argv):
    """Every subcommand but gl-check works on field codes: with the nine
    FieldElement arithmetic methods made to raise, each exits 0."""
    calls = []
    for name in FIELD_ARITHMETIC:
        def refuse(*args, _name=name):
            calls.append(_name)
            raise AssertionError(f"FieldElement.{_name} called")

        monkeypatch.setattr(FieldElement, name, refuse)
    code, _ = run_cli(capsys, argv)
    assert calls == [] and code == 0


@pytest.mark.parametrize("bad", [-1, MAX_COUNT + 1])
def test_counts_are_bounded(capsys, bad):
    argvs = [
        ["run", "--group", "D8", "--auto", f"random-inner count={bad}"],
        ["run", "--group", "D8", "--auto", f"random-subst count={bad}"],
        ["sweep", "--groups", "C2", "--inner", str(bad)],
        ["sweep", "--groups", "C2", "--subst", str(bad)],
        ["sweep", "--groups", "C2", "--compose", str(bad)],
        ["gl-check", "--p", "2", "--m", "2", "--count", str(bad)],
    ]
    for argv in argvs:
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert f"0..{MAX_COUNT}" in captured.err, argv


def test_counts_at_the_bounds_are_accepted(capsys):
    assert main(["run", "--group", "C2", "--no-stored", "--auto", "random-inner count=0"]) == 0
    assert main(["gl-check", "--p", "2", "--m", "1", "--count", "0"]) == 0
    capsys.readouterr()


def test_huge_substitution_exponent_ends_at_once():
    # x2^3 = 0 in k[C3xC3]; the exponent loop must stop there, not run 10^9 times
    argv = ["run", "--group", "C3xC3", "--no-stored",
            "--auto", "subst: x1 -> x1 + x2^1000000000", "--format", "json"]
    proc = subprocess.run([sys.executable, "-m", "socle_verify.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] is True


def _run_subprocess(argv, timeout=30):
    """Run the CLI in a child with a timeout (30 s by default) and a 1 GB
    address-space cap, so an unbounded expansion fails fast instead of
    filling the memory."""
    def cap():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")  # thread buffers count against the cap
    return subprocess.run([sys.executable, "-m", "socle_verify.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout, preexec_fn=cap)


@pytest.mark.parametrize(
    "group, field, huge, reduced",
    [
        # exponents of group words reduce mod |G| = 4
        ("C4", "2", "group-auto: g1 -> g1^10000000", "group-auto: g1 -> g1^0"),
        ("C4", "2", "group-auto: g1 -> g1^10000001", "group-auto: g1 -> g1"),
        ("C4", "2", "inner: 1 + g1^100000000", "inner: 1 + g1^0"),
        ("C4", "2", "inner: g1^100000003", "inner: g1^3"),
        # t^(10^11) = t in GF(4), since x^4 = x and 10^11 = 1 mod 3
        ("C2xC2", "2,2", "inner: 1 + (t^100000000000)*g1", "inner: 1 + (t)*g1"),
    ],
)
def test_huge_literal_exponents_end_at_once(capsys, group, field, huge, reduced):
    proc = _run_subprocess(["run", "--group", group, "--field", field, "--no-stored", "--auto", huge])
    code = main(["run", "--group", group, "--field", field, "--no-stored", "--auto", reduced])
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--group", "C2xC2", "--field", "2,2,t^100000000000+1", "--no-stored"],
        ["gl-check", "--p", "2", "--m", "2", "--n", "2", "--modulus", "t^100000000000+1"],
    ],
)
def test_huge_modulus_degree_rejected_at_once(argv):
    proc = _run_subprocess(argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "degree 100000000000 exceeds 8" in proc.stderr
    assert "Traceback" not in proc.stderr


HUGE_PRIME = "2305843009213693951"  # 2^61 - 1: trial division would not end

# presentation files the bounds must reject, written under these names
BAD_FILES = {
    "huge-p": f"pcgroup p={HUGE_PRIME} m=1\n".encode(),
    "huge-m": b"pcgroup p=2 m=300000000\n",
    "oversized": b"pcgroup p=2 m=1\n" + b"#" * MAX_PRESENTATION_BYTES,
    "undecodable": b"pcgroup p=2 m=1\n\xff\xfe\n",
    "oversized-specs": b"random-inner\n" + b"#" * MAX_SPEC_FILE_BYTES,
}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--presentation", "huge-p"], "exceeds supported maximum 512"),
        (["run", "--presentation", "huge-m"], "exceeds supported maximum 512"),
        (["run", "--group", "C2", "--field", HUGE_PRIME], "exceeds the supported maximum 4096"),
        (["gl-check", "--p", HUGE_PRIME, "--m", "2"], "exceeds the supported maximum 4096"),
        (["run", "--presentation", "oversized"], f"exceeds {MAX_PRESENTATION_BYTES} bytes"),
        (["run", "--presentation", "undecodable"], "is not UTF-8 text"),
        (["run", "--group", "undecodable"], "is not UTF-8 text"),
        pytest.param(["run", "--presentation", "/dev/zero"], f"exceeds {MAX_PRESENTATION_BYTES} bytes",
                     marks=pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")),
        # the default-modulus search of GF(4093^8) would not end; the
        # characteristic is compared with the group's prime first
        (["run", "--group", "C2", "--field", "4093,8"], "group has prime 2 but field has characteristic 4093"),
        (["jennings", "--group", "C2", "--field", "4093,8"], "group has prime 2 but field has characteristic 4093"),
        (["run", "--group", "C2", "--auto", "@oversized-specs"], f"exceeds {MAX_SPEC_FILE_BYTES} bytes"),
        (["run", "--group", "C2", "--auto", "@undecodable"], "is not UTF-8 text"),
        pytest.param(["run", "--group", "C2", "--auto", "@/dev/zero"], f"exceeds {MAX_SPEC_FILE_BYTES} bytes",
                     marks=pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")),
    ],
    ids=["huge-p-header", "huge-m-header", "huge-field-prime", "huge-gl-prime", "oversized-file",
         "undecodable-file", "undecodable-group-path", "endless-file", "foreign-field-run",
         "foreign-field-jennings", "oversized-spec-file", "undecodable-spec-file", "endless-spec-file"],
)
def test_huge_inputs_end_at_once(tmp_path, argv, message):
    for name, data in BAD_FILES.items():
        (tmp_path / name).write_bytes(data)

    def resolve(arg):
        at = "@" if arg.startswith("@") else ""
        name = arg[len(at):]
        return at + str(tmp_path / name) if name in BAD_FILES else arg

    argv = [resolve(a) for a in argv]
    proc = _run_subprocess(argv, timeout=10)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "p, argv, code, message",
    [
        # GF(13^8) is built in milliseconds; its 13^8 - 1 diagonals exceed the work budget
        (13, ["gl-check", "--p", "13", "--m", "1", "--n", "8", "--count", "3"], 1,
         f"exceeds the budget of {MAX_GL_WORK}"),
        (13, ["run", "--presentation", "PC", "--field", "13,8", "--format", "json"], 0,
         '"modulus": "t^8+t^7+2*t^6+1"'),
        # 239^8 > 2^63: its codes would not fit in int64
        (239, ["run", "--presentation", "PC", "--field", "239,8"], 1,
         "field order 239^8 exceeds the supported maximum 2^63 - 1"),
    ],
    ids=["gl-check-13-8", "run-13-8", "run-239-8"],
)
def test_degree_8_fields_end_at_once(tmp_path, p, argv, code, message):
    """The default-modulus search skips the multiples of t and tests
    irreducibility by Rabin's test, so a degree-8 field of a large prime
    takes milliseconds, not a walk over p^4 trial divisors."""
    path = tmp_path / "cp.pc"
    path.write_text(f"pcgroup p={p} m=1\n")
    proc = _run_subprocess([str(path) if a == "PC" else a for a in argv], timeout=10)
    assert proc.returncode == code, proc.stderr
    assert message in (proc.stdout if code == 0 else proc.stderr)
    assert "Traceback" not in proc.stderr
    if code == 0:
        assert json.loads(proc.stdout)["verdict"] is True


def test_substitution_exponent_zero_rejected(capsys):
    argv = ["run", "--group", "C3xC3", "--no-stored", "--auto", "subst: x1 -> x1 + x2^0"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at least 1" in captured.err


@pytest.mark.parametrize("spec, token", [
    ("random-inners count=2", "'random-inners'"),
    ("random-innerfoo", "'random-innerfoo'"),
    ("random-subst-x", "'random-subst-x'"),
    ("random-inner count=2 count=3", "'count=3'"),
    ("random-inner seed", "'seed'"),
])
def test_random_spec_heads_end_with_an_error(spec, token):
    """A random-* kind word must match exactly, and seed= and count= are
    key=value options given at most once; the error names the bad token."""
    proc = _run_subprocess(["run", "--group", "D8", "--auto", spec], timeout=10)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert token in proc.stderr
    assert "Traceback" not in proc.stderr


# sha256 of `socle-verify sweep --seed 7 --groups <21 groups> --inner 2 --subst 2 --format json`
SWEEP_GROUPS = (
    "C2", "C4", "C8", "C3", "C9", "C27", "C5", "C25", "C2xC2", "C3xC3",
    "C5xC5", "C2xC2xC2", "C3xC3xC3", "C4xC2", "D8", "Q8", "D16", "M16",
    "Heis27", "ES27", "Heis125",
)
SWEEP_DIGEST = "7ed6e5120cf2a91ce9bce59563b9f21471e99a7de3687ce5877382434a03b64c"


def test_sweep_digest_pinned():
    buf = io.StringIO()
    argv = ["sweep", "--seed", "7", "--groups", ",".join(SWEEP_GROUPS),
            "--inner", "2", "--subst", "2", "--format", "json"]
    with redirect_stdout(buf):
        assert main(argv) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == SWEEP_DIGEST


# sha256 of `socle-verify gl-check --p P --m M --n N --count 50 --seed 7 --format json`
GL_CHECK_DIGESTS = {
    (2, 8, 1): "3b2c75b1e8dba271a700efe5d6d6d8853a567eb5a404b7614cb3be25bcfca52f",
    (2, 6, 2): "1fd6694189b1e9e32670ed8c937f964fea22d2e57390a9ffe519b87130879296",
    (3, 5, 1): "d576b220085737892af1a5be9f7ca7ea7f034e9afeeb11c5d473447528da36f7",
    (3, 4, 2): "aebf6b8191cc47c6a5389c447abb64b142174223df8952e2d3fd38e3183d1e05",
    (5, 4, 1): "b17690eacf9af35270c9b95cb782a1a0803004db262e6203d2eb1d884230470a",
    (5, 3, 2): "0ced4d4427380f214402a257a749725e99a7206e395d5b39d7a10448c42e1ecd",
}


@pytest.mark.parametrize("p,m,n", list(GL_CHECK_DIGESTS))
def test_gl_check_digest_pinned(p, m, n):
    buf = io.StringIO()
    argv = ["gl-check", "--p", str(p), "--m", str(m), "--n", str(n),
            "--count", "50", "--seed", "7", "--format", "json"]
    with redirect_stdout(buf):
        assert main(argv) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == GL_CHECK_DIGESTS[(p, m, n)]


# sha256 of the text stdout of five subcommands; sweep takes the default
# master seed, so SOCLE_VERIFY_SEED is cleared
TEXT_DIGESTS = {
    ("run", "--group", "C3xC3", "--field", "3,2", "--auto", "subst: x1 -> (t)*x1, x2 -> x2",
     "--auto", "inner: 1 + g1 + (t)*g2"):
        "8d76797c3a3dfae0d30c4c3ad4ff5c9b651aaa0eb29d269ed75ed7562534af96",
    ("sweep", "--groups", "C2,D8,C3xC3,Heis27", "--inner", "2", "--subst", "2"):
        "a4ed93c0a9a35ecf9037da72d265e129bf3f7953185a4d65850bf180c42efd08",
    ("jennings", "--group", "D16"): "6134bc0c974eb9ce2d99b712e35c5d34f73709cebdd4992092393d72271ce9c6",
    ("gl-check", "--p", "3", "--m", "2", "--count", "20", "--seed", "4"):
        "a808a5d4d9d23191f46fec5c4edf0ea87a1ddb89bad702b13847876d53cb707c",
    ("catalog",): "4c4253470a85465b1d7173515e27df46f4088162117fc296eeb56618edc6a90d",
}


@pytest.mark.parametrize("argv", list(TEXT_DIGESTS), ids=lambda argv: argv[0])
def test_text_digest_pinned(monkeypatch, argv):
    monkeypatch.delenv("SOCLE_VERIFY_SEED", raising=False)
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(list(argv)) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == TEXT_DIGESTS[argv]


# sha256 of `socle-verify jennings <source> --format json`: the lift words
# of every layer, the layer ranks and the graded dimensions; C8 has a layer
# of rank 0
JENNINGS_DIGESTS = {
    "C8": "cff133de02bc9b80bba03b901c28f8731d24c45cc44773498c0c00f9136e2cad",
    "D16": "e6b3831eaa451138c4a5201a51237c0b85e1f770d051c727e2fb65c9a84b35da",
    "ES27": "60c98f024f3b360c6fcfdd65bf870ce7885b7bb1248155f5d8b458cfdaea923f",
    "Heis125": "1d48a653d7c72a6be0703898a5272bd74cf43cc62bc76abfcd24ae58b315d99e",
    HEIS27_X_C3.name: "23c1ed20a5bc1554e4076991644aa85b253884b6280bda5269ea6335a2cf302b",
}


@pytest.mark.parametrize("source", list(JENNINGS_DIGESTS))
def test_jennings_digest_pinned(source):
    buf = io.StringIO()
    where = ["--presentation", str(HEIS27_X_C3)] if source == HEIS27_X_C3.name else ["--group", source]
    with redirect_stdout(buf):
        assert main(["jennings", *where, "--format", "json"]) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == JENNINGS_DIGESTS[source]


def test_catalog_subcommand(capsys):
    code, out = run_cli(capsys, ["catalog"])
    assert code == 0
    for name in ("D8", "Q8", "Heis125", "ES27", "C5xC5xC5"):
        assert name in out


def test_sweep_subset_cli(capsys):
    argv = [
        "sweep", "--groups", "C2,C3", "--inner", "2", "--subst", "2",
        "--seed", "3", "--prime-only", "--format", "json",
    ]
    code, first = run_cli(capsys, argv)
    assert code == 0
    data = json.loads(first)
    assert data["verdict"] is True
    assert data["master_seed"] == 3
    assert [r["group"]["name"] for r in data["reports"]] == ["C2", "C3"]
    _, second = run_cli(capsys, argv)
    assert first == second


def test_reused_parser_keeps_no_specs_between_calls(capsys):
    """main parses with one parser per process; a run's --auto specs are
    appended to a copy of the default list, so the next run has none."""
    assert _parser() is _parser()
    code, first = run_cli(capsys, ["run", "--group", "D8", "--auto", "inner: 1 + g1 + g2", "--format", "json"])
    assert code == 0
    code, second = run_cli(capsys, ["run", "--group", "D8", "--format", "json"])
    assert code == 0
    provenance = [auto["provenance"] for auto in json.loads(second)["autos"]]
    assert len(json.loads(first)["autos"]) == len(provenance) + 1
    assert not any("inner" in text for text in provenance)
    assert _parser().parse_args(["run"]).auto == []


def test_master_seed_reads_the_environment(monkeypatch):
    monkeypatch.delenv("SOCLE_VERIFY_SEED", raising=False)
    assert master_seed() == MASTER_SEED
    monkeypatch.setenv("SOCLE_VERIFY_SEED", "")
    assert master_seed() == MASTER_SEED
    monkeypatch.setenv("SOCLE_VERIFY_SEED", "-7")
    assert master_seed() == -7
    for bad in ("abc", "1.5", "0x10"):
        monkeypatch.setenv("SOCLE_VERIFY_SEED", bad)
        with pytest.raises(SeedError, match="^SOCLE_VERIFY_SEED='.*' is not an integer seed$"):
            master_seed()


@pytest.mark.parametrize("argv", [
    ["sweep", "--groups", "C2", "--inner", "1", "--subst", "1"],
    ["run", "--group", "C2", "--auto", "random-inner"],
    ["run", "--group", "C2"],
    ["gl-check", "--p", "2", "--m", "2", "--count", "1"],
])
def test_bad_seed_environment_ends_with_one_error_line(capsys, monkeypatch, argv):
    monkeypatch.setenv("SOCLE_VERIFY_SEED", "abc")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")
    assert captured.err.endswith("SOCLE_VERIFY_SEED='abc' is not an integer seed\n")
    # an explicit --seed does not read the environment
    assert main(argv + ["--seed", "3"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv, code", [
    (["catalog"], 0),
    (["sweep", "--help"], 0),
    (["sweep", "--groups", "C2", "--inner", "1", "--subst", "1"], 1),
])
def test_bad_seed_environment_ends_without_a_traceback(monkeypatch, argv, code):
    monkeypatch.setenv("SOCLE_VERIFY_SEED", "abc")
    proc = _run_subprocess(argv)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ("" if code == 0 else "error: SOCLE_VERIFY_SEED='abc' is not an integer seed\n")
    assert ("$SOCLE_VERIFY_SEED" in proc.stdout) == (argv[-1] == "--help")


def test_pipeline_prepare_counts():
    config = RunConfig(
        group="C3xC3",
        p=3,
        n=2,
        auto_specs=("random-subst seed=1 count=4", "random-inner seed=2 count=3"),
        include_stored=False,
    )
    algebra, autos = prepare(config)
    assert algebra.field.q == 9
    assert len(autos) == 7
    report = run(algebra, autos)
    assert report.verdict


def test_pipeline_seed_fallback_changes_output():
    base = dict(group="D8", p=2, auto_specs=("random-inner",), include_stored=False)
    _, a = prepare(RunConfig(seed=1, **base))
    _, b = prepare(RunConfig(seed=1, **base))
    _, c = prepare(RunConfig(seed=2, **base))
    import numpy as np

    assert np.array_equal(a[0].matrix, b[0].matrix)
    assert not np.array_equal(a[0].matrix, c[0].matrix)


def test_pipeline_stage_errors():
    with pytest.raises(RunStageError):
        prepare(RunConfig(group="NOPE", p=2))
    with pytest.raises(RunStageError):
        prepare(RunConfig(group="D8", p=5))


def test_sweep_api_small():
    report = sweep(seed=1, groups=["C2xC2"], inner_count=2, subst_count=2)
    assert report.verdict
    # one run over GF(2), one over GF(4)
    assert len(report.reports) == 2
    qs = sorted(r.field.q for r in report.reports)
    assert qs == [2, 4]
    text = report.render_text()
    assert "PASS" in text


def test_gl_check_api():
    out = gl_check(p=2, m=3, count=25, seed=9)
    assert out["verdict"] and out["field"]["p"] == 2 and out["m"] == 3
    out9 = gl_check(p=3, m=2, n=2, count=10, seed=9)
    assert out9["verdict"] and out9["field"]["n"] == 2


def test_gl_check_stacks_stay_within_the_chunk(monkeypatch):
    """With a small chunk, no chunk of the ring's kernel exceeds it, no
    stack reaching det holds more than MAX_STACK_CELLS // m^2 members, and
    the report is the unpatched one: 10 000 draws take many rounds."""
    from socle_verify import linalg
    from socle_verify.linalg import FieldOps
    from socle_verify.truncsym import TruncatedPolynomialRing

    want = gl_check(3, 2, count=10_000, seed=5)
    # 2 variables x 3 monomials of degree 2 x 1 plane per member
    monkeypatch.setattr(linalg, "MAX_STACK_CELLS", 6 * 64)
    sizes = {"top": [], "det": []}
    nonzero = {"top": 0, "det": 0}

    def spy(name, fn):
        def wrapped(self, matrix):
            out = fn(self, matrix)
            if np.ndim(matrix) == 3:
                sizes[name].append(len(matrix))
                nonzero[name] += np.count_nonzero(out)
            return out
        return wrapped

    monkeypatch.setattr(TruncatedPolynomialRing, "_top_scalars",
                        spy("top", TruncatedPolynomialRing._top_scalars))
    monkeypatch.setattr(FieldOps, "det", spy("det", FieldOps.det))
    assert gl_check(3, 2, count=10_000, seed=5) == want
    assert want["checked"] == {
        "elementary": 4, "diagonal": 4, "random_diagonal": 2500, "random": 10_000
    }
    assert max(sizes["top"]) == 64
    assert max(sizes["det"]) <= linalg.MAX_STACK_CELLS // 2**2
    # every matrix reaches the kernel once, and det runs only in the dense-draw
    # rounds
    assert sum(sizes["top"]) == nonzero["top"] == sum(want["checked"].values())
    assert len(sizes["det"]) > 10_000 // 64
    # the kernel's chunks are filled across the kinds: 12 508 = 195 * 64 + 28
    assert sizes["top"] == [64] * 195 + [28]


@pytest.mark.parametrize("seed", [5, 7])
@pytest.mark.parametrize("p,m,count", [(2, 8, 300), (3, 2, 1000)])
def test_gl_check_dense_matrices_are_the_loops_first_nonsingular_draws(monkeypatch, p, m, count, seed):
    """The last `count` members of the stack the kernel gets are the first
    `count` nonsingular matrices of a matrix-by-matrix rng.randrange(q)
    loop, each tested by the one-matrix column loop: at GF(2), m = 8, one
    draw in 3.5 is invertible, and at GF(3), m = 2, one in 1.7, so the
    rounds read past the last kept draw."""
    import random

    from oracle_helpers import det_by_column_loop
    from socle_verify.truncsym import TruncatedPolynomialRing

    stacks = []
    kernel = TruncatedPolynomialRing.top_monomial_scalar

    def spy(self, stack):
        stacks.append(stack)
        return kernel(self, stack)

    monkeypatch.setattr(TruncatedPolynomialRing, "top_monomial_scalar", spy)
    assert gl_check(p, m, count=count, seed=seed)["verdict"]

    ops = FieldOps(build_field(p))
    rng = random.Random(pipeline.derive_seed(seed, "gl-check", p, 1, m))
    # the draws before the dense ones: every unit is enumerated (q - 1 <= 32),
    # and the random diagonals take count // 4 * m units
    for _ in range(count // 4 * m):
        rng.randrange(p - 1)
    want = []
    while len(want) < count:
        matrix = np.array([[rng.randrange(p) for _ in range(m)] for _ in range(m)], dtype=np.int64)
        if det_by_column_loop(ops, matrix):
            want.append(matrix)
    assert len(stacks) == 1
    assert np.array_equal(stacks[0][-count:], np.stack(want))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 25, 4092, 2**31, 2**32 - 1, 2**32, 2**40])
def test_randbelow_matches_the_randrange_loop(n):
    """The bulk draws are the loop's values, and leave the loop's state:
    n = 1 still takes words, and from 2^32 on the loop itself runs."""
    import random

    for seed in (0, 1, 7, 2**61 - 1):
        for size in (0, 1, 7, 1000):
            bulk, loop = random.Random(seed), random.Random(seed)
            got = randbelow(bulk, n, size)
            assert got.dtype == np.int64 and got.shape == (size,)
            assert got.tolist() == [loop.randrange(n) for _ in range(size)], (seed, size)
            assert bulk.getstate() == loop.getstate(), (seed, size)


def test_gl_check_reports_each_failed_member_across_mixed_chunks(monkeypatch, capsys):
    """A negative control: lambda is corrupted on three members, and each
    failure keeps its kind, matrix and draw order across the ring's chunks."""
    from socle_verify import linalg
    from socle_verify.truncsym import TruncatedPolynomialRing

    want = gl_check(3, 2, count=200, seed=5)
    assert want["checked"] == {"elementary": 4, "diagonal": 4, "random_diagonal": 50, "random": 200}
    # chunks of 16: members 48-63 are the last 10 random diagonals and the
    # first 6 dense draws; corrupt the first elementary matrix, the last
    # random diagonal (member 57) and the last dense draw (member 257)
    monkeypatch.setattr(linalg, "MAX_STACK_CELLS", 6 * 16)
    targets = {0: "elementary", 57: "random_diagonal", 257: "random"}
    field = build_field(3)
    top_scalars = TruncatedPolynomialRing._top_scalars

    def corrupted(records):
        seen = [0]

        def wrapped(self, stack):
            lams = top_scalars(self, stack)
            assert len(stack) == 16 or seen[0] + len(stack) == 258
            for i in range(len(stack)):
                if seen[0] + i in targets:
                    records.append({
                        "kind": targets[seen[0] + i],
                        "matrix": stack[i].tolist(),
                        "lambda": str(field.element_from_code((lams[i] + 1) % 3)),
                        "expected": str(field.element_from_code(lams[i])),
                    })
                    lams[i] = (lams[i] + 1) % 3
            seen[0] += len(stack)
            return lams

        return wrapped

    records: list[dict] = []
    monkeypatch.setattr(TruncatedPolynomialRing, "_top_scalars", corrupted(records))
    got = gl_check(3, 2, count=200, seed=5)
    assert [r["kind"] for r in records] == ["elementary", "random_diagonal", "random"]
    assert records[0]["matrix"] == [[1, 1], [0, 1]]
    assert got["failures"] == records
    assert got["verdict"] is False and got["checked"] == want["checked"]
    monkeypatch.setattr(TruncatedPolynomialRing, "_top_scalars", corrupted([]))
    code = main(["gl-check", "--p", "3", "--m", "2", "--count", "200", "--seed", "5", "--format", "json"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["failures"] == records


def test_gl_check_one_variable_at_the_largest_prime_ends():
    """p - 1 = 4092 factors per matrix, and the 4092 diagonals in one chunk."""
    proc = _run_subprocess(["gl-check", "--p", "4093", "--m", "1", "--count", "3", "--format", "json"],
                           timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["verdict"] is True
    assert out["checked"]["diagonal"] == 4092


# (p, m, n, count) of every gl-check the tests, the CI steps and the
# benchmark run
GL_CHECK_RUNS = (
    [(4093, 1, 1, 3), (2, 12, 1, 20), (2, 2, 8, 20), (3, 2, 1, 10_000), (3, 2, 1, 20),
     (2, 3, 1, 25), (3, 2, 2, 10), (2, 1, 1, 0), (3, 2, 1, 200)]
    + [(p, m, n, 50) for p, m, n in [(2, 8, 1), (2, 6, 2), (3, 5, 1), (3, 4, 2), (5, 4, 1), (5, 3, 2)]]
    + [(p, m, 1, 200) for p in (2, 3, 5) for m in (1, 2, 3)]
)


def test_gl_check_work_budget_admits_every_run():
    for p, m, n, count in GL_CHECK_RUNS:
        assert gl_check_work(p, m, n, count) <= MAX_GL_WORK, (p, m, n, count)
    # 4092 diagonals of 4093 cells and 3 dense draws: 4095 * 4093
    assert gl_check_work(4093, 1, 1, 3) == 4095 * 4093
    # m(m-1) * 32 sampled elementary matrices once q - 1 > 32
    assert gl_check_work(2, 2, 8, 20) == (2 * 32 + 2 * 255 + 5 + 20) * 2 * 8 * 4
    assert gl_check_work(4093, 1, 2, 3) > MAX_GL_WORK


def test_gl_check_over_the_work_budget_ends_at_once(capsys):
    """The 4093^2 - 1 diagonals over GF(4093^2) are rejected before any of
    them is listed."""
    start = time.perf_counter()
    assert main(["gl-check", "--p", "4093", "--m", "1", "--n", "2", "--count", "3"]) == 1
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"exceeds the budget of {MAX_GL_WORK}" in captured.err


@pytest.mark.parametrize("count", [25, 2500])
def test_order_512_inner_stack_stays_within_the_memory_cap(tmp_path, count):
    """Inner automorphisms of C2^9 over GF(4), built and verified as
    stacks, under the 1 GB address-space cap of _run_subprocess: 2500 of
    them are verified in member chunks."""
    path = tmp_path / "c2x9.pc"
    path.write_text("pcgroup p=2 m=9\n")
    proc = _run_subprocess(["run", "--presentation", str(path), "--field", "2,2", "--no-stored",
                            "--auto", f"random-inner count={count}", "--format", "json"], timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["verdict"] is True
    assert len(out["autos"]) == count


def test_cli_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "socle_verify.cli", "catalog"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "D8" in proc.stdout


# The in-process CLI fuzz: argv drawn from the CLI grammar, over catalog
# groups of order <= 27, with counts <= 3 or past a bound.
SMALL_GROUPS = tuple(name for name in catalog_names() if catalog(name).order <= 27)
BAD_NAMES = ("", "nosuch", "d8")
GROUP_NAMES = st.one_of(st.sampled_from(SMALL_GROUPS), st.sampled_from(BAD_NAMES))
GROUP_LISTS = st.one_of(
    st.lists(st.sampled_from(SMALL_GROUPS), min_size=1, max_size=2).map(",".join),
    st.sampled_from(BAD_NAMES + (",", "C2,nosuch")),
)
COUNTS = (0, 1, 2, 3, -1, MAX_COUNT + 1)
FIELD_TEXTS = ("2", "3", "5", "2,2", "3,2", "5,2", "2,8", "2,9", "2,0", "3,-1", "3,2,t^2+1",
               "3,2,t^2", "2,2,", ",2", "", "x", "2,x", "4", "1", "0", "-3", "4093", "4097")
SPEC_TEXTS = ("random-inner", "random-subst seed=3", "inner: 1 + g1", "inner: g1",
              "subst: x1 -> x1 + x2", "subst: x1 -> x2", "group-auto: g1 -> g1 g2",
              "compose: random-inner ; random-subst", "compose: random-inner", "bogus: x",
              "random-inners count=2", "random-inner count=2 count=3", "random-inner seed", " ")
SPECS = st.one_of(
    st.sampled_from(SPEC_TEXTS),
    st.builds("{} count={}".format, st.sampled_from(["random-inner", "random-subst"]),
              st.sampled_from(COUNTS)),
)
FLAGS = st.lists(st.sampled_from([["--full-check"], ["--format", "json"], ["--seed", "5"]]),
                 max_size=2, unique_by=tuple)
FIELD = st.one_of(st.just([]), st.sampled_from(FIELD_TEXTS).map(lambda f: ["--field", f]))


def _flat(*parts):
    return [token for part in parts for token in part]


RUN_ARGV = st.builds(
    lambda g, f, specs, stored, flags: _flat(["run", "--group", g], f,
                                             *(["--auto", s] for s in specs), stored, *flags),
    GROUP_NAMES, FIELD, st.lists(SPECS, max_size=2),
    st.sampled_from([[], ["--no-stored"]]), FLAGS,
)
SWEEP_ARGV = st.builds(
    lambda names, inner, subst, compose, prime, flags: _flat(
        ["sweep", "--groups", names, "--inner", str(inner), "--subst", str(subst),
         "--compose", str(compose)], prime, *flags),
    GROUP_LISTS, st.sampled_from(COUNTS),
    st.sampled_from(COUNTS), st.sampled_from(COUNTS), st.sampled_from([[], ["--prime-only"]]), FLAGS,
)
JENNINGS_ARGV = st.builds(
    lambda g, f, fmt: _flat(["jennings", "--group", g], f, fmt),
    GROUP_NAMES, FIELD, st.sampled_from([[], ["--format", "json"]]),
)


@st.composite
def gl_check_argv(draw):
    # each of --p, --m, --n at its bounds and one past them
    p = draw(st.sampled_from([1, 2, 3, 4093, 4097]))
    m = draw(st.sampled_from([0, 1, 2, 12, 13]))
    n = draw(st.sampled_from([0, 1, 2, 8, 9]))
    count = draw(st.sampled_from(COUNTS))
    # a valid run over a field above 256 elements takes about a second or
    # more (GF(3^8), or the GF(4093) diagonals); the smoke tests cover those
    valid = 1 <= n <= 8 and m >= 1 and p**m <= 4096 and 0 <= count <= MAX_COUNT
    assume(not (valid and p**n > 256 and gl_check_work(p, m, n, count) <= MAX_GL_WORK))
    return ["gl-check", "--p", str(p), "--m", str(m), "--n", str(n), "--count", str(count)]


CLI_ARGV = st.one_of(RUN_ARGV, SWEEP_ARGV, JENNINGS_ARGV, gl_check_argv(), st.just(["catalog"]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=CLI_ARGV)
def test_cli_fuzz_ends_with_exit_code_0_or_1(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse rejected a drawn argv
        pytest.fail(f"{argv} exited through argparse with {exc.code}: {err.getvalue()}")
    assert code in (0, 1), argv
    if code == 1 and not out.getvalue():
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())


@settings(max_examples=12, deadline=None, derandomize=True)
@given(argv=CLI_ARGV)
def test_cli_fuzz_in_a_child_ends_with_exit_code_0_or_1(argv):
    """The child-process half of the CLI fuzz: the same grammar, run under
    the timeout and address-space cap of _run_subprocess, so a hang or a
    memory blow-up fails the draw as well as a traceback."""
    proc = _run_subprocess(argv, timeout=10)
    assert proc.returncode in (0, 1), (argv, proc.stderr)
    assert "Traceback" not in proc.stderr, (argv, proc.stderr)
