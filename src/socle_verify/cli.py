"""Command line entry points.

Subcommands:
  run       verify a batch of automorphisms for one group and field
  sweep     run the whole catalog with seeded random automorphisms
  jennings  print the dimension-subgroup layer table for a group
  gl-check  check det^(p-1) against the top-monomial action on GL_m
  catalog   list the built-in groups
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections.abc import Callable
from pathlib import Path

from .groupalgebra import series_definitions_agree
from .jennings import build_jennings_basis
from .pgroup import MAX_PRESENTATION_BYTES, PresentationError, catalog_names
from .pipeline import (
    MASTER_SEED,
    SEED_ENV,
    RunConfig,
    RunStageError,
    build_group_field,
    catalog_table,
    gl_check,
    load_group,
    prepare,
    render_json,
    run,
    sweep,
)


# an '@FILE' of automorphism specs; an inner spec written out in full at
# order 512 over GF(p^8) takes about 10 KB
MAX_SPEC_FILE_BYTES = 1 << 20


class SpecFileError(ValueError):
    """An '@FILE' of automorphism specs that is too large or not UTF-8."""


class ArgumentError(ValueError):
    """A --group, --groups or --field value that names no group or field."""


CATALOG_HINT = "'socle-verify catalog' lists the groups"


FULL_CHECK_HELP = (
    "also run the brute-force oracles: on every automorphism, the generator identities "
    "alpha(x g_i) = alpha(x) alpha(g_i) as dense products and a seeded spot check on two "
    "random products, then alpha(g)alpha(h) = alpha(gh) on all pairs (sampled above "
    "order 256); associativity of the group table on all triples; the radical filtration "
    "echelonized from stacked products, the layer ranks against the subgroup orders "
    "(jq_dimension_check), the socle product by kG products, the "
    "translation-nullspace socle certificate, every layer spanned by brackets and p-th "
    "powers of degree one (degree_one_generation), and "
    "the series and normal-form cross-checks"
)


def _split_field(text: str) -> tuple[int, int, str | None]:
    parts = text.split(",", 2)
    try:
        p = int(parts[0])
        n = int(parts[1]) if len(parts) > 1 else 1
    except ValueError:
        raise ArgumentError(
            f"--field {text!r} is not of the form p[,n[,modulus]] with integers p and n, "
            "e.g. '3', '3,2' or '3,2,t^2+1'"
        ) from None
    modulus = parts[2].strip() if len(parts) > 2 else None
    return p, n, modulus


def _group_names(text: str) -> list[str]:
    """The catalog names of a --groups list; empty items are skipped."""
    names = [g.strip() for g in text.split(",") if g.strip()]
    if not names:
        raise ArgumentError(
            f"--groups {text!r} names no catalog group; {CATALOG_HINT}, "
            "and leaving --groups out sweeps them all"
        )
    known = catalog_names()
    for name in names:
        if name not in known:
            raise ArgumentError(f"--groups names unknown catalog group {name!r}; {CATALOG_HINT}")
    return names


def _load_specs(values: list[str]) -> list[str]:
    specs = []
    for value in values:
        if value.startswith("@"):
            text = _read_text(Path(value[1:]), MAX_SPEC_FILE_BYTES, "spec", SpecFileError)
            for line in text.splitlines():
                line = line.split("#", 1)[0].strip()
                if line:
                    specs.append(line)
        else:
            specs.append(value)
    return specs


def _group_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--group",
        default="D8",
        help="catalog group name or path to a presentation file (default D8)",
    )
    parser.add_argument(
        "--presentation",
        metavar="FILE",
        help="file with a 'pcgroup p=.. m=..' power-commutator presentation; overrides --group",
    )


def _read_text(path: Path, limit: int, kind: str, error: type[ValueError]) -> str:
    """A file's UTF-8 text; at most limit + 1 bytes of it are read, so an
    endless file such as /dev/zero is rejected at once."""
    with path.open("rb") as fh:
        data = fh.read(limit + 1)
    if len(data) > limit:
        raise error(f"{kind} file {path} exceeds {limit} bytes")
    try:
        return data.decode()
    except UnicodeDecodeError as err:
        raise error(f"{kind} file {path} is not UTF-8 text: {err.reason}") from None


def _read_presentation(path: Path) -> str:
    return _read_text(path, MAX_PRESENTATION_BYTES, "presentation", PresentationError)


def _group_source(args: argparse.Namespace) -> tuple[str, str | None]:
    """Resolve --group/--presentation to (name, presentation text or None)."""
    if args.presentation:
        return Path(args.presentation).stem, _read_presentation(Path(args.presentation))
    if args.group in catalog_names():
        return args.group, None
    if args.group and Path(args.group).exists():
        return Path(args.group).stem, _read_presentation(Path(args.group))
    raise ArgumentError(
        f"--group {args.group!r} is neither a catalog group nor a presentation file; {CATALOG_HINT}"
    )


def _emit(args: argparse.Namespace, data: Callable[[], dict], text: Callable[[], str], verdict: bool) -> int:
    """Write data() as JSON or text() as text, as --format asks, and return
    the exit code: 0 when the verdict holds, else 1."""
    sys.stdout.write(render_json(data()) if args.format == "json" else text() + "\n")
    return 0 if verdict else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process.

    parse_args leaves it as it was: an appended --auto list is a copy of
    its default, never the default itself.
    """
    parser = argparse.ArgumentParser(
        prog="socle-verify",
        description="Socle-scalar verification for modular group algebras of p-groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="verify automorphisms for one group algebra")
    _group_args(p_run)
    p_run.add_argument(
        "--field",
        metavar="p[,n[,modulus]]",
        help="coefficient field, e.g. '2', '3,2', or '3,2,t^2+1' (default: prime field)",
    )
    p_run.add_argument(
        "--auto",
        action="append",
        default=[],
        metavar="SPEC",
        help="automorphism spec (repeatable); '@file' reads one spec per line",
    )
    p_run.add_argument("--no-stored", action="store_true", help="skip the group's stored automorphisms")
    p_run.add_argument("--full-check", action="store_true", help=FULL_CHECK_HELP)
    p_run.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed base for random-* specs without an explicit seed=",
    )
    p_run.add_argument("--format", choices=("text", "json"), default="text")

    p_sweep = sub.add_parser("sweep", help="verify the whole catalog")
    p_sweep.add_argument(
        "--seed", type=int, default=None, help=f"master seed (default ${SEED_ENV}, else {MASTER_SEED})"
    )
    p_sweep.add_argument("--groups", help="comma-separated catalog names (default: all)")
    p_sweep.add_argument("--inner", type=int, default=25, help="random inner automorphisms per field")
    p_sweep.add_argument("--compose", type=int, default=0,
                         help="random compositions per field (off by default)")
    p_sweep.add_argument("--subst", type=int, default=25,
                         help="random substitutions per field (elementary abelian groups)")
    p_sweep.add_argument("--prime-only", action="store_true", help="skip the quadratic extension pass")
    p_sweep.add_argument("--full-check", action="store_true", help=FULL_CHECK_HELP)
    p_sweep.add_argument("--format", choices=("text", "json"), default="text")

    p_jen = sub.add_parser("jennings", help="print the layer table for a group")
    _group_args(p_jen)
    p_jen.add_argument(
        "--field",
        metavar="p[,n]",
        help="optional; the table is field independent, the characteristic is checked",
    )
    p_jen.add_argument("--format", choices=("text", "json"), default="text")

    p_gl = sub.add_parser("gl-check", help="check det^(p-1) on the truncated polynomial ring")
    p_gl.add_argument("--p", type=int, required=True)
    p_gl.add_argument("--m", type=int, required=True, help="number of variables")
    p_gl.add_argument("--n", type=int, default=1, help="field extension degree")
    p_gl.add_argument("--modulus", default=None, help="modulus literal, e.g. 't^2+1'")
    p_gl.add_argument("--count", type=int, default=200, help="random invertible matrices to sample")
    p_gl.add_argument("--seed", type=int, default=None)
    p_gl.add_argument("--format", choices=("text", "json"), default="text")

    sub.add_parser("catalog", help="list the built-in groups")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (RunStageError, ValueError, KeyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "run":
        name, presentation = _group_source(args)
        p, n, modulus = _split_field(args.field) if args.field is not None else (None, 1, None)
        config = RunConfig(
            group=name,
            presentation=presentation,
            p=p,
            n=n,
            modulus=modulus,
            auto_specs=tuple(_load_specs(args.auto)),
            include_stored=not args.no_stored,
            seed=args.seed,
        )
        report = run(*prepare(config), full_check=args.full_check)
        return _emit(args, report.as_dict, report.render_text, report.verdict)

    if args.command == "sweep":
        groups = _group_names(args.groups) if args.groups is not None else None
        report = sweep(
            seed=args.seed,
            groups=groups,
            inner_count=args.inner,
            compose_count=args.compose,
            subst_count=args.subst,
            extension_degree=1 if args.prime_only else 2,
            full_check=args.full_check,
        )
        return _emit(args, report.as_dict, report.render_text, report.verdict)

    if args.command == "jennings":
        group = load_group(*_group_source(args))
        if args.field is not None:
            build_group_field(group, *_split_field(args.field))
        basis = build_jennings_basis(group)
        pbw = basis.jq_dimension_check()["pbw_dims"]
        match = series_definitions_agree(group)
        data = {
            "group": {"name": group.name or "custom", "order": int(group.order), "p": int(group.p)},
            "layers": basis.layer_summary(),
            "gr_dims": [int(d) for d in basis.filtration.gr_dims],
            "pbw_coefficients": [int(c) for c in pbw],
            "socle_degree": int(basis.filtration.socle_degree),
            "series_definitions_agree": bool(match),
        }

        def text() -> str:
            lines = [f"group {data['group']['name']} (order {group.order}, p = {group.p})"]
            for layer in data["layers"]:
                lifts = ", ".join(layer["lifts"]) if layer["lifts"] else "-"
                lines.append(f"  r={layer['r']}: d_r={layer['d_r']}  lifts: {lifts}")
            lines.append(f"  graded dimensions: {data['gr_dims']}")
            lines.append(f"  socle degree: {data['socle_degree']}")
            lines.append(f"  recursive = definitional series: {'yes' if match else 'NO'}")
            return "\n".join(lines)

        return _emit(args, lambda: data, text, match)

    if args.command == "gl-check":
        report = gl_check(p=args.p, m=args.m, n=args.n, count=args.count, seed=args.seed, modulus=args.modulus)

        def text() -> str:
            checked = ", ".join(f"{k}={v}" for k, v in report["checked"].items())
            return (f"GL_{args.m} over GF({args.p}^{args.n}): {checked}\n"
                    f"verdict: {'PASS' if report['verdict'] else 'FAIL'}")

        return _emit(args, lambda: report, text, report["verdict"])

    if args.command == "catalog":
        sys.stdout.write(catalog_table() + "\n")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
