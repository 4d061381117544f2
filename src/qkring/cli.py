"""Command-line surface: presentations, verification suites, order tables.

Exit codes: 0 on success (or all checks passing), 1 when a verification
fails or a table cell mismatches, 2 on usage errors.  ``--format json``
emits a single JSON document on stdout; text mode prints one result per
line.  Output ordering is fixed so golden tests stay stable.

``verify`` merges the ``Report``s of each suite's certifiers, which one
table lists, in ``SUITES`` order for ``all``; it builds no check itself.

Each verb imports the modules it calls, inside its handler, and looks
names up on those module objects when it runs: ``order`` and ``table`` load
truncation (with intmatrix and repring), ``adams`` and ``g`` load adams,
``cohomology`` and ``consistency`` load cohomology, ``present`` loads kring
and repring, and ``verify`` loads every module but cohomology and
truncation.  A module's own imports come along, so a verb may compile code
it does not run: ``present`` compiles intmatrix, which kring imports for
the embedding and minimality certificates, and ``cohomology`` compiles
truncation (with intmatrix, repring, intmath and freemodule), which
cohomology imports for ``consistency``, though it runs only ``h_group``.
``tests/test_imports.py`` pins each verb's module set.
"""

from __future__ import annotations

import argparse
import json
import sys

from .report import Report, merge

SUITES = ("relations", "oracle", "redundancy", "minimality", "restriction",
          "confluence", "all")


def _emit(args, payload: dict, text_lines):
    if args.format == "json":
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _cmd_present(args) -> int:
    from . import kring, repring

    rset = kring.relations_for(args.n)
    params = repring.GroupParams(args.n)
    lines = [
        f"K-ring presentation for Q_{{2^{args.n}}} (group order {params.group_order})",
        "generators: v1, v2, phi",
    ]
    rel_json = []
    for rel in rset.relations:
        number = rel.label.removeprefix("relation")
        lines.append(f"relation {number}: {rel}")
        rel_json.append({
            "label": number,
            "lhs": kring.mono_name(rel.pattern),
            "rhs": kring.fp_format(dict(rel.rhs)),
        })
    _emit(args, {"n": args.n, "k": params.k,
                 "generators": ["v1", "v2", "phi"],
                 "relations": rel_json}, lines)
    return 0


def _run_suite(n: int, suite: str) -> Report:
    from . import adams, kring, lens, repring

    params = repring.GroupParams(n)
    # each suite's certifiers, with the one argument each takes
    certifiers = {
        "relations": ((kring.verify_relations_in_R, n),),
        "oracle": ((repring.verify_structure_constants, params),
                   (repring.verify_orthogonality, params),
                   (adams.verify_oracles, params.k),
                   (kring.verify_embedding, n)),
        "redundancy": ((kring.verify_relation3_redundant, n),),
        "minimality": ((kring.verify_minimality_witness, n),),
        "restriction": ((lens.verify_restriction_hom, n), (lens.verify_relations_vanish, n)),
        "confluence": ((kring.verify_local_confluence, n),),
    }
    names = SUITES[:-1] if suite == "all" else (suite,)
    return merge(f"suite {suite}, n={n}",
                 *(certify(arg) for name in names for certify, arg in certifiers[name]))


def _cmd_verify(args) -> int:
    report = _run_suite(args.n, args.suite)
    lines = report.lines()
    lines.append(f"{'all checks passed' if report.all_passed else 'FAILURES present'}"
                 f" (n={args.n}, suite={args.suite}, {len(report.checks)} checks)")
    payload = report.to_json()
    payload.update({"n": args.n, "suite": args.suite})
    _emit(args, payload, lines)
    return 0 if report.all_passed else 1


def _cmd_order(args) -> int:
    from . import truncation

    cell = truncation.table_cell(args.n, args.N)
    lines = [
        f"order(phi) in the truncation (n={args.n}, N={args.N}): "
        f"{cell.order} = {truncation.pow2_str(cell.order)}",
        f"expected 2^(n+2N) = {cell.expected} = {truncation.pow2_str(cell.expected)}",
        f"match: {'yes' if cell.match else 'NO'}",
    ]
    _emit(args, cell.to_json(), lines)
    return 0 if cell.match else 1


def _cmd_table(args) -> int:
    from . import truncation

    cells = truncation.corollary2_table(args.n_max, args.N_max)
    all_match = all(c.match for c in cells)
    header = "n\\N " + "".join(f"{N:>8}" for N in range(args.N_max + 1))
    lines = [header]
    for n in range(3, args.n_max + 1):
        row = [c for c in cells if c.n == n]
        lines.append(f"{n:<4}" + "".join(
            f"{truncation.pow2_str(c.order):>8}" for c in row))
    lines.append("all cells match expected 2^(n+2N)" if all_match
                 else "MISMATCH against expected 2^(n+2N)")
    payload = {"n_max": args.n_max, "N_max": args.N_max,
               "cells": [c.to_json() for c in cells], "all_match": all_match}
    _emit(args, payload, lines)
    return 0 if all_match else 1


def _cmd_adams(args) -> int:
    from . import adams

    poly = adams.psi_series(args.i)
    _emit(args, {"i": args.i, "poly": poly.to_pairs()},
          [f"psi^{args.i} = {poly}"])
    return 0


def _cmd_g(args) -> int:
    from . import adams

    poly = adams.g_poly(args.k)
    _emit(args, {"k": args.k, "poly": poly.to_pairs()},
          [f"g_{2 * args.k} = {poly}"])
    return 0


def _cmd_cohomology(args) -> int:
    from . import cohomology

    group = cohomology.h_group(args.p, args.k)
    _emit(args, {"p": args.p, "k": args.k, "group": str(group),
                 "factors": list(group.factors)},
          [f"H^{args.p}(BQ_{4 * args.k}; Z) = {group}"])
    return 0


def _cmd_consistency(args) -> int:
    from . import cohomology

    report = cohomology.consistency_report(args.n, args.N)
    _emit(args, report.to_json(), report.lines())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkring",
        description="Exact computations in R(Q_{2^n}) and the K-ring of its "
                    "classifying space.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("present", help="print the generators and minimal relations")
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_present)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--suite", choices=SUITES, default="all")
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("order", help="order of phi in one truncated ring")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("table", help="grid of orders of phi with expected 2^(n+2N)")
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--N-max", type=int, default=3)
    add_format(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("adams", help="print the Adams polynomial psi^i")
    p.add_argument("--i", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_adams)

    p = sub.add_parser("g", help="print the relation polynomial g_{2k}")
    p.add_argument("--k", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_g)

    p = sub.add_parser("cohomology", help="integral cohomology group of BQ_{4k}")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("consistency", help="check truncation orders against cohomology")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_consistency)
    return parser


def _validate(args) -> str | None:
    # values outside these bounds exit with 2; the library itself is unbounded.
    # The largest runs inside them, two runs each on a 2-core Xeon VM with
    # Python 3.11.7: the whole grid, table --n-max 10 --N-max 16, 60-61 s at
    # 24 MB peak RSS, and verify --n 10 --suite all 120-123 s at 366 MB.
    checks = [
        ("n", lambda v: 3 <= v <= 10, "--n must be in [3, 10]"),
        ("N", lambda v: 0 <= v <= 16, "--N must be in [0, 16]"),
        ("i", lambda v: 1 <= v <= 512, "--i must be in [1, 512]"),
        ("k", lambda v: 2 <= v <= 512, "--k must be in [2, 512]"),
        ("p", lambda v: 0 <= v <= 10 ** 6, "--p must be in [0, 10^6]"),
        ("n_max", lambda v: 3 <= v <= 10, "--n-max must be in [3, 10]"),
        ("N_max", lambda v: 0 <= v <= 16, "--N-max must be in [0, 16]"),
    ]
    for name, ok, message in checks:
        if hasattr(args, name) and not ok(getattr(args, name)):
            return message
    return None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    problem = _validate(args)
    if problem is not None:
        print(problem, file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
