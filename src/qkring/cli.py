"""Command-line surface: presentations, verification suites, order tables.

Exit codes: 0 on success (or all checks passing), 1 when a verification
fails or a table cell mismatches, 2 on usage errors, 141 when the reader
closes stdout early.  ``--format json`` emits a single JSON document on
stdout; text mode prints one result per line.  Output ordering is fixed so
golden tests stay stable.

Two tables declare the surface: ``OPTIONS`` gives each integer option's
bounds and default, and ``VERBS`` each verb's help line, handler and
options.  A handler returns ``(payload, text lines, passed)``; ``main``
alone prints, and exits 1 when ``passed`` is false.  ``verify`` merges the
``Report``s of each suite's certifiers, which one table lists, in
``SUITES`` order for ``all``; it builds no check itself.

Each verb imports the modules it calls, inside its handler, and looks
names up on those module objects when it runs: ``order``, ``table`` and
``consistency`` load truncation (with intmatrix and repring, and
``consistency`` cohomology too), ``adams`` and ``g`` load adams,
``cohomology`` loads cohomology alone, ``present`` loads kring and repring,
and ``verify`` loads every module but cohomology and truncation.  A
module's own imports come along, so a verb may compile code it does not
run: ``present`` compiles intmatrix, which kring imports for the embedding
and minimality certificates.  ``tests/test_imports.py`` pins each verb's
module set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .report import Report, merge

SUITES = ("relations", "oracle", "redundancy", "minimality", "restriction",
          "confluence", "all")


def _cmd_present(args):
    from . import kring, repring

    rset = kring.relations_for(args.n)
    params = repring.GroupParams(args.n)
    lines = [f"K-ring presentation for Q_{{2^{args.n}}} (group order {params.group_order})",
             "generators: v1, v2, phi"]
    rel_json = []
    for rel in rset.relations:
        number = rel.label.removeprefix("relation")
        lines.append(f"relation {number}: {rel}")
        rel_json.append({"label": number, "lhs": kring.mono_name(rel.pattern),
                         "rhs": kring.fp_format(dict(rel.rhs))})
    return ({"n": args.n, "k": params.k, "generators": ["v1", "v2", "phi"],
             "relations": rel_json}, lines, True)


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


def _cmd_verify(args):
    report = _run_suite(args.n, args.suite)
    lines = report.lines()
    lines.append(f"{'all checks passed' if report.all_passed else 'FAILURES present'}"
                 f" (n={args.n}, suite={args.suite}, {len(report.checks)} checks)")
    return {**report.to_json(), "n": args.n, "suite": args.suite}, lines, report.all_passed


def _cmd_order(args):
    from . import truncation

    cell = truncation.table_cell(args.n, args.N)
    lines = [
        f"order(phi) in the truncation (n={args.n}, N={args.N}): "
        f"{cell.order} = {truncation.pow2_str(cell.order)}",
        f"expected 2^(n+2N) = {cell.expected} = {truncation.pow2_str(cell.expected)}",
        f"match: {'yes' if cell.match else 'NO'}",
    ]
    return cell.to_json(), lines, cell.match


def _cmd_table(args):
    from . import truncation

    cells = truncation.corollary2_table(args.n_max, args.N_max)
    all_match = all(c.match for c in cells)
    lines = ["n\\N " + "".join(f"{N:>8}" for N in range(args.N_max + 1))]
    for n in range(3, args.n_max + 1):
        row = [c for c in cells if c.n == n]
        lines.append(f"{n:<4}" + "".join(
            f"{truncation.pow2_str(c.order):>8}" for c in row))
    lines.append("all cells match expected 2^(n+2N)" if all_match
                 else "MISMATCH against expected 2^(n+2N)")
    return ({"n_max": args.n_max, "N_max": args.N_max,
             "cells": [c.to_json() for c in cells], "all_match": all_match},
            lines, all_match)


def _cmd_adams(args):
    from . import adams

    poly = adams.psi_series(args.i)
    return {"i": args.i, "poly": poly.to_pairs()}, [f"psi^{args.i} = {poly}"], True


def _cmd_g(args):
    from . import adams

    poly = adams.g_poly(args.k)
    return {"k": args.k, "poly": poly.to_pairs()}, [f"g_{2 * args.k} = {poly}"], True


def _cmd_cohomology(args):
    from . import cohomology

    group = cohomology.h_group(args.p, args.k)
    return ({"p": args.p, "k": args.k, "group": str(group),
             "factors": list(group.factors)},
            [f"H^{args.p}(BQ_{4 * args.k}; Z) = {group}"], True)


def _cmd_consistency(args):
    from . import truncation

    report = truncation.consistency_report(args.n, args.N)
    return report.to_json(), report.lines(), report.passed


# Values outside these bounds exit with 2; the library itself is unbounded.
# The largest runs inside them, on a 2-core VM with Python 3.11.7 and no
# bytecode cache: the whole grid, table --n-max 10 --N-max 16, 9.6-11.4 s at
# 23 MB peak RSS (three runs), and verify --n 10 --suite all 84-88 s at
# 162-173 MB (text and JSON, one run each).
# option: (lowest, highest, highest as printed, default or None if required)
OPTIONS = {
    "--n": (3, 10, "10", None),
    "--N": (0, 16, "16", None),
    "--i": (1, 512, "512", None),
    "--k": (2, 512, "512", None),
    "--p": (0, 10 ** 6, "10^6", None),
    "--n-max": (3, 10, "10", 6),
    "--N-max": (0, 16, "16", 3),
}

# verb: (help line, handler, integer options in order)
VERBS = {
    "present": ("print the generators and minimal relations", _cmd_present, ("--n",)),
    "verify": ("run a verification suite", _cmd_verify, ("--n",)),
    "order": ("order of phi in one truncated ring", _cmd_order, ("--n", "--N")),
    "table": ("grid of orders of phi with expected 2^(n+2N)", _cmd_table,
              ("--n-max", "--N-max")),
    "adams": ("print the Adams polynomial psi^i", _cmd_adams, ("--i",)),
    "g": ("print the relation polynomial g_{2k}", _cmd_g, ("--k",)),
    "cohomology": ("integral cohomology group of BQ_{4k}", _cmd_cohomology,
                   ("--p", "--k")),
    "consistency": ("check truncation orders against cohomology", _cmd_consistency,
                    ("--n", "--N")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkring",
        description="Exact computations in R(Q_{2^n}) and the K-ring of its "
                    "classifying space.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (help_line, handler, options) in VERBS.items():
        p = sub.add_parser(verb, help=help_line)
        for option in options:
            low, _, printed, default = OPTIONS[option]
            bounds = f"in [{low}, {printed}]"
            p.add_argument(option, type=int, required=default is None, default=default,
                           help=bounds if default is None else f"{bounds}, default {default}")
        if verb == "verify":
            p.add_argument("--suite", choices=SUITES, default="all")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=handler)
    return parser


def _validate(args) -> str | None:
    """The first out-of-bounds option, in ``OPTIONS`` order, as a message."""
    for option, (low, high, printed, _) in OPTIONS.items():
        value = getattr(args, option.lstrip("-").replace("-", "_"), None)
        if value is not None and not low <= value <= high:
            return f"{option} must be in [{low}, {printed}]"
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
        payload, lines, passed = args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(json.dumps(payload) if args.format == "json" else "\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:  # the reader stopped early, as `| head` does
        # stdout goes to devnull, so the flush at exit raises no second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a process SIGPIPE ends
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
