"""The benchmark's workloads: their operations, known answers and verdicts.

An operation is one fresh Python process.  ``call`` says what it runs:
``{"cli": argv}`` is ``python -m qkring argv``; ``{"func": "module.name",
"args": [...], "kwargs": {...}}`` is one library call.  ``expect`` is the
known answer, computed here from the paper's statements, never by the
code under test; ``summarize`` turns the process's stdout into the same
shape so that a verdict is one comparison.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass

WORKLOADS = ("certify", "presentation", "truncation")

CERTIFY_N = (3, 4, 5, 6)
PRESENTATION_N = 7
BASIS_CHANGE_N = 8
# The truncation cells are fixed, not drawn from the seed: SNF time swings
# about 100x between neighbouring N (0.03 s at (6,6), 3.5 s at (6,4)), so a
# seeded draw of cells would make runs under different seeds incomparable.
TABLE = (5, 8)  # table --n-max 5 --N-max 8
ORDERS = ((6, 4), (7, 3))


@dataclass(frozen=True)
class Op:
    name: str
    call: dict
    expect: dict


def verify_check_count(n: int, suite: str, suites) -> int:
    """Number of checks ``qkring verify`` must report, counted from the paper.

    With k = 2^(n-2) and b = k + 3 basis elements:
    relations: the five presentation relations, relation 3, the odd
    identities d_i - 2 = psi^i(phi) for i < k, and d_k - d_0 = psi^k(phi)
    from n = 4 on; oracle: b^2 structure constants, b^2 orthogonality
    pairs, two Adams identities, the unimodular basis change and b^2
    embedding pairs; restriction: the homomorphism, six relation images,
    g_{2k}(w) and psi^i(w) for i <= 2k; confluence: seven critical
    monomials.  ``suites`` is ``qkring.cli.SUITES``: a suite there that has
    no count here is an error, so the two cannot drift apart silently.
    """
    k = 2 ** (n - 2)
    b = k + 3
    counts = {
        "relations": 6 + k // 2 + (1 if n >= 4 else 0),
        "oracle": 3 * b * b + 3,
        "redundancy": 1,
        "minimality": 1,
        "restriction": 1 + 6 + 1 + 2 * k,
        "confluence": 7,
    }
    unknown = set(suites) - set(counts) - {"all"}
    if unknown or "all" not in suites:
        raise ValueError(f"no known check count for suites {sorted(unknown)}; "
                         "qkring.cli.SUITES changed")
    return sum(counts.values()) if suite == "all" else counts[suite]


def library_certifiers(qkring):
    """Every ``verify_*`` function of the library whose first parameter is n.

    Found by import, so a certifier added to the library joins the
    ``presentation`` workload.  The repring oracles (they take GroupParams)
    and ``adams.verify_g_identity`` (it takes k) are not of this kind.
    """
    import importlib
    import pkgutil

    found = []
    for info in sorted(pkgutil.iter_modules(qkring.__path__), key=lambda i: i.name):
        if info.name.startswith("_"):  # __main__ runs the CLI on import
            continue
        module = importlib.import_module(f"qkring.{info.name}")
        for name, obj in vars(module).items():
            if (name.startswith("verify_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                params = list(inspect.signature(obj).parameters)
                if params and params[0] == "n":
                    found.append((info.name, name, "seed" in params))
    return found


def build(workload: str, seed: int, qkring):
    """The operations of one pass over ``workload``, in order."""
    from qkring.cli import SUITES

    ops = []
    if workload == "certify":
        suite = "all"
        for n in CERTIFY_N:
            ops.append(Op(f"verify --n {n} --suite {suite}",
                          {"cli": ["verify", "--n", str(n), "--suite", suite,
                                   "--format", "json"]},
                          {"n": n, "suite": suite, "passed": True,
                           "checks": verify_check_count(n, suite, SUITES)}))
    elif workload == "presentation":
        n = PRESENTATION_N
        for module, name, takes_seed in library_certifiers(qkring):
            kwargs = {"seed": seed} if takes_seed else {}
            ops.append(Op(f"{module}.{name}({n})",
                          {"func": f"{module}.{name}", "args": [n], "kwargs": kwargs},
                          {"passed": True}))
        m = BASIS_CHANGE_N
        b = 2 ** (m - 2) + 3
        ops.append(Op(f"kring.basis_change_matrix({m})",
                      {"func": "kring.basis_change_matrix", "args": [m], "kwargs": {}},
                      {"passed": True, "rows": b, "cols": b}))
    elif workload == "truncation":
        n_max, N_max = TABLE
        ops.append(Op(f"table --n-max {n_max} --N-max {N_max}",
                      {"cli": ["table", "--n-max", str(n_max), "--N-max", str(N_max),
                               "--format", "json"]},
                      {"orders": {f"{n},{N}": f"2^{n + 2 * N}"
                                  for n in range(3, n_max + 1)
                                  for N in range(N_max + 1)}}))
        for n, N in ORDERS:
            ops.append(Op(f"order --n {n} --N {N}",
                          {"cli": ["order", "--n", str(n), "--N", str(N),
                                   "--format", "json"]},
                          {"n": n, "N": N, "order": f"2^{n + 2 * N}"}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def summarize(op: Op, stdout: str) -> dict:
    """The answer an operation gave, in the shape of its ``expect``."""
    lines = stdout.strip().splitlines()
    if not lines:
        return {}
    data = json.loads(lines[-1])
    if "func" in op.call:
        return data
    verb = op.call["cli"][0]
    if verb == "verify":
        return {"n": data["n"], "suite": data["suite"],
                "passed": data["all_passed"] is True
                and all(c["passed"] is True for c in data["checks"]),
                "checks": len(data["checks"])}
    if verb == "order":
        return {"n": data["n"], "N": data["N"], "order": data["order"]}
    if verb == "table":
        return {"orders": {f"{c['n']},{c['N']}": c["order"] for c in data["cells"]}}
    raise ValueError(f"no summary for verb {verb!r}")


def verdict(op: Op, returncode, stdout: str):
    """None when the operation gave its known answer, else the reason."""
    if returncode is None:
        return "timed out"
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        got = summarize(op, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"
    if got != op.expect:
        return f"answer {got} differs from known answer {op.expect}"
    return None
