"""Run one benchmark operation in this process and print its answer as JSON.

Usage: python bench/operation.py CALL_JSON

CALL_JSON is an operation's ``call`` (see workloads.py).  A library call
prints ``{"passed": ...}``, plus the matrix shape for
``basis_change_matrix``; a CLI call prints what the CLI prints.
"""

from __future__ import annotations

import importlib
import json
import sys


def run(call: dict) -> int:
    """Perform ``call`` and return the process exit code."""
    if "cli" in call:
        from qkring.cli import main

        return main(call["cli"])
    module_name, func_name = call["func"].split(".")
    module = importlib.import_module(f"qkring.{module_name}")
    result = getattr(module, func_name)(*call["args"], **call["kwargs"])
    if isinstance(result, bool):
        answer = {"passed": result}
    elif hasattr(result, "all_passed"):
        answer = {"passed": result.all_passed}
    else:  # basis_change_matrix: (rows, unimodular)
        rows, unimodular = result
        answer = {"passed": unimodular, "rows": len(rows), "cols": len(rows[0])}
    print(json.dumps(answer))
    return 0


if __name__ == "__main__":
    sys.exit(run(json.loads(sys.argv[1])))
