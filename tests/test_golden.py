"""Whole-output golden tests: every CLI verb at small sizes, text and JSON,
the help of the top-level parser and of each verb, and the usage errors.

Each case runs ``qkring.cli.main`` in-process and compares the whole of its
stdout (stderr for a usage error), byte for byte, with
``tests/golden/<case>.<ext>``.  Help and usage text is produced with
``COLUMNS=80``, because argparse wraps it to the terminal width.  After an
intended change of output, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
from pathlib import Path
from unittest import mock

import pytest

from qkring import cli

GOLDEN = Path(__file__).parent / "golden"
FORMATS = {"text": "txt", "json": "json"}

CASES = {
    "present_n3": ["present", "--n", "3"],
    "present_n4": ["present", "--n", "4"],
    **{f"verify_n3_{suite}": ["verify", "--n", "3", "--suite", suite]
       for suite in cli.SUITES},
    "verify_n4_all": ["verify", "--n", "4", "--suite", "all"],
    "verify_n5_all": ["verify", "--n", "5", "--suite", "all"],
    "order_n3_N0": ["order", "--n", "3", "--N", "0"],
    "order_n4_N1": ["order", "--n", "4", "--N", "1"],
    "table_n4_N1": ["table", "--n-max", "4", "--N-max", "1"],
    "adams_i3": ["adams", "--i", "3"],
    "g_k2": ["g", "--k", "2"],
    "cohomology_p4_k4": ["cohomology", "--p", "4", "--k", "4"],
    "consistency_n3_N0": ["consistency", "--n", "3", "--N", "0"],
}

HELP = {"help_qkring": ["--help"],
        **{f"help_{verb}": [verb, "--help"] for verb in
           ("present", "verify", "order", "table", "adams", "g", "cohomology",
            "consistency")}}

# each bounded option just out of range on both sides, then the parser's own errors
USAGE = {
    "usage_n_low": ["order", "--n", "2", "--N", "0"],
    "usage_n_high": ["order", "--n", "11", "--N", "0"],
    "usage_N_low": ["order", "--n", "3", "--N", "-1"],
    "usage_N_high": ["order", "--n", "3", "--N", "17"],
    "usage_i_low": ["adams", "--i", "0"],
    "usage_i_high": ["adams", "--i", "513"],
    "usage_k_low": ["g", "--k", "1"],
    "usage_k_high": ["g", "--k", "513"],
    "usage_p_low": ["cohomology", "--p", "-1", "--k", "2"],
    "usage_p_high": ["cohomology", "--p", "1000001", "--k", "2"],
    "usage_n_max_low": ["table", "--n-max", "2"],
    "usage_n_max_high": ["table", "--n-max", "11"],
    "usage_N_max_low": ["table", "--N-max", "-1"],
    "usage_N_max_high": ["table", "--N-max", "17"],
    "usage_p_and_k_out": ["cohomology", "--p", "-1", "--k", "1"],  # --k is named
    "usage_unknown_verb": ["nonsense"],
    "usage_bad_suite": ["verify", "--n", "3", "--suite", "bogus"],
    "usage_bad_format": ["order", "--n", "3", "--N", "0", "--format", "xml"],
    "usage_missing_option": ["order", "--n", "3"],
    "usage_not_an_int": ["order", "--n", "x", "--N", "0"],
}


def run(argv) -> tuple:
    """Exit code, stdout and stderr of ``main(argv)`` with ``COLUMNS=80``."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", CASES)
def test_golden(case, fmt):
    expected = (GOLDEN / f"{case}.{FORMATS[fmt]}").read_bytes()
    assert run(CASES[case] + ["--format", fmt]) == (0, expected, b"")


@pytest.mark.parametrize("case", HELP)
def test_help_golden(case):
    assert run(HELP[case]) == (0, (GOLDEN / f"{case}.txt").read_bytes(), b"")


@pytest.mark.parametrize("case", USAGE)
def test_usage_error_golden(case):
    assert run(USAGE[case]) == (2, b"", (GOLDEN / f"{case}.txt").read_bytes())


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        for fmt, ext in FORMATS.items():
            (GOLDEN / f"{case}.{ext}").write_bytes(run(argv + ["--format", fmt])[1])
    for case, argv in HELP.items():
        (GOLDEN / f"{case}.txt").write_bytes(run(argv)[1])
    for case, argv in USAGE.items():
        (GOLDEN / f"{case}.txt").write_bytes(run(argv)[2])
