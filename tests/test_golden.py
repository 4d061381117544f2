"""Whole-output golden tests: every CLI verb at small sizes, text and JSON.

Each case runs ``qkring.cli.main`` in-process and compares the whole of its
stdout, byte for byte, with ``tests/golden/<case>.<format>``.  After an
intended change of output, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

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
    "order_n3_N0": ["order", "--n", "3", "--N", "0"],
    "order_n4_N1": ["order", "--n", "4", "--N", "1"],
    "table_n4_N1": ["table", "--n-max", "4", "--N-max", "1"],
    "adams_i3": ["adams", "--i", "3"],
    "g_k2": ["g", "--k", "2"],
    "cohomology_p4_k4": ["cohomology", "--p", "4", "--k", "4"],
    "consistency_n3_N0": ["consistency", "--n", "3", "--N", "0"],
}


def run(argv, fmt: str) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--format", fmt])
    assert code == 0
    return out.getvalue().encode()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", CASES)
def test_golden(case, fmt):
    expected = (GOLDEN / f"{case}.{FORMATS[fmt]}").read_bytes()
    assert run(CASES[case], fmt) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        for fmt, ext in FORMATS.items():
            (GOLDEN / f"{case}.{ext}").write_bytes(run(argv, fmt))
