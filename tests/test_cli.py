import json
import subprocess
import sys

import pytest

from qkring import cli


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "qkring", *args],
                          capture_output=True, text=True)


def test_present_text():
    result = run_cli("present", "--n", "4")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[1] == "generators: v1, v2, phi"
    assert "relation 1: v1^2 = -2*v1" in lines
    assert "relation 4: v1*phi = -2*v1" in lines
    assert "relation 5: v2*phi = phi^3 + 6*phi^2 + 8*phi - 2*v2" in lines
    assert "relation 6: v1*v2 = phi^4 + 8*phi^3 + 20*phi^2 + 16*phi - 2*v2" in lines


def test_present_n3_relation6():
    result = run_cli("present", "--n", "3")
    assert result.returncode == 0
    assert "relation 6: v1*v2 = phi^2 + 4*phi - 2*v1 - 2*v2" in result.stdout


def test_present_json():
    result = run_cli("present", "--n", "3", "--format", "json")
    data = json.loads(result.stdout)
    assert data["n"] == 3 and data["k"] == 2
    assert data["generators"] == ["v1", "v2", "phi"]
    labels = [rel["label"] for rel in data["relations"]]
    assert labels == ["1", "2", "4", "5", "6"]


def test_order_text_and_json_agree():
    text = run_cli("order", "--n", "3", "--N", "0")
    assert text.returncode == 0
    assert "8" in text.stdout and "2^3" in text.stdout
    assert "match: yes" in text.stdout
    data = json.loads(run_cli("order", "--n", "3", "--N", "0",
                              "--format", "json").stdout)
    assert data == {"n": 3, "N": 0, "order": "2^3", "expected": "2^3",
                    "match": True}


def test_table():
    result = run_cli("table", "--n-max", "4", "--N-max", "1")
    assert result.returncode == 0
    assert "all cells match expected 2^(n+2N)" in result.stdout
    data = json.loads(run_cli("table", "--n-max", "4", "--N-max", "1",
                              "--format", "json").stdout)
    assert data["all_match"] is True
    assert len(data["cells"]) == 4
    assert {"n": 3, "N": 1, "order": "2^5", "expected": "2^5",
            "match": True} in data["cells"]
    # text grid shows the same exponents as the json document
    for cell in data["cells"]:
        assert cell["order"] in result.stdout


def test_adams_and_g_json():
    data = json.loads(run_cli("adams", "--i", "3", "--format", "json").stdout)
    assert data == {"i": 3, "poly": [[1, "9"], [2, "6"], [3, "1"]]}
    data = json.loads(run_cli("g", "--k", "2", "--format", "json").stdout)
    assert data == {"k": 2, "poly": [[1, "8"], [2, "6"], [3, "1"]]}


def test_adams_text():
    result = run_cli("adams", "--i", "2")
    assert result.stdout.strip() == "psi^2 = phi^2 + 4*phi"


def test_cohomology():
    result = run_cli("cohomology", "--p", "4", "--k", "4")
    assert result.stdout.strip() == "H^4(BQ_16; Z) = Z_16"
    data = json.loads(run_cli("cohomology", "--p", "5", "--k", "2",
                              "--format", "json").stdout)
    assert data == {"p": 5, "k": 2, "group": "0", "factors": []}


def test_consistency():
    result = run_cli("consistency", "--n", "3", "--N", "0")
    assert result.returncode == 0
    assert "match: yes" in result.stdout
    data = json.loads(run_cli("consistency", "--n", "3", "--N", "0",
                              "--format", "json").stdout)
    assert data["phi_match"] is True
    assert data["torsion"] == "128"


@pytest.mark.parametrize("suite", ["relations", "redundancy", "minimality",
                                   "confluence", "restriction"])
def test_verify_suites_pass(suite):
    result = run_cli("verify", "--n", "3", "--suite", suite)
    assert result.returncode == 0
    assert "all checks passed" in result.stdout
    assert "FAIL" not in result.stdout


def test_verify_json():
    result = run_cli("verify", "--n", "4", "--suite", "redundancy",
                     "--format", "json")
    data = json.loads(result.stdout)
    assert data["all_passed"] is True
    assert data["n"] == 4 and data["suite"] == "redundancy"


def test_usage_errors_exit_2():
    assert run_cli("order", "--n", "2", "--N", "0").returncode == 2
    assert run_cli("order", "--n", "3", "--N", "-1").returncode == 2
    assert run_cli("adams", "--i", "0").returncode == 2
    assert run_cli("nonsense").returncode == 2
    assert run_cli("verify", "--n", "3", "--suite", "bogus").returncode == 2
    assert run_cli("table", "--n-max", "1").returncode == 2


def test_reader_that_stops_early_gets_no_traceback():
    # about 260 KB of text, far above a pipe's buffer, so the print meets a
    # closed pipe after the reader takes one line
    argv = [sys.executable, "-m", "qkring", "verify", "--n", "8", "--suite", "all"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "PASS relation1\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert "Traceback" not in stderr


def test_adversarial_flags_do_not_crash():
    for args in (["order", "--n", "notanumber", "--N", "0"],
                 ["adams", "--i", "999999999999999999999"],
                 ["g", "--k", "-5"],
                 ["cohomology", "--p", "-3", "--k", "2"]):
        result = run_cli(*args)
        assert result.returncode in (1, 2)
        assert "Traceback" not in result.stderr


# each integer option: lowest and highest accepted value, and the message
# _validate gives outside them
BOUNDS = {
    "--n": (3, 10, "--n must be in [3, 10]"),
    "--N": (0, 16, "--N must be in [0, 16]"),
    "--i": (1, 512, "--i must be in [1, 512]"),
    "--k": (2, 512, "--k must be in [2, 512]"),
    "--p": (0, 10 ** 6, "--p must be in [0, 10^6]"),
    "--n-max": (3, 10, "--n-max must be in [3, 10]"),
    "--N-max": (0, 16, "--N-max must be in [0, 16]"),
}
TAKES = {"present": ["--n"], "verify": ["--n"], "order": ["--n", "--N"],
         "table": ["--n-max", "--N-max"], "adams": ["--i"], "g": ["--k"],
         "cohomology": ["--p", "--k"], "consistency": ["--n", "--N"]}
VERB_OPTIONS = [(verb, option) for verb, options in TAKES.items() for option in options]


@pytest.mark.parametrize("verb,option", VERB_OPTIONS,
                         ids=[f"{verb}{option}" for verb, option in VERB_OPTIONS])
def test_bounds_of_every_option_of_every_verb(verb, option):
    # only argument parsing runs, so the largest values cost nothing
    low, high, message = BOUNDS[option]
    others = [arg for other in TAKES[verb] if other != option
              for arg in (other, str(BOUNDS[other][0]))]
    for value, expected in ((low - 1, message), (low, None), (high, None),
                            (high + 1, message)):
        args = cli.build_parser().parse_args([verb, option, str(value), *others])
        assert cli._validate(args) == expected, (verb, option, value)
