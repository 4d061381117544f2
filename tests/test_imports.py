"""The import graph: ``import qkring`` loads no submodule, each CLI verb
loads exactly the modules it runs, and no qkring process loads
``dataclasses`` or ``inspect``.  Every export is reached by code that a
verb, a certifier or a benchmark workload runs.

Each case starts a fresh interpreter, so modules that earlier tests
imported do not count.  A new top-level import that pulls in another
module fails here and names that module.
"""

import ast
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qkring

SRC = Path(__file__).resolve().parent.parent / "src"
BENCH = SRC.parent / "bench"

# the package's exports, by home module
EXPORTS = {
    "adams": ["g_poly", "psi_oracles", "psi_series", "verify_oracles"],
    "cohomology": ["CohGroup", "h_group", "predicted_reduced_order"],
    "intmath": ["CyclotomicInt", "IntPoly"],
    "intmatrix": ["SmithForm", "determinant", "hermite_basis_mod", "smith_normal_form"],
    "kring": ["MinimalityCertificate", "basis_change_matrix",
              "minimality_certificates", "reduce", "relations_for",
              "verify_embedding", "verify_local_confluence", "verify_minimality_witness",
              "verify_relation3_redundant", "verify_relations_in_R"],
    "lens": ["LensElement", "eta_power", "restrict",
             "verify_relations_vanish", "verify_restriction_hom", "w_element"],
    "repring": ["GroupParams", "RepElement", "canonical_d", "phi_element",
                "verify_structure_constants"],
    "truncation": ["TruncatedQuotient", "consistency_report", "corollary2_table", "order_of",
                   "phi_order", "torsion_order", "truncated_quotient"],
}

TRUNCATION = {"cli", "freemodule", "intmatrix", "report", "repring", "truncation"}
ADAMS = {"adams", "cli", "freemodule", "intmath", "report"}
KRING = {"adams", "cli", "freemodule", "intmath", "intmatrix", "kring", "report", "repring"}
VERBS = [
    (["order", "--n", "4", "--N", "1"], TRUNCATION),
    (["table", "--n-max", "4", "--N-max", "1"], TRUNCATION),
    (["adams", "--i", "3"], ADAMS),
    (["g", "--k", "2"], ADAMS),
    (["verify", "--n", "3", "--suite", "all"], KRING | {"lens"}),
    (["cohomology", "--p", "4", "--k", "4"], {"cli", "cohomology", "report"}),
    (["consistency", "--n", "3", "--N", "0"], TRUNCATION | {"cohomology"}),
    (["present", "--n", "3"], KRING - {"intmatrix"}),
]


# standard-library modules that cost a process milliseconds to import and
# that no qkring code needs (dataclasses alone pulls in inspect, ast and dis)
UNWANTED = {"dataclasses", "inspect"}


def loaded_after(code: str) -> tuple:
    """Names of the qkring submodules, and of the UNWANTED modules, loaded
    after running ``code`` in a fresh interpreter; ``code`` must send its
    output to stderr."""
    probe = (f"{code}\nimport json, sys\n"
             "print(json.dumps(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"},
                         check=True).stdout
    modules = set(json.loads(out))
    return ({name.removeprefix("qkring.") for name in modules if name.startswith("qkring.")},
            UNWANTED & modules)


def test_import_loads_no_submodule():
    assert loaded_after("import qkring") == (set(), set())


def test_presentation_operation_import_loads_no_unwanted_module():
    # a benchmark presentation operation imports these two modules directly
    loaded, unwanted = loaded_after("import qkring.kring, qkring.lens")
    assert "kring" in loaded and "lens" in loaded
    assert not unwanted, f"import qkring.kring, qkring.lens also loads {sorted(unwanted)}"


@pytest.mark.parametrize("argv,expected", VERBS, ids=[argv[0] for argv, _ in VERBS])
def test_each_verb_loads_only_its_modules(argv, expected):
    code = ("import contextlib, sys\nfrom qkring.cli import main\n"
            f"with contextlib.redirect_stdout(sys.stderr):\n    assert main({argv!r}) == 0")
    loaded, unwanted = loaded_after(code)
    assert not loaded - expected, f"{argv[0]} also loads {sorted(loaded - expected)}"
    assert not expected - loaded, f"{argv[0]} no longer loads {sorted(expected - loaded)}"
    assert not unwanted, f"{argv[0]} also loads {sorted(unwanted)}"


def test_all_lists_every_export():
    names = sorted(name for names in EXPORTS.values() for name in names)
    assert len(names) == 41
    assert sorted(qkring.__all__) == names
    assert set(names) <= set(dir(qkring))


def _identifiers(node) -> set:
    """Every name and attribute name used inside ``node``."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _reached_names() -> set:
    """Identifiers reached from code that runs.

    The roots are every identifier in ``bench/*.py``, the name part of each
    ``"module.name"`` string there (a workload calls a function by such a
    string), and the identifiers in the module-level statements of
    ``src/qkring`` (``__init__``, the export map, left out).  A top-level
    function or class of ``src/qkring`` is reached when its name is; the
    identifiers inside its definition are then reached too.  Names are
    matched without their module, so the scan may only over-count.
    """
    definitions, reached = {}, set()
    for path in sorted((SRC / "qkring").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, set()).update(_identifiers(node))
            else:
                reached |= _identifiers(node)
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        reached |= _identifiers(tree)
        reached |= {match[1] for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)
                    if (match := re.fullmatch(r"\w+\.(\w+)", node.value))}
    frontier = list(reached)
    while frontier:
        new = definitions.get(frontier.pop(), set()) - reached
        reached |= new
        frontier.extend(new)
    return reached


def test_every_export_is_reached_by_code_that_runs():
    # an export that only tests call belongs in tests/reference.py
    unreached = sorted(set(qkring.__all__) - _reached_names())
    assert not unreached, f"exported but reached only from tests: {', '.join(unreached)}"


@pytest.mark.parametrize("module_name", sorted(EXPORTS))
def test_each_export_is_its_modules_object(module_name):
    module = importlib.import_module(f"qkring.{module_name}")
    for name in EXPORTS[module_name]:
        exec(f"from qkring import {name} as imported", scope := {})
        assert getattr(qkring, name) is getattr(module, name) is scope["imported"], name


def test_star_import_binds_all_and_only_all():
    exec("from qkring import *", scope := {})
    assert set(scope) - {"__builtins__"} == set(qkring.__all__)


def test_shim_finds_what_it_reads_from_classes_and_caches(monkeypatch):
    # bench/shim.py wraps each LEAVES method it finds in its class's own
    # __dict__ and reads cache_info() from each CACHES entry, so a name that
    # leaves fails every traced benchmark operation; a LEAVES function that
    # leaves its module is only skipped
    monkeypatch.syspath_prepend(str(BENCH))
    shim = importlib.import_module("shim")
    for module_name, class_name, attr in shim.LEAVES:
        if class_name is not None:
            cls = getattr(importlib.import_module(f"qkring.{module_name}"), class_name)
            assert attr in vars(cls), f"{module_name}.{class_name}.{attr}"
    for module_name, name in shim.CACHES:
        cached = getattr(importlib.import_module(f"qkring.{module_name}"), name)
        assert hasattr(cached, "cache_info"), f"{module_name}.{name}"


def test_submodules_are_attributes_and_unknown_names_are_not():
    assert qkring.kring is importlib.import_module("qkring.kring")
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        qkring.no_such_name
    with pytest.raises(ImportError):
        exec("from qkring import no_such_name", {})
