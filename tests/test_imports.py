"""Every library module uses each name it imports; what ``import
wirebox.cli`` loads; the package's public names.

The unused-import check uses the stdlib ``ast`` module only: a name
counts as used when it appears as a name node anywhere in the module.
Quoted annotations are strings to ``ast``, so a name used only there
counts as unused; every module has ``from __future__ import
annotations`` and needs no quotes.  ``__init__.py`` is skipped, because
it holds the package's public names.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import wirebox

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "wirebox"


def unused_imports(path: pathlib.Path) -> list[str]:
    """``module: name`` for each imported name the module never uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}: {name}" for name in imported if name not in used]


def test_library_modules_use_every_name_they_import():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [u for p in modules for u in unused_imports(p)] == []


def test_the_command_line_imports_neither_fincat_nor_dot():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import wirebox.cli, sys; print(sorted(sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout
    loaded = set(ast.literal_eval(out))
    assert {"wirebox.cli", "wirebox.fileformat"} <= loaded
    assert not {"wirebox.fincat", "wirebox.dot"} & loaded


# every name the package re-exported when ``import wirebox`` still
# imported all six library modules
PUBLIC = {
    "wiring": "Architecture Box CompositionError Const InnerOut OuterIn Port "
              "SourceExpr Table Wiring WiringError check_arch_morphism compose "
              "eval_equal evaluate find_eval_counterexample flatten "
              "identity_wiring normalize normalize_expr tensor wiring_equal",
    "moore": "MachineError MachineHom MooreMachine apply_algebra compose_homs "
             "hom_violations identity_hom lift_hom render_state run step "
             "validate_hom validate_machine",
    "oracle": "bisimilar find_distinguishing_word stagewise_simulate "
              "trace_equivalent",
    "fincat": "FinCategory FinCatError Morphism NatTransformation SetFunctor "
              "YonedaError YonedaWitness enumerate_nat hom_functor is_natural "
              "representable_iso_check validate_category validate_functor "
              "yoneda_check",
    "probes": "AMBIGUOUS CARDINALITY EQUALITY EXACT UNKNOWN KnowledgeBase "
              "LearnResult MachineOracle OracleError Outcome OutputImage "
              "ProbeError StateSet Terminal Test TraceSet architecture_probe "
              "compare_outcomes run_test transport_outcome yoneda_filter",
    "attacks": "AttackError AttackScript CompositeSystem DiffReport LogEntry "
               "RewireStep RewriteStep ScriptResult apply_rewire apply_rewrite "
               "apply_script attack_diff transport_script",
}


def test_every_public_name_resolves_to_its_module_attribute():
    listed = dir(wirebox)
    for module, names in PUBLIC.items():
        sub = getattr(wirebox, module)
        assert sub is sys.modules[f"wirebox.{module}"]
        for name in names.split():
            assert getattr(wirebox, name) is getattr(sub, name), name
            assert name in listed, name
    star: dict = {}
    exec("from wirebox import *", star)
    assert {n for names in PUBLIC.values() for n in names.split()} \
        == set(star) - {"__builtins__"}


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError, match="no_such_name"):
        wirebox.no_such_name
