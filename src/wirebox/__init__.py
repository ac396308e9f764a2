"""Compositional modeling of wired machine networks and their attacks.

The package has three layers.  ``wiring`` and ``moore`` define boxes,
wirings between them, and the machines that inhabit boxes, together
with composition, tensoring, normalization, and the action of wirings
on machine lists.  ``fincat`` and ``probes`` cover reasoning: finite
categories with set-valued functors and naturality enumeration, and
behavioral tests an attacker can run against an opaque system to
filter a knowledge base.  ``attacks`` applies both: scripted component
rewrites and rewirings with provenance, transported between an
attacker's view and the deployed system, and scenarios that bundle the
two with a knowledge base and named scripts.  ``fileformat`` (with
``systemformat``), ``dot``, and ``cli`` are the shell.
"""

from importlib import import_module


class WireboxError(Exception):
    """A refusal the library makes: malformed input or a domain error.

    Every module's error class derives from it, so a caller can catch
    them all without importing the modules that raise them.
    """


# submodule -> the public names it defines.  A submodule is imported on
# the first lookup of one of its names, or of the submodule itself, so
# ``import wirebox.cli`` loads only what the command line imports.
_EXPORTS = {
    "wiring": ("Architecture", "Box", "CompositionError", "Const", "InnerOut",
               "OuterIn", "Port", "SourceExpr", "Table", "Wiring",
               "WiringError", "check_arch_morphism", "compose", "eval_equal",
               "evaluate", "find_eval_counterexample", "flatten",
               "identity_wiring", "normalize", "normalize_expr", "tensor",
               "wiring_equal"),
    "moore": ("MachineError", "MachineHom", "MooreMachine", "apply_algebra",
              "compose_homs", "hom_violations", "identity_hom", "lift_hom",
              "render_state", "run", "step", "validate_hom",
              "validate_machine"),
    "oracle": ("bisimilar", "find_distinguishing_word", "stagewise_simulate",
               "trace_equivalent"),
    "fincat": ("FinCategory", "FinCatError", "Morphism", "NatTransformation",
               "SetFunctor", "YonedaError", "YonedaWitness", "enumerate_nat",
               "hom_functor", "is_natural", "representable_iso_check",
               "validate_category", "validate_functor", "yoneda_check"),
    "probes": ("AMBIGUOUS", "CARDINALITY", "EQUALITY", "EXACT", "UNKNOWN",
               "KnowledgeBase", "LearnResult", "MachineOracle", "OracleError",
               "Outcome", "OutputImage", "ProbeError", "StateSet", "Terminal",
               "Test", "TraceSet", "architecture_probe", "compare_outcomes",
               "run_test", "transport_outcome", "yoneda_filter"),
    "attacks": ("AttackError", "AttackScript", "CompositeSystem", "DiffReport",
                "LogEntry", "RewireStep", "RewriteStep", "ScriptResult",
                "apply_rewire", "apply_rewrite", "apply_script", "attack_diff",
                "transport_script"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = ["WireboxError", *_MODULE_OF]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    # ``from wirebox import fileformat`` goes on to import the submodule
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
