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
two with a knowledge base and named scripts.  ``fileformat``, ``dot``,
and ``cli`` are the shell.
"""

from .wiring import (Architecture, Box, CompositionError, Const, InnerOut,
                     OuterIn, Port, SourceExpr, Table, Wiring, WiringError,
                     check_arch_morphism, compose, eval_equal, evaluate,
                     find_eval_counterexample, flatten, identity_wiring,
                     normalize, normalize_expr, tensor, wiring_equal)
from .moore import (MachineError, MachineHom, MooreMachine, apply_algebra,
                    compose_homs, hom_violations, identity_hom, lift_hom,
                    render_state, run, step, validate_hom, validate_machine)
from .oracle import (bisimilar, find_distinguishing_word, stagewise_simulate,
                     trace_equivalent)
from .fincat import (FinCategory, FinCatError, Morphism, NatTransformation,
                     SetFunctor, YonedaError, YonedaWitness, enumerate_nat,
                     hom_functor, is_natural, representable_iso_check,
                     validate_category, validate_functor, yoneda_check)
from .probes import (AMBIGUOUS, CARDINALITY, EQUALITY, EXACT, UNKNOWN,
                     KnowledgeBase, LearnResult, MachineOracle, OracleError,
                     Outcome, OutputImage, ProbeError, StateSet, Terminal,
                     Test, TraceSet, architecture_probe, compare_outcomes,
                     run_test, transport_outcome, yoneda_filter)
from .attacks import (AttackError, AttackScript, CompositeSystem, DiffReport,
                      LogEntry, RewireStep, RewriteStep, ScriptResult,
                      apply_rewire, apply_rewrite, apply_script, attack_diff,
                      transport_script)

__version__ = "0.1.0"
