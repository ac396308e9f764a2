"""Command line front end.

Subcommands::

    validate    check any document and report problems
    compose     collapse a named system to one machine document
    simulate    run a system or machine on an input word
    learn       filter a knowledge base against an opaque target
    attack      apply a named script and emit the attacked system
    diff        compare an attacked system against its baseline
    export-dot  render a wiring to Graphviz DOT
    yoneda-check verify naturality counts for a category file

Exit codes: 0 success, 64 usage error, 65 malformed input or domain
error, 73 when an ``--out`` file cannot be written.  ``learn`` exits 0
when exactly one candidate survives, 2 when several do, 3 when none do.
``diff`` exits 0 when behavior is equal at the requested depth and 1
when it differs.  ``yoneda-check`` exits 1 when a bijection fails.
``--depth`` must be at least 1; a smaller value is a usage error, and so
is ``learn --depth`` together with ``--battery``.

Each command imports the library modules it uses when it runs, so one
call loads only those: ``yoneda-check`` loads ``fincat`` and no machine
module, ``learn`` loads no attack code, only ``compose`` and ``attack``
load the writers and only ``attack`` the fingerprints, and no command
loads ``oracle``, the reference semantics the tests check the library
against.

Input words are written ``"0|1,1|0"``: steps separated by commas, the
symbols of one step separated by bars, in port order; a word that does
not fit the box is a usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from . import WireboxError, fileformat as ff

if TYPE_CHECKING:
    from .wiring import Box

EX_OK = 0
EX_USAGE = 64
EX_DATAERR = 65
EX_CANTCREAT = 73


class _UsageError(Exception):
    pass


class _WriteError(Exception):
    pass


def _write_or_print(text: str, path: Optional[str], out, log: str = "") -> None:
    """Write ``text`` to ``path`` and say so, or print it when no path is given.

    ``log`` is printed first, and only once the file is written, so a
    failed write prints nothing.
    """
    if path:
        try:
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
        except OSError as e:
            raise _WriteError(f"error: cannot write {path}: {e.strerror or e}") from None
        text = f"wrote {path}\n"
    out.write(log + text)


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2); route usage problems to exit code 64
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def parse_word(text: str) -> tuple[tuple[str, ...], ...]:
    """Parse ``"0|1,1|0"`` into a step sequence."""
    if not text:
        return ()
    steps = []
    for i, chunk in enumerate(text.split(",")):
        symbols = tuple(chunk.split("|"))
        if any(not s for s in symbols):
            raise _UsageError(f"empty symbol in step {i}: {chunk!r}")
        steps.append(symbols)
    return tuple(steps)


def _check_word(word: Sequence[Sequence[str]], box: Box) -> None:
    """Raise a usage error unless each step fits the box's input ports."""
    ports = box.in_ports
    for i, step in enumerate(word):
        if len(step) != len(ports):
            raise _UsageError(
                f"step {i} has {len(step)} symbols for {len(ports)} input ports")
        for symbol, p in zip(step, ports):
            if symbol not in p.alphabet:
                raise _UsageError(
                    f"step {i}: {symbol!r} is outside the alphabet "
                    f"{{{', '.join(p.alphabet)}}} of port {p.name}")


def depth(text: str) -> int:
    """The ``--depth`` argument type: an integer of at least 1."""
    n = int(text)  # argparse reports a ValueError as an invalid value
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def format_word(word: Sequence[Sequence[str]]) -> str:
    return ",".join("|".join(step) for step in word)


def _build_parser() -> _Parser:
    p = _Parser(prog="wirebox",
                description="wired machine networks, learning, and attacks")
    sub = p.add_subparsers(dest="command", metavar="command")

    v = sub.add_parser("validate", description="check a document")
    v.add_argument("file")

    c = sub.add_parser("compose",
                       description="collapse a system to one machine")
    c.add_argument("--system", required=True, metavar="FILE")
    c.add_argument("--name", required=True, help="system name in the file")

    s = sub.add_parser("simulate", description="run on an input word")
    s.add_argument("--system", metavar="FILE")
    s.add_argument("--name", help="system name (with --system)")
    s.add_argument("--machine", metavar="FILE", help="machine.v1 file")
    s.add_argument("--input", required=True, metavar="WORD",
                   help='e.g. "0|1,1|0"')

    l = sub.add_parser("learn",
                       description="filter a knowledge base against a target")
    l.add_argument("--kb", required=True, metavar="DIR",
                   help="directory of machine.v1 candidates")
    l.add_argument("--target", required=True, metavar="FILE",
                   help="machine.v1 the oracle answers for")
    l.add_argument("--battery", metavar="FILE", help="battery.v1 tests")
    l.add_argument("--depth", type=depth,
                   help="depth of the one trace test run when no --battery "
                        "is given (default 6)")

    a = sub.add_parser("attack", description="apply a script with provenance")
    a.add_argument("--scenario", required=True, metavar="FILE")
    a.add_argument("--script", required=True, help="script name")
    a.add_argument("--out", metavar="FILE", help="write system.v1 here")

    d = sub.add_parser("diff",
                       description="attacked system versus its baseline")
    d.add_argument("--scenario", required=True, metavar="FILE")
    d.add_argument("--script", required=True, help="script name")
    d.add_argument("--depth", type=depth, default=6)

    e = sub.add_parser("export-dot", description="render a wiring as DOT")
    e.add_argument("--file", required=True, metavar="FILE",
                   help="system.v1, scenario.v1, or wiring.v1")
    e.add_argument("--wiring", help="wiring name (for system/scenario files)")
    e.add_argument("--out", metavar="FILE")

    y = sub.add_parser("yoneda-check",
                       description="verify naturality counts per object")
    y.add_argument("--file", required=True, metavar="FILE", help="fincat.v1")
    y.add_argument("--functor", help="check only this functor")
    return p


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load(path: str, *schemas: str):
    """The document at ``path``, which must have one of the given schemas."""
    doc = ff.load(path)
    if doc.schema not in schemas:
        raise ff.LoadError(path, f"expected a {' or '.join(schemas)}")
    return doc


def _composite(path: str, name: str):
    """The composite machine of the system ``name`` in a system or scenario."""
    doc = _load(path, "system.v1", "scenario.v1")
    if name not in doc.systems:
        raise ff.LoadError(path, f"no system named {name!r}")
    return doc.systems[name].composite()


def _cmd_validate(args, out) -> int:
    doc = ff.load(args.file)
    schema = doc.schema
    if schema == "machine.v1":
        from .moore import validate_machine

        for w in validate_machine(doc.machine):
            print(f"warning: {w}", file=out)
        print(f"ok: machine {doc.name!r} on box {doc.machine.box.name!r}, "
              f"{len(doc.machine.states)} states", file=out)
    elif schema == "wiring.v1":
        w = doc.wiring
        print(f"ok: wiring {doc.name!r}, {len(w.inner)} inner boxes -> "
              f"{len(w.outer)} outer", file=out)
    elif schema == "system.v1":
        print(f"ok: {len(doc.boxes)} boxes, {len(doc.machines)} machines, "
              f"{len(doc.wirings)} wirings, {len(doc.systems)} systems",
              file=out)
    elif schema == "battery.v1":
        print(f"ok: {len(doc.tests)} tests", file=out)
    elif schema == "attack.v1":
        print(f"ok: attack {doc.name!r}, {len(doc.script.steps)} steps",
              file=out)
    elif schema == "scenario.v1":
        sc = doc.scenario
        print(f"ok: scenario {sc.name!r}, {len(sc.systems)} systems, "
              f"{len(sc.kb.entries)} knowledge base entries, "
              f"{len(sc.battery)} tests, {len(sc.scripts)} scripts", file=out)
    else:
        counts = len(doc.category.morphisms)
        print(f"ok: category {doc.category.name!r}, "
              f"{len(doc.category.objects)} objects, {counts} morphisms, "
              f"{len(doc.functors)} functors", file=out)
    return EX_OK


def _cmd_compose(args, out) -> int:
    out.write(ff.dump_machine(args.name, _composite(args.system, args.name)))
    return EX_OK


def _cmd_simulate(args, out) -> int:
    from .moore import run

    if (args.machine is None) == (args.system is None):
        raise _UsageError("simulate: give exactly one of --machine/--system")
    if args.machine is not None:
        m = _load(args.machine, "machine.v1").machine
    else:
        if not args.name:
            raise _UsageError("simulate: --system needs --name")
        m = _composite(args.system, args.name)
    word = parse_word(args.input)
    _check_word(word, m.box)
    for output in run(m, word):
        print("|".join(output), file=out)
    return EX_OK


def _cmd_learn(args, out) -> int:
    from .probes import (AMBIGUOUS, EXACT, MachineOracle, Test, TraceSet,
                         yoneda_filter)

    if args.battery and args.depth is not None:
        raise _UsageError("learn: give --battery or --depth, not both")
    kb = ff.load_kb_dir(args.kb)
    target = _load(args.target, "machine.v1").machine
    if args.battery:
        battery = _load(args.battery, "battery.v1").tests
    else:
        battery = (Test("traces", TraceSet(args.depth or 6)),)
    oracle = MachineOracle(target)
    result = yoneda_filter(kb, battery, oracle)
    marks = {True: "y", False: "n", None: "?"}
    for test in battery:
        cells = [(entry, verdict) for entry, tname, verdict in result.matrix
                 if tname == test.name]
        row = " ".join(f"{entry}={marks[verdict]}" for entry, verdict in cells)
        print(f"{test.name}: {row}", file=out)
    print(f"candidates: {', '.join(result.candidates) if result.candidates else '(none)'}",
          file=out)
    print(f"classification: {result.classification}", file=out)
    if result.classification == EXACT:
        return EX_OK
    if result.classification == AMBIGUOUS:
        return 2
    return 3


def _cmd_attack(args, out) -> int:
    script = _load(args.scenario, "scenario.v1").scenario.script(args.script)
    result = script.result
    log = "".join(f"step {entry.position}: {entry.detail} "
                  f"wiring={entry.wiring_fp} components={entry.components_fp}\n"
                  for entry in result.log)
    text = ff.dump_system({f"{script.system}-attacked": result.system})
    _write_or_print(text, args.out, out, log)
    return EX_OK


def _cmd_diff(args, out) -> int:
    from .attacks import attack_diff

    scenario = _load(args.scenario, "scenario.v1").scenario
    script = scenario.script(args.script)
    report = attack_diff(scenario.system(script.system), script.result.system,
                         args.depth, scenario.battery)
    for name, agree in report.tests:
        print(f"{name}: {'agree' if agree else 'disagree'}", file=out)
    if report.equivalent:
        print(f"equal to depth {report.depth}", file=out)
        return EX_OK
    print(f"differs: input {format_word(report.witness)}", file=out)
    return 1


def _cmd_export_dot(args, out) -> int:
    from .dot import wiring_dot

    doc = ff.load(args.file)
    if doc.schema == "wiring.v1":
        name, wiring = doc.name, doc.wiring
        if args.wiring and args.wiring != doc.name:
            raise ff.LoadError(args.file, f"no wiring named {args.wiring!r}")
    elif doc.schema in ("system.v1", "scenario.v1"):
        if not args.wiring:
            raise _UsageError("export-dot: this file needs --wiring NAME")
        if args.wiring not in doc.wirings:
            raise ff.LoadError(args.file, f"no wiring named {args.wiring!r}")
        name, wiring = args.wiring, doc.wirings[args.wiring]
    else:
        raise ff.LoadError(args.file, "no wirings in this document")
    text = wiring_dot(wiring, name)
    _write_or_print(text, args.out, out)
    return EX_OK


def _cmd_yoneda_check(args, out) -> int:
    from .fincat import YonedaError, yoneda_check

    doc = _load(args.file, "fincat.v1")
    names = sorted(doc.functors)
    if args.functor is not None:
        if args.functor not in doc.functors:
            raise ff.LoadError(args.file, f"no functor named {args.functor!r}")
        names = [args.functor]
    if not names:
        raise ff.LoadError(args.file, "no functors to check")
    failed = False
    for fname in names:
        F = doc.functors[fname]
        for obj in doc.category.objects:
            try:
                witness = yoneda_check(doc.category, obj, F)
                print(f"{fname} at {obj}: {witness.count} "
                      f"transformations, bijection ok", file=out)
            except YonedaError as e:
                failed = True
                print(f"{fname} at {obj}: FAIL {e}", file=out)
    return 1 if failed else EX_OK


def dispatch(argv: Optional[Sequence[str]] = None,
             out=None, err=None) -> int:
    """Run one command line; returns the exit code."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(err)
            return EX_USAGE
        handler = {
            "validate": _cmd_validate,
            "compose": _cmd_compose,
            "simulate": _cmd_simulate,
            "learn": _cmd_learn,
            "attack": _cmd_attack,
            "diff": _cmd_diff,
            "export-dot": _cmd_export_dot,
            "yoneda-check": _cmd_yoneda_check,
        }[args.command]
        return handler(args, out)
    except _UsageError as e:
        print(str(e), file=err)
        return EX_USAGE
    except _WriteError as e:
        print(str(e), file=err)
        return EX_CANTCREAT
    except WireboxError as e:
        print(f"error: {e}", file=err)
        return EX_DATAERR
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)


def main() -> int:
    return dispatch()


if __name__ == "__main__":
    sys.exit(main())
