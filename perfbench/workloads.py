"""The three benchmark workloads and their correctness gates.

Each workload is a closed loop with one client: the next op starts when
the previous one has returned.  A workload object is built once (its
construction is the set-up that ``setup_s`` times), then hands out ops in
cycles.  A cycle holds every op kind in a fixed proportion, shuffled by
the seed, so medians compare like with like across seeds.

``run`` performs one op through wirebox's public API (or its command
line); ``check`` compares the result against a reference that does not
share the code path under test and returns the problems it found.  The
run loop times ``run`` only.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from typing import Optional

import generate as gen
from wirebox import attacks, fileformat as ff, moore, oracle, probes
from wirebox.probes import OutputImage, StateSet, Terminal, Test, TraceSet

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 120


# ---------------------------------------------------------------------------
# shared references
# ---------------------------------------------------------------------------

def output_image(m, steps: int) -> tuple:
    """Readouts of the states reachable in exactly ``steps`` steps."""
    inputs = m.inputs()
    layer = {m.init}
    for _ in range(steps):
        layer = {m.update[(s, x)] for s in layer for x in inputs}
    return tuple(sorted({m.readout[s] for s in layer}))


def reference_verdict(test: Test, a, b) -> bool:
    """Do machines ``a`` and ``b`` agree on ``test``, by reference means?"""
    kind = test.kind
    if isinstance(kind, TraceSet):
        return oracle.find_distinguishing_word(a, b, kind.depth) is None
    if isinstance(kind, StateSet):
        return len(a.states) == len(b.states)
    if isinstance(kind, OutputImage):
        return output_image(a, kind.step) == output_image(b, kind.step)
    if isinstance(kind, Terminal):
        return True
    raise ValueError(f"no reference for test kind {kind!r}")


def learn_problems(kb, battery, target, result) -> list[str]:
    """Check a learner result cell by cell against reference verdicts."""
    problems = []
    expected = {(name, t.name): reference_verdict(t, m, target)
                for name, m in kb.entries for t in battery}
    got = {(name, tname): verdict for name, tname, verdict in result.matrix}
    if set(got) != set(expected):
        problems.append(f"learn matrix covers {sorted(got)}, "
                        f"expected {sorted(expected)}")
    for cell, verdict in sorted(expected.items()):
        if got.get(cell, verdict) != verdict:
            problems.append(f"learn verdict {cell}: got {got[cell]}, "
                            f"reference {verdict}")
    survivors = tuple(n for n in kb.names
                      if all(expected[(n, t.name)] for t in battery))
    if tuple(result.candidates) != survivors:
        problems.append(f"learn candidates {result.candidates}, "
                        f"reference {survivors}")
    want = {0: probes.UNKNOWN, 1: probes.EXACT}.get(len(survivors),
                                                    probes.AMBIGUOUS)
    if result.classification != want:
        problems.append(f"learn classification {result.classification}, "
                        f"reference {want}")
    return problems


def witness_problems(baseline, attacked, witness) -> list[str]:
    """A diff witness must separate the systems under stagewise simulation."""
    a = oracle.stagewise_simulate(baseline.wiring, baseline.components, witness)
    b = oracle.stagewise_simulate(attacked.wiring, attacked.components, witness)
    if a == b:
        return [f"diff witness {witness} does not separate the systems"]
    return []


def child_env(root: str) -> dict:
    """The environment for child interpreters: wirebox from ``root/src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


def _fixture(root: str, *parts: str) -> str:
    return os.path.join(root, "fixtures", *parts)


# ---------------------------------------------------------------------------
# cli-airframe: one fresh interpreter per op
# ---------------------------------------------------------------------------

# diff exit code per bundled script: 0 equal to depth 6, 1 differs
DIFF_EXPECTED = {"gps-firmware": 1, "gps-swap": 1, "combo": 1,
                 "double-swap": 0, "gps-minimize": 0}


@dataclass
class CliOp:
    kind: str
    argv: list
    detail: dict = field(default_factory=dict)


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    cpu_s: float
    rss_kb: int
    trace: Optional[dict] = None


class CliAirframe:
    """Each op runs ``python -m wirebox.cli`` on a bundled fixture command."""

    name = "cli-airframe"
    in_process = False

    def __init__(self, root: str, seed: int, workdir: str):
        self.root = root
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.env = child_env(root)
        self.scenario_path = _fixture(root, "uav", "scenario.yaml")
        doc = ff.load(self.scenario_path)
        self.scenario = doc.scenario
        self.scripts = [s.name for s in self.scenario.scripts]
        unknown = sorted(set(self.scripts) - set(DIFF_EXPECTED))
        if unknown:
            raise RuntimeError(f"no expected diff result for scripts {unknown}")
        self.attacked = {
            s.name: attacks.apply_script(self.scenario.system(s.system),
                                         s.script).system
            for s in self.scenario.scripts}
        kb = ff.load_kb_dir(_fixture(root, "uav", "kb"))
        target = ff.load(_fixture(root, "uav", "target.yaml")).machine
        battery = ff.load(_fixture(root, "uav", "battery.yaml")).tests
        survivors = [n for n, m in kb.entries
                     if all(reference_verdict(t, m, target) for t in battery)]
        self.learn_candidates = ", ".join(survivors) or "(none)"
        fincat_dir = _fixture(root, "fincat")
        self.fincat = {}
        for n in sorted(os.listdir(fincat_dir)):
            fdoc = ff.load(os.path.join(fincat_dir, n))
            self.fincat[n] = len(fdoc.functors) * len(fdoc.category.objects)
        with open(_fixture(root, "golden", "sensor-view.dot"),
                  encoding="utf-8") as f:
            self.golden_dot = f.read()
        self.real = doc.systems[self.scenario.real]
        self.cycles = 0

    def cycle(self) -> list[CliOp]:
        scen = self.scenario_path
        uav = _fixture(self.root, "uav")
        ops = [CliOp("learn", ["learn", "--kb", os.path.join(uav, "kb"),
                               "--target", os.path.join(uav, "target.yaml"),
                               "--battery", os.path.join(uav, "battery.yaml")])]
        ops += [CliOp("diff", ["diff", "--scenario", scen, "--script", s],
                      {"script": s}) for s in self.scripts]
        self.cycles += 1
        out = os.path.join(self.workdir, f"attack-{self.cycles}.yaml")
        probe = gen.random_word(self.rng, self.real.box, 32)
        ops.append(CliOp("attack", ["attack", "--scenario", scen, "--script",
                                    "combo", "--out", out],
                         {"out": out, "word": probe}))
        ops.append(CliOp("compose", ["compose", "--system", scen, "--name",
                                     self.scenario.real], {"word": probe}))
        word = gen.random_word(self.rng, self.real.box, 24)
        text = ",".join("|".join(x) for x in word)
        ops.append(CliOp("simulate", ["simulate", "--system", scen, "--name",
                                      self.scenario.real, "--input", text],
                         {"word": word}))
        ops.append(CliOp("export-dot", ["export-dot", "--file", scen,
                                        "--wiring", "sensor-view"]))
        ops.append(CliOp("validate", ["validate", scen]))
        ops += [CliOp("yoneda-check", ["yoneda-check", "--file",
                                       _fixture(self.root, "fincat", n)],
                      {"file": n}) for n in sorted(self.fincat)]
        self.rng.shuffle(ops)
        return ops

    def run(self, op: CliOp, trace_path: Optional[str] = None) -> CliResult:
        if trace_path is None:
            cmd = [sys.executable, "-m", "wirebox.cli"] + op.argv
        else:
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"),
                   trace_path, "--"] + op.argv
        err_path = os.path.join(self.workdir, "stderr.txt")
        with open(err_path, "w+b") as err:
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=subprocess.PIPE, stderr=err)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                # wait4 reaps the child and returns its own resource usage
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        trace = None
        if trace_path is not None and os.path.exists(trace_path):
            with open(trace_path, encoding="utf-8") as f:
                trace = json.load(f)
            os.remove(trace_path)
        return CliResult(proc.returncode, out.decode("utf-8", "replace"),
                         stderr, usage.ru_utime + usage.ru_stime,
                         usage.ru_maxrss, trace)

    def check(self, op: CliOp, r: CliResult) -> list[str]:
        want = DIFF_EXPECTED[op.detail["script"]] if op.kind == "diff" else 0
        if r.code != want:
            return [f"{op.kind} exited {r.code}, expected {want}: "
                    f"{r.stderr.strip()[-300:]}"]
        lines = r.stdout.splitlines()
        return getattr(self, "_check_" + op.kind.replace("-", "_"))(op, r, lines)

    def _check_learn(self, op, r, lines):
        problems = []
        if "classification: exact" not in lines:
            problems.append("learn did not print classification: exact")
        if f"candidates: {self.learn_candidates}" not in lines:
            problems.append(f"learn candidates differ from the reference "
                            f"{self.learn_candidates}")
        return problems

    def _check_diff(self, op, r, lines):
        script = op.detail["script"]
        if r.code == 0:
            return [] if lines and lines[-1] == "equal to depth 6" else \
                ["diff exited 0 without 'equal to depth 6'"]
        if any(line.startswith("equal") for line in lines):
            return ["diff prints equal but exits 1"]
        last = lines[-1] if lines else ""
        if not last.startswith("differs: input "):
            return ["diff exited 1 without a witness"]
        text = last[len("differs: input "):]
        word = tuple(tuple(step.split("|")) for step in text.split(","))
        sc = self.scenario.script(script)
        return witness_problems(self.scenario.system(sc.system),
                                self.attacked[script], word)

    def _check_attack(self, op, r, lines):
        path = op.detail["out"]
        try:
            doc = ff.load(path)
        finally:
            if os.path.exists(path):
                os.remove(path)
        name = "attacker-view-attacked"
        if name not in doc.systems:
            return [f"attack output has no system {name!r}"]
        got, want = doc.systems[name], self.attacked["combo"]
        word = op.detail["word"]
        if (oracle.stagewise_simulate(got.wiring, got.components, word)
                != oracle.stagewise_simulate(want.wiring, want.components, word)):
            return ["reloaded attack output behaves unlike the attacked system"]
        return []

    def _check_compose(self, op, r, lines):
        m = ff.loads(r.stdout, "compose-output").machine
        want = math.prod(len(c.states) for c in self.real.components)
        if len(m.states) != want:
            return [f"composite has {len(m.states)} states, expected {want}"]
        word = op.detail["word"]
        if moore.run(m, word) != oracle.stagewise_simulate(
                self.real.wiring, self.real.components, word):
            return ["reloaded composite disagrees with stagewise simulation"]
        return []

    def _check_simulate(self, op, r, lines):
        want = ["|".join(o) for o in oracle.stagewise_simulate(
            self.real.wiring, self.real.components, op.detail["word"])]
        return [] if lines == want else ["simulate output differs from "
                                         "stagewise simulation"]

    def _check_export_dot(self, op, r, lines):
        return [] if r.stdout == self.golden_dot else \
            ["export-dot differs from the golden sensor-view.dot"]

    def _check_validate(self, op, r, lines):
        sc = self.scenario
        want = (f"ok: scenario {sc.name!r}, {len(sc.systems)} systems, "
                f"{len(sc.kb.entries)} knowledge base entries, "
                f"{len(sc.battery)} tests, {len(sc.scripts)} scripts")
        return [] if lines == [want] else [f"validate printed {lines}"]

    def _check_yoneda_check(self, op, r, lines):
        want = self.fincat[op.detail["file"]]
        if len(lines) != want:
            return [f"yoneda-check printed {len(lines)} lines, expected {want}"]
        bad = [line for line in lines if not line.endswith("bijection ok")]
        return [f"yoneda-check line failed: {bad[0]}"] if bad else []


# ---------------------------------------------------------------------------
# compose-scale: seeded networks collapsed in process
# ---------------------------------------------------------------------------

# (box count, product-size exponent) of one cycle's networks, two ops
# each.  Sorted by cost, the 16 ops of a cycle put the median two thirds
# of the way through the six 2^9 ops and p75 mid-way through the four
# 2^10 ops.  Each of those sizes has one shape, so neither statistic sits
# on a boundary between two shapes.
NETWORK_SHAPES = ((8, 8), (12, 8), (10, 9), (10, 9), (10, 9), (11, 10),
                  (11, 10), (9, 11))
STATES_TEST = Test("states", StateSet())


@dataclass
class ComposeOp:
    kind: str                 # "fresh" wiring or "reuse" of the previous one
    net: gen.Network
    slot: int
    endo: object
    word: tuple


@dataclass
class ComposeResult:
    composite: object
    rewired: object
    outputs: list
    rewired_outputs: list
    states: object
    rewired_states: object


def endo_machine(m, endo):
    """The component seen through a rewire: inputs routed by ``endo``.

    Evaluates the endomorphism's input expressions with the benchmark's
    own evaluator, so the reference never calls ``wiring.compose``.
    """
    ports = m.box.in_ports

    def value(expr, x):
        kind = type(expr).__name__
        if kind == "Const":
            return expr.symbol
        if kind == "OuterIn":
            return x[[p.name for p in ports].index(expr.port)]
        if kind == "Table":
            key = tuple(value(s, x) for s in expr.sources)
            return dict(expr.entries)[key]
        raise ValueError(f"unexpected rewire source {expr!r}")

    update = {}
    for (s, x), _ in m.update.items():
        routed = tuple(value(endo.in_map[(0, p.name)], x) for p in ports)
        update[(s, x)] = m.update[(s, routed)]
    return moore.MooreMachine(m.box, m.states, m.init, update, m.readout)


class ComposeScale:
    """Each op composes one seeded network, rewires it, and recomposes."""

    name = "compose-scale"
    in_process = True

    def __init__(self, root: str, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.made = 0
        # network generation is set-up work: the first cycle is made here
        self.pending = self._make_cycle()

    def cycle(self) -> list[ComposeOp]:
        ops, self.pending = self.pending or self._make_cycle(), None
        return ops

    def _make_cycle(self) -> list[ComposeOp]:
        ops = []
        shapes = list(NETWORK_SHAPES)
        self.rng.shuffle(shapes)
        for boxes, exponent in shapes:
            self.made += 1
            fresh = gen.random_network(self.rng, boxes, exponent,
                                       f"n{self.made}-")
            reused = gen.rewrite_one(self.rng, fresh)
            for kind, net in (("fresh", fresh), ("reuse", reused)):
                slot = self.rng.randrange(len(net.machines))
                endo = gen.random_endo(self.rng, net.wiring.inner[slot])
                word = gen.random_word(self.rng, net.wiring.outer[0], 256)
                ops.append(ComposeOp(kind, net, slot, endo, word))
        return ops

    def run(self, op: ComposeOp, trace_path=None) -> ComposeResult:
        net = op.net
        composite = moore.apply_algebra(net.wiring, net.machines)
        system = attacks.CompositeSystem(net.wiring, net.machines)
        rewired = attacks.apply_rewire(system,
                                       attacks.RewireStep(op.slot, op.endo))
        recomposed = rewired.composite()
        return ComposeResult(
            composite, recomposed,
            moore.run(composite, op.word), moore.run(recomposed, op.word),
            probes.run_test(STATES_TEST, composite),
            probes.run_test(STATES_TEST, recomposed))

    def check(self, op: ComposeOp, r: ComposeResult) -> list[str]:
        net = op.net
        problems = []
        if r.outputs != oracle.stagewise_simulate(net.wiring, net.machines,
                                                  op.word):
            problems.append("composite run differs from stagewise simulation")
        machines = list(net.machines)
        machines[op.slot] = endo_machine(machines[op.slot], op.endo)
        if r.rewired_outputs != oracle.stagewise_simulate(net.wiring, machines,
                                                          op.word):
            problems.append("rewired composite differs from stagewise "
                            "simulation of the rerouted component")
        want = net.product_states
        for label, outcome in (("composite", r.states),
                               ("rewired composite", r.rewired_states)):
            if len(outcome.value) != want:
                problems.append(f"{label} has {len(outcome.value)} states, "
                                f"expected {want}")
        return problems


# ---------------------------------------------------------------------------
# probe-session: one knowledge base, many learn queries and attack checks
# ---------------------------------------------------------------------------

VARIANTS = 4          # seeded knowledge-base variants of the attacker view
OUTSIDERS = 6         # seeded non-member targets
SCRIPTS = 4           # seeded attack scripts besides the bundled ones
DEPTHS = (5, 6, 7)
TARGET_KINDS = ("member", "relabelled", "non-member")
DIFF_DEPTH = 8


@dataclass
class ProbeOp:
    depth: int
    target_kind: str
    target: object
    image_step: int
    script: object            # (name, baseline system, AttackScript)


@dataclass
class ProbeResult:
    learn: object
    attacked: object
    report: object
    before: object
    after: object
    bisimilar: bool


class ProbeSession:
    """Each op is one learn query plus one attack check at depth 8."""

    name = "probe-session"
    in_process = True

    def __init__(self, root: str, seed: int, workdir: str):
        rng = self.rng = random.Random(seed)
        doc = ff.load(_fixture(root, "uav", "scenario.yaml"))
        scenario = doc.scenario
        stored = ff.load_kb_dir(_fixture(root, "uav", "kb"))
        view = scenario.system(scenario.attacker_view)

        def variant(slot, machine):
            comps = list(view.components)
            comps[slot] = machine
            return attacks.CompositeSystem(view.wiring, tuple(comps))

        def fresh_machine(slot):
            box = view.components[slot].box
            return gen.random_machine(rng, box, rng.randint(2, 3), tag="v")

        entries = list(stored.entries)
        # variant 0 is isomorphic to the stock view, so "ambiguous" occurs
        slot = rng.randrange(len(view.components))
        entries.append(("variant-0", variant(
            slot, gen.relabel(rng, view.components[slot])).composite()))
        for k in range(1, VARIANTS):
            slot = rng.randrange(len(view.components))
            entries.append((f"variant-{k}",
                            variant(slot, fresh_machine(slot)).composite()))
        self.kb = probes.KnowledgeBase(stored.box, tuple(entries))
        self.outsiders = []
        while len(self.outsiders) < OUTSIDERS:
            slot = rng.randrange(len(view.components))
            self.outsiders.append(
                variant(slot, fresh_machine(slot)).composite())
        self.scripts = [(s.name, scenario.system(s.system), s.script)
                        for s in scenario.scripts]
        for k in range(SCRIPTS):
            slot = rng.randrange(len(view.components))
            if k % 2 == 0:
                step = attacks.RewriteStep(slot, machine=fresh_machine(slot))
            else:
                step = attacks.RewireStep(slot, gen.random_endo(
                    rng, view.wiring.inner[slot]))
            self.scripts.append((f"seeded-{k}", view,
                                 attacks.AttackScript((step,))))

    def cycle(self) -> list[ProbeOp]:
        rng = self.rng
        ops = []
        for depth in DEPTHS:
            for kind in TARGET_KINDS:
                if kind == "non-member":
                    target = rng.choice(self.outsiders)
                else:
                    _, m = rng.choice(self.kb.entries)
                    target = (gen.relabel(rng, m) if kind == "relabelled" else
                              moore.MooreMachine(m.box, m.states, m.init,
                                                 m.update, m.readout))
                ops.append(ProbeOp(depth, kind, target, rng.randint(1, 4),
                                   rng.choice(self.scripts)))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def battery(op: ProbeOp) -> tuple:
        return (Test(f"traces-{op.depth}", TraceSet(op.depth)),
                Test("state-count", StateSet()),
                Test(f"image-{op.image_step}", OutputImage(op.image_step)))

    def run(self, op: ProbeOp, trace_path=None) -> ProbeResult:
        battery = self.battery(op)
        learn = probes.yoneda_filter(self.kb, battery,
                                     probes.MachineOracle(op.target))
        _, baseline, script = op.script
        attacked = attacks.apply_script(baseline, script).system
        report = attacks.attack_diff(baseline, attacked, DIFF_DEPTH, battery)
        before, after = baseline.composite(), attacked.composite()
        return ProbeResult(learn, attacked, report, before, after,
                           oracle.bisimilar(before, after))

    def check(self, op: ProbeOp, r: ProbeResult) -> list[str]:
        battery = self.battery(op)
        problems = learn_problems(self.kb, battery, op.target, r.learn)
        _, baseline, _ = op.script
        report = r.report
        if report.equivalent != (report.witness is None):
            problems.append("diff report contradicts its own witness")
        if report.witness is not None:
            if len(report.witness) > DIFF_DEPTH:
                problems.append(f"diff witness longer than {DIFF_DEPTH}")
            problems += witness_problems(baseline, r.attacked, report.witness)
            if r.bisimilar:
                problems.append("bisimilar systems have a diff witness")
        want = [(t.name, reference_verdict(t, r.before, r.after))
                for t in battery]
        if list(report.tests) != want:
            problems.append(f"diff test verdicts {report.tests}, "
                            f"reference {want}")
        return problems


WORKLOADS = {w.name: w for w in (CliAirframe, ComposeScale, ProbeSession)}
