"""Builders for the airframe fixture: boxes, machines, wirings, systems.

One airframe, modeled twice.  The real build senses with two redundant
inertial units plus a positioning receiver, merged by a three-input
processor; the adversary's reconstruction has a single inertial unit and
a two-input processor.  Identical unit tables and duplicated feeds make
the two composites behaviorally equivalent even though their structure
differs, which is exactly what probing from the boundary can and cannot
see.

Everything is binary and small on purpose: two-state delay machines for
the combinational parts, a toggling integrator for the airframe dynamics,
so full trace sets to depth six stay cheap to enumerate.

The attack fixtures are the two moves studied everywhere else in the
package: a firmware rewrite that inverts the positioning receiver's
readout, and a rewire that swaps the receiver's two input feeds.  Both
are visible from the boundary within depth six; the swap applied twice
undoes itself.

``scripts/gen_fixtures.py`` writes ``fixtures/uav/`` from these builders;
tests that want the whole scenario load ``fixtures/uav/scenario.yaml``.
"""

from __future__ import annotations

from typing import Callable, Optional

from wirebox.attacks import (AttackError, AttackScript, CompositeSystem,
                             RewireStep, RewriteStep)
from wirebox.moore import MooreMachine
from wirebox.probes import OutputImage, StateSet, Terminal, Test, TraceSet
from wirebox.wiring import (Box, Const, InnerOut, OuterIn, Port, Symbol, Wiring,
                            compose, identity_wiring, input_space, tensor)

BIT = ("0", "1")


def _bits(*names: str) -> tuple[Port, ...]:
    return tuple(Port(n, BIT) for n in names)


# ---------------------------------------------------------------------------
# boxes
# ---------------------------------------------------------------------------

def uav_box() -> Box:
    """The airframe boundary: command and observation in, position out."""
    return Box("uav", _bits("cmd", "obs"), _bits("pos"))


def sense_box() -> Box:
    """The sensor assembly: two raw feeds in, one fused value out."""
    return Box("sense", _bits("a", "b"), _bits("val"))


def ctrl_box() -> Box:
    return Box("ctrl", _bits("ref", "fb"), _bits("act"))


def dyn_box() -> Box:
    return Box("dyn", _bits("act"), _bits("pos"))


def imu_box() -> Box:
    return Box("imu", _bits("a", "b"), _bits("val"))


def gps_box() -> Box:
    return Box("gps", _bits("a", "b"), _bits("val"))


def proc_box() -> Box:
    return Box("proc", _bits("m", "n"), _bits("val"))


def proc3_box() -> Box:
    return Box("proc3", _bits("m", "n", "o"), _bits("val"))


def env_box() -> Box:
    return Box("env", _bits("pos"), _bits("obs"))


def gcs_box() -> Box:
    return Box("gcs", _bits("order"), _bits("cmd"))


def field_box() -> Box:
    """Airframe in its environment: only the command crosses the boundary."""
    return Box("field", _bits("cmd"), _bits("pos"))


def mission_box() -> Box:
    """Airframe plus ground station: orders and observations in."""
    return Box("mission", _bits("order", "obs"), _bits("pos"))


# ---------------------------------------------------------------------------
# machines
# ---------------------------------------------------------------------------

def _xor(a: Symbol, b: Symbol) -> Symbol:
    return "1" if a != b else "0"


def _and(a: Symbol, b: Symbol) -> Symbol:
    return "1" if a == b == "1" else "0"


def _delay(box: Box, fn: Callable[..., Symbol]) -> MooreMachine:
    """Two-state machine emitting last step's value of fn over the inputs."""
    update = {(s, x): fn(*x) for s in BIT for x in input_space([box])}
    return MooreMachine(box, BIT, "0", update, {s: (s,) for s in BIT})


def imu_machine() -> MooreMachine:
    """Inertial unit: reports whether both feeds read high."""
    return _delay(imu_box(), _and)


def gps_machine() -> MooreMachine:
    """Positioning receiver: tracks its first feed, ignores the second."""
    return _delay(gps_box(), lambda a, b: a)


def gps_hacked_machine() -> MooreMachine:
    """Firmware-compromised receiver: same tracking, inverted readout."""
    m = gps_machine()
    return MooreMachine(m.box, m.states, m.init, m.update,
                        {s: (_xor(s, "1"),) for s in m.states})


def gps_symmetric_machine() -> MooreMachine:
    """A receiver indifferent to feed order; input swaps cannot touch it."""
    return _delay(gps_box(), _and)


def gps_history_machine() -> MooreMachine:
    """Receiver variant keeping one extra step of history in its state.

    States are two characters, older value first.  Collapsing to the last
    character is a machine morphism onto the plain receiver.
    """
    states = ("00", "01", "10", "11")
    update = {(s, (a, b)): s[1] + a for s in states for a in BIT for b in BIT}
    return MooreMachine(gps_box(), states, "00", update,
                        {s: (s[1],) for s in states})


def proc_machine() -> MooreMachine:
    """Two-input fusion: delayed disagreement of its sensor feeds."""
    return _delay(proc_box(), _xor)


def proc3_machine() -> MooreMachine:
    """Three-input fusion: votes the two inertial feeds, then fuses.

    On duplicated inertial feeds this collapses to the two-input fusion.
    """
    return _delay(proc3_box(), lambda m, n, o: _xor(_and(m, n), o))


def ctrl_machine() -> MooreMachine:
    """Controller: delayed difference between reference and feedback."""
    return _delay(ctrl_box(), _xor)


def dyn_machine() -> MooreMachine:
    """Airframe dynamics: position toggles when actuated."""
    states = BIT
    update = {(s, (a,)): _xor(s, a) for s in states for a in BIT}
    return MooreMachine(dyn_box(), states, "0", update, {s: (s,) for s in states})


def env_machine() -> MooreMachine:
    """Environment: echoes the position back as next step's observation."""
    return _delay(env_box(), lambda p: p)


def env_spoof_machine() -> MooreMachine:
    """Environment built to feed counterfeit observations: inverted echo."""
    m = env_machine()
    return MooreMachine(m.box, m.states, m.init, m.update,
                        {s: (_xor(s, "1"),) for s in m.states})


def gcs_machine() -> MooreMachine:
    """Ground station: relays orders as commands with unit delay."""
    return _delay(gcs_box(), lambda o: o)


def gcs_spoof_machine() -> MooreMachine:
    """Compromised ground station: inverts every order it relays."""
    m = gcs_machine()
    return MooreMachine(m.box, m.states, m.init, m.update,
                        {s: (_xor(s, "1"),) for s in m.states})


def flatline_machine() -> MooreMachine:
    """A one-state airframe profile that never moves."""
    box = uav_box()
    update = {("z", x): "z" for x in input_space([box])}
    return MooreMachine(box, ("z",), "z", update, {"z": ("0",)})


def blinker_machine() -> MooreMachine:
    """An airframe profile that toggles position regardless of input."""
    box = uav_box()
    update = {(s, x): _xor(s, "1") for s in BIT for x in input_space([box])}
    return MooreMachine(box, BIT, "0", update, {s: (s,) for s in BIT})


def relabel_machine(m: MooreMachine, prefix: str = "q") -> MooreMachine:
    """An isomorphic copy with opaque state names, in enumeration order."""
    names = {s: f"{prefix}{i}" for i, s in enumerate(m.states)}
    return MooreMachine(
        m.box, tuple(names[s] for s in m.states), names[m.init],
        {(names[s], x): names[t] for (s, x), t in m.update.items()},
        {names[s]: out for s, out in m.readout.items()})


# ---------------------------------------------------------------------------
# wirings
# ---------------------------------------------------------------------------

def frame_wiring() -> Wiring:
    """Sensor assembly, controller, and dynamics wired into the airframe.

    The assembly reads the outer observation and the position fed back
    from the dynamics; the controller compares the outer command with the
    fused sensor value; the dynamics drive the position, which is also
    the airframe's output.
    """
    return Wiring(
        (sense_box(), ctrl_box(), dyn_box()), (uav_box(),),
        {(0, "a"): OuterIn(0, "obs"),
         (0, "b"): InnerOut(2, "pos"),
         (1, "ref"): OuterIn(0, "cmd"),
         (1, "fb"): InnerOut(0, "val"),
         (2, "act"): InnerOut(1, "act")},
        {(0, "pos"): InnerOut(2, "pos")})


def sensor_view_wiring() -> Wiring:
    """The adversary's sensor assembly: one inertial unit, one receiver.

    Both raw feeds fan out to both sensors; the processor fuses the two
    sensor values into the assembly's output.
    """
    return Wiring(
        (imu_box(), gps_box(), proc_box()), (sense_box(),),
        {(0, "a"): OuterIn(0, "a"),
         (0, "b"): OuterIn(0, "b"),
         (1, "a"): OuterIn(0, "a"),
         (1, "b"): OuterIn(0, "b"),
         (2, "m"): InnerOut(0, "val"),
         (2, "n"): InnerOut(1, "val")},
        {(0, "val"): InnerOut(2, "val")})


def sensor_real_wiring() -> Wiring:
    """The real sensor assembly: redundant inertial units, same feeds."""
    return Wiring(
        (imu_box(), imu_box(), gps_box(), proc3_box()), (sense_box(),),
        {(0, "a"): OuterIn(0, "a"),
         (0, "b"): OuterIn(0, "b"),
         (1, "a"): OuterIn(0, "a"),
         (1, "b"): OuterIn(0, "b"),
         (2, "a"): OuterIn(0, "a"),
         (2, "b"): OuterIn(0, "b"),
         (3, "m"): InnerOut(0, "val"),
         (3, "n"): InnerOut(1, "val"),
         (3, "o"): InnerOut(2, "val")},
        {(0, "val"): InnerOut(3, "val")})


def sensor_feed_attack_wiring() -> Wiring:
    """The view assembly with the receiver's second feed pinned to zero."""
    w = sensor_view_wiring()
    in_map = dict(w.in_map)
    in_map[(1, "b")] = Const("0")
    return Wiring(w.inner, w.outer, in_map, w.out_map)


def gps_swap_endo() -> Wiring:
    """Endomorphism of the receiver box crossing its two input feeds."""
    box = gps_box()
    return Wiring(
        (box,), (box,),
        {(0, "a"): OuterIn(0, "b"), (0, "b"): OuterIn(0, "a")},
        {(0, "val"): InnerOut(0, "val")})


def view_chain_wiring() -> Wiring:
    """The adversary's full decomposition, flattened to airframe leaves."""
    padded = tensor([sensor_view_wiring(),
                     identity_wiring(ctrl_box()),
                     identity_wiring(dyn_box())])
    return compose(frame_wiring(), padded)


def real_chain_wiring() -> Wiring:
    """The real full decomposition, flattened to airframe leaves."""
    padded = tensor([sensor_real_wiring(),
                     identity_wiring(ctrl_box()),
                     identity_wiring(dyn_box())])
    return compose(frame_wiring(), padded)


def field_context_wiring() -> Wiring:
    """Airframe closed against the environment; only the command is free."""
    return Wiring(
        (uav_box(), env_box()), (field_box(),),
        {(0, "cmd"): OuterIn(0, "cmd"),
         (0, "obs"): InnerOut(1, "obs"),
         (1, "pos"): InnerOut(0, "pos")},
        {(0, "pos"): InnerOut(0, "pos")})


def mission_context_wiring() -> Wiring:
    """Airframe commanded through a ground station; observation stays free."""
    return Wiring(
        (uav_box(), gcs_box()), (mission_box(),),
        {(0, "cmd"): InnerOut(1, "cmd"),
         (0, "obs"): OuterIn(0, "obs"),
         (1, "order"): OuterIn(0, "order")},
        {(0, "pos"): InnerOut(0, "pos")})


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------

def build_uav_attacker_view() -> CompositeSystem:
    """The adversary's reconstruction: five components, one inertial unit."""
    return CompositeSystem(
        view_chain_wiring(),
        (imu_machine(), gps_machine(), proc_machine(), ctrl_machine(),
         dyn_machine()))


def build_uav_real() -> CompositeSystem:
    """The real airframe: six components, redundant inertial units."""
    return CompositeSystem(
        real_chain_wiring(),
        (imu_machine(), imu_machine(), gps_machine(), proc3_machine(),
         ctrl_machine(), dyn_machine()))


def wrap_environment(sys: CompositeSystem,
                     env: Optional[MooreMachine] = None) -> CompositeSystem:
    """Close a system against an environment model.

    The system's own wiring and machines are kept as slots 0..n-1; the
    environment machine is appended.  Its observation feeds the system's
    second input and it watches the system's position.
    """
    env = env if env is not None else env_machine()
    if sys.box != uav_box():
        raise AttackError("environment wrapping expects the airframe boundary")
    wiring = compose(field_context_wiring(),
                     tensor([sys.wiring, identity_wiring(env_box())]))
    return CompositeSystem(wiring, sys.components + (env,))


def wrap_gcs(sys: CompositeSystem,
             gcs: Optional[MooreMachine] = None) -> CompositeSystem:
    """Put a ground station between the orders and the system's command."""
    gcs = gcs if gcs is not None else gcs_machine()
    if sys.box != uav_box():
        raise AttackError("ground station wrapping expects the airframe boundary")
    wiring = compose(mission_context_wiring(),
                     tensor([sys.wiring, identity_wiring(gcs_box())]))
    return CompositeSystem(wiring, sys.components + (gcs,))


# ---------------------------------------------------------------------------
# attacks and the test battery
# ---------------------------------------------------------------------------

def gps_firmware_rewrite() -> RewriteStep:
    """Replace the receiver's firmware: inverted readout, same tracking."""
    return RewriteStep(1, machine=gps_hacked_machine())


def gps_swap_rewiring() -> RewireStep:
    """Cross the receiver's two input feeds."""
    return RewireStep(1, gps_swap_endo())


def combo_script() -> AttackScript:
    """Firmware rewrite followed by the input swap."""
    return AttackScript((gps_firmware_rewrite(), gps_swap_rewiring()))


def standard_battery() -> tuple[Test, ...]:
    return (Test("traces-6", TraceSet(6)),
            Test("state-count", StateSet()),
            Test("point", Terminal()),
            Test("image-2", OutputImage(2)))
