#!/usr/bin/env python3
"""Regenerate everything under fixtures/ from the programmatic builders.

The airframe builders live in ``tests/uav.py``, and the categories the
tests share in ``tests/categories.py``.  Each ``gen_*`` returns
the texts it produces as ``{path relative to fixtures/: text}``; only
running this file as a script writes them.  Every generated document is
loaded back and cross-checked first, so a fixture that disagrees with
the library cannot land on disk.  Output is deterministic; rerunning the
script is a no-op when nothing changed, and ``tests/test_fileformat.py``
fails when the files on disk drift from what it generates.
"""

from __future__ import annotations

import os
import sys

import yaml

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, os.path.join(HERE, "..", "tests"))

import uav
from categories import chain3, cyc3, walking_iso
from wirebox import fincat as fc
from wirebox import fileformat as ff
from wirebox import systemformat as sf
from wirebox.attacks import AttackScript, apply_script
from wirebox.dot import wiring_dot
from wirebox.oracle import trace_equivalent
from wirebox.wiring import identity_wiring

ROOT = os.path.join(HERE, "..", "fixtures")


def _dump(data: dict) -> str:
    return yaml.safe_dump(data, sort_keys=False, width=88)


def test_data(t) -> dict:
    """A battery row: the test's name, its kind's schema name, and the
    kind's fields."""
    kind = t.kind
    out: dict = {"name": t.name,
                 "kind": next(n for n, c in sf._TEST_KINDS.items()
                              if type(kind) is c)}
    out.update((n, getattr(kind, n)) for n in kind._fields)
    return out


# ---------------------------------------------------------------------------
# the vehicle scenario
# ---------------------------------------------------------------------------

def gen_uav() -> dict[str, str]:
    boxes = [uav.uav_box(), uav.sense_box(), uav.ctrl_box(), uav.dyn_box(),
             uav.imu_box(), uav.gps_box(), uav.proc_box(), uav.proc3_box()]
    machines = [
        ("imu-and", uav.imu_machine()),
        ("gps-stock", uav.gps_machine()),
        ("gps-hacked", uav.gps_hacked_machine()),
        ("gps-history", uav.gps_history_machine()),
        ("proc-xor", uav.proc_machine()),
        ("proc3-fuse", uav.proc3_machine()),
        ("ctrl-xor", uav.ctrl_machine()),
        ("dyn-int", uav.dyn_machine()),
        ("flatline", uav.flatline_machine()),
        ("blinker", uav.blinker_machine()),
    ]
    wirings = [
        ff.wiring_data("frame", uav.frame_wiring()),
        ff.wiring_data("sensor-view", uav.sensor_view_wiring()),
        ff.wiring_data("sensor-real", uav.sensor_real_wiring()),
        {"name": "id-ctrl", "identity": "ctrl"},
        {"name": "id-dyn", "identity": "dyn"},
        {"name": "view-stack", "tensor": ["sensor-view", "id-ctrl", "id-dyn"]},
        {"name": "real-stack", "tensor": ["sensor-real", "id-ctrl", "id-dyn"]},
        {"name": "view-chain", "compose": ["frame", "view-stack"]},
        {"name": "real-chain", "compose": ["frame", "real-stack"]},
        ff.wiring_data("gps-swap", uav.gps_swap_endo()),
    ]
    view_comps = ["imu-and", "gps-stock", "proc-xor", "ctrl-xor", "dyn-int"]
    systems = [
        {"name": "real", "wiring": "real-chain",
         "components": ["imu-and", "imu-and", "gps-stock", "proc3-fuse",
                        "ctrl-xor", "dyn-int"]},
        {"name": "attacker-view", "wiring": "view-chain",
         "components": view_comps},
        {"name": "attacker-view-hist", "wiring": "view-chain",
         "components": ["imu-and", "gps-history", "proc-xor", "ctrl-xor",
                        "dyn-int"]},
        {"name": "view-hacked", "wiring": "view-chain",
         "components": ["imu-and", "gps-hacked", "proc-xor", "ctrl-xor",
                        "dyn-int"]},
    ]
    battery = [test_data(t) for t in uav.standard_battery()]
    scenario = {
        "schema": "scenario.v1",
        "name": "uav-redundant-imu",
        "boxes": [ff.box_data(b) for b in boxes],
        "machines": [ff.machine_data(n, m) for n, m in machines],
        "wirings": wirings,
        "systems": systems,
        "real": "real",
        "attacker_view": "attacker-view",
        "correspondence": [
            {"view": 0, "real": [0, 1]},
            {"view": 1, "real": [2]},
            {"view": 2, "real": [3]},
            {"view": 3, "real": [4]},
            {"view": 4, "real": [5]},
        ],
        "kb": [
            {"name": "profile-stock", "system": "attacker-view"},
            {"name": "profile-hacked", "system": "view-hacked"},
            {"name": "profile-flatline", "machine": "flatline"},
            {"name": "profile-blinker", "machine": "blinker"},
        ],
        "battery": battery,
        "scripts": [
            {"name": "gps-firmware", "system": "attacker-view",
             "steps": [{"rewrite": 1, "machine": "gps-hacked"}]},
            {"name": "gps-swap", "system": "attacker-view",
             "steps": [{"rewire": 1, "wiring": "gps-swap"}]},
            {"name": "combo", "system": "attacker-view",
             "steps": [{"rewrite": 1, "machine": "gps-hacked"},
                       {"rewire": 1, "wiring": "gps-swap"}]},
            {"name": "double-swap", "system": "attacker-view",
             "steps": [{"rewire": 1, "wiring": "gps-swap"},
                       {"rewire": 1, "wiring": "gps-swap"}]},
            {"name": "gps-minimize", "system": "attacker-view-hist",
             "steps": [{"rewrite": 1, "machine": "gps-stock",
                        "state_map": {"00": "0", "01": "1",
                                      "10": "0", "11": "1"}}]},
        ],
    }
    out = {"uav/scenario.yaml": _dump(scenario)}
    loaded = ff.loads(out["uav/scenario.yaml"], "scenario.yaml").scenario
    view = uav.build_uav_attacker_view()
    hacked = apply_script(view, AttackScript((uav.gps_firmware_rewrite(),)))
    for name, ref in (("real", uav.build_uav_real()), ("attacker-view", view),
                      ("view-hacked", hacked.system)):
        assert loaded.system(name) == ref, f"{name} drifted"
    assert loaded.battery == uav.standard_battery()

    out["uav/battery.yaml"] = _dump({"schema": "battery.v1", "tests": battery})

    for entry, m in loaded.kb.entries:
        text = ff.dump_machine(entry, m)
        back = ff.loads(text, entry)
        assert trace_equivalent(back.machine, m, 4), f"{entry} drifted"
        out[f"uav/kb/{entry}.yaml"] = text

    target = uav.relabel_machine(loaded.system("attacker-view").composite())
    out["uav/target.yaml"] = ff.dump_machine("target", target)

    attack = {
        "schema": "attack.v1",
        "name": "combo",
        "system": "attacker-view",
        "boxes": [ff.box_data(uav.gps_box())],
        "machines": [ff.machine_data("gps-hacked", uav.gps_hacked_machine())],
        "wirings": [ff.wiring_data("gps-swap", uav.gps_swap_endo())],
        "steps": [{"rewrite": 1, "machine": "gps-hacked"},
                  {"rewire": 1, "wiring": "gps-swap"}],
    }
    text = _dump(attack)
    adoc = ff.loads(text, "combo-attack.yaml")
    ref = apply_script(view, uav.combo_script()).system
    assert apply_script(view, adoc.script).system == ref
    out["uav/combo-attack.yaml"] = text
    return out


# ---------------------------------------------------------------------------
# finite categories
# ---------------------------------------------------------------------------

def constant_functor(cat: fc.FinCategory, name: str = "const") -> fc.SetFunctor:
    return fc.SetFunctor(name, cat,
                         {a: ("*",) for a in cat.objects},
                         {m.mid: {"*": "*"} for m in cat.morphisms})


def arrow() -> fc.FinCategory:
    return fc.FinCategory(
        "arrow", ("z", "o"),
        (fc.Morphism("idz", "z", "z"), fc.Morphism("ido", "o", "o"),
         fc.Morphism("m", "z", "o")),
        {"z": "idz", "o": "ido"},
        {("idz", "idz"): "idz", ("m", "idz"): "m", ("ido", "m"): "m",
         ("ido", "ido"): "ido"})


def parallel_pair() -> fc.FinCategory:
    return fc.FinCategory(
        "parallel-pair", ("x", "y"),
        (fc.Morphism("idx", "x", "x"), fc.Morphism("idy", "y", "y"),
         fc.Morphism("u", "x", "y"), fc.Morphism("v", "x", "y")),
        {"x": "idx", "y": "idy"},
        {("idx", "idx"): "idx", ("u", "idx"): "u", ("v", "idx"): "v",
         ("idy", "u"): "u", ("idy", "v"): "v", ("idy", "idy"): "idy"})


def cyc3_action() -> fc.SetFunctor:
    cat = cyc3()
    rot = {"x": "y", "y": "z", "z": "x", "w": "w"}
    rot2 = {k: rot[v] for k, v in rot.items()}
    return fc.SetFunctor("act4", cat, {"s": ("x", "y", "z", "w")},
                         {"e": {k: k for k in "xyzw"},
                          "r1": rot, "r2": rot2})


def pair_functor() -> fc.SetFunctor:
    cat = parallel_pair()
    return fc.SetFunctor("squash", cat,
                         {"x": ("p0", "p1"), "y": ("r",)},
                         {"idx": {"p0": "p0", "p1": "p1"}, "idy": {"r": "r"},
                          "u": {"p0": "r", "p1": "r"},
                          "v": {"p0": "r", "p1": "r"}})


def functor_data(F: fc.SetFunctor) -> dict:
    return {
        "name": F.name,
        "objects": {a: list(F.at(a)) for a in F.cat.objects},
        "morphisms": {m.mid: dict(F.map(m.mid)) for m in F.cat.morphisms},
    }


def category_data(cat: fc.FinCategory, functors) -> dict:
    return {
        "schema": "fincat.v1",
        "name": cat.name,
        "objects": list(cat.objects),
        "morphisms": [{"id": m.mid, "src": m.src, "tgt": m.tgt}
                      for m in cat.morphisms],
        "identities": dict(cat.identity),
        "composition": [{"after": g, "first": f, "result": gf}
                        for (g, f), gf in sorted(cat.composition.items())],
        "functors": [functor_data(F) for F in functors],
    }


def gen_fincat() -> dict[str, str]:
    out = {}
    entries = []
    for cat in (walking_iso(), arrow(), parallel_pair(), chain3(), cyc3()):
        functors = [fc.hom_functor(cat, a) for a in cat.objects]
        functors.append(constant_functor(cat))
        if cat.name == "parallel-pair":
            functors.append(pair_functor())
        if cat.name == "cyc3":
            functors.append(cyc3_action())
        entries.append((cat, functors))
    for cat, functors in entries:
        for F in functors:
            for a in cat.objects:
                fc.yoneda_check(cat, a, F)
        text = _dump(category_data(cat, functors))
        doc = ff.loads(text, f"{cat.name}.yaml")
        assert set(doc.functors) == {F.name for F in functors}
        out[f"fincat/{cat.name}.yaml"] = text
    return out


# ---------------------------------------------------------------------------
# golden renders
# ---------------------------------------------------------------------------

def gen_golden() -> dict[str, str]:
    return {
        "golden/identity.dot":
            wiring_dot(identity_wiring(uav.gps_box()), "identity"),
        "golden/sensor-view.dot":
            wiring_dot(uav.sensor_view_wiring(), "sensor-view"),
    }


GENERATORS = (gen_uav, gen_fincat, gen_golden)


if __name__ == "__main__":
    for gen in GENERATORS:
        for relpath, text in gen().items():
            path = os.path.join(ROOT, relpath)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            print(f"wrote fixtures/{relpath}")
    print("fixtures regenerated")
