"""``writers._dump`` writes exactly what ``yaml.safe_dump`` writes,
whichever emitter it picks, and ``fileformat`` reads it back equal.

Generated machines and systems get their boxes, ports, symbols and
states renamed from a pool of awkward names: longer than the 88-column
width, quoted, holding ``: `` or ``#``, with leading or trailing spaces,
YAML 1.1 words, number-like texts and non-ASCII ones.  A document whose
names are all ASCII goes through libyaml's emitter, so it is compared
with pyyaml's; each document is also written with ``yaml.CSafeDumper``
taken away, which leaves pyyaml's emitter alone.
"""

import pathlib
import random

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from netgen import random_network
from wirebox import writers
from wirebox.attacks import CompositeSystem
from wirebox.fileformat import dump_machine, dump_system, loads
from wirebox.moore import MooreMachine
from wirebox.wiring import Box, Const, InnerOut, OuterIn, Port, Table, Wiring

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
DUMP = writers._dump
ASCII_NAMES = [
    "a", "w" * 95, " ".join(["part"] * 20), "it's a " * 14 + "x",
    "k: " * 35 + "v", 'say "hi"', "key: value", "a #b", "#c", " lead",
    "trail ", "yes", "null", "on", "01", "1_000", ".5", "-", "? q", "[x]",
    "a,b", "~",
]
OTHER_NAMES = ["é", "naïve " * 16 + "x", "Ω", "ünï: cödé", " ℵ "]
libyaml = pytest.mark.skipif(not hasattr(yaml, "CSafeDumper"),
                             reason="pyyaml built without libyaml")


def safe_dump(data) -> str:
    return yaml.safe_dump(data, sort_keys=False, width=88)


def without_libyaml(data) -> str:
    with pytest.MonkeyPatch.context() as mp:
        mp.delattr(yaml, "CSafeDumper", raising=False)
        return DUMP(data)


def written(write, *args):
    """The text ``write(*args)`` returns and the data it gave ``_dump``."""
    seen = []

    def dump(data):
        seen.append(data)
        return DUMP(data)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(writers, "_dump", dump)
        text = write(*args)
    return text, seen[0]


def renamed(rng: random.Random, pool: list[str], wiring: Wiring,
            machines: tuple[MooreMachine, ...]):
    """The network with every box, port, symbol and state name replaced,
    one to one, by names drawn from ``pool``."""
    boxes = (*wiring.inner, *wiring.outer)
    olds = sorted({b.name for b in boxes}
                  | {p.name for b in boxes for p in (*b.in_ports, *b.out_ports)}
                  | {a for b in boxes for p in b.in_ports for a in p.alphabet}
                  | {s for m in machines for s in m.states})
    new = dict(zip(olds, rng.sample(pool, len(olds))))

    def port(p):
        return Port(new[p.name], tuple(new[a] for a in p.alphabet))

    def box(b):
        return Box(new[b.name], tuple(map(port, b.in_ports)),
                   tuple(map(port, b.out_ports)))

    def expr(e):
        if isinstance(e, OuterIn):
            return OuterIn(e.box, new[e.port])
        if isinstance(e, InnerOut):
            return InnerOut(e.box, new[e.port])
        if isinstance(e, Const):
            return Const(new[e.symbol])
        return Table(tuple(map(expr, e.sources)),
                     tuple((tuple(new[k] for k in key), new[v])
                           for key, v in e.entries))

    def machine(m):
        return MooreMachine(
            box(m.box), tuple(new[s] for s in m.states), new[m.init],
            {(new[s], tuple(new[a] for a in x)): new[t]
             for (s, x), t in m.update.items()},
            {new[s]: tuple(new[a] for a in r) for s, r in m.readout.items()})

    w = Wiring(tuple(map(box, wiring.inner)), tuple(map(box, wiring.outer)),
               {(i, new[p]): expr(e) for (i, p), e in wiring.in_map.items()},
               {(i, new[p]): expr(e) for (i, p), e in wiring.out_map.items()})
    return w, tuple(map(machine, machines)), set(new.values())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_dump_writes_what_safe_dump_writes(seed):
    rng = random.Random(seed)
    ascii_only = rng.random() < 0.75
    pool = ASCII_NAMES + ([] if ascii_only else OTHER_NAMES)
    wiring, machines, names = renamed(rng, pool, *random_network(rng))
    system = CompositeSystem(wiring, machines)
    text, data = written(dump_system, {"s": system})
    assert writers._printable_ascii(data) == all(n.isascii() for n in names)
    assert text == safe_dump(data) == without_libyaml(data)
    assert loads(text, "s.yaml").systems["s"] == system
    m = rng.choice(machines)
    text, data = written(dump_machine, "m", m)
    assert text == safe_dump(data) == without_libyaml(data)
    assert loads(text, "m.yaml").machine == m


@pytest.mark.parametrize("relpath", sorted(
    p.relative_to(FIXTURES).as_posix() for p in FIXTURES.rglob("*.yaml")))
def test_every_fixture_is_written_back_byte_for_byte(relpath):
    text = (FIXTURES / relpath).read_text(encoding="utf-8")
    data = yaml.safe_load(text)
    assert DUMP(data) == without_libyaml(data) == safe_dump(data) == text


@libyaml
def test_printable_ascii_data_goes_through_libyaml(monkeypatch):
    used = []

    class Spy(yaml.CSafeDumper):
        def __init__(self, *args, **kwargs):
            used.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(yaml, "CSafeDumper", Spy)
    names = {"ok": True, "é": False, "tab\t": False, "": True}
    for name, libyaml_writes in names.items():
        used.clear()
        data = {"name": name, "rows": [{"state": name, "input": [name]}]}
        assert DUMP(data) == safe_dump(data)
        assert bool(used) == libyaml_writes, name


@pytest.mark.parametrize("data", [
    {"": "v"}, {"k" * 123: "v"}, {"k" * 128: "v"}, {"n": 1}, {"n": None},
    {"n": True}, {"n": ("a",)}, {1: "a"}, {"n": "a\nb"},
])
def test_data_libyaml_might_write_differently_goes_through_pyyaml(data):
    assert not writers._printable_ascii(data)
    try:
        want = safe_dump(data)
    except yaml.YAMLError:
        with pytest.raises(yaml.YAMLError):
            DUMP(data)
        return
    assert DUMP(data) == want
