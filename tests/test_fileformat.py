"""Loading, validating, and dumping the YAML document formats."""

import copy
import importlib.util
import io
import pathlib
import random
import textwrap
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from netgen import random_network
from wirebox import fileformat
from wirebox.attacks import AttackError, CompositeSystem, apply_script
from wirebox.cli import EX_DATAERR, EX_OK, dispatch
from wirebox.fileformat import (AttackDoc, LoadError, MachineDoc, SystemDoc,
                                dump_machine, dump_system, load, load_kb_dir,
                                loads)
from wirebox.fincat import yoneda_check
from wirebox.fingerprints import fingerprint_components, fingerprint_wiring
from wirebox.moore import MooreMachine
from wirebox.oracle import find_distinguishing_word
from wirebox.wiring import (Box, InnerOut, OuterIn, Port, Wiring, compose,
                            identity_wiring, tensor)
from yaml_reference import marked_scalars

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

BIT = ("0", "1")
CELL = Box("cell", (Port("a", BIT),), (Port("q", BIT),))


def delay() -> MooreMachine:
    update = {(s, (a,)): a for s in BIT for a in BIT}
    return MooreMachine(CELL, BIT, "0", update, {s: (s,) for s in BIT})


@pytest.fixture(scope="module")
def scenario():
    return load(FIXTURES / "uav" / "scenario.yaml").scenario


def doc(text: str):
    return loads(textwrap.dedent(text), "t.yaml")


def err(text: str) -> LoadError:
    with pytest.raises(LoadError) as exc:
        doc(text)
    return exc.value


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

def test_machine_round_trip_is_exact():
    loaded = doc(dump_machine("d", delay()))
    assert isinstance(loaded, MachineDoc)
    assert loaded.name == "d"
    assert loaded.machine == delay()


def test_dumping_renders_tuple_states(scenario):
    composite = scenario.system("attacker-view").composite()
    loaded = doc(dump_machine("view", composite)).machine
    assert loaded.init == "(0,0,0,0,0)"  # one coordinate per slot
    assert find_distinguishing_word(loaded, composite, 4) is None


def test_system_round_trip_shares_equal_machines(scenario):
    real = scenario.system("real")
    loaded = doc(dump_system({"real": real}))
    assert isinstance(loaded, SystemDoc)
    # six components, five definitions: the duplicated unit is written once
    assert len(loaded.machines) == 5
    back = loaded.systems["real"]
    assert back.wiring == real.wiring
    assert back.components == real.components


def colliding_pair() -> CompositeSystem:
    # ("a,b", "c") and ("a", "b,c") both render as (a,b,c)
    def still(states):
        return MooreMachine(CELL, states, states[0],
                            {(s, (a,)): s for s in states for a in BIT},
                            {s: ("0",) for s in states})
    chain = Wiring((CELL, CELL), (CELL,),
                   {(0, "a"): OuterIn(0, "a"), (1, "a"): InnerOut(0, "q")},
                   {(0, "q"): InnerOut(1, "q")})
    return CompositeSystem(chain, (still(("a,b", "a")), still(("c", "b,c"))))


def test_dumping_refuses_states_that_render_alike():
    composite = colliding_pair().composite()
    with pytest.raises(LoadError, match=r"two states render as '\(a,b,c\)'"):
        dump_machine("pair", composite)


def test_dump_system_covers_several_systems(scenario):
    loaded = doc(dump_system({"view": scenario.system("attacker-view"),
                              "real": scenario.system("real")}))
    assert set(loaded.systems) == {"view", "real"}
    assert set(loaded.wirings) == {"view-wiring", "real-wiring"}


def test_dump_system_rejects_one_box_name_with_two_definitions():
    # each system alone is consistent; together they disagree on box cell
    wide = Box("cell", (Port("a", ("0", "1", "2")),), (Port("q", BIT),))
    update = {(s, (a,)): s for s in BIT for a in ("0", "1", "2")}
    keep = MooreMachine(wide, BIT, "0", update, {s: (s,) for s in BIT})
    systems = {
        "narrow": CompositeSystem(identity_wiring(CELL), (delay(),)),
        "wide": CompositeSystem(identity_wiring(wide), (keep,)),
    }
    with pytest.raises(LoadError, match="conflicting definitions") as exc:
        dump_system(systems)
    assert exc.value.path == "cell"


def test_attack_fixture_replays_the_combo(scenario):
    loaded = load(FIXTURES / "uav" / "combo-attack.yaml")
    assert isinstance(loaded, AttackDoc)
    assert loaded.system == "attacker-view"
    view = scenario.system("attacker-view")
    from_file = apply_script(view, loaded.script).system
    built = apply_script(view, scenario.script("combo").script).system
    assert from_file == built


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_dump_load_dump_is_a_fixed_point(seed):
    wiring, machines = random_network(random.Random(seed))
    system = CompositeSystem(wiring, machines)
    text = dump_system({"s": system})
    reloaded = loads(text, "s.yaml").systems["s"]
    assert dump_system({"s": reloaded}) == text
    assert reloaded == system
    assert fingerprint_wiring(reloaded.wiring) == fingerprint_wiring(wiring)
    assert (fingerprint_components(reloaded.components)
            == fingerprint_components(machines))


def test_fixtures_are_exactly_what_the_generator_writes():
    spec = importlib.util.spec_from_file_location(
        "gen_fixtures", ROOT / "scripts" / "gen_fixtures.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    texts = {}
    for generate in gen.GENERATORS:
        texts.update(generate())
    on_disk = {p.relative_to(FIXTURES).as_posix()
               for p in FIXTURES.rglob("*") if p.is_file()}
    assert on_disk == set(texts)
    for relpath, text in texts.items():
        assert (FIXTURES / relpath).read_text(encoding="utf-8") == text, relpath


def test_kb_directory_loads_in_filename_order():
    kb = load_kb_dir(str(FIXTURES / "uav" / "kb"))
    assert kb.names == ("profile-blinker", "profile-flatline",
                        "profile-hacked", "profile-stock")
    assert kb.box.name == "uav"


def test_kb_directory_rejects_other_schemas(tmp_path):
    (tmp_path / "a.yaml").write_text("schema: battery.v1\ntests: []\n")
    with pytest.raises(LoadError, match="machine.v1"):
        load_kb_dir(str(tmp_path))


def test_kb_directory_must_not_be_empty(tmp_path):
    with pytest.raises(LoadError, match="no machine files"):
        load_kb_dir(str(tmp_path))


# ---------------------------------------------------------------------------
# wiring construction forms
# ---------------------------------------------------------------------------

FORMS = """
    schema: system.v1
    boxes:
    - name: cell
      inputs:
      - {port: a, alphabet: ['0', '1']}
      outputs:
      - {port: q, alphabet: ['0', '1']}
    machines: []
    wirings:
    - name: wid
      identity: cell
    - name: pair
      tensor: [wid, wid]
    - name: twice
      compose: [wid, wid]
    systems: []
"""


def test_wiring_forms_match_the_programmatic_builders():
    loaded = doc(FORMS)
    wid = identity_wiring(CELL)
    assert loaded.wirings["wid"] == wid
    assert loaded.wirings["pair"] == tensor((wid, wid))
    assert loaded.wirings["twice"] == compose(wid, wid)


def test_forward_references_are_rejected():
    e = err("""
        schema: system.v1
        boxes:
        - name: cell
          inputs:
          - {port: a, alphabet: ['0', '1']}
          outputs:
          - {port: q, alphabet: ['0', '1']}
        wirings:
        - name: pair
          tensor: [wid, wid]
        - name: wid
          identity: cell
    """)
    assert e.path == "t.yaml.wirings[0].tensor[0]"
    assert "forward references" in e.message


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_missing_schema_key():
    e = err("name: x\n")
    assert e.path == "t.yaml"
    assert "schema" in e.message


def test_unknown_schema_lists_the_known_ones():
    e = err("schema: nope.v9\n")
    assert e.path == "t.yaml.schema"
    assert "machine.v1" in e.message


def test_invalid_yaml_is_a_load_error():
    e = err("schema: [unclosed\n")
    assert "not valid YAML" in e.message


def test_syntax_errors_give_the_same_line_and_column_under_either_loader(
        yaml_loader):
    # the loaders word the problem differently; the mark is shared
    e = err("a: [1\nb: 2]\n")
    assert e.message.startswith("not valid YAML at line 2, column 2: ")
    assert e.message != "not valid YAML at line 2, column 2: "


def test_a_tab_before_a_plain_scalar_parses_only_under_libyaml(yaml_loader):
    text = (FIXTURES / "uav" / "kb" / "profile-flatline.yaml").read_text()
    text = text.replace("name: profile", "name: \tprofile", 1)
    if yaml_loader is yaml.SafeLoader:
        with pytest.raises(LoadError, match="not valid YAML at line 2, column 7"):
            loads(text, "f.yaml")
    else:
        assert loads(text, "f.yaml").name == "profile-flatline"


def test_a_mid_document_byte_order_mark_fails_under_either_loader(yaml_loader):
    text = (FIXTURES / "uav" / "kb" / "profile-flatline.yaml").read_text()
    text = text.replace("\nbox:", "\n\ufeffbox:", 1)
    with pytest.raises(LoadError) as exc:
        loads(text, "f.yaml")
    if yaml_loader is yaml.SafeLoader:  # skipped, so it ends up in the key
        assert exc.value.message == "unknown keys ['\\ufeffbox']"
    else:
        assert exc.value.message.startswith("not valid YAML at line 3, column 2")


def test_a_repeated_key_is_refused_at_its_second_place_under_either_loader(
        yaml_loader):
    # the second init would win, and the machine start in state 1
    text = (FIXTURES / "uav" / "kb" / "profile-blinker.yaml").read_text()
    assert text.count("\n  init: '0'\n") == 1
    with pytest.raises(LoadError) as exc:
        loads(text.replace("\n  init: '0'\n", "\n  init: '0'\n  init: '1'\n"),
              "f.yaml")
    line = text[:text.index("  init: '0'")].count("\n") + 2
    assert str(exc.value) == \
        f"f.yaml: not valid YAML at line {line}, column 3: repeated key 'init'"
    assert err("schema: battery.v1\ntests: []\ntests: []\n").message == \
        "not valid YAML at line 3, column 1: repeated key 'tests'"


def test_a_merge_key_loads_and_a_key_beside_it_overrides_under_either_loader(
        yaml_loader):
    # the test beside the merge key keeps its own depth; a key repeated
    # beside a merge key is still refused
    loaded = doc("""
        schema: battery.v1
        tests:
        - &base {name: a, kind: traces, depth: 3}
        - {<<: *base, name: b}
    """)
    assert [(t.name, t.kind.depth) for t in loaded.tests] == [("a", 3), ("b", 3)]
    assert err("""
        schema: battery.v1
        tests:
        - &base {name: a, kind: traces, depth: 3}
        - {<<: *base, name: b, name: c}
    """).message == "not valid YAML at line 5, column 24: repeated key 'name'"


@pytest.mark.parametrize("schema, body, keys", [
    ("machine.v1", "machine", ["box", "name"]),
    ("wiring.v1", "wiring", ["name"]),
])
def test_a_body_may_not_name_what_its_document_names(schema, body, keys):
    # the document's own name and box are the ones a body key would hide
    if schema == "machine.v1":
        data = yaml.safe_load(
            (FIXTURES / "uav" / "kb" / "profile-blinker.yaml").read_text())
        data["machine"].update({"name": "other", "box": "nosuchbox"})
    else:
        data = {"schema": "wiring.v1", "name": "w",
                "boxes": [fileformat.box_data(CELL)],
                "wiring": {"identity": "cell"}}
        assert loads(yaml.safe_dump(data), "f.yaml").name == "w"
        data["wiring"]["name"] = "other"
    with pytest.raises(LoadError) as exc:
        loads(yaml.safe_dump(data), "f.yaml")
    assert str(exc.value) == f"f.yaml.{body}: unknown keys {keys}"


@pytest.mark.parametrize("text", ["01", "010", "1.50", "1_000", "0x1F", "+1",
                                  ".5", ".inf", "-0"])
def test_a_number_keeps_its_text_under_either_loader(yaml_loader, text):
    # written unquoted, each would otherwise load as a number that prints
    # differently, and as 1 for the first and for +1
    m = doc(f"""
        schema: machine.v1
        name: m
        box:
          name: cell
          inputs:
          - {{port: a, alphabet: [0, 1]}}
          outputs:
          - {{port: q, alphabet: [0, 1]}}
        machine:
          states: [{text}, 1]
          init: {text}
          update:
          - {{state: {text}, input: [0], next: 1}}
          - {{state: {text}, input: [1], next: {text}}}
          - {{state: 1, input: [0], next: 1}}
          - {{state: 1, input: [1], next: {text}}}
          readout:
          - {{state: {text}, output: [0]}}
          - {{state: 1, output: [1]}}
    """).machine
    assert (m.states, m.init) == ((text, "1"), text)
    assert m.update[(text, ("0",))] == "1" and m.update[("1", ("1",))] == text
    assert m.box.in_ports[0].alphabet == ("0", "1")


def test_an_integer_written_with_a_leading_zero_is_refused(yaml_loader):
    e = err("schema: battery.v1\ntests:\n- {name: a, kind: traces, depth: 06}\n")
    assert (e.path, e.message) == ("t.yaml.tests[0].depth",
                                   "expected an integer, got str")
    assert doc("schema: battery.v1\ntests:\n- {name: a, kind: traces, "
               "depth: 6}\n").tests[0].kind.depth == 6


FIXTURE_TEXTS = [p.read_text(encoding="utf-8")
                 for p in sorted(FIXTURES.glob("**/*.yaml"))]


@st.composite
def mutated_fixture(draw) -> str:
    """A fixture document with one to three characters or spans inserted,
    deleted or duplicated.  Tabs and byte-order marks are left out: the
    loaders are known to disagree on them (see the two tests above)."""
    text = draw(st.sampled_from(FIXTURE_TEXTS))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = min(len(text), i + draw(st.integers(1, 16)))
        edit = draw(st.sampled_from(["insert", "delete", "duplicate"]))
        if edit == "insert":
            c = draw(st.one_of(st.sampled_from(" \n:-[]{},#&*!|>'\"?%@`"),
                               st.characters(exclude_characters="\t\ufeff")))
            text = text[:i] + c + text[i:]
        elif edit == "delete":
            text = text[:i] + text[j:]
        else:
            text = text[:j] + text[i:j] + text[j:]
    return text


def parsed(text: str, loader):
    try:
        # repr tells 1 from True and 1.0, and a nan equals itself
        return repr(yaml.load(text, Loader=loader))
    except Exception:
        return "raised"


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                    reason="pyyaml built without libyaml")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_fixture())
def test_libyaml_parses_mutated_fixtures_like_the_pure_loader(text):
    assert parsed(text, yaml.CSafeLoader) == parsed(text, yaml.SafeLoader)


def outcome(text: str, loader) -> str:
    """The repr of what ``loader`` builds from ``text``, or the message
    ``fileformat`` gives its refusal."""
    try:
        return repr(yaml.load(text, Loader=loader))
    except Exception as e:
        return fileformat._yaml_problem(e)


def walked(text: str, parser) -> str:
    """``outcome`` for the walk over the nodes ``parser`` composes."""
    with mock.patch.object(fileformat, "_PARSER", parser):
        return outcome(text, fileformat._Walk)


PARSERS = [pytest.param(name, marks=pytest.mark.skipif(
    not hasattr(yaml, name), reason="pyyaml built without libyaml"))
    for name in ("SafeLoader", "CSafeLoader")]
REFERENCE = {name: marked_scalars(getattr(yaml, name))
             for name in ("SafeLoader", "CSafeLoader") if hasattr(yaml, name)}


@pytest.mark.parametrize("parser", PARSERS)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_fixture())
def test_the_walk_builds_what_the_reference_loader_builds(parser, text):
    assert walked(text, getattr(yaml, parser)) == outcome(text, REFERENCE[parser])


# documents the fixtures never hold, each built alike by the walk and the
# reference loader: data, or a refusal at the same mark
HAND_CASES = {
    "merge-list": ("a: &a {x: 1, y: 2}\nb: &b {x: 3, z: 4}\n"
                   "c: {<<: [*a, *b], w: 5}\n"),
    "merge-override": "a: &a {x: 1, y: 2}\nc: {<<: *a, x: 9}\n",
    "merge-repeat": "a: &a {x: 1}\nc: {<<: *a, y: 2, y: 3}\n",
    "merge-scalar": "a: &a x\nc: {<<: *a}\n",
    "merge-list-scalar": "a: &a {x: 1}\nc: {<<: [*a, y]}\n",
    "reused-alias": "a: &x [1, {k: v}]\nb: *x\nc: *x\n",
    "recursive-sequence": "&r [*r, 1]\n",
    "recursive-mapping": "&m {self: *m, k: v}\n",
    "recursive-key": "&m {*m : v}\n",
    "unhashable-sequence-key": "{[1, 2]: x}\n",
    "unhashable-mapping-key": "? {a: b}\n: c\n",
    "binary": "b: !!binary aGVsbG8=\n",
    "set": "s: !!set {a, b}\n",
    "unknown-tag": "x: !foo bar\n",
    "string-tag-on-a-list": "x: !!str [a]\n",
    "value-key": "=: a\n",
    "int": "x: !!int abc\n",
    "float": "x: !!float abc\n",
    "bool": "x: !!bool maybe\n",
    "timestamp": "x: !!timestamp abc\n",
    "impossible-date": "x: 2001-02-30\n",
    "number-text": "[01, 1.50, 0x1F, +1, .5, 1, 2.5, true, 2001-02-03]\n",
    "int-and-true-keys": "{1: a, true: b}\n",
    "empty": "",
}


@pytest.mark.parametrize("parser", PARSERS)
@pytest.mark.parametrize("case", HAND_CASES)
def test_the_walk_builds_each_hand_case_as_the_reference_loader(parser, case):
    text = HAND_CASES[case]
    assert walked(text, getattr(yaml, parser)) == \
        outcome(text, REFERENCE[parser])


def test_the_walk_merges_shares_aliases_and_refuses_at_the_mark():
    # an earlier mapping of a merge list wins, a key beside a merge wins
    # over both, and an alias is one object wherever it appears
    data = yaml.load(HAND_CASES["merge-list"], Loader=fileformat._Walk)
    assert data["c"] == {"x": 1, "y": 2, "z": 4, "w": 5}
    data = yaml.load(HAND_CASES["merge-override"], Loader=fileformat._Walk)
    assert data["c"] == {"x": 9, "y": 2}
    data = yaml.load(HAND_CASES["reused-alias"], Loader=fileformat._Walk)
    assert data["b"] is data["a"] is data["c"]
    data = yaml.load(HAND_CASES["recursive-sequence"], Loader=fileformat._Walk)
    assert data[0] is data
    # a mapping merged elsewhere before the walk fills it keeps the key
    # written beside its own merge; the reference refuses that key as a
    # repeat, since pyyaml's merge rewrites the node the reference reads
    text = "a: {b: &x {<<: {k: 0}, k: 1}}\nc: {<<: *x}\n"
    assert yaml.load(text, Loader=fileformat._Walk) == yaml.safe_load(text) \
        == {"a": {"b": {"k": 1}}, "c": {"k": 1}}
    assert outcome(text, REFERENCE["SafeLoader"]) == \
        "not valid YAML at line 1, column 24: repeated key 'k'"
    assert walked(HAND_CASES["merge-repeat"], fileformat._PARSER) == \
        "not valid YAML at line 2, column 19: repeated key 'y'"
    assert walked(HAND_CASES["unhashable-sequence-key"], fileformat._PARSER) \
        == "not valid YAML at line 1, column 2: found unhashable key"
    assert walked(HAND_CASES["unknown-tag"], fileformat._PARSER) == \
        ("not valid YAML at line 1, column 4: could not determine a "
         "constructor for the tag '!foo'")
    for case, tag, value in (("int", "int", "abc"), ("float", "float", "abc"),
                             ("bool", "bool", "maybe"),
                             ("timestamp", "timestamp", "abc"),
                             ("impossible-date", "timestamp", "2001-02-30")):
        assert walked(HAND_CASES[case], fileformat._PARSER) == \
            (f"not valid YAML at line 1, column 4: cannot read !!{tag} "
             f"value '{value}'")


# one value of each type the documents hold
ANY_TYPE = (None, True, 3, "s", ["s"], {"k": "s"})


def mutations(data):
    """Every document one structural edit away from ``data``: a key
    deleted, a value replaced by one of another type, an extra key added,
    or a list item duplicated."""

    def walk(node, rebuild):
        # rebuild(new) is the whole document with this node replaced by new
        for other in ANY_TYPE:
            if type(other) is not type(node):
                yield rebuild(other)
        if isinstance(node, dict):
            yield rebuild({**node, "extra": 1})
            for k in node:
                yield rebuild({j: v for j, v in node.items() if j != k})
                yield from walk(node[k],
                                lambda new, k=k: rebuild({**node, k: new}))
        elif isinstance(node, list):
            for i, item in enumerate(node):
                yield rebuild(node[:i + 1] + node[i:])
                yield from walk(
                    item, lambda new, i=i: rebuild(node[:i] + [new] + node[i + 1:]))

    yield from walk(data, lambda new: new)


def verdict(data, source: str) -> str:
    """``ok``, or the LoadError's path and message, for parsed YAML data."""
    try:
        fileformat._document(data, source)  # loads() without the YAML parse
    except LoadError as e:
        assert e.path.startswith(source), e
        return str(e)
    return "ok"


SMALL_FIXTURES = ("uav/battery.yaml", "uav/combo-attack.yaml",
                  "uav/kb/profile-blinker.yaml", "uav/kb/profile-flatline.yaml",
                  *(f"fincat/{p.name}" for p in sorted(FIXTURES.glob("fincat/*.yaml"))))


@pytest.mark.parametrize("relpath", SMALL_FIXTURES)
def test_every_structural_mutation_loads_or_fails_at_a_field_path(relpath):
    data = yaml.safe_load((FIXTURES / relpath).read_text(encoding="utf-8"))
    source = pathlib.PurePath(relpath).name
    verdicts = [verdict(d, source) for d in mutations(data)]
    # both outcomes occur, so the edits reach past the loader's first check
    assert "ok" in verdicts and any(v != "ok" for v in verdicts)


def cyc3_refusal(edit) -> str:
    """``str(LoadError)`` for the cyc3 fixture after ``edit(data)``."""
    data = yaml.safe_load((FIXTURES / "fincat" / "cyc3.yaml").read_text(
        encoding="utf-8"))
    edit(data)
    with pytest.raises(LoadError) as e:
        loads(yaml.safe_dump(data), "cyc3.yaml")
    return str(e.value)


def composition_row(data, after: str, first: str) -> dict:
    return next(r for r in data["composition"]
                if (r["after"], r["first"]) == (after, first))


def drop_composite(data):
    data["composition"].remove(composition_row(data, "r1", "r2"))


def break_associativity(data):
    composition_row(data, "r1", "r1")["result"] = "e"


def drop_functor_map(data):
    del data["functors"][2]["morphisms"]["r2"]


def break_functor_law(data):
    maps = data["functors"][2]["morphisms"]
    maps["r2"] = dict(maps["r1"])


@pytest.mark.parametrize("edit, text", [
    (drop_composite,
     "cyc3.yaml: category 'cyc3': no composite for composable pair (r1, r2)"),
    (break_associativity,
     "cyc3.yaml: category 'cyc3': associativity fails on (r1, r1, r2): "
     "r2 vs r1"),
    (drop_functor_map,
     "cyc3.yaml.functors[2]: functor 'act4': no map for morphism 'r2'"),
    (break_functor_law,
     "cyc3.yaml.functors[2]: functor 'act4': composition law fails on "
     "(r1, r1) at 'x'"),
], ids=["structural", "law", "functor-gap", "functor-law"])
def test_a_fincat_refusal_keeps_its_text(edit, text):
    # a structural error, a law violation, a functor gap, a functor law
    assert cyc3_refusal(edit) == text


def repeat_an_element(data):
    data["functors"][2]["objects"]["s"].append("x")


def value_at_unknown_object(data):
    data["functors"][2]["objects"]["zz"] = ["x"]


def map_for_unknown_morphism(data):
    data["functors"][2]["morphisms"]["nope"] = {"x": "x"}


@pytest.mark.parametrize("edit, message", [
    (repeat_an_element, "value at 's' repeats an element"),
    (value_at_unknown_object, "value at unknown object 'zz'"),
    (map_for_unknown_morphism, "map for unknown morphism 'nope'"),
], ids=["repeat", "unknown-object", "unknown-morphism"])
def test_a_functor_that_is_not_into_sets_of_the_category_is_refused(
        edit, message):
    assert cyc3_refusal(edit) == \
        f"cyc3.yaml.functors[2]: functor 'act4': {message}"


FINCAT_FIXTURES = sorted(FIXTURES.glob("fincat/*.yaml"))


@pytest.mark.parametrize("path", FINCAT_FIXTURES, ids=lambda p: p.name)
def test_every_fincat_mutation_is_refused_or_passes_the_lemma(path, tmp_path):
    # a loadable category document cannot fail yoneda-check, in process
    # or through the command line; one whose functors key was deleted has
    # nothing to check, which the command refuses
    loaded = 0
    for k, data in enumerate(mutations(yaml.safe_load(
            path.read_text(encoding="utf-8")))):
        try:
            doc = fileformat._document(data, path.name)
        except LoadError as e:
            assert e.path.startswith(path.name), e
            continue
        loaded += 1
        for F in doc.functors.values():
            for a in doc.category.objects:
                yoneda_check(doc.category, a, F)
        mutant = tmp_path / str(k) / path.name
        mutant.parent.mkdir()
        mutant.write_text(yaml.safe_dump(data), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        code = dispatch(["yoneda-check", "--file", str(mutant)], out, err)
        want = EX_OK if doc.functors else EX_DATAERR
        assert (code, "Traceback" in err.getvalue()) == (want, False), \
            (k, out.getvalue(), err.getvalue())
    assert loaded


#: how many of the scenario's refused mutations go through the commands;
#: never shrink or re-seed the draw to hide a failure
REFUSED_SAMPLE, REFUSED_SEED = 30, 9


def test_a_scenario_that_validates_runs_and_one_refused_names_its_field(
        tmp_path):
    # every loadable one-edit mutation of scenario.yaml validates, and then
    # every script it names applies; a seeded sample of the refused ones
    # is refused by validate, attack and diff alike, with exit 65, no
    # traceback and an error at a field path of the file
    loaded, refused = [], []
    for data in mutations(yaml.safe_load(
            (FIXTURES / "uav" / "scenario.yaml").read_text(encoding="utf-8"))):
        try:
            loaded.append((data, fileformat._document(data, "scenario.yaml")))
        except LoadError:
            refused.append(data)
    assert loaded and refused
    path = tmp_path / "scenario.yaml"
    dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

    def run(*argv):
        out, err = io.StringIO(), io.StringIO()
        return dispatch(list(argv), out, err), out.getvalue(), err.getvalue()

    for data, doc in loaded:
        path.write_text(yaml.dump(data, Dumper=dumper), encoding="utf-8")
        code, out, err = run("validate", str(path))
        assert (code, err) == (EX_OK, ""), out
        for entry in doc.scenario.scripts:
            code, out, err = run("attack", "--scenario", str(path),
                                 "--script", entry.name)
            assert (code, err) == (EX_OK, ""), (entry.name, err)
    rng = random.Random(REFUSED_SEED)
    names = [e.name for e in load(FIXTURES / "uav" / "scenario.yaml")
             .scenario.scripts]
    for data in rng.sample(refused, REFUSED_SAMPLE):
        path.write_text(yaml.dump(data, Dumper=dumper), encoding="utf-8")
        script = rng.choice(names)
        for argv in (("validate", str(path)),
                     ("attack", "--scenario", str(path), "--script", script),
                     ("diff", "--scenario", str(path), "--script", script)):
            code, out, err = run(*argv)
            assert (code, out) == (EX_DATAERR, ""), (argv, err)
            assert "Traceback" not in err
            assert err.startswith("error: scenario.yaml") \
                and err[len("error: scenario.yaml")] in ".[:", err


def test_top_level_must_be_a_mapping():
    e = err("- 1\n- 2\n")
    assert "expected a mapping" in e.message


def test_machine_validation_runs_at_load_time():
    e = err("""
        schema: machine.v1
        name: bad
        box:
          name: cell
          inputs:
          - {port: a, alphabet: ['0', '1']}
          outputs:
          - {port: q, alphabet: ['0', '1']}
        machine:
          states: ['0']
          init: '9'
          update:
          - {state: '0', input: ['0'], next: '0'}
          - {state: '0', input: ['1'], next: '0'}
          readout:
          - {state: '0', output: ['0']}
    """)
    assert e.path == "t.yaml.machine"
    assert "init" in e.message


def test_unknown_keys_are_rejected():
    e = err("schema: battery.v1\ntests: []\nbonus: 1\n")
    assert "bonus" in e.message


def test_duplicate_test_names_are_rejected():
    e = err("""
        schema: battery.v1
        tests:
        - {name: t, kind: terminal}
        - {name: t, kind: states}
    """)
    assert e.path == "t.yaml.tests"


def test_unknown_test_kind_points_at_the_field():
    e = err("""
        schema: battery.v1
        tests:
        - {name: t, kind: wibble}
    """)
    assert e.path == "t.yaml.tests[0].kind"


@pytest.mark.parametrize("test, stray", [
    ("{name: a, kind: states, depth: 3}", "depth"),
    ("{name: a, kind: traces, depth: 2, step: 9}", "step"),
    ("{name: a, kind: terminal, step: 1}", "step"),
    ("{name: a, kind: output-image, step: 1, depth: 1}", "depth"),
    ("{name: a, kind: states, compare: equality}", "compare"),
])
def test_a_test_takes_only_its_own_kinds_parameters(test, stray):
    e = err(f"schema: battery.v1\ntests:\n- {test}\n")
    assert e.path == "t.yaml.tests[0]"
    assert e.message == f"unknown keys [{stray!r}]"


@pytest.mark.parametrize("test, message", [
    ("{name: a, kind: traces, depth: -1}", "trace depth must be nonnegative"),
    ("{name: a, kind: output-image, step: -2}",
     "output image step must be nonnegative"),
])
def test_a_negative_parameter_fails_at_its_test(test, message):
    e = err(f"schema: battery.v1\ntests:\n- {test}\n")
    assert (e.path, e.message) == ("t.yaml.tests[0]", message)


def test_unknown_component_points_at_the_slot():
    e = err("""
        schema: system.v1
        boxes:
        - name: cell
          inputs:
          - {port: a, alphabet: ['0', '1']}
          outputs:
          - {port: q, alphabet: ['0', '1']}
        wirings:
        - name: wid
          identity: cell
        systems:
        - name: s
          wiring: wid
          components: [ghost]
    """)
    assert e.path == "t.yaml.systems[0].components[0]"
    assert "ghost" in e.message


CELL_BOX = """
        - name: cell
          inputs:
          - {port: a, alphabet: ['0', '1']}
          outputs:
          - {port: q, alphabet: ['0', '1']}
"""


@pytest.mark.parametrize("text, path, message", [
    # each field is read inside the constructor call that turns a
    # library refusal into an error at the enclosing row
    ("schema: wiring.v1\nname: w\nboxes:\n- name: cell\n  inputs:\n"
     "  - {port: a}\n  outputs: []\nwiring: {identity: cell}\n",
     "t.yaml.boxes[0].inputs[0]", "missing required key 'alphabet'"),
    ("schema: system.v1\nboxes:" + CELL_BOX + "wirings:\n- name: w\n"
     "  inner: [cell, ghost]\n  outer: [cell]\n  inputs: []\n  outputs: []\n",
     "t.yaml.wirings[0].inner[1]", "unknown box 'ghost'"),
    ("schema: system.v1\nboxes:" + CELL_BOX + "wirings:\n- name: wid\n"
     "  identity: cell\n- name: once\n  compose: [wid]\n",
     "t.yaml.wirings[1].compose", "needs at least two wirings"),
])
def test_a_field_read_inside_a_constructor_keeps_its_own_path(text, path,
                                                              message):
    e = err(text)
    assert (e.path, e.message) == (path, message)


def test_attack_step_must_be_rewrite_or_rewire():
    e = err("""
        schema: attack.v1
        name: a
        steps:
        - {frobnicate: 1}
    """)
    assert e.path == "t.yaml.steps[0]"


def test_attack_documents_carry_no_morphism_rewrites():
    data = yaml.safe_load((FIXTURES / "uav" / "combo-attack.yaml").read_text())
    data["steps"][0]["state_map"] = {"0": "0"}
    with pytest.raises(LoadError) as exc:
        loads(yaml.safe_dump(data, sort_keys=False), "attack.yaml")
    assert exc.value.path == "attack.yaml.steps[0].state_map"
    assert exc.value.message.startswith("attack documents define no systems")
    assert exc.value.message.endswith("it belongs in a scenario.v1 script")


def test_load_reports_unreadable_files():
    with pytest.raises(LoadError, match="cannot read"):
        load("/does/not/exist.yaml")


# ---------------------------------------------------------------------------
# scenario-level validation, by mutating the fixture
# ---------------------------------------------------------------------------

def scenario_data() -> dict:
    text = (FIXTURES / "uav" / "scenario.yaml").read_text()
    return yaml.safe_load(text)


def reload(data: dict):
    return loads(yaml.safe_dump(data, sort_keys=False), "scenario.yaml")


def test_correspondence_must_not_repeat_view_slots():
    data = scenario_data()
    data["correspondence"][1]["view"] = data["correspondence"][0]["view"]
    with pytest.raises(LoadError, match="duplicate view slot"):
        reload(data)


def test_correspondence_must_cover_every_real_slot():
    data = scenario_data()
    data["correspondence"][0]["real"] = [0]  # drops the second unit
    with pytest.raises(LoadError, match="real slots must cover"):
        reload(data)


def test_kb_rows_need_a_machine_or_a_system():
    data = scenario_data()
    data["kb"][0] = {"name": "x"}
    with pytest.raises(LoadError, match="machine or system") as exc:
        reload(data)
    assert exc.value.path == "scenario.yaml.kb[0]"


@pytest.mark.parametrize("identities, objects, path", [
    ("0: e, '0': e", "'0': [a]", "t.yaml.identities[0]"),
    ("'0': e", "0: [a], '0': [b]", "t.yaml.functors[0].objects[0]"),
])
def test_a_category_key_whose_text_repeats_is_refused(identities, objects,
                                                      path):
    e = err(f"""
        schema: fincat.v1
        name: one
        objects: ['0']
        morphisms: [{{id: e, src: '0', tgt: '0'}}]
        identities: {{{identities}}}
        composition: [{{after: e, first: e, result: e}}]
        functors: [{{name: F, objects: {{{objects}}}, morphisms: {{e: {{a: a}}}}}}]
    """)
    assert (e.path, e.message) == (path, "keys 0 and '0' both read as '0'")


def test_state_map_must_be_a_machine_morphism():
    data = scenario_data()
    minimize = next(s for s in data["scripts"] if s["name"] == "gps-minimize")
    minimize["steps"][0]["state_map"]["00"] = "1"  # breaks the init square
    with pytest.raises(LoadError) as exc:
        reload(data)
    assert exc.value.path.endswith(".steps[0].state_map")


@pytest.mark.parametrize("script, change, field, message", [
    ("gps-firmware", {"rewrite": 9}, "rewrite", "no component 9; system has 5"),
    ("gps-swap", {"rewire": 9}, "rewire", "no component 9; system has 5"),
    ("gps-minimize", {"rewrite": -1}, "rewrite", "no component -1; system has 5"),
    ("gps-firmware", {"rewrite": 0}, "rewrite",
     "replacement does not fit slot 0: box 'gps' vs 'imu'"),
    ("gps-swap", {"rewire": 0}, "rewire",
     "endomorphism does not fit slot 0: box 'gps' vs 'imu'"),
    # a morphism rewrite's target is checked against the slot's component
    ("gps-minimize", {"rewrite": 0}, "state_map",
     "source and target inhabit different boxes: box 'imu' vs 'gps'"),
])
def test_scenario_steps_must_fit_their_system(script, change, field, message):
    # the checks the step would fail when applied, made at load
    data = scenario_data()
    k = next(k for k, s in enumerate(data["scripts"]) if s["name"] == script)
    data["scripts"][k]["steps"][0].update(change)
    with pytest.raises(LoadError) as exc:
        reload(data)
    assert exc.value.path == f"scenario.yaml.scripts[{k}].steps[0].{field}"
    assert exc.value.message == message


def test_a_morphism_rewrite_after_a_plain_rewrite_of_its_slot_loads():
    # a plain rewrite puts gps-history in slot 1 of attacker-view, so
    # gps-minimize's morphism is checked against it, not against gps-1,
    # the slot's machine before the script
    data = scenario_data()
    minimize = next(s for s in data["scripts"] if s["name"] == "gps-minimize")
    data["scripts"].append({
        "name": "history-then-minimize", "system": "attacker-view",
        "steps": [{"rewrite": 1, "machine": "gps-history"},
                  copy.deepcopy(minimize["steps"][0])]})
    scenario = reload(data).scenario
    aimed = scenario.script("history-then-minimize")
    view = scenario.system(aimed.system)
    attacked = apply_script(view, aimed.script)
    # the plain rewrite lifts no morphism, the morphism rewrite one
    assert [w is None for w in attacked.witnesses] == [True, False]
    assert find_distinguishing_word(attacked.system.composite(),
                                    view.composite(), 10) is None


def test_attack_documents_check_their_steps_when_applied():
    # no system to check against at load: the slot fails when applied
    data = yaml.safe_load((FIXTURES / "uav" / "combo-attack.yaml").read_text())
    data["steps"][0]["rewrite"] = 9
    doc = loads(yaml.safe_dump(data, sort_keys=False), "attack.yaml")
    assert doc.script.steps[0].index == 9
    system = load(FIXTURES / "uav" / "scenario.yaml").scenario.system(doc.system)
    with pytest.raises(AttackError, match="step 0: no component 9; system has 5"):
        apply_script(system, doc.script)


def test_scenario_script_names_must_not_repeat():
    data = scenario_data()
    first = data["scripts"][0]["name"]
    data["scripts"][1]["name"] = first
    with pytest.raises(LoadError) as exc:
        reload(data)
    assert exc.value.path == "scenario.yaml.scripts[1]"
    assert exc.value.message == f"duplicate script {first!r}"


def test_scenario_battery_test_names_must_not_repeat():
    data = scenario_data()
    data["battery"][1]["name"] = data["battery"][0]["name"]
    with pytest.raises(LoadError) as exc:
        reload(data)
    assert exc.value.path == "scenario.yaml.battery"
    assert exc.value.message == "test names repeat"


def test_scripts_may_only_target_known_systems():
    data = scenario_data()
    data["scripts"][0]["system"] = "ghost"
    with pytest.raises(LoadError, match="ghost") as exc:
        reload(data)
    assert exc.value.path == "scenario.yaml.scripts[0].system"
