"""The command line: exit codes, output shapes, and file handling."""

import copy
import hashlib
import io
import os
import pathlib
import re
import subprocess
import sys

import pytest
import yaml

import wirebox.attacks
import wirebox.fincat
import wirebox.moore
from wirebox.cli import (EX_CANTCREAT, EX_DATAERR, EX_OK, EX_USAGE, dispatch,
                         format_word, parse_word)
from wirebox.attacks import CompositeSystem
from wirebox.dot import wiring_dot
from wirebox.fileformat import dump_machine, dump_system, load, loads
from wirebox.moore import MooreMachine, run
from wirebox.oracle import bisimilar, find_distinguishing_word
from wirebox.wiring import Box, InnerOut, OuterIn, Port, Wiring

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
UAV = FIXTURES / "uav"


@pytest.fixture(scope="module")
def scenario():
    return load(UAV / "scenario.yaml").scenario


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = dispatch([str(a) for a in argv], out, err)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# words and usage
# ---------------------------------------------------------------------------

def test_word_syntax_round_trips():
    word = (("0", "1"), ("1", "0"))
    assert parse_word("0|1,1|0") == word
    assert format_word(word) == "0|1,1|0"
    assert parse_word("") == ()


def test_no_command_is_a_usage_error():
    code, _, err = cli()
    assert code == EX_USAGE
    assert "usage" in err


def test_unknown_command_is_a_usage_error():
    code, _, err = cli("frobnicate")
    assert code == EX_USAGE


def test_help_exits_cleanly():
    code, _, _ = cli("--help")
    assert code == EX_OK


def test_missing_file_is_a_data_error():
    code, _, err = cli("validate", "/does/not/exist.yaml")
    assert code == EX_DATAERR
    assert err.startswith("error:")


# each crashed the parse with a traceback before every parse error became
# a LoadError
MALFORMED = {
    "impossible-date": "2001-02-30",
    "int-tag": "!!int abc",
    "float-tag": "!!float abc",
    "timestamp-tag": "!!timestamp abc",
    "bool-tag": "!!bool maybe",
    "5000-digit-integer": "1" * 5000,
    "5000-deep-sequence": "[" * 5000 + "]" * 5000,
}

# the tag each malformed scalar is read as
SCALAR_TAG = {"impossible-date": "timestamp", "int-tag": "int",
              "float-tag": "float", "timestamp-tag": "timestamp",
              "bool-tag": "bool", "5000-digit-integer": "int"}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_scalars_exit_65_without_a_traceback(tmp_path, case,
                                                       yaml_loader):
    path = tmp_path / "bad.yaml"
    path.write_text(f"schema: machine.v1\nname: {MALFORMED[case]}\n")
    code, out, err = cli("validate", path)
    assert (code, out) == (EX_DATAERR, "")
    assert "Traceback" not in err
    if case.endswith("deep-sequence") and yaml_loader is not yaml.SafeLoader:
        # libyaml does not recurse per level: the nesting parses, and the
        # document is refused for what it lacks
        assert err == "error: bad.yaml: missing required key 'box'\n"
    elif case in SCALAR_TAG:
        # the scalar starts at line 2, column 7, after "name: "
        text = MALFORMED[case].split()[-1][:40]
        assert err == (f"error: bad.yaml: not valid YAML at line 2, column 7: "
                       f"cannot read !!{SCALAR_TAG[case]} value '{text}'\n")
    else:
        assert err.startswith("error: bad.yaml: not valid YAML")


def nested_tables(depth: int) -> str:
    """A wiring.v1 whose one outer output reads ``depth`` nested tables."""
    expr = "{inner: 0.y}"
    for _ in range(depth):
        expr = (f"{{table: {{sources: [{expr}], "
                f"rows: [{{key: ['0'], value: '0'}}, {{key: ['1'], value: '1'}}]}}}}")
    return ("schema: wiring.v1\nname: deep\nboxes:\n"
            "- {name: B, inputs: [{port: x, alphabet: ['0', '1']}], "
            "outputs: [{port: y, alphabet: ['0', '1']}]}\n"
            "wiring:\n  inner: [B]\n  outer: [B]\n"
            "  inputs: [{target: 0.x, from: {outer: 0.x}}]\n"
            f"  outputs: [{{target: 0.y, from: {expr}}}]\n")


def test_a_table_nested_100_deep_loads(tmp_path):
    path = tmp_path / "deep.yaml"
    path.write_text(nested_tables(100))
    code, out, err = cli("validate", path)
    assert (code, err) == (EX_OK, "")
    assert out == "ok: wiring 'deep', 1 inner boxes -> 1 outer\n"


# the refusal of the 101st nested table, at the outermost expression
TOO_DEEP = ("error: deep.yaml.wiring.outputs[0].from: table expression nests "
            "more than 100 tables deep\n")


def test_a_document_nested_too_deeply_exits_65_without_a_traceback(
        tmp_path, yaml_loader):
    path = tmp_path / "deep.yaml"
    path.write_text(nested_tables(250))
    code, out, err = cli("validate", path)
    assert (code, out) == (EX_DATAERR, "")
    assert err.count("\n") == 1
    if yaml_loader is yaml.SafeLoader:
        # the pure-Python parser recurses per level and refuses first
        assert err.startswith("error: deep.yaml: ")
    else:
        # libyaml parses the nesting; loading refuses the 101st table
        assert err == TOO_DEEP


def test_a_table_nested_101_deep_is_refused_alike_in_any_process(tmp_path):
    # the bound is the document's, not the caller's stack depth
    path = tmp_path / "deep.yaml"
    path.write_text(nested_tables(101))
    assert cli("validate", path) == (EX_DATAERR, "", TOO_DEEP)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "wirebox.cli", "validate",
                           str(path)], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (EX_DATAERR, "", TOO_DEEP)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_reports_each_document_shape():
    cases = (
        (UAV / "kb" / "profile-stock.yaml", "ok: machine 'profile-stock'"),
        (UAV / "scenario.yaml", "ok: scenario 'uav-redundant-imu'"),
        (UAV / "battery.yaml", "ok: 4 tests"),
        (UAV / "combo-attack.yaml", "ok: attack 'combo', 2 steps"),
        (FIXTURES / "fincat" / "walking-iso.yaml", "ok: category"),
    )
    for path, prefix in cases:
        code, out, _ = cli("validate", path)
        assert code == EX_OK
        # warnings, if any, come first; the verdict is the last line
        assert out.splitlines()[-1].startswith(prefix), (path, out)


def test_validate_counts_a_system_documents_parts(tmp_path):
    cell = Box("cell", (Port("a", ("0", "1")),), (Port("q", ("0", "1")),))
    still = MooreMachine(cell, ("0",), "0", {("0", ("0",)): "0",
                                             ("0", ("1",)): "0"},
                         {"0": ("0",)})
    chain = Wiring((cell, cell), (Box("two", cell.in_ports, cell.out_ports),),
                   {(0, "a"): OuterIn(0, "a"), (1, "a"): InnerOut(0, "q")},
                   {(0, "q"): InnerOut(1, "q")})
    path = tmp_path / "pair.yaml"
    path.write_text(dump_system({"pair": CompositeSystem(chain, (still, still))}))
    assert cli("validate", path) == \
        (EX_OK, "ok: 2 boxes, 1 machines, 1 wirings, 1 systems\n", "")


@pytest.mark.parametrize("section", ["scripts", "battery"])
def test_validate_rejects_a_scenario_that_repeats_a_name(tmp_path, section):
    data = yaml.safe_load((UAV / "scenario.yaml").read_text())
    data[section][1]["name"] = data[section][0]["name"]
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    code, out, err = cli("validate", path)
    assert code == EX_DATAERR
    assert out == ""
    assert err.startswith(f"error: scenario.yaml.{section}")


@pytest.mark.parametrize("command", ["validate", "yoneda-check"])
def test_a_functor_that_repeats_an_element_is_a_data_error(tmp_path, command):
    # validate once printed ok for it, and yoneda-check exited 1
    data = yaml.safe_load((FIXTURES / "fincat" / "arrow.yaml").read_text())
    data["functors"][0]["objects"]["z"].append("idz")
    path = tmp_path / "arrow.yaml"
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    argv = [command, path] if command == "validate" else [command, "--file", path]
    assert cli(*argv) == (EX_DATAERR, "", "error: arrow.yaml.functors[0]: "
                          "functor 'hom(z,-)': value at 'z' repeats an element\n")


@pytest.mark.parametrize("script, key", [("gps-firmware", "rewrite"),
                                         ("gps-swap", "rewire")])
def test_a_step_past_the_system_slots_fails_at_load(tmp_path, script, key):
    data = yaml.safe_load((UAV / "scenario.yaml").read_text())
    k = next(k for k, s in enumerate(data["scripts"]) if s["name"] == script)
    data["scripts"][k]["steps"][0][key] = 9
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    want = (f"error: scenario.yaml.scripts[{k}].steps[0].{key}: "
            f"no component 9; system has 5\n")
    for argv in (("validate", path),
                 ("diff", "--scenario", path, "--script", script)):
        assert cli(*argv) == (EX_DATAERR, "", want)


def with_minimize_steps(tmp_path, change) -> tuple[int, pathlib.Path]:
    """The scenario with ``change(data, steps)`` applied, where ``steps``
    are gps-minimize's, written to a file; and gps-minimize's index."""
    data = yaml.safe_load((UAV / "scenario.yaml").read_text())
    k = next(k for k, s in enumerate(data["scripts"])
             if s["name"] == "gps-minimize")
    change(data, data["scripts"][k]["steps"])
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    return k, path


def test_every_command_refuses_a_morphism_from_a_replaced_component(tmp_path):
    # a second copy of gps-minimize's step maps gps-history's states, but
    # the first copy leaves gps-stock in slot 1: every command refuses the
    # script at the second step's state_map
    k, path = with_minimize_steps(
        tmp_path, lambda _, steps: steps.append(copy.deepcopy(steps[0])))
    want = (f"error: scenario.yaml.scripts[{k}].steps[1].state_map: "
            f"state map misses 0\n")
    for argv in (("validate", path),
                 ("diff", "--scenario", path, "--script", "gps-minimize"),
                 ("attack", "--scenario", path, "--script", "gps-minimize")):
        assert cli(*argv) == (EX_DATAERR, "", want)


def test_every_command_runs_a_morphism_from_a_rewritten_component(tmp_path):
    # a plain rewrite puts gps-history in slot 1, so gps-minimize's
    # morphism applies next, and every command runs the script
    def append(data, steps):
        data["scripts"].append({
            "name": "history-then-minimize", "system": "attacker-view",
            "steps": [{"rewrite": 1, "machine": "gps-history"},
                      copy.deepcopy(steps[0])]})
    _, path = with_minimize_steps(tmp_path, append)
    code, out, err = cli("validate", path)
    assert (code, err) == (EX_OK, "") and out.endswith(", 6 scripts\n")
    code, out, err = cli("diff", "--scenario", path,
                         "--script", "history-then-minimize")
    assert (code, err) == (EX_OK, "")
    assert out.splitlines()[-1] == "equal to depth 6"
    code, out, err = cli("attack", "--scenario", path,
                         "--script", "history-then-minimize")
    assert (code, err) == (EX_OK, "")
    assert out.startswith("step 0: rewrite[replace] component 1 ")


def test_validate_names_the_test_with_a_negative_depth(tmp_path):
    path = tmp_path / "neg.yaml"
    path.write_text("schema: battery.v1\ntests:\n"
                    "- {name: a, kind: traces, depth: -1}\n")
    code, out, err = cli("validate", path)
    assert (code, out) == (EX_DATAERR, "")
    assert err == "error: neg.yaml.tests[0]: trace depth must be nonnegative\n"


# ---------------------------------------------------------------------------
# compose and simulate
# ---------------------------------------------------------------------------

def test_compose_emits_the_composite_machine(scenario):
    code, out, _ = cli("compose", "--system", UAV / "scenario.yaml",
                       "--name", "attacker-view")
    assert code == EX_OK
    doc = loads(out, "composed.yaml")
    assert doc.name == "attacker-view"
    view = scenario.system("attacker-view").composite()
    assert find_distinguishing_word(doc.machine, view, 5) is None


def test_compose_unknown_name_is_a_data_error():
    code, _, err = cli("compose", "--system", UAV / "scenario.yaml",
                       "--name", "ghost")
    assert code == EX_DATAERR
    assert "ghost" in err


def test_compose_refuses_a_state_space_over_the_limit(tmp_path):
    # ten four-state shift registers in a row: 4**10 states x 2 inputs
    bit = ("0", "1")
    cell = Box("cell", (Port("a", bit),), (Port("q", bit),))
    states = tuple(a + b for a in bit for b in bit)
    register = MooreMachine(cell, states, "00",
                            {(s, (a,)): s[1] + a for s in states for a in bit},
                            {s: (s[1],) for s in states})
    in_map = {(0, "a"): OuterIn(0, "a")}
    in_map.update({(i, "a"): InnerOut(i - 1, "q") for i in range(1, 10)})
    row = Wiring((cell,) * 10, (Box("row", cell.in_ports, cell.out_ports),),
                 in_map, {(0, "q"): InnerOut(9, "q")})
    path = tmp_path / "row.yaml"
    path.write_text(dump_system({"row": CompositeSystem(row, (register,) * 10)}))
    code, out, err = cli("compose", "--system", path, "--name", "row")
    assert code == EX_DATAERR
    assert out == ""
    assert "2097152 transitions, over the limit of 1048576" in err


@pytest.mark.parametrize("command", [
    ("simulate", "--input", "1,0,1"),
    ("compose",),
])
def test_a_reachable_part_over_the_limit_is_a_data_error(tmp_path, monkeypatch,
                                                          command):
    # twenty shift registers in a row reach 2**21 states x 2 inputs; the
    # limit is lowered so the refused search stays small
    monkeypatch.setattr(wirebox.moore, "MAX_TRANSITIONS", 2 ** 12)
    bit = ("0", "1")
    cell = Box("cell", (Port("a", bit),), (Port("q", bit),))
    states = tuple(a + b for a in bit for b in bit)
    register = MooreMachine(cell, states, "00",
                            {(s, (a,)): s[1] + a for s in states for a in bit},
                            {s: (s[1],) for s in states})
    in_map = {(0, "a"): OuterIn(0, "a")}
    in_map.update({(i, "a"): InnerOut(i - 1, "q") for i in range(1, 20)})
    row = Wiring((cell,) * 20, (Box("row", cell.in_ports, cell.out_ports),),
                 in_map, {(0, "q"): InnerOut(19, "q")})
    path = tmp_path / "row.yaml"
    path.write_text(dump_system({"row": CompositeSystem(row, (register,) * 20)}))
    code, out, err = cli(command[0], "--system", path, "--name", "row",
                         *command[1:])
    assert code == EX_DATAERR
    assert out == ""
    assert re.search(r"reaches at least \d+ states x 2 inputs = \d+ "
                     r"transitions, over the limit of 4096", err)
    assert "Traceback" not in err


def test_compose_refuses_a_composite_whose_states_render_alike(tmp_path):
    # ("a,b", "c") and ("a", "b,c") both render as (a,b,c)
    cell = Box("cell", (Port("a", ("0", "1")),), (Port("q", ("0", "1")),))

    def still(states):
        return MooreMachine(cell, states, states[0],
                            {(s, (a,)): s for s in states for a in "01"},
                            {s: ("0",) for s in states})
    chain = Wiring((cell, cell), (cell,),
                   {(0, "a"): OuterIn(0, "a"), (1, "a"): InnerOut(0, "q")},
                   {(0, "q"): InnerOut(1, "q")})
    path = tmp_path / "pair.yaml"
    path.write_text(dump_system({"pair": CompositeSystem(
        chain, (still(("a,b", "a")), still(("c", "b,c"))))}))
    code, out, err = cli("compose", "--system", path, "--name", "pair")
    assert (code, out) == (EX_DATAERR, "")
    assert err.startswith("error: pair: two states render as '(a,b,c)'")


def test_simulate_prints_one_output_per_step():
    code, out, _ = cli("simulate", "--machine", UAV / "target.yaml",
                       "--input", "0|0,1|1,0|0")
    assert code == EX_OK
    m = load(UAV / "target.yaml").machine
    expected = ["|".join(o) for o in run(m, parse_word("0|0,1|1,0|0"))]
    assert out.splitlines() == expected


def test_simulate_on_a_named_system():
    code, out, _ = cli("simulate", "--system", UAV / "scenario.yaml",
                       "--name", "real", "--input", "0|0,0|0")
    assert code == EX_OK
    assert out.splitlines() == ["0", "0"]


def test_simulate_needs_exactly_one_source():
    code, _, _ = cli("simulate", "--input", "0|0")
    assert code == EX_USAGE
    code, _, _ = cli("simulate", "--machine", UAV / "target.yaml",
                     "--system", UAV / "scenario.yaml", "--name", "real",
                     "--input", "0|0")
    assert code == EX_USAGE
    code, _, _ = cli("simulate", "--system", UAV / "scenario.yaml",
                     "--input", "0|0")
    assert code == EX_USAGE


def test_simulate_rejects_malformed_words():
    code, _, err = cli("simulate", "--machine", UAV / "target.yaml",
                       "--input", "0|,1|0")
    assert code == EX_USAGE
    assert "empty symbol" in err


def test_simulate_rejects_symbols_off_the_alphabet():
    code, out, err = cli("simulate", "--machine", UAV / "target.yaml",
                         "--input", "2|0")
    assert code == EX_USAGE
    assert out == ""
    assert err == "step 0: '2' is outside the alphabet {0, 1} of port cmd\n"


def test_simulate_checks_the_port_count_of_each_step():
    code, out, err = cli("simulate", "--system", UAV / "scenario.yaml",
                         "--name", "real", "--input", "0|1|0")
    assert code == EX_USAGE
    assert out == ""
    assert err == "step 0 has 3 symbols for 2 input ports\n"
    code, _, err = cli("simulate", "--system", UAV / "scenario.yaml",
                       "--name", "real", "--input", "0|0,1")
    assert code == EX_USAGE
    assert err == "step 1 has 1 symbols for 2 input ports\n"


def test_simulate_names_the_port_of_an_off_alphabet_symbol():
    code, out, err = cli("simulate", "--system", UAV / "scenario.yaml",
                         "--name", "real", "--input", "0|z")
    assert code == EX_USAGE
    assert out == ""
    assert err == "step 0: 'z' is outside the alphabet {0, 1} of port obs\n"


# ---------------------------------------------------------------------------
# learn
# ---------------------------------------------------------------------------

def test_learn_identifies_the_stock_profile():
    code, out, _ = cli("learn", "--kb", UAV / "kb",
                       "--target", UAV / "target.yaml",
                       "--battery", UAV / "battery.yaml")
    assert code == EX_OK
    assert "classification: exact" in out
    assert "candidates: profile-stock" in out
    assert re.search(r"traces-6: .*profile-stock=y", out)
    assert re.search(r"profile-flatline=n", out)


def test_learn_with_traces_only_still_identifies():
    code, out, _ = cli("learn", "--kb", UAV / "kb",
                       "--target", UAV / "target.yaml", "--depth", "6")
    assert code == EX_OK
    assert "classification: exact" in out


def test_learn_reaches_depth_12():
    # 4^12 words per entry if every word were run; the quotient is linear in d
    code, out, _ = cli("learn", "--kb", UAV / "kb",
                       "--target", UAV / "target.yaml", "--depth", "12")
    assert code == EX_OK
    assert "candidates: profile-stock" in out
    assert "classification: exact" in out


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_learn_depth_below_one_is_a_usage_error(depth):
    code, out, err = cli("learn", "--kb", UAV / "kb",
                         "--target", UAV / "target.yaml", "--depth", depth)
    assert code == EX_USAGE
    assert out == ""
    assert "--depth: must be at least 1" in err


def test_learn_refuses_a_knowledge_base_it_cannot_list(tmp_path):
    for kb in (tmp_path / "missing", UAV / "target.yaml"):
        code, out, err = cli("learn", "--kb", kb, "--target", UAV / "target.yaml")
        assert (code, out) == (EX_DATAERR, "")
        assert err.startswith(f"error: {kb}: cannot read directory: ")
        assert err.count("\n") == 1


def test_learn_refuses_depth_with_a_battery():
    # --depth sets the one trace test run without a battery, so given with
    # one it would be ignored
    code, out, err = cli("learn", "--kb", UAV / "kb",
                         "--target", UAV / "target.yaml",
                         "--battery", UAV / "battery.yaml", "--depth", "2")
    assert (code, out) == (EX_USAGE, "")
    assert err == "learn: give --battery or --depth, not both\n"
    # without a battery the depth defaults to 6
    assert cli("learn", "--kb", UAV / "kb", "--target", UAV / "target.yaml") \
        == cli("learn", "--kb", UAV / "kb", "--target", UAV / "target.yaml",
               "--depth", "6")


def test_learn_refuses_a_trace_test_over_the_limit():
    # the target's depth-300000 quotient would hold about 2.7 million rows
    # x 4 inputs; it is refused once its rows pass the limit
    code, out, err = cli("learn", "--kb", UAV / "kb",
                         "--target", UAV / "target.yaml", "--depth", "300000")
    assert (code, out) == (EX_DATAERR, "")
    assert re.fullmatch(r"error: trace quotient would have at least \d+ rows "
                        r"x 4 inputs = \d+ transitions, over the limit of "
                        r"1048576\n", err)


def test_learn_reports_ambiguity_with_exit_2(tmp_path):
    weak = tmp_path / "weak.yaml"
    weak.write_text("schema: battery.v1\ntests:\n- {name: point, kind: terminal}\n")
    code, out, _ = cli("learn", "--kb", UAV / "kb",
                       "--target", UAV / "target.yaml", "--battery", weak)
    assert code == 2
    assert "classification: ambiguous" in out


def test_learn_runs_an_output_image_test_a_billion_steps_out(tmp_path):
    # the target's layers repeat within a few steps, so the billionth is
    # found without walking to it; two entries read like the target there
    far = tmp_path / "far.yaml"
    far.write_text("schema: battery.v1\ntests:\n"
                   "- {name: far, kind: output-image, step: 1000000000}\n")
    code, out, err = cli("learn", "--kb", UAV / "kb",
                         "--target", UAV / "target.yaml", "--battery", far)
    assert (code, err) == (2, "")
    assert out.splitlines()[0] == ("far: profile-blinker=n profile-flatline=n "
                                   "profile-hacked=y profile-stock=y")


def test_learn_refuses_a_compare_key_without_a_traceback(tmp_path):
    # a test's kind decides how its outcomes compare; there is no key for it
    battery = tmp_path / "compare.yaml"
    battery.write_text("schema: battery.v1\ntests:\n"
                       "- {name: names, kind: states, compare: equality}\n")
    code, out, err = cli("learn", "--kb", UAV / "kb",
                         "--target", UAV / "target.yaml", "--battery", battery)
    assert (code, out) == (EX_DATAERR, "")
    assert err == ("error: compare.yaml.tests[0]: unknown keys "
                   "['compare']\n")


def test_a_scenario_test_with_a_compare_key_is_refused(tmp_path):
    doc = yaml.safe_load((UAV / "scenario.yaml").read_text())
    doc["battery"][1]["compare"] = "cardinality"
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    code, out, err = cli("validate", path)
    assert (code, out) == (EX_DATAERR, "")
    assert err == ("error: scenario.yaml.battery[1]: unknown keys "
                   "['compare']\n")


def test_learn_reports_unknown_with_exit_3(tmp_path, scenario):
    real = scenario.system("real").composite()
    target = tmp_path / "real.yaml"
    target.write_text(dump_machine("real", real))
    code, out, _ = cli("learn", "--kb", UAV / "kb", "--target", target,
                       "--battery", UAV / "battery.yaml")
    assert code == 3
    assert "classification: unknown" in out
    assert "candidates: (none)" in out


def test_learn_refuses_a_target_on_another_box(tmp_path):
    doc = yaml.safe_load((UAV / "kb" / "profile-flatline.yaml").read_text())
    doc["box"]["name"] = "other"
    target = tmp_path / "other.yaml"
    target.write_text(yaml.safe_dump(doc))
    code, out, err = cli("learn", "--kb", UAV / "kb", "--target", target)
    assert (code, out) == (EX_DATAERR, "")
    assert err == ("error: target inhabits box 'other', expected the "
                   "knowledge base's box 'uav'\n")


def test_learn_names_the_port_of_a_target_box_that_shares_its_name(tmp_path):
    doc = yaml.safe_load((UAV / "target.yaml").read_text())
    doc["box"]["outputs"][0]["port"] = "position"
    target = tmp_path / "renamed.yaml"
    target.write_text(yaml.safe_dump(doc))
    code, out, err = cli("learn", "--kb", UAV / "kb", "--target", target)
    assert (code, out) == (EX_DATAERR, "")
    assert err == ("error: target does not fit the knowledge base's box: "
                   "output port 'position' vs 'pos' on box 'uav'\n")


# ---------------------------------------------------------------------------
# attack and diff
# ---------------------------------------------------------------------------

def test_attack_prints_provenance_then_the_system(tmp_path):
    code, out, _ = cli("attack", "--scenario", UAV / "scenario.yaml",
                       "--script", "combo")
    assert code == EX_OK
    lines = out.splitlines()
    assert re.fullmatch(
        r"step 0: rewrite\[replace\] component 1 "
        r"wiring=[0-9a-f]{12} components=[0-9a-f]{12}", lines[0])
    assert lines[1].startswith("step 1: rewire component 1 wiring=")
    body = "\n".join(lines[2:]) + "\n"
    doc = loads(body, "attacked.yaml")
    assert "attacker-view-attacked" in doc.systems


# the provenance lines of each fixture script: the view's wiring is
# view-chain (68e74d2f68b1), a gps-swap rewire gives 2c0ca6077ab0, and the
# components are the stock view (6c05f22ed0c6) or carry gps-hacked
# (fd12259d225e); gps-minimize's view-hist components collapse to the stock
PROVENANCE = {
    "gps-firmware": [
        "step 0: rewrite[replace] component 1 wiring=68e74d2f68b1 "
        "components=fd12259d225e"],
    "gps-swap": [
        "step 0: rewire component 1 wiring=2c0ca6077ab0 "
        "components=6c05f22ed0c6"],
    "combo": [
        "step 0: rewrite[replace] component 1 wiring=68e74d2f68b1 "
        "components=fd12259d225e",
        "step 1: rewire component 1 wiring=2c0ca6077ab0 "
        "components=fd12259d225e"],
    "double-swap": [
        "step 0: rewire component 1 wiring=2c0ca6077ab0 "
        "components=6c05f22ed0c6",
        "step 1: rewire component 1 wiring=68e74d2f68b1 "
        "components=6c05f22ed0c6"],
    "gps-minimize": [
        "step 0: rewrite[morphism] component 1 wiring=68e74d2f68b1 "
        "components=6c05f22ed0c6"],
}


@pytest.mark.parametrize("script", sorted(PROVENANCE))
def test_attack_prints_the_pinned_provenance_of_each_fixture_script(script):
    code, out, _ = cli("attack", "--scenario", UAV / "scenario.yaml",
                       "--script", script)
    assert code == EX_OK
    lines = PROVENANCE[script]
    assert out.splitlines()[:len(lines) + 1] == lines + ["schema: system.v1"]


def test_attack_writes_the_output_file(tmp_path):
    dest = tmp_path / "attacked.yaml"
    code, out, _ = cli("attack", "--scenario", UAV / "scenario.yaml",
                       "--script", "gps-firmware", "--out", dest)
    assert code == EX_OK
    assert f"wrote {dest}" in out
    doc = loads(dest.read_text(), "attacked.yaml")
    assert "attacker-view-attacked" in doc.systems


# the sha256 of the file ``attack --out`` writes for each fixture script;
# gps-swap, combo and double-swap rewire, so these pin the rewired
# wiring's normal form, key order included, as the file writes it
ATTACK_OUT_SHA256 = {
    "gps-firmware":
        "99f20fe100083aaaf79f4376d9a05315cc6326bfc7a44dd1bb67d0e88368054e",
    "gps-swap":
        "2fcc3b9ab276a30fa6f640c0adb6cd08cd50549153d5cd60c787620051e70bee",
    "combo":
        "c8ebce56761e9ae637b2506484e056db3fce56e681470a09578167a75950db1c",
    "double-swap":
        "8a62a018462532ae5aea78e987e64658583d854bbc23c39939b7fea4f945b905",
    "gps-minimize":
        "897938d5cf2cdaafa6b12f89f602dc4a6011f0c8449ada8fec4bbbb619c53510",
}


@pytest.mark.parametrize("script", sorted(ATTACK_OUT_SHA256))
def test_attack_out_writes_the_pinned_bytes(script, tmp_path):
    dest = tmp_path / "attacked.yaml"
    code, out, _ = cli("attack", "--scenario", UAV / "scenario.yaml",
                       "--script", script, "--out", dest)
    assert code == EX_OK
    assert out.splitlines()[-1] == f"wrote {dest}"
    assert hashlib.sha256(dest.read_bytes()).hexdigest() == \
        ATTACK_OUT_SHA256[script]


@pytest.mark.parametrize("command, script, want", [
    ("diff", "combo", 1), ("attack", "gps-minimize", EX_OK)])
def test_a_command_reads_the_scripts_the_load_applied(monkeypatch, command,
                                                       script, want):
    # loading applies the scenario's five scripts, seven steps in all, once;
    # the command applies none of them again
    calls = []
    for name in ("apply_rewrite", "apply_rewire"):
        def spy(system, step, apply=getattr(wirebox.attacks, name)):
            calls.append(step)
            return apply(system, step)
        monkeypatch.setattr(wirebox.attacks, name, spy)
    code, _, err = cli(command, "--scenario", UAV / "scenario.yaml",
                       "--script", script)
    assert (code, err, len(calls)) == (want, "", 7)


SCENARIO = UAV / "scenario.yaml"


@pytest.mark.parametrize("argv, want", [
    (["validate", SCENARIO], 2),
    (["diff", "--scenario", SCENARIO, "--script", "gps-firmware"], 2),
    (["diff", "--scenario", SCENARIO, "--script", "combo"], 2),
    (["simulate", "--system", SCENARIO, "--name", "real", "--input", "0|1"], 1),
    (["compose", "--system", SCENARIO, "--name", "real"], 1),
    (["export-dot", "--file", SCENARIO, "--wiring", "sensor-view"], 0),
    (["attack", "--scenario", SCENARIO, "--script", "combo"], 0),
], ids=["validate", "diff-gps-firmware", "diff-combo", "simulate", "compose",
        "export-dot", "attack"])
def test_a_command_builds_only_the_composites_it_reads(monkeypatch, argv, want):
    # a knowledge base's system rows are composed when it is first read,
    # which validate does, so it builds both; diff builds its baseline
    # and the attacked system, simulate and compose one system each
    built = []

    def spy(w, machines, apply=wirebox.moore.apply_algebra):
        built.append(w)
        return apply(w, machines)

    for module in (wirebox.moore, wirebox.attacks):
        monkeypatch.setattr(module, "apply_algebra", spy)
    code, _, err = cli(*argv)
    assert (code, err) == (1 if argv[0] == "diff" else EX_OK, "")
    assert len(built) == want


def test_a_knowledge_base_row_over_the_limit_is_refused_where_it_is_read(
        monkeypatch, tmp_path):
    # attacker-view-hist reaches 36 composite states, the other systems 24
    monkeypatch.setattr(wirebox.moore, "MAX_TRANSITIONS", 24 * 4)
    data = yaml.safe_load(SCENARIO.read_text())
    data["kb"].append({"name": "profile-hist", "system": "attacker-view-hist"})
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    assert cli("validate", path) == (
        EX_DATAERR, "", "error: scenario.yaml.kb[4]: composite reaches at "
        "least 28 states x 4 inputs = 112 transitions, over the limit of 96\n")
    # a command that reads no knowledge base never builds the row
    for argv in (["simulate", "--system", path, "--name", "real", "--input", "0|1"],
                 ["export-dot", "--file", path, "--wiring", "sensor-view"],
                 ["attack", "--scenario", path, "--script", "combo"]):
        code, _, err = cli(*argv)
        assert (code, err) == (EX_OK, ""), argv


@pytest.mark.parametrize("first, second", [("10: '1'", "'10': '0'"),
                                           ("'10': '0'", "10: '1'")])
def test_a_state_map_key_whose_text_repeats_is_refused_in_either_order(
        tmp_path, first, second):
    # 10 and '10' are two keys to YAML and one state to the state map, so
    # keeping either would silently drop the other
    text = SCENARIO.read_text()
    line = "      '10': '0'\n"
    assert text.count(line) == 1
    path = tmp_path / "scenario.yaml"
    path.write_text(text.replace(line, f"      {first}\n      {second}\n"))
    code, out, err = cli("validate", path)
    raw = [k.split(":")[0] for k in (first, second)]
    assert (code, out) == (EX_DATAERR, "")
    assert err == (f"error: scenario.yaml.scripts[4].steps[0].state_map[10]: "
                   f"keys {raw[0]} and {raw[1]} both read as '10'\n")
    assert "Traceback" not in err


def test_attack_and_compose_write_documents_that_reload_alike(scenario,
                                                              tmp_path):
    # the composite of each document written is bisimilar to the one the
    # command dumped
    for entry in scenario.scripts:
        dest = tmp_path / f"{entry.name}.yaml"
        code, _, _ = cli("attack", "--scenario", UAV / "scenario.yaml",
                         "--script", entry.name, "--out", dest)
        assert code == EX_OK
        (reloaded,) = load(dest).systems.values()
        assert bisimilar(reloaded.composite(), entry.result.system.composite())
    for name, system in scenario.systems.items():
        code, out, _ = cli("compose", "--system", UAV / "scenario.yaml",
                           "--name", name)
        assert code == EX_OK
        assert bisimilar(loads(out, "composite.yaml").machine,
                         system.composite()), name


def test_attack_to_an_unwritable_path_exits_73(tmp_path):
    dest = tmp_path / "missing" / "attacked.yaml"
    code, out, err = cli("attack", "--scenario", UAV / "scenario.yaml",
                         "--script", "gps-firmware", "--out", dest)
    assert code == EX_CANTCREAT == 73
    assert out == ""
    assert err == f"error: cannot write {dest}: No such file or directory\n"
    assert not dest.parent.exists()


def test_attack_unknown_script_is_a_data_error():
    code, _, err = cli("attack", "--scenario", UAV / "scenario.yaml",
                       "--script", "ghost")
    assert code == EX_DATAERR
    assert "ghost" in err


def test_diff_exits_1_with_the_witness():
    code, out, _ = cli("diff", "--scenario", UAV / "scenario.yaml",
                       "--script", "gps-firmware")
    assert code == 1
    assert "differs: input 0|0,0|0,0|0,0|0" in out
    assert "traces-6: disagree" in out
    assert "state-count: agree" in out


def test_diff_exits_0_when_behavior_is_preserved():
    code, out, _ = cli("diff", "--scenario", UAV / "scenario.yaml",
                       "--script", "double-swap")
    assert code == EX_OK
    assert "equal to depth 6" in out


def test_diff_respects_the_depth_flag():
    # the firmware attack needs four steps to surface
    code, out, _ = cli("diff", "--scenario", UAV / "scenario.yaml",
                       "--script", "gps-firmware", "--depth", "3")
    assert code == EX_OK
    assert "equal to depth 3" in out


def test_diff_stops_when_no_new_state_pair_is_left():
    # double-swap's pair search closes after depth 4, so a depth of 10**8
    # costs what depth 5 does
    code, out, _ = cli("diff", "--scenario", UAV / "scenario.yaml",
                       "--script", "double-swap", "--depth", "100000000")
    assert code == EX_OK
    assert out.splitlines()[-1] == "equal to depth 100000000"


@pytest.mark.parametrize("script,depth,code,line", [
    ("double-swap", "100000000", EX_OK, "far: agree"),
    ("double-swap", "6", EX_OK, "far: agree"),
    ("double-swap", "4", EX_OK, "far: agree"),
    ("gps-minimize", "5", EX_OK, "far: agree"),
    ("gps-firmware", "6", 1, "far: disagree"),
    ("double-swap", "3", EX_DATAERR, None),
])
def test_diff_gives_a_deep_trace_test_the_verdict_its_search_proves(
        tmp_path, script, depth, code, line):
    # a depth-300000 trace quotient is over the limit; the pair search
    # decides the test when it finds a word or closes, at a depth past
    # the test's or at any depth that reaches its last level of pairs,
    # the fourth for double-swap and the fifth for gps-minimize; with
    # neither the quotient is still built and refused
    text = (UAV / "scenario.yaml").read_text(encoding="utf-8")
    image = "- name: image-2\n  kind: output-image\n  step: 2\n"
    assert text.count(image) == 1
    far = tmp_path / "far.yaml"
    far.write_text(text.replace(
        image, image + "- {name: far, kind: traces, depth: 300000}\n"),
        encoding="utf-8")
    got, out, err = cli("diff", "--scenario", far, "--script", script,
                        "--depth", depth)
    assert got == code and "Traceback" not in err
    if line is None:
        assert out == "" and "over the limit" in err
    else:
        assert line in out.splitlines() and err == ""


@pytest.mark.parametrize("depth", ["0", "-2"])
def test_diff_depth_below_one_is_a_usage_error(depth):
    code, out, err = cli("diff", "--scenario", UAV / "scenario.yaml",
                         "--script", "gps-firmware", "--depth", depth)
    assert code == EX_USAGE
    assert out == ""
    assert "--depth: must be at least 1" in err


# ---------------------------------------------------------------------------
# export-dot and yoneda-check
# ---------------------------------------------------------------------------

def test_export_dot_matches_the_golden_rendering(tmp_path):
    code, out, _ = cli("export-dot", "--file", UAV / "scenario.yaml",
                       "--wiring", "sensor-view")
    assert code == EX_OK
    assert out == (FIXTURES / "golden" / "sensor-view.dot").read_text()

    dest = tmp_path / "w.dot"
    code, out, _ = cli("export-dot", "--file", UAV / "scenario.yaml",
                       "--wiring", "sensor-view", "--out", dest)
    assert code == EX_OK
    assert dest.read_text().startswith('digraph "sensor-view"')


def test_export_dot_to_an_unwritable_path_exits_73(tmp_path):
    dest = tmp_path / "missing" / "w.dot"
    code, out, err = cli("export-dot", "--file", UAV / "scenario.yaml",
                         "--wiring", "sensor-view", "--out", dest)
    assert (code, out) == (EX_CANTCREAT, "")
    assert err == f"error: cannot write {dest}: No such file or directory\n"


def test_export_dot_needs_a_wiring_name_for_system_files():
    code, _, err = cli("export-dot", "--file", UAV / "scenario.yaml")
    assert code == EX_USAGE
    assert "--wiring" in err


def test_export_dot_unknown_wiring_is_a_data_error():
    code, _, err = cli("export-dot", "--file", UAV / "scenario.yaml",
                       "--wiring", "ghost")
    assert code == EX_DATAERR


def test_export_dot_renders_a_wiring_document(tmp_path):
    path = tmp_path / "deep.yaml"
    path.write_text(nested_tables(1))
    want = wiring_dot(load(path).wiring, "deep")
    # its one wiring needs no name; naming it is allowed, naming another not
    assert cli("export-dot", "--file", path) == (EX_OK, want, "")
    assert cli("export-dot", "--file", path, "--wiring", "deep") == \
        (EX_OK, want, "")
    assert cli("export-dot", "--file", path, "--wiring", "ghost") == \
        (EX_DATAERR, "", f"error: {path}: no wiring named 'ghost'\n")


def test_a_table_equal_to_a_reference_is_held_as_that_reference(tmp_path):
    # one identity table over a reference normalizes to the reference
    table, bare = tmp_path / "table.yaml", tmp_path / "bare.yaml"
    table.write_text(nested_tables(1))
    bare.write_text(nested_tables(0))
    assert load(table).wiring.out_map == {(0, "y"): InnerOut(0, "y")}
    assert load(table).wiring == load(bare).wiring
    assert cli("export-dot", "--file", table) == cli("export-dot", "--file", bare)
    # a system on sensor-view, whose input 2.m reads imu's readout through
    # such a table, writes the bare reference
    data = yaml.safe_load((UAV / "scenario.yaml").read_text())
    data["systems"].append({"name": "sensor", "wiring": "sensor-view",
                            "components": ["imu-and", "gps-stock", "proc-xor"]})
    data["scripts"].append({"name": "sensor-firmware", "system": "sensor",
                            "steps": [{"rewrite": 1, "machine": "gps-hacked"}]})
    written = []
    for name in ("bare", "table"):
        if name == "table":
            view = next(w for w in data["wirings"] if w["name"] == "sensor-view")
            entry = next(e for e in view["inputs"] if e["target"] == "2.m")
            entry["from"] = {"table": {"sources": [entry["from"]], "rows": [
                {"key": [v], "value": v} for v in ("0", "1")]}}
        path = tmp_path / f"{name}-scenario.yaml"
        path.write_text(yaml.safe_dump(data, sort_keys=False))
        dest = tmp_path / f"{name}-attacked.yaml"
        code, _, err = cli("attack", "--scenario", path, "--script",
                           "sensor-firmware", "--out", dest)
        assert (code, err) == (EX_OK, "")
        written.append(dest.read_text())
    assert "table" in path.read_text()
    assert written[1] == written[0]
    assert "table" not in written[1]


def test_export_dot_refuses_a_document_without_wirings():
    path = UAV / "battery.yaml"
    assert cli("export-dot", "--file", path) == \
        (EX_DATAERR, "", f"error: {path}: no wirings in this document\n")


def test_yoneda_check_reports_counts_per_object():
    code, out, _ = cli("yoneda-check", "--file",
                       FIXTURES / "fincat" / "cyc3.yaml")
    assert code == EX_OK
    lines = out.splitlines()
    # three functors, each checked at every object
    assert all(line.endswith("bijection ok") for line in lines)
    assert any(line.startswith("act4 at") for line in lines)
    assert re.search(r"act4 at \w+: 4 transformations", out)


def test_yoneda_check_can_filter_one_functor():
    code, out, _ = cli("yoneda-check", "--file",
                       FIXTURES / "fincat" / "cyc3.yaml",
                       "--functor", "const")
    assert code == EX_OK
    assert all(line.startswith("const at") for line in out.splitlines())

    code, _, err = cli("yoneda-check", "--file",
                       FIXTURES / "fincat" / "cyc3.yaml",
                       "--functor", "ghost")
    assert code == EX_DATAERR


def test_yoneda_check_reports_a_category_error_as_a_data_error(monkeypatch):
    def broken(category, obj, functor):
        raise wirebox.fincat.FinCatError(f"no object {obj!r}")

    monkeypatch.setattr(wirebox.fincat, "yoneda_check", broken)
    code, out, err = cli("yoneda-check", "--file",
                         FIXTURES / "fincat" / "arrow.yaml")
    assert (code, out) == (EX_DATAERR, "")
    assert err == "error: no object 'z'\n"
