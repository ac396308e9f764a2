"""The benchmark's correctness gate is live: wrong answers count as failed ops.

Run from the repository root:

    python3 -m pytest perfbench/test_gate.py -q
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import wirebox.attacks  # noqa: E402
import wirebox.moore  # noqa: E402
import wirebox.probes  # noqa: E402
from run import measure  # noqa: E402
from workloads import (CliAirframe, CliResult, ComposeScale,  # noqa: E402
                       ProbeSession)

real_apply_algebra = wirebox.moore.apply_algebra
real_compare = wirebox.probes.compare_outcomes


def flipped_readout(wiring, machines):
    """The composite with its initial readout changed on the first port."""
    m = real_apply_algebra(wiring, machines)
    readout = dict(m.readout)
    first = readout[m.init]
    other = next(s for s in m.box.out_ports[0].alphabet if s != first[0])
    readout[m.init] = (other,) + first[1:]
    return wirebox.moore.MooreMachine(m.box, m.states, m.init, m.update,
                                      readout)


def inverted_traces(test, a, b):
    agree = real_compare(test, a, b)
    return not agree if isinstance(test.kind, wirebox.probes.TraceSet) else agree


@pytest.fixture(scope="module")
def compose():
    wl = ComposeScale(ROOT, 7, None)
    small = [op for op in wl.cycle() if op.net.product_states <= 512]
    assert small
    wl.cycle = lambda: small
    return wl


@pytest.fixture(scope="module")
def probe():
    wl = ProbeSession(ROOT, 7, None)
    cheap = [op for op in wl.cycle() if op.depth == 5]
    wl.cycle = lambda: cheap
    return wl


def test_compose_gate_passes_correct_composites(compose, tmp_path):
    samples = measure(compose, 0, str(tmp_path))
    assert samples.attempted > 0
    assert samples.failures == []


def test_compose_gate_counts_a_flipped_readout(compose, tmp_path, monkeypatch):
    monkeypatch.setattr(wirebox.moore, "apply_algebra", flipped_readout)
    monkeypatch.setattr(wirebox.attacks, "apply_algebra", flipped_readout)
    samples = measure(compose, 0, str(tmp_path))
    assert samples.attempted > 0
    assert len(samples.failures) == samples.attempted
    assert all("stagewise" in f for f in samples.failures)


def test_probe_gate_passes_correct_verdicts(probe, tmp_path):
    samples = measure(probe, 0, str(tmp_path))
    assert samples.attempted == 3
    assert samples.failures == []


def test_probe_gate_counts_a_wrong_verdict(probe, tmp_path, monkeypatch):
    monkeypatch.setattr(wirebox.probes, "compare_outcomes", inverted_traces)
    samples = measure(probe, 0, str(tmp_path))
    assert samples.attempted == 3
    assert len(samples.failures) == samples.attempted
    assert all("learn verdict" in f for f in samples.failures)


def test_probe_gate_counts_an_op_that_raises(probe, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("no answer")

    monkeypatch.setattr(wirebox.probes, "yoneda_filter", broken)
    samples = measure(probe, 0, str(tmp_path))
    assert len(samples.failures) == samples.attempted == 3


def test_cli_gate_rejects_wrong_outputs(tmp_path):
    wl = CliAirframe(ROOT, 7, str(tmp_path))
    ops = {op.kind: op for op in wl.cycle()}
    good = wl.run(ops["validate"])
    assert wl.check(ops["validate"], good) == []
    learn = ops["learn"]
    ambiguous = CliResult(0, "candidates: profile-stock\n"
                             "classification: ambiguous\n", "", 0.0, 0)
    assert wl.check(learn, ambiguous)
    wrong_code = CliResult(2, "", "", 0.0, 0)
    assert wl.check(learn, wrong_code)
    diff = next(op for op in wl.cycle()
                if op.kind == "diff" and op.detail["script"] == "gps-firmware")
    no_witness = CliResult(1, "differs: input 0|0\n", "", 0.0, 0)
    assert wl.check(diff, no_witness)
