"""Graph rendering: golden files, determinism, and edge styling."""

import pathlib

from uav import (gps_box, sensor_feed_attack_wiring, sensor_real_wiring,
                 sensor_view_wiring)
from wirebox.dot import wiring_dot
from wirebox.wiring import (Box, InnerOut, OuterIn, Port, Table, Wiring,
                            identity_wiring)

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "golden"


def test_identity_matches_the_golden_file():
    got = wiring_dot(identity_wiring(gps_box()), "identity")
    assert got == (GOLDEN / "identity.dot").read_text()


def test_sensor_view_matches_the_golden_file():
    got = wiring_dot(sensor_view_wiring(), "sensor-view")
    assert got == (GOLDEN / "sensor-view.dot").read_text()


def test_rendering_is_deterministic():
    w = sensor_view_wiring()
    assert wiring_dot(w) == wiring_dot(w)


def test_identity_renders_one_cluster():
    text = wiring_dot(identity_wiring(gps_box()))
    assert text.count("subgraph cluster_") == 1
    assert 'label="gps[0]"' in text


def test_repeated_boxes_get_distinct_slot_labels():
    text = wiring_dot(sensor_real_wiring())
    assert 'label="imu[0]"' in text and 'label="imu[1]"' in text


def test_constants_render_as_their_own_nodes():
    text = wiring_dot(sensor_feed_attack_wiring(), "pinned")
    assert 'label="0"' in text
    assert "const" in text


def test_table_fan_in_edges_are_dashed():
    bit = ("0", "1")
    box = Box("cell", (Port("a", bit),), (Port("q", bit),))
    flip = Table((OuterIn(0, "a"),), ((("0",), "1"), (("1",), "0")))
    w = Wiring((box,), (box,), {(0, "a"): flip},
               {(0, "q"): InnerOut(0, "q")})
    text = wiring_dot(w)
    assert "style=dashed" in text
    plain = wiring_dot(identity_wiring(box))
    assert "style=dashed" not in plain

