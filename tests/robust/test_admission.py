"""Unit tests of the admission controller: caps and the ordering-aware
suffix/gap rules."""

import pytest

from repro.nvmeof.command import OP_READ, OP_WRITE
from repro.robust.admission import AdmissionConfig, AdmissionController


class _Attr:
    def __init__(self, stream_id, server_pos):
        self.stream_id = stream_id
        self.server_pos = server_pos


class _Ctx:
    def __init__(self, attr):
        self.attr = attr


class _Cmd:
    def __init__(self, opcode, attr=None):
        self.opcode = opcode
        self.context = _Ctx(attr) if attr is not None else None


def ordered(stream, pos):
    return _Cmd(OP_WRITE, _Attr(stream, pos))


def unordered():
    return _Cmd(OP_READ)


def test_cap_sheds_and_completion_frees_the_slot():
    c = AdmissionController(AdmissionConfig(
        max_inflight_ordered=8, max_inflight_unordered=1,
    ))
    token, reason = c.admit(unordered(), 0.0)
    assert token is not None and reason is None
    shed_token, shed_reason = c.admit(unordered(), 1e-6)
    assert shed_token is None and shed_reason == "qfull"
    c.complete(token)
    token2, _ = c.admit(unordered(), 3e-6)
    assert token2 is not None
    assert c.admitted == 2 and c.shed == 1
    assert c.shed_by_reason == {"qfull": 1}


def test_ordered_shed_plants_suffix_marker():
    c = AdmissionController(AdmissionConfig(
        max_inflight_ordered=1, max_inflight_unordered=8,
    ))
    t0, _ = c.admit(ordered(stream=7, pos=0), 0.0)
    assert t0 is not None
    # Position 1 bounces off the cap and plants the marker ...
    assert c.admit(ordered(7, 1), 1e-6) == (None, "qfull")
    c.complete(t0)
    # ... so positions beyond it shed as "suffix" even with room.
    assert c.admit(ordered(7, 2), 3e-6) == (None, "suffix")
    assert c.admit(ordered(7, 3), 4e-6) == (None, "suffix")
    # Re-posting the marker position clears the marker.
    t1, reason = c.admit(ordered(7, 1), 5e-6)
    assert t1 is not None and reason is None
    c.complete(t1)
    t2, reason = c.admit(ordered(7, 2), 7e-6)
    assert t2 is not None and reason is None


def test_gap_rule_keeps_admissions_dense():
    c = AdmissionController()
    t0, _ = c.admit(ordered(1, 0), 0.0)
    assert t0 is not None
    # Position 2 would park at the in-order gate waiting for 1: shed.
    assert c.admit(ordered(1, 2), 1e-6) == (None, "gap")
    t1, _ = c.admit(ordered(1, 1), 2e-6)
    assert t1 is not None
    t2, reason = c.admit(ordered(1, 2), 3e-6)
    assert t2 is not None and reason is None


def test_stale_retransmission_is_reclassified_unordered():
    c = AdmissionController(AdmissionConfig(
        max_inflight_ordered=1, max_inflight_unordered=8,
    ))
    t0, _ = c.admit(ordered(3, 0), 0.0)
    # The ordered cap is full, but a retransmission of the already
    # admitted position 0 must not plant a marker (the gate suppresses
    # it as a duplicate) — it admits in the unordered class instead.
    dup, reason = c.admit(ordered(3, 0), 1e-6)
    assert dup is not None and reason is None
    assert c.inflight("unordered") == 1
    assert 3 not in c._shed_from
    c.complete(t0)
    c.complete(dup)


def test_reset_markers_forgets_suffix_state():
    c = AdmissionController(AdmissionConfig(max_inflight_ordered=1))
    t0, _ = c.admit(ordered(5, 0), 0.0)
    assert c.admit(ordered(5, 1), 1e-6) == (None, "qfull")
    c.complete(t0)
    c.reset_markers()
    # Post-restart the stream legitimately replays from position 0.
    t, reason = c.admit(ordered(5, 0), 3e-6)
    assert t is not None and reason is None


def test_complete_is_idempotent_for_unknown_tokens():
    c = AdmissionController()
    c.complete(12345)  # never admitted: no-op, no underflow
    assert c.inflight("ordered") == 0
    assert c.inflight("unordered") == 0


def test_config_validation():
    with pytest.raises(ValueError):
        AdmissionConfig(max_inflight_ordered=0)
