"""Unit tests for ordering attributes (§4.2)."""

from dataclasses import fields, replace

import pytest

from repro.core.attributes import CoveredRequest, OrderingAttribute
from repro.nvmeof.command import FLAG_BOUNDARY, FLAG_IPU, FLAG_MERGED, FLAG_SPLIT


def attr(**kwargs):
    defaults = dict(stream_id=0, start_seq=1, end_seq=1)
    defaults.update(kwargs)
    return OrderingAttribute(**defaults)


def test_seq_range_validation():
    with pytest.raises(ValueError):
        attr(start_seq=0)
    with pytest.raises(ValueError):
        attr(start_seq=5, end_seq=4)


def test_prev_must_precede_start():
    with pytest.raises(ValueError):
        attr(start_seq=3, end_seq=3, prev=3)
    ok = attr(start_seq=3, end_seq=3, prev=2)
    assert ok.prev == 2


def test_merged_and_split_are_exclusive():
    with pytest.raises(ValueError):
        attr(split=True, merged=True)


def test_covers_range():
    merged = attr(start_seq=3, end_seq=6, merged=True)
    assert merged.covers(3)
    assert merged.covers(6)
    assert not merged.covers(2)
    assert not merged.covers(7)


def test_clone_fragment_sets_split_metadata():
    parent = attr(lba=100, nblocks=10, boundary=True, num=1)
    fragment = parent.clone_fragment(index=1, total=3, lba=104, nblocks=4)
    assert fragment.split
    assert fragment.split_index == 1
    assert fragment.split_total == 3
    assert fragment.lba == 104
    assert fragment.nblocks == 4
    assert fragment.start_seq == parent.start_seq
    assert not fragment.merged


def test_clone_fragment_requires_multiple():
    with pytest.raises(ValueError):
        attr().clone_fragment(index=0, total=1, lba=0, nblocks=1)


def _field_values(a):
    return {f.name: getattr(a, f.name) for f in fields(a)}


@pytest.mark.parametrize("changes", [
    {},
    {"lba": 104, "nblocks": 4},
    {"log_pos": 17},
    {"split": True, "split_index": 1, "split_total": 3, "merged": False},
    {"end_seq": 9, "merged": True},
])
def test_copy_equals_replace_field_for_field(changes):
    source = attr(start_seq=5, end_seq=6, prev=2, lba=100, nblocks=10,
                  covered_ids=[CoveredRequest(5, 0, 100, 10, True)],
                  target_name="t0", server_pos=3, ack_seq=1)
    copied = source.copy(**changes)
    expected = replace(source, **changes)
    assert copied is not source
    assert type(copied) is OrderingAttribute
    assert _field_values(copied) == _field_values(expected)
    assert copied.__dict__ == expected.__dict__
    # Shallow, like replace: the covered-id list is shared, the fields are
    # the copy's own.
    assert copied.covered_ids is source.covered_ids
    copied.persist = 1
    assert source.persist == 0


def test_copy_validates_when_a_checked_field_changes():
    source = attr(start_seq=5, end_seq=6, prev=2)
    for bad in ({"prev": 5}, {"end_seq": 4}, {"start_seq": 0}):
        with pytest.raises(ValueError):
            replace(source, **bad)
        with pytest.raises(ValueError):
            source.copy(**bad)
    with pytest.raises(ValueError):
        attr(merged=True).copy(split=True)
    with pytest.raises(TypeError):
        source.copy(no_such_field=1)


def test_to_rio_fields_maps_flags():
    a = attr(start_seq=7, end_seq=9, prev=6, num=3, stream_id=0,
             boundary=True, merged=True, ipu=True)
    fields = a.to_rio_fields()
    assert fields.start_seq == 7
    assert fields.end_seq == 9
    assert fields.prev == 6
    assert fields.num == 3
    assert fields.flags & FLAG_BOUNDARY
    assert fields.flags & FLAG_MERGED
    assert fields.flags & FLAG_IPU
    assert not fields.flags & FLAG_SPLIT


def test_covered_request_identity():
    covered = CoveredRequest(seq=4, group_index=1, lba=10, nblocks=2, boundary=True)
    assert covered.request_id == (4, 1)


def test_repr_is_informative():
    a = attr(start_seq=2, end_seq=4, prev=1, merged=True, persist=1)
    text = repr(a)
    assert "2-4" in text
    assert "M" in text
    assert "P" in text
