"""Tests for the record codec (the paper's 96-byte object layout)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import RecordError
from repro.storage.oid import NULL_OID, Oid
from repro.storage.record import (
    OBJECT_PAYLOAD_SIZE,
    PAPER_FORMAT,
    ObjectRecord,
    RecordFormat,
)


class TestRecordFormat:
    def test_paper_geometry_is_96_bytes(self):
        """Section 6: 4 integers + 8 references = 96 bytes."""
        assert PAPER_FORMAT.payload_size == 96
        assert OBJECT_PAYLOAD_SIZE == 96

    def test_custom_format_size(self):
        assert RecordFormat(n_ints=2, n_refs=1).payload_size == 2 * 4 + 10

    def test_negative_counts_rejected(self):
        with pytest.raises(RecordError):
            RecordFormat(n_ints=-1)

    def test_encode_wrong_arity(self):
        with pytest.raises(RecordError):
            PAPER_FORMAT.encode([1, 2], [NULL_OID] * 8)
        with pytest.raises(RecordError):
            PAPER_FORMAT.encode([1, 2, 3, 4], [NULL_OID] * 3)

    def test_encode_int_out_of_range(self):
        with pytest.raises(RecordError):
            PAPER_FORMAT.encode([2**40, 0, 0, 0], [NULL_OID] * 8)

    def test_decode_wrong_length(self):
        with pytest.raises(RecordError):
            PAPER_FORMAT.decode(b"\x00" * 95)


class TestObjectRecord:
    def test_default_is_zeroed(self):
        record = ObjectRecord()
        assert record.ints == [0, 0, 0, 0]
        assert all(ref.is_null() for ref in record.refs)

    def test_roundtrip(self):
        record = ObjectRecord(
            ints=[1, -2, 3, 4],
            refs=[Oid(1, i + 1) for i in range(8)],
        )
        ints, refs = PAPER_FORMAT.decode(record.encode())
        assert list(ints) == record.ints
        assert list(refs) == record.refs

    def test_wrong_arity_rejected(self):
        with pytest.raises(RecordError):
            ObjectRecord(ints=[1, 2, 3])
        with pytest.raises(RecordError):
            ObjectRecord(refs=[NULL_OID] * 7)

    def test_encoded_size(self):
        assert len(ObjectRecord().encode()) == 96

    @given(
        st.lists(
            st.integers(-(2**31), 2**31 - 1), min_size=4, max_size=4
        ),
        st.lists(
            st.tuples(st.integers(0, 0xFFFF), st.integers(0, 2**63)),
            min_size=8,
            max_size=8,
        ),
    )
    def test_roundtrip_property(self, ints, ref_pairs):
        record = ObjectRecord(
            ints=list(ints), refs=[Oid(t, s) for t, s in ref_pairs]
        )
        ints, refs = PAPER_FORMAT.decode(record.encode())
        assert list(ints) == record.ints
        assert list(refs) == record.refs
