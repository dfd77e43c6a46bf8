"""Tests for OIDs, RIDs, and the OID directory."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DuplicateOidError, RecordError, UnknownOidError
from repro.storage.oid import NULL_OID, OID_SIZE, Oid, OidDirectory, Rid


class TestOid:
    def test_encode_length(self):
        assert len(Oid(3, 17).encode()) == OID_SIZE

    def test_roundtrip(self):
        oid = Oid(12, 3456789)
        assert Oid.decode(oid.encode()) == oid

    def test_null_oid(self):
        assert NULL_OID.is_null()
        assert not Oid(1, 1).is_null()

    def test_null_roundtrip(self):
        assert Oid.decode(NULL_OID.encode()).is_null()

    def test_decode_wrong_length(self):
        with pytest.raises(RecordError):
            Oid.decode(b"short")

    def test_encode_out_of_range(self):
        with pytest.raises(RecordError):
            Oid(-1, 0).encode()
        with pytest.raises(RecordError):
            Oid(1 << 20, 0).encode()

    def test_str(self):
        assert str(Oid(2, 5)) == "OID<2:5>"
        assert str(NULL_OID) == "OID<null>"

    def test_is_hashable_and_ordered(self):
        oids = {Oid(1, 1), Oid(1, 2), Oid(1, 1)}
        assert len(oids) == 2
        assert Oid(1, 1) < Oid(1, 2) < Oid(2, 0)

    @given(st.integers(0, 0xFFFF), st.integers(0, 2**64 - 1))
    def test_roundtrip_property(self, type_id, serial):
        oid = Oid(type_id, serial)
        assert Oid.decode(oid.encode()) == oid


class TestRid:
    def test_fields(self):
        rid = Rid(7, 3)
        assert rid.page_id == 7
        assert rid.slot == 3
        assert str(rid) == "RID<7.3>"


class TestOidDirectory:
    def test_register_and_lookup(self):
        directory = OidDirectory()
        directory.register(Oid(1, 1), Rid(5, 0))
        assert directory.lookup(Oid(1, 1)) == Rid(5, 0)
        assert directory.page_of(Oid(1, 1)) == 5

    def test_lookup_unknown(self):
        with pytest.raises(UnknownOidError):
            OidDirectory().lookup(Oid(1, 1))

    def test_duplicate_registration(self):
        directory = OidDirectory()
        directory.register(Oid(1, 1), Rid(5, 0))
        with pytest.raises(DuplicateOidError):
            directory.register(Oid(1, 1), Rid(6, 0))

    def test_cannot_register_null(self):
        with pytest.raises(UnknownOidError):
            OidDirectory().register(NULL_OID, Rid(0, 0))

    def test_contains_len_iter(self):
        directory = OidDirectory()
        for serial in range(4):
            directory.register(Oid(1, serial + 1), Rid(serial, 0))
        assert len(directory) == 4
        assert Oid(1, 2) in directory
        assert Oid(9, 9) not in directory
        assert sorted(directory) == [Oid(1, s + 1) for s in range(4)]
