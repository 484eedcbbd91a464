"""Tests for repro.radio.packets."""

import dataclasses
import pickle

import pytest

from repro.radio import CREDIT_UNIT_BYTES, Packet, Reading, credit_units


class TestPacket:
    def test_credit_units_paper_boundary(self):
        # One credit per started 24-byte unit (§4.4).
        assert Packet("d", 0.0, payload_bytes=24).credit_units == 1
        assert Packet("d", 0.0, payload_bytes=25).credit_units == 2
        assert Packet("d", 0.0, payload_bytes=48).credit_units == 2
        assert Packet("d", 0.0, payload_bytes=49).credit_units == 3
        # The forwarding path prices a payload without building a packet.
        assert [credit_units(n) for n in (0, 24, 25, 48, 49)] == [1, 1, 2, 2, 3]

    def test_zero_byte_heartbeat_costs_one(self):
        assert Packet("d", 0.0, payload_bytes=0).credit_units == 1

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            Packet("d", 0.0, payload_bytes=-1)

    def test_sequence_numbers_increase(self):
        a = Packet("d", 0.0, 24)
        b = Packet("d", 0.0, 24)
        assert b.sequence > a.sequence

    def test_reading_attached(self):
        reading = Reading(kind="strain", value=1.5, unit="ue")
        packet = Packet("d", 0.0, 24, reading=reading)
        assert packet.reading.kind == "strain"

    def test_credit_unit_constant(self):
        assert CREDIT_UNIT_BYTES == 24



class TestSlottedRecords:
    """The records are frozen slotted dataclasses: no ``__dict__``, but
    otherwise the same value semantics as before."""

    def _records(self):
        reading = Reading(kind="strain", value=1.5, unit="ue")
        packet = Packet("d", 3.0, 24, reading=reading, signed_with="k")
        return reading, packet

    def test_fields_are_still_frozen(self):
        reading, packet = self._records()
        for instance, name in ((reading, "value"), (packet, "source")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(instance, name, 0)

    def test_no_instance_dict(self):
        for instance in self._records():
            assert not hasattr(instance, "__dict__")
            assert "__slots__" in type(instance).__dict__

    def test_equal_packets_hash_equal(self):
        reading = Reading(kind="strain", value=1.5, unit="ue")
        a = Packet("d", 3.0, 24, reading=reading, sequence=7)
        b = Packet("d", 3.0, 24, reading=Reading("strain", 1.5, "ue"), sequence=7)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != dataclasses.replace(a, sequence=8)

    def test_pickle_round_trip(self):
        for instance in self._records():
            clone = pickle.loads(pickle.dumps(instance))
            assert clone == instance
            assert type(clone) is type(instance)

    def test_sequence_still_increases(self):
        first = Packet("d", 0.0, 24).sequence
        later = [Packet("d", 0.0, 24).sequence for _ in range(3)]
        assert later == sorted(later)
        assert first < later[0] and len(set(later)) == 3
