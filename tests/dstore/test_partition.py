"""Placement: stable hashing, replica groups, slot inversion."""

import hashlib

import pytest

from repro.dstore import Partitioner


def test_partition_of_is_md5_not_builtin_hash():
    # the builtin hash() is salted per process; placement must be the
    # md5-derived value so --jobs N matches serial byte-for-byte
    partitioner = Partitioner(n_bricks=3, replicas=2, n_partitions=16)
    digest = hashlib.md5(b"client7").digest()
    expected = int.from_bytes(digest[:8], "big") % 16
    assert partitioner.partition_of("client7") == expected


def test_partition_of_in_range_and_deterministic():
    partitioner = Partitioner(n_bricks=5, replicas=3, n_partitions=32)
    for index in range(100):
        key = f"user{index}"
        partition = partitioner.partition_of(key)
        assert 0 <= partition < 32
        assert partitioner.partition_of(key) == partition


def test_slots_of_consecutive_distinct_replicas():
    partitioner = Partitioner(n_bricks=4, replicas=3, n_partitions=16)
    for partition in range(16):
        slots = partitioner.slots_of(partition)
        assert len(slots) == 3
        assert len(set(slots)) == 3
        first = partition % 4
        assert slots == [first, (first + 1) % 4, (first + 2) % 4]


def test_partitions_of_slot_inverts_slots_of():
    partitioner = Partitioner(n_bricks=3, replicas=2, n_partitions=16)
    for slot in range(3):
        for partition in partitioner.partitions_of_slot(slot):
            assert slot in partitioner.slots_of(partition)
    # every partition is hosted on exactly `replicas` slots
    copies = sum(len(partitioner.partitions_of_slot(slot))
                 for slot in range(3))
    assert copies == 16 * 2


def test_invalid_configurations_rejected():
    with pytest.raises(ValueError):
        Partitioner(n_bricks=0)
    with pytest.raises(ValueError):
        Partitioner(n_bricks=2, replicas=3)
    with pytest.raises(ValueError):
        Partitioner(n_bricks=2, replicas=0)
    with pytest.raises(ValueError):
        Partitioner(n_bricks=2, n_partitions=0)
    partitioner = Partitioner(n_bricks=2)
    with pytest.raises(ValueError):
        partitioner.slots_of(99)
