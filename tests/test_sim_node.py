"""Tests for per-node state and memory accounting."""

import pytest

from repro.sim.messages import Message, StoredCopy
from repro.sim.node import NodeState
from repro.sim.results import SimulationResults


def msg(i=1, size=1000):
    return Message(
        msg_id=i, source=0, destination=9, created_at=0.0, ttl=600.0,
        size_bytes=size,
    )


@pytest.fixture
def results():
    return SimulationResults()


@pytest.fixture
def node():
    return NodeState(node_id=3)


class TestBuffer:
    def test_store_marks_seen(self, node, results):
        node.store(StoredCopy(message=msg(), received_at=10.0), 10.0, results)
        assert node.has_copy(1)
        assert node.has_seen(1)

    def test_double_store_rejected(self, node, results):
        node.store(StoredCopy(message=msg(), received_at=10.0), 10.0, results)
        with pytest.raises(ValueError):
            node.store(
                StoredCopy(message=msg(), received_at=11.0), 11.0, results
            )

    def test_drop_keeps_seen(self, node, results):
        node.store(StoredCopy(message=msg(), received_at=10.0), 10.0, results)
        node.drop(1, 20.0, results)
        assert not node.has_copy(1)
        assert node.has_seen(1)

    def test_drop_missing_is_none(self, node, results):
        assert node.drop(99, 0.0, results) is None

    def test_live_copies_filters_expired(self, node, results):
        node.store(StoredCopy(message=msg(), received_at=0.0), 0.0, results)
        assert len(node.live_copies(100.0)) == 1
        assert node.live_copies(600.0) == []

    def test_live_copies_filters_dropped_bodies(self, node, results):
        node.store(StoredCopy(message=msg(), received_at=0.0), 0.0, results)
        node.drop_body(1, 50.0, results)
        assert node.live_copies(100.0) == []
        assert node.has_copy(1)  # record still there


class TestMemoryAccounting:
    def test_byte_seconds_integrated(self, node, results):
        node.store(
            StoredCopy(message=msg(size=1000), received_at=0.0), 0.0, results
        )
        node.drop(1, 10.0, results)
        assert results.memory_byte_seconds[3] == pytest.approx(10_000.0)

    def test_body_drop_stops_accumulation(self, node, results):
        node.store(
            StoredCopy(message=msg(size=1000), received_at=0.0), 0.0, results
        )
        node.drop_body(1, 10.0, results)
        node.flush(20.0, results)
        # only the first 10 seconds carry the body
        assert results.memory_byte_seconds[3] == pytest.approx(10_000.0)

    def test_flush_settles(self, node, results):
        node.store(
            StoredCopy(message=msg(size=500), received_at=0.0), 0.0, results
        )
        node.flush(4.0, results)
        assert results.memory_byte_seconds[3] == pytest.approx(2_000.0)
        assert node.buffer == {}

    def test_multiple_copies_sum(self, node, results):
        node.store(
            StoredCopy(message=msg(1, size=100), received_at=0.0), 0.0, results
        )
        node.store(
            StoredCopy(message=msg(2, size=300), received_at=0.0), 0.0, results
        )
        node.flush(10.0, results)
        assert results.memory_byte_seconds[3] == pytest.approx(4_000.0)

    def test_double_body_drop_is_idempotent(self, node, results):
        node.store(
            StoredCopy(message=msg(size=1000), received_at=0.0), 0.0, results
        )
        node.drop_body(1, 5.0, results)
        node.drop_body(1, 6.0, results)
        node.flush(10.0, results)
        assert results.memory_byte_seconds[3] == pytest.approx(5_000.0)
