"""Tests for the streaming ContactSource layer (repro.traces.stream).

Three properties carry the scale axis: the source contract (a declared
universe plus a time-ordered chunk stream), determinism of the lazy
synthetic generator (same config, same stream — and any chunk
regenerable in isolation), and coercion of traces into sources.
"""

import pytest

from repro.perf import COUNTERS
from repro.traces import (
    ContactSource,
    ContactTrace,
    InMemorySource,
    StreamModelConfig,
    SyntheticStreamSource,
    ensure_contact_source,
    make_contact,
    source_from_spec,
)

SMALL = StreamModelConfig(
    nodes=200, duration=1_200.0, seed=7, chunk_seconds=300.0
)


@pytest.fixture
def trace():
    return ContactTrace(
        name="t",
        nodes=(0, 1, 2, 3),
        contacts=(
            make_contact(0, 1, 10.0, 20.0),
            make_contact(1, 2, 15.0, 30.0),
            make_contact(2, 3, 40.0, 55.0),
        ),
    )


class TestInMemorySource:
    def test_wraps_trace_bit_identically(self, trace):
        source = InMemorySource(trace)
        assert source.materialized
        assert source.trace is trace
        assert source.name == "t"
        assert source.universe == trace.nodes
        assert source.num_nodes == 4
        assert list(source.iter_contacts()) == list(trace.contacts)

    def test_spec_is_none(self, trace):
        # Ad-hoc traces cannot be reconstructed from a spec, so they
        # must never be folded into a cache key.
        assert InMemorySource(trace).spec() is None

    def test_iter_contacts_counts_ops(self, trace):
        source = InMemorySource(trace)
        before = COUNTERS.snapshot()
        list(source.iter_contacts())
        ops = COUNTERS.diff(before)
        assert ops["stream_chunks"] == 1
        assert ops["stream_contacts"] == 3


class TestEnsureContactSource:
    def test_passthrough(self, trace):
        source = InMemorySource(trace)
        assert ensure_contact_source(source, "test") is source

    def test_wraps_trace_and_bundle(self, trace):
        assert ensure_contact_source(trace, "test").trace is trace

        class Bundle:
            pass

        bundle = Bundle()
        bundle.trace = trace
        assert ensure_contact_source(bundle, "test").trace is trace

    def test_rejects_junk(self):
        with pytest.raises(TypeError, match="caller-name expected"):
            ensure_contact_source(42, "caller-name")


class TestSyntheticStreamSource:
    def test_universe_is_a_range(self):
        source = SyntheticStreamSource(SMALL)
        assert source.universe == range(200)
        assert source.num_nodes == 200

    def test_stream_is_time_ordered_and_valid(self):
        source = SyntheticStreamSource(SMALL)
        contacts = list(source.iter_contacts())
        assert contacts, "default config must produce contacts"
        starts = [c.start for c in contacts]
        assert starts == sorted(starts)
        for c in contacts:
            assert 0 <= c.a < c.b < 200
            assert c.end > c.start >= 0.0

    def test_same_config_same_stream(self):
        first = list(SyntheticStreamSource(SMALL).iter_contacts())
        second = list(SyntheticStreamSource(SMALL).iter_contacts())
        assert first == second

    def test_seed_changes_stream(self):
        import dataclasses

        other = dataclasses.replace(SMALL, seed=8)
        assert list(SyntheticStreamSource(SMALL).iter_contacts()) != list(
            SyntheticStreamSource(other).iter_contacts()
        )

    def test_chunks_regenerable_out_of_order(self):
        # Each chunk is seeded independently, so reading chunk 2 first
        # must not perturb chunk 0 — the property spill/replay rests on.
        source = SyntheticStreamSource(SMALL)
        in_order = list(source.iter_chunks())
        assert source._chunk(2) == in_order[2]
        assert source._chunk(0) == in_order[0]

    def test_materialize_matches_stream(self):
        source = SyntheticStreamSource(SMALL)
        trace = source.materialize()
        assert trace.nodes == tuple(range(200))
        assert list(trace.contacts) == sorted(source.iter_contacts())

    def test_spec_round_trip(self):
        source = SyntheticStreamSource(SMALL)
        rebuilt = source_from_spec(source.spec())
        assert isinstance(rebuilt, SyntheticStreamSource)
        assert rebuilt.config == SMALL
        assert list(rebuilt.iter_contacts()) == list(source.iter_contacts())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StreamModelConfig(nodes=1)
        with pytest.raises(ValueError):
            StreamModelConfig(duration=0.0)
        with pytest.raises(ValueError):
            StreamModelConfig(p_leaf=0.9, p_parent=0.2)


