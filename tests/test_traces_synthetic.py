"""Tests for the synthetic community-structured trace generator."""

import pytest

from repro.traces.synthetic import (
    ActivityWindow,
    CommunityModelConfig,
    generate,
)


def small_config(**overrides):
    base = dict(
        name="test",
        community_sizes=(4, 4),
        duration=4 * 3600.0,
        base_rate=1.0 / 900.0,
        inter_factor=0.2,
        traveler_fraction=0.25,
        sociability_sigma=0.3,
        mean_contact_duration=60.0,
        min_contact_duration=10.0,
    )
    base.update(overrides)
    return CommunityModelConfig(**base)


class TestConfigValidation:
    def test_empty_communities_rejected(self):
        with pytest.raises(ValueError):
            small_config(community_sizes=())

    def test_nonpositive_community_rejected(self):
        with pytest.raises(ValueError):
            small_config(community_sizes=(4, 0))

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            small_config(duration=0.0)

    def test_bad_traveler_fraction_rejected(self):
        with pytest.raises(ValueError):
            small_config(traveler_fraction=1.5)

    def test_num_nodes(self):
        assert small_config(community_sizes=(3, 5, 2)).num_nodes == 10


class TestActivityWindow:
    def test_valid(self):
        w = ActivityWindow(9.0, 17.0)
        assert w.start_s == 9 * 3600.0
        assert w.end_s == 17 * 3600.0

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            ActivityWindow(17.0, 9.0)

    def test_out_of_day_rejected(self):
        with pytest.raises(ValueError):
            ActivityWindow(9.0, 25.0)


class TestGeneration:
    def test_deterministic(self):
        a = generate(small_config(), seed=3)
        b = generate(small_config(), seed=3)
        assert a.trace.contacts == b.trace.contacts

    def test_seed_changes_output(self):
        a = generate(small_config(), seed=3)
        b = generate(small_config(), seed=4)
        assert a.trace.contacts != b.trace.contacts

    def test_node_universe(self):
        st = generate(small_config(), seed=1)
        assert st.trace.num_nodes == 8
        assert set(st.assignment.community_of) == set(range(8))

    def test_contacts_within_duration(self):
        st = generate(small_config(), seed=1)
        assert all(
            0 <= c.start < c.end <= st.config.duration for c in st.trace
        )

    def test_min_contact_duration_respected(self):
        st = generate(small_config(), seed=1)
        # Contacts may be clipped at the trace end; all others respect
        # the floor.
        for c in st.trace:
            if c.end < st.config.duration:
                assert c.duration >= st.config.min_contact_duration

    def test_communities_sized_correctly(self):
        st = generate(small_config(community_sizes=(3, 5)), seed=1)
        assert len(st.assignment.members(0)) == 3
        assert len(st.assignment.members(1)) == 5

    def test_traveler_count(self):
        st = generate(small_config(traveler_fraction=0.25), seed=1)
        assert len(st.assignment.travelers) == 2

    def test_intra_denser_than_inter(self):
        st = generate(small_config(), seed=2)
        intra = inter = 0
        for c in st.trace:
            if st.assignment.same_community(c.a, c.b):
                intra += 1
            else:
                inter += 1
        # 12 intra pairs at full rate vs 16 inter pairs at 20% rate
        # (some boosted): intra contacts should dominate per pair.
        assert intra / 12 > inter / 16

    def test_activity_windows_confine_starts(self):
        config = small_config(
            duration=2 * 86_400.0,
            activity_windows=(ActivityWindow(9.0, 17.0),),
        )
        st = generate(config, seed=5)
        assert len(st.trace) > 0
        for c in st.trace:
            seconds_of_day = c.start % 86_400.0
            assert 9 * 3600.0 <= seconds_of_day < 17 * 3600.0 + 601

    def test_sociability_disabled(self):
        st = generate(small_config(sociability_sigma=0.0), seed=1)
        assert all(v == 1.0 for v in st.assignment.sociability.values())
