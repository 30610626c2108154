"""Synthetic community-structured contact traces.

The paper evaluates on two CRAWDAD iMote deployments that are not
redistributable here, so we generate synthetic stand-ins that preserve
the properties the Give2Get mechanisms depend on (DESIGN.md §3):

* **community structure** — nodes cluster into groups whose members
  meet each other far more often than outsiders; needed both for the
  "selfish with outsiders" notion and for the paper's Δ2 argument
  ("if S and B meet, they will likely meet again within Δ2");
* **heterogeneous contact rates** — per-node sociability varies, so
  some pairs meet constantly and many pairs rarely or never;
* **re-encounter clustering in time** — realized through daily
  activity periods plus bursty pairwise renewal processes.

The generative model: each node gets a community and a lognormal
sociability factor.  Every unordered pair has a Poisson-like renewal
contact process whose rate is ``base * soc_i * soc_j`` multiplied by an
intra- or inter-community factor; "traveler" nodes additionally boost
their inter-community rates, acting as social bridges.  Contact starts
are confined to daily activity windows; durations are exponential with
a floor.  Everything is driven by one seeded ``random.Random``, so
traces are fully reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .trace import Contact, ContactTrace, NodeId, make_contact

#: Seconds per day, used by the activity schedule.
DAY = 86_400.0


@dataclass(frozen=True)
class ActivityWindow:
    """A daily window (in hours) during which contacts may start."""

    start_hour: float
    end_hour: float

    def __post_init__(self) -> None:
        if not 0 <= self.start_hour < self.end_hour <= 24:
            raise ValueError(
                f"invalid window [{self.start_hour}, {self.end_hour}]"
            )

    @property
    def start_s(self) -> float:
        """Window start as seconds-of-day."""
        return self.start_hour * 3600.0

    @property
    def end_s(self) -> float:
        """Window end as seconds-of-day."""
        return self.end_hour * 3600.0


@dataclass(frozen=True)
class CommunityModelConfig:
    """Parameters of the synthetic trace generator.

    Attributes:
        name: label of the generated trace.
        community_sizes: one entry per community; their sum is the
            number of nodes.
        duration: total trace length in seconds.
        base_rate: baseline pairwise contact rate (contacts/second)
            before sociability and community scaling.
        intra_factor: multiplier for same-community pairs.
        inter_factor: multiplier for cross-community pairs.
        traveler_fraction: fraction of nodes whose *inter*-community
            rates are boosted by ``traveler_boost`` — the social
            bridges that let messages escape their home community.
        traveler_boost: rate multiplier for traveler inter pairs.
        sociability_sigma: sigma of the lognormal per-node sociability
            (0 disables heterogeneity).
        mean_contact_duration: mean of the exponential contact length.
        min_contact_duration: hard floor on contact length (seconds).
        activity_windows: daily windows when contacts can start; an
            empty sequence means always-on.
        burstiness: probability that a contact is followed by a quick
            follow-up contact of the same pair (models the observed
            clustering of re-encounters).
        burst_gap_mean: mean gap of those follow-up contacts.
    """

    name: str
    community_sizes: Tuple[int, ...]
    duration: float
    base_rate: float
    intra_factor: float = 1.0
    inter_factor: float = 0.05
    traveler_fraction: float = 0.15
    traveler_boost: float = 6.0
    sociability_sigma: float = 0.45
    mean_contact_duration: float = 150.0
    min_contact_duration: float = 20.0
    activity_windows: Tuple[ActivityWindow, ...] = ()
    burstiness: float = 0.35
    burst_gap_mean: float = 900.0

    def __post_init__(self) -> None:
        if not self.community_sizes or any(
            s <= 0 for s in self.community_sizes
        ):
            raise ValueError("community sizes must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.base_rate <= 0:
            raise ValueError("base_rate must be positive")
        if not 0 <= self.traveler_fraction <= 1:
            raise ValueError("traveler_fraction must be in [0, 1]")

    @property
    def num_nodes(self) -> int:
        """Total node count."""
        return sum(self.community_sizes)


@dataclass
class CommunityAssignment:
    """Ground-truth social structure of a generated trace.

    Kept alongside the trace so experiments can compare detected
    communities against the generative truth and implement the
    *selfish with outsiders* adversaries against either.
    """

    community_of: Dict[NodeId, int]
    travelers: Tuple[NodeId, ...]
    sociability: Dict[NodeId, float]

    def members(self, community: int) -> Tuple[NodeId, ...]:
        """Node ids belonging to ``community``."""
        return tuple(
            sorted(n for n, c in self.community_of.items() if c == community)
        )

    @property
    def num_communities(self) -> int:
        """Number of distinct communities."""
        return len(set(self.community_of.values()))

    def same_community(self, a: NodeId, b: NodeId) -> bool:
        """True if both nodes share a community."""
        return self.community_of[a] == self.community_of[b]


@dataclass
class SyntheticTrace:
    """A generated trace bundled with its ground-truth social structure."""

    trace: ContactTrace
    assignment: CommunityAssignment
    config: CommunityModelConfig


def generate(config: CommunityModelConfig, seed: int) -> SyntheticTrace:
    """Generate a synthetic trace from ``config``.

    Deterministic in ``(config, seed)``.
    """
    rng = random.Random(seed)
    community_of: Dict[NodeId, int] = {}
    node = 0
    for community, size in enumerate(config.community_sizes):
        for _ in range(size):
            community_of[node] = community
            node += 1
    nodes = tuple(range(config.num_nodes))

    sociability = {
        n: (
            math.exp(rng.gauss(0.0, config.sociability_sigma))
            if config.sociability_sigma > 0
            else 1.0
        )
        for n in nodes
    }

    num_travelers = round(config.traveler_fraction * config.num_nodes)
    travelers = tuple(sorted(rng.sample(list(nodes), num_travelers)))
    traveler_set = set(travelers)

    contacts: List[Contact] = []
    for i in nodes:
        for j in nodes:
            if j <= i:
                continue
            rate = _pair_rate(
                i, j, config, community_of, sociability, traveler_set
            )
            if rate <= 0:
                continue
            contacts.extend(_pair_process(i, j, rate, config, rng))

    trace = ContactTrace(name=config.name, nodes=nodes, contacts=tuple(contacts))
    assignment = CommunityAssignment(
        community_of=community_of,
        travelers=travelers,
        sociability=sociability,
    )
    return SyntheticTrace(trace=trace, assignment=assignment, config=config)


def _pair_rate(
    i: NodeId,
    j: NodeId,
    config: CommunityModelConfig,
    community_of: Dict[NodeId, int],
    sociability: Dict[NodeId, float],
    travelers: set,
) -> float:
    """Contact rate of the unordered pair ``(i, j)``."""
    rate = config.base_rate * sociability[i] * sociability[j]
    if community_of[i] == community_of[j]:
        rate *= config.intra_factor
    else:
        rate *= config.inter_factor
        if i in travelers or j in travelers:
            rate *= config.traveler_boost
    return rate


def _pair_process(
    i: NodeId,
    j: NodeId,
    rate: float,
    config: CommunityModelConfig,
    rng: random.Random,
) -> List[Contact]:
    """Sample the renewal contact process of one pair."""
    contacts: List[Contact] = []
    t = rng.expovariate(rate)
    while True:
        t = _align_to_activity(t, config, rng)
        if t >= config.duration:
            break
        duration = max(
            config.min_contact_duration,
            rng.expovariate(1.0 / config.mean_contact_duration),
        )
        end = min(t + duration, config.duration)
        if end > t:
            contacts.append(make_contact(i, j, t, end))
        # Bursty re-encounter or a fresh exponential gap.
        if rng.random() < config.burstiness:
            gap = rng.expovariate(1.0 / config.burst_gap_mean)
        else:
            gap = rng.expovariate(rate)
        t = end + gap
    return contacts


def _align_to_activity(
    t: float, config: CommunityModelConfig, rng: random.Random
) -> float:
    """Push a tentative contact start into the next activity window.

    With no configured windows, times pass through unchanged.  A small
    jitter spreads the contacts that pile up at a window's opening.
    """
    if not config.activity_windows:
        return t
    windows = sorted(config.activity_windows, key=lambda w: w.start_s)
    while t < config.duration:
        seconds_of_day = t % DAY
        for window in windows:
            if window.start_s <= seconds_of_day < window.end_s:
                return t
        # Find the next window opening at or after this time of day.
        day_start = t - seconds_of_day
        upcoming = [w.start_s for w in windows if w.start_s > seconds_of_day]
        if upcoming:
            t = day_start + min(upcoming) + rng.uniform(0, 600)
        else:
            t = day_start + DAY + windows[0].start_s + rng.uniform(0, 600)
    return t
