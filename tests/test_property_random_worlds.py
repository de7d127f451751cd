"""Property tests on randomly generated topologies.

A generator builds arbitrary (but structurally valid) two-ISD worlds;
the combinator's invariants must hold on all of them: loop-freedom,
ranking, endpoint correctness, resolvable traversals, and symmetry of
reachability.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NoPathError
from repro.scion.beaconing import Beaconer
from repro.scion.combinator import combine_paths
from repro.topology.builder import TopologyBuilder
from repro.topology.entities import ASRole
from repro.topology.isd_as import ISDAS


def _graph_distance(topo, src: ISDAS, dst: ISDAS) -> int:
    """Links on the shortest path in the undirected link graph (BFS)."""
    frontier, seen, distance = [src], {src}, 0
    while dst not in seen:
        frontier = [
            other
            for ia in frontier
            for other in (link.other(ia) for link in topo.links_of(ia))
            if not (other in seen or seen.add(other))
        ]
        assert frontier, f"{dst} unreachable from {src}"
        distance += 1
    return distance


def random_world(seed: int):
    """A random valid world: 2 ISDs, chained cores, random leaf trees."""
    rng = np.random.default_rng(seed)
    b = TopologyBuilder()
    nodes = {1: [], 2: []}
    for isd in (1, 2):
        n_cores = int(rng.integers(1, 3))
        for i in range(n_cores):
            ia = f"{isd}-0:0:{i + 1:x}"
            b.add_as(ia, f"core{isd}.{i}", role=ASRole.CORE,
                     lat=float(rng.uniform(-60, 60)),
                     lon=float(rng.uniform(-150, 150)),
                     country="XX", operator="Op")
            nodes[isd].append(ia)
        # Chain the ISD's cores.
        for a, c in zip(nodes[isd], nodes[isd][1:]):
            b.core_link(a, c)
        # Random leaves, each parented to an existing node of the ISD.
        n_leaves = int(rng.integers(1, 5))
        for j in range(n_leaves):
            ia = f"{isd}-0:1:{j + 1:x}"
            b.add_as(ia, f"leaf{isd}.{j}", role=ASRole.NON_CORE,
                     lat=float(rng.uniform(-60, 60)),
                     lon=float(rng.uniform(-150, 150)),
                     country="XX", operator="Op")
            parent = nodes[isd][int(rng.integers(0, len(nodes[isd])))]
            b.parent_link(parent, ia)
            # Occasionally multi-home the leaf.
            if rng.random() < 0.3 and len(nodes[isd]) > 1:
                second = nodes[isd][int(rng.integers(0, len(nodes[isd])))]
                if second != parent:
                    b.parent_link(second, ia)
            nodes[isd].append(ia)
    # Inter-ISD core link so the two ISDs connect.
    b.core_link(nodes[1][0], nodes[2][0])
    topo = b.build()
    leaves = [ia for isd in (1, 2) for ia in nodes[isd]]
    return topo, leaves


@st.composite
def world_and_pair(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    topo, nodes = random_world(seed)
    i = draw(st.integers(min_value=0, max_value=len(nodes) - 1))
    j = draw(st.integers(min_value=0, max_value=len(nodes) - 1))
    return topo, nodes[i], nodes[j]


class TestRandomWorldInvariants:
    @given(world_and_pair())
    @settings(max_examples=60, deadline=None)
    def test_combinator_invariants(self, case):
        topo, src, dst = case
        beaconer = Beaconer(topo)
        try:
            paths = combine_paths(beaconer, src, dst)
        except NoPathError:
            return  # disconnection / src == dst: acceptable outcomes
        counts = [p.hop_count for p in paths]
        assert counts == sorted(counts)
        sequences = [p.sequence() for p in paths]
        assert len(sequences) == len(set(sequences))
        for p in paths:
            ases = p.ases()
            assert len(ases) == len(set(ases))
            assert str(ases[0]) == src and str(ases[-1]) == dst
            steps = p.traversals(topo)
            assert len(steps) == p.hop_count - 1
            # Each traversal must chain: receiver of one = sender of next.
            for s1, s2 in zip(steps, steps[1:]):
                assert s1.link.other(s1.sender) == s2.sender

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_reachability_symmetric(self, seed):
        """If src reaches dst, dst reaches src (undirected substrate)."""
        topo, nodes = random_world(seed)
        rng = np.random.default_rng(seed + 1)
        src, dst = (
            nodes[int(rng.integers(0, len(nodes)))],
            nodes[int(rng.integers(0, len(nodes)))],
        )
        if src == dst:
            return
        beaconer = Beaconer(topo)

        def reachable(a, b):
            try:
                combine_paths(beaconer, a, b)
                return True
            except NoPathError:
                return False

        assert reachable(src, dst) == reachable(dst, src)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_min_hops_matches_graph_distance(self, seed):
        """The best path's hop count can never beat the plain shortest
        path in the undirected link graph (SCION only restricts)."""
        topo, nodes = random_world(seed)
        beaconer = Beaconer(topo)
        rng = np.random.default_rng(seed + 2)
        src = nodes[int(rng.integers(0, len(nodes)))]
        dst = nodes[int(rng.integers(0, len(nodes)))]
        if src == dst:
            return
        try:
            best = combine_paths(beaconer, src, dst)[0]
        except NoPathError:
            return
        shortest = _graph_distance(topo, ISDAS.parse(src), ISDAS.parse(dst))
        assert best.hop_count >= shortest + 1  # hops count ASes, not links
