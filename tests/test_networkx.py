"""Differential tests against networkx on 5k-vertex graphs: modularity, and Louvain's Q."""

import pytest

from dynamo.graph import Partition, modularity
from dynamo.louvain import compress, louvain
from dynamo.synthgen import generate
from helpers import PLANTED_5K, residual_movers

nx = pytest.importorskip("networkx")


@pytest.fixture(scope="module")
def scenario():
    return generate(PLANTED_5K)


@pytest.fixture(scope="module")
def detected(scenario):
    return [louvain(g) for g in scenario.graphs]


def nx_graph(g):
    """networkx copy of ``g``; a self weight ``s`` becomes a self-loop of weight s/2.

    The self weight follows the ordered-pair convention: it adds ``s`` to the
    strength and ``s/2`` to the total weight, as a networkx self-loop of
    weight ``s/2`` does.
    """
    out = nx.Graph()
    out.add_nodes_from(g.vertices)
    out.add_weighted_edges_from(g.edges())
    out.add_weighted_edges_from((v, v, g.self_weight(v) / 2) for v in g.vertices
                                if g.self_weight(v))
    return out


def assert_same_q(g, p):
    expected = nx.community.modularity(nx_graph(g), p.as_sets(), weight="weight")
    assert modularity(g, p) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_planted_snapshots_truth_and_louvain(scenario, detected, k):
    g = scenario.graphs[k]
    assert_same_q(g, Partition.from_assignment(g, scenario.ground_truth[k]))
    assert_same_q(g, detected[k])


@pytest.mark.parametrize("k", [0, 1, 2])
def test_louvain_q_matches_networkx_louvain(scenario, detected, k):
    g = scenario.graphs[k]
    h = nx_graph(g)
    theirs = nx.community.louvain_communities(h, weight="weight", seed=0)
    q_theirs = nx.community.modularity(h, theirs, weight="weight")
    assert modularity(g, detected[k]) >= q_theirs - 1e-6


@pytest.mark.parametrize("k", [0, 1, 2])
def test_louvain_is_a_full_sweep_local_optimum(scenario, detected, k):
    # the queue visits a vertex again only when a neighbor moves; no vertex may
    # be left that a full sweep would still move
    assert residual_movers(scenario.graphs[k], detected[k]) == 0


def test_compressed_level_graph_self_weights(scenario):
    g = scenario.graphs[0]
    level = compress(g, Partition.from_assignment(g, scenario.ground_truth[0]))
    assert any(level.self_weight(v) for v in level.vertices)
    assert_same_q(level, Partition.singletons(level))
    pairs = {v: i // 2 for i, v in enumerate(sorted(level.vertices))}
    assert_same_q(level, Partition.from_assignment(level, pairs))
