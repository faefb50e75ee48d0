"""Pinned planner output: Steiner edges and merge schedules.

One line per instance -- the tree's sorted edges and ``SwapSchedule.to_dict()``
as JSON, or the planner's error message -- and one sha256 over all lines.
The instances: 60 seeded terminal subsets of the bundled 14-node network in
approximate and exact Steiner mode, ``random_tree_instance(0..199)``, relay
chains with end terminals (and with a middle terminal added), hub stars with
and without the hub as a terminal, and a GHZ-hyperedge network the planner
refuses.  A second test checks the tree centre against brute force.
"""

import hashlib
import json
import random

import numpy as np

from walknet import network
from walknet.network import (
    NetworkError,
    Resource,
    ResourceNetwork,
    bundled_network_path,
    load_network,
    plan_distribution,
    random_tree_instance,
    steiner_tree,
)

from dense_reference import chain_net, hub_net

PLANNER_SHA256 = "427 sha256:044b7e7178b9d82abc9e33506bb85867c8deafe043949b86ded695fec343338e"


def _line(tag, net, tree=None, terminals=None, exact=False) -> str:
    try:
        if tree is None:
            tree = steiner_tree(net, terminals, exact=exact)
        blob = {"edges": sorted(tree.edges),
                "schedule": plan_distribution(tree, net).to_dict()}
    except NetworkError as exc:
        blob = {"error": str(exc)}
    return f"{tag} {json.dumps(blob, sort_keys=True)}"


def _planner_lines() -> list[str]:
    lines = []
    net14 = load_network(bundled_network_path())
    ids = sorted(net14.nodes)
    for seed in range(60):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 8))
        terminals = sorted(int(v) for v in rng.choice(ids, size=size, replace=False))
        for exact in (False, True):
            lines.append(_line(f"net14 {seed} {exact}", net14,
                               terminals=terminals, exact=exact))
    for seed in range(200):
        net, tree = random_tree_instance(seed)
        lines.append(_line(f"tree {seed}", net, tree=tree))
    for n in list(range(2, 41)) + [200]:
        net = chain_net(2, n)
        lines.append(_line(f"chain {n}", net, terminals=[0, n - 1]))
        lines.append(_line(f"chain {n} mid", net, terminals=sorted({0, n // 2, n - 1})))
    for leaves in range(1, 14):
        net = hub_net(2, leaves)
        lines.append(_line(f"hub {leaves}", net, terminals=range(1, leaves + 1)))
        lines.append(_line(f"hub {leaves} centre", net, terminals=range(leaves + 1)))
    ghz = ResourceNetwork(2, {i: str(i) for i in range(4)},
                          [Resource("ghz", (0, 1, 2)), Resource("bell", (2, 3))])
    lines.append(_line("ghz refusal", ghz, terminals=[0, 3]))
    return lines


def test_planner_output_pinned():
    lines = _planner_lines()
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert f"{len(lines)} sha256:{digest}" == PLANNER_SHA256


def test_tree_center_matches_brute_force():
    # least eccentricity by one BFS per node, smaller id on a tie
    rng = random.Random(0)
    bicentral = 0
    for trial in range(1200):
        n = rng.randint(1, 30)
        ids = rng.sample(range(1000), n)
        adj = {v: set() for v in ids}
        for i in range(1, n):
            u, v = ids[rng.randrange(i)], ids[i]
            adj[u].add(v)
            adj[v].add(u)
        ecc = {v: max(network._bfs_dist(adj, v).values()) for v in adj}
        centres = [v for v in adj if ecc[v] == min(ecc.values())]
        bicentral += len(centres) == 2
        assert network._tree_center(adj) == min(centres), trial
    assert bicentral > 100
