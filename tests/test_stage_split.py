"""A wide star merge's law stays small in memory.

``network._step_law`` reads a step's law off its circuit: k readouts, d^k
equally likely outcomes and one correction frame per outcome.  No register
or operator is built, so even every outcome's frame of the 10-leaf qubit hub,
a star merge of 20 input sites, stays within a small traced peak.  A hub
that is itself a terminal star-merges its leaves with a local coin pair:
that rule is checked against the dense step at every width under the cap,
and past it simulated mode refuses before any draw; with the cap lifted, a
40-leaf hub is served, since nothing else is built, and so is a 53-leaf hub,
whose 2^53 outcomes are the most one draw reaches.
"""

import re
import tracemalloc
from itertools import product

import numpy as np
import pytest

from walknet import network
from walknet.network import NetworkError, distribute, execute_schedule
from walknet.qudit import SIZE_CAP

from dense_reference import dense_law, hub_net, plan, step_shapes


def test_hub_law_compiles_within_a_small_traced_peak():
    # the 10-leaf qubit hub: one star merge of 20 input sites, 10 readouts
    (key,) = step_shapes(plan(hub_net(2, 10), list(range(1, 11))))
    tracemalloc.start()
    try:
        k, frame = network._step_law.__wrapped__(2, *key)
        frames = [frame(values) for values in product(range(2), repeat=k)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert k == 10 and len(frames) == 2**10
    assert peak < 12 * 2**20


def test_a_wide_hub_builds_nothing_past_the_step_cap(monkeypatch):
    # 40 leaves at d = 2: one star merge of 80 input sites and 40 readouts.
    # With the per-step cap lifted nothing else bounds it: it once raised
    # "state of 40 sites at d=2" from its final GHZ, after its draws
    monkeypatch.setattr(network, "SIZE_CAP", 2**80)
    _, schedule, res = distribute(hub_net(2, 40), list(range(1, 41)), d=2, seed=5)
    assert res.fidelity == 1.0 and sorted(res.final_parties) == list(range(1, 41))
    (shape,), (outcome,) = step_shapes(schedule), res.outcomes
    k, frame = network._step_law(2, *shape)
    assert k == len(outcome["outcome"]) == 40
    assert outcome["correction"] == frame(tuple(outcome["outcome"])).label


@pytest.mark.parametrize("leaves", [53, 54])
def test_a_hub_is_served_up_to_2_53_outcomes(monkeypatch, leaves):
    # with the per-step cap lifted, the 53-leaf d = 2 hub's star merge (53
    # readouts, 2^53 outcomes) is served; the 54-leaf hub's 2^54 outcomes are
    # more than floor(u 2^54) reaches (it is always even, so the position would
    # never read 1), and the draw refuses them before it makes a generator
    monkeypatch.setattr(network, "SIZE_CAP", 2**200)
    net = hub_net(2, leaves)
    schedule = plan(net, list(range(1, leaves + 1)))
    if leaves == 53:
        res = execute_schedule(schedule, "simulated", d=2, seed=5)
        (outcome,) = res.outcomes
        assert len(outcome["outcome"]) == 53 and res.fidelity == 1.0
        return
    monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("made a generator"))
    with pytest.raises(NetworkError, match=re.escape(
            "a step at d=2 has more than 2^53 outcomes")):
        execute_schedule(schedule, "simulated", d=2, seed=5)


@pytest.mark.parametrize("d, leaves", [(2, k) for k in range(1, 12)]
                         + [(3, k) for k in range(1, 7)])
def test_hubs(d, leaves):
    # the hub and its leaves as terminals: one star merge of the leaves' Bell
    # pairs and a local coin pair, 2 * leaves + 2 input sites and leaves + 1
    # readouts (a lone leaf needs no step)
    net = hub_net(d, leaves)
    schedule = plan(net, list(range(leaves + 1)))
    assert [(s.action, s.local_role) for s in schedule.steps] == (
        [("star-merge", "coin")] if leaves >= 2 else [])
    for shape in step_shapes(schedule):
        k, frame = network._step_law(d, *shape)
        assert k == leaves + 1
        if d ** (2 * leaves + 2) > SIZE_CAP:
            with pytest.raises(NetworkError, match="over the dense cap"):
                execute_schedule(schedule, "simulated", d=d)
            continue
        law = dense_law(d, shape)
        assert law.outcomes == tuple(product(range(d), repeat=k))
        assert np.abs(law.probs - d**-k).max() <= 1e-12
        for values in law.outcomes:
            ref, corr = law.rows[values][0], frame(values).correction()
            assert corr.label == ref.label
            assert abs(corr.global_phase - ref.global_phase) <= 1e-9
