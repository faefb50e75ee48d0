"""The seeded draw that every sampled path relies on.

``StepLaw.sample`` and ``qudit.sample_branch`` each draw one kept branch with
``rng.choice(len(p), p=p)``.  On numpy 2.4 that call takes one
``rng.random()`` and locates it in the normalized cumulative sum of ``p``.
A sampler that draws the same way without ``choice`` must land on the same
index and leave the generator in the same state; this pins that identity on
the probability arrays the compiled laws draw from, so a numpy release that
changes ``choice`` fails here rather than silently moving seeded outcomes.
A network step draws once, from its law's ``joint`` view.
"""

import numpy as np
import pytest

from walknet import fractal, network
from walknet.network import Resource, ResourceNetwork, plan_distribution, steiner_tree


def _network_step_law(d):
    """The compiled law of the star merge that joins a terminal root's two arms."""
    net = ResourceNetwork(d, {v: f"n{v}" for v in range(3)},
                          [Resource("bell", (0, 1)), Resource("bell", (0, 2))])
    schedule = plan_distribution(steiner_tree(net, [0, 1, 2]), net)
    parties = {rid: res.parties for rid, res in schedule.initial.items()}
    (step,) = schedule.steps
    return network._step_law(d, *network._shape(step, parties))


def _star_merge_law(d):
    """The compiled law of a 3-coin star merge: the hub of four leaves."""
    net = ResourceNetwork(d, {v: f"n{v}" for v in range(5)},
                          [Resource("bell", (0, v)) for v in range(1, 5)])
    schedule = plan_distribution(steiner_tree(net, [1, 2, 3, 4]), net)
    parties = {rid: res.parties for rid, res in schedule.initial.items()}
    (step,) = schedule.steps
    assert len(step.coin_inputs) == 3
    return network._step_law(d, *network._shape(step, parties))


@pytest.mark.parametrize("law", [fractal._merge_law(3), _network_step_law(3),
                                 _star_merge_law(2).joint, _star_merge_law(3).joint],
                         ids=["gasket-merge", "network-step",
                              "star-merge-joint-d2", "star-merge-joint-d3"])
def test_choice_is_one_uniform_located_in_the_cumulative_sum(law):
    arrays = [p for _, p in law.draws.values()]
    assert arrays and all(len(p) > 1 for p in arrays)
    for seed in range(4):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for p in arrays * 8:
            cdf = np.cumsum(p)
            want = np.searchsorted(cdf / cdf[-1], ref.random(), side="right")
            assert rng.choice(len(p), p=p) == want
        assert rng.bit_generator.state == ref.bit_generator.state
