"""Star merges compiled coin by coin against the one stage they split.

``protocols.split_stage`` runs a stage as sub-stages that each read one
target as soon as no later gate touches it, and ``network._step_law``
compiles a star merge from that split: M + 3 live sites at most instead of
2M + 2.  The reference is the one-stage compile of the same
``star_merge_stage``.  For every star-merge shape that the pinned workloads
reach, the split law must list the one-stage law's kept outcomes in the same
order, with joint probabilities and fidelities within 1e-12, equal correction
labels and global phases within 1e-9.
"""

import tracemalloc

import numpy as np
import pytest

from walknet import network
from walknet.network import (
    Resource,
    ResourceNetwork,
    bundled_network_path,
    load_network,
    plan_distribution,
    random_tree_instance,
    steiner_tree,
)
from walknet.protocols import (
    Stage,
    _peak,
    compile_law,
    split_stage,
    star_merge_stage,
)
from walknet.qudit import Basis, canonical_bell, fourier_op, identity_op

TOL = 1e-12


def _net(d, edges):
    n = 1 + max(max(e) for e in edges)
    return ResourceNetwork(d, {v: f"n{v}" for v in range(n)},
                           [Resource("bell", e) for e in edges])


def _schedule(net, terminals):
    return plan_distribution(steiner_tree(net, terminals), net)


def _star_keys(d, schedules):
    """``_step_law``'s key of every star merge in the schedules."""
    keys = {}
    for schedule in schedules:
        parties = {rid: res.parties for rid, res in schedule.initial.items()}
        for step in schedule.steps:
            if step.action == "star-merge":
                keys[(d, *network._shape(step, parties))] = None
            for rid in step.inputs:
                del parties[rid]
            parties[step.output_id] = step.output_parties
    return list(keys)


def _compiled_star_merge(key):
    """(the one star merge stage, the stages and outputs ``_step_law``
    compiles) of one step shape."""
    built, compiled = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "star_merge_stage",
                   lambda *args: built.append(star_merge_stage(*args)) or built[-1])
        mp.setattr(network, "compile_law", lambda stages, outputs: compiled.append(
            (tuple(stages), tuple(outputs))))
        network._step_law.__wrapped__(*key)
    ((stage,), ((stages, outputs),)) = built, compiled
    return stage, stages, outputs


def _assert_split_law_matches(key):
    stage, stages, outputs = _compiled_star_merge(key)
    assert len(stages) == len(stage.targets)  # one per coin, then pos
    _assert_same_law(stage, stages, outputs)


def _assert_same_law(stage, stages, outputs):
    whole, split = compile_law([stage], outputs), compile_law(stages, outputs)
    assert split.outcomes == whole.outcomes
    assert np.abs(split.probs - whole.probs).max() <= TOL
    assert split.rows.keys() == whole.rows.keys()
    for values in whole.outcomes:
        (corr, fid), (ref, ref_fid) = split.rows[values], whole.rows[values]
        assert corr.label == ref.label
        assert abs(corr.global_phase - ref.global_phase) <= 1e-9
        assert abs(fid - ref_fid) <= TOL


def _pinned_schedules(d):
    net14 = load_network(bundled_network_path())
    yield _schedule(net14, [1, 2, 5, 12, 13, 14])
    for seed in range(200):
        net, tree = random_tree_instance(seed, max_nodes=10, max_terminals=4, d=d)
        yield plan_distribution(tree, net)
    yield _schedule(_net(d, [(0, 1), (0, 2)]), [0, 1, 2])
    yield _schedule(_net(d, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]),
                    [1, 2, 3, 4, 5, 6])
    yield _schedule(_net(d, [(0, 1), (1, 2), (2, 3)]), [0, 1, 3])


@pytest.mark.parametrize("d", [2, 3])
def test_network14_random_trees_and_local_pairs(d):
    keys = _star_keys(d, _pinned_schedules(d))
    local_roles = {key[2] for key in keys}
    assert local_roles == {None, "coin", "position"}
    assert max(key[4] for key in keys) >= 2  # some shapes do split
    for key in keys:
        _assert_split_law_matches(key)


@pytest.mark.parametrize("d, leaves", [(2, k) for k in range(1, 12)]
                         + [(3, k) for k in range(1, 7)])
def test_hubs(d, leaves):
    hub = _net(d, [(0, v) for v in range(1, leaves + 1)])
    keys = _star_keys(d, [_schedule(hub, list(range(1, leaves + 1)))])
    assert len(keys) == (leaves >= 3)  # two leaves pair-merge, one releases
    for key in keys:
        _assert_split_law_matches(key)


# ---------------------------------------------------------------------------
# the split itself
# ---------------------------------------------------------------------------

def _bell_star(d, coins):
    """A star merge over ``coins`` Bell coins onto the position pair (pos, far)."""
    bell = canonical_bell(d, 0, 0)
    add = [(bell, ("pos", "far"))] + [(bell, (f"p{k}", f"c{k}")) for k in range(coins)]
    return star_merge_stage(d, [f"c{k}" for k in range(coins)], "pos", "far", add)


@pytest.mark.parametrize("coins", range(1, 9))
def test_star_merge_peaks_at_m_plus_3_sites_split(coins):
    stage = _bell_star(2, coins)
    assert _peak([stage]) == 2 * coins + 2
    assert _peak(split_stage(stage)) == coins + 3


def test_star_merge_reads_each_coin_right_after_its_walk():
    # in the position's Fourier frame: F on pos first, then pos walks onto
    # each coin with the identity coin, each coin read computationally right
    # after its walk and pos last, in the Fourier basis
    stage = _bell_star(3, 3)
    f, i, fix = fourier_op(3), identity_op(3), stage.gates[-1]
    split = split_stage(stage)
    assert [[labels for _, labels in sub.add] for sub in split] == [
        [("pos", "far"), ("p0", "c0")], [("p1", "c1")], [("p2", "c2")], []]
    assert [sub.gates for sub in split] == [
        (("pos", f), ("pos", "c0", i), fix), (("pos", "c1", i),), (("pos", "c2", i),), ()]
    assert [sub.targets for sub in split] == [
        ((c, Basis.COMPUTATIONAL),) for c in ("c0", "c1", "c2")] + [(("pos", Basis.FOURIER),)]


def _pair_merge_and_release():
    """The stages and outputs ``_step_law`` compiles for a pair merge and a
    release."""
    compiled = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "compile_law",
                   lambda stages, outputs: compiled.append((tuple(stages), outputs)))
        network._step_law.__wrapped__(2, "pair-merge", None, -1, 1, ((-1, 0), (-1, 1)))
        network._step_law.__wrapped__(2, "release", None, -1, 1, ((-1, 0, 1),))
    return [(stage, outputs) for (stage,), outputs in compiled]


def test_a_one_target_stage_splits_into_itself():
    (_, _), (release, _) = _pair_merge_and_release()
    one_target = Stage(add=((canonical_bell(3, 0, 0), ("a", "b")),),
                       gates=(("a", fourier_op(3)),), targets=(("b", Basis.FOURIER),))
    for stage in (release, one_target):
        (got,) = split_stage(stage)
        assert (got.add, got.gates, got.targets) == (stage.add, stage.gates, stage.targets)


def test_a_split_pair_merge_compiles_the_same_law():
    # _step_law compiles pair merges as one stage; splitting one is exact too
    (pair, outputs), _ = _pair_merge_and_release()
    stages = split_stage(pair)
    assert [sub.targets for sub in stages] == [(t,) for t in pair.targets]
    _assert_same_law(pair, stages, outputs)


def test_hub_law_compiles_within_a_small_traced_peak():
    # the 10-leaf qubit hub: one star merge of 20 input sites, 13 live split
    net = _net(2, [(0, v) for v in range(1, 11)])
    schedule = _schedule(net, list(range(1, 11)))
    (step,) = schedule.steps
    key = network._shape(step, {rid: res.parties for rid, res in schedule.initial.items()})
    tracemalloc.start()
    try:
        network._step_law.__wrapped__(2, *key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
