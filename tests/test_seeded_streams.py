"""Golden outputs of the Born-sampled paths.

Every sampled path draws one branch per draw: a network step or a gasket
merge takes the base-d digits of floor(u d^k) from one uniform, where
``rng.choice`` over its one-stage circuit's law lands on these seeds.  These
seeded outcomes must stay byte-identical when the sampler's internals change.
"""

import hashlib

import numpy as np
import pytest

from walknet import fractal, mqss, network, protocols
from walknet.network import (
    bundled_network_path,
    distribute,
    execute_schedule,
    load_network,
    plan_distribution,
    random_tree_instance,
)

from dense_reference import forbid_dense_builds

NETWORK_14 = {
    2: [([0, 0], "I"), ([0, 1], "X@1"), ([1, 0], "Z@0"), ([0, 0, 0, 0], "I"),
        ([0, 0, 1, 0], "X@2 X@3 X@4")],
    3: [([0, 1], "U[0,1]@1"), ([1, 1], "U[0,1]@1 Z^1@0"),
        ([1, 2], "U[0,2]@1 Z^1@0"), ([0, 0, 0, 2], "Z^2@0"),
        ([0, 1, 0, 2], "U[0,1]@1 Z^2@0")],
}


def _trace(result):
    return [(o["outcome"], o["correction"]) for o in result.outcomes]


@pytest.mark.parametrize("d", [2, 3])
def test_network14_outcomes(d):
    net = load_network(bundled_network_path())
    _, _, result = distribute(net, [1, 2, 5, 12, 13, 14], d=d, seed=11)
    assert _trace(result) == NETWORK_14[d]


def test_random_tree_outcomes():
    net, tree = random_tree_instance(2, max_nodes=10, max_terminals=4, d=3)
    result = execute_schedule(plan_distribution(tree, net), d=3, seed=5)
    assert sorted(tree.terminals) == [5, 6, 7, 8]
    assert [o["action"] for o in result.outcomes] == ["pair-merge"] * 4 + ["star-merge"]
    assert _trace(result) == [
        ([2, 1], "U[0,1]@1 Z^2@0"), ([2, 1], "U[0,1]@1 Z^2@0"),
        ([1, 1], "U[0,1]@1 Z^1@0"), ([0, 2], "U[0,2]@1"),
        ([0, 0, 1, 1], "U[0,1]@2 Z^1@0")]


def test_gasket_merge_corrections():
    result = fractal.execute_merge_schedule(2, d=3, seed=4)
    assert result.fidelity >= 1 - 1e-9
    assert result.corrections == ["U[0,2]@1 U[0,2]@2 Z^1@0", "U[0,1]@1 U[0,2]@2 Z^1@0",
                                  "U[0,2]@1 Z^2@0", "U[0,2]@2 Z^2@0"]


GASKET_DIGESTS = {
    2: "cb795eaf6c50eb1c43256721d902e41e5c81b54d0ef922f98adc3642faecf752",
    3: "a7e203651c60cf0363689cd79f5a22715d4f9df8b312be463dda1bcea9e51a71",
    4: "a551658d4291e77f1dfea0a943567d9c71afb86455599675c257c65ee16719ee",
    5: "27fca0c4f58c4bf92316df4544df6b4678c0308f6957c2261b86f5dc5668b992"}


@pytest.mark.parametrize("d, digest", GASKET_DIGESTS.items())
def test_gasket_schedule_corrections_are_pinned(d, digest):
    # 364 merges, one uniform each; the d = 2 stream predates the one-draw rule
    corrections = fractal.execute_merge_schedule(6, d, seed=d).corrections
    assert hashlib.sha256("\n".join(corrections).encode()).hexdigest() == digest


def test_network_and_gasket_paths_build_no_operator_or_state(monkeypatch):
    # labels are read off frames: with every cached law and label dropped, no
    # path may build a label_shift_op matrix or a GHZ state, and the pins hold
    for cached in (network._step_law, network._affine_law, protocols.triangle_merge_rule,
                   protocols.Law.label, protocols.Frame.correction):
        cached.cache_clear()
    forbid_dense_builds(monkeypatch)
    net = load_network(bundled_network_path())
    for d in (2, 3):
        _, _, result = distribute(net, [1, 2, 5, 12, 13, 14], d=d, seed=11)
        assert _trace(result) == NETWORK_14[d]
    corrections = fractal.execute_merge_schedule(6, 3, seed=3).corrections
    assert hashlib.sha256("\n".join(corrections).encode()).hexdigest() == GASKET_DIGESTS[3]
    for d in (161, 1552):
        law = protocols.triangle_merge_rule(d, False)
        k, frame = law
        uniforms = np.random.default_rng(d).random(364).tolist()
        assert fractal.execute_merge_schedule(6, d, seed=d).corrections == [
            frame(law.outcome(int(u * d**k))).label
            for u in uniforms]


@pytest.mark.parametrize("seed, coins, u0", [
    (0, [1, 0, 0, 0], 2), (1, [1, 2, 0, 2], 0), (2, [0, 0, 2, 0], 1)])
def test_shared_ghz_outcomes(seed, coins, u0):
    state, got_coins, got_u0 = mqss.generate_shared_ghz(3, 4, seed=seed)
    assert (got_coins, got_u0) == (coins, u0)
    assert all(type(v) is int for v in got_coins + [got_u0])
    expected = mqss.shared_ghz_closed_form(3, coins, u0)
    assert abs(abs(complex(expected.amps.conj() @ state.amps)) - 1) < 1e-9
