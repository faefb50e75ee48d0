"""Split star merges run in the position's Fourier frame.

``protocols.split_stage`` rewrites a star merge before splitting it: per coin,
F_c^dag S(c -> p) F_c = F_p^dag S(p -> c) F_p, so the coins' Fourier coins
and Fourier readouts become one F on ``pos``, identity-coin walks from ``pos``
onto each coin, computational coin readouts and one Fourier readout of
``pos``.  The reference is the paper-form one-stage ``star_merge_stage`` run
by ``run_stages``: the framed split run must give the same values in the same
order, probabilities within 1e-12 and residual amplitudes within 1e-12.  Any
stage that is not such a star merge passes through the rewrite unchanged.

The secret-sharing GHZ step draws from the closed-form law of this circuit
(``mqss.generate_shared_ghz``): every (q~_1, ..., q~_M, u0) in product order,
each at probability d^-(M+1), with residual ``shared_ghz_closed_form``.  The
paper circuit, built here as the session's step 3, is the reference that law
is checked against.
"""

from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from walknet import mqss, network
from walknet.network import Resource, ResourceNetwork, plan_distribution, steiner_tree
from walknet.protocols import (
    ProtocolKind,
    ProtocolSpec,
    _circuit,
    _fourier_frame,
    run_stages,
    split_stage,
    star_merge_stage,
    triangle_merge_stages,
)
from walknet.qudit import Basis, canonical_bell, canonical_ghz, identity_op

TOL = 1e-12


def _built(module, build):
    """(the one-stage star merge ``module`` builds, the stages and outputs it
    runs) while ``build()`` runs, through a spy on ``star_merge_stage``."""
    stars = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "star_merge_stage",
                   lambda *args: stars.append(star_merge_stage(*args)) or stars[-1])
        stages, outputs = build()
    (stage,) = stars
    return stage, tuple(stages), tuple(outputs)


def _assert_framed_split_matches(stage, stages, outputs):
    assert len(stages) == len(stage.targets)  # one sub-stage per target
    assert stages[-1].targets[0][1] is Basis.FOURIER  # pos, framed
    want, got = list(run_stages([stage], outputs)), list(run_stages(stages, outputs))
    assert [v for v, _, _ in got] == [v for v, _, _ in want]
    for (_, p, post), (_, q, ref) in zip(got, want):
        assert abs(p - q) <= TOL
        assert np.abs(post.amps - ref.amps).max() <= TOL


def ghz_circuit(d, m):
    """The secret-sharing GHZ step as a dense circuit: the star merge of the
    dealer's position pair (pos, dealer) with one Bell pair (p_k, coin_k) per
    participant.  (one-stage star merge, its split stages, outputs)."""
    bell, ks = canonical_bell(d, 0, 0), range(1, m + 1)
    add = [(bell, ("pos", "dealer"))] + [(bell, (f"p{k}", f"coin{k}")) for k in ks]
    stage = star_merge_stage(d, [f"coin{k}" for k in ks], "pos", "dealer", add)
    return stage, split_stage(stage), tuple(f"p{k}" for k in ks) + ("dealer",)


MQSS_SHAPES = [(d, m) for d in range(2, 17) for m in range(1, 8) if d ** (2 * m + 2) <= 2**16]


@pytest.mark.parametrize("d, m", MQSS_SHAPES)
def test_mqss_circuit(d, m):
    stage, stages, outputs = ghz_circuit(d, m)
    _assert_framed_split_matches(stage, stages, outputs)
    dense = list(run_stages([stage], outputs))
    assert [v for v, _, _ in dense] == list(product(range(d), repeat=m + 1))
    for (*coins, u0), p, post in dense:
        assert abs(p - d ** -(m + 1)) <= TOL
        closed = mqss.shared_ghz_closed_form(d, coins, u0)
        assert np.abs(post.amps - closed.amps).max() <= TOL


def _network_star_merges(d, edges, terminals):
    """(local role, (stage, stages, outputs)) of every star merge that the
    schedule's step laws compile."""
    net = ResourceNetwork(d, {v: f"n{v}" for v in range(1 + max(map(max, edges)))},
                          [Resource("bell", e) for e in edges])
    schedule = plan_distribution(steiner_tree(net, terminals), net)
    live = {rid: res.parties for rid, res in schedule.initial.items()}
    merges = []
    for step in schedule.steps:
        key = network._shape(step, live)
        live[step.output_id] = step.output_parties
        if step.action == "star-merge":
            compiled = []

            def build():
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(network, "compile_law",
                               lambda stages, outputs: compiled.append((stages, outputs)))
                    network._step_law.__wrapped__(d, *key)  # uncached: the spies see it
                return compiled[0]
            merges.append((step.local_role, _built(network, build)))
    return merges


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("edges, terminals, role", [
    ([(0, 1), (0, 2)], [0, 1, 2], "coin"),
    ([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)], [1, 2, 3, 4, 5, 6], "position"),
    ([(0, 1), (0, 2), (0, 3)], [1, 2, 3], None),
])
def test_network_star_merges(d, edges, terminals, role):
    merges = _network_star_merges(d, edges, terminals)
    assert role in [r for r, _ in merges]
    for _, built in merges:
        _assert_framed_split_matches(*built)


def _bell_star(d, coins):
    bell = canonical_bell(d, 0, 0)
    add = [(bell, ("pos", "far"))] + [(bell, (f"p{k}", f"c{k}")) for k in range(coins)]
    return star_merge_stage(d, [f"c{k}" for k in range(coins)], "pos", "far", add)


def _pair_merge_and_release():
    compiled = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "compile_law",
                   lambda stages, outputs: compiled.append(stages))
        network._step_law.__wrapped__(3, "pair-merge", None, -1, 1, ((-1, 0), (-1, 1)))
        network._step_law.__wrapped__(3, "release", None, -1, 1, ((-1, 0, 1),))
    return [stage for (stage,) in compiled]


def _not_star_merges():
    ghz = [canonical_ghz(3, 3)] * 3
    star = _bell_star(3, 2)
    computational_coin = replace(star, targets=(("c0", Basis.COMPUTATIONAL),) + star.targets[1:])
    identity_coin = replace(star, gates=(("c0", "pos", identity_op(3)),) + star.gates[1:])
    ghz_swap_2d = _circuit(ProtocolSpec(ProtocolKind.GHZ_SWAP_2D))[0][0]  # coins X and H
    return (_pair_merge_and_release() + list(triangle_merge_stages(3, ghz, qubit=False))
            + list(triangle_merge_stages(2, [canonical_ghz(2, 3)] * 3, qubit=True))
            + [computational_coin, identity_coin, ghz_swap_2d])


@pytest.mark.parametrize("stage", _not_star_merges())
def test_other_stages_pass_through(stage):
    assert _fourier_frame(stage) is stage
