"""The inverse Fourier on a star merge's far particle, written as a gate.

No one measures the far particle of the position pair, so its inverse
Fourier commutes with the readouts.  ``star_merge_stage`` writes it as an
ordinary gate, run once before the readouts.  The reference here runs only
the stage's walks, reads every branch with ``measure_all_branches`` and then
applies the inverse Fourier to each post-state.  Both must give the same
values in the same order, the same probabilities and the same post
amplitudes.
"""

import numpy as np
import pytest

from walknet import network, protocols
from walknet.protocols import ProtocolKind, ProtocolSpec, run_stages
from walknet.qudit import QuditState, apply, fourier_inv_op, measure_all_branches, tensor

from dense_reference import bell_net, dense_step, plan, step_shapes

TOL = 1e-12


def _measure_then_apply(stage, far):
    """(values, probability, post amplitudes) per branch, and the kept labels."""
    state, labels = None, ()
    for st, labs in stage.add:
        state = st if state is None else tensor(state, st)
        labels += tuple(labs)
    for gate in stage.gates:
        if len(gate) == 3:  # the walks; the gate on ``far`` runs after the readouts
            coin, pos, op = gate
            state = protocols.walk_step(state, labels.index(coin), labels.index(pos), op)
    measured = {lab for lab, _ in stage.targets}
    kept = tuple(lab for lab in labels if lab not in measured)
    targets = [(labels.index(lab), basis) for lab, basis in stage.targets]
    finv, block = fourier_inv_op(state.d), measure_all_branches(state, targets)
    return kept, [(tuple(v), p, apply(QuditState(block.d, block.n, post), finv,
                                      [kept.index(far)]).amps)
                  for v, p, post in zip(block.values.tolist(), block.probs.tolist(), block.posts)]


def _assert_folded_gate_matches(stage, far):
    kept, want = _measure_then_apply(stage, far)
    got = list(run_stages([stage], kept))
    assert [v for v, _, _ in got] == [v for v, _, _ in want]
    for (_, p, post), (_, q, ref) in zip(got, want):
        assert abs(p - q) <= TOL
        assert post.n == len(kept)
        assert np.abs(post.amps - ref).max() <= TOL


@pytest.mark.parametrize("d, bells", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
                                      (5, 1), (5, 2)])
def test_from_bells(d, bells):
    (stage,), outputs, _, _ = protocols.circuit(
        ProtocolSpec(ProtocolKind.GHZ_FROM_BELLS_D, d=d, bells=bells))
    _assert_folded_gate_matches(stage, outputs[-1])


def _star_merges(d, edges, terminals):
    """(local role, one-stage dense circuit, far) of every star merge that
    the schedule reaches, built on canonical inputs (``dense_step``)."""
    return [(shape[1], dense_step(d, shape)[0][0], network._step_circuit(*shape)[3])
            for shape in step_shapes(plan(bell_net(d, edges), terminals))
            if shape[0] == "star-merge"]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("edges, terminals, role", [
    # a terminal root merges its children with a local coin pair
    ([(0, 1), (0, 2)], [0, 1, 2], "coin"),
    # GHZ-only children force a local position pair
    ([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)], [1, 2, 3, 4, 5, 6], "position"),
    # a plain hub: the position is one of the inputs
    ([(0, 1), (0, 2), (0, 3)], [1, 2, 3], None),
])
def test_network_star_merges(d, edges, terminals, role):
    merges = _star_merges(d, edges, terminals)
    assert role in [r for r, _, _ in merges]
    for _, stage, far in merges:
        _assert_folded_gate_matches(stage, far)
