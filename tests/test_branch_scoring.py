"""Exhaustive branches scored on the GHZ support, against the dense path.

``protocols._corrected`` scores a branch by reading the d residual
amplitudes that its correction maps onto the canonical GHZ support.  The
reference is the dense path it replaced: apply the correction to the whole
residual, then take the fidelity with ``canonical_ghz``, or for a network
step read it off the step's dense law (``dense_reference.dense_law``).
"""

import numpy as np
import pytest

from walknet import protocols
from walknet.protocols import CorrectionOp, ProtocolKind, ProtocolSpec, run_protocol
from walknet.qudit import (
    Basis,
    OperatorMatrix,
    basis_state,
    canonical_ghz,
    fidelity,
    identity_op,
    pauli_x,
)

from dense_reference import (
    dense_law,
    dense_step,
    hub_net,
    leaves,
    plan,
    step_shapes,
    workloads,
)

TOL = 1e-12


def _dense_fidelity(corr, state):
    return fidelity(corr.apply_to(state), canonical_ghz(state.d, state.n))


def test_every_small_grid_branch_scores_as_the_dense_path():
    branches = 0
    for spec in workloads.protocol_grid(small=True):
        for b in run_protocol(spec).branches:
            assert abs(b.fidelity - _dense_fidelity(b.correction, b.post)) <= TOL
            branches += 1
    assert branches == 1516


def test_hub_law_scores_as_the_dense_path():
    # the 11-leaf qubit hub: one star merge, 2,048 derived corrections, each
    # leaf's dense fidelity read off the shape's dense law
    (shape,) = step_shapes(plan(hub_net(2, 11), list(range(1, 12))))
    rows = dense_law(2, shape).rows
    scored = []
    for values, _, _, corr, fid in leaves(*dense_step(2, shape)):
        ref, ref_fid = rows[values]
        assert corr.label == ref.label
        assert abs(fid - ref_fid) <= TOL
        scored.append(values)
    assert len(scored) == 2048


def _monomial(d, perm, phases):
    mat = np.zeros((d, d), dtype=complex)
    mat[np.arange(d), perm] = phases
    return OperatorMatrix(d, 1, mat)


def test_support_map_composes_ops_in_list_order():
    # ops that neither commute nor differ by a phase once reordered, so the
    # score depends on the order they are applied in
    d = 3
    p = _monomial(d, [1, 0, 2], [1, 1j, -1])
    q = _monomial(d, [0, 2, 1], [1j, 1, np.exp(0.3j)])
    corr = CorrectionOp(ops=((0, "P", p), (0, "Q", q), (1, "P", p)), global_phase=1j)
    stages, outputs, _, _ = protocols.circuit(ProtocolSpec(ProtocolKind.GHZ_SWAP_D, d=d))
    fids = []
    for _, _, state, _, fid in leaves(stages, outputs, lambda v: corr):
        assert abs(fid - _dense_fidelity(corr, state)) <= TOL
        fids.append(fid)
    assert max(fids) > 0.1
    # a residual that this correction maps exactly onto the GHZ scores 1
    undo = CorrectionOp(ops=((1, "P", p.dagger()), (0, "Q", q.dagger()), (0, "P", p.dagger())))
    spare = basis_state(d, [0])   # one measured site, so the stage has a target
    stage = protocols.Stage(add=((undo.apply_to(canonical_ghz(d, 3)), ("x", "y", "z")),
                                 (spare, ("s",))), targets=(("s", Basis.COMPUTATIONAL),))
    ((_, _, _, _, fid),) = leaves([stage], ("x", "y", "z"), lambda v: corr)
    assert abs(fid - 1) <= TOL


def test_equal_closed_form_corrections_are_one_object():
    spec = ProtocolSpec(ProtocolKind.GHZ_PARALLEL_D, d=3, m=3, n=3, k=2)
    by_label = {}
    for b in run_protocol(spec).branches:
        by_label.setdefault(b.correction.label, []).append(b.correction)
    assert any(len(group) > 1 for group in by_label.values())
    assert all(c is group[0] for group in by_label.values() for c in group)
    # merge-method-1: outcomes with equal table rows share one correction
    spec = ProtocolSpec(ProtocolKind.MERGE_METHOD_1, m=4, n=3, k=3)
    by_label = {}
    for b in run_protocol(spec).branches:
        by_label.setdefault((b.correction.label, b.correction.global_phase), []).append(
            b.correction)
    assert any(len(group) > 1 for group in by_label.values())
    assert all(c is group[0] for group in by_label.values() for c in group)
    assert protocols.qubit_correction([(0, "X")], -1) is protocols.qubit_correction(
        ((0, "X"),), -1)


def test_identity_coin_applies_the_shift_only(monkeypatch):
    state = canonical_ghz(3, 3)
    calls = []
    real = protocols.apply
    monkeypatch.setattr(protocols, "apply",
                        lambda st, op, sites: calls.append(op) or real(st, op, sites))
    walked = protocols.walk_step(state, 0, 2, identity_op(3))
    assert len(calls) == 1
    ref = real(real(state, identity_op(3), [0]), protocols.shift_op(3), [0, 2])
    assert np.array_equal(walked.amps, ref.amps)
    calls.clear()
    protocols.walk_step(state, 0, 2, OperatorMatrix(3, 1, np.eye(3, dtype=complex)))
    assert len(calls) == 1
    calls.clear()
    protocols.walk_step(canonical_ghz(2, 3), 0, 2, pauli_x(2))
    assert len(calls) == 2
    with pytest.raises(ValueError, match="dimensions differ"):
        protocols.walk_step(state, 0, 2, identity_op(2))
