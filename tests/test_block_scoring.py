"""Block scoring and the view kernel against the per-leaf paths they replace.

``protocols._corrected`` scores the leaves of a circuit's last stage as one
block, reading each correction's GHZ support entries off the compact rows
through the copy map.  The reference is a test-local copy of the per-leaf
loop: every branch's register expanded to a dense residual over the outputs,
its correction's support gathered and dotted one leaf at a time.  Both must
give the same outcomes in the same order, bitwise-equal probabilities and
residuals, equal corrections and fidelities within 1e-12; the dense law of
a network step (``dense_reference.dense_law``) must give equal outcomes,
probabilities and rows.  ``qudit.apply`` runs
one-site ops on a (before, site, after) view and several-site ops on one axis
per op site and gap; the reference there is a tensordot with the dense
``op.mat``.
"""

import numpy as np
import pytest

from walknet import protocols
from walknet.network import (
    bundled_network_path,
    load_network,
    plan_distribution,
    random_tree_instance,
)
from walknet.protocols import ProtocolKind as K
from walknet.protocols import ProtocolSpec, derive_ghz_correction, run_stages
from walknet.qudit import (
    Basis,
    Branches,
    OperatorMatrix,
    QuditState,
    apply,
    canonical_ghz,
    fourier_inv_op,
    fourier_op,
    label_shift_op,
    measure_all_branches,
    pauli_x,
    pauli_z,
    shift_op,
)

from dense_reference import (
    bell_net,
    chain_net,
    dense_apply,
    dense_law,
    dense_step,
    hub_net,
    leaves,
    plan,
    random_monomial,
    random_unitary,
    step_shapes,
    workloads,
)

TOL = 1e-12


# ---------------------------------------------------------------------------
# the per-leaf reference
# ---------------------------------------------------------------------------

def per_leaf(stages, outputs, closed=None):
    for values, prob, state in run_stages(stages, outputs):
        corr = closed(values) if closed else derive_ghz_correction(state)
        src, phase = protocols._support_map(state.d, state.n, corr.ops)
        ghz = np.full(state.d, 1 / np.sqrt(state.d))
        yield (values, prob, state, corr,
               float(abs(np.vdot(corr.global_phase * phase * state.amps[src], ghz)) ** 2))


def assert_same_leaves(got, want):
    assert [leaf[0] for leaf in got] == [leaf[0] for leaf in want]
    for (_, p, state, corr, fid), (_, q, ref, ref_corr, ref_fid) in zip(got, want):
        assert p == q
        assert state.n == ref.n and np.array_equal(state.amps, ref.amps)
        assert corr.label == ref_corr.label and corr.global_phase == ref_corr.global_phase
        assert abs(fid - ref_fid) <= TOL


SPECS = workloads.protocol_grid(small=True) + [
    ProtocolSpec(K.GHZ_FROM_BELLS_D, d=3, bells=5),
    ProtocolSpec(K.TRIANGLE_MERGE_D, d=5),
    ProtocolSpec(K.GHZ_PARALLEL_D, d=5, m=5, n=4, k=1),
]


@pytest.mark.parametrize("block", range(4))
def test_protocols_score_as_the_per_leaf_loop(block):
    # the dense scorer on every kind, the kinds with a law included; the
    # law's branches and bell labels are checked in test_catalog_laws
    for spec in SPECS[block::4]:
        stages, outputs, closed, _ = protocols.circuit(spec)
        want = list(per_leaf(stages, outputs, closed))
        assert_same_leaves(list(leaves(stages, outputs, closed)), want)


def test_residuals_are_built_on_read(monkeypatch):
    # merge-method-2 has a closed form and idle copies: scoring spreads only
    # the index map, and a branch's amplitudes are spread when post is read;
    # test_protocols_score_as_the_per_leaf_loop checks the posts built so
    # against run_stages' residuals bit for bit
    spreads = []
    spread = protocols._spread
    monkeypatch.setattr(protocols, "_spread", lambda compact, *args: (
        spreads.append(compact.dtype.kind), spread(compact, *args))[1])
    result = protocols.run_protocol(ProtocolSpec(K.MERGE_METHOD_2, m=4, n=3, k=2))
    assert spreads == ["i"] and len(result.branches) > 1
    branch = result.branches[5]
    assert "post" not in vars(branch)
    assert branch.post is branch.post and branch.post.n == 3 and spreads == ["i", "c"]


def test_the_specs_carry_idle_parties_through_the_copy_map():
    # with no copies the gather reads the rows as they are; these specs have some
    def has_copies(spec):
        stages, outputs, _, _ = protocols.circuit(spec)
        return any(copies for *_, copies in protocols._blocks(stages, outputs))

    kinds = {spec.kind for spec in SPECS if has_copies(spec)}
    assert {K.GHZ_PARALLEL_D, K.MERGE_METHOD_1, K.GHZ_MULTI_COIN_D} <= kinds


def test_derived_corrections_score_as_the_per_leaf_loop():
    # no closed form: every leaf's correction is derived from its residual
    for spec in (ProtocolSpec(K.GHZ_PARALLEL_D, d=3, m=4, n=3, k=2),
                 ProtocolSpec(K.MERGE_METHOD_1, m=4, n=3, k=2, retain_coins=True),
                 ProtocolSpec(K.GHZ_MULTI_COIN_D, d=3, m=3, n=4)):
        stages, outputs, _, _ = protocols.circuit(spec)
        assert_same_leaves(list(leaves(stages, outputs)), list(per_leaf(stages, outputs)))


def test_an_index_whose_copies_disagree_reads_zero():
    # a correction that lands the support where the idle copies disagree
    spec = ProtocolSpec(K.GHZ_MULTI_COIN_D, d=3, m=3, n=4)
    stages, outputs, _, _ = protocols.circuit(spec)
    skew = protocols.Frame(3, ((2, 1),), 0).correction()
    got = list(leaves(stages, outputs, lambda v: skew))
    want = list(per_leaf(stages, outputs, lambda v: skew))
    assert_same_leaves(got, want)
    assert max(leaf[-1] for leaf in got) <= TOL


# ---------------------------------------------------------------------------
# compiled laws of the network step circuits
# ---------------------------------------------------------------------------

def _schedules():
    net14 = load_network(bundled_network_path())
    for d in (2, 3):
        yield d, plan(net14, [1, 2, 5, 12, 13, 14])
        for seed in range(0, 40, 4):
            net, tree = random_tree_instance(seed, max_nodes=10, max_terminals=4, d=d)
            yield d, plan_distribution(tree, net)
        yield d, plan(chain_net(d, 6), [0, 5])
        for count in range(1, 7):
            yield d, plan(hub_net(d, count), list(range(1, count + 1)))
        yield d, plan(bell_net(d, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]),
                      [1, 2, 3, 4, 5, 6])
        yield d, plan(bell_net(d, [(0, 1), (1, 2), (2, 3)]), [0, 1, 3])


def test_compiled_laws_match_the_per_leaf_loop():
    # every (d, step shape) the schedules reach, once each
    shapes = {(d, shape): None for d, schedule in _schedules() for shape in step_shapes(schedule)}
    assert len(shapes) >= 10
    for d, shape in shapes:
        law = dense_law(d, shape)
        leaves = list(per_leaf(*dense_step(d, shape)))
        rows = {values: (corr, fid) for values, _, _, corr, fid in leaves}
        p = np.array([prob for _, prob, *_ in leaves])
        assert law.outcomes == tuple(rows)
        assert np.array_equal(law.probs, p / p.sum())
        assert list(law.rows) == list(rows)
        for values, (corr, fid) in rows.items():
            got_corr, got_fid = law.rows[values]
            assert got_corr.label == corr.label and got_corr.global_phase == corr.global_phase
            assert abs(got_fid - fid) <= TOL


# ---------------------------------------------------------------------------
# the block sequence
# ---------------------------------------------------------------------------

def test_measure_all_branches_is_one_block():
    rng = np.random.default_rng(5)
    amps = rng.normal(size=3**4) + 1j * rng.normal(size=3**4)
    state = QuditState(3, 4, amps / np.linalg.norm(amps))
    targets = [(2, Basis.FOURIER), (0, Basis.COMPUTATIONAL)]
    block = measure_all_branches(state, targets)
    assert isinstance(block, Branches)
    assert len(block) == 9 and (block.d, block.n) == (3, 2)
    assert block.values.shape == (9, 2) and block.posts.shape == (9, 9)
    # outcome order, each post normalized; the computational digit reads its slice
    assert block.values.tolist() == [[a, b] for a in range(3) for b in range(3)]
    assert abs(block.probs.sum() - 1) <= TOL
    assert np.allclose(np.linalg.norm(block.posts, axis=1), 1, atol=TOL)
    slices = state.tensor_view().transpose(2, 0, 1, 3).reshape(3, 3, 9)
    fourier = np.einsum("kl,lim->kim", fourier_inv_op(3).mat, slices)
    for (k, v), p, post in zip(block.values.tolist(), block.probs, block.posts):
        assert np.allclose(post * np.sqrt(p), fourier[k, v], atol=TOL)
    every = measure_all_branches(state, [(s, Basis.COMPUTATIONAL) for s in range(4)])
    assert every.posts is None and every.n == 0 and len(every) == 81


# ---------------------------------------------------------------------------
# the view kernel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d, n", [(2, 8), (3, 6), (5, 5), (7, 4)])
def test_apply_matches_the_dense_matrix(d, n):
    rng = np.random.default_rng(d)
    amps = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
    state = QuditState(d, n, amps / np.linalg.norm(amps))
    one = [fourier_op(d), fourier_inv_op(d), pauli_x(d), pauli_z(d),
           label_shift_op(d, 1, d - 1), label_shift_op(d, d - 1, 2 % d),
           OperatorMatrix(d, 1, random_unitary(d, rng)), random_monomial(d, 1, rng)]
    for op in one:
        for s in range(n):
            got = apply(state, op, [s])
            assert np.abs(got.amps - dense_apply(state, op, [s])).max() <= 1e-13
            assert got.amps.flags.c_contiguous
    two = [shift_op(d), OperatorMatrix(d, 2, random_unitary(d * d, rng)),
           random_monomial(d, 2, rng)]
    for op in two:
        for s in range(n):
            for t in range(n):
                if s != t:
                    got = apply(state, op, [s, t])
                    assert np.abs(got.amps - dense_apply(state, op, [s, t])).max() <= 1e-13
    three = [random_monomial(d, 3, rng)] + ([OperatorMatrix(d, 3, random_unitary(d**3, rng))]
                                            if d < 5 else [])
    for op in three:
        for sites in ([0, 2, 1], [n - 1, 0, 2], [1, 2, 3]):
            got = apply(state, op, sites)
            assert np.abs(got.amps - dense_apply(state, op, sites)).max() <= 1e-13


def test_apply_leaves_its_input_unchanged():
    state = canonical_ghz(3, 4)
    for op, sites in ((fourier_op(3), [1]), (pauli_z(3), [3]), (shift_op(3), [3, 0])):
        out = apply(state, op, sites)
        assert not np.shares_memory(out.amps, state.amps)
    assert np.array_equal(state.amps, canonical_ghz(3, 4).amps)
