"""Representative sites against the fully dense interpreter.

``run_stages`` carries the idle parties of each canonical GHZ input as one
representative site and expands them through the copy isometry only in the
residuals it yields over the named outputs.  The reference is a test-local
copy of the dense interpreter, which carries every particle as a site
(``dense_reference.dense_run``): for each circuit both runs must yield the
same values in the same order, probabilities and post amplitudes within
1e-12, and the same output labels in the same order.
"""

import numpy as np
import pytest

from walknet import network, protocols
from walknet.network import NetworkError, bundled_network_path, load_network
from walknet.protocols import ProtocolKind as K
from walknet.protocols import ProtocolSpec, Stage, run_stages
from walknet.qudit import (
    Basis,
    SIZE_CAP,
    QuditState,
    apply,
    canonical_bell,
    canonical_ghz,
    fourier_inv_op,
    fourier_op,
    label_shift_op,
    pauli_x,
)

from dense_reference import dense_run, dense_step, step_shapes, workloads

TOL = 1e-12


# ---------------------------------------------------------------------------
# the two interpreters
# ---------------------------------------------------------------------------

def unread(stages):
    """The particles no target reads, in the dense run's order."""
    read = {lab for stage in stages for lab, _ in stage.targets}
    return tuple(lab for stage in stages for _, labels in stage.add
                 for lab in labels if lab not in read)


def assert_same_run(stages):
    """Compare the two interpreters on ``stages``, over the dense run's output
    order; return (post, compact sites, copy map) per branch."""
    outputs = unread(stages)
    got = list(run_stages(stages, outputs))
    want = list(dense_run(stages))
    assert [v for v, _, _ in got] == [v for v, _, _ in want]
    for (_, p, post), (_, q, ref) in zip(got, want):
        assert abs(p - q) <= TOL
        if ref is None:
            assert post is None
            continue
        assert outputs == ref.labels
        assert np.abs(post.amps - ref.state.amps).max() <= TOL
    layouts = [(sites, copies) for *_, block, sites, copies
               in protocols._blocks(stages, outputs) for _ in range(len(block))]
    return [(post, *layout) for (_, _, post), layout in zip(got, layouts, strict=True)]


def collapsed(runs) -> bool:
    return any(post is not None and len(sites) < post.n for post, sites, _ in runs)


# ---------------------------------------------------------------------------
# the protocol catalog
# ---------------------------------------------------------------------------

def _stages(spec):
    return protocols.circuit(spec)[0]


GRID = workloads.protocol_grid(small=True)


@pytest.mark.parametrize("block", range(4))
def test_protocol_grid(block):
    for spec in GRID[block::4]:
        assert_same_run(_stages(spec))


def test_grid_collapses_the_idle_ghz_parties():
    kinds = {spec.kind for spec in GRID if collapsed(assert_same_run(_stages(spec)))}
    assert {K.GHZ_SWAP_2D, K.GHZ_SWAP_D, K.MERGE_METHOD_1, K.GHZ_MULTI_COIN_D} <= kinds
    assert not kinds & {K.BELL_SWAP_2D, K.BELL_SWAP_D, K.GHZ_FROM_BELLS_D,
                        K.TRIANGLE_MERGE_2D, K.TRIANGLE_MERGE_D}


@pytest.mark.parametrize("spec", [
    ProtocolSpec(K.GHZ_MULTI_COIN_D, d=5, m=5, n=4),
    ProtocolSpec(K.GHZ_PARALLEL_D, d=5, m=4, n=5, k=3),
    ProtocolSpec(K.GHZ_PARALLEL_D, d=5, m=5, n=4, k=2, retain_coins=True),
], ids=str)
def test_nine_site_d5_merges(spec):
    assert collapsed(assert_same_run(_stages(spec)))


# ---------------------------------------------------------------------------
# network step laws
# ---------------------------------------------------------------------------

def _network14_stages(d):
    """The one-stage dense circuit (``dense_step``) of every step shape the
    14-node network reaches under the cap."""
    net = load_network(bundled_network_path())
    rng = np.random.default_rng(d)
    nodes = sorted(net.nodes)
    terminal_sets = [[1, 2, 5, 12, 13, 14]] + [
        sorted(int(v) for v in rng.choice(nodes, size=k, replace=False))
        for k in (2, 3, 4, 5, 6, 8, 10, 14) for _ in range(3)]
    seen = {}
    for terminals in terminal_sets:
        try:
            schedule = network.plan_distribution(network.steiner_tree(net, terminals), net)
        except NetworkError:
            continue
        for shape in step_shapes(schedule):
            inputs = network._step_circuit(*shape)[0]
            if d ** sum(map(len, inputs)) <= SIZE_CAP:   # a schedule with a larger step is refused
                seen[shape] = None
    return [dense_step(d, shape)[0] for shape in seen]


@pytest.mark.parametrize("d", [2, 3])
def test_network14_step_laws(d):
    shapes = _network14_stages(d)
    assert len(shapes) >= 5
    runs = [assert_same_run(stages) for stages in shapes]
    assert any(collapsed(r) for r in runs)


# ---------------------------------------------------------------------------
# guard cases
# ---------------------------------------------------------------------------

def test_phased_and_shifted_ghz_stay_dense():
    d = 3
    ghz = canonical_ghz(d, 4)
    phased = apply(ghz, label_shift_op(d, 1, 0), [2])
    shifted = apply(ghz, label_shift_op(d, 0, 2), [3])
    for state in (phased, shifted):
        stage = Stage(add=((state, ("a1", "a2", "a3", "a4")), (canonical_ghz(d, 3), ("b1", "b2", "b3"))),
                      gates=(("a1", "b1", fourier_op(d)),),
                      targets=(("a1", Basis.FOURIER), ("b1", Basis.COMPUTATIONAL)))
        runs = assert_same_run((stage,))
        # the canonical b triple collapses, the altered a quadruple does not
        assert all(len(sites) == post.n - 1 for post, sites, _ in runs)


def test_labelled_bell_pair_stays_dense():
    stage = Stage(add=((canonical_bell(3, 1, 2), ("x", "y")),),
                  targets=(("x", Basis.FOURIER),))
    assert not collapsed(assert_same_run((stage,)))


def test_idle_parties_apart_come_back_in_dense_order():
    d = 3
    stage = Stage(add=((canonical_ghz(d, 3), ("a1", "a2", "a3")),
                       (canonical_ghz(d, 2), ("b1", "b2"))),
                  gates=(("a2", "b1", fourier_op(d)),),
                  targets=(("a2", Basis.FOURIER), ("b1", Basis.COMPUTATIONAL)))
    runs = assert_same_run((stage,))
    assert collapsed(runs)
    assert unread((stage,)) == ("a1", "a3", "b2")
    (_, _, reordered), *_ = run_stages((stage,), ["b2", "a3", "a1"])
    ref = np.moveaxis(runs[0][0].tensor_view(), [2, 1, 0], [0, 1, 2]).reshape(-1)
    assert np.array_equal(reordered.amps, ref)


def test_untouched_resource_rides_as_one_site():
    d = 2
    stage = Stage(add=((canonical_bell(d, 0, 0), ("p", "q")),
                       (canonical_ghz(d, 3), ("x1", "x2", "x3"))),
                  gates=(("p", pauli_x(d)),), targets=(("q", Basis.COMPUTATIONAL),))
    runs = assert_same_run((stage,))
    assert unread((stage,)) == ("p", "x1", "x2", "x3")
    assert all(len(sites) == 2 and post.n == 4 for post, sites, _ in runs)
    assert isinstance(runs[0][0], QuditState)


def test_after_ops_touch_their_party():
    # a gate on a representative site would act on every party it stands for
    stage = Stage(add=((canonical_ghz(3, 4), ("a1", "a2", "a3", "a4")),),
                  gates=(("a2", fourier_inv_op(3)),), targets=(("a1", Basis.FOURIER),))
    runs = assert_same_run((stage,))
    assert all(len(sites) == 2 and copies == {"a3": ("a3", "a4")} for _, sites, copies in runs)


@pytest.mark.parametrize("spec, branches", [
    (ProtocolSpec(K.GHZ_MULTI_COIN_D, d=5, m=5, n=5), 25),
    (ProtocolSpec(K.GHZ_MULTI_COIN_D, d=7, m=4, n=4), 49),
    (ProtocolSpec(K.MERGE_METHOD_1, m=12, n=12, k=1), 4),
    (ProtocolSpec(K.GHZ_MULTI_COIN_D, d=2, m=3, n=21), 4),
], ids=["multicoin-d5-5x5", "multicoin-d7-4x4", "merge1-12x12", "multicoin-d2-3x21"])
def test_the_size_cap_counts_the_built_register(spec, branches):
    # counting every party, each is over the cap (5^10, 7^8, 2^24 and 2^24
    # amplitudes); what is built fits: the compact register peaks at 5^7, 7^6,
    # 2^4 and 2^5 amplitudes, the residual over the outputs at 5^5, 7^4, 2^22 and 2^21
    result = protocols.run_protocol(spec)
    assert len(result.branches) == branches
    assert abs(result.total_probability - 1) <= 1e-9
    for b in result.branches:
        assert b.fidelity >= 1 - 1e-9
        # post's overlap with canonical_ghz once corrected, read off its d
        # support indices; built afresh, so no branch keeps its 2^22 amplitudes
        corrected = b.correction.apply_to(b.residual())
        support = np.arange(spec.d) * ((spec.d**corrected.n - 1) // (spec.d - 1))
        assert abs(corrected.amps[support].sum()) ** 2 / spec.d >= 1 - 1e-9


def test_a_fresh_copy_of_the_canonical_ghz_collapses_too():
    # the match is by value: a writable copy of the cached, read-only state
    d = 3
    fresh = QuditState(d, 4, canonical_ghz(d, 4).amps.copy())
    assert fresh.amps.flags.writeable and fresh is not canonical_ghz(d, 4)
    stage = Stage(add=((fresh, ("a1", "a2", "a3", "a4")),),
                  targets=(("a1", Basis.FOURIER),))
    runs = assert_same_run((stage,))
    assert all(len(sites) == 1 and copies == {"a2": ("a2", "a3", "a4")}
               for _, sites, copies in runs)
