"""Dense references and shared builders for the tests; pytest does not collect it.

Each reference runs the paper's circuit densely, through ``run_stages`` or
``DenseRegister`` (a copy of the interpreter that carries every particle as a
site), never through the library rule a test checks against it.
``dense_law``, ``dense_triangle_law``, ``canonical_triangle_branches`` and
``dense_pair_law`` are computed once per argument and returned read-only
(arrays not writeable, rows a ``MappingProxyType``), only through the
bindings this module takes at import, so a test that monkeypatches
``protocols.run_stages`` cannot leave a wrong law here.  ``bench/`` is put
on ``sys.path`` here, for the benchmark grid.
"""

import sys
import warnings
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

import numpy as np
import pytest

from walknet import fractal, network, protocols
from walknet.network import Resource, ResourceNetwork, plan_distribution, steiner_tree
from walknet.protocols import (
    Stage,
    derive_ghz_correction,
    run_stages,
    star_merge_stage,
    triangle_merge_stages,
    walk_step,
)
from walknet.qudit import (
    Basis,
    OperatorMatrix,
    QuditState,
    apply,
    basis_state,
    canonical_bell,
    canonical_ghz,
    fidelity,
    fourier_inv_op,
    fourier_op,
    identity_op,
    measure_all_branches,
    tensor,
)
from walknet.readout import bundled_device_path, load_device_records

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402,F401  (the benchmark grid, for the test modules)

TOL = 1e-9
step_circuit = network._step_circuit


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def bell_net(d, edges):
    """Nodes 0..max, one Bell pair per edge; ``hub_net`` and ``chain_net``
    are its hub 0 with leaves 1..leaves and its relay chain 0..length-1."""
    n = 1 + max(max(e) for e in edges)
    return ResourceNetwork(d, {v: f"n{v}" for v in range(n)},
                           [Resource("bell", e) for e in edges])


def hub_net(d, leaves):
    return bell_net(d, [(0, v) for v in range(1, leaves + 1)])


def chain_net(d, length):
    return bell_net(d, [(v, v + 1) for v in range(length - 1)])


def plan(net, terminals):
    """The merge schedule of the Steiner tree over ``terminals``."""
    return plan_distribution(steiner_tree(net, terminals), net)


def step_shapes(schedule):
    """``network._shape`` of every step of a schedule, in step order."""
    live = {rid: res.parties for rid, res in schedule.initial.items()}
    for step in schedule.steps:
        yield network._shape(step, live)
        for rid in step.inputs:
            del live[rid]
        live[step.output_id] = step.output_parties


def leaves(*args):
    """``protocols._corrected``'s blocks as per-leaf tuples, residuals built."""
    for values, probs, residual, corrs, fids in protocols._corrected(*args):
        for i, leaf in enumerate(zip(values, probs, corrs, fids)):
            yield (*leaf[:2], residual(i), *leaf[2:])


def sampled_generator(monkeypatch, run):
    """``run()``'s result and the state of the one generator it made."""
    made, real = [], np.random.default_rng
    with monkeypatch.context() as mp:
        mp.setattr(np.random, "default_rng", lambda seed: made.append(real(seed)) or made[-1])
        result = run()
    (rng,) = made
    return result, rng.bit_generator.state


def q_matrices(n):
    """The first n bundled device records' transfer matrices, warnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return [r.to_transfer_matrix() for r in load_device_records(bundled_device_path())[:n]]


def random_unitary(dim, rng):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / abs(np.diag(r)))


def random_monomial(d, k, rng, phased=True):
    """A permutation with phases on k sites: (op @ v)[i] = phase[i] v[perm[i]]."""
    mat = np.zeros((d**k, d**k), dtype=complex)
    phases = np.exp(2j * np.pi * rng.random(d**k)) if phased else 1
    mat[np.arange(d**k), rng.permutation(d**k)] = phases
    return OperatorMatrix(d, k, mat)


def forbid_register(monkeypatch):
    """Make ``protocols``' register builders (tensor, apply, measure) fail."""
    for name in ("tensor", "apply", "measure_all_branches"):
        monkeypatch.setattr(protocols, name, lambda *a, _n=name, **kw: pytest.fail(f"ran {_n}"))


def forbid_dense_builds(monkeypatch):
    """Make ``label_shift_op`` and ``canonical_ghz`` fail wherever walknet binds them."""
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "walknet"]:
        for name in ("label_shift_op", "canonical_ghz"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, lambda *a, _n=name: pytest.fail(f"built {_n}"))


# ---------------------------------------------------------------------------
# dense laws
# ---------------------------------------------------------------------------

class DenseLaw(NamedTuple):
    """A circuit's dense law: every kept outcome in outcome order, their
    normalized probabilities and each outcome's (correction, fidelity)."""

    outcomes: tuple
    probs: np.ndarray
    rows: MappingProxyType


def dense_compile(stages, outputs) -> DenseLaw:
    """Run ``stages`` exhaustively and derive every leaf's correction from its
    residual over ``outputs``; each must restore the canonical GHZ."""
    probs, rows = [], {}
    for values, prob, post in run_stages(stages, outputs):
        corr = derive_ghz_correction(post)
        fid = fidelity(corr.apply_to(post), canonical_ghz(post.d, post.n))
        assert fid >= 1 - TOL, (values, fid)
        rows[values] = (corr, fid)
        probs.append(prob)
    p = np.array(probs)
    p /= p.sum()
    p.flags.writeable = False
    return DenseLaw(tuple(rows), p, MappingProxyType(rows))


def step_stage(d, action, add, coins, pos, far):
    """A network step's one stage: a star merge, a pair merge (one identity-coin
    walk) or a release (one Fourier readout)."""
    if action == "star-merge":
        return star_merge_stage(d, coins, pos, far, add)
    if action == "pair-merge":
        return Stage(tuple(add), gates=((coins[0], pos, identity_op(d)),),
                     targets=((coins[0], Basis.FOURIER), (pos, Basis.COMPUTATIONAL)))
    return Stage(tuple(add), targets=((coins[0], Basis.FOURIER),))


def dense_step(d, shape):
    """A step shape's circuit on canonical inputs, as ``network._step_circuit``
    describes it, run densely as one stage: (stages, outputs)."""
    inputs, coins, pos, far, outputs = step_circuit(*shape)
    add = [(canonical_ghz(d, len(labels)), labels) for labels in inputs]
    return [step_stage(d, shape[0], add, coins, pos, far)], outputs


@lru_cache(maxsize=None)
def dense_law(d, shape) -> DenseLaw:
    """The dense law of ``dense_step``: the dense reference of a step's rule."""
    return dense_compile(*dense_step(d, shape))


def one_stage_triangle(d, triples):
    """The triangle merge as one stage: every stage's adds, gates and targets,
    in order, the circuit a merge's one draw samples."""
    stages = triangle_merge_stages(d, triples, qubit=d == 2)
    return [Stage(*(sum((getattr(stage, name) for stage in stages), ())
                    for name in ("add", "gates", "targets")))]


@lru_cache(maxsize=None)
def canonical_triangle_branches(d) -> tuple:
    """``run_stages`` of ``one_stage_triangle`` on canonical GHZ triples, the
    circuit of every gasket merge on unit triangles: (values, probability,
    residual) per kept branch, each residual's amplitudes read-only."""
    branches = tuple(run_stages(one_stage_triangle(d, [canonical_ghz(d, 3)] * 3),
                                ("a", "b", "c")))
    for _, _, post in branches:
        post.amps.flags.writeable = False
    return branches


@lru_cache(maxsize=None)
def dense_triangle_law(d) -> DenseLaw:
    """The dense law of the gasket's triangle merge on canonical GHZ triples."""
    return dense_compile(triangle_merge_stages(d, [canonical_ghz(d, 3)] * 3, qubit=d == 2),
                         ("a", "b", "c"))


def sixth_readout(d, free):
    """The triangle merge's last position readout, fixed by its five free
    ones: u3 = u1 + u2 (mod d), or at d = 2 u6 = 1 + u2 + u4 (mod 2)."""
    return 1 ^ free[3] ^ free[4] if d == 2 else (free[1] + free[4]) % d


def correction_leaves(branches):
    """(values, probability, derived correction) of every kept branch."""
    return [(values, prob, derive_ghz_correction(post)) for values, prob, post in branches]


# ---------------------------------------------------------------------------
# dense runs: sampled steps and merges, secret sharing, the labelled interpreter
# ---------------------------------------------------------------------------

def dense_stage(step, states, d):
    """The step's stage on its inherited states; particles are (resource, slot).
    Returns (stage, outputs)."""
    node_of = {(rid, i): p for rid in step.inputs for i, p in enumerate(states[rid][0])}
    add = [(states[rid][1], tuple((rid, i) for i in range(len(states[rid][0]))))
           for rid in step.inputs]
    local = step.local_pair
    if local is not None:
        add.append((canonical_bell(d, 0, 0), ((local, 0), (local, 1))))
        node_of[(local, 0)] = node_of[(local, 1)] = step.node

    def particle(rid):
        return (rid, states[rid][0].index(step.node))

    coins, pos, far = [particle(rid) for rid in step.coin_inputs], None, None
    if step.local_role == "position":
        pos, far = (local, 0), (local, 1)
    elif step.position_input is not None:
        pos = particle(step.position_input)
        far = (step.position_input, 1 - pos[1])
    if step.local_role == "coin":
        coins.append((local, 0))
    stage = step_stage(d, step.action, add, coins, pos, far)

    read = {lab for lab, _ in stage.targets}
    want, remaining = [], [lab for _, labs in stage.add for lab in labs if lab not in read]
    for party in step.output_parties:
        lab = next(lab for lab in remaining if node_of[lab] == party)
        remaining.remove(lab)
        want.append(lab)
    return stage, tuple(want)


def sampled(branches, rng):
    """The dense sampler: one ``rng.choice`` over the kept branches' probabilities."""
    p = np.array([prob for _, prob, _ in branches])
    return branches[rng.choice(len(branches), p=p / p.sum())]


def dense_execute(schedule, d, seed):
    """Dense run of a schedule: each step's stage runs exhaustively on the
    amplitudes it inherits, one branch is drawn and its derived correction
    applied.  Returns (outcomes with labels, generator state, laws): each
    step's shape and the ``correction_leaves`` of its exhaustive run."""
    rng = np.random.default_rng(seed)
    states = {rid: (res.parties, canonical_bell(d, 0, 0) if res.kind == "bell"
                    else canonical_ghz(d, len(res.parties)))
              for rid, res in schedule.initial.items()}
    trace, laws = [], []
    for step, shape in zip(schedule.steps, step_shapes(schedule)):
        stage, outputs = dense_stage(step, states, d)
        branches = list(run_stages([stage], outputs))
        laws.append((shape, correction_leaves(branches)))
        values, _, state = sampled(branches, rng)
        corr = derive_ghz_correction(state)
        corrected = corr.apply_to(state)
        assert fidelity(corrected, canonical_ghz(d, state.n)) >= 1 - TOL
        for rid in step.inputs:
            del states[rid]
        states[step.output_id] = (step.output_parties, corrected)
        trace.append(([int(v) for v in values], corr.label))
    return trace, rng.bit_generator.state, laws


def dense_gasket(n, d, seed):
    """Dense merge schedule, one draw per merge on its one-stage circuit.
    Returns (correction labels, generator state, laws), where laws holds the
    ``correction_leaves`` of each merge on inherited triangles (level >= 2)."""
    rng, unit = np.random.default_rng(seed), canonical_ghz(d, 3)
    states = dict.fromkeys(fractal.build_gasket(n).triangles, unit)
    labels, laws = [], []
    for step in fractal.merge_schedule(n):
        triples = [states.pop(t) for t in step.inputs]
        branches = (canonical_triangle_branches(d) if all(t is unit for t in triples)
                    else list(run_stages(one_stage_triangle(d, triples), ("a", "b", "c"))))
        if step.level >= 2:
            laws.append(correction_leaves(branches))
        _, _, post = sampled(branches, rng)
        corr = derive_ghz_correction(post)
        states[step.output] = corr.apply_to(post)
        assert fidelity(states[step.output], canonical_ghz(d, 3)) >= 1 - TOL
        labels.append(corr.label)
    return labels, rng.bit_generator.state, laws


def mqss_ghz_circuit(d, m):
    """The secret-sharing GHZ step as a dense circuit: the star merge of the
    dealer's position pair (pos, dealer) with one Bell pair (p_k, coin_k) per
    participant.  (one-stage star merge, outputs)."""
    bell, ks = canonical_bell(d, 0, 0), range(1, m + 1)
    add = [(bell, ("pos", "dealer"))] + [(bell, (f"p{k}", f"coin{k}")) for k in ks]
    stage = star_merge_stage(d, [f"coin{k}" for k in ks], "pos", "dealer", add)
    return stage, tuple(f"p{k}" for k in ks) + ("dealer",)


@lru_cache(maxsize=None)
def dense_pair_law(d, eavesdrop):
    """The channel check run as stage circuits, each readout exhaustively:
    the attacker reads b, the residual and the resent particle are the next
    circuit's resources, then each shared basis twirls the pair and reads it
    (b's Fourier readout is F, then a computational read)."""
    f, bell = fourier_op(d), ((canonical_bell(d, 0, 0), ("a", "b")),)
    inputs = [(1.0, bell)]
    if eavesdrop:
        inputs = []
        for basis in (Basis.COMPUTATIONAL, Basis.FOURIER):
            for (v,), p, rest in run_stages([Stage(add=bell, targets=(("b", basis),))], ("a",)):
                resent = basis_state(d, [v])
                resent = apply(resent, f, [0]) if basis is Basis.FOURIER else resent
                inputs.append((0.5 * p, ((rest, ("a",)), (resent, ("b",)))))
    probs, disagree = [], []
    for weight, add in inputs:
        for shared in (Basis.COMPUTATIONAL, Basis.FOURIER):
            gates = (("a", f), ("b", fourier_inv_op(d)))
            gates += (("b", f),) if shared is Basis.FOURIER else ()
            check = Stage(add=add, gates=gates,
                          targets=(("a", shared), ("b", Basis.COMPUTATIONAL)))
            for (x, y), p, _ in run_stages([check], ()):
                probs.append(0.5 * weight * p)
                disagree.append(x != y)
    law = np.array(probs) / sum(probs), np.array(disagree)
    for array in law:
        array.flags.writeable = False
    return law


class DenseRegister:
    def __init__(self, state, labels):
        assert state.n == len(labels)
        self.state, self.labels = state, tuple(labels)

    def idx(self, label):
        return self.labels.index(label)

    def add(self, state, labels):
        return DenseRegister(tensor(self.state, state), self.labels + tuple(labels))

    def apply(self, op, labels):
        return DenseRegister(apply(self.state, op, [self.idx(x) for x in labels]),
                             self.labels)

    def walk(self, coin, pos, coin_op):
        return DenseRegister(walk_step(self.state, self.idx(coin), self.idx(pos), coin_op),
                             self.labels)

    def measure(self, targets):
        site_targets = [(self.idx(lab), basis) for lab, basis in targets]
        kept = tuple(lab for lab in self.labels if lab not in {t[0] for t in targets})
        block = measure_all_branches(self.state, site_targets)
        posts = [None] * len(block) if block.posts is None else block.posts
        for v, p, post in zip(block.values.tolist(), block.probs.tolist(), posts):
            yield tuple(v), p, (None if post is None
                                else DenseRegister(QuditState(block.d, block.n, post), kept))


def dense_run(stages):
    """(values, probability, ``DenseRegister`` or None) of every branch."""
    def run(stages, values, prob, reg):
        if not stages:
            yield values, prob, reg
            return
        stage = stages[0]
        for state, labels in stage.add:
            reg = DenseRegister(state, labels) if reg is None else reg.add(state, labels)
        for gate in stage.gates:
            reg = reg.walk(*gate) if len(gate) == 3 else reg.apply(gate[1], [gate[0]])
        for vals, p, post in reg.measure(stage.targets):
            yield from run(stages[1:], values + vals, prob * p, post)

    yield from run(tuple(stages), (), 1.0, None)


def dense_apply(state, op, sites):
    """op.mat contracted with the sites' axes of the n-axis tensor."""
    d, n, k = state.d, state.n, len(sites)
    mat = op.mat.reshape([d] * (2 * k))
    out = np.tensordot(mat, state.amps.reshape([d] * n), axes=(list(range(k, 2 * k)), sites))
    return np.moveaxis(out, list(range(k)), sites).reshape(-1)
