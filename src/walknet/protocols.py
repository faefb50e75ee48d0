"""Entanglement-swapping and GHZ-merging protocols built on coined quantum walks.

Every protocol here consumes two or more entangled resources whose particles
meet at a middle location, runs one or more coined-walk steps there (a local
coin unitary followed by the conditional shift), measures the walked particles
in prescribed bases, and leaves the remaining particles in an entangled state
that a local correction maps back to a canonical Bell or GHZ state.

Protocol catalog and site conventions
-------------------------------------
Particles keep the 1-based labels used throughout this package's docs; state
site order is always the initial product order, and the output state keeps the
unmeasured particles in that same relative order.

bell-swap-2d      particles 1..4 = Bell(1,2) x Bell(3,4); one walk, coin X on
                  2, shift 2->3; measure 2 in the Fourier (+/-) basis, 3
                  computationally; output (1,4).
ghz-swap-2d       particles 1..6 = GHZ(1,2,3) x GHZ(4,5,6); coins X on 2 and
                  H on 3, both shifting onto 4; measure 2 Fourier, 3 and 4
                  computationally; output (1,5,6).
merge-method-1    GHZ(a1..am) x GHZ(b1..bn); k coins a1..ak (X then H's), all
                  shifting onto b1; measure a1 Fourier, a2..ak and b1
                  computationally; output (a_{k+1}..a_m, b2..bn).  With
                  retain_coins=True, a1 stays unmeasured and joins the output.
merge-method-2    k parallel single-coin walks a_i -> b_i with coin X;
                  measure a1..ak Fourier and b1..bk computationally; output
                  (a_{k+1}.., b_{k+1}..).  retain_coins=True skips the a
                  measurements.
merge-combined    method 2 on pairs (a_i,b_i), i < l, and method 1 with coins
                  a_l..a_k onto b_l; outcome order is a1..ak then b1..bl.
bell-swap-d       generalized Bell labels ((m,n),(p,q)); one walk with coin I
                  on 2, shift 2->3; Fourier result k0 on 2 and value u0 on 3
                  leave (1,4) in the Bell state labeled (m+p-k0, n+q-u0).
ghz-parallel-d    d-dim version of method 2 with coin I; the position results
                  agree on a single value u0 on every nonzero branch.
ghz-swap-d        two qudit GHZ triples; coins F on 2 and 3 shifting onto 4,
                  then inverse Fourier on 1; measure 2,3 Fourier (results
                  always coincide) and 4 computationally; output (1,5,6).
ghz-multi-coin-d  coins F on a2..am shifting onto b1, inverse Fourier on a1;
                  output (a1, b2..bn).
ghz-from-bells-d  bells+1 Bell pairs (2k-1,2k); pair k's particle 2k is the
                  k-th coin (F), particle 2*bells+1 is the shared position;
                  inverse Fourier on 2*bells+2, which no one measures;
                  output (1,3,...,2*bells-1, 2*bells+2).
triangle-merge-2d three qubit GHZ triples (a,q1,q6),(q2,b,q3),(q4,q5,c);
                  coin-X walks q1->q2, q3->q4, q5->q6; measure q1,q3,q5
                  Fourier and q2,q4,q6 computationally; output (a,b,c).
triangle-merge-d  same triple layout; coin-I walk q1->q2 measured first
                  (results p1,u1), then coin-I walks q4->q3 and q5->q6
                  measured (p2,p3,u2,u3); the position values satisfy
                  u1 + u2 = u3 (mod d) on every nonzero branch; output (a,b,c).
                  The gasket merges in ``fractal`` run these same stages, in
                  the same triple layout, on their stored triangle states.

Circuits as data
----------------
A circuit is a tuple of ``Stage`` records (resources to add, walks and
single-site gates, measurement targets) plus its output particles, which the
caller names up front.  ``circuit(spec)`` writes each catalog kind once:
its stages, outputs, correction rule (None where each correction is derived
from the residual) and law (None where it runs densely).
``run_stages(stages, outputs)`` plans it before adding a resource (``outputs``
are the unread particles; the size cap counts the compacted register and
residual), then runs it exhaustively and yields each branch's residual over
``outputs``, in that order.  A network step, the secret-sharing GHZ step and
seven catalog kinds (the qudit swaps and merges, GHZ-from-Bell-pairs and both
triangle merges) are qudit Clifford circuits on canonical inputs, so their
laws are read off the circuit (``network``, ``mqss``, ``circuit``): d^k
equally likely outcomes, drawn as digits of floor(u d^k) (``draw``) or
enumerated in product order, and a Weyl correction, a ``Frame`` whose label is
read with no operator built.  Those seven are compiled once per circuit
shape, the spec with its Bell labels zeroed, into a ``LawTable`` kept in one
bounded cache: the circuit planned once (a refused shape is not kept), its
readouts and outputs, and each outcome, in product order, with its index into
the distinct corrections and its residual phase.  ``run_protocol`` reads the
table and builds no register; a Bell label moves only bell-swap-d's
correction and residual phase.  It runs the five qubit-table and derived
kinds densely and scores a last stage's branches as one block.  The gasket
merges in ``fractal`` draw from the triangle merge's law
(``triangle_merge_rule``).  The circuits keep the paper's reported bases;
``star_merge_stage`` writes the qudit swap, multi-coin and from-bells star
merges.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property, lru_cache, partial
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from .qudit import (
    Basis,
    OperatorMatrix,
    QuditState,
    apply,
    as_dim,
    as_int,
    canonical_bell,
    canonical_ghz,
    check_cap,
    fourier_inv_op,
    fourier_op,
    identity_op,
    label_shift_op,
    measure_all_branches,
    pauli_x,
    pauli_z,
    shift_op,
    tensor,
)

FIDELITY_TOL = 1e-9
SUPPORT_TOL = 1e-8  # amplitude and phase tolerance of derive_ghz_correction


class ProtocolKind(Enum):
    BELL_SWAP_2D = "bell-swap-2d"
    GHZ_SWAP_2D = "ghz-swap-2d"
    MERGE_METHOD_1 = "merge-method-1"
    MERGE_METHOD_2 = "merge-method-2"
    MERGE_COMBINED = "merge-combined"
    BELL_SWAP_D = "bell-swap-d"
    GHZ_PARALLEL_D = "ghz-parallel-d"
    GHZ_SWAP_D = "ghz-swap-d"
    GHZ_MULTI_COIN_D = "ghz-multi-coin-d"
    GHZ_FROM_BELLS_D = "ghz-from-bells-d"
    TRIANGLE_MERGE_2D = "triangle-merge-2d"
    TRIANGLE_MERGE_D = "triangle-merge-d"


@dataclass(frozen=True)
class ProtocolSpec:
    """Parameter bundle selecting one protocol instance.

    m, n are input GHZ party counts, k the coin count (method 1/2/parallel),
    l the method-2 share of the combined merge, bells the number of
    coin-carrying Bell pairs, bell_labels = (m, n, p, q) the generalized Bell
    labels for bell-swap-d, retain_coins the keep-the-coin-sites variant of
    the two merge methods.
    """

    kind: ProtocolKind
    d: int = 2
    m: int = 0
    n: int = 0
    k: int = 0
    l: int = 0
    bells: int = 0
    bell_labels: tuple[int, int, int, int] = (0, 0, 0, 0)
    retain_coins: bool = False

    def validate(self) -> None:
        kd, K, m, n, k, l = self.kind, ProtocolKind, self.m, self.n, self.k, self.l
        if not isinstance(self.bell_labels, (tuple, list)) or len(self.bell_labels) != 4:
            raise ValueError(f"bell_labels {self.bell_labels!r} are not four integers")
        if not isinstance(self.retain_coins, (bool, np.bool_)):
            raise ValueError(f"retain_coins {self.retain_coins!r} is not a bool")
        as_dim(self.d)
        counts = [(name, getattr(self, name)) for name in ("m", "n", "k", "l", "bells")]
        for name, value in counts + [("bell label", x) for x in self.bell_labels]:
            as_int(value, name)
        if self.d != 2 and kd in (K.BELL_SWAP_2D, K.GHZ_SWAP_2D, K.MERGE_METHOD_1,
                                  K.MERGE_METHOD_2, K.MERGE_COMBINED, K.TRIANGLE_MERGE_2D):
            raise ValueError(f"{kd.value} is defined for d=2 only")
        if kd is K.MERGE_METHOD_1 and (m < 2 or n < 2 or not 1 <= k <= m - 1):
            raise ValueError("method 1 needs m,n >= 2 and 1 <= k <= m-1")
        if kd in (K.MERGE_METHOD_2, K.GHZ_PARALLEL_D) and not 1 <= k <= min(m, n) - 1:
            raise ValueError("parallel merge needs 1 <= k <= min(m,n)-1")
        if kd is K.MERGE_COMBINED and not (k > l >= 2 and k + l <= m + n - 2
                                           and k <= m - 1 and l <= n - 1):
            raise ValueError("combined merge needs k > l >= 2, k+l <= m+n-2, "
                             "k <= m-1, l <= n-1")
        if kd is K.BELL_SWAP_D and not all(0 <= x < self.d for x in self.bell_labels):
            raise ValueError("bell labels out of range")
        if kd is K.GHZ_MULTI_COIN_D and (m < 2 or n < 2):
            raise ValueError("multi-coin merge needs m,n >= 2")
        if kd is K.GHZ_FROM_BELLS_D and self.bells < 1:
            raise ValueError("need at least one coin Bell pair")
        if self.retain_coins and "retain_coins" not in SPEC_FIELDS[kd]:
            raise ValueError("retain_coins applies to the merge methods only")


# the ProtocolSpec fields besides kind and d that each kind reads
SPEC_FIELDS: dict[ProtocolKind, tuple[str, ...]] = {
    ProtocolKind.BELL_SWAP_2D: (),
    ProtocolKind.GHZ_SWAP_2D: (),
    ProtocolKind.MERGE_METHOD_1: ("m", "n", "k", "retain_coins"),
    ProtocolKind.MERGE_METHOD_2: ("m", "n", "k", "retain_coins"),
    ProtocolKind.MERGE_COMBINED: ("m", "n", "k", "l"),
    ProtocolKind.BELL_SWAP_D: ("bell_labels",),
    ProtocolKind.GHZ_PARALLEL_D: ("m", "n", "k", "retain_coins"),
    ProtocolKind.GHZ_SWAP_D: (),
    ProtocolKind.GHZ_MULTI_COIN_D: ("m", "n"),
    ProtocolKind.GHZ_FROM_BELLS_D: ("bells",),
    ProtocolKind.TRIANGLE_MERGE_2D: (),
    ProtocolKind.TRIANGLE_MERGE_D: (),
}


@dataclass(frozen=True)
class CorrectionOp:
    """Product of single-site unitaries (applied in list order) and a phase."""

    ops: tuple[tuple[int, str, OperatorMatrix], ...]
    global_phase: complex = 1.0
    label: str = "I"

    def apply_to(self, state: QuditState) -> QuditState:
        for site, _, op in self.ops:
            state = apply(state, op, [site])
        amps = state.amps if self.global_phase == 1.0 else self.global_phase * state.amps
        return QuditState(state.d, state.n, amps)


class Frame(NamedTuple):
    """A Weyl correction: a label shift U[0,s] per (site, s) of ``shifts``, the
    clock power Z^clock on ``phase_site`` (X, Z at d = 2), then ``global_phase``."""

    d: int
    shifts: tuple[tuple[int, int], ...]
    clock: int
    phase_site: int = 0
    global_phase: complex = 1.0

    def _factors(self) -> list:
        """(site, name, m, n) of each factor U[m,n] (``label_shift_op``), in apply order."""
        d, t = self.d, self.clock % self.d
        factors = [(site, "X" if d == 2 else f"U[0,{s % d}]", 0, s % d)
                   for site, s in sorted(self.shifts) if s % d]
        if t:
            factors.append((self.phase_site, "Z" if d == 2 else f"Z^{t}", -t % d, 0))
        return factors

    @property
    def label(self) -> str:
        """The correction's label, built with no operator."""
        return " ".join(f"{name}@{site}" for site, name, _, _ in self._factors()) or "I"

    @lru_cache(maxsize=None)
    def correction(self) -> CorrectionOp:
        """The correction's operators; one shared object per frame."""
        ops = tuple((site, name, label_shift_op(self.d, m, n))
                    for site, name, m, n in self._factors())
        return CorrectionOp(ops=ops, global_phase=self.global_phase, label=self.label)


@dataclass(frozen=True, eq=False)
class Law:
    """d^k equally likely outcomes, k base-d digits each in product order, and
    ``frame(outcome)``, each one's ``Frame``; hashed by identity, unpacked as (k, frame)."""

    d: int
    k: int
    frame: Callable[[tuple], Frame]

    def __iter__(self):
        return iter((self.k, self.frame))

    def outcome(self, index: int) -> tuple[int, ...]:
        """Drawn outcome ``index``: its k base-d digits, most significant first."""
        digits = [0] * self.k
        for j in range(self.k - 1, -1, -1):
            index, digits[j] = divmod(index, self.d)
        return tuple(digits)

    @lru_cache(maxsize=2**14)   # a fixed bound: one cache for every drawn label
    def label(self, index: int) -> str:
        """The correction label of drawn outcome ``index``."""
        return self.frame(self.outcome(index)).label


class CorrectionError(ValueError):
    """Raised when a residual state is not a shifted, phased GHZ pattern."""


@dataclass(frozen=True)
class BranchResult:
    """One exhaustive branch: ``post``, the pre-correction residual over the
    output particles, is built by ``residual()`` on first read."""

    outcome: tuple[int, ...]
    probability: float
    residual: Callable[[], QuditState] = field(repr=False, compare=False)
    correction: CorrectionOp
    fidelity: float
    bell_label: tuple[int, int] | None = None
    label_fidelity: float | None = None

    @cached_property
    def post(self) -> QuditState:
        return self.residual()


def _branch(outcome, probability, residual, correction, fidelity,
            bell_label=None, label_fidelity=None) -> BranchResult:
    """A ``BranchResult`` with its fields written into its ``__dict__`` at
    once, not by the frozen ``__init__``'s one ``object.__setattr__`` each."""
    b = object.__new__(BranchResult)
    b.__dict__.update(outcome=outcome, probability=probability, residual=residual,
                      correction=correction, fidelity=fidelity, bell_label=bell_label,
                      label_fidelity=label_fidelity)
    return b


@dataclass
class ProtocolResult:
    spec: ProtocolSpec
    measured: tuple[tuple[str, Basis], ...]
    output_labels: tuple[str, ...]
    branches: list[BranchResult] = field(default_factory=list)

    @property
    def min_fidelity(self) -> float:
        return min(b.fidelity for b in self.branches)

    @property
    def total_probability(self) -> float:
        return sum(b.probability for b in self.branches)

    def all_recovered(self, tol: float = FIDELITY_TOL) -> bool:
        return self.min_fidelity >= 1 - tol and abs(self.total_probability - 1) <= 1e-9

    def to_dict(self) -> dict:
        # numpy scalars as Python ones, the label tuple as a list
        params = {name: np.asarray(v).tolist()
                  for name in SPEC_FIELDS[self.spec.kind] if (v := getattr(self.spec, name))}
        return {
            "protocol": self.spec.kind.value,
            "d": int(self.spec.d),
            "params": params,
            "measured": [[lab, basis.value] for lab, basis in self.measured],
            "outputs": list(self.output_labels),
            "branches": [
                {
                    "outcome": list(b.outcome),
                    "probability": b.probability,
                    "correction": b.correction.label,
                    "fidelity": b.fidelity,
                }
                for b in self.branches
            ],
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)


# ---------------------------------------------------------------------------
# Walk primitive
# ---------------------------------------------------------------------------

def walk_step(state: QuditState, coin_site: int, pos_site: int,
              coin_op: OperatorMatrix) -> QuditState:
    """One coined-walk step: coin_op on coin_site, then the conditional shift.

    The shift subtracts the coin value from the position value (mod d).
    """
    if coin_site == pos_site:
        raise ValueError("coin and position sites must differ")
    if coin_op.arity != 1:
        raise ValueError("coin operator must act on one site")
    if coin_op.monomial is None or not np.array_equal(coin_op.mat, np.eye(state.d)):
        state = apply(state, coin_op, [coin_site])  # coin I leaves the shift alone
    return apply(state, shift_op(state.d), [coin_site, pos_site])


def outcome_parity(bits) -> int:
    """Mod-2 sum of measurement bits; the y / N parity of the merge tables."""
    return int(sum(bits)) % 2


# ---------------------------------------------------------------------------
# The stage interpreter
# ---------------------------------------------------------------------------

def _spread(compact: np.ndarray, d: int, sites: tuple, outputs: tuple, copies: dict):
    """Entries over the compact ``sites`` as entries over ``outputs``: V's
    image, one strided write of each compact digit to every output it stands
    for and zeros elsewhere; the entries themselves when the two coincide."""
    if sites == outputs:
        return compact
    n, shape = len(outputs), (d,) * len(sites)
    place = {lab: d ** (n - 1 - i) for i, lab in enumerate(outputs)}
    dense = np.zeros(d**n, dtype=compact.dtype)
    strides = [dense.itemsize * sum(place[c] for c in copies.get(s, (s,))) for s in sites]
    np.ndarray(shape, dense.dtype, dense, 0, strides)[...] = compact.reshape(shape)
    return dense


def _compact(state: QuditState, labels: tuple, touched: set):
    """(state, sites, copies) of an added resource.  A canonical GHZ with two
    or more parties outside ``touched`` keeps one of them as the site standing
    for all: ``copies`` maps its label to theirs, its own first, and the copy
    isometry V: |r> -> |r>^k, which commutes with every operation on other
    sites, restores them."""
    idle = tuple(lab for lab in labels if lab not in touched)
    if len(idle) < 2 or not np.array_equal(state.amps, canonical_ghz(state.d, state.n).amps):
        return state, labels, {}
    sites, d = tuple(lab for lab in labels if lab not in idle[1:]), state.d
    compact = (canonical_ghz(d, len(sites)) if len(sites) > 1
               else QuditState(d, 1, np.ones(d, dtype=complex) / np.sqrt(d)))
    return compact, sites, {idle[0]: idle}


@dataclass(frozen=True)
class Stage:
    """One round of a walk circuit, run in field order.

    ``add`` tensors (state, labels) resources onto the register; ``gates``
    runs walks, written (coin, position, coin op), and single-site unitaries,
    written (label, op); ``targets`` lists the (label, basis) measurements.
    A unitary on a particle that no target reads commutes with the readouts,
    so one that the circuit applies after measuring (a star merge's inverse
    Fourier on ``far``) is a gate too.
    """

    add: tuple = ()
    gates: tuple = ()
    targets: tuple = ()


def run_stages(stages, outputs):
    """Run a walk circuit exhaustively; yield (values, probability, residual)
    per nonzero branch, in outcome order.  Values are the results of all
    stages' targets in order and the probability is their product.

    The circuit names its outputs: the residual is the ``QuditState`` over
    ``outputs``, in that order, or None when every particle is read.  It is
    planned and checked (``_plan``) before any resource is added.  An added
    ``canonical_ghz`` with two or more parties that no walk, gate or target
    touches enters as its touched parties plus one site standing for the idle
    ones, which no gate or measurement sweeps and the cap counts only in the residual.
    """
    outputs = tuple(outputs)
    for values, prob, block, sites, copies in _blocks(stages, outputs):
        for i, (v, p) in enumerate(zip(block.values.tolist(), block.probs.tolist())):
            yield values + tuple(v), prob * p, None if block.posts is None else _residual(
                block.d, block.posts, sites, outputs, copies, i)


def _plan(stages, outputs):
    """(plan, d, sites, copies): each stage's compacted resources, gates and targets by
    site index, and the last stage's layout, planned before anything is built.  The cap
    counts what is built past the inputs: the register at its peak and the residual."""
    stages = tuple(stages)
    dims = {resource.d for stage in stages for resource, _ in stage.add}
    if len(dims) != 1:
        raise ValueError(f"a circuit needs resources of one local dimension, not {sorted(dims)}")
    names = [lab for stage in stages for _, labels in stage.add for lab in labels]
    if len(set(names)) != len(names) or any(
            len(labels) != resource.n for stage in stages for resource, labels in stage.add):
        raise ValueError(f"labels {names} do not name each added site once")
    read = {lab for stage in stages for lab, _ in stage.targets}
    unread = tuple(lab for lab in names if lab not in read)
    if len(outputs) != len(unread) or set(outputs) != set(unread):
        raise ValueError(f"outputs {outputs} are not the circuit's unread particles {unread}")
    touched = read | {lab for stage in stages for gate in stage.gates for lab in gate[:-1]}
    plan, sites, copies, peak = [], (), {}, 0
    for i, stage in enumerate(stages, 1):
        parts = [_compact(resource, tuple(labels), touched) for resource, labels in stage.add]
        for _, part_sites, part_copies in parts:
            sites, copies = sites + part_sites, {**copies, **part_copies}
        if not sites or not stage.targets:
            raise ValueError(f"stage {i} has {'no targets' if sites else 'an empty register'}")
        at, reads = {lab: s for s, lab in enumerate(sites)}, [lab for lab, _ in stage.targets]
        for lab in [lab for gate in stage.gates for lab in gate[:-1]] + reads:
            if lab not in at:
                raise ValueError(f"stage {i} names {lab!r}, which is not in its register")
            if reads.count(lab) > 1:
                raise ValueError(f"stage {i} reads {lab!r} twice")
        peak = max(peak, len(sites))
        plan.append(([part for part, _, _ in parts],
                     [(*(at[lab] for lab in gate[:-1]), gate[-1]) for gate in stage.gates],
                     [(at[lab], basis) for lab, basis in stage.targets]))
        sites = tuple(lab for lab in sites if lab not in reads)
    check_cap(*dims, max(peak, len(outputs)))
    return plan, *dims, sites, copies


def _blocks(stages, outputs):
    """The planned run, per last stage: (values, probability, ``Branches`` block, sites, copies)."""
    plan, _, sites, copies = _plan(stages, outputs)
    return ((*run, sites, copies) for run in _run(plan))


def _run(plan, values=(), prob=1.0, state=None):
    """Run the planned stages; per last stage, (values, probability, block)."""
    parts, gates, targets = plan[0]
    for part in parts:
        state = part if state is None else tensor(state, part)
    for gate in gates:
        state = walk_step(state, *gate) if len(gate) == 3 else apply(state, gate[1], gate[:1])
    block = measure_all_branches(state, targets)
    del state
    if len(plan) == 1:
        yield values, prob, block
        return
    posts = [None] * len(block) if block.posts is None else [
        QuditState.unchecked(block.d, block.n, row) for row in block.posts]
    for v, p, post in zip(block.values.tolist(), block.probs.tolist(), posts):
        yield from _run(plan[1:], values + tuple(v), prob * p, post)


def star_merge_stage(d: int, coins, pos, far, add) -> Stage:
    """Multi-coin star merge: every coin particle walks onto ``pos`` with a
    Fourier coin; the coins are read in the Fourier basis, ``pos``
    computationally, and the inverse Fourier lands on ``far``, the other
    particle of the position pair (a gate: nothing reads ``far``)."""
    f = fourier_op(d)
    return Stage(add=tuple(add),
                 gates=tuple((c, pos, f) for c in coins) + ((far, fourier_inv_op(d)),),
                 targets=tuple((c, Basis.FOURIER) for c in coins)
                 + ((pos, Basis.COMPUTATIONAL),))


TRIANGLE_LAYOUT = (("a", "q1", "q6"), ("q2", "b", "q3"), ("q4", "q5", "c"))


def triangle_merge_stages(d: int, triples, qubit: bool) -> tuple[Stage, ...]:
    """Triangle merge of three GHZ triples laid out as TRIANGLE_LAYOUT.

    The qubit variant walks coin X across each shared corner in one stage;
    the qudit variant is the two-stage identity-coin merge (triple 3 joins in stage 2).
    """
    add = tuple(zip(triples, TRIANGLE_LAYOUT))
    f, c = Basis.FOURIER, Basis.COMPUTATIONAL
    if qubit:
        x = pauli_x(2)
        return (Stage(add, gates=(("q1", "q2", x), ("q3", "q4", x), ("q5", "q6", x)),
                      targets=(("q1", f), ("q3", f), ("q5", f),
                               ("q2", c), ("q4", c), ("q6", c))),)
    i = identity_op(d)
    return (Stage(add[:2], gates=(("q1", "q2", i),), targets=(("q1", f), ("q2", c))),
            Stage(add[2:], gates=(("q4", "q3", i), ("q5", "q6", i)),
                  targets=(("q4", f), ("q5", f), ("q6", c), ("q3", c))))


@lru_cache(maxsize=None)
def triangle_merge_rule(d: int, qubit: bool) -> Law:
    """The triangle merge's ``Law`` on three canonical GHZ triples, read off
    its circuit, for every d; no register or operator is built.

    The merge is a qudit Clifford circuit on canonical inputs, so its first
    k = 5 readouts are free: all d^5 of their values are kept, each at
    probability d^-5, in product order, and they fix the sixth.  The qudit
    merge's outcome (p1, u1, p2, p3, u2, u3) has u3 = u1 + u2 (mod d); its
    correction shifts b by u1 and c by -u2, with clock power p1 + p2 + p3 on
    a.  The qubit merge's (p1, p3, p5, u2, u4, u6) has u6 = 1 + u2 + u4
    (mod 2); its correction is X on b iff u2 = 0, X on c iff u2 + u4 is odd
    and Z on a iff p1 + p3 + p5 is odd, with the residual's quadratic sign
    (-1)^(p1 + p5 + p3 u2 + p5 u2 + p5 u4).  ``frame(v)`` reads the first
    five values of v and returns that correction's ``Frame``.
    """
    if qubit and d != 2:
        raise ValueError("the qubit triangle merge is defined for d=2 only")

    def frame(values) -> Frame:
        if qubit:
            p1, p3, p5, u2, u4 = values[:5]
            sign = (-1) ** (p1 + p5 + (p3 + p5) * u2 + p5 * u4)
            return Frame(2, ((1, 1 - u2), (2, u2 ^ u4)), p1 ^ p3 ^ p5, global_phase=complex(sign))
        p1, u1, p2, p3, u2 = values[:5]
        return Frame(d, ((1, u1), (2, -u2 % d)), (p1 + p2 + p3) % d)
    return Law(d, 5, frame)


# ---------------------------------------------------------------------------
# Generic correction derivation
# ---------------------------------------------------------------------------

def derive_ghz_correction(state: QuditState) -> CorrectionOp:
    """Read site offsets and the linear phase off a shifted GHZ residual.

    Every residual state these protocols produce has the form
    (1/sqrt d) sum_r g * w^{-t r} |r+s_0, r+s_1, ..., r+s_{P-1}>, so the
    correction is a label shift per offset site plus a clock power on the
    reference site, with g folded into the global phase.
    """
    d, n = state.d, state.n
    nz = np.flatnonzero(np.abs(state.amps) > SUPPORT_TOL)
    if len(nz) != d:
        raise CorrectionError(f"support size {len(nz)} != d")
    # d values, a few sites: plain Python scalars beat numpy's per-call cost
    place = [d ** (n - 1 - i) for i in range(n)]
    ref = [int(nz[0]) // p % d for p in place]
    offsets = [(v - ref[0]) % d for v in ref]
    coeffs = [complex(state.amps[sum((r + s) % d * p for s, p in zip(offsets, place))])
              for r in range(d)]
    if any(abs(abs(c) - 1 / math.sqrt(d)) > SUPPORT_TOL for c in coeffs):
        raise CorrectionError("support magnitudes are not uniform")
    rel = [c / coeffs[0] for c in coeffs]
    t = int(round(-cmath.phase(rel[1]) / (2 * math.pi / d))) % d
    w = cmath.exp(2j * math.pi / d)
    # np.allclose against the linear phases w^{-t r}
    if any(abs(c - w ** (-t * r)) > SUPPORT_TOL + 1e-5 * abs(w ** (-t * r))
           for r, c in enumerate(rel)):
        raise CorrectionError("phases are not linear in the GHZ index")

    g = coeffs[0] * math.sqrt(d)  # unit-modulus residue; cancel it exactly
    phase = g.conjugate() if abs(abs(g) - 1) < SUPPORT_TOL else 1.0
    return Frame(d, tuple(enumerate(offsets)), t, global_phase=complex(phase)).correction()


# ---------------------------------------------------------------------------
# Draws and block scoring
# ---------------------------------------------------------------------------

def check_draw(outcomes: int, message: str, error=ValueError) -> None:
    """Refuse, with ``error(message)``, a law of more equally likely outcomes
    than one float uniform reaches as floor(u n): more than 2^53."""
    if outcomes > 2**53:
        raise error(message)


def draw(seed, outcomes, count: int, message: str, error=ValueError) -> list[int]:
    """Every sampled law's draw: ``count`` indices floor(u n) from one ``rng.random(count)``
    block of a seed or a passed ``Generator``, n ``outcomes`` (an int, or one per draw).
    u is a multiple of 2^-53, so ``check_draw`` first refuses n > 2^53."""
    many = isinstance(outcomes, list)
    check_draw(max(outcomes, default=1) if many else outcomes, message, error)
    u = np.random.default_rng(seed).random(count)
    if many:   # a few draws of varying n, a schedule's steps: scalar floors cost less
        return [int(x * n) for x, n in zip(u.tolist(), outcomes)]
    return (u * outcomes).astype(np.int64).tolist()


def _corrected(stages, outputs, closed=None):
    """Yield, per last stage, its exhaustive branches as one block: (values,
    probabilities, residual, corrections, fidelities), with ``residual(i)``
    branch i's residual over ``outputs``, built on call.  Each branch's
    correction is ``closed(values)``, or with no ``closed`` derived from its
    residual, the only one built here.  All are scored against the canonical
    GHZ on the d residual amplitudes the correction maps onto its support,
    read off the compact rows: V maps each support index to its row entry,
    and one outside V's image reads 0."""
    outputs = tuple(outputs)
    plan, d, sites, copies = _plan(stages, outputs)
    spread = _spread(np.arange(1, d ** len(sites) + 1), d, sites, outputs, copies) - 1
    for prefix, prob, block in _run(plan):
        n, rows = len(outputs), block.posts
        residual = partial(_residual, d, rows, sites, outputs, copies)
        values = [prefix + tuple(v) for v in block.values.tolist()]
        corrs = ([closed(v) for v in values] if closed else
                 [derive_ghz_correction(residual(i)) for i in range(len(values))])
        src, phase = map(np.array, zip(*[_support_map(d, n, c.ops) for c in corrs]))
        src = spread[src]
        amps = np.where(src >= 0, np.take_along_axis(rows, src, 1), 0)
        phase *= np.array([corr.global_phase for corr in corrs])[:, None]
        fids = np.abs(np.conj(phase * amps) @ np.full(d, 1 / np.sqrt(d))) ** 2
        yield values, (prob * block.probs).tolist(), residual, corrs, fids.tolist()


def _residual(d: int, rows, sites, outputs, copies, i: int) -> QuditState:
    """Compact row i as the residual state over ``outputs``."""
    return QuditState.unchecked(d, len(outputs), _spread(rows[i], d, sites, outputs, copies))


@lru_cache(maxsize=None)
def _support_map(d: int, n: int, ops) -> tuple[np.ndarray, np.ndarray]:
    """(src, phase): (ops[-1] ... ops[0] psi)[r (d^n - 1)/(d - 1)] =
    phase[r] psi[src[r]], each GHZ support index |r...r> walked back through
    the ops."""
    digits = np.tile(np.arange(d)[:, None], n)  # row r: the digits of |r...r>
    phase = np.ones(d, dtype=complex)
    for site, name, op in reversed(ops):
        if op.monomial is None:
            raise ValueError(f"correction op {name} is not monomial")
        src, ph = op.monomial
        phase *= 1 if ph is None else ph[digits[:, site]]
        digits[:, site] = src[digits[:, site]]
    return digits @ d ** np.arange(n - 1, -1, -1), phase


# ---------------------------------------------------------------------------
# Table-rule corrections for the qubit protocols
# ---------------------------------------------------------------------------

def qubit_correction(site_ops: list[tuple[int, str]], sign: int) -> CorrectionOp:
    """Build a qubit correction from (site, 'X'|'Z') factors applied in order;
    one shared object per (factors, sign)."""
    return _qubit_correction(tuple(site_ops), sign)


@lru_cache(maxsize=None)
def _qubit_correction(site_ops: tuple[tuple[int, str], ...], sign: int) -> CorrectionOp:
    mats = {"X": pauli_x(2), "Z": pauli_z(2)}
    ops = tuple((site, name, mats[name]) for site, name in site_ops)
    label = ("-" if sign < 0 else "") + (
        "".join(f"{name}{site + 1}" for site, name in reversed(site_ops)) or "I")
    return CorrectionOp(ops=ops, global_phase=complex(sign), label=label)


# Reference rows of the qubit swaps (tables 1, 2) and merges (table3_row,
# table4_row), the corrections' single source: outcome -> (residual terms over
# the outputs, [(site, op)...], sign, label); tables.verify_table checks them.
TABLE_1 = {
    (0, 0): ([(1, "01"), (1, "10")], [(0, "X")], +1, "X1"),
    (0, 1): ([(1, "00"), (1, "11")], [], +1, "I1"),
    (1, 0): ([(1, "10"), (-1, "01")], [(0, "X"), (0, "Z")], +1, "Z1X1"),
    (1, 1): ([(1, "11"), (-1, "00")], [(0, "Z")], -1, "-Z1"),
}

TABLE_2 = {
    (0, 0, 0): ([(1, "011"), (1, "100")], [(0, "X")], +1, "X1"),
    (0, 0, 1): ([(1, "000"), (1, "111")], [], +1, "I1"),
    (0, 1, 0): ([(1, "000"), (-1, "111")], [(0, "Z")], +1, "Z1"),
    (0, 1, 1): ([(1, "011"), (-1, "100")], [(0, "Z"), (0, "X")], +1, "X1Z1"),
    (1, 0, 0): ([(-1, "011"), (1, "100")], [(0, "X"), (0, "Z")], +1, "Z1X1"),
    (1, 0, 1): ([(-1, "000"), (1, "111")], [(0, "Z")], -1, "-Z1"),
    (1, 1, 0): ([(-1, "000"), (-1, "111")], [], -1, "-I1"),
    (1, 1, 1): ([(-1, "011"), (-1, "100")], [(0, "X")], -1, "-X1"),
}


def table3_row(m: int, n: int, k: int, outcome: tuple[int, ...]):
    """Table 3 (merge-method-1) row for outcome = (a1, x2..xk, b1), symbolic in
    the parity y of the x's: (residual terms, [(site, op)...], sign, label)."""
    a1, b1, y = outcome[0], outcome[-1], outcome_parity(outcome[1:-1])
    sign, flip = -1 if a1 else 1, b1 == y   # flip: X on a_{k+1}..a_m, output sites 0..m-k-1
    block = "0" * (m - k) + ("1" if flip else "0") * (n - 1)
    ops = [(j, "X") for j in range(m - k) if flip] + [(0, "Z")] * ((a1 + y) % 2)
    label = ("-" if a1 else "") + ("X(k+1..m)" if flip else "") + ("Z^(y+1)" if a1 else "Z^y")
    return [(sign, block), (-1 if y else 1, _invert(block))], ops, sign, label


def _invert(bits: str) -> str:
    return "".join("1" if c == "0" else "0" for c in bits)


def table4_row(m: int, n: int, k: int, outcome: tuple[int, ...]):
    """Table 4 (merge-method-2) row for outcome = (x1..xk, b...b), symbolic in the
    parity N of the x's: (terms, ops, sign, label, conventional label).  The X
    flips go with b = 0...0, the transposed conventional layout (see ``tables``)."""
    xs, b = outcome[:k], outcome[-1]
    nn = outcome_parity(xs)
    sgn = -1 if nn else 1
    z = [(0, "Z")] if nn else []
    flips = [(j, "X") for j in range(m - k)]
    if b == 0:
        terms = [(sgn, "0" * (m - k) + "1" * (n - k)), (1, "1" * (m - k) + "0" * (n - k))]
        return terms, flips + z, sgn, "X(k+1..m)(-Z)^N", "(-Z)^N"
    terms = [(sgn, "0" * (m + n - 2 * k)), (1, "1" * (m + n - 2 * k))]
    return terms, z, sgn, "(-Z)^N", "X(k+1..m)(-Z)^N"


# ---------------------------------------------------------------------------
# Protocol circuits
# ---------------------------------------------------------------------------

def _labels(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(1, count + 1))


def circuit(spec: ProtocolSpec):
    """The protocol's stages, the labels of its output particles, its
    correction rule (outcome -> ``CorrectionOp`` in closed form, or None where
    each correction is derived from its residual) and its law, or None where
    it is run densely.  A law (j, rule) is read off the circuit: the outcomes
    are d^j equally likely, ``rule(z)`` = (outcome, a) for each z in Z_d^j in
    product order, and the correction maps the residual to w^a times the
    canonical GHZ."""
    d, kd, K = int(spec.d), spec.kind, ProtocolKind
    fb, cb = Basis.FOURIER, Basis.COMPUTATIONAL
    x2 = pauli_x(2)

    if kd in (K.BELL_SWAP_2D, K.BELL_SWAP_D):
        bm, bn, bp, bq = map(int, spec.bell_labels) if kd is K.BELL_SWAP_D else (0, 0, 0, 0)
        coin = x2 if kd is K.BELL_SWAP_2D else identity_op(d)
        stage = Stage(add=((canonical_bell(d, bm, bn), ("1", "2")),
                           (canonical_bell(d, bp, bq), ("3", "4"))),
                      gates=(("2", "3", coin),), targets=(("2", fb), ("3", cb)))
        if kd is K.BELL_SWAP_2D:
            return (stage,), ("1", "4"), lambda o: qubit_correction(*TABLE_1[o][1:3]), None
        # (k0, u0) leaves U[m+p-k0, n+q-u0] times w^(p(u0 - n) + k0 n) on the Bell state
        return (stage,), ("1", "4"), lambda o: _label_correction(d, *_bell_label(spec, o)), (
            2, lambda z: (z, (bp * (z[1] - bn) + z[0] * bn) % d))

    if kd in (K.GHZ_SWAP_2D, K.GHZ_SWAP_D, K.GHZ_MULTI_COIN_D):
        # coins a2..am walk onto b1; the qudit kinds are the star merge with far = a1,
        # b1's value shifts b2..bn back and the first coin's is a1's clock power
        a, b = ((_labels("a", spec.m), _labels("b", spec.n)) if kd is K.GHZ_MULTI_COIN_D
                else (("1", "2", "3"), ("4", "5", "6")))
        add = ((canonical_ghz(d, len(a)), a), (canonical_ghz(d, len(b)), b))
        if kd is not K.GHZ_SWAP_2D:
            # the coins' Fourier results coincide: (q, ..., q, u0)
            return (star_merge_stage(d, a[1:], b[0], a[0], add),), a[:1] + b[1:], lambda o: (
                Frame(d, tuple((s, o[-1]) for s in range(1, len(b))), o[0]).correction()), (
                2, lambda z: (z[:1] * (len(a) - 1) + z[1:], 0))
        stage = Stage(add, gates=((a[1], b[0], x2), (a[2], b[0], fourier_op(2))),
                      targets=((a[1], fb), (a[2], cb), (b[0], cb)))
        return (stage,), a[:1] + b[1:], lambda o: qubit_correction(*TABLE_2[o][1:3]), None

    if kd in (K.MERGE_METHOD_1, K.MERGE_COMBINED,
              K.MERGE_METHOD_2, K.GHZ_PARALLEL_D):
        # a_i walks onto b_i for i = 1..l (coin X; I for ghz-parallel-d), then
        # coins H a_{l+1}..a_k walk onto b_l: method 1 is l = 1, the parallel
        # merges l = k.  a_1..a_l are read in the Fourier basis unless retained.
        a, b, k = _labels("a", spec.m), _labels("b", spec.n), int(spec.k)
        l = {K.MERGE_METHOD_1: 1, K.MERGE_COMBINED: spec.l}.get(kd, k)
        coin = identity_op(d) if kd is K.GHZ_PARALLEL_D else x2
        gates = (tuple((a[i], b[i], coin) for i in range(l))
                 + tuple((a[i], b[l - 1], fourier_op(2)) for i in range(l, k)))
        targets = (tuple((a[i], cb) for i in range(l, k))
                   + tuple((b[i], cb) for i in range(l)))
        retained = a[:l] if spec.retain_coins else ()
        if not retained:
            targets = tuple((a[i], fb) for i in range(l)) + targets
        stage = Stage(add=((canonical_ghz(d, spec.m), a), (canonical_ghz(d, spec.n), b)),
                      gates=gates, targets=targets)
        outputs = retained + a[k:] + b[l:]
        # tables 3 and 4 need every coin read; ghz-parallel-d's positions agree on
        # u0, which shifts b_{k+1}..b_n back, and its Fourier results sum to the clock power
        table = {K.MERGE_METHOD_1: table3_row, K.MERGE_METHOD_2: table4_row}.get(kd)
        closed = None if retained or not table else (
            lambda o: qubit_correction(*table(spec.m, spec.n, k, o)[1:3]))
        if kd is not K.GHZ_PARALLEL_D:
            return (stage,), outputs, closed, None
        # the Fourier results are free and the k positions all read u0
        return (stage,), outputs, lambda o: Frame(
            d, tuple((s, o[-k]) for s in range(len(outputs))[k - spec.n:]),
            sum(o[:-k]) % d).correction(), (
            1 + k - len(retained), lambda z: (z[:-1] + z[-1:] * k, 0))

    if kd is K.GHZ_FROM_BELLS_D:
        # coin j's Fourier result shifts output j back; pos's value is far's clock power
        M = int(spec.bells)
        pairs = [(str(2 * j - 1), str(2 * j)) for j in range(1, M + 2)]
        (pos, far) = pairs[-1]
        stage = star_merge_stage(d, [coin for _, coin in pairs[:-1]], pos, far,
                                 [(canonical_bell(d, 0, 0), p) for p in pairs])
        return (stage,), tuple(p for p, _ in pairs[:-1]) + (far,), lambda o: (
            Frame(d, tuple(enumerate(o[:M])), o[M], phase_site=M).correction()), (
            M + 1, lambda z: (z, 0))

    if kd in (K.TRIANGLE_MERGE_2D, K.TRIANGLE_MERGE_D):
        # the five free readouts fix the sixth; the qudit residual carries w^((p2 + p3) u2)
        qubit = kd is K.TRIANGLE_MERGE_2D
        k, frame = triangle_merge_rule(d, qubit)
        return (triangle_merge_stages(d, [canonical_ghz(d, 3)] * 3, qubit=qubit),
                ("a", "b", "c"), lambda o: frame(o).correction(), (
                    k, (lambda z: (z + ((1 + z[3] + z[4]) % 2,), 0)) if qubit
                    else lambda z: (z + ((z[1] + z[4]) % d,), (z[2] + z[3]) * z[4] % d)))

    raise ValueError(f"unknown protocol kind {kd}")


def _bell_label(spec: ProtocolSpec, outcome) -> tuple[int, int]:
    """The Bell label bell-swap-d leaves on (1,4) after outcome (k0, u0)."""
    bm, bn, bp, bq = map(int, spec.bell_labels)
    k0, u0 = outcome
    return (bm + bp - k0) % int(spec.d), (bn + bq - u0) % int(spec.d)


@lru_cache(maxsize=None)
def _label_correction(d: int, mm: int, nn: int) -> CorrectionOp:
    """U[mm,nn] on site 0, bell-swap-d's correction; one shared object per label."""
    return CorrectionOp(ops=((0, f"U[{mm},{nn}]", label_shift_op(d, mm, nn)),),
                        label=f"U[{mm},{nn}]@0")


@lru_cache(maxsize=None)
def _label_corrections(d: int) -> tuple:
    """((mm, nn), ``_label_correction(d, mm, nn)``) at index mm d + nn, for
    all d^2 labels: every bell-swap-d spec at d reaches each one."""
    return tuple(((mm, nn), _label_correction(d, mm, nn))
                 for mm in range(d) for nn in range(d))


def _bell_leaf(d: int, labels: tuple, outcome) -> tuple:
    """(Bell label, correction, residual phase a) of bell-swap-d's outcome
    (k0, u0) under Bell labels (m, n, p, q): U[m+p-k0, n+q-u0] leaves w^a,
    a = p(u0 - n) + k0 n, on the Bell state (``circuit``'s law)."""
    bm, bn, bp, bq = labels
    k0, u0 = outcome
    bell, corr = _label_corrections(d)[(bm + bp - k0) % d * d + (bn + bq - u0) % d]
    return bell, corr, (bp * (u0 - bn) + k0 * bn) % d


# each law kind's shape: the fields its circuit reads but the Bell labels
_SHAPE_FIELDS = {kind: tuple(name for name in SPEC_FIELDS[kind] if name != "bell_labels")
                 for kind in (ProtocolKind.BELL_SWAP_D, ProtocolKind.GHZ_SWAP_D,
                              ProtocolKind.GHZ_MULTI_COIN_D, ProtocolKind.GHZ_PARALLEL_D,
                              ProtocolKind.GHZ_FROM_BELLS_D, ProtocolKind.TRIANGLE_MERGE_2D,
                              ProtocolKind.TRIANGLE_MERGE_D)}


def _shape(spec: ProtocolSpec) -> tuple:
    """A law kind's ``_law_table`` key: its kind, d and shape fields."""
    return (spec.kind, spec.d, *[getattr(spec, name) for name in _SHAPE_FIELDS[spec.kind]])


@dataclass(frozen=True, eq=False)
class LawTable:
    """A law kind's circuit compiled for one shape: its readouts and outputs,
    and ``leaves``, each of the d^j outcomes in product order with (index into
    ``corrections``, residual phase a): the correction maps the residual to
    w^a times the canonical GHZ (at zeroed Bell labels for bell-swap-d)."""

    d: int
    probability: float
    measured: tuple
    outputs: tuple
    corrections: tuple
    leaves: MappingProxyType


@lru_cache(maxsize=512)   # a fixed bound over the catalog grid's 245 law shapes
def _law_table(kind: ProtocolKind, d: int, *params) -> LawTable:
    """The ``LawTable`` of one shape (``_shape``), planned first: a refusal
    (``_plan``, the size cap) raises and keeps nothing."""
    spec = ProtocolSpec(kind, d, **dict(zip(_SHAPE_FIELDS[kind], params)))
    stages, outputs, closed, (j, rule) = circuit(spec)
    _plan(stages, outputs)
    d, corrections, slot, pairs, leaves = int(d), [], {}, {}, {}
    for z in itertools.product(range(d), repeat=j):
        outcome, a = rule(z)
        corr = closed(outcome)
        if (i := slot.setdefault(id(corr), len(corrections))) == len(corrections):
            corrections.append(corr)
        leaves[outcome] = pairs.setdefault((i, a), (i, a))   # one tuple per distinct pair
    return LawTable(d, d**-j, tuple(t for stage in stages for t in stage.targets), outputs,
                    tuple(corrections), MappingProxyType(leaves))


@lru_cache(maxsize=256)   # a fixed bound: the looked-up dense specs' tables
def _corrections(spec: ProtocolSpec) -> dict:
    """{outcome: correction} over every branch of one exhaustive run."""
    return {b.outcome: b.correction for b in run_protocol(spec).branches}


def correction_for(kind: ProtocolKind, d: int, outcome: tuple[int, ...],
                   spec: ProtocolSpec | None = None) -> CorrectionOp:
    """Correction for one protocol outcome: the one ``run_protocol`` applies
    to that branch.  A kind with a law (``circuit``) runs nothing: the
    outcome is read off its shape's ``LawTable``.  A dense kind runs once
    per spec into a kept table.  An outcome outside the support (wrong length,
    digit out of range, zero probability) raises ValueError.
    """
    spec = spec or ProtocolSpec(kind=kind, d=d)
    if spec.kind is not kind or spec.d != d:
        raise ValueError("spec disagrees with kind/d arguments")
    spec.validate()
    outcome = tuple(outcome)
    if kind in _SHAPE_FIELDS:
        table = _law_table(*_shape(spec))
        if outcome in table.leaves:
            if kind is ProtocolKind.BELL_SWAP_D:
                return _bell_leaf(table.d, tuple(map(int, spec.bell_labels)), outcome)[1]
            return table.corrections[table.leaves[outcome][0]]
    else:
        if not isinstance(spec.bell_labels, tuple):
            # the table is keyed by spec, so list-valued labels become a tuple
            spec = replace(spec, bell_labels=tuple(spec.bell_labels))
        table = _corrections(spec)
        if outcome in table:
            return table[outcome]
    raise ValueError(f"outcome {outcome} has zero probability for {kind.value}")


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def run_protocol(spec: ProtocolSpec) -> ProtocolResult:
    """Execute a protocol exhaustively over all measurement branches.

    Each branch record carries the pre-correction residual over the output
    particles (``post``, built on first read), the correction (the kind's
    closed-form rule from ``circuit``, or derived from ``post``), and the
    corrected state's fidelity against the canonical GHZ target (the labeled
    Bell state check for bell-swap-d is reported through bell_label /
    label_fidelity).  A kind with a law (``circuit``) reads its shape's
    ``LawTable``, at probability d^-j and fidelity 1; the others run densely
    (``_corrected``).  Every call builds its own records and residuals.
    """
    spec.validate()
    if spec.kind not in _SHAPE_FIELDS:
        stages, outputs, closed, _ = circuit(spec)
        result = ProtocolResult(
            spec=spec, measured=tuple(t for stage in stages for t in stage.targets),
            output_labels=outputs)
        for values, probs, residual, corrs, fids in _corrected(stages, outputs, closed):
            result.branches += [_branch(v, p, partial(residual, i), c, f) for i, (
                v, p, c, f) in enumerate(zip(values, probs, corrs, fids))]
        return result
    table = _law_table(*_shape(spec))
    d, n, p, corrs = table.d, len(table.outputs), table.probability, table.corrections
    if spec.kind is ProtocolKind.BELL_SWAP_D:
        labels, branches = tuple(map(int, spec.bell_labels)), []
        for outcome in table.leaves:
            bell, corr, a = _bell_leaf(d, labels, outcome)
            branches.append(_branch(outcome, p, partial(_frame_residual, d, n, corr, a), corr,
                                    1.0, bell, 1.0))
    else:
        branches = [_branch(outcome, p, partial(_frame_residual, d, n, corrs[i], a),
                            corrs[i], 1.0)
                    for outcome, (i, a) in table.leaves.items()]
    return ProtocolResult(spec, table.measured, table.outputs, branches)


def _frame_residual(d: int, n: int, corr: CorrectionOp, a: int) -> QuditState:
    """The residual over n sites that ``corr`` maps to w^a times the canonical
    GHZ: its d support amplitudes, each walked back through the correction."""
    src, phase = _support_map(d, n, corr.ops)
    amps = np.zeros(d**n, dtype=complex)
    amps[src] = cmath.exp(2j * math.pi * a / d) / (math.sqrt(d) * corr.global_phase * phase)
    return QuditState.unchecked(d, n, amps)
