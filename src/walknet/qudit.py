"""Dense state-vector simulation for systems of d-level sites (qudits).

A state over n sites of local dimension d is a complex vector of length d**n.
Site 0 is the most significant digit of the amplitude index, i.e. the basis
state |v0 v1 ... v_{n-1}> sits at index sum(v[i] * d**(n-1-i)).  This encoding
is fixed so that amplitude indices are reproducible everywhere (tests, JSON
fixtures, branch outcomes).

Everything here is a pure function of its inputs: states are treated as
immutable values and every operation returns a fresh state, so results can be
shared freely across parallel workers.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

# Hard cap on the dense representation: d**n may not exceed 2**22.
SIZE_CAP = 2**22

NORM_TOL = 1e-10
BRANCH_PRUNE = 1e-12
PROB_SUM_TOL = 1e-9


class Basis(Enum):
    """Single-site measurement basis.

    COMPUTATIONAL measures in {|0>, ..., |d-1>}.  FOURIER measures in
    {|k~> = (1/sqrt d) sum_l w^{kl} |l>} with w = exp(2*pi*i/d); for d = 2
    this is {|+>, |->} with |+> reported as 0 and |-> as 1.
    """

    COMPUTATIONAL = "computational"
    FOURIER = "fourier"


class SizeCapError(ValueError):
    """Raised when a construction would exceed the d**n <= 2**22 cap."""


def check_cap(d: int, n: int) -> None:
    """Refuse a dense state of n sites at d over SIZE_CAP."""
    if d**n > SIZE_CAP:
        raise SizeCapError(f"state of {n} sites at d={d} exceeds the size cap")


def as_int(value, name: str, error: type[Exception] = ValueError) -> int:
    """``value`` as an int if it is a Python or numpy integer, not a bool; else ``error``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise error(f"{name} {value!r} is not an integer")
    return int(value)


def as_real(value, name: str, error: type[Exception] = ValueError):
    """``value`` if it is a Python or numpy real number, not a bool; else ``error``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} {value!r} is not a real number")
    return value


def as_dim(value, name: str = "d", error: type[Exception] = ValueError) -> int:
    """``value`` as a dimension: an integer (``as_int``) of at least 2; else ``error``."""
    if (d := as_int(value, name, error)) < 2:
        raise error(f"{name} must be >= 2")
    return d


def as_seed(value, error: type[Exception] = ValueError) -> int:
    """``value`` as a non-negative integer seed (``as_int``); else ``error``."""
    if (seed := as_int(value, "seed", error)) < 0:
        raise error(f"seed {seed} is negative")
    return seed


def _norm_error(amps: np.ndarray) -> float:
    """Largest |norm - 1| over the rows (last axis) of amplitudes in any
    layout, as one float dot per row: no BLAS call, which can stall on
    mid-sized vectors under threaded OpenBLAS."""
    flat = np.ascontiguousarray(amps, dtype=complex).view(np.float64)
    return float(np.abs(np.sqrt(np.einsum("...i,...i->...", flat, flat)) - 1.0).max())


@dataclass(frozen=True)
class QuditState:
    """Normalized pure state of ``n`` sites with local dimension ``d``."""

    d: int
    n: int
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("local dimension must be >= 2")
        if self.n < 1:
            raise ValueError("site count must be >= 1")
        check_cap(self.d, self.n)
        if self.amps.shape != (self.d**self.n,):
            raise ValueError("amplitude vector has wrong length")
        if (err := _norm_error(self.amps)) > NORM_TOL:
            raise ValueError(f"state is not normalized (|norm-1| = {err:.3e})")

    @classmethod
    def unchecked(cls, d: int, n: int, amps: np.ndarray) -> "QuditState":
        """Wrap amplitudes known to be normalized, skipping the norm check."""
        state = cls.__new__(cls)
        state.__dict__.update(d=d, n=n, amps=amps)
        return state

    def tensor_view(self) -> np.ndarray:
        """Amplitudes reshaped to an n-axis tensor, one axis per site."""
        return self.amps.reshape([self.d] * self.n)

    def to_json(self) -> list[list[float]]:
        """Serialize amplitudes as a list of [re, im] pairs."""
        return [[float(a.real), float(a.imag)] for a in self.amps]

    @classmethod
    def from_json(cls, d: int, n: int, pairs) -> "QuditState":
        amps = np.array([complex(re, im) for re, im in pairs], dtype=complex)
        return cls(d, n, amps)


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Unitary on ``arity`` sites of dimension ``d``; equal and hashed by identity."""

    d: int
    arity: int
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        dim = self.d**self.arity
        if self.mat.shape != (dim, dim):
            raise ValueError("operator matrix has wrong shape")
        if not np.allclose(self.mat.conj().T @ self.mat, np.eye(dim), atol=NORM_TOL):
            raise ValueError("operator is not unitary")

    def dagger(self) -> "OperatorMatrix":
        return OperatorMatrix(self.d, self.arity, self.mat.conj().T)

    @cached_property
    def monomial(self) -> tuple[np.ndarray, np.ndarray | None] | None:
        """(source, phase) with (op @ v)[i] = phase[i] * v[source[i]] when
        each row holds one nonzero entry (a permutation with phases), else
        None; phase is None when every entry is 1."""
        if np.count_nonzero(self.mat) != len(self.mat):
            return None
        src = np.argmax(self.mat != 0, axis=1)
        phase = self.mat[np.arange(len(src)), src]
        return src, None if (phase == 1).all() else phase


@dataclass(frozen=True, eq=False)
class Branches:
    """Kept branches of one measurement as one block: ``values`` (B x t ints,
    in target order), ``probs`` (B) and ``posts`` (B rows of the renormalized
    state over the n unmeasured sites, in their original relative order, or
    None when every site was measured)."""

    d: int
    n: int
    values: np.ndarray
    probs: np.ndarray
    posts: np.ndarray | None

    def __len__(self) -> int:
        return len(self.probs)


# ---------------------------------------------------------------------------
# State constructors
# ---------------------------------------------------------------------------

def basis_state(d: int, values: list[int]) -> QuditState:
    """Product state |v0 v1 ... v_{n-1}>."""
    d, values = as_int(d, "d"), [as_int(v, "site value") for v in values]
    n = len(values)
    if n == 0:
        raise ValueError("need at least one site")
    for v in values:
        if not 0 <= v < d:
            raise ValueError(f"site value {v} out of range for d={d}")
    check_cap(d, n)
    amps = np.zeros(d**n, dtype=complex)
    idx = 0
    for v in values:
        idx = idx * d + v
    amps[idx] = 1.0
    return QuditState(d, n, amps)


@lru_cache(maxsize=None, typed=True)
def canonical_bell(d: int, m: int, n: int) -> QuditState:
    """Maximally entangled two-site state (1/sqrt d) sum_i w^{mi} |i, i-n>.

    Index arithmetic is mod d; (m, n) = (0, 0) gives (1/sqrt d) sum |i, i>.
    Cached and read-only, like ``canonical_ghz``.
    """
    d, m, n = as_dim(d), as_int(m, "m"), as_int(n, "n")
    if not (0 <= m < d and 0 <= n < d):
        raise ValueError("bell labels out of range")
    w, i = np.exp(2j * np.pi / d), np.arange(d)
    amps = np.zeros(d * d, dtype=complex)
    amps[i * d + (i - n) % d] = w ** (m * i) / np.sqrt(d)
    amps.flags.writeable = False
    return QuditState(d, 2, amps)


@lru_cache(maxsize=None, typed=True)
def canonical_ghz(d: int, n_sites: int) -> QuditState:
    """(1/sqrt d) sum_i |i, i, ..., i> over n_sites parties (n_sites >= 2);
    one cached, read-only state per argument pair."""
    d, n_sites = as_int(d, "d"), as_int(n_sites, "n_sites")
    if n_sites < 2 or d < 2:
        raise ValueError("GHZ state needs d >= 2 and at least 2 sites")
    check_cap(d, n_sites)
    amps = np.zeros(d**n_sites, dtype=complex)
    step = (d**n_sites - 1) // (d - 1)  # index of |i,i,...,i> is i * step
    amps[::step] = 1 / np.sqrt(d)
    amps.flags.writeable = False
    return QuditState(d, n_sites, amps)


# ---------------------------------------------------------------------------
# Operator constructors
# ---------------------------------------------------------------------------

# Operator constructors are cached (their matrices are never mutated), by
# argument type too, so a float or bool argument never hits an int's entry.

@lru_cache(maxsize=None, typed=True)
def identity_op(d: int) -> OperatorMatrix:
    d = as_dim(d)
    return OperatorMatrix(d, 1, np.eye(d, dtype=complex))


@lru_cache(maxsize=None, typed=True)
def fourier_op(d: int) -> OperatorMatrix:
    """d-dimensional Fourier transform, F[k][l] = w^{kl} / sqrt(d)."""
    d = as_dim(d)
    w = np.exp(2j * np.pi / d)
    kl = np.outer(np.arange(d), np.arange(d))
    return OperatorMatrix(d, 1, w**kl / np.sqrt(d))


@lru_cache(maxsize=None)
def fourier_inv_op(d: int) -> OperatorMatrix:
    return fourier_op(d).dagger()


@lru_cache(maxsize=None, typed=True)
def shift_op(d: int) -> OperatorMatrix:
    """Conditional shift |k>|j> -> |k>|j-k mod d> (coin site first).

    A permutation on two sites; for d = 2 this is exactly the CNOT gate.
    """
    d = as_dim(d)
    mat = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        for j in range(d):
            mat[k * d + (j - k) % d, k * d + j] = 1.0
    return OperatorMatrix(d, 2, mat)


@lru_cache(maxsize=None, typed=True)
def label_shift_op(d: int, m: int, n: int) -> OperatorMatrix:
    """The single-site unitary sum_i w^{-mi} |i-n><i| (indices mod d).

    Applied to the first site, it maps canonical_bell(d, m, n) to
    canonical_bell(d, 0, 0).  Labels are taken mod d.
    """
    d = as_dim(d)
    m = as_int(m, "m") % d
    n = as_int(n, "n") % d
    w = np.exp(2j * np.pi / d)
    mat = np.zeros((d, d), dtype=complex)
    for i in range(d):
        mat[(i - n) % d, i] = w ** (-m * i)
    return OperatorMatrix(d, 1, mat)


def pauli_x(d: int) -> OperatorMatrix:
    """Cyclic raise operator |i> -> |i+1 mod d>; the Pauli X for d = 2."""
    return label_shift_op(d, 0, d - 1)


def pauli_z(d: int) -> OperatorMatrix:
    """Clock operator |i> -> w^i |i>; the Pauli Z for d = 2."""
    return label_shift_op(d, d - 1, 0)


def pauli_ops(d: int) -> tuple[OperatorMatrix, OperatorMatrix]:
    """(X_d, Z_d) pair; the full family is available via label_shift_op."""
    return pauli_x(d), pauli_z(d)


# ---------------------------------------------------------------------------
# Composition and evolution
# ---------------------------------------------------------------------------

def tensor(a: QuditState, b: QuditState) -> QuditState:
    """Product state with the sites of ``a`` preceding the sites of ``b``;
    the product of two normalized states is normalized, so it is not rechecked."""
    if a.d != b.d:
        raise ValueError("local dimensions differ")
    check_cap(a.d, a.n + b.n)
    return QuditState.unchecked(a.d, a.n + b.n, np.multiply.outer(a.amps, b.amps).reshape(-1))


def apply(state: QuditState, op: OperatorMatrix, sites: list[int]) -> QuditState:
    """Apply ``op`` to the given sites (ordered) and leave the rest untouched.

    A permutation with phases (``op.monomial``: shifts, X, Z, label shifts)
    of any arity is one ``take`` on a (before, span, after) view, the span
    running from the op's first site to its last, then one in-place phase
    product: one new array besides the span's index table.  Any other
    one-site op runs on a (before, site, after) view; any other op on
    several sites (none in this library) has its sites' axes moved to the
    front for one matrix product and back.
    """
    if op.d != state.d:
        raise ValueError("operator and state dimensions differ")
    if op.arity != len(sites):
        raise ValueError("operator arity does not match site count")
    if len(set(sites)) != len(sites):
        raise ValueError("sites must be distinct")
    for s in sites:
        if not 0 <= s < state.n:
            raise ValueError(f"site {s} out of range")
    d, n, k = state.d, state.n, len(sites)
    lo, hi = min(sites), max(sites)
    if op.monomial is not None:
        gather = _span_gather if d ** (hi - lo + 1) <= SPAN_CACHE else _span_gather.__wrapped__
        source, phase, shape = gather(op, tuple(s - lo for s in sites))
        out = state.amps.reshape(d**lo, len(source), -1).take(source, axis=1)
        if phase is not None:
            view = out.reshape(d**lo, *shape, -1)
            view *= phase
        return QuditState.unchecked(d, n, out.reshape(-1))
    if k == 1:
        out = _matmul_axis(op.mat, state.amps.reshape(d**lo, d, -1))
    else:  # no library op: the op's axes to the front and back
        tens = np.moveaxis(state.tensor_view(), sites, range(k))
        out = np.moveaxis((op.mat @ tens.reshape(d**k, -1)).reshape(tens.shape), range(k), sites)
    return QuditState.unchecked(d, n, np.ascontiguousarray(out).reshape(-1))


# index tables of at most this many entries (32 KiB) are cached, 64 of them; a
# larger one is rebuilt per call, a pass that is small next to the gather
SPAN_CACHE = 2**12


@lru_cache(maxsize=64)
def _span_gather(op: OperatorMatrix, rel: tuple[int, ...]):
    """(source, phase, shape) of a monomial op on the sites at ``rel`` within
    their span.  Entry i of the span reads entry source[i] of the input and is
    then multiplied by ``phase`` (None when every phase is 1), which
    broadcasts over the output viewed as (before, *shape, after); ``shape`` is
    (d, gap, d, ..., gap, d), one axis per op site in span order and one per
    run of other sites between them.  The table is the op's d^k source
    offsets broadcast over the gap blocks, one pass over its d^span entries."""
    d, k = op.d, len(rel)
    src, phase = op.monomial
    order, pos = np.argsort(rel), sorted(rel)
    span = pos[-1] + 1
    # each op index's source, as an offset in the span, on op axes in span order
    digits = src[:, None] // d ** np.arange(k - 1, -1, -1) % d
    offsets = (digits @ d ** (span - 1 - np.array(rel))).reshape((d,) * k).transpose(order)
    gaps = [d ** (b - a - 1) for a, b in zip(pos, pos[1:])]
    shape = (*(x for g in gaps for x in (d, g)), d)
    units = (*(x for _ in gaps for x in (d, 1)), d)
    gap_offsets = 0
    for j, (b, g) in enumerate(zip(pos[1:], gaps)):
        axes = [1] * len(shape)
        axes[2 * j + 1] = g
        gap_offsets = gap_offsets + (np.arange(g) * d ** (span - b)).reshape(axes)
    # left writeable: ndarray.take copies a read-only index array on every call
    source = (offsets.reshape(units) + gap_offsets).reshape(-1)
    if phase is not None:
        phase = phase.reshape((d,) * k).transpose(order).reshape(*units, 1)
    return source, phase, shape


def _matmul_axis(mat: np.ndarray, view: np.ndarray) -> np.ndarray:
    """``mat`` applied along the middle axis of a (before, m, after) array: one
    matrix product per leading index when the trailing block holds 64 or more
    entries (or nothing leads), else the axis moved to the front for one."""
    if view.shape[2] >= 64 or view.shape[0] == 1:
        return np.matmul(mat, view)
    out = np.matmul(mat, view.transpose(1, 0, 2).reshape(len(mat), -1))
    return out.reshape(view.shape[1], view.shape[0], -1).transpose(1, 0, 2)


def fidelity(a: QuditState, b: QuditState) -> float:
    """|<a|b>|^2 -- invariant under a global phase of either argument."""
    if a.d != b.d or a.n != b.n:
        raise ValueError("states have different shapes")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure_all_branches(state: QuditState, targets: list[tuple[int, Basis]]) -> Branches:
    """Enumerate every outcome of measuring ``targets`` (site, basis) in order.

    Fourier-basis targets are realized by applying the inverse Fourier
    transform to the site and then reading it out computationally, so the
    reported value k corresponds to the basis element |k~>.  Branches with
    probability below 1e-12 are pruned; the surviving probabilities sum to 1
    within 1e-9.  One ``Branches`` block; post-states lack the measured sites.

    Row r of the outcome rows holds the unnormalized amplitudes of the
    unmeasured sites for the outcome whose results, in target order, are the
    base-d digits of r.  The targets move to the front once; each Fourier
    target's inverse Fourier transform is then one matrix product on a
    (d^j, d, rest) view of the rows, j its place in target order.
    """
    if not targets:
        raise ValueError("no measurement targets given")
    sites = [s for s, _ in targets]
    if len(set(sites)) != len(sites):
        raise ValueError("measurement targets must be distinct")
    d, n, t = state.d, state.n, len(targets)
    for s in sites:
        if not 0 <= s < n:
            raise ValueError(f"site {s} out of range")
    rows = np.moveaxis(state.tensor_view(), sites, range(t)).reshape(d**t, -1)
    finv = fourier_inv_op(d).mat
    for j, (_, basis) in enumerate(targets):
        if basis is Basis.FOURIER:
            rows = _matmul_axis(finv, rows.reshape(d**j, d, -1)).reshape(d**t, -1)
    probs = np.linalg.norm(rows, axis=1) ** 2
    kept = np.nonzero(probs >= BRANCH_PRUNE)[0]
    total = float(probs[kept].sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise AssertionError(f"branch probabilities sum to {total}, not 1")
    # one block of post-states, out of place if it is every row: rows may view state.amps
    if len(kept) == len(rows):
        posts = np.divide(rows, np.sqrt(probs)[:, None], order="C")
    else:
        posts = rows[kept]
        posts /= np.sqrt(probs[kept])[:, None]
    if (err := _norm_error(posts)) > NORM_TOL:
        raise ValueError(f"post-state is not normalized (|norm-1| = {err:.3e})")
    values = kept[:, None] // d ** np.arange(t - 1, -1, -1) % d
    return Branches(d, n - t, values, probs[kept], posts if n > t else None)
