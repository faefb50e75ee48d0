"""Per-qubit readout-error modeling and count correction.

Each qubit j gets a 2x2 transfer matrix built from its readout fidelities
F0 (P(read 0 | prepared 0)) and F1 (P(read 1 | prepared 1)).  Two layouts are
supported:

  symmetric   [[F0, 1-F1], [1-F1, F1]]   -- the default; note its columns only
                                            sum to 1 when F0 == F1, so forward
                                            applications renormalize
  stochastic  [[F0, 1-F1], [1-F0, F1]]   -- column-stochastic confusion matrix

The joint n-qubit transfer matrix is the Kronecker product of the per-qubit
ones; correction applies each 2x2 inverse factor-wise along its qubit axis,
so the 2^n x 2^n joint matrix is never materialized.  Negative corrected
probabilities are clipped to zero and the distribution renormalized, with the
clipped L1 mass reported.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .qudit import QuditState, as_int, as_real, as_seed

SYMMETRIC = "symmetric"
STOCHASTIC = "stochastic"
MAX_SHOTS = int(np.iinfo(np.int64).max)  # the largest total a CountVector holds

_SINGULAR_TOL = 1e-12
_NEAR_SINGULAR = 0.1


@dataclass(frozen=True)
class TransferMatrix:
    f0: float
    f1: float
    mode: str = SYMMETRIC

    def __post_init__(self):
        if not (0.5 < as_real(self.f0, "f0") <= 1 and 0.5 < as_real(self.f1, "f1") <= 1):
            raise ValueError("readout fidelities must lie in (0.5, 1]")
        if self.mode not in (SYMMETRIC, STOCHASTIC):
            raise ValueError(f"unknown transfer-matrix mode {self.mode!r}")
        det = abs(np.linalg.det(self.matrix))
        if det < _SINGULAR_TOL:
            raise ValueError("transfer matrix is singular")
        if det < _NEAR_SINGULAR:
            warnings.warn(f"transfer matrix is near-singular (|det| = {det:.3g}); "
                          "corrected counts will be noisy", stacklevel=2)
        if self.mode == SYMMETRIC and self.f0 != self.f1:
            warnings.warn("symmetric transfer matrix is not column-stochastic "
                          "for f0 != f1; forward applications renormalize",
                          stacklevel=2)

    @property
    def matrix(self) -> np.ndarray:
        if self.mode == SYMMETRIC:
            return np.array([[self.f0, 1 - self.f1], [1 - self.f1, self.f1]])
        return np.array([[self.f0, 1 - self.f1], [1 - self.f0, self.f1]])

    @property
    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.matrix)


def transfer_matrix(f0: float, f1: float, mode: str = SYMMETRIC) -> TransferMatrix:
    return TransferMatrix(f0=f0, f1=f1, mode=mode)


@dataclass
class CountVector:
    """Shot counts over n-qubit bitstrings (qubit 0 = leftmost bit)."""

    n_qubits: int
    counts: np.ndarray

    def __post_init__(self):
        self.n_qubits = as_int(self.n_qubits, "n_qubits")
        counts = np.asarray(self.counts)
        if counts.shape != (2**self.n_qubits,):
            raise ValueError("count vector has wrong length")
        if counts.dtype.kind not in "iu":  # floats, bools, objects: each must be a whole number
            for c in counts.tolist():
                if isinstance(c, bool) or not isinstance(c, (int, float)) or c % 1:
                    raise ValueError(f"count {c!r} is not an integer")
        if (c := counts.min()) < -(2**63) or (c := counts.max()) >= 2**63:
            raise ValueError(f"a count is beyond the int64 range: {c}")
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        self.counts = counts.astype(np.int64, copy=False)
        if (total := sum(self.counts.tolist())) > MAX_SHOTS:  # Python ints
            raise ValueError(f"total shots {total} is beyond the int64 range")
        if total <= 0:
            raise ValueError("total shots must be positive")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def frequencies(self) -> np.ndarray:
        return self.counts / self.total

    def to_dict(self) -> dict[str, int]:
        return {format(i, f"0{self.n_qubits}b"): int(c)
                for i, c in enumerate(self.counts) if c}

    @classmethod
    def from_dict(cls, mapping: dict[str, int]) -> "CountVector":
        if not isinstance(mapping, dict) or not mapping:
            raise ValueError("counts must be a non-empty JSON object of bitstring: count")
        n = len(next(iter(mapping)))
        counts = np.zeros(2**n, dtype=np.int64)
        for bits, c in mapping.items():
            if not bits or len(bits) != n or set(bits) - {"0", "1"}:
                raise ValueError(f"bad bitstring {bits!r}")
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"count {c!r} for {bits!r} is not an integer")
            if abs(c) > np.iinfo(np.int64).max:
                raise ValueError(f"count {c} for {bits!r} is beyond the int64 range")
            counts[int(bits, 2)] += c
        return cls(n_qubits=n, counts=counts)


@dataclass(frozen=True)
class DeviceRecord:
    qubit: str
    f0: float
    f1: float
    extras: dict = field(default_factory=dict, hash=False, compare=False)

    def to_transfer_matrix(self, mode: str = SYMMETRIC) -> TransferMatrix:
        return TransferMatrix(f0=self.f0, f1=self.f1, mode=mode)


def load_device_records(path: str | Path) -> list[DeviceRecord]:
    """Device calibration rows from CSV (qubit,f0,f1,...) or a JSON list."""
    path = Path(path)
    rows: list[dict] = []
    if path.suffix.lower() == ".json":
        rows = json.loads(path.read_text())
    else:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    records = []
    for row in rows:
        if not isinstance(row, dict) or any(row.get(k) is None for k in ("qubit", "f0", "f1")):
            raise ValueError(f"device record {row!r} needs qubit, f0 and f1")
        try:
            f0, f1 = float(row["f0"]), float(row["f1"])
        except (TypeError, ValueError):
            raise ValueError(f"device record {row!r} has a non-numeric f0 or f1") from None
        extras = {k: v for k, v in row.items() if k not in ("qubit", "f0", "f1")}
        records.append(DeviceRecord(qubit=str(row["qubit"]), f0=f0, f1=f1, extras=extras))
    if not records:
        raise ValueError("no device records found")
    return records


def bundled_device_path() -> Path:
    return Path(__file__).parent / "data" / "device_params.csv"


# ---------------------------------------------------------------------------
# Factor-wise application and inversion
# ---------------------------------------------------------------------------

def _apply_factors(vec: np.ndarray, mats: list[np.ndarray]) -> np.ndarray:
    n = len(mats)
    tens = vec.reshape([2] * n)
    for j, mat in enumerate(mats):
        tens = np.moveaxis(np.tensordot(mat, tens, axes=([1], [j])), 0, j)
    return tens.reshape(-1)


def kron_matrix(matrices: list[TransferMatrix]) -> np.ndarray:
    """Explicit joint transfer matrix; test oracle for small qubit counts."""
    out = np.eye(1)
    for m in matrices:
        out = np.kron(out, m.matrix)
    return out


@dataclass
class CorrectedDistribution:
    probabilities: np.ndarray
    clipped_mass: float

    def to_dict(self, n_qubits: int) -> dict:
        return {
            "probabilities": {format(i, f"0{n_qubits}b"): float(p)
                              for i, p in enumerate(self.probabilities)},
            "clipped_mass": self.clipped_mass,
        }


def correct_counts(counts: CountVector, matrices: list[TransferMatrix]
                   ) -> CorrectedDistribution:
    """Invert the per-qubit transfer matrices on the empirical frequencies."""
    if len(matrices) != counts.n_qubits:
        raise ValueError("need one transfer matrix per qubit")
    raw = _apply_factors(counts.frequencies(), [m.inverse for m in matrices])
    clip_mass = float(-raw[raw < 0].sum())
    clipped = np.clip(raw, 0.0, None)
    total = clipped.sum()
    if total <= 0:
        raise ValueError("correction clipped away the whole distribution")
    return CorrectedDistribution(probabilities=clipped / total,
                                 clipped_mass=clip_mass)


def synthesize_counts(true_probs: np.ndarray, matrices: list[TransferMatrix],
                      shots: int, seed: int = 0) -> CountVector:
    """Multinomial sample of the readout-distorted distribution."""
    shots, seed = as_int(shots, "shots"), as_seed(seed)
    probs = np.asarray(true_probs, dtype=float)
    n = len(matrices)
    if probs.shape != (2**n,):
        raise ValueError("probability vector length does not match qubit count")
    if abs(probs.sum() - 1) > 1e-9 or (probs < -1e-12).any():
        raise ValueError("true probabilities must be normalized and non-negative")
    if shots < 1:
        raise ValueError("need at least one shot")
    if shots > MAX_SHOTS:
        raise ValueError(f"total shots {shots} is beyond the int64 range")
    noisy = _apply_factors(probs, [m.matrix for m in matrices])
    noisy = np.clip(noisy, 0.0, None)
    noisy /= noisy.sum()   # symmetric-mode matrices are not stochastic
    rng = np.random.default_rng(seed)
    return CountVector(n_qubits=n, counts=rng.multinomial(shots, noisy))


# ---------------------------------------------------------------------------
# Protocol fidelity under depolarizing noise
# ---------------------------------------------------------------------------

def depolarized_fidelity(p: float, overlap: float, n_qubits: int) -> float:
    """<target| rho |target> for rho = (1-p)|psi><psi| + p I / 2^n."""
    return (1 - p) * overlap + p / 2**n_qubits


def protocol_fidelity_under_noise(state, matrices: list[TransferMatrix],
                                  depolarizing_p: float, shots: int, seed: int = 0,
                                  target: QuditState | None = None) -> float:
    """Estimate <target| rho |target> from synthetic, readout-corrected counts.

    ``state`` is a QuditState or a protocol result (in which case the
    corrected output of its first branch is used).  rho is the state under
    global depolarizing noise of strength p.  The diagonal contribution comes
    from corrected synthetic counts; off-diagonal terms use the noiseless
    amplitudes scaled by the (1-p) survival factor.  With p = 0 and ideal
    readout this reproduces the noiseless fidelity up to sampling error.
    """
    if not isinstance(state, QuditState):  # a ProtocolResult
        branch = state.branches[0]
        state = branch.correction.apply_to(branch.post)
    if state.d != 2:
        raise ValueError("readout model is qubit-only (d = 2)")
    if not 0 <= as_real(depolarizing_p, "depolarizing strength") <= 1:
        raise ValueError("depolarizing strength must lie in [0, 1]")
    target = target if target is not None else state
    if target.d != 2 or target.n != state.n:
        raise ValueError("target shape mismatch")
    n = state.n
    psi2 = np.abs(state.amps) ** 2
    phi2 = np.abs(target.amps) ** 2
    diag = (1 - depolarizing_p) * psi2 + depolarizing_p / 2**n
    counts = synthesize_counts(diag, matrices, shots, seed=seed)
    corrected = correct_counts(counts, matrices).probabilities
    overlap = float(abs(np.vdot(target.amps, state.amps)) ** 2)
    diagonal_term = float(phi2 @ corrected)
    off_diag = (1 - depolarizing_p) * (overlap - float(phi2 @ psi2))
    return diagonal_term + off_diag
