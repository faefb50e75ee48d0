"""A first look at qudit states, coined walk steps, and measurement branching.

Run:  python demos/01_qudit_walks.py
"""

import numpy as np

from walknet import (
    Basis,
    basis_state,
    canonical_bell,
    canonical_ghz,
    fidelity,
    fourier_op,
    measure_all_branches,
    pauli_x,
    shift_op,
    tensor,
    walk_step,
)

print("== states ==")
psi = canonical_bell(3, 1, 0)
print("qutrit Bell state with a phase label, amplitudes:")
for i, a in enumerate(psi.amps):
    if abs(a) > 1e-12:
        print(f"  |{i // 3}{i % 3}>  {a:.4f}")

ghz = canonical_ghz(2, 3)
print(f"\n3-qubit GHZ overlap with |000>: {fidelity(ghz, basis_state(2, [0,0,0])):.3f}")

print("\n== the conditional shift is a generalized CNOT ==")
print(np.real(shift_op(2).mat).astype(int))

print("\n== one coined walk step entangles two Bell pairs ==")
state = tensor(canonical_bell(2, 0, 0), canonical_bell(2, 0, 0))
state = walk_step(state, 1, 2, pauli_x(2))        # coin on site 1, shift onto site 2
print("nonzero amplitudes after the walk:")
for i, a in enumerate(state.amps):
    if abs(a) > 1e-12:
        print(f"  |{i:04b}>  {a.real:+.2f}")

print("\n== exhaustive measurement branching ==")
# one block: a row of measured values, a probability and a post-state row per outcome
block = measure_all_branches(state, [(1, Basis.FOURIER), (2, Basis.COMPUTATIONAL)])
for values, p, post in zip(block.values.tolist(), block.probs.tolist(), block.posts):
    kets = [f"{a.real:+.2f}|{i:02b}>" for i, a in enumerate(post) if abs(a) > 1e-9]
    print(f"  outcome {''.join(map(str, values))}: p = {p:.2f}, post state {' '.join(kets)}")
print("total probability:", sum(block.probs.tolist()))

print("\n== the Fourier coin spreads a basis state uniformly ==")
f = fourier_op(5)
col = (f.mat @ np.eye(5)[0]).round(3)
print("F|0> for d=5:", col)
