"""The secret-sharing GHZ step's closed-form law against its dense circuit.

Per coin, F_c^dag S(c -> p) F_c = F_p^dag S(p -> c) F_p, so in the
position's Fourier frame the star merge is identity-coin walks from ``pos``
onto each coin, computational coin readouts and one Fourier readout of
``pos``: a qudit Clifford circuit.  That identity is checked here on the
walk that ``walk_step`` runs.  The secret-sharing GHZ step draws from its
closed-form law (``mqss.generate_shared_ghz``): every (q~_1, ..., q~_M, u0) in
product order, each at probability d^-(M+1), with residual
``shared_ghz_closed_form``.  The paper circuit, the session's step 3 as one
stage (``dense_reference.mqss_ghz_circuit``) run by ``run_stages``, is the
reference that law is checked against: the same values in the same order,
probabilities and residual amplitudes within 1e-12.
"""

from itertools import product

import numpy as np
import pytest

from walknet import mqss
from walknet.protocols import run_stages, walk_step
from walknet.qudit import QuditState, apply, fourier_op, identity_op

from dense_reference import mqss_ghz_circuit

TOL = 1e-12


MQSS_SHAPES = [(d, m) for d in range(2, 17) for m in range(1, 8) if d ** (2 * m + 2) <= 2**16]


@pytest.mark.parametrize("d, m", MQSS_SHAPES)
def test_mqss_circuit(d, m):
    stage, outputs = mqss_ghz_circuit(d, m)
    dense = list(run_stages([stage], outputs))
    assert [v for v, _, _ in dense] == list(product(range(d), repeat=m + 1))
    for (*coins, u0), p, post in dense:
        assert abs(p - d ** -(m + 1)) <= TOL
        closed = mqss.shared_ghz_closed_form(d, coins, u0)
        assert np.abs(post.amps - closed.amps).max() <= TOL


@pytest.mark.parametrize("d", range(2, 8))
def test_a_fourier_coin_walk_is_the_swapped_walk_in_the_fourier_frame(d):
    # F_c^dag S(c -> p) F_c = F_p^dag S(p -> c) F_p on (c, p) = sites (0, 1),
    # S(x -> y) the walk's y -= x: on every basis state and a random state
    f = fourier_op(d)
    rng = np.random.default_rng(d)
    amps = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
    states = [QuditState(d, 2, row.astype(complex)) for row in np.eye(d * d)]
    for state in states + [QuditState(d, 2, amps / np.linalg.norm(amps))]:
        coin_walk = apply(walk_step(state, 0, 1, f), f.dagger(), [0])
        framed = apply(walk_step(apply(state, f, [1]), 1, 0, identity_op(d)), f.dagger(), [1])
        assert np.abs(coin_walk.amps - framed.amps).max() <= TOL
