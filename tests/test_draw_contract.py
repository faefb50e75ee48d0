"""The seeded draws that every sampled path relies on.

A dense sampler draws one kept branch with ``rng.choice(len(p), p=p)``.  On
numpy 2.4 that call takes one ``rng.random()`` and locates it in the
normalized cumulative sum of ``p``.

A network step, a gasket merge and the secret-sharing session's uniform
draws (the GHZ step's coins and position value, and step 4's readout) have
d^k equally likely outcomes, so each takes the k base-d digits of
floor(u d^k) from its one uniform (``protocols.Law.outcome``).  One draw site
makes every such draw, one ``rng.random`` block per call (``protocols.draw``).
A gasket merge's k = 5 free readouts fix its sixth.  Both are pinned here
against a scalar ``int(u * d**k)`` reference.  It is not the same function as a
uniform ``choice``: for d not a power of two the two differ on uniforms
within a few ulps of some boundaries i / d^k.  So the draws are also
cross-checked against a scalar ``choice`` reference written here, on the
dense law of each network step and of the triangle merge
(``dense_reference.dense_law`` and ``dense_triangle_law``) and on the
seeds below, where no uniform falls that close to a boundary.  A numpy
release that changes ``choice`` fails here rather than silently moving
seeded outcomes.
"""

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest

import walknet
from walknet import fractal, mqss, network
from walknet.network import bundled_network_path, load_network
from walknet.protocols import Law, draw
from walknet.qudit import SIZE_CAP

from dense_reference import (
    chain_net,
    dense_law,
    dense_triangle_law,
    hub_net,
    plan,
    sampled_generator,
    sixth_readout,
    step_shapes,
)


def _network_step_law(d):
    """The dense law of the star merge that joins a terminal root's two arms."""
    (shape,) = step_shapes(plan(hub_net(d, 2), [0, 1, 2]))
    return dense_law(d, shape)


def _star_merge_law(d):
    """The dense law of a 3-coin star merge: the hub of four leaves."""
    (shape,) = step_shapes(plan(hub_net(d, 4), [1, 2, 3, 4]))
    assert shape[3] == 3
    return dense_law(d, shape)


def _choice_draws(law, rng, count):
    """``count`` kept outcomes drawn the scalar way: one ``rng.choice`` each."""
    return [law.outcomes[rng.choice(len(law.outcomes), p=law.probs)] for _ in range(count)]


LAWS = {
    "gasket-merge": lambda: dense_triangle_law(3),
    "network-step": lambda: _network_step_law(3),
    "star-merge-d2": lambda: _star_merge_law(2),
    "star-merge-d3": lambda: _star_merge_law(3),
}


@pytest.mark.parametrize("name", sorted(LAWS))
def test_choice_is_one_uniform_located_in_the_cumulative_sum(name):
    p = LAWS[name]().probs
    assert len(p) > 1
    for seed in range(4):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(8):
            cdf = np.cumsum(p)
            want = np.searchsorted(cdf / cdf[-1], ref.random(), side="right")
            assert rng.choice(len(p), p=p) == want
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_gasket_schedule_equals_scalar_choice(monkeypatch, d):
    count = (3**6 - 1) // 2
    ref = np.random.default_rng(d)
    law = dense_triangle_law(d)
    want = [law.rows[values][0].label for values in _choice_draws(law, ref, count)]
    result, state = sampled_generator(
        monkeypatch, lambda: fractal.execute_merge_schedule(6, d=d, seed=d))
    assert result.merge_count == count
    assert result.corrections == want
    assert state == ref.bit_generator.state


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_gasket_schedule_draws_floor_u_d_5(monkeypatch, d):
    # one uniform per merge, in schedule order: the five free readouts are the
    # digits of int(u * d**5), and with the sixth they are a kept outcome of
    # the dense law, whose correction the merge reports
    law, count = dense_triangle_law(d), (3**6 - 1) // 2
    label = Law.label
    for seed in range(10):
        ref, want = np.random.default_rng(seed), []
        for u in ref.random(count).tolist():
            free = tuple(_floor_digits(u, d, 5))
            want.append((int(u * d**5), law.rows[free + (sixth_readout(d, free),)][0].label))
        drawn = []
        monkeypatch.setattr(Law, "label", lambda self, i: drawn.append(i) or label(self, i))
        result, state = sampled_generator(
            monkeypatch, lambda: fractal.execute_merge_schedule(6, d=d, seed=seed))
        assert list(zip(drawn, result.corrections)) == want
        assert state == ref.bit_generator.state
        assert result.fidelity == 1.0


def _chain_plan(d):
    return plan(chain_net(d, 12), [0, 11])


def _hub_plan(d):
    return plan(hub_net(d, 6), list(range(1, 7)))


def _network14_plan(d):
    return plan(load_network(bundled_network_path()), [1, 2, 5, 12, 13, 14])


def _floor_digits(u, d, k):
    """The k base-d digits of int(u * d**k), most significant first."""
    i, digits = int(u * d**k), []
    for _ in range(k):
        i, digit = divmod(i, d)
        digits.insert(0, digit)
    return digits


@pytest.mark.parametrize("schedule, d", [(_chain_plan, 2), (_chain_plan, 3), (_chain_plan, 5),
                                         (_chain_plan, 6), (_hub_plan, 2), (_hub_plan, 3),
                                         (_network14_plan, 2), (_network14_plan, 3)],
                         ids=["chain-2", "chain-3", "chain-5", "chain-6", "hub-2", "hub-3",
                              "network14-2", "network14-3"])
def test_network_schedule_draws_floor_u_d_k(monkeypatch, schedule, d):
    # one uniform per step, in step order; k readouts per step, coins then pos
    sched = schedule(d)
    ref, want = np.random.default_rng(d), []
    for shape in step_shapes(sched):
        _, coins, pos, _, _ = network._step_circuit(*shape)
        want.append(_floor_digits(ref.random(), d, len(coins) + (pos is not None)))
    result, state = sampled_generator(
        monkeypatch, lambda: network.execute_schedule(sched, d=d, seed=d))
    assert [o["outcome"] for o in result.outcomes] == want
    assert state == ref.bit_generator.state


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("schedule", [_chain_plan, _hub_plan, _network14_plan],
                         ids=["chain", "hub", "network14"])
def test_network_schedule_equals_scalar_choice(monkeypatch, schedule, d):
    sched = schedule(d)
    ref, want = np.random.default_rng(d), []
    for shape in step_shapes(sched):
        law = dense_law(d, shape)
        (values,) = _choice_draws(law, ref, 1)
        want.append((list(values), law.rows[values][0].label))
    result, state = sampled_generator(
        monkeypatch, lambda: network.execute_schedule(sched, d=d, seed=d))
    assert [(o["outcome"], o["correction"]) for o in result.outcomes] == want
    assert state == ref.bit_generator.state


def _drawn(monkeypatch, uniforms, n):
    """``draw``'s indices for an outcome count n when its block holds ``uniforms``."""
    class Block:
        def random(self, count):
            assert count == len(uniforms)
            return np.array(uniforms, dtype=float)

    with monkeypatch.context() as mp:
        mp.setattr(np.random, "default_rng", lambda seed: Block())
        return draw(0, n, len(uniforms), "unused")


@pytest.mark.parametrize("d, k", [(2, 1), (2, 5), (3, 1), (3, 2), (4, 2), (5, 1), (5, 3),
                                  (6, 2), (7, 1)])
def test_drawn_digits_are_the_digits_of_floor_u_d_k(monkeypatch, d, k):
    rng = np.random.default_rng(d * 10 + k)
    edges = [np.nextafter(i / d**k, side) for i in range(d**k + 1) for side in (0.0, 1.0)]
    uniforms = rng.random(500).tolist() + [u for u in edges if 0 <= u < 1]
    drawn = _drawn(monkeypatch, uniforms + [np.nextafter(1.0, 0.0)], d**k)
    for u, i in zip(uniforms, drawn):
        assert list(Law(d, k, None).outcome(i)) == _floor_digits(u, d, k)
    assert Law(d, k, None).outcome(drawn[-1]) == (d - 1,) * k


@pytest.mark.parametrize("n", [2**3, 4**2, 3, 3**2, 5, 6, 7, 4 * 7**3, 2**53])
def test_vector_and_scalar_floors_agree_on_boundary_uniforms(monkeypatch, n):
    # the uniforms next to each boundary i / n that the choice scan below
    # visits (the first 64 at n = 2^53), and the last uniform below 1
    uniforms = []
    for i in range(1, min(n, 64) + 1):
        u = i / n
        for _ in range(4):
            u = np.nextafter(u, 0.0)
        for _ in range(9):
            uniforms += [u] if u < 1 else []
            u = np.nextafter(u, 1.0)
    uniforms.append(np.nextafter(1.0, 0.0))
    drawn = _drawn(monkeypatch, uniforms, n)
    assert drawn == [int(u * n) for u in uniforms]
    assert drawn[-1] == n - 1


def test_draw_refuses_past_2_53_before_making_a_generator(monkeypatch):
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with monkeypatch.context() as mp:
        mp.setattr(np.random, "default_rng", lambda *a: pytest.fail("made a generator"))
        for seed in (0, rng):
            for outcomes in (2**53 + 1, [4, 2**53 + 1, 2]):
                with pytest.raises(ValueError, match="^too many$"):
                    draw(seed, outcomes, 3, "too many")
    assert rng.bit_generator.state == state
    # a passed generator is drawn on in place: one draw is its next rng.random()
    ref = np.random.default_rng(3)
    assert draw(rng, 2**53, 1, "unused") == [int(ref.random() * 2**53)]
    assert rng.bit_generator.state == ref.bit_generator.state


def _calls(node, names, scope):
    """(name, scope) of each call of one of ``names`` under ``node``; scope is
    the dotted name of the innermost enclosing functions and classes."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        elif isinstance(child, ast.Call):
            name = getattr(child.func, "attr", getattr(child.func, "id", None))
            if name in names:
                yield name, scope
        yield from _calls(child, names, inner)


def test_one_draw_site():
    # every .random( call of the library is protocols.draw's block or the random
    # tree generator, and check_draw is called by draw and the session's up-front checks
    found = {"random": set(), "check_draw": set()}
    for path in sorted(Path(walknet.__file__).parent.glob("*.py")):
        for name, scope in _calls(ast.parse(path.read_text()), found, path.stem):
            found[name].add(scope)
    assert found["random"] == {"protocols.draw", "network.random_tree_instance"}
    assert found["check_draw"] == {"protocols.draw", "mqss.MqssConfig.validate"}


@pytest.mark.parametrize("d, k, boundaries", [(2, 3, 0), (4, 2, 0), (3, 1, 0), (3, 2, 6),
                                              (5, 1, 1), (6, 1, 5), (7, 1, 5)])
def test_floor_and_choice_differ_only_next_to_a_boundary(d, k, boundaries):
    # the uniform choice over d^k outcomes locates u among cumsum(1/d^k) / sum,
    # whose boundaries can miss i / d^k by a few ulps when d is not a power of two
    n = d**k
    cdf = np.cumsum(np.full(n, 1 / n))
    cdf /= cdf[-1]

    def differ(u):
        return int(u * n) != int(np.searchsorted(cdf, u, side="right"))

    near = set()
    for i in range(1, n + 1):
        u = i / n
        for _ in range(4):
            u = np.nextafter(u, 0.0)
        for _ in range(9):
            if u < 1 and differ(u):
                near.add(i)
            u = np.nextafter(u, 1.0)
    assert not any(map(differ, np.random.default_rng(n).random(2000).tolist()))
    assert len(near) == boundaries


def _uniform_choices(rng, d, count):
    """``count`` digits drawn the scalar way: one uniform ``rng.choice`` each."""
    return [int(rng.choice(d, p=np.full(d, 1 / d))) for _ in range(count)]


# the shapes the old session cap served (d^(M+3) within the size cap), which
# the transcript pins cover
MQSS_SHAPES = [(d, m) for d in range(2, 8) for m in range(1, 5) if d ** (m + 3) <= SIZE_CAP]
SESSION_SHAPES = [(d, m) for d, m in MQSS_SHAPES if m >= 2]  # a session has two or more


@pytest.mark.parametrize("d, m", MQSS_SHAPES)
def test_shared_ghz_draws_equal_scalar_choice(monkeypatch, d, m):
    # the M coins, then the position value: one uniform digit per readout
    for seed in range(20):
        ref = np.random.default_rng(seed)
        *coins, u0 = _uniform_choices(ref, d, m + 1)
        (_, got_coins, got_u0), state = sampled_generator(
            monkeypatch, lambda: mqss.generate_shared_ghz(d, m, seed=seed))
        assert (got_coins, got_u0) == (coins, u0)
        assert state == ref.bit_generator.state
        floor = [int(u * d) for u in np.random.default_rng(seed).random(m + 1).tolist()]
        assert floor == coins + [u0]


@pytest.mark.parametrize("d, m", SESSION_SHAPES)
def test_session_readout_draw_equals_scalar_choice(monkeypatch, d, m):
    # step 4 reads support entry i of the residual, in index order: r0 = i - q~_1
    real = np.random.default_rng
    for seed in range(20):
        made = []
        with monkeypatch.context() as mp:
            mp.setattr(np.random, "default_rng", lambda s: made.append(real(s)) or made[-1])
            t = mqss.run_mqss(mqss.MqssConfig(d=d, participants=m, secret=seed,
                                              detect_pairs=2, seed=seed))
        ref = np.random.default_rng(seed)
        for _ in range(2 * m + 1):  # one per link and channel check, then the GHZ seed
            ref.integers(2**31)
        (i,) = _uniform_choices(ref, d, 1)
        r0 = (i - t.coin_results[0]) % d
        assert t.dealer_result == r0
        assert t.participant_results == [(r0 + q) % d for q in t.coin_results]
        assert made[0].bit_generator.state == ref.bit_generator.state


def test_session_transcripts_are_pinned():
    # 360 sessions: d = 2-7, M = 2-4 under the size cap, seeds 0-9, with and
    # without an intercept-resend attack on channel 1
    h = hashlib.sha256()
    for d, m in SESSION_SHAPES:
        for seed in range(10):
            for eavesdrop in (None, 1):
                config = mqss.MqssConfig(d=d, participants=m, secret=7 * seed - 3, detect_pairs=5,
                                         eavesdrop_channel=eavesdrop, seed=seed)
                h.update(mqss.run_mqss(config).to_json().encode())
    assert h.hexdigest() == "0d1ccf4ef38c85960b500c248ebcfd1667a1b38d8553a1eeb8800e8a3134b4cf"
