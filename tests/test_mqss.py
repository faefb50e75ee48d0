"""Secret-sharing protocol: channel checks, GHZ step, round trips."""

import hashlib
import importlib
from fractions import Fraction

import numpy as np
import pytest

from walknet import mqss, network
from walknet.mqss import (
    INTERCEPT_RESEND,
    MqssConfig,
    _disagrees,
    channel_check,
    encode_public,
    generate_shared_ghz,
    intercept_resend_error_rate,
    reconstruct,
    run_mqss,
    shared_ghz_closed_form,
)
from walknet.qudit import (
    SIZE_CAP,
    SizeCapError,
    apply,
    canonical_bell,
    canonical_ghz,
    fidelity,
    fourier_op,
)

from dense_reference import dense_pair_law, forbid_dense_builds


@pytest.mark.parametrize("d", range(2, 8))
def test_twirl_leaves_reference_bell_invariant(d):
    f = fourier_op(d)
    state = canonical_bell(d, 0, 0)
    twirled = apply(apply(state, f, [0]), f.dagger(), [1])
    assert fidelity(twirled, state) >= 1 - 1e-10


@pytest.mark.parametrize("d", range(2, 8))
def test_no_eavesdropper_error_rate_exactly_zero(d):
    rate, abort = channel_check(d, pairs=80, seed=d * 7)
    assert rate == 0.0
    assert not abort


@pytest.mark.parametrize("d", range(2, 8))
def test_intercept_resend_oracle_closed_form(d):
    # attacker guesses the right basis half the time; a wrong guess leaves
    # both readouts uniform, so the error probability is (1 - 1/d) / 2
    assert intercept_resend_error_rate(d) == pytest.approx((1 - 1 / d) / 2, abs=1e-12)


def digit_rule_law(d):
    """The attacked check's digit rule expanded over its 4d^3 sub-leaves into
    the leaves of the ``[block, single] * d + [single, block] * d`` table (a
    block is d^2 readouts (x, y), a single one): (the leaf of each sub-leaf,
    leaf masses, leaf flags).  Every sub-leaf of a leaf carries its flag."""
    blocks = np.array([True, False] * d + [False, True] * d)
    sizes = np.where(blocks, d * d, 1)
    i = np.arange(4 * d**3)
    group = i // d**2
    leaf = (np.cumsum(sizes) - sizes)[group] + np.where(blocks[group], i % d**2, 0)
    counts = np.bincount(leaf)
    flagged = np.bincount(leaf, weights=_disagrees(i, d))
    assert np.all((flagged == 0) | (flagged == counts))
    return leaf, counts / (4 * d**3), flagged > 0


def check_law(d, eavesdrop):
    """One detecting pair's law as ``channel_check`` reads it: (leaf masses,
    leaf flags).  Attacked, the digit rule's leaves (``digit_rule_law``).
    Clean, each shared basis reads x = y = v for a uniform v: 2d agreeing
    leaves of mass 1/(2d), whose disagreeing mass, 0, the check returns
    without a draw."""
    if eavesdrop:
        return digit_rule_law(d)[1:]
    return np.full(2 * d, 1 / (2 * d)), np.zeros(2 * d, dtype=bool)


@pytest.mark.parametrize("d", range(2, 8))
@pytest.mark.parametrize("eavesdrop", [False, True])
def test_pair_law_is_a_distribution(d, eavesdrop):
    law, disagree = check_law(d, eavesdrop)
    assert law.shape == disagree.shape
    assert np.all(law > 0)
    assert law.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d", range(2, 8))
def test_clean_law_puts_no_mass_on_disagreement(monkeypatch, d):
    # the clean check's dense law has no disagreeing leaf, so it draws nothing
    law, disagree = dense_pair_law(d, False)
    assert np.all(law > 0) and law.sum() == pytest.approx(1.0, abs=1e-12)
    assert not disagree.any() and not check_law(d, False)[1].any()
    monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew"))
    assert channel_check(d, pairs=100_000, seed=d) == (0.0, False)


@pytest.mark.parametrize("d", range(2, 8))
def test_channel_check_is_seeded(d):
    first = channel_check(d, pairs=2000, eavesdropper=INTERCEPT_RESEND, seed=11)
    assert channel_check(d, pairs=2000, eavesdropper=INTERCEPT_RESEND, seed=11) == first
    assert first[0] > 0


def test_sampled_error_rate_matches_oracle_within_3_sigma():
    pairs = 10_000
    rate, _ = channel_check(2, pairs=pairs, eavesdropper=INTERCEPT_RESEND,
                            seed=5, threshold=0.9)
    p = intercept_resend_error_rate(2)
    sigma = np.sqrt(p * (1 - p) / pairs)
    assert abs(rate - p) <= 3 * sigma


def test_zero_threshold_aborts_under_attack():
    # a threshold of 0 is refused, as the session config refuses it; the
    # smallest threshold above it aborts on any error
    with pytest.raises(ValueError, match="threshold 0.0 must lie in"):
        channel_check(2, pairs=50, eavesdropper=INTERCEPT_RESEND, seed=3, threshold=0.0)
    rate, abort = channel_check(2, pairs=50, eavesdropper=INTERCEPT_RESEND,
                                seed=3, threshold=np.nextafter(0.0, 1.0))
    assert rate > 0
    assert abort


def test_channel_check_validation():
    with pytest.raises(ValueError):
        channel_check(2, pairs=0)
    with pytest.raises(ValueError):
        channel_check(2, pairs=5, eavesdropper="entangling-probe")


@pytest.mark.parametrize("d,m", [(2, 1), (2, 3), (3, 2), (5, 2), (7, 3)])
def test_generate_shared_ghz_matches_closed_form(d, m):
    state, coins, u0 = generate_shared_ghz(d, m, seed=d * 100 + m)
    assert len(coins) == m
    assert state.n == m + 1
    assert fidelity(state, shared_ghz_closed_form(d, coins, u0)) >= 1 - 1e-9


def test_zero_outcomes_give_canonical_ghz():
    assert fidelity(shared_ghz_closed_form(3, [0, 0], 0),
                    canonical_ghz(3, 3)) >= 1 - 1e-12


def test_two_party_case_is_bell():
    state, coins, u0 = generate_shared_ghz(2, 1, seed=0)
    assert state.n == 2
    assert fidelity(state, shared_ghz_closed_form(2, coins, u0)) >= 1 - 1e-9


def test_encode_example():
    p = encode_public(5, [1, 3], 2, 2)
    assert p == Fraction(-3, 2)
    assert reconstruct(p, [1, 3], 2, 2) == 5


def test_encode_trivial_cases():
    assert encode_public(6, [0, 0], 0, 2) == Fraction(3)
    assert encode_public(0, [0, 0], 0, 2) == 0
    assert reconstruct(Fraction(3), [0, 0], 0, 2) == 6


BAD_ENCODINGS = [
    ("encode_public", (5.5, [1, 2], 0, 2), "secret 5.5 is not an integer"),
    ("encode_public", (True, [1, 2], 0, 2), "secret True is not an integer"),
    ("encode_public", (5, [1, 2.0], 0, 2), "coin result 2.0 is not an integer"),
    ("encode_public", (5, [1, 2], "0", 2), "dealer result '0' is not an integer"),
    ("encode_public", (5, [1, 2], 0, 0), "need at least one participant"),
    ("encode_public", (5, [1, 2], 0, 2.0), "participants 2.0 is not an integer"),
    ("reconstruct", (1.5, [1], 0, 1), "public value 1.5 is not an integer"),
    ("reconstruct", ("3", [1], 0, 1), "public value '3' is not an integer"),
    ("reconstruct", (Fraction(1, 2), [True], 0, 2), "coin result True is not an integer"),
    ("reconstruct", (Fraction(1, 2), [1], 0.0, 2), "dealer result 0.0 is not an integer"),
    ("reconstruct", (Fraction(1, 2), [1], 0, -1), "need at least one participant"),
]


@pytest.mark.parametrize("call, args, refusal", BAD_ENCODINGS,
                         ids=[f"{call}: {refusal}" for call, _, refusal in BAD_ENCODINGS])
def test_encoding_refuses_non_integers(call, args, refusal):
    with pytest.raises(ValueError, match=refusal):
        getattr(mqss, call)(*args)
    # numpy integers are secrets, results and counts, and an integer is a public value
    p = encode_public(np.int64(5), [np.int32(1), np.int64(3)], np.int64(2), np.int64(2))
    assert p == encode_public(5, [1, 3], 2, 2) == Fraction(-3, 2)
    assert reconstruct(p, [np.int64(1), 3], np.int32(2), np.int64(2)) == 5
    assert reconstruct(np.int64(3), [0, 0], 0, 2) == reconstruct(3, [0, 0], 0, 2) == 6


def test_classical_round_trip_randomized():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        d = int(rng.integers(2, 8))
        m = int(rng.integers(2, 6))
        s = int(rng.integers(-10_000, 10_000))
        coins = [int(rng.integers(0, d)) for _ in range(m)]
        r0 = int(rng.integers(0, d))
        assert reconstruct(encode_public(s, coins, r0, m), coins, r0, m) == s


def test_run_mqss_end_to_end():
    t = run_mqss(MqssConfig(d=3, participants=2, secret=7, detect_pairs=8, seed=42))
    assert not t.aborted
    assert t.reconstructed == 7
    assert len(t.channel_checks) == 2
    assert all(c["error_rate"] == 0.0 for c in t.channel_checks)
    # measured values satisfy the mod-d relation against the dealer's result
    for k, v in enumerate(t.participant_results):
        assert v == (t.dealer_result + t.coin_results[k]) % 3


def test_run_mqss_smallest_case():
    t = run_mqss(MqssConfig(d=2, participants=2, secret=1, detect_pairs=3, seed=9))
    assert t.reconstructed == 1


def test_run_mqss_abort_on_attack():
    t = run_mqss(MqssConfig(d=2, participants=2, secret=4, detect_pairs=500,
                            threshold=0.05, eavesdrop_channel=1, seed=31))
    assert t.aborted
    assert t.reconstructed is None
    assert t.channel_checks[-1]["abort"]


def test_secret_independence_in_event_order():
    t = run_mqss(MqssConfig(d=3, participants=3, secret=11, detect_pairs=4, seed=2))
    first_read = next(i for i, e in enumerate(t.events) if "secret read" in e)
    last_quantum = max(i for i, e in enumerate(t.events)
                       if e.startswith(("step1", "step2", "step3"))
                       or "measured" in e)
    assert first_read > last_quantum


def test_transcript_serialization():
    t = run_mqss(MqssConfig(d=2, participants=2, secret=3, detect_pairs=3, seed=0))
    blob = t.to_dict()
    assert blob["reconstructed"] == 3
    assert isinstance(blob["public_value"], str)
    t.to_json()
    # numpy scalars in the config reach the JSON as Python ones
    plain = dict(d=3, participants=2, secret=5, detect_pairs=3, threshold=0.5, seed=1)
    typed = {name: (np.float64 if name == "threshold" else np.int64)(v)
             for name, v in plain.items()}
    t = run_mqss(MqssConfig(**typed))
    assert t.to_json() == run_mqss(MqssConfig(**plain)).to_json()
    values = [*t.coin_results, t.position_result, t.dealer_result, *t.participant_results]
    assert len(values) == 2 * 2 + 2 and all(type(v) is int for v in values)


def test_config_validation():
    with pytest.raises(ValueError):
        MqssConfig(d=1, participants=2, secret=0).validate()
    with pytest.raises(ValueError):
        MqssConfig(d=2, participants=1, secret=0).validate()
    with pytest.raises(ValueError):
        MqssConfig(d=2, participants=2, secret=0, threshold=0.0).validate()
    with pytest.raises(ValueError):
        MqssConfig(d=2, participants=2, secret=0, eavesdrop_channel=5).validate()


@pytest.mark.parametrize("field, bad", [
    ("d", 3.0), ("participants", 2.0), ("detect_pairs", True), ("d", "3"),
    ("secret", "7"), ("secret", True), ("eavesdrop_channel", 1.0),
    ("eavesdrop_channel", True), ("seed", 3.5), ("threshold", "0.5"), ("threshold", True),
    ("threshold", None), ("seed", -1)])
def test_config_refuses_non_integer_counts_before_any_work(monkeypatch, field, bad):
    config = MqssConfig(**{"d": 3, "participants": 2, "secret": 1, field: bad})
    monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew"))
    kind = "a real number" if field == "threshold" else "an integer"
    refusal = "seed -1 is negative" if bad == -1 else f"{field} {bad!r} is not {kind}"
    for run in (config.validate, lambda: run_mqss(config)):
        with pytest.raises(ValueError, match=refusal):
            run()
    monkeypatch.undo()
    # numpy integers are counts
    MqssConfig(d=np.int64(3), participants=np.int32(2), secret=1).validate()


BAD_CALLS = [
    ("channel_check", (3, 2.5), {}, "pairs 2.5 is not an integer"),
    ("channel_check", (3.0, 5), {}, "d 3.0 is not an integer"),
    ("channel_check", (3, 5), {"seed": 1.5}, "seed 1.5 is not an integer"),
    ("channel_check", (3, 5), {"seed": True}, "seed True is not an integer"),
    ("channel_check", (3, 5), {"seed": -1}, "seed -1 is negative"),
    ("channel_check", (3, 5), {"threshold": "x"}, "threshold 'x' is not a real number"),
    ("channel_check", (3, 5), {"threshold": True}, "threshold True is not a real number"),
    *(("channel_check", (3, 200, INTERCEPT_RESEND), {"threshold": t},
       rf"threshold {t!r} must lie in \(0, 1\)") for t in (float("nan"), float("inf"), 0, 1.5)),
    ("generate_shared_ghz", (3, 2.0), {}, "participants 2.0 is not an integer"),
    ("generate_shared_ghz", (3.0, 2), {}, "d 3.0 is not an integer"),
    ("generate_shared_ghz", (3, 2), {"seed": "1"}, "seed '1' is not an integer"),
    ("generate_shared_ghz", (3, 2), {"seed": -1}, "seed -1 is negative"),
    ("generate_shared_ghz", (1, 2), {}, "d must be >= 2"),
    ("generate_shared_ghz", (0, 2), {}, "d must be >= 2"),
    ("channel_check", (1, 5), {}, "d must be >= 2"),
    ("intercept_resend_error_rate", (2.5,), {}, "d 2.5 is not an integer"),
    ("intercept_resend_error_rate", (1,), {}, "d must be >= 2"),
    ("channel_check", (2**17 + 1, 5, INTERCEPT_RESEND), {},
     r"attacked check at d=131073 has 4d\^3 > 2\^53 sub-leaves"),
    ("run_mqss", (MqssConfig(d=2**53 + 1, participants=2, secret=5),), {},
     r"session at d=9007199254740993 has d > 2\^53 values per digit"),
    ("run_mqss", (MqssConfig(d=2**17 + 1, participants=2, secret=5, eavesdrop_channel=2),),
     {}, r"attacked check at d=131073 has 4d\^3 > 2\^53 sub-leaves"),
]


@pytest.mark.parametrize("call, args, kw, refusal", BAD_CALLS,
                         ids=[f"{call}: {refusal}" for call, *_, refusal in BAD_CALLS])
def test_channel_check_and_ghz_generation_refuse_bad_inputs_before_any_work(
        monkeypatch, call, args, kw, refusal):
    monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew"))
    with pytest.raises(ValueError, match=refusal):
        getattr(mqss, call)(*args, **kw)
    monkeypatch.undo()
    # numpy integers are counts and seeds, a numpy float is a threshold
    assert channel_check(np.int64(3), np.int64(5), seed=np.int64(4),
                         threshold=np.float64(0.05)) == channel_check(3, 5, seed=4)
    state, coins, u0 = generate_shared_ghz(np.int64(3), np.int64(2), seed=np.int64(4))
    ref, ref_coins, ref_u0 = generate_shared_ghz(3, 2, seed=4)
    assert (coins, u0) == (ref_coins, ref_u0) and np.array_equal(state.amps, ref.amps)


def test_run_mqss_wrong_reconstruction_raises(monkeypatch):
    monkeypatch.setattr(mqss, "reconstruct", lambda *args: 12345)
    with pytest.raises(AssertionError, match="reconstructed 12345"):
        run_mqss(MqssConfig(d=2, participants=2, secret=1, detect_pairs=3, seed=9))


def test_over_cap_ghz_state_refused_before_any_draw(monkeypatch):
    # a session builds no state, so 5 participants at d=7 are served; the
    # residual generate_shared_ghz builds has M+1 sites: 7**8 is over the cap
    mqss._build_repeater_pair.cache_clear()
    calls = []
    real = mqss.distribute
    monkeypatch.setattr(mqss, "distribute", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    t = run_mqss(MqssConfig(d=7, participants=5, secret=1))
    assert t.reconstructed == 1 and len(calls) == 1
    MqssConfig(d=5, participants=7, secret=1).validate()
    with monkeypatch.context() as mp:
        mp.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew"))
        with pytest.raises(SizeCapError, match="8 sites at d=7"):
            generate_shared_ghz(7, 7)


def test_run_mqss_builds_no_state(monkeypatch):
    monkeypatch.setattr(mqss, "shared_ghz_closed_form", lambda *a: pytest.fail("built"))
    t = run_mqss(MqssConfig(d=7, participants=4, secret=-9, detect_pairs=3, seed=5))
    assert t.reconstructed == -9


@pytest.mark.parametrize("d, m", [(2, 40), (7, 200)])
def test_sessions_past_the_dense_cap_reconstruct_the_secret(d, m):
    t = run_mqss(MqssConfig(d=d, participants=m, secret=123, detect_pairs=3, seed=m))
    assert not t.aborted and t.reconstructed == 123
    assert len(t.coin_results) == len(t.participant_results) == m
    assert t.participant_results == [(t.dealer_result + q) % d for q in t.coin_results]


def test_sessions_are_served_up_to_their_draw_limits(monkeypatch):
    # the repeater link is planned and checked by the symbolic ledger, so no
    # network step draws and nothing builds a GHZ or a label operator, and
    # only the draws' limits hold: d <= 2^53 for a session and 4d^3 <= 2^53
    # for an attacked one (BAD_CALLS)
    mqss._build_repeater_pair.cache_clear()
    monkeypatch.setattr(network, "_step_law", lambda *a: pytest.fail("drew a step"))
    forbid_dense_builds(monkeypatch)
    assert run_mqss(MqssConfig(d=45, participants=2, secret=5)).reconstructed == 5
    for d in (46, 10**6, 2**53):
        t = run_mqss(MqssConfig(d=d, participants=2, secret=5))
        assert not t.aborted and t.reconstructed == 5
        assert t.events[0] == "step1: channel 1 working pair ready (fidelity 1.000)"
        assert t.participant_results == [(t.dealer_result + q) % d for q in t.coin_results]
    t = run_mqss(MqssConfig(d=2**17, participants=2, secret=5, eavesdrop_channel=1))
    assert t.aborted and [c["abort"] for c in t.channel_checks] == [True]


# every session shape (M >= 2) whose residual has at most 2^16 amplitudes
DENSE_READ_SHAPES = [(d, m) for m in range(2, 16) for d in range(2, 41) if d ** (m + 1) <= 2**16]


@pytest.mark.parametrize("d, m", DENSE_READ_SHAPES)
def test_step4_reads_the_dense_support(d, m):
    # the dense read: draw digit i, take the residual's support entry i in
    # index order and read each party's digit off the index
    for seed in range(10):
        t = run_mqss(MqssConfig(d=d, participants=m, secret=seed, detect_pairs=1, seed=seed))
        rng = np.random.default_rng(seed)
        for _ in range(2 * m):  # one per link and channel check
            rng.integers(2**31)
        state, coins, u0 = generate_shared_ghz(d, m, seed=int(rng.integers(2**31)))
        assert (t.coin_results, t.position_result) == (coins, u0)
        i = int(rng.random() * d)
        index = int(np.flatnonzero(state.amps)[i])
        *values, r0 = [index // d ** (m - site) % d for site in range(m + 1)]
        assert (t.participant_results, t.dealer_result) == (values, r0)


@pytest.mark.parametrize("d", range(2, 8))
@pytest.mark.parametrize("eavesdrop", [False, True])
def test_pair_law_is_the_dense_law(d, eavesdrop):
    law, flags = check_law(d, eavesdrop)
    ref, ref_flags = dense_pair_law(d, eavesdrop)
    assert law.shape == ref.shape and np.array_equal(flags, ref_flags)
    assert np.abs(law - ref).max() <= 1e-15


def test_pair_law_draws_are_pinned(monkeypatch):
    # 200 attacked pairs per seed 0-1999 at every d = 2-7, each drawn
    # sub-leaf mapped to its leaf: rng.choice on the leaf table drew the same
    # leaves, to this digest.  It was recorded over the clean draws too
    # (b0d7d006...); a clean check draws nothing now, so it covers the
    # attacked draws only
    drawn = []
    monkeypatch.setattr(mqss, "_disagrees", lambda i, d: drawn.append(i) or _disagrees(i, d))
    h = hashlib.sha256()
    for d in range(2, 8):
        leaf, _, _ = digit_rule_law(d)
        for seed in range(2000):
            channel_check(d, 200, INTERCEPT_RESEND, seed=seed, threshold=0.9)
            h.update(leaf[drawn.pop()].tobytes())
    assert h.hexdigest() == "df7472eba09ff2535e73a327cc931eb88b23428e820e82cf4ff3797e634070a4"


# sha256 over law.tobytes() + flags.tobytes() of ``check_law``, recorded
# over the leaf table the check drew from with ``rng.choice`` before it read
# the digit rule.  The rule's masses are exact, 1/(4d) and 1/(4d^3); the
# table's were divided by its float sum, which at d = 6 moved every attacked
# mass by at most 2.1e-17, so (6, True) was re-recorded.  No leaf, flag or
# seeded draw moved.  The law must not move by a bit
PAIR_LAW_SHA256 = [
    (2, False, "0deb0aefe570133234d19c8d91d3b8a6346ed17c24bdb0ebedbe63b0365982b7"),
    (2, True, "989365f09101fa18c423693f7720b00b9bb7fb82f9186275bdfbc4b69de328d4"),
    (3, False, "96ed5761c306eb08e34622646921fcc1402a86a8ef2dc3def7e727ef1532e59e"),
    (3, True, "c8fda55e3ee7dd23087142b4e43be14436b96dec10feae70430ff677ac3e23b5"),
    (4, False, "45e00fd06cf5d96f062e9e89c4126d86eddafb10112e155746ff0dd01a2fe02c"),
    (4, True, "4172d8fd4fa0cf5dc8a1731b5905d9c565340a72a3a42f1669cf30f9362b510f"),
    (5, False, "49db58e13b8e03e39168160ceacfa39d5e6cd466bae7024a37dc95abf86f40ca"),
    (5, True, "c6e0dce138b9e8d2afdb477c34667e8d5f2a819ef7a00df5bcc9b908208fafb4"),
    (6, False, "e868e1da5302af6031f7fff27a7a158193cfce6da3f54ac4f711bdd64ced8f54"),
    (6, True, "a810fa85419810c6e44657a0ee1113e442654a1b02bea7c9efebce4b182588fa"),
    (7, False, "542d533160e92a29118c33df4f0c3e1e40ffca9ba871fafecc43b78cfc1a0dd0"),
    (7, True, "d039c476e2518197ca2b46b80d5101a6c43c99cc4d0ec84e773b83ee0bf6866e"),
]


@pytest.mark.parametrize("d, eavesdrop, digest", PAIR_LAW_SHA256)
def test_pair_law_is_pinned_bit_for_bit(d, eavesdrop, digest):
    law, flags = check_law(d, eavesdrop)
    assert hashlib.sha256(law.tobytes() + flags.tobytes()).hexdigest() == digest


def test_attacked_check_serves_d_up_to_2_17():
    # 4d^3 = 2^53 at d = 2^17, so floor(u 4d^3) reaches every sub-leaf; one
    # past it is refused before any draw (BAD_CALLS), and a clean check draws
    # nothing at any d
    d = 2**17
    rate, _ = channel_check(d, 2000, INTERCEPT_RESEND, seed=4, threshold=0.9)
    p = intercept_resend_error_rate(d)
    assert abs(rate - p) <= 3 * np.sqrt(p * (1 - p) / 2000)
    assert channel_check(d + 1, 5) == (0.0, False)
    # the last sub-leaf, (Fourier, d - 1, Fourier) with x = y = d - 1, agrees
    assert list(_disagrees(np.array([4 * d**3 - 1, 4 * d**3 - 2]), d)) == [False, True]


def test_channel_check_builds_no_leaf_table():
    # both failed to allocate their 2d(d^2 + 1)-leaf tables at d = 3000
    assert intercept_resend_error_rate(3000) == 2999 / 6000
    rate, abort = channel_check(3000, 2000, INTERCEPT_RESEND, seed=4)
    assert 0 < rate < 1 and abort


def test_only_protocols_enumerates_branches():
    for name in ("network", "fractal", "mqss", "tables", "readout", "cli"):
        module = importlib.import_module(f"walknet.{name}")
        for binding in ("measure_all_branches", "tensor"):
            assert not hasattr(module, binding), f"walknet.{name} binds {binding}"
    # the channel check's law is read off its circuit: mqss runs no dense op
    for binding in ("run_stages", "Stage", "apply"):
        assert not hasattr(mqss, binding), f"walknet.mqss binds {binding}"


# sha256 over state.amps.tobytes() and repr((coins, u0)) for seeds 0-2,
# recorded before the GHZ step's stages became the split star merge.  The
# (3, 3), (3, 4), (5, 2-4), (6, 2), (6, 4) and (7, 2-4) lines were re-recorded
# when each later participant's Bell pair began to join in front of the
# register, its coin on site 0: the coins' readouts then sum their rows in
# another order, which moved amplitudes by at most 3.8e-16 and no coin or u0
# (seeds 0-19 at every (d, M) under the size cap).  The sampled state and
# outcomes must not move by a bit.  Every line was re-recorded when the
# split star merge began to run in the position's Fourier frame (one F on pos,
# identity-coin walks, one Fourier readout of pos): amplitudes moved by at
# most 2.0e-15 and no coin or u0 (seeds 0-19 at every d = 2-7, M = 1-4).
# Every line was re-recorded again when the step began to draw from its
# closed-form law and build the residual with ``shared_ghz_closed_form``:
# amplitudes moved by at most 1.5e-15 and no coin or u0 (the same grid)
SHARED_GHZ_SHA256 = [
    (2, 1, "d621afa6192032f4f5237718ecf033f558129764958c6f120e5a54525e962b7d"),
    (3, 1, "2a27757c7c7749c0dd466b4ac5618e6389ff6d0e5914a57446bb3e3c245a8c7a"),
    (4, 1, "e54f71cb9af793c40508cd9784289c6147a4ea3b48d8bc4622fa23602e20bf97"),
    (5, 1, "b144aa14c18bfe3f718d1fd37f7aa1b65ec809d42b788a52be5324f311aed1ba"),
    (6, 1, "eb3ddf928526639cbace414898f7759fd9cd676b2c6fc4a55c5834812de72d5b"),
    (7, 1, "e897abe0ebce3e4803a43eaa46072b70874f9a0da33dba4649145bd1a65a8a9a"),
    (2, 2, "f0c37d33b0ec39a97db6c2f04c31491a490fb8127b3d739bbc30e9a6a7dc2868"),
    (2, 3, "9360d9374c23973e8bf6016990e1c8b4c1641b91d14e9df565fda6241388074b"),
    (2, 4, "f1f41f57458d4df090642af1e07c6f406b70c63745e94083fdf352d583c1baf2"),
    (3, 2, "e6ac92faa50928dcef7fc153f60e8dd267e7abb9bf926fce82e52048ea8893b7"),
    (3, 3, "bf64485f0f201125134a9c438726998e5e6cc590ede6fb82a4ebd67f87829f69"),
    (3, 4, "9a8c5da33154a6918e6fb2438b7b7ec0b918552781a488a6eb9a169b009da327"),
    (4, 2, "ca77fe2ad3fff459b1906547a3da54a5148237d0cf88fa5fa8945e9443ea0b68"),
    (4, 3, "ecc591661086590a38b08df357d821fbdfad47ffd7159ff479cb81505a45e2e5"),
    (4, 4, "2b54e3a27f512c29f23d7d49ed83c64b1a4cad682949b69dce7237cfcd36c974"),
    (5, 2, "06c0962c8f8689c398a2141fe18b9fb7a854c94ec98493481fc7d2da70bcc1ff"),
    (5, 3, "ea74e431abb0cdbeb496496e6422179c7386fda52888bcfff5e0be9fcb86aafb"),
    (5, 4, "a8e329fc46b0c5584d772be4889ab88dae7581ffb5b1a8bfb74aa4dea7d10991"),
    (6, 2, "de4fe9546f9b332ae0d75fd3986485a752405dbfdb38ac903da03cbf41a41340"),
    (6, 3, "d216cca2c7a18bb3a8b2b9c9cc038fc7564fd93ef79475fbe3e2ba484bfe75f4"),
    (6, 4, "7667787b3752a630ede8a816d9a3e0bd2f8774ad450046bdc4d69deee54f209e"),
    (7, 2, "955dc9e89383ff431260d12c44553a20a8b2aba0d189b775a91f910988d1f78c"),
    (7, 3, "cc2266dfe7c50f3a5af76a9415d41d67caef56c8c2f2bee039e904bf7fe58661"),
    (7, 4, "dda3e475ee9ef0aae7ec2810d87c772a73accf4bef5651411c073b9c5460412d"),
]


@pytest.mark.parametrize("d, m, digest", SHARED_GHZ_SHA256)
def test_shared_ghz_is_pinned_bit_for_bit(d, m, digest):
    h = hashlib.sha256()
    for seed in range(3):
        state, coins, u0 = generate_shared_ghz(d, m, seed=seed)
        h.update(state.amps.tobytes())
        h.update(repr((coins, u0)).encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("m", range(1, 7))
def test_shared_ghz_state_is_capped_at_m_plus_1_sites(monkeypatch, m):
    # refused in O(1), at the first d with d^(M+1) over the cap
    d = 2
    while d ** (m + 1) <= SIZE_CAP:
        d += 1
    monkeypatch.setattr(mqss, "shared_ghz_closed_form", lambda *a: "built")
    with monkeypatch.context() as mp:
        mp.setattr(mqss, "_ghz_outcome", lambda *a: pytest.fail("drew"))
        with pytest.raises(SizeCapError, match=f"{m + 1} sites at d={d}"):
            generate_shared_ghz(d, m)
    assert generate_shared_ghz(d - 1, m)[0] == "built"
