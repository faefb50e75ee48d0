"""Secret-sharing protocol: channel checks, GHZ step, round trips."""

import hashlib
import importlib
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from walknet import mqss, protocols, qudit
from walknet.mqss import (
    INTERCEPT_RESEND,
    MqssConfig,
    _pair_law,
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


@pytest.mark.parametrize("d", range(2, 8))
@pytest.mark.parametrize("eavesdrop", [False, True])
def test_pair_law_is_a_distribution(d, eavesdrop):
    law, disagree = _pair_law(d, eavesdrop)
    assert law.shape == disagree.shape
    assert np.all(law > 0)
    assert law.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d", range(2, 8))
def test_clean_law_puts_no_mass_on_disagreement(d):
    law, disagree = _pair_law(d, False)
    assert not disagree.any()
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
    assert run_mqss(MqssConfig(**typed)).to_json() == run_mqss(MqssConfig(**plain)).to_json()


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
]


@pytest.mark.parametrize("call, args, kw, refusal", BAD_CALLS,
                         ids=[f"{call}: {refusal}" for call, *_, refusal in BAD_CALLS])
def test_channel_check_and_ghz_generation_refuse_bad_inputs_before_any_work(
        monkeypatch, call, args, kw, refusal):
    monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew"))
    for name in ("_pair_law", "_ghz_circuit", "run_stages"):
        monkeypatch.setattr(mqss, name, lambda *a, _n=name: pytest.fail(f"ran {_n}"))
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


def test_over_cap_session_refused_before_any_work(monkeypatch):
    # step 3's register peaks at M+3 sites: 7**8 is over the cap, 7**7 is not
    mqss._build_repeater_pair.cache_clear()
    calls = []
    real = mqss.distribute
    monkeypatch.setattr(mqss, "distribute", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    with pytest.raises(SizeCapError, match="5 participants at d=7"):
        run_mqss(MqssConfig(d=7, participants=5, secret=1))
    assert calls == []
    with pytest.raises(SizeCapError):
        MqssConfig(d=5, participants=7, secret=1).validate()
    with monkeypatch.context() as mp:
        mp.setattr(mqss, "run_stages", lambda *a, **kw: pytest.fail("ran a stage"))
        with pytest.raises(SizeCapError):
            generate_shared_ghz(7, 5)
    t = run_mqss(MqssConfig(d=7, participants=4, secret=1))
    assert t.reconstructed == 1 and len(calls) == 1


# sha256 over law.tobytes() + flags.tobytes(), recorded before the channel
# check's readouts became stage circuits; the law must not move by a bit
PAIR_LAW_SHA256 = [
    (2, False, "89eb158bcaba3e852a526125de84c74b28eb1865bf2e8d10dad85e98fca0661a"),
    (2, True, "45516635ffdb139b567e0d3957ebae465def6d9dd620c5e368e5c519e53a7feb"),
    (3, False, "d30cff71d3220f0526a963f7fe98be7b1e44fea9e1a77203fbc1f1fad341ad06"),
    (3, True, "1fde1aa55c97169e76d29a9257aa06f763a87b33b8a45e16a691c58c2a593ac6"),
    (4, False, "45e00fd06cf5d96f062e9e89c4126d86eddafb10112e155746ff0dd01a2fe02c"),
    (4, True, "1f6e5f14306ab18c92148f138f1c59462d6c65db8accc2fc6dc21d654fdcd9d6"),
    (5, False, "d6959037d8fe76d42c944548d2623167d8eca341702e88577d627f1e3235f642"),
    (5, True, "2d92c737dedf023c9fee721107bee481cad3011e2b1f1016279d690836d61b7f"),
    (6, False, "c99fa48b9ef60bfaae3d3f07209adc596eeb09df66ea0fbda9525b065f0a2f09"),
    (6, True, "0d6df0fe9b8ea8ccb12ae218543723f8ab04fdbe2ae8117869bb274deeeddb5d"),
    (7, False, "d7f8cc425630ebfd8b64d35561c729475346d3aff0d8775ec3e942231bf5ff66"),
    (7, True, "0311a8cd5fd775a33ec3ba0df858c2bab95621fba69f80286181918bc85dfc11"),
]


@pytest.mark.parametrize("d, eavesdrop, digest", PAIR_LAW_SHA256)
def test_pair_law_is_pinned_bit_for_bit(d, eavesdrop, digest):
    law, flags = _pair_law(d, eavesdrop)
    assert hashlib.sha256(law.tobytes() + flags.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("eavesdrop, circuits, rotations", [(True, 2 + 4 * 3, 3), (False, 2, 0)])
def test_pair_law_runs_its_readouts_as_stage_circuits(monkeypatch, eavesdrop, circuits, rotations):
    # d = 3: two attacker readouts, then one circuit per (attack basis,
    # attacker outcome, shared basis); apply only rotates a Fourier resend
    calls = Counter()

    def counted(name, real):
        def wrapper(*args, **kw):
            calls[name] += 1
            return real(*args, **kw)
        return wrapper

    for name in ("run_stages", "apply"):
        monkeypatch.setattr(mqss, name, counted(name, getattr(mqss, name)))
    _pair_law.cache_clear()
    try:
        _pair_law(3, eavesdrop)
    finally:
        _pair_law.cache_clear()
    assert (calls["run_stages"], calls["apply"]) == (circuits, rotations)


def test_only_protocols_enumerates_branches():
    for name in ("network", "fractal", "mqss", "tables", "readout", "cli"):
        module = importlib.import_module(f"walknet.{name}")
        for binding in ("measure_all_branches", "tensor"):
            assert not hasattr(module, binding), f"walknet.{name} binds {binding}"


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
# most 2.0e-15 and no coin or u0 (seeds 0-19 at every d = 2-7, M = 1-4)
SHARED_GHZ_SHA256 = [
    (2, 1, "8a681d5e88d7a94453e7f32f60468617b88606b1fadf8226cecfeb2bf79817d9"),
    (3, 1, "69c3bec2eb7be53a9df62b6101e1edefade9bc6ea4c124e935e18c3c837e7385"),
    (4, 1, "fa63485efcd128f1323abf9cd88e3c0807dea6b722f4a8c9f4c289c3004620e4"),
    (5, 1, "f1147ee9340b8f58cec5307f2381f03f6144b218ba2799570a8a2561824aa669"),
    (6, 1, "d6ab6cfbf7d370d033564b1750d98dc8a212685520e7910dd8d02ffef3fd4799"),
    (7, 1, "22014ccbdbd7c8c0e0eadea3436852916168e0530b7e7cf6936a7eaa47c080e9"),
    (2, 2, "5fbcb74210077622797346d8841c579975740217ff47ccc3918fc29d308c9295"),
    (2, 3, "ba2d65cc2f6216cdb4e98a12e775adee35a1b9d719674c3440a61a7ccfe2241e"),
    (2, 4, "ce58514d829d5135c7a80a1e78abe10a6a81febb41126c6594aea5385224323b"),
    (3, 2, "958da2ea391977a264d3d55169041be01767a5bc350b5beb92ffb9dd1d14bc73"),
    (3, 3, "2012dede3be8f3611203122f8610752f24ade0706448374db3aa64e95fa24fbe"),
    (3, 4, "2156645f9567539ae999be0997c2929536d1c5fb09afb79e8da38a8dcbd8958e"),
    (4, 2, "a77aecb13e853c315ae84f1791a5de9d66ef20be9b321808a56a566b1ebd9bf8"),
    (4, 3, "05b93274d84672aa721435ecab2925ff6239fcaeb0c829d81736d97bc5252456"),
    (4, 4, "3bbd6b94cb194793a6a7a4803455680758e98d8398ded8da60b66fbb66a3050a"),
    (5, 2, "743ccc0cc57f25cd781e298a17ba8c9af295ff5ba698149ab1ff59d24c792d07"),
    (5, 3, "4ad55dd5e4b1eb9fa40f03e3d81b46156733293944be0938e1cd9f1669e0950a"),
    (5, 4, "ce2b216cc7214244d4f06419ef96f8969be3eab85a32ca83768a3b0db407ee61"),
    (6, 2, "096fb13fbb4b3fd70d78a7e95d4f82ea6ecd85a3d770448aa7935543c4f92f4f"),
    (6, 3, "8f59c8fe377e9ba7ba403e4103c24a1d2f77e5bdcde6b1f824357c7bf32d57a8"),
    (6, 4, "b750ff965d1a9ac7a5fb12635397cd9a367a88cf1ef5708429c83bfe3aef3060"),
    (7, 2, "aac39210fcd2df73ae7958c4cba3b91de0ce5e6db894995216291180d2c42d4a"),
    (7, 3, "55ca8e8220d2fc4806820f5eec59031bf193689ce9aed63ccab203ba78d4a75f"),
    (7, 4, "81fc530e501eb7611bbfa94d00410076e6109cc5fcd6f177b7cdf5e123674252"),
]


@pytest.mark.parametrize("d, m, digest", SHARED_GHZ_SHA256)
def test_shared_ghz_is_pinned_bit_for_bit(d, m, digest):
    h = hashlib.sha256()
    for seed in range(3):
        state, coins, u0 = generate_shared_ghz(d, m, seed=seed)
        h.update(state.amps.tobytes())
        h.update(repr((coins, u0)).encode())
    assert h.hexdigest() == digest


def test_later_joins_lead_the_register(monkeypatch):
    # each participant's Bell pair after the first joins in front of the live
    # register, its coin first: every walk from pos onto a coin spans at most
    # M + 1 sites and every later coin sits on site 0 (appended at the end,
    # the walks of (7, 4) would span 4, 5, 6 and 7 sites)
    d, m, calls = 7, 4, []

    def spy(state, op, sites):
        calls.append((op, sites))
        return apply(state, op, sites)

    monkeypatch.setattr(protocols, "apply", spy)
    generate_shared_ghz(d, m, seed=0)
    walks = [sites for _, sites in calls if len(sites) == 2]  # [pos, coin]
    spans = [abs(pos - coin) + 1 for pos, coin in walks]
    coins = [coin for _, coin in walks]
    assert len(spans) == len(coins) == m and max(spans) <= m + 1
    assert all(site == 0 for site in coins[1:])


@pytest.mark.parametrize("d", [2, 3, 7])
@pytest.mark.parametrize("m", range(1, 5))
def test_one_fourier_readout_per_session(monkeypatch, d, m):
    # in the position's Fourier frame the only dense passes are F on pos and
    # the inverse Fourier on the dealer, both on the 4-site first sub-stage,
    # and pos's Fourier readout on the M + 2 unread sites: three matrix
    # products, not 2M + 1
    dense, products = [], []

    def spy(state, op, sites):
        if op.monomial is None:
            dense.append(state.n)
        return apply(state, op, sites)

    def spy_matmul(mat, view):
        products.append(view.size)
        return matmul_axis(mat, view)

    matmul_axis = qudit._matmul_axis
    monkeypatch.setattr(protocols, "apply", spy)
    monkeypatch.setattr(qudit, "_matmul_axis", spy_matmul)
    generate_shared_ghz(d, m, seed=0)
    assert dense == [4, 4]
    assert products == [d**4, d**4, d ** (m + 2)]


@pytest.mark.parametrize("m", range(1, 7))
def test_register_cap_counts_the_split_circuits_peak(m):
    # _check_register_cap refuses in O(1) before any stage is built; its
    # M + 3 must be the live count the GHZ step's stages actually peak at
    stages, _ = mqss._ghz_circuit(2, m)
    peak = protocols._peak(stages)
    assert peak == m + 3
    d = 2
    while d**peak <= SIZE_CAP:
        d += 1
    with pytest.raises(SizeCapError):
        mqss._check_register_cap(d, m)
    mqss._check_register_cap(d - 1, m)
