"""Multiparty secret sharing over walk-generated GHZ states.

A dealer (Alice) shares an integer secret S with M participants in five steps:

1. Plan a repeater link to every participant and check the plan, drawing
   nothing: its step law restores the canonical Bell pair exactly, so each
   link stocks a working pair plus detecting pairs.
2. Check each channel: both ends twirl a detecting pair (Fourier on the
   dealer's qudit, inverse Fourier on the participant's), then measure in a
   dealer-announced random basis and compare.  An untouched pair gives equal
   results every time; an intercept-resend attacker shows up as a nonzero
   error rate, and the run aborts above the configured threshold.  The check
   is a qudit Clifford circuit on the canonical pair, so its law is read off
   the circuit (``channel_check``): the twirl leaves the pair as it is, so a
   clean channel draws nothing, and a shared basis that matches the
   attacker's leaves both readouts uniform.  Each attacked pair reads its
   leaf off the digits of one drawn index floor(u 4d^3).
3. Merge the M working pairs and one dealer-local pair into an (M+1)-party
   GHZ via the multi-coin Bell-merge walk.  Only the dealer learns the coin
   results q~_k and the position value u0.  The merge is a qudit Clifford
   circuit.  Per coin, F_c^dag S(c -> p) F_c = F_p^dag S(p -> c) F_p, so in
   the position's Fourier frame F on the position and the dealer's inverse
   Fourier leave the canonical position pair as it was, each identity-coin
   walk c_k -= pos followed by a computational readout of c_k gives a
   uniform q~_k, and the Fourier readout of the position gives a uniform u0.
   So the M + 1 results are independent uniform digits and the residual is
   exactly ``shared_ghz_closed_form(d, q~, u0)``.  A session draws the
   digits, floor(u d) each (``protocols.draw``), and builds no state;
   ``generate_shared_ghz`` also builds the residual, d^(M+1) amplitudes,
   for its callers.  The dense circuit is kept in the tests, which check
   this law against it.
4. Everyone measures their GHZ particle; the dealer's value is r0 and
   participant k holds r0 + q~_k.  The residual's d support entries are
   equally likely, so one more drawn digit i picks the readout, read off the
   frame: entry i, in index order, has r0 = (i - q~_1) mod d.  The dealer
   publishes p = (S - sum(q~_k) - M*r0) / M as an exact rational.
5. Participant shares are p plus their measured value; the shares add up to
   M*p + sum(q~_k) + M*r0 = S exactly.

Basis pairing note: for d > 2 the Fourier-basis comparison uses conjugate
bases on the two ends (the dealer reads |k~> labels, the participant the
complex-conjugate family).  A twirled untouched pair then gives equal labels
deterministically for every d, which is what makes the zero-error invariant
exact rather than statistical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .network import Resource, ResourceNetwork, distribute
from .protocols import check_draw, draw
from .qudit import QuditState, as_dim, as_int, as_real, as_seed, check_cap

INTERCEPT_RESEND = "intercept-resend"
DIGIT_LIMIT = "a session at d={} has d > 2^53 values per digit"
ATTACK_LIMIT = "an attacked check at d={} has 4d^3 > 2^53 sub-leaves"


@dataclass(frozen=True)
class MqssConfig:
    d: int
    participants: int
    secret: int
    detect_pairs: int = 20
    threshold: float = 0.05
    eavesdrop_channel: int | None = None    # 1-based participant index, or None
    seed: int = 0

    def validate(self) -> None:
        names = ("d", "participants", "detect_pairs", "secret")
        if self.eavesdrop_channel is not None:
            names += ("eavesdrop_channel",)
        for name in names:
            as_int(getattr(self, name), name)
        as_seed(self.seed)
        as_dim(self.d)
        if self.participants < 2:
            raise ValueError("need at least 2 participants")
        if self.detect_pairs < 1:
            raise ValueError("need at least one detecting pair")
        _as_threshold(self.threshold)
        if self.eavesdrop_channel is not None and not (
                1 <= self.eavesdrop_channel <= self.participants):
            raise ValueError("eavesdropped channel out of range")
        # the draws' limits, refused before the session's first draw
        check_draw(self.d, DIGIT_LIMIT.format(self.d))
        if self.eavesdrop_channel is not None:
            check_draw(4 * self.d**3, ATTACK_LIMIT.format(self.d))


def _as_threshold(value):
    if not 0 < as_real(value, "threshold") < 1:  # also NaN, which no rate exceeds
        raise ValueError(f"threshold {value!r} must lie in (0, 1)")
    return value


@dataclass
class MqssTranscript:
    d: int
    participants: int
    events: list[str] = field(default_factory=list)
    channel_checks: list[dict] = field(default_factory=list)
    aborted: bool = False
    coin_results: list[int] = field(default_factory=list)
    position_result: int | None = None
    dealer_result: int | None = None
    participant_results: list[int] = field(default_factory=list)
    public_value: Fraction | None = None
    shares: list[Fraction] = field(default_factory=list)
    reconstructed: int | None = None
    secret: int | None = None

    def to_dict(self) -> dict:
        out = {
            "d": self.d,
            "participants": self.participants,
            "events": self.events,
            "channel_checks": self.channel_checks,
            "aborted": self.aborted,
        }
        if not self.aborted:
            out.update({
                "coin_results": self.coin_results,
                "position_result": self.position_result,
                "dealer_result": self.dealer_result,
                "participant_results": self.participant_results,
                "public_value": str(self.public_value),
                "shares": [str(s) for s in self.shares],
                "reconstructed": self.reconstructed,
                "secret": self.secret,
            })
        return out

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)


# ---------------------------------------------------------------------------
# Channel checking
# ---------------------------------------------------------------------------

def channel_check(d: int, pairs: int, eavesdropper: str | None = None,
                  seed: int = 0, threshold: float = 0.05) -> tuple[float, bool]:
    """Sampled error rate over ``pairs`` detecting pairs, and the abort flag.

    A pair's law is read off the check's qudit Clifford circuit on the
    canonical pair.  F is symmetric, so the twirl (F on a, F^dag on b) leaves
    the pair as it is: with no attacker each shared basis reads x = y, so a
    clean channel's rate is exactly 0 and nothing is drawn.  A computational
    read of v on b leaves |v, v>, which the twirl maps to F|v> (x) F^dag|v>;
    a Fourier read of v leaves F|-v> on a and the resent F|v> on b, which the
    twirl maps to |v> (x) |v>.  So under attack, with every basis choice fair
    (computational, then Fourier), each (attacker basis, outcome v, shared
    basis) group has mass 1/(4d): the shared basis that matches the
    attacker's gives d^2 equally likely readouts (x, y), disagreeing iff
    x != y, and the other one leaf x = y = v.  Each attacked pair draws one
    sub-leaf i = floor(u 4d^3) (``protocols.draw``, which refuses d > 2^17),
    d^2 per group: group g = i // d^2 = (attacker basis, v, shared basis) in
    digit order, so its bases match iff (g even) == (g < 2d), and
    (x, y) = divmod(i mod d^2, d)."""
    d, pairs, seed = as_dim(d), as_int(pairs, "pairs"), as_seed(seed)
    threshold = _as_threshold(threshold)
    if pairs < 1:
        raise ValueError("need at least one detecting pair")
    if eavesdropper not in (None, INTERCEPT_RESEND):
        raise ValueError(f"unknown eavesdropper model {eavesdropper!r}")
    if eavesdropper is None:
        return 0.0, False
    i = np.array(draw(seed, 4 * d**3, pairs, ATTACK_LIMIT.format(d)))
    rate = int(np.count_nonzero(_disagrees(i, d))) / pairs
    return rate, bool(rate > threshold)


def _disagrees(i: np.ndarray, d: int) -> np.ndarray:
    """Whether attacked sub-leaf i reads x != y (``channel_check``)."""
    group, (x, y) = i // d**2, np.divmod(i % d**2, d)
    return ((group % 2 == 0) == (group < 2 * d)) & (x != y)


def intercept_resend_error_rate(d: int) -> float:
    """Exact per-pair error probability of the intercept-resend attack,
    (d - 1) / (2d) (``channel_check``); no sampling involved."""
    d = as_dim(d)
    return (d - 1) / (2 * d)


# ---------------------------------------------------------------------------
# GHZ generation (step 3)
# ---------------------------------------------------------------------------

def generate_shared_ghz(d: int, participants: int, seed: int = 0
                        ) -> tuple[QuditState, list[int], int]:
    """Multi-coin Bell merge producing the shared (M+1)-party GHZ residual.

    Returns (state, coin results q~_1..q~_M, position value u0); the state is
    ordered (participant 1, ..., participant M, dealer) and equals
    (1/sqrt d) sum_r w^(-r u0) |r+q~_1, ..., r+q~_M, r>.  The merge's law is
    the module docstring's closed form (``_ghz_outcome``).  The state, d^(M+1)
    amplitudes, is refused by the size cap before any draw."""
    d, participants, seed = as_dim(d), as_int(participants, "participants"), as_seed(seed)
    if participants < 1:
        raise ValueError("need at least one participant")
    check_cap(d, participants + 1)
    *coins, u0 = _ghz_outcome(d, participants, seed)
    return shared_ghz_closed_form(d, coins, u0), coins, u0


def _ghz_outcome(d: int, participants: int, seed: int) -> list[int]:
    """Step 3's M + 1 uniform digits floor(u d), the coins, then u0."""
    return draw(seed, d, participants + 1, DIGIT_LIMIT.format(d))


def shared_ghz_closed_form(d: int, coin_results: list[int], u0: int) -> QuditState:
    """Independent reconstruction of the expected step-3 residual state."""
    m = len(coin_results)
    w = np.exp(2j * np.pi / d)
    amps = np.zeros(d ** (m + 1), dtype=complex)
    for r in range(d):
        idx = 0
        for q in coin_results:
            idx = idx * d + (r + q) % d
        idx = idx * d + r
        amps[idx] = w ** (-r * u0)
    return QuditState(d, m + 1, amps / np.sqrt(d))


# ---------------------------------------------------------------------------
# Classical encoding (steps 4 and 5)
# ---------------------------------------------------------------------------

def _as_counts(coin_results, dealer_result, participants) -> tuple[list[int], int, int]:
    coins = [as_int(q, "coin result") for q in coin_results]
    if (participants := as_int(participants, "participants")) < 1:
        raise ValueError("need at least one participant")
    return coins, as_int(dealer_result, "dealer result"), participants


def encode_public(secret: int, coin_results: list[int], dealer_result: int,
                  participants: int) -> Fraction:
    """p = (S - sum(q~_k) - M*r0) / M, carried exactly."""
    secret = as_int(secret, "secret")
    coins, r0, m = _as_counts(coin_results, dealer_result, participants)
    return Fraction(secret - sum(coins) - m * r0, m)


def reconstruct(public_value: Fraction, coin_results: list[int],
                dealer_result: int, participants: int) -> int:
    if not isinstance(public_value, Fraction):
        public_value = as_int(public_value, "public value")
    coins, r0, m = _as_counts(coin_results, dealer_result, participants)
    total = m * public_value + sum(coins) + m * r0
    if total.denominator != 1:
        raise ValueError("reconstruction did not produce an integer")
    return int(total)


# ---------------------------------------------------------------------------
# Full protocol
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _build_repeater_pair(d: int) -> None:
    """Plan and check one dealer-participant Bell pair over a two-hop repeater
    path, once per d: every participant's link is the same repeater.  The
    symbolic ledger draws and builds nothing; the link's step law restores
    the canonical pair exactly (``network._step_law``)."""
    net = ResourceNetwork(d, {0: "dealer", 1: "relay", 2: "participant"},
                          [Resource("bell", (0, 1)), Resource("bell", (1, 2))])
    distribute(net, [0, 2], mode="symbolic", d=d)


def run_mqss(config: MqssConfig) -> MqssTranscript:
    """All five steps; aborted runs stop after the channel checks.  Each
    repeater link is planned and checked, not sampled (``_build_repeater_pair``).

    The secret enters the computation only at the encoding step -- the event
    log records the first read so the independence is auditable.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    t = MqssTranscript(d=int(config.d), participants=int(config.participants))

    for k in range(1, config.participants + 1):
        rng.integers(2**31)  # one draw per link: a session's later seeds depend on it
        _build_repeater_pair(config.d)
        t.events.append(f"step1: channel {k} working pair ready (fidelity 1.000)")

    for k in range(1, config.participants + 1):
        eav = INTERCEPT_RESEND if config.eavesdrop_channel == k else None
        rate, abort = channel_check(config.d, config.detect_pairs, eav,
                                    seed=int(rng.integers(2**31)),
                                    threshold=config.threshold)
        t.channel_checks.append({"channel": k, "error_rate": rate,
                                 "pairs": int(config.detect_pairs),
                                 "eavesdropper": eav, "abort": abort})
        t.events.append(f"step2: channel {k} error rate {rate:.4f}")
        if abort:
            t.aborted = True
            t.events.append(f"step2: abort, channel {k} exceeded threshold "
                            f"{config.threshold}")
            return t

    *coins, u0 = _ghz_outcome(t.d, t.participants, int(rng.integers(2**31)))
    t.coin_results = coins
    t.position_result = u0
    t.events.append(f"step3: ({config.participants + 1})-party GHZ generated, "
                    f"coin results known to dealer only")

    # every party reads computationally: the d support entries, in index
    # order, are equally likely, and entry i has r0 = (i - q~_1) mod d
    (i,) = draw(rng, t.d, 1, DIGIT_LIMIT.format(t.d))
    t.dealer_result = (i - coins[0]) % t.d
    t.participant_results = [(t.dealer_result + q) % t.d for q in coins]
    t.events.append("step4: all parties measured their GHZ particle")

    t.secret = int(config.secret)
    p = encode_public(config.secret, coins, t.dealer_result, config.participants)
    t.public_value = p
    t.events.append("step4: secret read for the first time; public value published")

    # each share is the public value plus the participant's measured value;
    # measured values are mod-d labels, so the verified invariant is the
    # aggregate identity M*p + sum(q~) + M*r0 = S rather than the share sum
    t.shares = [p + v for v in t.participant_results]
    recon = reconstruct(p, coins, t.dealer_result, config.participants)
    if recon != config.secret:
        raise AssertionError(f"reconstructed {recon}, not the shared secret")
    t.reconstructed = recon
    t.events.append("step5: shares combined, secret reconstructed")
    return t
