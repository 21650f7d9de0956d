"""Call quality scoring with the ITU-T G.107 E-model.

Computes the transmission rating factor R from one-way delay, packet loss
(network loss + jitter-buffer late drops) and codec impairments, then maps
R to a MOS estimate. This is the metric that decides whether VoIP over a
given MANET path is actually usable — the application-level success
criterion behind the paper's scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rtp.codecs import Codec

#: Default basic signal-to-noise rating (G.107 defaults collapse to this).
R0 = 93.2

#: "Users satisfied" threshold on the E-model MOS scale (ITU-T G.107).
MOS_SATISFIED = 3.6


def delay_impairment(one_way_delay_s: float) -> float:
    """Id: impairment from one-way (mouth-to-ear) delay, G.107 approximation."""
    d = one_way_delay_s * 1000.0  # ms
    impairment = 0.024 * d
    if d > 177.3:
        impairment += 0.11 * (d - 177.3)
    return impairment


def loss_impairment(codec: Codec, loss_ratio: float) -> float:
    """Ie-eff: codec impairment inflated by packet loss (G.107 eq. 7-29)."""
    ppl = max(0.0, min(1.0, loss_ratio)) * 100.0
    return codec.ie + (95.0 - codec.ie) * ppl / (ppl + codec.bpl)


def r_factor(codec: Codec, one_way_delay_s: float, loss_ratio: float) -> float:
    """The E-model transmission rating factor R (0..~93)."""
    r = R0 - delay_impairment(one_way_delay_s) - loss_impairment(codec, loss_ratio)
    return max(0.0, min(100.0, r))


def mos_from_r(r: float) -> float:
    """Map R to estimated MOS (G.107 annex B)."""
    if r <= 0:
        return 1.0
    if r >= 100:
        return 4.5
    mos = 1.0 + 0.035 * r + r * (r - 60.0) * (100.0 - r) * 7e-6
    # The G.107 cubic dips slightly below 1 for very small R; clamp to the
    # MOS scale as the recommendation prescribes.
    return max(1.0, min(4.5, mos))


@dataclass
class CallQuality:
    """Scored quality of one received media stream."""

    codec_name: str
    packets_expected: int
    packets_received: int
    packets_played: int
    mean_delay: float
    max_delay: float
    mean_jitter: float
    network_loss_ratio: float
    effective_loss_ratio: float
    r: float
    mos: float
    playout_delay: float = 0.0
    packets_recovered: int = 0

    @property
    def is_acceptable(self) -> bool:
        """MOS >= :data:`MOS_SATISFIED` is the usual 'users satisfied' threshold."""
        return self.mos >= MOS_SATISFIED

    @property
    def mouth_to_ear_delay(self) -> float:
        """Network delay plus jitter-buffer playout delay — the Id input."""
        return self.mean_delay + self.playout_delay

    def summary(self) -> str:
        return (
            f"{self.codec_name}: MOS={self.mos:.2f} R={self.r:.1f} "
            f"delay={self.mean_delay * 1000:.1f}ms "
            f"loss={self.effective_loss_ratio * 100:.1f}% "
            f"({self.packets_played}/{self.packets_expected} frames played)"
        )


def score_stream(
    codec: Codec,
    packets_expected: int,
    packets_received: int,
    packets_played: int,
    delays: list[float],
    jitter: float,
    playout_delay: float = 0.0,
    packets_recovered: int = 0,
) -> CallQuality:
    """Build a :class:`CallQuality` from receiver-side measurements.

    ``packets_received`` must count *unique* network receipts (duplicates
    excluded) or loss is understated. ``packets_played`` includes frames
    rebuilt from RFC 2198 redundancy, so the effective loss the E-model
    sees is already recovery-adjusted; ``packets_recovered`` is carried
    through for reporting. The jitter buffer's ``playout_delay`` is part
    of the mouth-to-ear path, so it feeds the Id delay impairment on top
    of the measured network delay.
    """
    expected = max(packets_expected, packets_received, 1)
    network_loss = 1.0 - packets_received / expected
    effective_loss = max(0.0, 1.0 - packets_played / expected)
    mean_delay = sum(delays) / len(delays) if delays else 0.0
    max_delay = max(delays) if delays else 0.0
    r = r_factor(codec, mean_delay + playout_delay, effective_loss)
    return CallQuality(
        codec_name=codec.name,
        packets_expected=expected,
        packets_received=packets_received,
        packets_played=packets_played,
        mean_delay=mean_delay,
        max_delay=max_delay,
        mean_jitter=jitter,
        network_loss_ratio=max(0.0, network_loss),
        effective_loss_ratio=effective_loss,
        r=r,
        mos=mos_from_r(r),
        playout_delay=playout_delay,
        packets_recovered=packets_recovered,
    )
