"""Network-state estimation from producer-observable signals.

Section V assumes "the network status to be known" and generates the
configuration file offline; the conclusion lists an online algorithm as
future work.  This module is the estimation half of that extension:
:class:`NetworkStateEstimator` infers the current one-way delay and
packet loss rate purely from producer-observable signals — response
round-trip times, transport retransmission counters and request
failures — using exponentially weighted moving averages.

The control half, which acts on the estimate, is
:class:`~repro.kpi.dynamic.DegradedModeController`, replayed over a trace
by :func:`~repro.kpi.dynamic.run_traced_experiment` with ``controller=``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..performance.queueing import ProducerPerformanceModel

__all__ = ["NetworkStateEstimate", "NetworkStateEstimator"]


@dataclass(frozen=True)
class NetworkStateEstimate:
    """The estimator's belief about the current network condition."""

    delay_s: float
    loss_rate: float
    samples: int

    @property
    def confident(self) -> bool:
        """Whether enough signal arrived to act on the estimate."""
        return self.samples >= 2


class NetworkStateEstimator:
    """EWMA estimator of (D̂, L̂) from producer-side observations.

    Delay: response round-trip times divide roughly into transmission +
    2·(base + D); subtracting the known transmission/broker components
    (the producer knows its own configuration and the hardware profile)
    leaves 2·D̂.  Loss: the fraction of transport sends that needed
    retransmissions estimates per-packet loss via
    ``retx/(segments)`` ≈ L̂ (each lost packet costs one retransmission).
    """

    def __init__(
        self,
        performance_model: Optional[ProducerPerformanceModel] = None,
        smoothing: float = 0.6,
    ) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        self._model = (
            performance_model
            if performance_model is not None
            else ProducerPerformanceModel()
        )
        self._smoothing = smoothing
        self._delay: Optional[float] = None
        self._loss: Optional[float] = None
        self._samples = 0

    def observe_rtt(
        self, rtt_s: float, message_bytes: int, batch_size: int
    ) -> None:
        """Feed one transport-level SRTT observation (segment → ack)."""
        if rtt_s < 0:
            raise ValueError("rtt must be non-negative")
        hardware = self._model.hardware
        wire = self._model.request_wire_bytes(message_bytes, batch_size)
        base = (
            (wire + 66) / hardware.link_capacity_bps
            + 2.0 * hardware.link_base_delay_s
        )
        inferred = max(0.0, (rtt_s - base) / 2.0)
        self._delay = (
            inferred
            if self._delay is None
            else (1 - self._smoothing) * self._delay + self._smoothing * inferred
        )
        self._samples += 1

    def observe_transport(self, segments_sent: int, retransmissions: int) -> None:
        """Feed cumulative transport counters for the last interval."""
        if segments_sent <= 0:
            return
        inferred = min(0.9, retransmissions / segments_sent)
        self._loss = (
            inferred
            if self._loss is None
            else (1 - self._smoothing) * self._loss + self._smoothing * inferred
        )
        self._samples += 1

    def observe_acks(
        self,
        acknowledged: int,
        perceived_lost: int,
        requests_sent: int = 0,
        request_retries: int = 0,
    ) -> None:
        """Feed producer-level delivery accounting for the last interval.

        Two loss proxies are available without any transport visibility:
        the fraction of produce requests that needed an application-level
        retry (each lost request or response costs one retry), and the
        fraction of records the producer gave up on.  The larger of the
        two is the pessimistic packet-loss estimate — retries capture
        transient loss the producer recovered from, give-ups capture loss
        the retries could not hide.  Intervals with no signal (nothing
        sent) are ignored.
        """
        if acknowledged < 0 or perceived_lost < 0:
            raise ValueError("ack counters must be non-negative")
        signals = []
        if requests_sent > 0:
            signals.append(request_retries / requests_sent)
        delivered = acknowledged + perceived_lost
        if delivered > 0:
            signals.append(perceived_lost / delivered)
        if not signals:
            return
        inferred = min(0.9, max(signals))
        self._loss = (
            inferred
            if self._loss is None
            else (1 - self._smoothing) * self._loss + self._smoothing * inferred
        )
        self._samples += 1

    def estimate(self) -> NetworkStateEstimate:
        """Current belief (zeros before any signal)."""
        return NetworkStateEstimate(
            delay_s=self._delay if self._delay is not None else 0.0,
            loss_rate=self._loss if self._loss is not None else 0.0,
            samples=self._samples,
        )
