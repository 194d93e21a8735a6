"""Compound flows: in-network transformation of streams (Sec V-C).

A broadcast-quality stream is delivered both to its direct destinations
and to a *transcoding facility in the cloud* — selected by anycast among
the facilities that joined the transcoding group. The facility
transcodes (a per-frame processing delay) and re-publishes the
transformed stream to a CDN-distribution multicast group.

Timeliness and reliability must hold across the whole compound flow,
*including* the transformation: if the chosen facility fails, anycast
re-selects another facility and the compound flow heals. The
interruption visible at the CDN receivers is the metric (E12).
"""

from __future__ import annotations

from repro.analysis.metrics import availability_gaps
from repro.core.message import Address, LINK_RELIABLE, OverlayMessage, ServiceSpec
from repro.core.network import OverlayNetwork
from repro.sim.trace import TraceCollector

TRANSCODE_GROUP = "acast:transcode"
CDN_GROUP = "mcast:cdn"


class TranscodingFacility:
    """A cloud transcoder: consumes the anycast input flow, re-publishes
    the transcoded stream to the CDN group."""

    def __init__(
        self,
        overlay: OverlayNetwork,
        site: str,
        port: int,
        transcode_delay: float = 0.005,
        in_group: str = TRANSCODE_GROUP,
        out_group: str = CDN_GROUP,
    ) -> None:
        self.overlay = overlay
        self.sim = overlay.sim
        self.site = site
        self.transcode_delay = transcode_delay
        self.out_addr = Address(out_group, port)
        self.alive = True
        self.frames_transcoded = 0
        self.service = ServiceSpec(link=LINK_RELIABLE)
        self.client = overlay.client(site, port, on_message=self._on_frame)
        self.client.join(in_group)

    def _on_frame(self, msg: OverlayMessage) -> None:
        if not self.alive:
            return  # crashed: frames in flight to us are lost
        self.sim.schedule(self.transcode_delay, self._publish, msg)

    def _publish(self, msg: OverlayMessage) -> None:
        if not self.alive:
            return
        self.frames_transcoded += 1
        self.client.send(
            self.out_addr,
            payload={"transcoded_from": msg.seq, "original_sent_at": msg.sent_at},
            size=msg.size // 2,  # transcoded to a lower bitrate
            service=self.service,
        )

    def fail(self, detection_delay: float = 0.1) -> None:
        """Crash the facility. Processing stops immediately; the overlay
        notices the dead client connection after ``detection_delay`` and
        withdraws its group membership, letting anycast re-select."""
        self.alive = False
        self.sim.schedule(detection_delay, self.client.close)


class CdnReceiver:
    """A CDN ingest point: joins the transcoded-output group and records
    the continuity of the compound flow end to end."""

    def __init__(
        self,
        overlay: OverlayNetwork,
        site: str,
        port: int,
        group: str = CDN_GROUP,
    ) -> None:
        self.overlay = overlay
        self.sim = overlay.sim
        self._trace = TraceCollector()
        self.deliveries = self._trace.records
        self.end_to_end_latencies: list[float] = []
        self.client = overlay.client(site, port, on_message=self._on_frame)
        self.client.join(group)

    def _on_frame(self, msg: OverlayMessage) -> None:
        original_sent = msg.payload["original_sent_at"]
        self.end_to_end_latencies.append(self.sim.now - original_sent)
        self._trace.record_delivery(
            "compound",
            msg.payload["transcoded_from"],
            original_sent,
            self.sim.now,
            f"{self.client.node.id}:{self.client.port}",
            msg.size,
        )

    def interruptions(self, expected_interval: float) -> list[tuple[float, float]]:
        """(start, duration) of every visible service gap."""
        return availability_gaps([r.delivered_at for r in self.deliveries], expected_interval)
