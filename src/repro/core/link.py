"""Overlay links: hello-based monitoring and multihomed carrier selection.

An overlay link is a logical edge between two neighboring overlay nodes,
realized over one of several candidate underlay **carriers** (each shared
ISP gives an on-net path; the native interdomain path is the fallback —
Sec II-A).

Each side probes *every* candidate carrier with per-carrier hellos (the
paper: "any combination of the available providers may be used"), so a
degraded provider is detected while an alternative is already measured.
Because loss is direction-specific, hellos carry **feedback**: the
receiver's loss estimate for each incoming carrier. A sender picks its
outgoing carrier from the peer's feedback about *its own* outgoing
direction — not from what it happens to receive.

Failure detection (all carriers silent for ``miss_threshold`` hello
intervals) flips the link down within a few hundred ms — the sub-second
reaction that Sec II-A's rerouting is built on.
"""

from __future__ import annotations

from typing import Callable

from repro.core.config import OverlayConfig
from repro.core.message import Frame
from repro.net.internet import Internet
from repro.sim.events import Simulator

#: Fallback latency estimate before the first hello arrives (seconds).
DEFAULT_LATENCY = 0.02

#: Minimum time between carrier switches (avoid flapping).
MIN_SWITCH_INTERVAL = 1.0

#: A carrier must look this much better (absolute loss) to win a switch.
SWITCH_HYSTERESIS = 0.1


def advertised_cost(latency_est: float, loss_est: float,
                    config: OverlayConfig) -> float:
    """Routing cost a link-state record carries: expected latency
    inflated by measured loss, in seconds on a whole-microsecond grid,
    so a refresh whose estimates moved only by float noise repeats the
    stored record."""
    cost = latency_est * (1.0 + config.loss_cost_factor * loss_est)
    return round(cost * 1e6) / 1e6


class _CarrierMonitor:
    """Receiver-side estimates for one incoming carrier."""

    __slots__ = ("last_seq", "last_rx_time", "loss_est", "latency_est",
                 "version")

    def __init__(self) -> None:
        self.last_seq = -1
        self.last_rx_time = -1.0
        self.loss_est = 0.0
        self.latency_est: float | None = None
        #: Bumped whenever ``loss_est`` actually moves — the hello
        #: feedback snapshot is version-stamped against the sum of these
        #: (monotonic), so a tick with unchanged estimates reuses the
        #: previous dict instead of rebuilding it.
        self.version = 0

    def observe(self, seq: int, latency: float, now: float,
                loss_alpha: float, latency_alpha: float) -> bool:
        """Fold one received hello in; False if it was a stale duplicate."""
        if seq <= self.last_seq:
            return False
        gap = seq - self.last_seq - 1 if self.last_seq >= 0 else 0
        self.last_seq = seq
        self.last_rx_time = now
        old_loss = self.loss_est
        for __ in range(min(gap, 50)) if gap else ():
            self.loss_est = self.loss_est * (1 - loss_alpha) + loss_alpha
        self.loss_est *= 1 - loss_alpha
        if self.loss_est != old_loss:
            self.version += 1
        if self.latency_est is None:
            self.latency_est = latency
        else:
            self.latency_est = (
                (1 - latency_alpha) * self.latency_est + latency_alpha * latency
            )
        return True


class OverlayLink:
    """One node's endpoint of an overlay link to a neighbor.

    The two endpoints of a logical link are two :class:`OverlayLink`
    objects (one per node), each choosing the carrier for its *own*
    sending direction.

    Attributes:
        node_id / nbr_id: This side / the neighbor.
        carriers: Candidate carrier names in preference order (on-net
            providers first, then the native interdomain path).
        bit: This link's bit in the overlay's LinkIndex.
        up: Current local opinion of the link's state.
    """

    def __init__(
        self,
        sim: Simulator,
        internet: Internet,
        node_id: str,
        node_host: str,
        nbr_id: str,
        nbr_host: str,
        carriers: list[str],
        bit: int,
        config: OverlayConfig,
        on_state_change: Callable[["OverlayLink"], None],
    ) -> None:
        if not carriers:
            raise ValueError(f"overlay link {node_id}-{nbr_id} has no carriers")
        self.sim = sim
        self.internet = internet
        self.node_id = node_id
        self.node_host = node_host
        self.nbr_id = nbr_id
        self.nbr_host = nbr_host
        self.carriers = list(carriers)
        self.bit = bit
        self.config = config
        self.on_state_change = on_state_change
        self._deliver_to_peer: Callable[[Frame], None] | None = None
        #: Pre-bound underlay delivery callback: built once when
        #: ``deliver_to_peer`` is wired, instead of a fresh closure per
        #: transmitted frame.
        self._deliver_fn = None
        #: Optional frame signer installed by the network when message
        #: authentication is deployed (Sec IV-B).
        self.sign_frame: Callable[[Frame], None] | None = None
        #: The peer node's receive for a hello that is not a frame
        #: (``OverlayNode.receive_hello``); ``None`` frames every hello.
        self.hello_to_peer: Callable[..., None] | None = None

        self.up = False
        #: A muted link transmits nothing (its node has crashed).
        self.muted = False
        self.carrier_idx = 0
        self.switch_count = 0
        self.bytes_sent = 0
        self.frames_sent = 0
        #: Data-plane share of the totals above (frames carrying an
        #: overlay message — what the pipeline's dispatch stage emits;
        #: the rest is control: hellos, LSU/GSU floods, acks).
        self.data_bytes_sent = 0
        self.data_frames_sent = 0
        #: Fluid bulk traffic currently riding this link direction
        #: (bytes/s), maintained by the fluid engine at each re-solve —
        #: zero whenever fluid mode is off.
        self.fluid_rate_bps = 0.0
        #: Fluid bytes settled onto this link direction so far (the
        #: fluid analogue of ``data_bytes_sent``).
        self.fluid_bytes_sent = 0.0

        self._hello_seq = {name: 0 for name in self.carriers}
        self._rx = {name: _CarrierMonitor() for name in self.carriers}
        #: Peer-reported loss of each of MY outgoing carriers.
        self._peer_feedback: dict[str, float] = {}
        self._last_rx_time = -1.0
        self._recover_count = 0
        self._last_switch = -MIN_SWITCH_INTERVAL
        self._started = False
        #: The link's one periodic timer: each tick checks for silence,
        #: then sends a hello on every carrier.
        self._hello_timer = None
        #: Hoisted silence timeout (hello_interval * miss_threshold) —
        #: recomputing it per tick / usability probe was measurable in
        #: steady state.
        self._silence_timeout = config.hello_interval * config.miss_threshold
        #: Per-carrier pre-resolved underlay channels, refreshed when the
        #: Internet's carrier structure generation moves.
        self._channels: dict[str, object] = {}
        self._chan_gen = -1
        #: Version-stamped hello feedback snapshot: rebuilt
        #: only when some carrier's loss estimate changed. Rebuilds make
        #: a NEW dict, so frames already in flight keep the old snapshot.
        self._feedback: dict[str, float] = {}
        self._feedback_version = -1
        self._hello_wire: int | None = None

    # ----------------------------------------------------------- wiring

    @property
    def carrier(self) -> str:
        """The carrier currently used for data frames."""
        return self.carriers[self.carrier_idx]

    @property
    def deliver_to_peer(self) -> Callable[[Frame], None] | None:
        """Frame handler at the peer node (assigned by network wiring).

        Setting it also pre-binds the one underlay delivery callback
        handed to :meth:`Internet.send_via` for every frame on this
        link.
        """
        return self._deliver_to_peer

    @deliver_to_peer.setter
    def deliver_to_peer(self, fn: Callable[[Frame], None] | None) -> None:
        self._deliver_to_peer = fn
        if fn is None:
            self._deliver_fn = None
        else:
            def _deliver(datagram, _fn=fn):
                _fn(datagram.payload)

            self._deliver_fn = _deliver

    def start(self) -> None:
        """Arm the link's one tick: hello probing on every carrier, from
        now on, each tick after the first checking for silence first."""
        if self._started:
            return
        self._started = True
        self._hello_timer = self.sim.schedule_periodic(
            self.config.hello_interval, self._hello_tick, first=0.0
        )

    def _channel(self, name: str):
        """Pre-resolved underlay channel for carrier ``name`` (cached;
        refetched when the Internet's carrier structure changes)."""
        if self._chan_gen != self.internet.channel_gen:
            self._channels.clear()
            self._chan_gen = self.internet.channel_gen
        chan = self._channels.get(name)
        if chan is None:
            chan = self.internet.channel(self.node_host, self.nbr_host, name)
            self._channels[name] = chan
        return chan

    def transmit(self, frame: Frame, carrier: str | None = None) -> None:
        """Send a link-level frame to the neighbor (data frames ride the
        selected carrier; hellos pass an explicit probe carrier)."""
        if self._deliver_to_peer is None:
            raise RuntimeError(f"link {self.node_id}->{self.nbr_id} not wired")
        if self.muted:
            return
        if self.sign_frame is not None:
            self.sign_frame(frame)
        wire = frame.wire_size
        self.bytes_sent += wire
        self.frames_sent += 1
        if frame.msg is not None:
            self.data_bytes_sent += wire
            self.data_frames_sent += 1
        name = carrier if carrier is not None else self.carriers[self.carrier_idx]
        self.internet.send_via(
            self._channel(name), frame, wire, self._deliver_fn
        )

    # ------------------------------------------------------------ hellos

    def _hello_tick(self) -> None:
        # The failure check runs before this tick's hellos go out: down
        # after miss_threshold silent intervals, then carrier selection.
        # The first tick has nothing to check. A check runs after any
        # event the previous tick queued for this instant.
        if self._hello_timer.fired > 1:
            if (self.up and self.sim._now - self._last_rx_time
                    > self._silence_timeout):
                self._set_up(False)
            self._maybe_switch_carrier()
        version = sum(monitor.version for monitor in self._rx.values())
        if version != self._feedback_version:
            self._feedback = {
                name: monitor.loss_est for name, monitor in self._rx.items()
            }
            self._feedback_version = version
            # Hello frames have a fixed info layout (3 scalars plus the
            # nested feedback dict), so their wire size only changes
            # when the feedback dict does — precompute it here instead
            # of re-walking the dict per frame. Must match
            # Frame.wire_size's control accounting exactly.
            self._hello_wire = 16 + 8 * (3 + len(self._feedback))
        feedback = self._feedback
        hello_wire = self._hello_wire
        now = self.sim._now
        seqs = self._hello_seq
        # A signer needs a frame, and transmit decides what a muted or
        # unwired endpoint does; the underlay frames the rest as needed.
        lane = (self.sign_frame is None and not self.muted
                and self.hello_to_peer is not None)
        for name in self.carriers:
            seq = seqs[name]
            seqs[name] = seq + 1
            if lane:
                self.bytes_sent += hello_wire
                self.frames_sent += 1
                self.internet.send_hello(self._channel(name), self, name, seq,
                                         feedback, hello_wire)
            else:
                self.transmit(self.hello_frame(name, seq, now, feedback,
                                               hello_wire), carrier=name)

    def hello_frame(self, carrier: str, seq: int, ts: float, feedback: dict,
                    wire: int) -> Frame:
        """This endpoint's hello as a frame — the one place one is built,
        and only for what reads it: a signer, any transit but a quiet
        one, a receiver with a keystore or an adversary behaviour, and a
        hello in flight when the underlay changes."""
        return Frame("control", "hello", self.node_id, self.nbr_id, info={
            "carrier": carrier, "seq": seq, "ts": ts, "feedback": feedback,
        }, wire_override=wire)

    def on_hello(self, info: dict) -> None:
        """:meth:`hello` for a hello that arrived as a frame."""
        self.hello(info["carrier"], info["seq"], info["ts"],
                   info.get("feedback"))

    def hello(self, carrier: str, seq: int, ts: float,
              feedback: dict | None) -> None:
        """Handle a hello received from the neighbor on ``carrier``
        (measures the neighbor->us direction of that carrier; simulated
        clocks are synchronized)."""
        now = self.sim._now
        monitor = self._rx.get(carrier)
        if monitor is None:
            return  # carrier lists disagree; ignore
        fresh = monitor.observe(
            seq, now - ts, now,
            self.config.loss_alpha, self.config.latency_alpha,
        )
        if not fresh:
            return
        if feedback is not None:
            # The sender never writes a feedback dict it has sent (a
            # rebuild makes a new one), so keeping it needs no copy.
            self._peer_feedback = feedback
        self._last_rx_time = now
        if not self.up:
            self._recover_count += 1
            if self._recover_count >= self.config.recover_threshold:
                self._set_up(True)

    def _set_up(self, up: bool) -> None:
        self.up = up
        self._recover_count = 0
        self.on_state_change(self)

    # ------------------------------------------------- carrier selection

    def _outgoing_loss(self, name: str) -> float:
        """Best estimate of MY->peer loss on ``name``: the peer's
        feedback, falling back to our incoming estimate (symmetric loss
        is the common case)."""
        if name in self._peer_feedback:
            return self._peer_feedback[name]
        return self._rx[name].loss_est

    def _carrier_usable(self, name: str) -> bool:
        """A carrier is usable if we have heard from it recently."""
        monitor = self._rx[name]
        return (
            monitor.last_rx_time >= 0
            and self.sim._now - monitor.last_rx_time <= self._silence_timeout
        )

    def _maybe_switch_carrier(self) -> None:
        if len(self.carriers) < 2:
            return
        if self.sim._now - self._last_switch < MIN_SWITCH_INTERVAL:
            return
        current = self.carrier
        current_dead = not self._carrier_usable(current)
        current_loss = self._outgoing_loss(current)
        if not current_dead and current_loss <= self.config.carrier_loss_switch:
            return
        # Pick the best usable alternative (preference order on ties).
        best_idx = None
        best_loss = None
        for idx, name in enumerate(self.carriers):
            if idx == self.carrier_idx or not self._carrier_usable(name):
                continue
            loss = self._outgoing_loss(name)
            if best_loss is None or loss < best_loss:
                best_idx, best_loss = idx, loss
        if best_idx is None:
            if current_dead:
                # Nothing measured as alive: blind round-robin probe.
                self._switch_to((self.carrier_idx + 1) % len(self.carriers))
            return
        if current_dead or best_loss < current_loss - SWITCH_HYSTERESIS:
            self._switch_to(best_idx)

    def _switch_to(self, idx: int) -> None:
        self._last_switch = self.sim.now
        self.carrier_idx = idx
        self.switch_count += 1
        # A carrier switch moves this link's fluid traffic onto a
        # different underlay path — a fluid re-solve boundary (rare;
        # the listener list is empty whenever fluid mode is off, and
        # unit tests drive bare links with no underlay at all).
        internet = self.internet
        if internet is not None and internet.fluid_listeners:
            internet._poke_fluid("carrier-switch")

    # ------------------------------------------------------------- cost

    @property
    def latency_est(self) -> float | None:
        """Measured one-way latency of the current carrier (peer->us)."""
        return self._rx[self.carrier].latency_est

    @property
    def loss_est(self) -> float:
        """Loss estimate for our outgoing direction on the current carrier."""
        return self._outgoing_loss(self.carrier)

    @property
    def latency(self) -> float:
        """Best current latency estimate (with a sane default)."""
        est = self.latency_est
        return est if est is not None else DEFAULT_LATENCY

    @property
    def rtt(self) -> float:
        return 2.0 * self.latency

    def cost(self) -> float | None:
        """Routing cost advertised in link-state updates, or ``None``
        when down (:func:`advertised_cost`)."""
        if not self.up or self.latency_est is None:
            return None
        return advertised_cost(self.latency_est, self.loss_est, self.config)

    # ------------------------------------------------- warm-start support

    def warm_state(self) -> dict:
        """Snapshot this endpoint's protocol state (JSON-shaped). The
        ``_hello_timer`` schedule entry (firing time and seq) is captured
        separately by the snapshot layer, which owns the simulator
        queue."""
        return {
            "up": self.up,
            "muted": self.muted,
            "carrier_idx": self.carrier_idx,
            "switch_count": self.switch_count,
            "bytes_sent": self.bytes_sent,
            "frames_sent": self.frames_sent,
            "data_bytes_sent": self.data_bytes_sent,
            "data_frames_sent": self.data_frames_sent,
            "hello_seq": dict(self._hello_seq),
            "rx": {
                name: [m.last_seq, m.last_rx_time, m.loss_est,
                       m.latency_est, m.version]
                for name, m in self._rx.items()
            },
            "peer_feedback": dict(self._peer_feedback),
            "last_rx_time": self._last_rx_time,
            "recover_count": self._recover_count,
            "last_switch": self._last_switch,
            "feedback": dict(self._feedback),
            "feedback_version": self._feedback_version,
            "hello_wire": self._hello_wire,
        }

    def restore_warm(self, state: dict) -> None:
        """Install a :meth:`warm_state` snapshot into this (unstarted)
        endpoint and mark it started — the snapshot layer re-arms
        ``_hello_timer`` (with its firing count) via the simulator's
        adoption API."""
        if self._started:
            raise RuntimeError(
                f"link {self.node_id}->{self.nbr_id} already started"
            )
        self._started = True
        self.up = state["up"]
        self.muted = state["muted"]
        self.carrier_idx = state["carrier_idx"]
        self.switch_count = state["switch_count"]
        self.bytes_sent = state["bytes_sent"]
        self.frames_sent = state["frames_sent"]
        self.data_bytes_sent = state["data_bytes_sent"]
        self.data_frames_sent = state["data_frames_sent"]
        self._hello_seq = dict(state["hello_seq"])
        for name, packed in state["rx"].items():
            monitor = self._rx[name]
            (monitor.last_seq, monitor.last_rx_time, monitor.loss_est,
             monitor.latency_est, monitor.version) = packed
        self._peer_feedback = dict(state["peer_feedback"])
        self._last_rx_time = state["last_rx_time"]
        self._recover_count = state["recover_count"]
        self._last_switch = state["last_switch"]
        self._feedback = dict(state["feedback"])
        self._feedback_version = state["feedback_version"]
        self._hello_wire = state["hello_wire"]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.up else "down"
        return (
            f"<OverlayLink {self.node_id}->{self.nbr_id} {state} "
            f"carrier={self.carrier}>"
        )
