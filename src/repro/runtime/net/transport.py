"""Peer-mesh TCP transport for the ``net`` backend.

Every rank holds one listening socket plus one connected socket per peer
(a full mesh — rank counts here are the shard counts of §5, not MPI
world sizes).  Connection establishment is deadlock-free by convention:
rank ``r`` *connects* to every lower rank and *accepts* from every
higher rank; the two exchange ``HELLO`` frames naming their rank and
byte order, and a byte-order mismatch fails the handshake on both ends
(``MSG`` bodies are raw native-order field bytes).

One daemon receiver thread per peer reads frames off the socket and
dispatches them to handlers registered per frame kind; the handlers
(credit bumps, payload delivery, collective partials) are designed to be
cheap and lock-scoped so the receiver threads never block on the shard
thread.  A clean EOF at a frame boundary marks the peer *finished* — the
normal end of a run, since ranks close their sockets after the shutdown
rendezvous; a mid-frame EOF or decode error marks the peer finished too and
leaves failure reporting to the driver's cancellation path (a dying rank
broadcasts an ``ERROR`` frame first when it can).

Credits wait for a ride.  The shard thread *queues* each ``CREDIT``
(:meth:`Transport.queue_credit`); the queue is that thread's alone and
leaves in the same ``sendall`` as its next ``MSG`` to the peer
(:meth:`Transport.send_msg`), or on its own when the shard thread is
about to block (:meth:`Transport.flush_credits`, called by every net
event's blocking wait and at the rank's end) or the credit's statement
sends the peer no ``MSG`` to ride.  Frames sent from receiver
threads (tree relays) go out through :meth:`Transport.send` and never
touch the queue.

Byte/message counters are kept per peer per direction with single-writer
discipline (sends count under the per-peer send lock, receives count in
the one receiver thread) and summed by :meth:`Transport.stats`.  The
message counts are frames, not syscalls: a credit riding a message is
one ``credit`` and one ``msg`` frame sent in one ``sendall``.
"""

from __future__ import annotations

import socket
import sys
import threading
import time

from .frame import (CREDIT, HELLO, KIND_NAMES, MSG, FrameError, FrameReader,
                    credit_frame, encode_frame)

__all__ = ["Transport", "bind_listeners"]

_HANDSHAKE_TIMEOUT_S = 60.0


def bind_listeners(ns: int, host: str = "127.0.0.1"):
    """Pre-bind one listening socket per rank on ephemeral ports.

    Called in the parent before forking so every child inherits the full
    address map (and its own already-listening socket) with no rendezvous
    file or port race.  The backlog is ``ns``: every peer may connect
    before the owning rank first calls ``accept``.
    """
    listeners, addrs = [], []
    for _ in range(ns):
        s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        s.bind((host, 0))
        s.listen(ns)
        listeners.append(s)
        addrs.append(s.getsockname())
    return listeners, addrs


def _prepare(sock: socket.socket) -> None:
    # Credit and collective frames are tiny and latency-bound; Nagle
    # would batch them behind data frames.
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class _CountingSocket:
    """recv-only façade that bumps a single-writer byte counter."""

    __slots__ = ("_sock", "_counter")

    def __init__(self, sock, counter: list) -> None:
        self._sock = sock
        self._counter = counter  # one-element list, receiver-thread-only

    def recv(self, n: int) -> bytes:
        chunk = self._sock.recv(n)
        self._counter[0] += len(chunk)
        return chunk


class Transport:
    """The full-mesh peer transport of one rank."""

    def __init__(self, rank: int, ns: int, listener: socket.socket, addrs):
        self.rank = rank
        self.ns = ns
        self._listener = listener
        self._addrs = [tuple(a) for a in addrs]
        self._socks: dict[int, socket.socket] = {}
        # Per peer, the one reader of its socket: the handshake's, then
        # the receiver thread's.
        self._readers: dict[int, FrameReader] = {}
        self._send_locks: dict[int, threading.Lock] = {}
        self._handlers: dict[int, object] = {}
        self._recv_threads: list[threading.Thread] = []
        self.finished = {r: threading.Event()
                         for r in range(ns) if r != rank}
        self.closing = False
        self.byteorder = sys.byteorder
        # Per peer, the CREDIT frames the shard thread has queued.
        self._credits: dict[int, list[bytes]] = {r: [] for r in self.finished}
        # Single-writer counters: sends under the per-peer send lock,
        # receives in the per-peer receiver thread.
        self._sent_bytes = {r: [0] for r in self.finished}
        self._recv_bytes = {r: [0] for r in self.finished}
        self._sent_msgs: dict[int, dict[int, int]] = {r: {}
                                                      for r in self.finished}
        self._recv_msgs: dict[int, dict[int, int]] = {r: {}
                                                      for r in self.finished}

    # -- connection establishment -----------------------------------------
    def register(self, kind: int, handler) -> None:
        """Install ``handler(peer_rank, payload)`` for one frame kind.

        Must be called before :meth:`start_receivers`; handlers run on
        the per-peer receiver threads.
        """
        self._handlers[kind] = handler

    def connect_all(self, timeout_s: float = _HANDSHAKE_TIMEOUT_S) -> None:
        """Establish the mesh: accept from higher ranks, dial lower ones."""
        expect = self.ns - 1 - self.rank
        accepted: dict[int, socket.socket] = {}
        accept_errors: list[BaseException] = []

        def acceptor() -> None:
            try:
                self._listener.settimeout(timeout_s)
                for _ in range(expect):
                    sock, _ = self._listener.accept()
                    _prepare(sock)
                    sock.settimeout(timeout_s)
                    peer = self._hello(sock)
                    sock.settimeout(None)
                    accepted[peer] = sock
            except BaseException as exc:  # surfaced on the joining thread
                accept_errors.append(exc)

        t = None
        if expect:
            t = threading.Thread(target=acceptor, daemon=True,
                                 name=f"repro-net-accept-{self.rank}")
            t.start()
        for peer in range(self.rank):
            sock = self._dial(self._addrs[peer], timeout_s)
            sock.settimeout(timeout_s)
            got = self._hello(sock, first=True)
            sock.settimeout(None)
            if got != peer:
                raise FrameError(f"rank {self.rank}: dialled rank {peer}, "
                                 f"rank {got} answered")
            self._socks[peer] = sock
        if t is not None:
            t.join(timeout_s + 5.0)
            if accept_errors:
                raise RuntimeError(
                    f"rank {self.rank}: handshake failed: "
                    f"{accept_errors[0]}") from accept_errors[0]
            if len(accepted) != expect:
                raise RuntimeError(
                    f"rank {self.rank}: only {len(accepted)}/{expect} higher "
                    f"ranks connected within {timeout_s}s")
            self._socks.update(accepted)
        for peer in self._socks:
            self._send_locks[peer] = threading.Lock()

    def _hello(self, sock, first: bool = False) -> int:
        """Exchange ``HELLO`` frames (the dialler speaks ``first``);
        returns the peer's rank.  Raises if the peer's byte order is not
        this rank's: both ends of a mismatch fail.  The peer's frame
        reader, holding whatever it read past the ``HELLO``, is kept for
        its receiver thread, and the handshake counts as traffic."""
        recv_bytes = [0]
        reader = FrameReader(_CountingSocket(sock, recv_bytes))
        mine = encode_frame(HELLO, (self.rank, self.byteorder))
        if first:
            sock.sendall(mine)
        kind, payload = reader.read()
        if (kind != HELLO or not isinstance(payload, tuple)
                or len(payload) != 2 or not isinstance(payload[0], int)):
            raise FrameError(f"rank {self.rank}: expected HELLO, got "
                             f"{KIND_NAMES.get(kind, kind)}")
        if not first:
            sock.sendall(mine)
        peer, order = payload
        if peer not in self.finished:
            raise FrameError(f"rank {self.rank}: HELLO from rank {peer}, "
                             f"not one of its {self.ns - 1} peers")
        if order != self.byteorder:
            raise FrameError(
                f"rank {self.rank} is {self.byteorder}-endian but rank "
                f"{peer} is {order}-endian: MSG frames carry raw field "
                f"bytes, so both must share a byte order")
        self._readers[peer] = reader
        self._recv_bytes[peer] = recv_bytes
        self._recv_msgs[peer][HELLO] = 1
        self._sent_bytes[peer][0] += len(mine)
        self._sent_msgs[peer][HELLO] = 1
        return peer

    @staticmethod
    def _dial(addr, timeout_s: float) -> socket.socket:
        # Worker mode starts ranks independently, so a lower rank's
        # listener may not be up yet: retry until the deadline.
        deadline = time.monotonic() + timeout_s
        while True:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                sock.settimeout(min(5.0, timeout_s))
                sock.connect(addr)
                sock.settimeout(None)
                _prepare(sock)
                return sock
            except OSError:
                sock.close()
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)

    def start_receivers(self) -> None:
        for peer in sorted(self._socks):
            th = threading.Thread(
                target=self._recv_loop, args=(peer,), daemon=True,
                name=f"repro-net-recv-{self.rank}-{peer}")
            th.start()
            self._recv_threads.append(th)

    # -- receive -----------------------------------------------------------
    def _recv_loop(self, peer: int) -> None:
        reader = self._readers[peer]
        msgs = self._recv_msgs[peer]
        handlers = self._handlers
        try:
            while True:
                kind, payload = reader.read()
                if kind is None:
                    break  # clean EOF: the peer finished and closed
                msgs[kind] = msgs.get(kind, 0) + 1
                handler = handlers.get(kind)
                if handler is not None:
                    handler(peer, payload)
        except (FrameError, OSError):
            # A hard peer death (mid-frame EOF, reset).  The failure
            # itself propagates through the driver's cancellation path
            # (ERROR broadcast / parent exit-code watch); here we only
            # stop reading.
            pass
        finally:
            self.finished[peer].set()

    # -- send --------------------------------------------------------------
    def send(self, peer: int, kind: int, payload) -> None:
        """One tagged-value frame to ``peer``; safe from any thread."""
        self._write(peer, encode_frame(kind, payload), ((kind, 1),))

    def send_msg(self, peer: int, parts) -> None:
        """One ``MSG`` frame, given as its buffers, to ``peer``, with every
        ``CREDIT`` queued for ``peer`` in front of it: one ``sendall``.
        Shard thread only."""
        queued = self._credits[peer]
        if queued:
            counts = ((MSG, 1), (CREDIT, len(queued)))
            parts = [*queued, *parts]
            queued.clear()
        else:
            counts = ((MSG, 1),)
        self._write(peer, b"".join(parts), counts)

    def queue_credit(self, peer: int, chan_id: int, gen: int) -> None:
        """Queue a ``CREDIT`` for ``peer``: it leaves with the next
        :meth:`send_msg` to ``peer`` or :meth:`flush_credits`.  Shard
        thread only."""
        self._credits[peer].append(credit_frame(chan_id, gen))

    def flush_credits(self, peer: int | None = None) -> None:
        """Send the ``CREDIT`` frames queued for ``peer``, or for every
        peer, one ``sendall`` per peer.  Shard thread only: called before
        it blocks, so no wait can hold one, and for a credit that has no
        ``MSG`` to ride."""
        for p in self._credits if peer is None else (peer,):
            queued = self._credits[p]
            if queued:
                data, n = b"".join(queued), len(queued)
                queued.clear()
                self._write(p, data, ((CREDIT, n),))

    def _write(self, peer: int, data: bytes, counts) -> None:
        lock = self._send_locks[peer]
        try:
            with lock:
                self._socks[peer].sendall(data)
                self._sent_bytes[peer][0] += len(data)
                msgs = self._sent_msgs[peer]
                for kind, n in counts:
                    msgs[kind] = msgs.get(kind, 0) + n
        except OSError:
            # The peer may have finished cleanly and closed its end while
            # our last credits were still in flight (credits trail the
            # final data exchange by construction).  Give its receiver a
            # moment to observe the clean EOF; only a peer that is truly
            # gone without finishing is an error.
            if self.closing or self.finished[peer].wait(2.0):
                return
            raise

    def broadcast(self, kind: int, payload) -> None:
        """Best-effort send to every peer (used for ERROR frames)."""
        for peer in self._socks:
            try:
                self.send(peer, kind, payload)
            except OSError:
                pass

    # -- lifecycle ---------------------------------------------------------
    def stats(self) -> dict:
        def name_keys(per_peer: dict[int, dict[int, int]]) -> dict[str, int]:
            out: dict[str, int] = {}
            for msgs in per_peer.values():
                for kind, n in msgs.items():
                    key = KIND_NAMES.get(kind, str(kind))
                    out[key] = out.get(key, 0) + n
            return out

        return {
            "bytes_sent": sum(c[0] for c in self._sent_bytes.values()),
            "bytes_recv": sum(c[0] for c in self._recv_bytes.values()),
            "messages_sent": name_keys(self._sent_msgs),
            "messages_recv": name_keys(self._recv_msgs),
        }

    def close(self) -> None:
        self.closing = True
        for sock in self._socks.values():
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        try:
            self._listener.close()
        except OSError:
            pass
        for th in self._recv_threads:
            th.join(timeout=2.0)
