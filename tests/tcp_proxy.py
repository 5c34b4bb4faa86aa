"""A pass-through TCP proxy for tests: forwards bytes both ways and keeps them.

Put it between a client and a target to see the exact bytes of each
connection, in each direction, whatever ``recv`` boundaries they crossed.
Each byte is recorded before it is forwarded, so once a client has read a
reply, the reply is in :attr:`TcpProxy.connections`.

With ``cut_every=k`` it also cuts connections: it numbers the target's
replies across all connections, from 1, and of every k-th reply forwards
only the first 5 bytes, then shuts both sockets of that connection down.
The client is waiting for that reply, so each cut is exactly one transport
outcome; a cut between two replies would race the client's retry of a
write on a stale connection, so no cut falls there.
"""

from __future__ import annotations

import hashlib
import re
import socket
import threading

_CONTENT_LENGTH = re.compile(rb"\r\ncontent-length:[ \t]*([0-9]+)", re.IGNORECASE)
_CUT_PREFIX = 5  # bytes of a cut reply that reach the client


class TcpProxy:
    """Listens on a free local port and relays each connection to ``upstream``."""

    def __init__(self, upstream: tuple[str, int], cut_every: int | None = None):
        if cut_every is not None and cut_every < 2:
            raise ValueError("cut_every must be at least 2: the first reply is never cut")
        self.upstream = upstream
        self.cut_every = cut_every
        self.cuts = 0  # connections cut so far
        self._replies = 0  # replies begun so far, over all connections
        self._count_lock = threading.Lock()
        # One (client-to-target, target-to-client) byte log per connection,
        # in the order the connections were accepted.
        self.connections: list[tuple[bytearray, bytearray]] = []
        self._sockets: list[socket.socket] = []
        self._pumps: list[threading.Thread] = []
        self._stopped = threading.Event()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._acceptor = threading.Thread(target=self._accept, daemon=True)
        self._acceptor.start()

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def _accept(self) -> None:
        while True:
            conn, _ = self._listener.accept()
            if self._stopped.is_set():
                conn.close()
                return
            upstream = socket.create_connection(self.upstream, timeout=5)
            upstream.settimeout(None)
            for sock in (conn, upstream):
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sent, received = bytearray(), bytearray()
            self.connections.append((sent, received))
            self._sockets += (conn, upstream)
            relay = _pump if self.cut_every is None else self._relay_replies
            for run, source, sink, log in ((_pump, conn, upstream, sent),
                                           (relay, upstream, conn, received)):
                pump = threading.Thread(target=run, args=(source, sink, log), daemon=True)
                pump.start()
                self._pumps.append(pump)

    def _relay_replies(self, source: socket.socket, sink: socket.socket, log: bytearray) -> None:
        """Copy the target's replies to the client, cutting the connection at every k-th.

        A reply ends ``Content-Length`` bytes after its head; the target must
        frame every reply that way.  A reply is held until its head is whole,
        so its number is known before any of its bytes go out.
        """
        pending = bytearray()  # received, not yet forwarded
        left = 0  # bytes of the current reply still to forward; 0 between replies
        try:
            while chunk := source.recv(65536):
                log += chunk
                pending += chunk
                while pending:
                    if left == 0:
                        head_end = pending.find(b"\r\n\r\n")
                        if head_end < 0:
                            break  # wait for the rest of the head
                        length = _CONTENT_LENGTH.search(pending, 0, head_end + 2)
                        left = head_end + 4 + int(length.group(1))
                        if self._cut_due():
                            sink.sendall(pending[:_CUT_PREFIX])
                            for sock in (source, sink):
                                sock.shutdown(socket.SHUT_RDWR)
                            return
                    forward = pending[:left]
                    sink.sendall(forward)
                    del pending[:len(forward)]
                    left -= len(forward)
        except OSError:
            pass
        try:
            sink.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    def _cut_due(self) -> bool:
        """Number one more reply; true, and counted as a cut, when it is a k-th."""
        with self._count_lock:
            self._replies += 1
            if self._replies % self.cut_every:
                return False
            self.cuts += 1
            return True

    def stop(self) -> None:
        """Stop accepting, cut every open connection and wait for the relays."""
        self._stopped.set()
        socket.create_connection(("127.0.0.1", self.port), timeout=5).close()  # wake accept()
        self._acceptor.join(5.0)
        for sock in self._sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)  # wakes a relay blocked in recv()
            except OSError:
                pass
        for pump in self._pumps:
            pump.join(5.0)
        for sock in self._sockets:
            sock.close()
        self._listener.close()
        assert not self._acceptor.is_alive() and not any(p.is_alive() for p in self._pumps)

    def digest(self) -> str:
        """sha256 over every connection's bytes, both directions, in accept order.

        Clients name the proxy's port, which changes from run to run, in
        their ``Host`` field; the digest reads that port as ``PORT``.
        """
        host = b"\r\nHost: 127.0.0.1:%d\r\n" % self.port
        digest = hashlib.sha256()
        for sent, received in self.connections:
            sent = bytes(sent).replace(host, b"\r\nHost: 127.0.0.1:PORT\r\n")
            digest.update(b"%d %d\n" % (len(sent), len(received)))
            digest.update(sent)
            digest.update(received)
        return digest.hexdigest()

    def __enter__(self) -> "TcpProxy":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _pump(source: socket.socket, sink: socket.socket, log: bytearray) -> None:
    """Copy ``source`` to ``sink`` until end of stream, then pass the end on."""
    try:
        while chunk := source.recv(65536):
            log += chunk
            sink.sendall(chunk)
    except OSError:
        pass
    try:
        sink.shutdown(socket.SHUT_WR)
    except OSError:
        pass
