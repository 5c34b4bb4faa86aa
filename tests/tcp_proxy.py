"""A pass-through TCP proxy for tests: forwards bytes both ways and keeps them.

Put it between a client and a target to see the exact bytes of each
connection, in each direction, whatever ``recv`` boundaries they crossed.
Each byte is recorded before it is forwarded, so once a client has read a
reply, the reply is in :attr:`TcpProxy.connections`.
"""

from __future__ import annotations

import hashlib
import socket
import threading


class TcpProxy:
    """Listens on a free local port and relays each connection to ``upstream``."""

    def __init__(self, upstream: tuple[str, int]):
        self.upstream = upstream
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
            for source, sink, log in ((conn, upstream, sent), (upstream, conn, received)):
                pump = threading.Thread(target=_pump, args=(source, sink, log), daemon=True)
                pump.start()
                self._pumps.append(pump)

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
