"""Stdlib-only HTTP shard server: ``repro serve``.

Exposes one cache root's shard layout — the same ``v<N>`` /
``classify-v<N>`` / ``cells-v<N>`` schema directories ``repro cache
gc`` compacts — as a content-addressed HTTP API:

``GET /stores/<schema-dir>/<kind>/<key>``
    The newest-wins value at that address, serialised as the
    *canonical shard line* (:func:`~repro.solve.store.encode_shard_line`)
    so the client can re-run the store's own integrity check
    (:func:`~repro.solve.store.parse_shard_line`) on what it received.
    Headers: ``ETag`` = the line's CRC-32 (quoted), ``X-Repro-SHA256``
    = SHA-256 of the exact body bytes.  ``404`` when the address is
    unknown (after folding in any shard lines appended by other
    writers since the last request).

``HEAD``
    Like ``GET`` without the body — a cheap existence probe.

``PUT /stores/<schema-dir>/<kind>/<key>``
    Push-on-write: the body must be a valid shard line whose kind and
    key match the path (a malformed or mis-addressed body is a
    ``400``, never stored).  Appends through the normal
    :class:`~repro.solve.store.ShardedStore` substrate — single
    ``O_APPEND`` whole-line writes, newest wins — with a lock
    serialising the server's handler threads; ``204`` on success.

``GET /healthz``
    Liveness probe (no chaos injection, no ordinal consumption).

Network chaos (``net:short_read|corrupt@<schema-dir>``) is injected in
the response path, *after* ETag/SHA-256 are computed over the true
body: a ``corrupt`` clause flips a payload byte (the client's
verification must catch it), a ``short_read`` clause advertises the
full ``Content-Length`` but sends only half the body and drops the
connection (the client sees ``IncompleteRead``).
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import ConfigurationError
from repro.solve.gc import _is_schema_dir_name
from repro.solve.store import (ShardedStore, SolveStore, encode_shard_line,
                               parse_shard_line)
from repro.testing import faultinject

#: Content addresses are hex digests; kinds are short lowercase words.
_KEY_RE = re.compile(r"^[0-9a-fA-F]{8,128}$")
_KIND_RE = re.compile(r"^[a-z][a-z_]{0,31}$")


class _ServerIndex(ShardedStore):
    """One served schema directory: a generic ``(kind, key) → value``
    index over the standard shard substrate.

    Unlike the typed client-side stores this index carries *every*
    kind found in the directory — the server relays lines, it does not
    interpret them.  One lock serialises loads, refreshes and appends
    across the server's handler threads (appends themselves are
    single ``O_APPEND`` writes, so external writers sharing the
    directory stay safe as ever).
    """

    def __init__(self, root, subdir: str) -> None:
        super().__init__(root, subdir)
        self._mutex = threading.Lock()

    def _index_entry(self, parsed: tuple[str, str, object] | None) -> None:
        if parsed is None:
            self.corrupt_skipped += 1
            return
        kind, key, value = parsed
        self._entries[(kind, key)] = value

    def lookup(self, kind: str, key: str) -> object | None:
        """The value at one address; a miss re-folds fresh shard tails
        first (another process — a warming CI job, a sibling server —
        may have appended since the last request)."""
        with self._mutex:
            self._ensure_loaded()
            value = self._entries.get((kind, key))
            if value is None:
                self.refresh()
                value = self._entries.get((kind, key))
            return value

    def record(self, kind: str, key: str, value: object) -> None:
        with self._mutex:
            self._ensure_loaded()
            if self._entries.get((kind, key)) == value:
                return  # already present: dedup repeated pushes
            self._entries[(kind, key)] = value
            self._append(kind, key, value)


class _ShardHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the served root and its indexes."""

    #: Lets a restarted server rebind the same port immediately — the
    #: half-open recovery tests kill and revive a server in-place.
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, handler, root) -> None:
        super().__init__(address, handler)
        self.root = root
        self._indexes: dict[str, _ServerIndex] = {}
        self._indexes_lock = threading.Lock()

    def index_for(self, subdir: str) -> _ServerIndex:
        with self._indexes_lock:
            index = self._indexes.get(subdir)
            if index is None:
                index = self._indexes[subdir] = _ServerIndex(self.root,
                                                             subdir)
            return index

    def close_indexes(self) -> None:
        with self._indexes_lock:
            for index in self._indexes.values():
                index.close()


class ShardServerHandler(BaseHTTPRequestHandler):
    """Request handler for the shard protocol (quiet by default)."""

    server_version = "repro-shard/1"
    protocol_version = "HTTP/1.1"

    # -- routing -------------------------------------------------------
    def _target(self) -> tuple[_ServerIndex, str, str, str] | None:
        """``(index, subdir, kind, key)`` for a well-formed store path.

        ``_is_schema_dir_name`` gates the directory exactly like
        ``repro cache import`` does — the path can never escape the
        served root or invent foreign subdirectories.
        """
        parts = [part for part in self.path.split("?")[0].split("/")
                 if part]
        if len(parts) != 4 or parts[0] != "stores":
            return None
        subdir, kind, key = parts[1], parts[2], parts[3]
        if not _is_schema_dir_name(subdir) or not _KIND_RE.match(kind) \
                or not _KEY_RE.match(key):
            return None
        return self.server.index_for(subdir), subdir, kind, key

    # -- responses -----------------------------------------------------
    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def _send_object(self, subdir: str, kind: str, key: str,
                     value: object, *, head: bool) -> None:
        body = encode_shard_line(kind, key, value).encode("utf-8")
        # Integrity headers are computed over the *true* body before
        # any chaos mangling: an injected corruption must be caught by
        # the client's verification, not laundered into new headers.
        checksum = json.loads(body)["c"]
        digest = hashlib.sha256(body).hexdigest()
        clause = None if head else faultinject.net_server_hook(subdir)
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("ETag", f'"{checksum}"')
        self.send_header("X-Repro-SHA256", digest)
        self.end_headers()
        if head:
            return
        if clause is not None and clause.action == "corrupt":
            mangled = bytearray(body)
            mangled[len(mangled) // 2] ^= 0x01
            self.wfile.write(bytes(mangled))
            return
        if clause is not None and clause.action == "short_read":
            # Advertise everything, deliver half, hang up: the client
            # sees http.client.IncompleteRead mid-body.
            self.wfile.write(body[:max(1, len(body) // 2)])
            self.close_connection = True
            return
        self.wfile.write(body)

    # -- verbs ---------------------------------------------------------
    def do_GET(self) -> None:
        if self.path.split("?")[0].rstrip("/") == "/healthz":
            self._send_json(200, {"ok": True})
            return
        target = self._target()
        if target is None:
            self._send_json(404, {"error": "unknown path"})
            return
        index, subdir, kind, key = target
        value = index.lookup(kind, key)
        if value is None:
            self._send_json(404, {"error": "unknown address"})
            return
        self._send_object(subdir, kind, key, value,
                          head=self.command == "HEAD")

    do_HEAD = do_GET

    def do_PUT(self) -> None:
        target = self._target()
        if target is None:
            self._send_json(404, {"error": "unknown path"})
            return
        index, _subdir, kind, key = target
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        if length <= 0 or length > 64 * 1024 * 1024:
            self._send_json(400, {"error": "bad content length"})
            return
        body = self.rfile.read(length)
        parsed = parse_shard_line(body.decode("utf-8", errors="replace"))
        if parsed is None or parsed[0] != kind or parsed[1] != key:
            # Checksum failure, malformed JSON, or a body addressed to
            # a different (kind, key): never stored.
            self._send_json(400, {"error": "body is not a valid shard "
                                           "line for this address"})
            return
        index.record(kind, key, parsed[2])
        self.send_response(204)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        pass  # request logging off: CI output stays diffable


class ShardServer:
    """The ``repro serve`` server object.

    ``port=0`` binds an ephemeral port (tests); :meth:`start` runs the
    server on a daemon thread and returns (tests again), while
    :meth:`serve_forever` blocks (the CLI).  ``url`` is the base URL
    clients put in ``REPRO_REMOTE_STORE``.
    """

    def __init__(self, cache: str | None = None, *,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        store = SolveStore.resolve(cache)
        if store is None:
            raise ConfigurationError(
                "cannot serve with the cache disabled (cache='off')")
        self.root = store.root
        self._httpd = _ShardHTTPServer((host, port), ShardServerHandler,
                                       self.root)
        self._thread: threading.Thread | None = None
        self._serving = False

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ShardServer":
        self._serving = True
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="repro-shard-server",
                                        daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._serving = True
        try:
            self._httpd.serve_forever()
        finally:
            self._serving = False

    def close(self) -> None:
        if self._serving and self._thread is not None:
            # shutdown() waits for an *active* serve loop to exit; on
            # a never-started (or already-stopped) server it would
            # block forever, so it is gated on the background thread.
            self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd.close_indexes()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._serving = False

    def __enter__(self) -> "ShardServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
