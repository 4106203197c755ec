"""Persistent, content-addressed solve cache shared across runs.

The in-process :class:`~repro.solve.planner.SolvePlanner` dedups the
ILP sweep of *one* estimator; this store extends the dedup across
processes, CLI invocations, test sessions and CI runs.  Entries are
keyed by a SHA-256 digest of everything that determines a solve's
outcome:

* the store schema version (bumped on any format or semantics change);
* the CFG digest (blocks, instruction addresses, edges, loop bounds —
  see :meth:`repro.cfg.graph.CFG.digest`);
* the cache geometry and timing model of the estimation run;
* the canonical objective, expressed over *variable names* (not
  indices), so the key is independent of variable creation order;
* the solver mode (exact ILP vs LP relaxation).

Storage is a directory of append-only JSONL shard files, one shard per
writer process, under a schema-versioned subdirectory.  Appends are
single ``write`` calls of one line each, so concurrent writers — e.g.
:meth:`SolvePlanner.prime` pool workers or parallel ``run_suite``
benchmark tasks — never corrupt each other; at worst the same entry is
recorded twice, which is harmless because values are deterministic.
Every line carries a CRC-32 of its payload: truncated tails (a killed
writer), garbage bytes and checksum mismatches are skipped on load and
simply re-solved, never propagated.

Control knob: ``REPRO_CACHE`` —

* unset: the default user cache directory
  (``$XDG_CACHE_HOME``/``~/.cache`` ``/repro/solve``);
* ``off`` (or ``0``/``none``): persistent caching disabled;
* any other value: used as the store directory.

``EstimatorConfig(cache=...)`` / ``--cache`` override the environment
per run.  ``REPRO_REMOTE_STORE=<url>`` / ``--remote`` additionally
layers a :class:`~repro.remote.client.RemoteStoreClient` under every
resolved store: local misses fetch from a shard server, local writes
push back, and a dead or flaky server degrades to local-only
(:mod:`repro.remote`).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import time
import uuid
import zlib
from dataclasses import dataclass, field

from repro.testing import faultinject

#: Bump on ANY change to the entry format, the key derivation, or the
#: meaning of stored values.  Old entries live under another ``v<N>``
#: subdirectory and are never even loaded.
SCHEMA_VERSION = 1

#: Environment variable controlling the default store location.
CACHE_ENV = "REPRO_CACHE"

#: Environment variable selecting a remote shard server (the client
#: lives in :mod:`repro.remote.client`; the name is defined here so
#: resolution can check it without importing that module).
REMOTE_ENV = "REPRO_REMOTE_STORE"

#: Values of :data:`CACHE_ENV` that disable persistence entirely.
_OFF_VALUES = frozenset({"off", "0", "none", "disabled"})


def cache_env_value() -> str | None:
    """The cache root configured in ``REPRO_CACHE``, if any."""
    return os.environ.get(CACHE_ENV)


def attach_remote(store: "ShardedStore") -> "ShardedStore":
    """(Re-)attach the remote client selected by the environment.

    Runs on every ``resolve()`` so long-lived processes and tests can
    flip ``REPRO_REMOTE_STORE`` between runs; client handles are
    memoised per URL on their side.  The import is lazy both to avoid
    the ``repro.pipeline`` import cycle and to keep purely local runs
    from paying for the remote stack.
    """
    url = os.environ.get(REMOTE_ENV, "")
    if not url.strip() or url.strip().lower() in _OFF_VALUES:
        store.remote = None
        return store
    from repro.remote.client import RemoteStoreClient
    store.remote = RemoteStoreClient.resolve()
    return store


def default_cache_dir() -> pathlib.Path:
    """The XDG-style default store location."""
    base = os.environ.get("XDG_CACHE_HOME")
    root = pathlib.Path(base) if base else pathlib.Path.home() / ".cache"
    return root / "repro" / "solve"


def solve_key(context: str, named_objective, relaxed: bool,
              kind: str = "value") -> str:
    """Content address of one solve.

    ``named_objective`` is an iterable of ``(variable name, weight)``
    pairs; it is canonicalised (sorted by name) here so callers may
    pass any order.  ``kind`` separates integer optima (``"value"``)
    from full solution vectors (``"solution"``).
    """
    payload = json.dumps(
        [SCHEMA_VERSION, kind, context, sorted(named_objective),
         bool(relaxed)],
        separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def store_context(cfg_digest: str, geometry, timing) -> str:
    """The per-estimator key prefix of the ISSUE/ROADMAP design.

    Keys a solve by (CFG digest, geometry, timing model); the schema
    version, canonical objective and solver mode are folded in by
    :func:`solve_key`.
    """
    return json.dumps({
        "cfg": cfg_digest,
        "geometry": [geometry.sets, geometry.ways, geometry.block_bytes],
        "timing": [timing.hit_cycles, timing.memory_cycles],
    }, sort_keys=True, separators=(",", ":"))


@dataclass
class StoreStats:
    """Load/serve counters of one store handle."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    #: Entries loaded from shards (after dedup across shards).
    loaded: int = 0
    #: Lines dropped on load: bad JSON, bad checksum, missing fields.
    corrupt_skipped: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes, "loaded": self.loaded,
                "corrupt_skipped": self.corrupt_skipped}


def _checksum(kind: str, key: str, value_text: str) -> int:
    return zlib.crc32(f"{kind}|{key}|{value_text}".encode("utf-8"))


def encode_shard_line(kind: str, key: str, value: object) -> str:
    """One checksummed shard line (shared by both stores and gc).

    The canonical value text feeds both the checksum and the line
    itself — dumping the value once, not twice — so the line is
    assembled around it.  The splice is byte-identical to
    ``json.dumps({"c": ..., "k": ..., "t": ..., "v": value},
    sort_keys=True, separators=(",", ":"))``: the keys are already in
    sorted order and the value occupies one canonical-form slot.
    """
    value_text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    checksum = _checksum(kind, key, value_text)
    return (f'{{"c":{checksum},"k":{json.dumps(key)},'
            f'"t":{json.dumps(kind)},"v":{value_text}}}\n')


def parse_shard_line(line: str) -> tuple[str, str, object] | None:
    """Validate one shard line; ``None`` when unreadable.

    The single definition of what counts as a valid line — JSON shape
    plus CRC-32 over (kind, key, canonical value) — used by the solve
    store, the classification store and ``repro cache gc``, so the
    three readers can never drift apart in what they accept.
    """
    line = line.strip()
    if not line:
        return None
    try:
        entry = json.loads(line)
        kind, key, value, checksum = (entry["t"], entry["k"], entry["v"],
                                      entry["c"])
    except (ValueError, TypeError, KeyError):
        return None
    if not isinstance(kind, str) or not isinstance(key, str):
        return None
    value_text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    if checksum != _checksum(kind, key, value_text):
        return None
    return kind, key, value


#: Handles memoised by the ``resolve`` class methods, keyed by (store
#: class, absolute store directory).  Forked pool workers inherit the
#: open shard file descriptors, which stays safe because appends are
#: single O_APPEND writes of whole lines.
_RESOLVED: dict[tuple[type, str], "ShardedStore"] = {}


class ShardedStore:
    """Shared shard lifecycle of the persistent stores.

    One schema-versioned directory (``subdir``) of append-only JSONL
    shards, one shard per writer process, every line checksummed
    (:func:`encode_shard_line` / :func:`parse_shard_line`).  Appends
    are single ``O_APPEND`` writes of whole lines, so concurrent
    writers interleave safely; an unwritable directory degrades to
    in-memory memoisation.

    The default in-memory index is a single-kind ``key -> JSON
    document`` map: lines of record kind ``kind`` are indexed (last
    occurrence wins), any other line counts in
    :attr:`corrupt_skipped`.  The classification and cell stores use
    it as is; stores with their own index override the hooks
    (:meth:`_reset_index` / :meth:`_index_entry`) and the reads and
    writes.
    """

    def __init__(self, root: str | os.PathLike, subdir: str,
                 kind: str | None = None) -> None:
        self.root = pathlib.Path(root)
        self._shard_dir = self.root / subdir
        self.kind = kind
        self._shard = None  # lazily opened append handle
        self._shard_name: str | None = None
        self._loaded = False
        #: Bytes of each shard already indexed, for :meth:`refresh`.
        self._offsets: dict[str, int] = {}
        #: Optional :class:`~repro.remote.client.RemoteStoreClient`
        #: layered under this store (:func:`attach_remote`).
        self.remote = None
        self._entries: dict[str, object] = {}
        #: Lines dropped on load: unreadable, or of a foreign kind.
        self.corrupt_skipped = 0

    @classmethod
    def resolve(cls, override: str | None = None) -> "ShardedStore | None":
        """The store selected by ``override`` or ``REPRO_CACHE``.

        Same convention — and the same *root* — as
        :meth:`SolveStore.resolve`: every store lives side by side
        under one cache directory.  Handles are memoised per (store
        class, resolved root), like the solve store's.
        """
        solve_store = SolveStore.resolve(override)
        if solve_store is None:
            return None
        key = (cls, os.path.abspath(solve_store.root))
        store = _RESOLVED.get(key)
        if store is None:
            store = _RESOLVED[key] = cls(solve_store.root)
        attach_remote(store)
        return store

    # -- index hooks ---------------------------------------------------
    def _reset_index(self) -> None:
        self._entries = {}

    def _index_entry(self, parsed: tuple[str, str, object] | None) -> None:
        """One validated line (``None`` = corrupt/unreadable)."""
        if parsed is None or parsed[0] != self.kind:
            self.corrupt_skipped += 1
            return
        _kind, key, value = parsed
        self._entries[key] = value

    # -- reads / writes ------------------------------------------------
    def get(self, key: str) -> object | None:
        self._ensure_loaded()
        value = self._entries.get(key)
        if value is None and self.remote is not None:
            value = self._remote_fetch(self.kind, key)
            if value is not None:
                self._entries[key] = value
        return value

    def put(self, key: str, value: object) -> None:
        self._ensure_loaded()
        # Skip only *identical* entries: if the key is occupied by a
        # value that failed decoding (checksum-valid but shape-invalid
        # — e.g. written by a buggy run), the recomputed value must
        # still be appended so load-time last-wins repairs the store;
        # otherwise every future run would recompute forever.
        if self._entries.get(key) == value:
            return
        self._entries[key] = value
        self._append(self.kind, key, value)
        self._remote_push(self.kind, key, value)

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._entries)

    # -- lifecycle -----------------------------------------------------
    def _ensure_loaded(self) -> bool:
        """Scan every shard once per handle; True on the first call."""
        if self._loaded:
            return False
        self._loaded = True
        self._reset_index()
        self._offsets = {}
        if not self._shard_dir.is_dir():
            return True
        for shard in sorted(self._shard_dir.glob("shard-*.jsonl")):
            self._read_shard(shard, final=True)
        return True

    def _read_shard(self, shard: pathlib.Path, *,
                    final: bool = False) -> None:
        """Index the unread tail of one shard, complete lines only.

        Reads from the last recorded byte offset.  A trailing partial
        line is a writer mid-append during a :meth:`refresh` — left
        unconsumed for the next refresh rather than counted corrupt —
        but on the initial full load (``final=True``) it is a killed
        writer's truncated tail and counts as corrupt (the offset
        still stops before it, so a later completion is not lost).
        """
        offset = self._offsets.get(shard.name, 0)
        if faultinject.fire("store", self._shard_dir.name,
                            actions=("read_error",)) is not None:
            # Injected unreadable shard: same degradation as the
            # OSError path below — skip this pass, recompute later.
            return
        try:
            with open(shard, "rb") as handle:
                handle.seek(offset)
                data = handle.read()
        except OSError:
            return
        cut = data.rfind(b"\n") + 1
        self._offsets[shard.name] = offset + cut
        text = data[:cut].decode("utf-8", errors="replace")
        for line in text.splitlines():
            if line.strip():
                self._index_entry(parse_shard_line(line))
        if final and data[cut:].strip():
            self._index_entry(
                parse_shard_line(data[cut:].decode("utf-8",
                                                   errors="replace")))

    def refresh(self) -> None:
        """Fold shard lines appended since the last load into the index.

        Cheap (tail reads from per-shard offsets) and idempotent: the
        pipeline calls it at stage entry so writes from pool workers or
        work-stealing peers become visible deterministically.  A shard
        that *shrank* (``repro cache gc`` rewrote it in place) forces a
        full rescan.  A handle that never loaded stays lazy.
        """
        if not self._loaded:
            return
        if self._shard_dir.is_dir():
            shards = sorted(self._shard_dir.glob("shard-*.jsonl"))
        else:
            shards = []
        for shard in shards:
            try:
                size = shard.stat().st_size
            except OSError:
                continue
            if size < self._offsets.get(shard.name, 0):
                self._loaded = False  # rewritten in place: rescan all
                self._ensure_loaded()
                return
        for shard in shards:
            self._read_shard(shard)

    def _append(self, kind: str, key: str, value: object) -> bool:
        line = encode_shard_line(kind, key, value)
        try:
            if self._shard is None:
                self._shard_dir.mkdir(parents=True, exist_ok=True)
                # Zero-padded creation time first: shards sort (and
                # load) oldest-first, so "last occurrence wins" means
                # *newest* wins deterministically — a repair entry
                # appended after a corrupt one reliably overrides it.
                # (The gc shard's all-zero prefix keeps sorting first.)
                name = (f"shard-{time.time_ns():020d}-{os.getpid()}-"
                        f"{uuid.uuid4().hex[:8]}.jsonl")
                # O_APPEND + one os.write per line: concurrent writers
                # interleave whole lines, never bytes.
                self._shard = os.open(self._shard_dir / name,
                                      os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                                      0o644)
                self._shard_name = name
            data = line.encode("utf-8")
            if faultinject.fire("store", self._shard_dir.name,
                                actions=("truncate_tail",)) is not None:
                # Injected torn write: persist only half the line and
                # drop the shard handle, exactly what a writer killed
                # mid-append leaves behind.  A fresh load discards the
                # truncated tail as corrupt and recomputes the entry.
                os.write(self._shard, data[:max(1, len(data) // 2)])
                self.close()
                return False
            os.write(self._shard, data)
            # Our own appends are already in the index, so advance the
            # read offset past them — otherwise every refresh()
            # re-parses everything this handle ever wrote.  Advance
            # only when the shard grew by exactly this write: forked
            # pool workers share the fd, and an interleaved foreign
            # line must stay ahead of the offset so refresh() still
            # reads it (re-reading our own lines too — correct, merely
            # the old behaviour).
            if self._loaded and self._shard_name is not None:
                expected = self._offsets.get(self._shard_name, 0)
                try:
                    size = os.fstat(self._shard).st_size
                except OSError:
                    size = -1
                if size == expected + len(data):
                    self._offsets[self._shard_name] = size
            return True
        except OSError:
            # A read-only or full cache directory degrades to in-memory
            # caching; never fail the estimation over persistence.
            return False

    # -- remote layer --------------------------------------------------
    def _remote_fetch(self, kind: str, key: str) -> object | None:
        """Fetch-on-miss through the attached remote client, if any.

        A fetched entry is appended to the local shard too: the local
        store stays the store of record, so a later remote outage (or
        a tripped breaker) still serves the entry and a degraded run
        remains byte-identical to an undisturbed one.  The caller
        indexes the returned value (kind-specific validation lives
        there).
        """
        client = self.remote
        if client is None:
            return None
        value = client.fetch(self._shard_dir.name, kind, key)
        if value is not None:
            self._append(kind, key, value)
        return value

    def _remote_push(self, kind: str, key: str, value: object) -> None:
        """Push-on-write through the attached client; best-effort —
        remote unavailability never fails a local write."""
        client = self.remote
        if client is not None:
            client.push(self._shard_dir.name, kind, key, value)

    def invalidate(self) -> None:
        """Drop the in-memory index; the next read rescans every shard.

        The hook external shard writers (``repro cache import``) use
        to make new entries visible to already-memoised handles.
        """
        self._loaded = False

    def close(self) -> None:
        """Close the append handle; idempotent and safe on instances
        whose ``__init__`` never completed (``getattr``: ``__del__``
        may run with no ``_shard`` attribute at all)."""
        shard = getattr(self, "_shard", None)
        self._shard = None
        self._shard_name = getattr(self, "_shard_name", None)
        if shard is not None:
            try:
                os.close(shard)
            except OSError:
                pass

    def __del__(self):  # pragma: no cover - interpreter shutdown order
        # Interpreter shutdown may collect a partially-initialised
        # instance or run after module globals are gone; never let a
        # destructor raise.
        try:
            self.close()
        except Exception:
            pass


class SolveStore(ShardedStore):
    """Disk-backed map of solve keys to optima / solution artefacts.

    ``get``/``put`` handle integer optima (the FMM cells and primed
    batches); ``get_artefact``/``put_artefact`` handle JSON documents
    (the WCET's full solution vector).  All reads go through one lazy
    in-memory index built by scanning every shard once per handle.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        super().__init__(root, f"v{SCHEMA_VERSION}")
        self._values: dict[str, int] = {}
        self._artefacts: dict[str, object] = {}
        self.stats = StoreStats()

    # -- resolution ----------------------------------------------------
    @classmethod
    def resolve(cls, override: str | None = None) -> "SolveStore | None":
        """The store selected by ``override`` or the environment.

        ``override`` follows the same convention as the environment
        variable (``"off"`` disables, anything else is a directory);
        ``None`` defers to ``REPRO_CACHE``, and an unset environment
        selects the default user cache directory.

        Handles are memoised per resolved directory: the hundreds of
        estimators of a suite or sweep share one in-memory index (one
        shard scan) and one append shard, instead of re-reading the
        store and opening a fresh shard file each.
        """
        value = override if override is not None \
            else cache_env_value()
        if value is None or not value.strip():
            root = default_cache_dir()
        elif value.strip().lower() in _OFF_VALUES:
            return None
        else:
            root = pathlib.Path(value)
        key = (cls, os.path.abspath(root))
        store = _RESOLVED.get(key)
        if store is None:
            store = _RESOLVED[key] = cls(root)
        attach_remote(store)
        return store

    # -- loading -------------------------------------------------------
    def _ensure_loaded(self) -> bool:
        if super()._ensure_loaded():
            self.stats.loaded = len(self._values) + len(self._artefacts)
            return True
        return False

    def _reset_index(self) -> None:
        self._values = {}
        self._artefacts = {}

    def _index_entry(self, parsed: tuple[str, str, object] | None) -> None:
        if parsed is None:
            self.stats.corrupt_skipped += 1
            return
        kind, key, value = parsed
        if kind == "solve" and isinstance(value, int):
            self._values[key] = value
        elif kind == "artefact":
            self._artefacts[key] = value
        else:
            self.stats.corrupt_skipped += 1

    # -- reads ---------------------------------------------------------
    def get(self, key: str) -> int | None:
        self._ensure_loaded()
        value = self._values.get(key)
        if value is None and self.remote is not None:
            fetched = self._remote_fetch("solve", key)
            if isinstance(fetched, int) and not isinstance(fetched, bool):
                self._values[key] = fetched
                value = fetched
        if value is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return value

    def get_artefact(self, key: str) -> object | None:
        self._ensure_loaded()
        value = self._artefacts.get(key)
        if value is None and self.remote is not None:
            value = self._remote_fetch("artefact", key)
            if value is not None:
                self._artefacts[key] = value
        if value is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return value

    # -- writes --------------------------------------------------------
    def put(self, key: str, value: int) -> None:
        self._ensure_loaded()
        if self._values.get(key) == value:
            return  # already persisted by this or another run
        self._values[key] = value
        if self._append("solve", key, value):
            self.stats.writes += 1
        self._remote_push("solve", key, value)

    def put_artefact(self, key: str, value: object) -> None:
        self._ensure_loaded()
        if key in self._artefacts:
            return
        self._artefacts[key] = value
        if self._append("artefact", key, value):
            self.stats.writes += 1
        self._remote_push("artefact", key, value)

    # -- maintenance ---------------------------------------------------
    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._values) + len(self._artefacts)
