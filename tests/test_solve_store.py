"""The persistent solve store: identity, recovery, concurrency.

The store's contract mirrors the planner's: *bit-identical outputs* —
a warm run must produce exactly the numbers a cold run computes, and
anything unreadable on disk (truncated tails, corrupt bytes, foreign
schema versions) must degrade to a re-solve, never to a wrong value.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os

import pytest

from repro.pwcet import EstimatorConfig, PWCETEstimator
from repro.solve.store import (CACHE_ENV, SCHEMA_VERSION, SolveStore,
                               encode_shard_line, parse_shard_line,
                               solve_key, store_context)
from repro.suite import EVALUATED_BENCHMARKS, load

MECHANISMS = ("none", "srb", "rw")


def _shards(store: SolveStore):
    return sorted(store._shard_dir.glob("shard-*.jsonl"))


class TestRoundTrip:
    def test_value_round_trip_identity(self, tmp_path):
        store = SolveStore(tmp_path)
        entries = {solve_key("ctx", [("x", 1.0)], False): 0,
                   solve_key("ctx", [("x", 2.0)], False): 41,
                   solve_key("ctx", [("x", 2.0)], True): 42,
                   solve_key("ctx", [("y", 0.5)], False): 10**12}
        for key, value in entries.items():
            store.put(key, value)
        store.close()
        fresh = SolveStore(tmp_path)
        for key, value in entries.items():
            assert fresh.get(key) == value
        assert fresh.stats.hits == len(entries)

    def test_artefact_round_trip_identity(self, tmp_path):
        store = SolveStore(tmp_path)
        artefact = {"objective": 1234.0,
                    "values": {"e_0_1": 3.0, "m_2_s1": 0.5}}
        key = solve_key("ctx", [("e_0_1", 7.0)], False, kind="solution")
        store.put_artefact(key, artefact)
        store.close()
        assert SolveStore(tmp_path).get_artefact(key) == artefact

    def test_solution_and_value_keys_do_not_collide(self):
        named = [("x", 1.0)]
        assert (solve_key("ctx", named, False)
                != solve_key("ctx", named, False, kind="solution"))

    def test_key_is_order_independent_but_context_sensitive(self):
        assert (solve_key("ctx", [("a", 1.0), ("b", 2.0)], False)
                == solve_key("ctx", [("b", 2.0), ("a", 1.0)], False))
        assert (solve_key("ctx", [("a", 1.0)], False)
                != solve_key("other", [("a", 1.0)], False))
        assert (solve_key("ctx", [("a", 1.0)], False)
                != solve_key("ctx", [("a", 1.0)], True))

    def test_missing_key_counts_a_miss(self, tmp_path):
        store = SolveStore(tmp_path)
        assert store.get("0" * 64) is None
        assert store.stats.misses == 1

    def test_duplicate_put_not_rewritten(self, tmp_path):
        store = SolveStore(tmp_path)
        key = solve_key("ctx", [("x", 1.0)], False)
        store.put(key, 5)
        store.put(key, 5)
        assert store.stats.writes == 1


class TestSchemaVersioning:
    def test_entries_live_under_versioned_directory(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(solve_key("ctx", [("x", 1.0)], False), 5)
        assert (tmp_path / f"v{SCHEMA_VERSION}").is_dir()

    def test_schema_bump_invalidates_entries(self, tmp_path, monkeypatch):
        key = solve_key("ctx", [("x", 1.0)], False)
        store = SolveStore(tmp_path)
        store.put(key, 5)
        store.close()
        monkeypatch.setattr("repro.solve.store.SCHEMA_VERSION",
                            SCHEMA_VERSION + 1)
        fresh = SolveStore(tmp_path)
        # Old shards are not even loaded (different subdirectory), and
        # freshly derived keys differ anyway (version in the preimage).
        assert fresh.get(key) is None
        assert key != solve_key("ctx", [("x", 1.0)], False)


class TestCorruptionRecovery:
    def _populated(self, tmp_path) -> tuple[SolveStore, str]:
        store = SolveStore(tmp_path)
        key = solve_key("ctx", [("x", 1.0)], False)
        store.put(key, 5)
        store.close()
        return store, key

    def test_truncated_tail_is_skipped(self, tmp_path):
        store, key = self._populated(tmp_path)
        shard = _shards(store)[0]
        with open(shard, "a") as handle:
            handle.write('{"t":"solve","k":"abc","v":12')  # killed writer
        fresh = SolveStore(tmp_path)
        assert fresh.get(key) == 5
        assert fresh.stats.corrupt_skipped == 1

    def test_garbage_bytes_are_skipped(self, tmp_path):
        store, key = self._populated(tmp_path)
        shard = _shards(store)[0]
        with open(shard, "ab") as handle:
            handle.write(b"\x00\xffgarbage\n[1, 2\n")
        fresh = SolveStore(tmp_path)
        assert fresh.get(key) == 5
        assert fresh.stats.corrupt_skipped >= 1

    def test_checksum_mismatch_is_skipped(self, tmp_path):
        store, key = self._populated(tmp_path)
        shard = _shards(store)[0]
        entry = json.loads(shard.read_text().splitlines()[0])
        entry["v"] = entry["v"] + 1  # flip the value, keep the checksum
        with open(shard, "a") as handle:
            handle.write(json.dumps(entry) + "\n")
        other = solve_key("ctx", [("y", 1.0)], False)
        with open(shard, "a") as handle:
            handle.write(json.dumps({"t": "solve", "k": other, "v": 9,
                                     "c": 123456}) + "\n")
        fresh = SolveStore(tmp_path)
        assert fresh.get(key) == 5  # the tampered duplicate is dropped
        assert fresh.get(other) is None
        assert fresh.stats.corrupt_skipped == 2

    def test_corrupt_entry_is_resolved_and_rewritten(self, tmp_path):
        store, key = self._populated(tmp_path)
        for shard in _shards(store):
            shard.write_text("not json at all\n")
        fresh = SolveStore(tmp_path)
        assert fresh.get(key) is None
        fresh.put(key, 5)  # the re-solve writes a clean entry
        fresh.close()
        assert SolveStore(tmp_path).get(key) == 5

    def test_unwritable_directory_degrades_gracefully(self, tmp_path):
        target = tmp_path / "readonly"
        target.mkdir()
        os.chmod(target, 0o555)
        try:
            store = SolveStore(target)
            key = solve_key("ctx", [("x", 1.0)], False)
            store.put(key, 5)  # must not raise
            assert store.get(key) == 5  # still cached in memory
        finally:
            os.chmod(target, 0o755)


class TestRawSliceChecksum:
    """``parse_shard_line`` checks the CRC over the raw value slice of
    a line laid out as ``encode_shard_line`` writes it, and rejects
    every other layout."""

    VALUES = (5, 0, -3, 1.5, "text", None, True, [], {},
              {"objective": 2.0, "values": {"x": 1.0, "b": [1, 2]}},
              {"pmf": "QUJD", "fmm": [[1, 2], [3]], "wcet": 10})

    def test_canonical_line_is_checked_without_json_dumps(self, monkeypatch):
        from repro.solve import store as store_module
        lines = [(value, encode_shard_line("cell", "k" * 64, value))
                 for value in self.VALUES]

        def forbidden(*args, **kwargs):
            raise AssertionError("json.dumps called on a canonical line")

        monkeypatch.setattr(store_module.json, "dumps", forbidden)
        for value, line in lines:
            assert parse_shard_line(line) == ("cell", "k" * 64, value)

    def test_tampered_value_with_old_checksum_is_rejected(self):
        key = solve_key("ctx", [("x", 1.0)], False)
        for original, forged in ((5, 6), ({"a": 1}, {"a": 2}),
                                 ("abc", "abd"), ([1, 2], [1, 2, 3])):
            line = encode_shard_line("solve", key, original)
            text = json.dumps(original, separators=(",", ":"))
            tampered = line.replace(
                text + "}\n", json.dumps(forged, separators=(",", ":"))
                + "}\n")
            assert tampered != line
            assert parse_shard_line(tampered) is None

    def test_other_layouts_are_rejected(self):
        """Only the encoder's layout is valid: the same entry re-laid
        out with spaces or another key order fails, checksum intact."""
        line = encode_shard_line("classify", "0" * 64,
                                 {"blocks": [[0, [2]]]})
        entry = json.loads(line)
        assert parse_shard_line(line) is not None
        for other in (json.dumps(entry),
                      json.dumps(dict(reversed(entry.items())),
                                 separators=(",", ":")),
                      line.replace('"blocks":[[0,[2]]]',
                                   '"blocks": [[0, [2]]]')):
            assert parse_shard_line(other) is None

    def test_truncated_canonical_tail_counts_corrupt(self, tmp_path):
        store = SolveStore(tmp_path)
        key = solve_key("ctx", [("x", 1.0)], False)
        store.put(key, 5)
        store.close()
        other = solve_key("ctx", [("y", 1.0)], False)
        line = encode_shard_line("artefact", other,
                                 {"objective": 3.0, "values": {"y": 3.0}})
        with open(_shards(store)[0], "a") as handle:
            handle.write(line[:len(line) // 2])  # killed writer
        fresh = SolveStore(tmp_path)
        assert fresh.get(key) == 5
        assert fresh.get_artefact(other) is None
        assert fresh.stats.corrupt_skipped == 1


def _concurrent_writer(args) -> int:
    root, writer_id = args
    store = SolveStore(root)
    for index in range(25):
        store.put(solve_key(f"w{writer_id}", [("x", float(index))], False),
                  writer_id * 1000 + index)
    store.close()
    return writer_id


class TestConcurrentWriters:
    def test_parallel_processes_share_one_store(self, tmp_path):
        """Pool workers appending concurrently, like ``prime()`` does."""
        with multiprocessing.Pool(4) as pool:
            pool.map(_concurrent_writer,
                     [(str(tmp_path), writer) for writer in range(4)])
        store = SolveStore(tmp_path)
        for writer in range(4):
            for index in range(25):
                key = solve_key(f"w{writer}", [("x", float(index))], False)
                assert store.get(key) == writer * 1000 + index
        assert store.stats.corrupt_skipped == 0


class TestResolution:
    def test_off_values_disable(self, monkeypatch):
        for value in ("off", "OFF", "none", "0"):
            monkeypatch.setenv(CACHE_ENV, value)
            assert SolveStore.resolve() is None

    def test_override_beats_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, "off")
        store = SolveStore.resolve(str(tmp_path))
        assert store is not None and store.root == tmp_path
        assert SolveStore.resolve("off") is None

    def test_environment_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
        store = SolveStore.resolve()
        assert store.root == tmp_path / "cache"

    def test_default_is_user_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        store = SolveStore.resolve()
        assert store.root == tmp_path / "repro" / "solve"


class TestWarmPipeline:
    """The tentpole property: a warm rerun performs zero backend solves."""

    def _estimate_all(self, name: str, cache: str):
        estimator = PWCETEstimator(load(name),
                                   EstimatorConfig(cache=cache), name=name)
        values = {mechanism: estimator.estimate(mechanism).pwcet()
                  for mechanism in MECHANISMS}
        return values, estimator.solver_stats

    @pytest.mark.parametrize("name", ("crc", "ud"))
    def test_warm_estimator_solves_nothing(self, tmp_path, name):
        cache = str(tmp_path / "store")
        cold_values, cold_stats = self._estimate_all(name, cache)
        assert cold_stats.ilp_solved > 0
        warm_values, warm_stats = self._estimate_all(name, cache)
        assert warm_values == cold_values
        assert warm_stats.ilp_solved == 0
        assert warm_stats.lp_solved == 0
        assert warm_stats.store_hits == cold_stats.ilp_solved

    @pytest.mark.parametrize("malformed", (
        {"objective": 1.0},
        {"objective": "92301", "values": {}},
        {"objective": True, "values": {}},
        {"objective": 1.0, "values": [1.0]},
        {"objective": 1.0, "values": {"x": "1"}},
        [1.0, {}],
    ))
    def test_malformed_wcet_artefact_is_resolved_and_repaired(
            self, tmp_path, malformed):
        """A checksum-valid but malformed solution artefact costs one
        re-solve, never a crash, and the re-solve repairs the store."""
        cache = str(tmp_path / "store")

        def wcet_run():
            SolveStore.resolve(cache).invalidate()  # reread the shards
            estimator = PWCETEstimator(load("crc"),
                                       EstimatorConfig(cache=cache),
                                       name="crc")
            return estimator.fault_free_wcet(), estimator.solver_stats

        expected, _ = wcet_run()
        store = SolveStore.resolve(cache)
        store.close()
        for shard in _shards(store):
            lines = []
            for line in shard.read_text().splitlines(keepends=True):
                entry = json.loads(line)
                if entry["t"] == "artefact":
                    line = encode_shard_line("artefact", entry["k"],
                                             malformed)
                lines.append(line)
            shard.write_text("".join(lines))
        before = dataclasses.replace(store.stats)
        wcet, stats = wcet_run()
        assert wcet == expected
        assert stats.ilp_solved == 1
        # Dropped on load, so the store counts no hit the planner
        # could not use.
        assert store.stats.corrupt_skipped == before.corrupt_skipped + 1
        assert store.stats.hits - before.hits == stats.store_hits
        wcet, stats = wcet_run()
        assert wcet == expected
        assert stats.ilp_solved == 0  # the re-solve repaired the entry

    def test_cache_off_disables_persistence(self, tmp_path):
        cache = str(tmp_path / "store")
        self._estimate_all("crc", cache)
        _, stats = self._estimate_all("crc", "off")
        assert stats.ilp_solved > 0
        assert stats.store_hits == 0

    def test_primed_pool_results_are_persisted(self, tmp_path):
        cache = str(tmp_path / "store")
        config = EstimatorConfig(cache=cache, workers=2)
        parallel = PWCETEstimator(load("crc"), config, name="crc")
        for mechanism in MECHANISMS:
            parallel.estimate(mechanism)
        assert parallel.solver_stats.ilp_solved > 0
        warm = PWCETEstimator(load("crc"), EstimatorConfig(cache=cache),
                              name="crc")
        for mechanism in MECHANISMS:
            warm.estimate(mechanism)
        assert warm.solver_stats.ilp_solved == 0

    def test_relaxed_mode_keys_apart(self, tmp_path):
        cache = str(tmp_path / "store")
        exact, _ = self._estimate_all("ud", cache)
        estimator = PWCETEstimator(load("ud"),
                                   EstimatorConfig(cache=cache,
                                                   relaxed=True), name="ud")
        relaxed = {mechanism: estimator.estimate(mechanism).pwcet()
                   for mechanism in MECHANISMS}
        for mechanism in MECHANISMS:
            assert relaxed[mechanism] >= exact[mechanism]


class TestWarmSuite:
    """Acceptance: the warm 25-benchmark suite solves zero backend ILPs
    and reproduces the cold numbers bit for bit."""

    def test_full_suite_warm_rerun(self, tmp_path, monkeypatch):
        from repro.experiments import runner

        config = EstimatorConfig(cache=str(tmp_path / "store"))
        monkeypatch.setattr(runner, "_CACHE", {})
        cold = runner.run_suite(config)
        cold_totals = runner.solver_totals(cold)
        assert cold_totals["ilp_solved"] > 0
        monkeypatch.setattr(runner, "_CACHE", {})
        warm = runner.run_suite(config)
        warm_totals = runner.solver_totals(warm)
        assert warm_totals["ilp_solved"] == 0
        assert warm_totals["lp_solved"] == 0
        assert warm_totals["fixpoints_run"] == 0
        # The plan pass satisfies every (mechanism, pfail) cell from
        # the persistent cell store — no solve stage runs at all, so
        # the warm run's work is zero rather than all-store-hits.
        assert warm_totals["cells_from_store"] == \
            3 * len(EVALUATED_BENCHMARKS)
        for before, after in zip(cold, warm):
            assert before.name == after.name
            assert before.wcet_fault_free == after.wcet_fault_free
            for mechanism in MECHANISMS:
                assert before.pwcet(mechanism) == after.pwcet(mechanism)


class TestEstimatorContext:
    def test_geometry_separates_contexts(self):
        from repro.cache import CacheGeometry
        from repro.ipet import TimingModel
        timing = TimingModel()
        small = CacheGeometry.from_size(512, 2, 16)
        paper = CacheGeometry.from_size(1024, 4, 16)
        assert (store_context("cfg", small, timing)
                != store_context("cfg", paper, timing))

    def test_cfg_digest_stable_and_content_sensitive(self):
        first = load("crc").cfg.digest()
        assert first == load("crc").cfg.digest()
        assert first != load("ud").cfg.digest()
