"""Tests for repro.runtime.shard — artifacts, manifests, exact merge."""

import dataclasses
import errno
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import units
from repro.faults import FaultPlan, KillFault, Selector
from repro.obs import snapshot_json
from repro.runtime import (
    SHARD_FORMAT_VERSION,
    FailedRun,
    MonteCarloRunner,
    RunResult,
    ScenarioTask,
    ShardError,
    ShardManifest,
    ShardWriter,
    derive_seeds,
    load_shard,
    merge_shards,
    read_manifest,
    run_shard,
    shard_indices,
    task_fingerprint,
)

FAST = dict(horizon=units.years(1.0), report_interval=units.days(7.0))


def _float_task(index: int, seed: int) -> float:
    return (seed % 997) / 997.0


def _tiny_plan() -> FaultPlan:
    return FaultPlan(
        name="shard-test",
        specs=(
            KillFault(
                at=units.days(30.0),
                select=Selector(by="k-random", tier="device", k=1),
            ),
        ),
    )


class TestSeedScheduleSharding:
    """Satellite: shard slices must tile the unsharded schedule."""

    @settings(max_examples=40, deadline=None)
    @given(
        base_seed=st.integers(min_value=0, max_value=2**32 - 1),
        runs=st.integers(min_value=1, max_value=60),
        nshards=st.integers(min_value=1, max_value=8),
    )
    def test_shard_slices_tile_the_schedule(self, base_seed, runs, nshards):
        schedule = derive_seeds(base_seed, runs)
        tiled = {}
        for shard in range(nshards):
            for k in shard_indices(runs, shard, nshards):
                assert k not in tiled, "slices must be disjoint"
                tiled[k] = schedule[k]
        assert sorted(tiled) == list(range(runs))
        assert [tiled[k] for k in range(runs)] == schedule

    @settings(max_examples=40, deadline=None)
    @given(
        base_seed=st.integers(min_value=0, max_value=2**32 - 1),
        runs=st.integers(min_value=1, max_value=60),
        n_a=st.integers(min_value=1, max_value=8),
        n_b=st.integers(min_value=1, max_value=8),
    )
    def test_seed_never_depends_on_shard_count(self, base_seed, runs, n_a, n_b):
        """The seed of global index k is a function of (base_seed, k) only."""
        schedule = derive_seeds(base_seed, runs)
        for nshards in (n_a, n_b):
            for shard in range(nshards):
                for k in shard_indices(runs, shard, nshards):
                    assert schedule[k] == derive_seeds(base_seed, runs)[k]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            shard_indices(0, 0, 1)
        with pytest.raises(ValueError):
            shard_indices(4, 2, 2)
        with pytest.raises(ValueError):
            shard_indices(4, -1, 2)
        with pytest.raises(ValueError):
            shard_indices(4, 0, 0)


class TestTaskFingerprint:
    def test_stable_for_equal_tasks(self):
        a = ScenarioTask("owned-only", **FAST)
        b = ScenarioTask("owned-only", **FAST)
        assert task_fingerprint(a) == task_fingerprint(b)

    def test_differs_on_overrides(self):
        a = ScenarioTask("owned-only", **FAST)
        b = ScenarioTask(
            "owned-only", overrides=(("n_lora_devices", 0),), **FAST
        )
        assert task_fingerprint(a) != task_fingerprint(b)

    def test_covers_the_fault_plan(self):
        a = ScenarioTask("owned-only", **FAST)
        b = ScenarioTask("owned-only", faults=_tiny_plan(), **FAST)
        assert task_fingerprint(a) != task_fingerprint(b)

    def test_plain_function_falls_back_to_qualname(self):
        digest = task_fingerprint(_float_task)
        assert digest.startswith("sha256:")
        assert digest == task_fingerprint(_float_task)


class TestShardArtifact:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "s0.mcr"
        report = run_shard(
            _float_task, runs=10, base_seed=9, shard=0, nshards=2,
            out_path=str(path), workers=1,
        )
        assert report.completed == 5
        assert report.failed == 0
        manifest, results, failures = load_shard(str(path))
        assert manifest.version == SHARD_FORMAT_VERSION
        assert manifest.indices == (0, 2, 4, 6, 8)
        assert failures == []
        schedule = derive_seeds(9, 10)
        for run in results:
            assert run.seed == schedule[run.index]
            assert run.sample == _float_task(run.index, run.seed)

    def test_manifest_readable_alone(self, tmp_path):
        path = tmp_path / "s0.mcr"
        run_shard(
            _float_task, runs=6, base_seed=1, shard=1, nshards=3,
            out_path=str(path), workers=1,
        )
        manifest = read_manifest(str(path))
        assert manifest.shard == 1
        assert manifest.nshards == 3
        assert manifest.indices == (1, 4)
        assert manifest.task_digest == task_fingerprint(_float_task)

    def test_corrupt_body_is_rejected(self, tmp_path):
        path = tmp_path / "s0.mcr"
        run_shard(
            _float_task, runs=4, base_seed=1, shard=0, nshards=1,
            out_path=str(path), workers=1,
        )
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1].replace('"sample":0.', '"sample":1.', 1)
        path.write_text("".join(lines))
        with pytest.raises(ShardError, match="content hash mismatch"):
            load_shard(str(path))

    def test_truncated_artifact_is_rejected(self, tmp_path):
        path = tmp_path / "s0.mcr"
        run_shard(
            _float_task, runs=4, base_seed=1, shard=0, nshards=1,
            out_path=str(path), workers=1,
        )
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))  # drop the last run
        with pytest.raises(ShardError, match="truncated or corrupt"):
            load_shard(str(path))

    def test_not_a_shard_file(self, tmp_path):
        path = tmp_path / "bogus.mcr"
        path.write_text(json.dumps({"kind": "something"}) + "\n")
        with pytest.raises(ShardError, match="mcr-header"):
            read_manifest(str(path))

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "future.mcr"
        header = {
            "kind": "mcr-header", "version": 99, "task_digest": "sha256:x",
            "label": "x", "base_seed": 1, "runs": 1, "shard": 0,
            "nshards": 1, "indices": [0],
        }
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(ShardError, match="version 99"):
            read_manifest(str(path))

    def test_writer_admits_each_slice_index_once(self, tmp_path):
        manifest = ShardManifest(
            task_digest="sha256:x", label="x", base_seed=1, runs=6,
            shard=0, nshards=2, indices=(0, 2, 4),
        )
        with ShardWriter(str(tmp_path / "s0.mcr"), manifest) as writer:
            writer.write_result(RunResult(index=0, seed=1, sample=0.5))
            with pytest.raises(ShardError, match="not in this shard's slice"):
                writer.write_result(RunResult(index=3, seed=1, sample=0.5))
            with pytest.raises(ShardError, match="already written"):
                writer.write_result(RunResult(index=0, seed=1, sample=0.5))
            writer.write_failure(FailedRun(index=2, seed=1, error="boom"))
            with pytest.raises(ShardError, match="already written"):
                writer.write_result(RunResult(index=2, seed=1, sample=0.5))
        assert writer.completed == [0]
        assert writer.failed == [2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_run_keeps_earlier_artifact(self, tmp_path, monkeypatch, workers):
        path = tmp_path / "s0.mcr"
        run_shard(
            _float_task, runs=8, base_seed=1, shard=0, nshards=1,
            out_path=str(path), workers=1,
        )
        sealed = path.read_bytes()
        write_result = ShardWriter.write_result

        def disk_full_at_five(self, result):
            if result.index == 5:
                raise OSError(errno.ENOSPC, "No space left on device")
            write_result(self, result)

        monkeypatch.setattr(ShardWriter, "write_result", disk_full_at_five)
        for out in (path, tmp_path / "fresh.mcr"):
            with pytest.raises(OSError, match="No space left"):
                run_shard(
                    _float_task, runs=8, base_seed=2, shard=0, nshards=1,
                    out_path=str(out), workers=workers,
                )
        assert os.listdir(tmp_path) == ["s0.mcr"]
        assert path.read_bytes() == sealed
        assert len(load_shard(str(path))[1]) == 8


def _write_partition(tmp_path, runs, nshards, base_seed=9, workers=1):
    paths = []
    for shard in range(nshards):
        path = tmp_path / f"s{shard}.mcr"
        run_shard(
            _float_task, runs=runs, base_seed=base_seed, shard=shard,
            nshards=nshards, out_path=str(path), workers=workers,
        )
        paths.append(str(path))
    return paths


class TestMergeValidation:
    def test_rejects_duplicate_shard(self, tmp_path):
        paths = _write_partition(tmp_path, runs=6, nshards=2)
        with pytest.raises(ShardError, match="disjoint"):
            merge_shards([paths[0], paths[0]])

    def test_rejects_incomplete_cover(self, tmp_path):
        paths = _write_partition(tmp_path, runs=6, nshards=3)
        with pytest.raises(ShardError, match="do not cover"):
            merge_shards(paths[:2])

    def test_rejects_base_seed_mismatch(self, tmp_path):
        a = tmp_path / "a.mcr"
        b = tmp_path / "b.mcr"
        run_shard(_float_task, runs=4, base_seed=1, shard=0, nshards=2,
                  out_path=str(a), workers=1)
        run_shard(_float_task, runs=4, base_seed=2, shard=1, nshards=2,
                  out_path=str(b), workers=1)
        with pytest.raises(ShardError, match="base_seed mismatch"):
            merge_shards([str(a), str(b)])

    def test_rejects_task_digest_mismatch(self, tmp_path):
        a = tmp_path / "a.mcr"
        b = tmp_path / "b.mcr"
        run_shard(_float_task, runs=4, base_seed=1, shard=0, nshards=2,
                  out_path=str(a), workers=1)
        task = ScenarioTask("owned-only", **FAST)
        run_shard(task, runs=4, base_seed=1, shard=1, nshards=2,
                  out_path=str(b), workers=1, label="x")
        with pytest.raises(ShardError, match="task_digest mismatch"):
            merge_shards([str(a), str(b)])

    def test_rejects_empty_input(self):
        with pytest.raises(ShardError, match="no shard artifacts"):
            merge_shards([])


class TestMergeExactness:
    """Acceptance: any partition merges bit-identical to workers=1."""

    def _reference(self, runs=12, base_seed=9):
        return MonteCarloRunner(
            _float_task, runs=runs, base_seed=base_seed, workers=1
        ).run()

    @pytest.mark.parametrize("nshards", [1, 2, 3, 12])
    def test_partitions_merge_identically(self, tmp_path, nshards):
        reference = self._reference()
        paths = _write_partition(tmp_path, runs=12, nshards=nshards)
        merged = merge_shards(paths)
        assert dataclasses.asdict(merged.uptime) == dataclasses.asdict(
            reference.uptime
        )
        assert [r.sample for r in merged.runs] == [
            r.sample for r in reference.runs
        ]
        assert [r.seed for r in merged.runs] == [
            r.seed for r in reference.runs
        ]
        assert merged.merged_metrics() == reference.merged_metrics()

    def test_scenario_task_full_fidelity(self, tmp_path):
        """Metrics, fault streams, and uptime survive the disk round trip
        bit-for-bit for a real scenario with an installed fault plan."""
        task = ScenarioTask("owned-only", faults=_tiny_plan(), **FAST)
        reference = MonteCarloRunner(
            task, runs=4, base_seed=100, workers=1
        ).run()
        paths = []
        for shard in range(2):
            path = tmp_path / f"s{shard}.mcr"
            run_shard(
                task, runs=4, base_seed=100, shard=shard, nshards=2,
                out_path=str(path), workers=1,
            )
            paths.append(str(path))
        merged = merge_shards(paths)
        assert dataclasses.asdict(merged.uptime) == dataclasses.asdict(
            reference.uptime
        )
        for ours, theirs in zip(merged.runs, reference.runs):
            assert ours.index == theirs.index
            assert ours.seed == theirs.seed
            assert ours.sample == theirs.sample
            assert ours.fault_stream == theirs.fault_stream
            assert ours.metrics == theirs.metrics
            # Canonical serialization agrees byte-for-byte too.
            assert snapshot_json(ours.metrics) == snapshot_json(theirs.metrics)
        assert merged.total_faults_fired == reference.total_faults_fired


class TestBoundedMemory:
    """Acceptance: shard execution streams; resident results stay O(workers)."""

    def test_serial_shard_holds_one_result(self, tmp_path):
        report = run_shard(
            _float_task, runs=220, base_seed=3, shard=0, nshards=1,
            out_path=str(tmp_path / "s.mcr"), workers=1,
        )
        assert report.completed == 220
        assert report.stats.peak_resident_results == 1

    def test_pooled_shard_window_stays_small(self, tmp_path):
        report = run_shard(
            _float_task, runs=220, base_seed=3, shard=0, nshards=1,
            out_path=str(tmp_path / "s.mcr"), workers=2,
        )
        assert report.completed == 220
        # O(workers x chunk) — far below the 220 runs in the study.
        assert report.stats.peak_resident_results < 110
        _manifest, results, _failures = load_shard(str(tmp_path / "s.mcr"))
        assert [r.index for r in results] == list(range(220))
