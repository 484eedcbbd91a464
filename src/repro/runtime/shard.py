"""On-disk shard artifacts for multi-host Monte-Carlo studies.

A study over ``runs`` seeds can be partitioned into ``N`` shards, shard
``i`` owning the seed-schedule residue class ``{k : k ≡ i (mod N)}``.
Because every run's seed depends only on ``(base_seed, k)`` (see
:func:`~repro.runtime.runner.derive_seeds`) and the snapshot-merge
algebra in :mod:`repro.obs` is commutative and associative, shards can
execute on different processes *or different hosts* and still merge to
a study byte-identical to the unsharded ``--workers 1`` run.

Shard artifact format, version 2 (``.mcr``): a sealed file (see
:mod:`repro.runtime.sealed`) whose header is the manifest and whose
body is JSON lines::

    {"sha256":"…","base_seed":…,"indices":[…],"kind":"mcr-header",
     "label":…,"nshards":…,"runs":…,"shard":…,"task_digest":"sha256:…",
     "version":2}
    {"kind":"run", "index":k, "seed":…, "sample":…, "wall_clock_s":…,
     "fault_stream":[[t,key,action,[targets…]],…], "metrics":{…}}
    {"kind":"failed", "index":k, "seed":…, "error":…, "traceback":…}

Every line is canonical JSON (sorted keys, compact separators).  Run
lines appear in ascending index order and are **streamed**: the writer
receives each result from the scheduler's in-order collector and writes
it immediately, so executing a shard holds O(workers) results resident,
never O(runs).  The seal covers the manifest and every line after it,
so the merge refuses a shard that was truncated, bit-rotted or
concatenated (:class:`ShardError`).  The artifact appears at its path
only once sealed: a shard run that fails leaves any earlier artifact
there untouched.

Like the FaultPlan JSON convention, the format version is explicit and
this module reads exactly the version it writes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..analysis.uptime import MonteCarloUptime
from ..faults import fault_stream_from_json, fault_stream_to_json
from ..obs import MetricsSnapshot
from .queue import ExecutionStats, FailedRun, execute_runs, resolve_workers
from .runner import MonteCarloStudy, MonteCarloTask, RunResult, _execute, derive_seeds
from .sealed import SealedWriter, SealError, iter_sealed_lines, read_header

#: The shard artifact format version this module reads and writes.
SHARD_FORMAT_VERSION = 2


class ShardError(ValueError):
    """A malformed, corrupt, or incompatible shard artifact."""


def shard_indices(runs: int, shard: int, nshards: int) -> List[int]:
    """The deterministic slice of run indices shard ``shard`` owns.

    ``{k : k ≡ shard (mod nshards)}`` — a residue class, so the N
    slices tile the full schedule exactly and a run's seed never
    depends on how many shards execute it (the property suite asserts
    both).
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if nshards < 1:
        raise ValueError("nshards must be >= 1")
    if not 0 <= shard < nshards:
        raise ValueError(
            f"shard must be in [0, {nshards}), got {shard}"
        )
    return list(range(shard, runs, nshards))


def _jsonable(value: object) -> object:
    """Canonical JSON projection of a task field for fingerprinting."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    return repr(value)


def task_fingerprint(task: MonteCarloTask) -> str:
    """A content digest of *what* a task computes.

    Two shards merge only if they ran the same task: same scenario,
    horizon, overrides, fault plan — everything that determines a run
    given ``(index, seed)``.  Frozen-dataclass tasks (the normal case)
    digest their full field contents; arbitrary callables fall back to
    their qualified name.
    """
    if dataclasses.is_dataclass(task) and not isinstance(task, type):
        payload: Dict[str, object] = {
            "type": f"{type(task).__module__}.{type(task).__qualname__}"
        }
        for f in dataclasses.fields(task):
            payload[f.name] = _jsonable(getattr(task, f.name))
    else:
        qualname = getattr(task, "__qualname__", None) or type(task).__qualname__
        module = getattr(task, "__module__", type(task).__module__)
        payload = {"type": f"{module}.{qualname}"}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ShardManifest:
    """The header of a shard artifact: what was run and which slice."""

    task_digest: str
    label: str
    base_seed: int
    runs: int
    shard: int
    nshards: int
    indices: Tuple[int, ...]
    version: int = SHARD_FORMAT_VERSION

    def to_dict(self) -> dict:
        return {"kind": "mcr-header", **dataclasses.asdict(self), "indices": list(self.indices)}

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardManifest":
        if payload.get("kind") != "mcr-header":
            raise ShardError(
                f"not a shard artifact: first line kind is "
                f"{payload.get('kind')!r}, expected 'mcr-header'"
            )
        version = payload.get("version")
        if version != SHARD_FORMAT_VERSION:
            raise ShardError(
                f"unsupported shard format version {version!r} "
                f"(this build reads version {SHARD_FORMAT_VERSION})"
            )
        return cls(
            task_digest=str(payload["task_digest"]),
            label=str(payload["label"]),
            base_seed=int(payload["base_seed"]),
            runs=int(payload["runs"]),
            shard=int(payload["shard"]),
            nshards=int(payload["nshards"]),
            indices=tuple(int(k) for k in payload["indices"]),
            version=int(version),
        )


def _canonical_line(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


class ShardWriter:
    """Stream one shard's results to disk as they complete.

    Used as the scheduler's ``consume``/``on_failure`` sinks: each
    result is serialized and dropped immediately, which is what keeps a
    10k-run shard at O(workers) resident results.  ``close`` seals the
    artifact and moves it into place; leaving the ``with`` block on an
    exception discards it instead, so a crashed shard run never
    produces a file that could merge.
    """

    def __init__(self, path: str, manifest: ShardManifest) -> None:
        self.path = str(path)
        self.manifest = manifest
        self._sealed = SealedWriter(self.path, manifest.to_dict())
        # The slice's indices not yet written, as a set: one membership
        # test per entry, not a scan of the whole slice.
        self._unwritten = set(manifest.indices)
        self.completed: List[int] = []
        self.failed: List[int] = []
        #: The seal's hex SHA-256, set by :meth:`close`.
        self.content_sha256 = ""

    def _emit(self, payload: dict) -> None:
        self._sealed.write(_canonical_line(payload).encode("utf-8"))

    def _claim(self, index: int) -> None:
        """Admit ``index`` once: it must be in the slice and unwritten."""
        try:
            self._unwritten.remove(index)
        except KeyError:
            if index in self.manifest.indices:
                raise ShardError(f"run index {index} was already written") from None
            raise ShardError(
                f"run index {index} is not in this shard's slice"
            ) from None

    def write_result(self, result: RunResult) -> None:
        """Append one successful run (must arrive in index order)."""
        self._claim(result.index)
        self._emit(
            {
                "kind": "run",
                "index": result.index,
                "seed": result.seed,
                "sample": result.sample,
                "wall_clock_s": result.wall_clock_s,
                "fault_stream": fault_stream_to_json(result.fault_stream),
                "metrics": result.metrics.to_dict(),
            }
        )
        self.completed.append(result.index)

    def write_failure(self, failed: FailedRun) -> None:
        """Append one failed-run record."""
        self._claim(failed.index)
        self._emit(
            {
                "kind": "failed",
                "index": failed.index,
                "seed": failed.seed,
                "error": failed.error,
                "traceback": failed.traceback,
            }
        )
        self.failed.append(failed.index)

    def close(self) -> None:
        if not self.content_sha256:
            self.content_sha256 = self._sealed.commit()

    def __enter__(self) -> "ShardWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._sealed.abort()


ShardEntry = Union[Tuple[str, RunResult], Tuple[str, FailedRun]]


def read_manifest(path: str) -> ShardManifest:
    """Read just the header line of a shard artifact."""
    try:
        header = read_header(path)
    except SealError as exc:
        raise ShardError(str(exc)) from None
    return ShardManifest.from_dict(header)


def _result_from_payload(payload: dict) -> RunResult:
    return RunResult(
        index=int(payload["index"]),
        seed=int(payload["seed"]),
        sample=float(payload["sample"]),
        wall_clock_s=float(payload.get("wall_clock_s", 0.0)),
        metrics=MetricsSnapshot.from_dict(payload.get("metrics", {})),
        fault_stream=fault_stream_from_json(payload.get("fault_stream", [])),
    )


def iter_shard(path: str) -> Iterator[ShardEntry]:
    """Yield ``("run", RunResult)`` / ``("failed", FailedRun)`` entries.

    Entries stream in the order they were written (ascending index).
    The seal is verified once the last line has been read: a mismatch
    raises :class:`ShardError`, so consume the whole iterator before
    trusting its entries.  O(1) memory — the merge reads ten shards of
    a 100k-run study without materializing any of them.
    """
    try:
        for line in iter_sealed_lines(path):
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ShardError(f"{path}: malformed line: {exc}") from None
            kind = payload.get("kind")
            if kind == "run":
                yield "run", _result_from_payload(payload)
            elif kind == "failed":
                yield "failed", FailedRun(
                    index=int(payload["index"]),
                    seed=int(payload["seed"]),
                    error=str(payload.get("error", "")),
                    traceback=str(payload.get("traceback", "")),
                )
            else:
                raise ShardError(f"{path}: unknown line kind {kind!r}")
    except SealError as exc:
        raise ShardError(str(exc)) from None


def load_shard(
    path: str,
) -> Tuple[ShardManifest, List[RunResult], List[FailedRun]]:
    """Eagerly read and verify one shard artifact."""
    manifest = read_manifest(path)
    results: List[RunResult] = []
    failures: List[FailedRun] = []
    for kind, entry in iter_shard(path):
        if kind == "run":
            results.append(entry)
        else:
            failures.append(entry)
    return manifest, results, failures


@dataclass(frozen=True)
class ShardRunReport:
    """Summary of one executed shard, for the CLI and tests."""

    manifest: ShardManifest
    path: str
    content_sha256: str
    completed: int
    failed: int
    wall_clock_s: float
    stats: ExecutionStats

    def summary_lines(self) -> List[str]:
        m = self.manifest
        return [
            f"{m.label}: shard {m.shard}/{m.nshards} — "
            f"{self.completed} of {len(m.indices)} run(s) completed"
            + (f", {self.failed} failed" if self.failed else "")
            + f", {self.wall_clock_s:.2f} s wall-clock",
            f"artifact: {self.path} (format v{m.version}, "
            f"sha256:{self.content_sha256})",
        ]


def run_shard(
    task: MonteCarloTask,
    runs: int,
    base_seed: int,
    shard: int,
    nshards: int,
    out_path: str,
    workers: int = 1,
    label: Optional[str] = None,
) -> ShardRunReport:
    """Execute one shard of a study and write its artifact.

    The seed schedule is the **full** study's — :func:`derive_seeds`
    over all ``runs`` indices, then sliced to this shard's residue
    class — so the seed a run sees is independent of ``nshards``.
    Results stream through :class:`ShardWriter` as the scheduler
    completes them; ``out_path`` changes only once the artifact is
    sealed, so if execution or a write fails the error propagates and
    an earlier artifact at ``out_path`` stays intact.
    """
    started = time.perf_counter()
    indices = shard_indices(runs, shard, nshards)
    schedule = derive_seeds(base_seed, runs)
    pairs = [(k, schedule[k]) for k in indices]
    manifest = ShardManifest(
        task_digest=task_fingerprint(task),
        label=label or getattr(task, "scenario", type(task).__name__),
        base_seed=int(base_seed),
        runs=int(runs),
        shard=int(shard),
        nshards=int(nshards),
        indices=tuple(indices),
    )
    with ShardWriter(out_path, manifest) as writer:
        report = execute_runs(
            _execute,
            task,
            pairs,
            workers=resolve_workers(workers),
            consume=writer.write_result,
            on_failure=writer.write_failure,
        )
    return ShardRunReport(
        manifest=manifest,
        path=str(out_path),
        content_sha256=writer.content_sha256,
        completed=len(writer.completed),
        failed=len(writer.failed),
        wall_clock_s=time.perf_counter() - started,
        stats=report.stats,
    )


def _validate_cover(manifests: Sequence[ShardManifest], paths: Sequence[str]) -> None:
    """Merge preconditions: same study, disjoint complete index cover."""
    first = manifests[0]
    for manifest, path in zip(manifests, paths):
        for field_name in ("task_digest", "base_seed", "runs", "label"):
            mine = getattr(manifest, field_name)
            theirs = getattr(first, field_name)
            if mine != theirs:
                raise ShardError(
                    f"{path}: {field_name} mismatch — shard has {mine!r}, "
                    f"{paths[0]} has {theirs!r}; shards must come from the "
                    f"same study definition"
                )
    owner: Dict[int, str] = {}
    for manifest, path in zip(manifests, paths):
        for index in manifest.indices:
            if index in owner:
                raise ShardError(
                    f"index {index} appears in both {owner[index]} and "
                    f"{path}; shard slices must be disjoint"
                )
            if not 0 <= index < first.runs:
                raise ShardError(
                    f"{path}: index {index} outside study range "
                    f"[0, {first.runs})"
                )
            owner[index] = path
    missing = [k for k in range(first.runs) if k not in owner]
    if missing:
        preview = ", ".join(str(k) for k in missing[:8])
        raise ShardError(
            f"shards do not cover the study: {len(missing)} of "
            f"{first.runs} indices missing (first: {preview}); "
            f"supply every shard of the partition"
        )


def merge_shards(paths: Sequence[str]) -> MonteCarloStudy:
    """Reassemble shard artifacts into the exact unsharded study.

    Validates the manifests (same task digest, base seed, run count;
    disjoint slices that cover every index; verified content hashes),
    then interleaves the per-shard streams back into global index
    order.  Uptime aggregate, per-run results, fault streams, and
    merged metrics are all byte-identical to a single-process run of
    the same study — determinism makes the merge exact, not
    approximate.
    """
    if not paths:
        raise ShardError("no shard artifacts given")
    started = time.perf_counter()
    manifests = [read_manifest(path) for path in paths]
    _validate_cover(manifests, paths)
    first = manifests[0]

    by_index_owner: Dict[int, int] = {}
    for position, manifest in enumerate(manifests):
        for index in manifest.indices:
            by_index_owner[index] = position
    streams = [iter_shard(path) for path in paths]

    results: List[RunResult] = []
    failures: List[FailedRun] = []
    for k in range(first.runs):
        position = by_index_owner[k]
        try:
            kind, entry = next(streams[position])
        except StopIteration:
            raise ShardError(
                f"{paths[position]}: ended before producing index {k}; "
                f"shard is incomplete"
            ) from None
        if entry.index != k:
            raise ShardError(
                f"{paths[position]}: expected index {k}, found "
                f"{entry.index}; shard entries must be index-ordered"
            )
        if kind == "run":
            results.append(entry)
        else:
            failures.append(entry)
    # Drain the iterators so every content hash is verified end-to-end.
    for stream, path in zip(streams, paths):
        for _extra in stream:
            raise ShardError(f"{path}: more entries than manifest indices")

    if not results:
        raise ShardError("all runs in all shards failed; nothing to merge")
    uptime = MonteCarloUptime.from_samples([r.sample for r in results])
    return MonteCarloStudy(
        label=first.label,
        base_seed=first.base_seed,
        workers=len(paths),
        runs=results,
        uptime=uptime,
        wall_clock_s=time.perf_counter() - started,
        failures=tuple(failures),
    )


__all__ = [
    "SHARD_FORMAT_VERSION",
    "ShardError",
    "ShardManifest",
    "ShardRunReport",
    "ShardWriter",
    "iter_shard",
    "load_shard",
    "merge_shards",
    "read_manifest",
    "run_shard",
    "shard_indices",
    "task_fingerprint",
]
