"""Batch classification engine: canonical forms, caching, and batching.

This package amortizes the cost of the paper's decision procedure across
fleets of problems:

* :mod:`repro.engine.canonical` — canonical relabeling of an
  :class:`~repro.core.problem.LCLProblem`, invariant under label renaming,
  with a stable cache key,
* :mod:`repro.engine.cache` — in-memory result cache keyed by canonical
  form over a pluggable durable tier (:mod:`repro.engine.backends`: json
  file, sqlite-WAL, or memory-only), with hit/miss/eviction/flush
  statistics, optional TTL, write-behind persistence, and an optional LRU
  ``max_entries`` budget enforced in memory and on disk,
* :mod:`repro.engine.batch` — :class:`BatchClassifier`, which routes each
  problem's canonical form through the single-flight scheduler of
  :mod:`repro.workers` (inline, thread-pool, or process-pool execution; a
  renaming orbit is searched once), translates cached results back through
  each problem's label bijection, and fans batches out in order through one
  cancellable :class:`~repro.engine.batch.BatchFanOut`,
* :mod:`repro.engine.serialization` — dict/JSON round-tripping of problems
  and classification results, so results survive process boundaries and the
  on-disk cache.
"""

from .backends import (
    CacheBackend,
    CacheCorruptionError,
    JsonFileBackend,
    MemoryBackend,
    SqliteWalBackend,
    create_backend,
    parse_cache_url,
)
from .batch import BatchClassifier, BatchItem, BatchStats
from .cache import CacheStats, ClassificationCache
from .canonical import CanonicalForm, canonical_form, canonical_key
from .serialization import (
    artifacts_from_dict,
    artifacts_to_dict,
    problem_from_dict,
    problem_to_dict,
    relabel_result,
    result_from_dict,
    result_to_dict,
)

__all__ = [
    "BatchClassifier",
    "BatchItem",
    "BatchStats",
    "CacheBackend",
    "CacheCorruptionError",
    "CacheStats",
    "CanonicalForm",
    "ClassificationCache",
    "JsonFileBackend",
    "MemoryBackend",
    "SqliteWalBackend",
    "artifacts_from_dict",
    "artifacts_to_dict",
    "canonical_form",
    "canonical_key",
    "create_backend",
    "parse_cache_url",
    "problem_from_dict",
    "problem_to_dict",
    "relabel_result",
    "result_from_dict",
    "result_to_dict",
]
