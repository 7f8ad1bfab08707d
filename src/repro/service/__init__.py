"""repro.service: the serving layer over the one-shot compiler.

Signature -> cache -> session -> batching:

* :func:`graph_signature` fingerprints a (graph, machine, options)
  compilation request, stably across tensor-id renumbering;
* :class:`PartitionCache` is an LRU, byte-budgeted, single-flight cache of
  :class:`~repro.runtime.partition.CompiledPartition` that closes
  partitions it evicts;
* :class:`InferenceSession` binds weights once, compiles ONE
  shape-polymorphic partition per model (symbolic batch,
  ``dyn("B", DYNAMIC_BATCH_HINT)``) and serves ``run(inputs)``
  thread-safely at each request's exact batch size — no buckets, no
  padding;
* :class:`BatchingEngine` (``InferenceSession(batching="on")``) coalesces
  concurrent requests into single partition executions of any combined
  row count — ``submit(inputs) -> Future`` plus a blocking ``run``
  wrapper;
* :class:`ServiceStats` / :class:`BatchingStats` snapshot what the cache
  and the engine did;
* :class:`ShardedSession` scales the whole stack across worker
  *processes*: signature-routed (consistent hashing, one compile home
  per model), shared-memory tensor transport
  (:class:`~repro.service.shm.TensorRing`), warm-up, heartbeats with
  automatic worker restart, and graceful drain.
"""

from .batching import (
    BatchingEngine,
    BatchingStats,
    format_batching_stats,
)
from .cache import PartitionCache, partition_nbytes
from .session import (
    ADAPTIVE_MODES,
    BATCHING_MODES,
    InferenceSession,
    ModelProbe,
)
from .sharding import (
    ConsistentHashRing,
    ModelSpec,
    ShardedSession,
    ShardedStats,
    WorkerInfo,
    format_sharded_stats,
)
from .shm import TensorRing, TensorSpec, live_segments, request_nbytes
from .signature import canonical_graph_form, graph_signature
from .stats import ServiceStats, SignatureStats, format_stats

__all__ = [
    "ADAPTIVE_MODES",
    "BATCHING_MODES",
    "BatchingEngine",
    "BatchingStats",
    "ConsistentHashRing",
    "PartitionCache",
    "partition_nbytes",
    "InferenceSession",
    "ModelProbe",
    "ModelSpec",
    "ShardedSession",
    "ShardedStats",
    "TensorRing",
    "TensorSpec",
    "WorkerInfo",
    "canonical_graph_form",
    "graph_signature",
    "live_segments",
    "request_nbytes",
    "ServiceStats",
    "SignatureStats",
    "format_batching_stats",
    "format_sharded_stats",
    "format_stats",
]
