"""Fault-universe sharding: deterministic partitions.

The dispatch layer decouples *what* is simulated (the PPSFP kernel in
:mod:`repro.sim.faultsim`) from *how the fault universe is scheduled*.
The collapsed fault list is partitioned deterministically (faults
grouped by fanout-free region, groups shuffled with the seed and placed
largest-first on the least-loaded shard; partition count independent of
worker count), the good-machine response is computed once, each worker
runs PPSFP over its partition against that shared response, and each
shard's first-detecting pattern indices are merged back by position — so
first-detecting-pattern semantics survive sharding and the outcome is
bit-identical to PPSFP for any number of workers.  Keeping a region in
one shard also keeps the work counters bit-identical on netlists without
identical cores: its faults share one ``obs(root)`` propagation per
chunk, as they do in process.  Where cores repeat, a shard holds only
some images of a fault and PPSFP grades the images it holds (see
:mod:`repro.sim.faultsim`), so the counters are the sum of in-process
PPSFP over each shard.
:class:`repro.sim.supervisor.SupervisedPoolBackend` is the one driver
that runs the shards.  Because the plan is a pure function of the fault
universe, seed and partition count, a run stopped by a failed shard
resumes against its shard store: the re-run rebuilds the same shards and
grades only those with no published result.

Accelerator-scale fault universes (Sadi & Guin's yield-loss setting, the
tutorial's E3/E4 experiments) are only tractable when the universe is
sharded this way: faults are embarrassingly parallel once the good
machine is shared, and fault dropping still works because each fault's
lifetime is confined to one partition.
"""

from __future__ import annotations

import math
import random
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence

from ..faults.model import StuckAtFault
from .faultsim import unique_faults

#: Backend names the ``--backend`` CLI flag accepts: the two in-process
#: engines, which ``FaultSimulator.simulate(engine=...)`` also takes by
#: name, and the supervised multiprocess pool, which it takes as a
#: configured :class:`repro.sim.supervisor.SupervisedPoolBackend`.
BACKEND_NAMES = ("serial", "ppsfp", "supervised")


def validate_pool_args(
    jobs: Optional[int] = None,
    seed: int = 0,
    partitions: Optional[int] = None,
) -> None:
    """Reject nonsensical pool arguments with actionable messages.

    ``jobs`` and ``partitions`` must be positive when given (``None``
    means "pick automatically"); ``seed`` must be a non-negative int so
    the partitioning shuffle is reproducible across documentation and
    shard stores.
    """
    if jobs is not None and (not isinstance(jobs, int) or jobs < 1):
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    if partitions is not None and (not isinstance(partitions, int) or partitions < 1):
        raise ValueError(f"partitions must be a positive integer, got {partitions!r}")
    if not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


#: Target faults per partition.  The partition count derives from the
#: universe size alone (never from the worker count), so the shard
#: boundaries — and therefore the merged result — are reproducible on any
#: machine.
DEFAULT_PARTITION_FAULTS = 256

#: Lower bound on partitions for non-trivial universes, so small fault
#: lists still feed several workers.
MIN_PARTITIONS = 8


def default_partition_count(n_faults: int) -> int:
    """Deterministic partition count for ``n_faults`` collapsed faults."""
    if n_faults == 0:
        return 0
    by_size = math.ceil(n_faults / DEFAULT_PARTITION_FAULTS)
    return min(n_faults, max(MIN_PARTITIONS, by_size))


def partition_faults(
    faults: Sequence[StuckAtFault],
    n_partitions: int,
    seed: int = 0,
    key: Optional[Callable[[StuckAtFault], object]] = None,
) -> List[List[StuckAtFault]]:
    """Shard ``faults`` into at most ``n_partitions`` deterministic partitions.

    Faults with equal ``key`` form one group and land in one partition
    (without ``key`` every fault is its own group).  A seeded shuffle
    spreads structurally adjacent groups across partitions, then each
    group, largest first, goes to the least-loaded partition (lowest index
    on ties), so sizes differ by at most the largest group — by at most one
    fault without ``key``, where this is plain round-robin.  Given the same
    seed, partition count and key the shards are identical on every run
    and every worker count.
    """
    unique = unique_faults(faults)
    if not unique:
        return []
    grouped: Dict[object, List[StuckAtFault]] = {}
    for fault in unique:
        grouped.setdefault(fault if key is None else key(fault), []).append(fault)
    groups = list(grouped.values())
    random.Random(seed).shuffle(groups)
    groups.sort(key=len, reverse=True)  # stable: ties keep the shuffle
    n = max(1, min(n_partitions, len(groups)))
    partitions: List[List[StuckAtFault]] = [[] for _ in range(n)]
    loads = [(0, index) for index in range(n)]
    for group in groups:
        load, index = heappop(loads)
        partitions[index].extend(group)
        heappush(loads, (load + len(group), index))
    return partitions
