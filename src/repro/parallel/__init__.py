"""Multi-process shared-nothing partition execution (``repro.parallel``).

The in-process :class:`~repro.hstore.engine.HStoreEngine` simulates its
partitions inside one Python interpreter, so added partitions buy zero real
parallelism — the GIL caps the whole node at one core.  This subsystem
deploys the same engine the way H-Store actually runs: **one OS process per
partition**, each executing its transactions serially against its own slice
of the database, coordinated over explicit mailboxes.

* :class:`PartitionWorker` — one partition's process plus its inbox/outbox
  mailbox pair (simplex OS pipes).
* :class:`Router` — deterministic value routing (same ``stable_hash`` the
  in-process engine uses, so a workload replays onto the same shards).
* :class:`ParallelHStoreEngine` — the coordinator facade.  It speaks the
  existing engine API (``execute_ddl`` / ``register_procedure`` /
  ``call_procedure`` / ``execute_sql`` / ``crash`` / ``recover`` /
  ``take_snapshot`` / ``enable_durability`` / ``restore_from_disk``), so
  applications, benchmarks and the fault checker drive a real process
  cluster unmodified.

See ``docs/INTERNALS.md`` § "Process model" for the message sequences.
"""

from repro.parallel.engine import ParallelHStoreEngine
from repro.parallel.router import Router
from repro.parallel.worker import PartitionWorker, WorkerConfig

__all__ = [
    "ParallelHStoreEngine",
    "PartitionWorker",
    "Router",
    "WorkerConfig",
]
