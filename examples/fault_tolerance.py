#!/usr/bin/env python3
"""Upstream-backup fault tolerance in action (paper §2).

Feeds half an election into an S-Store engine, takes a snapshot, feeds more
votes — then crashes the node and recovers it.  Because only the *border
inputs* are command-logged (upstream backup), recovery replays the raw vote
pushes and re-derives every interior transaction, reproducing the exact
pre-crash state.

Run:  python examples/fault_tolerance.py
"""

from __future__ import annotations

from repro.apps.voter import VoterSStoreApp, VoterWorkload
from repro.core.recovery import crash_and_recover_streaming


def main() -> None:
    app = VoterSStoreApp(num_contestants=6, batch_size=1)
    requests = VoterWorkload(seed=7, num_contestants=6).generate(300)

    print("phase 1: 150 votes ...")
    app.submit(requests[:150], ingest_chunk=5)
    print(f"  total votes: {app.summary().total_votes}")

    print("taking a snapshot ...")
    snapshot = app.engine.take_snapshot()
    print(f"  snapshot #{snapshot.snapshot_id} through LSN {snapshot.through_lsn}")

    print("phase 2: 150 more votes ...")
    app.submit(requests[150:], ingest_chunk=5)
    before = app.summary()
    print(f"  total votes: {before.total_votes}, "
          f"eliminations: {before.eliminations}")

    log = app.engine.command_log
    kinds: dict[str, int] = {}
    for record in log.all_records():
        kinds[record.procedure] = kinds.get(record.procedure, 0) + 1
    print(f"\ncommand log contents (upstream backup): {kinds}")
    print(f"interior TEs executed but never logged: "
          f"{app.engine.workflow_status()['committed_tes']}")

    print("\n*** CRASH ***  (all in-memory state lost)")
    report = crash_and_recover_streaming(app.engine)
    print(
        f"recovered: snapshot loaded, {report.replayed_records} log records "
        f"replayed, lost pending records: {report.lost_log_records}"
    )

    after = app.summary()
    print(f"state identical to pre-crash: {after == before}")
    assert after == before

    print("\nengine keeps working after recovery: 30 more votes ...")
    more = VoterWorkload(seed=8, num_contestants=6).generate(30)
    app.submit(more, ingest_chunk=5)
    print(f"  total votes now: {app.summary().total_votes}")


if __name__ == "__main__":
    main()
