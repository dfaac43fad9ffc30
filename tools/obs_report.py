#!/usr/bin/env python3
"""Observability report / trace validator for fairmpi.

Two roles, combinable in one invocation:

  --validate TRACE.json    Structurally validate an exported Chrome
                           trace-event file (Universe::export_chrome_trace):
                           top-level object schema, per-event required keys,
                           phase-specific constraints ("M" metadata, "i"
                           instants, "n" async instants), monotone-sane
                           timestamps, and that every (pid, tid) carrying
                           events also carries thread_name metadata.

  --report OBS.json        Render Universe::dump_observability() output as
                           lock-contention and per-CRI utilization tables.
                           --require-wait CLASS (repeatable) turns "class
                           CLASS recorded zero wait time" into a failure —
                           CI uses it to assert the profiler attributes
                           blocked time where the design says it must go.

Exit status: 0 ok, 1 validation/requirement failure, 2 usage error.
Stdlib only (json/argparse) — runs on a bare CI runner.
"""

from __future__ import annotations

import argparse
import json
import sys

VALID_PHASES = {"M", "i", "n", "B", "E", "X", "b", "e"}
EXPECTED_EVENT_NAMES = {
    "Send", "RecvPost", "RecvDone", "Progress", "RmaPut", "RmaGet", "RmaFlush",
    "RndvRts", "RndvDone", "Retransmit", "WatchdogStall",
    "AckSent", "AckRecv", "CsumDrop", "CriDrain",
    "OverloadShed", "OverloadLevel", "OverloadPause", "Cancel", "Deadline",
    "CollOp",
}

# Overload-control SPCs (DESIGN.md §5h): --report fails if a snapshot's
# spc_total is missing any of these — exporter/schema drift would otherwise
# silently blind the memory-pressure chaos job's accounting.
OVERLOAD_SPC_NAMES = (
    "OverloadShedMessages", "OverloadNacksSent", "OverloadNacksReceived",
    "OverloadPausedPeers", "OverloadLevelChanges", "OverloadPoolPeak",
    "CancelledOps", "DeadlineExceededOps", "QuiesceTimeouts",
)

# Collective SPCs (DESIGN.md §5i): same drift guard as the §5h set — the
# coll-mt CI job's accounting and the collectives table below read these.
COLL_SPC_NAMES = (
    "CollOps", "CollRounds", "CollSegments", "CollLaneAcquires",
    "CollLaneWaits", "CollBinomialOps", "CollRsagOps", "CollPipelinedOps",
    "ReservedTagRejects",
)


def fail(msg: str) -> None:
    print(f"obs_report: FAIL: {msg}", file=sys.stderr)
    raise SystemExit(1)


# ---------------------------------------------------------------- validate


def validate_trace(path: str, verbose: bool) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"{path}: not readable JSON: {exc}")

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: top level must be an object with a traceEvents array")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail(f"{path}: traceEvents is not an array")

    named_threads: set[tuple[int, int]] = set()
    event_threads: set[tuple[int, int]] = set()
    instants = 0
    async_lanes: set[tuple[int, str]] = set()
    unknown_names: set[str] = set()

    for i, ev in enumerate(events):
        where = f"{path}: traceEvents[{i}]"
        if not isinstance(ev, dict):
            fail(f"{where}: event is not an object")
        ph = ev.get("ph")
        if ph not in VALID_PHASES:
            fail(f"{where}: bad or missing ph {ph!r}")
        if "pid" not in ev or not isinstance(ev["pid"], int):
            fail(f"{where}: missing integer pid")

        if ph == "M":
            if ev.get("name") not in ("process_name", "thread_name", "process_sort_index",
                                      "thread_sort_index"):
                fail(f"{where}: unknown metadata record {ev.get('name')!r}")
            if ev["name"] == "thread_name":
                if "tid" not in ev:
                    fail(f"{where}: thread_name metadata without tid")
                named_threads.add((ev["pid"], ev["tid"]))
            continue

        # Non-metadata events need a timestamp and a name.
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(f"{where}: missing or negative ts")
        name = ev.get("name")
        if not isinstance(name, str) or not name:
            fail(f"{where}: missing name")

        if ph == "i":
            if ev.get("s") not in ("t", "p", "g"):
                fail(f"{where}: instant event without a valid scope 's'")
            if "tid" not in ev:
                fail(f"{where}: instant event without tid")
            event_threads.add((ev["pid"], ev["tid"]))
            instants += 1
            if name not in EXPECTED_EVENT_NAMES:
                unknown_names.add(name)
        elif ph == "n":
            if "id" not in ev:
                fail(f"{where}: async instant without an id")
            if not ev.get("cat"):
                fail(f"{where}: async instant without a cat")
            async_lanes.add((ev["pid"], str(ev["id"])))

    orphans = event_threads - named_threads
    if orphans:
        fail(f"{path}: threads with events but no thread_name metadata: {sorted(orphans)}")
    if unknown_names:
        fail(f"{path}: unknown event names (exporter/schema drift): {sorted(unknown_names)}")

    print(f"obs_report: {path}: OK — {len(events)} events "
          f"({instants} instants, {len(named_threads)} named threads, "
          f"{len(async_lanes)} CRI lanes)")
    if verbose:
        for pid, lane in sorted(async_lanes):
            print(f"  async lane: pid={pid} id={lane}")


# ------------------------------------------------------------------ report


def render_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for c, cell in enumerate(row):
            widths[c] = max(widths[c], len(cell))
    out = []
    line = "  ".join(h.ljust(widths[c]) for c, h in enumerate(headers))
    out.append(line)
    out.append("-" * len(line))
    for row in rows:
        out.append("  ".join(cell.rjust(widths[c]) if c else cell.ljust(widths[c])
                             for c, cell in enumerate(row)))
    return "\n".join(out)


def fmt_ns(ns: int) -> str:
    if ns >= 1_000_000_000:
        return f"{ns / 1e9:.2f}s"
    if ns >= 1_000_000:
        return f"{ns / 1e6:.2f}ms"
    if ns >= 1_000:
        return f"{ns / 1e3:.2f}us"
    return f"{ns}ns"


def report_obs(path: str, require_wait: list[str]) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"{path}: not readable JSON: {exc}")

    for key in ("obs_enabled", "contention", "ranks", "spc_total"):
        if key not in doc:
            fail(f"{path}: missing top-level key {key!r}")

    cfg = doc.get("config", {})
    print(f"fairmpi observability report — {path}")
    print(f"  obs_enabled={doc['obs_enabled']}  ranks={cfg.get('num_ranks')}  "
          f"instances={cfg.get('num_instances')}  "
          f"assignment={cfg.get('assignment')}  progress={cfg.get('progress')}")
    print()

    # --- lock contention ---
    classes = sorted(doc["contention"], key=lambda c: -int(c["wait_ns"]))
    rows = []
    for c in classes:
        acq = int(c["acquires"])
        contended = int(c["contended"])
        rows.append([
            c["name"], str(c["rank"]), str(acq), str(contended),
            f"{100.0 * contended / acq:.2f}%" if acq else "-",
            fmt_ns(int(c["wait_ns"])), str(c["trylock_fails"]),
        ])
    print("lock contention (by wait time):")
    print(render_table(
        ["class", "rank", "acquires", "contended", "cont%", "wait", "trylock-fails"],
        rows))
    print()

    # --- per-CRI utilization ---
    util_rows = []
    for rank in doc["ranks"]:
        for inst in rank["instances"]:
            hist = inst["drain_hist"]
            util_rows.append([
                f"r{rank['rank']}.cri{inst['id']}",
                str(inst["injections"]), str(inst["packets_drained"]),
                str(inst["completions_drained"]), str(inst["drain_visits"]),
                str(inst["own_trylock_misses"]), str(inst["orphan_sweeps"]),
                "/".join(str(h) for h in hist),
            ])
    print("per-CRI utilization:")
    print(render_table(
        ["instance", "inject", "pkts-out", "comps-out", "visits",
         "own-miss", "sweeps", "batch-hist(1/2/4/8/16/32/33+)"],
        util_rows))
    print()

    # --- overload control (DESIGN.md §5h) ---
    # Older snapshots (pre-§5h) have no overload/payload_pool keys; the
    # per-rank view is null when no cap is configured.
    overload_rows = []
    for rank in doc["ranks"]:
        ov = rank.get("overload")
        if ov is None:
            continue
        spc = rank.get("spc", {})
        overload_rows.append([
            f"r{rank['rank']}", ov["level"], str(ov["paused_peers"]),
            f"{ov['unexpected_cap']}/{ov['unexpected_policy']}",
            f"{ov['pool_cap_bytes']}/{ov['pool_policy']}",
            f"{ov['tracker_cap']}/{ov['tracker_policy']}",
            str(spc.get("OverloadShedMessages", 0)),
            str(spc.get("OverloadNacksSent", 0)),
            str(spc.get("CancelledOps", 0)),
            str(spc.get("DeadlineExceededOps", 0)),
        ])
    if overload_rows:
        print("overload control (per capped rank):")
        print(render_table(
            ["rank", "level", "paused", "unexp-cap", "pool-cap", "trk-cap",
             "shed", "nacks", "cancels", "deadlines"],
            overload_rows))
        pool = doc.get("payload_pool", {})
        print(f"  payload_pool: in_use={pool.get('in_use_bytes')}B "
              f"high_water={pool.get('high_water_bytes')}B")
        print()

    # --- collectives (DESIGN.md §5i) ---
    # Only rendered once any rank ran a collective; pre-§5i snapshots (or
    # p2p-only runs) skip the table.
    coll_rows = []
    for rank in doc["ranks"]:
        spc = rank.get("spc", {})
        if not spc.get("CollOps"):
            continue
        coll_rows.append([
            f"r{rank['rank']}", str(spc.get("CollOps", 0)),
            str(spc.get("CollRounds", 0)), str(spc.get("CollSegments", 0)),
            str(spc.get("CollBinomialOps", 0)), str(spc.get("CollRsagOps", 0)),
            str(spc.get("CollPipelinedOps", 0)),
            str(spc.get("CollLaneAcquires", 0)), str(spc.get("CollLaneWaits", 0)),
            str(spc.get("ReservedTagRejects", 0)),
        ])
    if coll_rows:
        print("collectives (per rank):")
        print(render_table(
            ["rank", "ops", "rounds", "segs", "binomial", "rsag", "pipelined",
             "lane-acq", "lane-wait", "tag-rejects"],
            coll_rows))
        print()

    # --- requirements ---
    failures = []
    # Schema-drift guard: a snapshot that carries spc_total must carry the
    # §5h counters — the chaos jobs' accounting depends on them.
    spc_total = doc.get("spc_total", {})
    for name in OVERLOAD_SPC_NAMES:
        if name not in spc_total:
            failures.append(f"spc_total is missing overload counter {name!r}")
    for name in COLL_SPC_NAMES:
        if name not in spc_total:
            failures.append(f"spc_total is missing coll counter {name!r}")
    by_name = {c["name"]: c for c in doc["contention"]}
    for want in require_wait:
        c = by_name.get(want)
        if c is None:
            failures.append(f"required lock class {want!r} never interned")
        elif int(c["wait_ns"]) <= 0:
            failures.append(f"lock class {want!r} recorded zero wait time")
    if failures:
        print()
        for msg in failures:
            print(f"obs_report: FAIL: {msg}", file=sys.stderr)
        raise SystemExit(1)
    if require_wait:
        print(f"\nobs_report: wait-time attribution OK for: {', '.join(require_wait)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--validate", metavar="TRACE_JSON",
                        help="validate an exported Chrome trace file")
    parser.add_argument("--report", metavar="OBS_JSON",
                        help="render a dump_observability() snapshot")
    parser.add_argument("--require-wait", action="append", default=[],
                        metavar="CLASS",
                        help="with --report: fail unless CLASS has wait_ns > 0")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()

    if not args.validate and not args.report:
        parser.print_usage(sys.stderr)
        return 2
    if args.require_wait and not args.report:
        print("obs_report: --require-wait needs --report", file=sys.stderr)
        return 2

    if args.validate:
        validate_trace(args.validate, args.verbose)
    if args.report:
        report_obs(args.report, args.require_wait)
    return 0


if __name__ == "__main__":
    sys.exit(main())
