#!/usr/bin/env python3
"""Rolls an olxpbench trace up into self time per layer.

Usage: layers.py TRACE.jsonl [TRACE.jsonl ...]

A trace is the JSON-lines file `olxpbench --trace=FILE` (or
`run.py --trace 1`) writes: one {"kind": "span"} line per span and a few
{"kind": "counter"} lines with registry totals over the measure window.
A span's self time is its duration minus the part of that interval its
child spans cover; each span names the layer its self time belongs to:

  body          op span: the TxnProfile body (for OLTP and hybrid ops this
                is the row-store interpreter, txn, lock and WAL work the
                benchmark cannot split from outside)
  session       an analytical statement outside its operators (parse cache,
                routing, result assembly)
  exec / sql    operators of a statement on the vectorized engine / the
                interpreter (from Session::last_trace())
  probe_commit  the freshness probe's update and commit
  probe_poll    waiting for that commit to become visible on the replica
  setup, replicator, vacuum
                set-up, the drain and the vacuum pass after the window

Counter lines (lock.wait_us, wal.fsync_us, session.statement_us) split the
body time the spans cannot: they are printed per op beside the table.

Stdlib only.
"""

import json
import sys


def load(path):
    spans, counters, workload = [], {}, ""
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            workload = rec.get("workload", workload)
            if rec["kind"] == "span":
                spans.append(rec)
            else:
                counters[rec["name"]] = rec["value"]
    return workload, spans, counters


def covered(parent, children):
    """Length of the union of the children's intervals inside the parent."""
    ivs = sorted((max(c["start_us"], parent["start_us"]),
                  min(c["end_us"], parent["end_us"])) for c in children)
    total, cur_s, cur_e = 0, None, None
    for s, e in ivs:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def rollup(path):
    """Self time (us) per layer and per (layer, span name), plus the number
    of traced ops and probes the per-op figures divide by."""
    workload, spans, counters = load(path)
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    by_layer, by_name = {}, {}
    for s in spans:
        self_us = (s["end_us"] - s["start_us"]) - covered(
            s, children.get(s["id"], []))
        by_layer[s["layer"]] = by_layer.get(s["layer"], 0) + self_us
        key = (s["layer"], s["name"])
        by_name[key] = by_name.get(key, 0) + self_us
    return {
        "workload": workload,
        "ops": sum(1 for s in spans if s["name"] == "op"),
        "probes": sum(1 for s in spans if s["name"] == "probe.commit"),
        "layers": by_layer,
        "names": by_name,
        "counters": counters,
    }


# Layers whose spans run once per run (set-up repetitions, the drain and
# vacuum pass after the window) rather than once per op or probe.
ONE_SHOT = ("setup", "replicator", "vacuum")


def print_rollup(roll, out=sys.stdout):
    tag = f"layers[{roll['workload']}]"
    ops = max(roll["ops"], 1)
    window = {k: v for k, v in roll["names"].items() if k[0] not in ONE_SHOT}
    total = sum(window.values()) or 1
    print(f"{tag} {roll['ops']} traced ops, {roll['probes']} probes; "
          f"share = of all self time in the measure window", file=out)
    print(f"{tag} {'layer':<14} {'span':<26} {'self ms':>10} {'share':>7} "
          f"{'us/op':>10}", file=out)
    for (layer, name), us in sorted(window.items(), key=lambda kv: -kv[1]):
        print(f"{tag} {layer:<14} {name:<26} {us / 1e3:>10.1f} "
              f"{100 * us / total:>6.1f}% {us / ops:>10.1f}", file=out)
    for (layer, name), us in sorted(roll["names"].items()):
        if layer in ONE_SHOT:
            print(f"{tag} {layer:<14} {name:<26} {us / 1e3:>10.1f} "
                  f"(outside the window)", file=out)
    for name, value in sorted(roll["counters"].items()):
        print(f"{tag} registry {name:<22} {value / 1e3:>10.1f} ms over the "
              f"window, all ops", file=out)


def main(argv):
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    for path in argv:
        print_rollup(rollup(path))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
