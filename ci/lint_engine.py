#!/usr/bin/env python3
"""Repo-specific lint pass for rules the compiler cannot express.

Stdlib-only; runs from CI (static-analysis job) and from ctest. Rules:

  raw-sync        std::mutex / std::shared_mutex / std lock guards /
                  std::condition_variable are banned outside the sync
                  core (src/common/sync.h and the lock-order witness it
                  hooks into) — all engine synchronization goes through
                  the Clang-TSA-annotated wrappers so every new lock is
                  born analyzable. Findings carry the suggested sync::
                  replacement.
  tsa-escape      NO_THREAD_SAFETY_ANALYSIS is banned outside the sync
                  core: fix the locking, don't mute the analysis.
  lock-rank       Every sync::Mutex / sync::SharedMutex construction in
                  engine code must pass a named LockRank:: and a name,
                  so the lock-order witness (common/lockorder.h) covers
                  every lock from birth.
  todo-tag        TODO comments must carry an issue tag — TODO(#123) —
                  so they are findable and owned, not permanent.
  parent-include  #include "../foo.h" is banned; include internal
                  headers by their src/-relative path so moves don't
                  silently re-resolve.
  naked-status    A statement that calls a Status-returning method and
                  discards the result (`s.Execute(...);` as a whole
                  statement) is banned in non-test code. [[nodiscard]]
                  catches this at compile time; the lint also covers
                  files a given build config never compiles.
  columns-access  The identifier `columns_` is banned outside
                  src/storage/column_store.* / column_block.*: the
                  monolithic per-table Value vectors are gone, and every
                  reader (kernels, joins, tests) must go through the
                  block API (ColumnChunkView spans / value_at). Also
                  keeps anyone from reintroducing a member with the old
                  name and poking at it directly.
  blocking-under-lock
                  A blocking call — fsync/fdatasync, ::sleep/usleep/
                  nanosleep, std::this_thread::sleep_for/until, or
                  file-stream construction — lexically inside a
                  sync::MutexLock / sync::WriterLock scope stalls every
                  thread queued on that lock for the duration of the
                  syscall. Engine code must drop the lock first (baton /
                  leader-follower handoff). The sync core and the WAL
                  writer (src/storage/wal.cc) are exempt: the group-
                  commit leader fsyncs while holding the baton by
                  design, with followers deliberately parked.
  cost-model      The per-row rates col_vector_row_ns,
                  col_join_build_row_ns, col_join_row_ns,
                  row_analytic_scan_row_ns and parallel_efficiency appear
                  under src/ only in src/engine/profile.{h,cc}, whose
                  ReplicaCostNs / RowReadCostNs are the one pricing
                  function per store: the router calls them on estimated
                  counts, the charge on actual counts. A second copy of
                  the formula elsewhere would drift from them.
  scalar-semantics
                  CheckedAdd/Sub/Mul/Mod/Neg and std::fmod appear under
                  src/ only in src/common/checked_arith.h (the helpers),
                  src/sql/scalar_ops.h (the dialect's per-value rules both
                  executors call) and src/sql/bound_plan.h (AggAccum's
                  checked SUM). An executor that computes arithmetic on
                  its own would drift from the other store's answer.
  scan-driver     A ColumnTable::ScanPin is constructed under src/ only in
                  src/exec/vectorized.cc (the MorselScan driver and
                  EstimateReplicaWork) and src/storage/column_store.*
                  (the pin itself). Every replica sweep goes through the
                  one morsel-driven scan driver, so a second scan loop
                  cannot drift from its zone-map skipping, block
                  accounting or early exit.
  row-sweep       kScanChunkRows is referenced under src/ only by its
                  definition in src/storage/table.h and by the body of
                  MvccTable::Sweep in src/storage/table.cc, the row
                  store's one chunked read driver (Scan, ScanPkRange and
                  ForEachCommitted call it). A second chunk loop would
                  drift from its writer-gate pass, latch drops and resume
                  key.

Usage: lint_engine.py [--root DIR] [--json]
Exits 0 when clean, 1 otherwise. Default output is one human-readable
`path:line: rule: message` line per finding; --json emits a JSON array of
{"path", "line", "rule", "message"} objects for tooling.
"""

import argparse
import json
import pathlib
import re
import sys

# Directories scanned, relative to the repo root.
SCAN_DIRS = ["src", "tests", "bench", "examples"]
# Engine (non-test) code: raw-sync, tsa-escape and naked-status apply here.
ENGINE_DIRS = ["src"]
# The sync core: the only files allowed to touch raw primitives and the
# escape hatch (the wrappers themselves and the lock-order witness they
# call into, which cannot use the wrappers it instruments).
SYNC_CORE = {
    "src/common/sync.h",
    "src/common/lockorder.h",
    "src/common/lockorder.cc",
}

CC_SUFFIXES = {".h", ".hpp", ".cc", ".cpp"}

RAW_SYNC_RE = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|lock_guard|"
    r"unique_lock|shared_lock|scoped_lock|condition_variable(_any)?)\b")
# Fix-hint appended to raw-sync findings: the wrapper that replaces each
# banned primitive.
RAW_SYNC_SUGGEST = {
    "mutex": "sync::Mutex",
    "shared_mutex": "sync::SharedMutex",
    "recursive_mutex": "sync::Mutex (restructure: no recursive locking)",
    "timed_mutex": "sync::Mutex",
    "lock_guard": "sync::MutexLock",
    "unique_lock": "sync::MutexLock",
    "scoped_lock": "sync::MutexLock",
    "shared_lock": "sync::ReaderLock",
    "condition_variable": "sync::CondVar",
    "condition_variable_any": "sync::CondVar",
}
# A sync wrapper lock being CONSTRUCTED (declaration followed by an
# identifier). Pointer/reference parameters (`sync::Mutex* mu`) and the
# guards (sync::MutexLock etc.) don't match.
LOCK_DECL_RE = re.compile(r"\bsync::(?:Mutex|SharedMutex)\b\s+[A-Za-z_]")
LOCK_RANK_RE = re.compile(r"\bLockRank::k[A-Za-z]+\b")
TSA_ESCAPE_RE = re.compile(r"\bNO_THREAD_SAFETY_ANALYSIS\b|"
                           r"\bno_thread_safety_analysis\b")
TODO_RE = re.compile(r"\bTODO\b")
TODO_TAGGED_RE = re.compile(r"\bTODO\(#\d+\)")
PARENT_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"\.\./')
# A whole statement of the form `obj.Method(...);` / `obj->Method(...);` /
# `Method(...);` for the known Status-returning method names, with nothing
# consuming the result. Single-line heuristic: multi-line calls and every
# compiled configuration are already covered by [[nodiscard]] + -Werror.
STATUS_METHODS = (
    "Execute|ExecutePrepared|Commit|Rollback|Abort|Begin|Flush|"
    "InstallVersion|AddIndex|Checkpoint|WaitDurable")
NAKED_STATUS_RE = re.compile(
    r"^\s*(?:[A-Za-z_]\w*(?:\.|->))*(?:%s)\s*\([^;]*\)\s*;\s*(?://.*)?$"
    % STATUS_METHODS)

COLUMNS_ACCESS_RE = re.compile(r"\bcolumns_\b")
# Files allowed to define/use a `columns_` member (the block storage core).
COLUMNS_ALLOWED_PREFIXES = (
    "src/storage/column_store",
    "src/storage/column_block",
)

COST_RATE_RE = re.compile(
    r"\b(?:col_vector_row_ns|col_join_build_row_ns|col_join_row_ns|"
    r"row_analytic_scan_row_ns|parallel_efficiency)\b")
# The only engine files that may read the per-row rates (see docstring).
COST_MODEL_FILES = {
    "src/engine/profile.h",
    "src/engine/profile.cc",
}

SCALAR_OP_RE = re.compile(
    r"\b(?:CheckedAdd|CheckedSub|CheckedMul|CheckedMod|CheckedNeg)\b|"
    r"\bstd::fmod\b")
# The only engine files that may compute checked arithmetic (see docstring).
SCALAR_OPS_FILES = {
    "src/common/checked_arith.h",
    "src/sql/scalar_ops.h",
    "src/sql/bound_plan.h",
}

# A ScanPin object being constructed: a named declaration (`ScanPin pin(t)`,
# a `ScanPin pin_;` member), a temporary (`ScanPin(t)`, `ScanPin{t}`), or a
# template argument that is one (`make_unique<ScanPin>(t)`,
# `optional<ScanPin> p`). References and pointers don't match.
SCAN_PIN_RE = re.compile(
    r"\bScanPin\b\s*>?\s*(?:[A-Za-z_]\w*\s*[({;=]|[({])")
# The only engine files that may construct a ScanPin (see docstring).
SCAN_PIN_FILES = {
    "src/exec/vectorized.cc",
    "src/storage/column_store.h",
    "src/storage/column_store.cc",
}

ROW_CHUNK_RE = re.compile(r"\bkScanChunkRows\b")
# The chunk bound's definition, and the one function that may use it.
ROW_CHUNK_DEF_RE = re.compile(r"\bconstexpr\b.*\bkScanChunkRows\s*=")
ROW_CHUNK_DEF_FILE = "src/storage/table.h"
ROW_SWEEP_DRIVER_RE = re.compile(r"\bMvccTable::Sweep\s*\(")
ROW_SWEEP_DRIVER_FILE = "src/storage/table.cc"

LINE_COMMENT_RE = re.compile(r"^\s*(//|\*|/\*)")

# blocking-under-lock: guard construction opens a lexical critical section
# that lasts until the enclosing brace scope closes.
GUARD_DECL_RE = re.compile(r"\bsync::(?:MutexLock|WriterLock)\b\s+[A-Za-z_]")
BLOCKING_CALL_RE = re.compile(
    r"(?<![\w:])(?:::)?(?:fsync|fdatasync|sleep|usleep|nanosleep)\s*\(|"
    r"\bstd::this_thread::sleep_(?:for|until)\b|"
    r"\bstd::[io]?fstream\b")
# Files whose critical sections block by design (see docstring).
BLOCKING_ALLOWED = {
    "src/storage/wal.cc",
}


def is_under(path, dirs):
    return any(path.parts and path.parts[0] == d for d in dirs)


def lint_file(root, rel, findings):
    path = root / rel
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as e:
        findings.append((rel, 0, "io", f"unreadable: {e}"))
        return
    in_sync_core = rel.as_posix() in SYNC_CORE
    in_engine = is_under(rel, ENGINE_DIRS)
    columns_ok = rel.as_posix().startswith(COLUMNS_ALLOWED_PREFIXES)
    blocking_exempt = rel.as_posix() in BLOCKING_ALLOWED
    cost_rates_ok = rel.as_posix() in COST_MODEL_FILES
    scalar_ops_ok = rel.as_posix() in SCALAR_OPS_FILES
    scan_pin_ok = rel.as_posix() in SCAN_PIN_FILES
    # blocking-under-lock scope state: brace depth, plus the depth at which
    # each live guard was declared (a guard dies when its enclosing scope
    # closes). Lexical heuristic — strings/comments containing braces can
    # skew the depth, but engine code is clang-formatted and the rule only
    # needs to see ordinary guard blocks.
    depth = 0
    guard_depths = []
    # row-sweep: the brace depth at which MvccTable::Sweep's definition
    # started (None outside it), and whether its body has opened yet.
    driver_depth = None
    driver_open = False
    sweep_driver_file = rel.as_posix() == ROW_SWEEP_DRIVER_FILE
    chunk_def_file = rel.as_posix() == ROW_CHUNK_DEF_FILE
    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        if TODO_RE.search(line) and not TODO_TAGGED_RE.search(line):
            findings.append((rel, lineno, "todo-tag",
                             "TODO without an issue tag (use TODO(#N))"))
        if PARENT_INCLUDE_RE.search(line):
            findings.append((rel, lineno, "parent-include",
                             'relative "../" include; use the src/-relative '
                             "path"))
        if COLUMNS_ACCESS_RE.search(line) and not columns_ok:
            findings.append((rel, lineno, "columns-access",
                             "direct columns_ access outside the block "
                             "storage core; go through the ColumnChunkView "
                             "block API"))
        if in_sync_core:
            continue
        if in_engine:
            m = RAW_SYNC_RE.search(line)
            if m:
                suggest = RAW_SYNC_SUGGEST.get(m.group(1))
                hint = f"; replace std::{m.group(1)} with {suggest}" \
                    if suggest else ""
                findings.append((rel, lineno, "raw-sync",
                                 "raw std sync primitive; use the annotated "
                                 f"wrappers in common/sync.h{hint}"))
            if COST_RATE_RE.search(line) and not cost_rates_ok:
                findings.append((rel, lineno, "cost-model",
                                 "per-row cost rate outside "
                                 "engine/profile.{h,cc}; price work through "
                                 "ReplicaCostNs / RowReadCostNs"))
            if SCALAR_OP_RE.search(line) and not scalar_ops_ok:
                findings.append((rel, lineno, "scalar-semantics",
                                 "checked arithmetic outside "
                                 "sql/scalar_ops.h; call its IntArith / "
                                 "DoubleArith / IntNeg"))
            if (SCAN_PIN_RE.search(line) and not scan_pin_ok
                    and not LINE_COMMENT_RE.match(line)):
                findings.append((rel, lineno, "scan-driver",
                                 "ColumnTable::ScanPin constructed outside "
                                 "exec/vectorized.cc; sweep the replica "
                                 "through its MorselScan driver"))
            if (sweep_driver_file and ROW_SWEEP_DRIVER_RE.search(line)
                    and not LINE_COMMENT_RE.match(line)):
                driver_depth = depth
            if (ROW_CHUNK_RE.search(line) and driver_depth is None
                    and not (chunk_def_file and ROW_CHUNK_DEF_RE.search(line))
                    and not LINE_COMMENT_RE.match(line)):
                findings.append((rel, lineno, "row-sweep",
                                 "kScanChunkRows outside MvccTable::Sweep; "
                                 "read the row store through Scan / "
                                 "ScanPkRange / ForEachCommitted"))
            if TSA_ESCAPE_RE.search(line):
                findings.append((rel, lineno, "tsa-escape",
                                 "NO_THREAD_SAFETY_ANALYSIS outside the "
                                 "sync core; fix the locking instead"))
            if (LOCK_DECL_RE.search(line)
                    and not LINE_COMMENT_RE.match(line)):
                # The rank may sit on the declaration line or (wrapped
                # initializer) on the next one.
                window = line + (lines[lineno] if lineno < len(lines)
                                 else "")
                if not LOCK_RANK_RE.search(window):
                    findings.append((rel, lineno, "lock-rank",
                                     "sync lock constructed without a "
                                     "named LockRank:: (and name); the "
                                     "lock-order witness must cover every "
                                     "lock — see common/lockorder.h"))
            if (NAKED_STATUS_RE.match(line)
                    and not LINE_COMMENT_RE.match(line)
                    # Unbalanced parens = continuation of a wrapping call
                    # (e.g. the second line of OLXP_RETURN_NOT_OK(...)).
                    and line.count("(") == line.count(")")):
                findings.append((rel, lineno, "naked-status",
                                 "discarded Status result; handle it or "
                                 "write (void)... with a comment"))
            if not LINE_COMMENT_RE.match(line):
                if GUARD_DECL_RE.search(line):
                    guard_depths.append(depth)
                elif (guard_depths and not blocking_exempt
                        and BLOCKING_CALL_RE.search(line)):
                    findings.append(
                        (rel, lineno, "blocking-under-lock",
                         "blocking call (fsync/sleep/file I/O) inside a "
                         "sync::MutexLock/WriterLock scope; drop the lock "
                         "before blocking"))
            depth += line.count("{") - line.count("}")
            while guard_depths and depth < guard_depths[-1]:
                guard_depths.pop()
            if driver_depth is not None:
                if depth > driver_depth:
                    driver_open = True
                elif driver_open:
                    driver_depth = None
                    driver_open = False


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=".",
                    help="repo root to lint (default: cwd)")
    ap.add_argument("--json", action="store_true",
                    help="emit findings as a JSON array instead of "
                         "path:line text")
    args = ap.parse_args(argv)
    root = pathlib.Path(args.root).resolve()

    findings = []
    for top in SCAN_DIRS:
        top_dir = root / top
        if not top_dir.is_dir():
            continue
        for path in sorted(top_dir.rglob("*")):
            if path.suffix in CC_SUFFIXES and path.is_file():
                lint_file(root, path.relative_to(root), findings)

    if args.json:
        print(json.dumps([{"path": rel.as_posix(), "line": lineno,
                           "rule": rule, "message": msg}
                          for rel, lineno, rule, msg in findings],
                         indent=2))
    else:
        for rel, lineno, rule, msg in findings:
            print(f"{rel.as_posix()}:{lineno}: {rule}: {msg}")
    if findings:
        print(f"lint_engine: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
