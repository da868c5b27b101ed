#!/usr/bin/env python3
"""Self-test for ci/lint_engine.py: per-rule fixtures that must pass and
must fail, run against a temp directory shaped like the repo. Wired into
ctest so `ctest` alone exercises the linter."""

import importlib.util
import pathlib
import sys
import tempfile
import unittest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
LINT_PATH = REPO_ROOT / "ci" / "lint_engine.py"

spec = importlib.util.spec_from_file_location("lint_engine", LINT_PATH)
lint_engine = importlib.util.module_from_spec(spec)
spec.loader.exec_module(lint_engine)


class LintFixtureTest(unittest.TestCase):
    def run_lint(self, files):
        """files: {relative/path: content}. Returns (exit_code, findings)."""
        with tempfile.TemporaryDirectory() as td:
            root = pathlib.Path(td)
            for rel, content in files.items():
                path = root / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(content)
            findings = []
            for top in lint_engine.SCAN_DIRS:
                top_dir = root / top
                if not top_dir.is_dir():
                    continue
                for p in sorted(top_dir.rglob("*")):
                    if p.suffix in lint_engine.CC_SUFFIXES and p.is_file():
                        lint_engine.lint_file(root, p.relative_to(root),
                                              findings)
            return findings

    def assert_rules(self, files, expected_rules):
        findings = self.run_lint(files)
        self.assertEqual(sorted(f[2] for f in findings),
                         sorted(expected_rules),
                         msg=f"findings: {findings}")

    # ---- raw-sync ----

    def test_raw_mutex_in_engine_fails(self):
        self.assert_rules(
            {"src/storage/foo.h": "#include <mutex>\nstd::mutex mu_;\n"},
            ["raw-sync"])

    def test_raw_shared_mutex_and_guards_fail(self):
        src = ("std::shared_mutex mu_;\n"
               "std::lock_guard<std::mutex> lk(mu_);\n"
               "std::unique_lock<std::mutex> ul(mu_);\n"
               "std::condition_variable cv_;\n")
        self.assert_rules({"src/exec/foo.cc": src},
                          ["raw-sync", "raw-sync", "raw-sync", "raw-sync"])

    def test_sync_header_itself_passes(self):
        self.assert_rules(
            {"src/common/sync.h": "std::mutex mu_;\nstd::shared_mutex s_;\n"},
            [])

    def test_wrapper_usage_passes(self):
        self.assert_rules(
            {"src/storage/foo.cc": "sync::MutexLock lk(mu_);\n"}, [])

    def test_raw_mutex_in_tests_passes(self):
        # The ban is on engine code; tests may build ad-hoc harnesses.
        self.assert_rules({"tests/foo_test.cc": "std::mutex mu;\n"}, [])

    def test_raw_sync_finding_carries_fix_hint(self):
        findings = self.run_lint(
            {"src/a.cc": "std::lock_guard<std::mutex> lk(mu_);\n"})
        self.assertEqual(len(findings), 1)
        self.assertIn("sync::MutexLock", findings[0][3])

    def test_lockorder_core_may_use_raw_primitives(self):
        # The witness instruments the wrappers, so it cannot be built on
        # top of them; lockorder.{h,cc} are part of the sync core.
        self.assert_rules(
            {"src/common/lockorder.cc":
             "std::mutex mu;\nstd::lock_guard<std::mutex> lk(mu);\n"}, [])

    # ---- lock-rank ----

    def test_unranked_mutex_construction_fails(self):
        self.assert_rules(
            {"src/storage/foo.h": "sync::Mutex mu_;\n"}, ["lock-rank"])

    def test_unranked_shared_mutex_construction_fails(self):
        self.assert_rules(
            {"src/storage/foo.h": "mutable sync::SharedMutex mu_;\n"},
            ["lock-rank"])

    def test_ranked_construction_passes(self):
        src = ('sync::Mutex mu_{sync::LockRank::kWalIo, "wal.io"};\n'
               'mutable sync::SharedMutex tbl_ ACQUIRED_AFTER(mu_){\n'
               '    sync::LockRank::kTableLatch, "mvcc.table"};\n')
        self.assert_rules({"src/storage/foo.h": src}, [])

    def test_ranked_on_next_line_passes(self):
        # clang-format may wrap the initializer onto the following line.
        src = ("sync::Mutex checkpoint_mu_{\n"
               '    sync::LockRank::kCheckpoint, "db.checkpoint"};\n')
        self.assert_rules({"src/engine/foo.h": src}, [])

    def test_lock_pointer_param_passes(self):
        self.assert_rules(
            {"src/benchfw/foo.cc":
             "void F(sync::Mutex* out_mu, sync::SharedMutex& r);\n"}, [])

    def test_guard_usage_is_not_a_construction(self):
        self.assert_rules(
            {"src/storage/foo.cc": "sync::MutexLock lk(mu_);\n"}, [])

    def test_unranked_in_tests_passes(self):
        # Lint scope is engine code; the constructor signature itself
        # forces tests to pass a rank anyway.
        self.assert_rules(
            {"tests/foo_test.cc": "sync::Mutex mu_;\n"}, [])

    # ---- tsa-escape ----

    def test_tsa_escape_in_engine_fails(self):
        self.assert_rules(
            {"src/storage/foo.cc":
             "void F() NO_THREAD_SAFETY_ANALYSIS {}\n"},
            ["tsa-escape"])

    def test_tsa_escape_in_sync_header_passes(self):
        self.assert_rules(
            {"src/common/sync.h":
             "#define NO_THREAD_SAFETY_ANALYSIS ...\n"}, [])

    # ---- todo-tag ----

    def test_untagged_todo_fails(self):
        self.assert_rules({"src/a.cc": "// TODO: fix this later\n"},
                          ["todo-tag"])

    def test_tagged_todo_passes(self):
        self.assert_rules({"src/a.cc": "// TODO(#42): fix this later\n"}, [])

    def test_untagged_todo_in_tests_fails(self):
        self.assert_rules({"tests/a.cc": "// TODO someday\n"}, ["todo-tag"])

    # ---- parent-include ----

    def test_parent_include_fails(self):
        self.assert_rules({"src/a.cc": '#include "../common/status.h"\n'},
                          ["parent-include"])

    def test_repo_relative_include_passes(self):
        self.assert_rules({"src/a.cc": '#include "common/status.h"\n'}, [])

    # ---- naked-status ----

    def test_naked_execute_fails(self):
        self.assert_rules({"src/a.cc": '  s.Execute("DELETE FROM t");\n'},
                          ["naked-status"])

    def test_naked_commit_via_arrow_fails(self):
        self.assert_rules({"src/a.cc": "  txn->Commit();\n"},
                          ["naked-status"])

    def test_void_discard_passes(self):
        self.assert_rules(
            {"src/a.cc": '  (void)s.Execute("X");  // reason\n'}, [])

    def test_assigned_status_passes(self):
        self.assert_rules({"src/a.cc": '  auto st = s.Execute("X");\n'}, [])

    def test_macro_continuation_line_passes(self):
        src = ("  OLXP_RETURN_NOT_OK(\n"
               "      table->InstallVersion(pk, ts, false, row));\n")
        self.assert_rules({"src/a.cc": src}, [])

    def test_naked_status_in_tests_passes(self):
        # Test code is exempt (gtest macros wrap most calls anyway).
        self.assert_rules({"tests/a.cc": "  txn->Commit();\n"}, [])

    # ---- columns-access ----

    def test_columns_access_in_engine_fails(self):
        self.assert_rules(
            {"src/exec/foo.cc": "auto& c = table.columns_[0];\n"},
            ["columns-access"])

    def test_columns_access_in_tests_fails(self):
        # The ban covers tests too: readers go through the block API.
        self.assert_rules(
            {"tests/foo_test.cc": "t.columns_.size();\n"},
            ["columns-access"])

    def test_columns_access_in_column_store_passes(self):
        self.assert_rules(
            {"src/storage/column_store.cc":
             "std::vector<std::vector<Value>> columns_;\n"}, [])

    def test_columns_access_in_column_block_passes(self):
        self.assert_rules(
            {"src/storage/column_block.h": "size_t n = columns_.size();\n"},
            [])

    # ---- cost-model ----

    def test_cost_rate_outside_profile_fails(self):
        self.assert_rules(
            {"src/engine/session.cc":
             "double ns = rows * m.col_vector_row_ns;\n"
             "double f = 1.0 + m.parallel_efficiency * (lanes - 1);\n"},
            ["cost-model", "cost-model"])

    def test_cost_rate_in_profile_passes(self):
        self.assert_rules(
            {"src/engine/profile.cc":
             "return rows * static_cast<double>(m.col_join_row_ns);\n",
             "src/engine/profile.h": "int64_t row_analytic_scan_row_ns;\n"},
            [])

    def test_cost_rate_outside_src_passes(self):
        # Benches and tests may set the rates on a profile.
        self.assert_rules(
            {"bench/fig.cc": "p.latency.col_join_build_row_ns = 0;\n"}, [])

    # ---- scalar-semantics ----

    def test_checked_arith_in_executor_fails(self):
        self.assert_rules(
            {"src/exec/vexpr.cc":
             "res = CheckedAdd(x, y);\n"
             "out.dbls[i] = std::fmod(x, y);\n",
             "src/sql/executor.cc":
             "if (auto r = CheckedNeg(v.AsInt())) return Value::Int(*r);\n"},
            ["scalar-semantics", "scalar-semantics", "scalar-semantics"])

    def test_checked_arith_in_scalar_ops_passes(self):
        self.assert_rules(
            {"src/sql/scalar_ops.h": "return CheckedMod(x, y);\n"
                                     "return std::fmod(x, y);\n",
             "src/common/checked_arith.h":
             "inline std::optional<int64_t> CheckedMul(int64_t x, "
             "int64_t y) {\n",
             "src/sql/bound_plan.h": "if (auto r = CheckedAdd(isum, x)) {\n"},
            [])

    def test_checked_arith_outside_src_passes(self):
        # Tests may compute expected values with the helpers.
        self.assert_rules(
            {"tests/exec_test.cc": "auto r = CheckedSub(a, b);\n"}, [])

    # ---- scan-driver ----

    def test_scan_pin_outside_driver_fails(self):
        self.assert_rules(
            {"src/exec/hash_join.cc":
             "storage::ColumnTable::ScanPin pin(table);\n",
             "src/engine/session.cc":
             "auto p = std::make_unique<ColumnTable::ScanPin>(*t);\n"},
            ["scan-driver", "scan-driver"])

    def test_scan_pin_in_driver_and_store_passes(self):
        self.assert_rules(
            {"src/exec/vectorized.cc":
             "  storage::ColumnTable::ScanPin pin_;\n"
             "    storage::ColumnTable::ScanPin pin(*tables[side.step]);\n",
             "src/storage/column_store.cc":
             "ColumnTable::ScanPin::ScanPin(const ColumnTable& table)\n",
             "src/storage/column_store.h":
             "    explicit ScanPin(const ColumnTable& table);\n",
             # References, pointers and comments construct nothing.
             "src/exec/vexpr.cc":
             "void Read(const storage::ColumnTable::ScanPin& pin);\n"
             "// one ScanPin per table, taken by MorselScan\n"},
            [])

    def test_scan_pin_outside_src_passes(self):
        # Tests may pin a table to inspect its chunks.
        self.assert_rules(
            {"tests/storage_test.cc": "    ColumnTable::ScanPin pin(t);\n"},
            [])

    # ---- row-sweep ----

    ROW_SWEEP_DRIVER = (
        "namespace olxp::storage {\n"
        "template <typename Visit>\n"
        "int64_t MvccTable::Sweep(const Row* lo, const Row* hi, uint64_t ts,\n"
        "                         Visit&& visit) const {\n"
        "  for (;;) {\n"
        "    { sync::MutexLock gate(gate_); }\n"
        "    sync::ReaderLock lk(mu_);\n"
        "    // at most kScanChunkRows entries per latch hold\n"
        "    for (size_t n = 0; it != rows_.end() && n < kScanChunkRows;\n"
        "         ++it, ++n) {\n"
        "    }\n"
        "  }\n"
        "}\n"
        "\n"
        "int64_t MvccTable::Scan(uint64_t ts, const RowCallback& cb) const {\n"
        "  return Sweep(nullptr, nullptr, ts, cb);\n"
        "}\n"
        "}  // namespace olxp::storage\n")

    def test_row_sweep_driver_passes(self):
        self.assert_rules(
            {"src/storage/table.cc": self.ROW_SWEEP_DRIVER,
             "src/storage/table.h":
             "/// Rows a chunk visits (kScanChunkRows).\n"
             "inline constexpr size_t kScanChunkRows = 1024;\n",
             # Tests may size fixtures by the chunk.
             "tests/storage_test.cc":
             "constexpr int kRows = 12 * kScanChunkRows + 100;\n"},
            [])

    def test_second_chunk_loop_in_table_fails(self):
        copy = (
            "void MvccTable::ForEachCommitted(uint64_t ts) const {\n"
            "  for (;;) {\n"
            "    sync::ReaderLock lk(mu_);\n"
            "    for (size_t n = 0; n < kScanChunkRows; ++n) {\n"
            "    }\n"
            "  }\n"
            "}\n")
        src = self.ROW_SWEEP_DRIVER.replace(
            "}  // namespace olxp::storage\n",
            copy + "}  // namespace olxp::storage\n")
        self.assert_rules({"src/storage/table.cc": src}, ["row-sweep"])

    def test_chunk_bound_elsewhere_in_src_fails(self):
        self.assert_rules(
            {"src/storage/table.cc": self.ROW_SWEEP_DRIVER,
             "src/exec/vectorized.cc":
             "  const size_t chunk = storage::kScanChunkRows;\n"},
            ["row-sweep"])

    # ---- blocking-under-lock ----

    def test_fsync_under_mutex_lock_fails(self):
        src = ("void F() {\n"
               "  sync::MutexLock lk(mu_);\n"
               "  ::fsync(fd_);\n"
               "}\n")
        self.assert_rules({"src/engine/foo.cc": src},
                          ["blocking-under-lock"])

    def test_sleep_under_writer_lock_fails(self):
        src = ("void F() {\n"
               "  sync::WriterLock lk(mu_);\n"
               "  std::this_thread::sleep_for(std::chrono::seconds(1));\n"
               "}\n")
        self.assert_rules({"src/exec/foo.cc": src},
                          ["blocking-under-lock"])

    def test_fstream_under_lock_fails(self):
        src = ("void F() {\n"
               "  sync::MutexLock lk(mu_);\n"
               "  std::ifstream in(path);\n"
               "}\n")
        self.assert_rules({"src/engine/foo.cc": src},
                          ["blocking-under-lock"])

    def test_blocking_in_nested_scope_under_lock_fails(self):
        src = ("void F() {\n"
               "  sync::MutexLock lk(mu_);\n"
               "  if (dirty_) {\n"
               "    ::fdatasync(fd_);\n"
               "  }\n"
               "}\n")
        self.assert_rules({"src/engine/foo.cc": src},
                          ["blocking-under-lock"])

    def test_blocking_after_guard_scope_closes_passes(self):
        src = ("void F() {\n"
               "  {\n"
               "    sync::MutexLock lk(mu_);\n"
               "    queued_ = true;\n"
               "  }\n"
               "  ::fsync(fd_);\n"
               "}\n")
        self.assert_rules({"src/engine/foo.cc": src}, [])

    def test_blocking_in_sibling_function_passes(self):
        # A guard in one function must not taint the next function.
        src = ("void F() {\n"
               "  sync::MutexLock lk(mu_);\n"
               "}\n"
               "void G() {\n"
               "  std::this_thread::sleep_for(std::chrono::seconds(1));\n"
               "}\n")
        self.assert_rules({"src/storage/foo.cc": src}, [])

    def test_fsync_counter_identifier_passes(self):
        # Identifiers that merely contain the token are not calls.
        src = ("void F() {\n"
               "  sync::MutexLock lk(mu_);\n"
               "  fsyncs_.fetch_add(1);\n"
               "  m_fsyncs_->Add(1);\n"
               "}\n")
        self.assert_rules({"src/storage/foo.cc": src}, [])

    def test_wal_writer_is_exempt(self):
        # The group-commit leader fsyncs while holding the baton by design.
        src = ("void F() {\n"
               "  sync::MutexLock lk(mu_);\n"
               "  ::fsync(fd_);\n"
               "}\n")
        self.assert_rules({"src/storage/wal.cc": src}, [])

    def test_blocking_without_lock_passes(self):
        self.assert_rules(
            {"src/common/foo.cc": "void F() { ::fsync(fd); }\n"}, [])

    def test_blocking_under_lock_in_tests_passes(self):
        src = ("void F() {\n"
               "  sync::MutexLock lk(mu_);\n"
               "  ::fsync(fd_);\n"
               "}\n")
        self.assert_rules({"tests/foo_test.cc": src}, [])

    # ---- metrics-wiring ----

    def test_constructor_wired_subsystem_passes(self):
        src = ("Pool::Pool(obs::MetricsRegistry& metrics)\n"
               "    : m_runs_(metrics.GetCounter(\"pool.runs\")) {}\n"
               "void Pool::Run() {\n"
               "  m_runs_->Add(1);\n"
               "  if (registry_ != nullptr) registry_->Update(h_, 0);\n"
               "}\n")
        self.assert_rules({"src/exec/pool.cc": src}, [])

    def test_set_metrics_method_fails(self):
        src = ("void Pool::set_metrics(obs::MetricsRegistry* metrics) {\n"
               "  m_runs_ = metrics->GetCounter(\"pool.runs\");\n"
               "}\n")
        self.assert_rules({"src/exec/pool.cc": src}, ["metrics-wiring"])

    def test_null_guarded_metric_handle_fails(self):
        src = ("void Pool::Run() {\n"
               "  if (m_runs_ != nullptr) m_runs_->Add(1);\n"
               "  if (nullptr == m_jobs_) return;\n"
               "}\n")
        self.assert_rules({"src/exec/pool.cc": src},
                          ["metrics-wiring", "metrics-wiring"])

    # ---- --json output ----

    def test_json_output_is_machine_readable(self):
        import io
        import json as json_mod
        import contextlib
        import tempfile as tf
        with tf.TemporaryDirectory() as td:
            root = pathlib.Path(td)
            (root / "src").mkdir()
            (root / "src" / "a.cc").write_text("// TODO fix\n")
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = lint_engine.main(["--root", td, "--json"])
            self.assertEqual(rc, 1)
            findings = json_mod.loads(buf.getvalue())
            self.assertEqual(len(findings), 1)
            self.assertEqual(findings[0]["path"], "src/a.cc")
            self.assertEqual(findings[0]["line"], 1)
            self.assertEqual(findings[0]["rule"], "todo-tag")
            self.assertIn("message", findings[0])

    def test_json_output_empty_when_clean(self):
        import io
        import json as json_mod
        import contextlib
        import tempfile as tf
        with tf.TemporaryDirectory() as td:
            root = pathlib.Path(td)
            (root / "src").mkdir()
            (root / "src" / "a.cc").write_text("int x = 0;\n")
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = lint_engine.main(["--root", td, "--json"])
            self.assertEqual(rc, 0)
            self.assertEqual(json_mod.loads(buf.getvalue()), [])

    # ---- end-to-end on the real repo ----

    def test_real_repo_is_clean(self):
        rc = lint_engine.main(["--root", str(REPO_ROOT)])
        self.assertEqual(rc, 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
