// F22: commit throughput under concurrent writers.
//
// Commits/sec at 1, 4 and 16 writer threads, with group commit on vs.
// off, for two kinds of committer: a one-insert transaction
// (Begin/InsertAtom/Commit) and a one-insert auto-commit statement
// (Database::InsertAtom). Every commit inserts a fresh atom, so
// first-committer-wins validation never fires, against a sync_wal
// database: each commit must be durable before it returns. Both kinds
// take the same writer queue. With group commit off every commit pays
// its own fsync; with it on, the front committer leads every committer
// queued behind it through one fsync, so throughput can scale with
// writers instead of flatlining at the fsync rate.
//
// Reported counters: wal_fsyncs (cumulative completed fsyncs of the
// configuration's database), group_size_mean (mean of its
// tcob_wal_group_commit_size histogram; 0 with group commit off, where
// nothing is recorded) and fsyncs_per_commit (this run's fsyncs over
// its commits).

#include <benchmark/benchmark.h>

#include <mutex>

#include "bench_common.h"
#include "db/transaction.h"

namespace tcob {
namespace bench {
namespace {

struct TxnBenchDb {
  std::unique_ptr<TempDir> dir;
  std::unique_ptr<Database> db;
};

/// One database per (group commit, committer kind), shared by all
/// writer threads and reused across thread counts (commits only insert,
/// so the workload never depends on prior state).
TxnBenchDb* GetTxnDb(bool group_commit, bool statement) {
  static std::mutex mu;
  static TxnBenchDb* dbs[4] = {nullptr, nullptr, nullptr, nullptr};
  std::lock_guard<std::mutex> lock(mu);
  TxnBenchDb*& slot = dbs[(group_commit ? 2 : 0) + (statement ? 1 : 0)];
  if (slot == nullptr) {
    slot = new TxnBenchDb();
    slot->dir = std::make_unique<TempDir>();
    DatabaseOptions options;
    options.strategy = StorageStrategy::kSeparated;
    options.sync_wal = true;  // a commit ack must mean durable
    options.group_commit = group_commit;
    auto db = Database::Open(slot->dir->path() + "/db", options);
    BenchCheck(db.status(), "open txn database");
    slot->db = std::move(db.value());
    BenchCheck(
        slot->db->CreateAtomType("Item", {{"v", AttrType::kInt}}).status(),
        "create Item");
  }
  return slot;
}

void BM_CommitThroughput(benchmark::State& state) {
  const bool group_commit = state.range(0) != 0;
  const bool statement = state.range(1) != 0;
  Database* db = GetTxnDb(group_commit, statement)->db.get();
  // Every thread waits at the loop's start barrier, so nothing of this
  // run has committed yet.
  const uint64_t syncs_before = db->wal()->syncs();

  int64_t v = 0;
  for (auto _ : state) {
    const Value item = Value::Int(++v);
    if (statement) {
      BenchCheck(db->InsertAtom("Item", {{"v", item}}, db->Now()).status(),
                 "insert statement");
      continue;
    }
    Transaction txn = db->Begin();
    auto id = txn.InsertAtom("Item", {{"v", item}}, db->Now());
    BenchCheck(id.status(), "buffer insert");
    BenchCheck(txn.Commit(), "commit");
  }
  state.SetItemsProcessed(state.iterations());

  if (state.thread_index() == 0) {
    tcob::MetricsSnapshot snap = db->MetricsSnapshot();
    state.counters["wal_fsyncs"] = static_cast<double>(
        snap.CounterOr("tcob_wal_syncs_total", 0));
    auto it = snap.histograms.find("tcob_wal_group_commit_size");
    if (it != snap.histograms.end()) {
      state.counters["group_size_mean"] = it->second.Mean();
    }
    // The loop's end barrier has passed: every thread's commits are in.
    state.counters["fsyncs_per_commit"] =
        static_cast<double>(db->wal()->syncs() - syncs_before) /
        static_cast<double>(state.iterations() * state.threads());
    state.SetLabel(std::string(statement ? "statement" : "transaction") +
                   (group_commit ? "/group-commit" : "/per-commit-fsync"));
  }
}

BENCHMARK(BM_CommitThroughput)
    ->ArgNames({"group_commit", "statement"})
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->Threads(1)
    ->Threads(4)
    ->Threads(16)
    ->Iterations(200)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace tcob

TCOB_BENCH_MAIN();
