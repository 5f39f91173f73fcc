#ifndef TCOB_SIM_HARNESS_H_
#define TCOB_SIM_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/model.h"
#include "sim/workload.h"

namespace tcob::sim {

struct RunOptions {
  /// Defect deliberately planted in the reference model (shrinker demos
  /// and CI self-tests: the harness must catch it).
  ModelBug bug = ModelBug::kNone;
  /// Run only one instance (kSeparated, parallelism 1) instead of the
  /// full 3-strategy x {1,4}-parallelism matrix. The shrinker uses this:
  /// re-running a candidate trace needs the failure, not the matrix.
  bool single_instance = false;
  /// Cross-check QueryStats invariants after every query.
  bool check_metrics = true;
  /// Re-run every compared query through the streaming cursor API and
  /// require the drained rows to match the materialized result exactly
  /// (rotating batch sizes; occasional early Close on parallel
  /// instances, where power cuts never arm).
  bool check_cursors = true;
};

struct InstanceReport {
  std::string name;        // "snapshot/p1", "integrated/p4", ...
  std::string strategy;
  uint64_t parallelism = 1;
  uint64_t acked_dml = 0;  // logical ops logged (== applied_op_seq)
  uint64_t cuts_fired = 0;
  uint64_t skipped_ops = 0;
  /// Auto-commit DML the model rejected and the database rejected too;
  /// never logged, so not part of acked_dml.
  uint64_t rejected_dml = 0;
  uint64_t queries_run = 0;
  uint64_t queries_compared = 0;
  /// Queries that ran with a deadline or a cancel-from-a-second-thread
  /// armed. Their outcome is wall-clock racy (complete vs. abort), so
  /// they are never result-compared — the oracle only requires a legal
  /// status class. The *count* is a pure function of the seed.
  uint64_t queries_governed = 0;
  /// Explicit-transaction traffic: begins, commits that stuck, aborts
  /// (explicit ones plus slots discarded by a reopen or power cut), and
  /// commits that lost first-committer-wins validation with TxnConflict.
  /// All are predicted by the harness, so every count is a pure function
  /// of the seed (per instance: cut schedules differ across instances).
  uint64_t txns_begun = 0;
  uint64_t txns_committed = 0;
  uint64_t txns_aborted = 0;
  uint64_t txns_conflicted = 0;
  /// End-of-run serializability probes: per-molecule HISTORY queries
  /// compared against a fresh model rebuilt by replaying the committed
  /// transactions in commit order.
  uint64_t serial_checks = 0;
  /// kKeepAllTearLast can leave a detectably corrupt image; such an
  /// instance is retired (correct behaviour, not a divergence).
  bool retired = false;
  /// Fnv1a64 of Database::Dump() at end of run (0 once retired).
  uint64_t dump_hash = 0;
};

struct RunResult {
  bool ok = true;
  /// First divergence, rendered for humans; empty when ok.
  std::string divergence;
  /// Index into the workload's op stream where the divergence surfaced.
  size_t failing_op = static_cast<size_t>(-1);
  std::string failing_instance;
  std::vector<InstanceReport> instances;
  /// Deterministic run summary (bench-style JSON): contains only fields
  /// that are functions of the seed, never wall-clock or I/O-schedule
  /// dependent counters — two runs of the same seed must produce
  /// byte-identical summaries.
  std::string summary_json;
  /// Flight-recorder dump (Perfetto JSON) of the failing instance,
  /// captured at the moment of divergence; empty when ok. The fuzzer
  /// writes it next to the shrunk trace artifact. Timestamps are wall
  /// clock, so unlike summary_json this is not byte-deterministic.
  std::string failure_trace_json;
};

/// Executes the workload against every database instance and its
/// lock-step reference model, comparing query results, error codes,
/// vacuum counts, id allocation, integrity and metrics sanity at every
/// step. Entirely in-memory (FaultInjectingIoEnv); no host-filesystem
/// state. Stops at the first divergence.
RunResult RunWorkload(const SimWorkload& w, const RunOptions& options);

/// GenerateWorkload + RunWorkload.
RunResult RunSeed(uint64_t seed, const GenOptions& gen,
                  const RunOptions& options);

}  // namespace tcob::sim

#endif  // TCOB_SIM_HARNESS_H_
