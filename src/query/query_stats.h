#ifndef TCOB_QUERY_QUERY_STATS_H_
#define TCOB_QUERY_QUERY_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mad/version_cache.h"
#include "query/result_set.h"
#include "storage/buffer_pool.h"
#include "tstore/temporal_store.h"

namespace tcob {

/// The execution trace of one SELECT: per-operator wall time plus the
/// storage work it caused, counted in the query's own QueryWork block by
/// every thread working for it. Filled by the Database around a traced
/// execution and rendered by EXPLAIN ANALYZE.
///
/// Span model (nested, all wall-clock microseconds):
///   total_us
///   ├── parse_us        lexing + parsing the statement text
///   └── execute_us      the executor pipeline
///       ├── plan_us         type resolution, root access planning, the
///       │                   result shape
///       ├── materialize_us  molecule/history construction (store side)
///       ├── emit_us         row production from materialized states,
///       │                   including the per-row work of the aggregate
///       │                   stage (accumulate) and sort stage (buffer)
///       ├── aggregate_us    aggregate stage finish: folding and emitting
///       │                   the groups
///       └── sort_us         sort stage finish: the sort and pushing the
///                           sorted rows on
/// first_row_us is a marker inside total_us: statement start to the
/// first row reaching the consumer.
struct QueryStats {
  std::string statement;      // original MQL text (empty for AST entry)
  std::string plan;           // root access path description
  std::string temporal_mode;  // "as-of" | "window" | "history"
  std::string strategy;       // storage strategy name
  uint64_t parallelism = 1;   // fan-out workers used (1 = serial)
  /// How the query ended: "ok" | "cancelled" | "deadline-exceeded" |
  /// "error".
  std::string disposition = "ok";

  double parse_us = 0;
  double plan_us = 0;
  double materialize_us = 0;
  double emit_us = 0;
  double aggregate_us = 0;
  double sort_us = 0;
  double execute_us = 0;
  double total_us = 0;
  /// Statement start to first row available to the consumer. Flat in
  /// the result size unless a pipeline breaker (aggregate, ORDER BY)
  /// must see every input row first.
  double first_row_us = 0;

  uint64_t molecules = 0;      // molecules materialized (as-of) or swept
  uint64_t states = 0;         // constant states visited (windowed modes)
  uint64_t rows = 0;           // result rows produced
  uint64_t atoms_visited = 0;  // atom instances across all emitted states
  uint64_t rows_streamed = 0;  // rows handed to the consumer
  /// High-water mark of rows buffered: the larger of the cursor queue's
  /// peak and the rows a pipeline stage held (an aggregate's groups, the
  /// ORDER BY input).
  uint64_t peak_buffered_rows = 0;

  /// Store round-trips this query caused.
  StoreAccessStats store;
  /// Cold-tier work this query caused (all zero when tiering is off).
  ColdTierAccessStats tiering;
  /// Version-cache behavior of this query's caches (exact, query-scoped).
  VersionCacheStats cache;
  /// Page traffic this query caused.
  BufferPoolStats pool;
  /// Wall time each fan-out worker spent materializing (empty = serial).
  std::vector<double> worker_us;

  /// Peak bytes this query had charged against the memory budget at any
  /// one time (version-cache pins + buffered cursor batches).
  uint64_t peak_memory_bytes = 0;
  /// Bytes the global budget refused this query (0 = never over cap).
  uint64_t memory_overflow_bytes = 0;
  /// Wall time spent waiting at the admission gate before execution.
  double admission_wait_us = 0;

  uint64_t versions_scanned() const { return cache.versions_pinned; }

  /// Renders the trace as SECTION / METRIC / VALUE rows (the shape
  /// EXPLAIN ANALYZE returns).
  ResultSet ToResultSet() const;
};

}  // namespace tcob

#endif  // TCOB_QUERY_QUERY_STATS_H_
