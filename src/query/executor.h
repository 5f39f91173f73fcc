#ifndef TCOB_QUERY_EXECUTOR_H_
#define TCOB_QUERY_EXECUTOR_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "common/trace_ring.h"
#include "index/attr_index.h"
#include "mad/materializer.h"
#include "query/ast.h"
#include "query/planner.h"
#include "query/query_stats.h"
#include "query/result_set.h"

namespace tcob {

/// Destination of streamed result rows. The executor produces rows one
/// at a time into a sink: the aggregate and sort stages of the pipeline
/// are sinks themselves, Execute collects the rows into a ResultSet, and
/// the cursor path hands them to a bounded queue.
class RowSink {
 public:
  virtual ~RowSink() = default;
  /// Accepts one row. Returning false stops the query cleanly (the
  /// consumer has seen enough — a closed cursor); it is not an error.
  virtual Result<bool> Push(std::vector<Value> row) = 0;
};

/// Everything about a SELECT that is resolvable before the first row:
/// the molecule type, temporal window, root access path, and the result
/// column shape. Computed once by SelectExecutor::Plan so a streaming
/// caller can expose the columns while the rows are still being made.
struct SelectPlan {
  MoleculeTypeDef resolved;
  /// Root access (as-of statements only; windowed modes always scan).
  RootAccessPath path;
  /// The effective query window (windowed modes; validated non-empty).
  Interval window;
  bool select_all = false;
  bool aggregate = false;
  bool windowed = false;
  /// Effective projection: the explicit list, or the distinct attributes
  /// referenced by aggregates (their hidden projection).
  std::vector<AttrRef> projection;
  /// Columns of the final result: ROOT (GROUP BY ROOT) and one per
  /// aggregate for an aggregate query, the projected row shape otherwise.
  std::vector<std::string> columns;
  /// Index into `columns` of the ORDER BY key (when there is one).
  size_t order_column = 0;
  /// ResultSet message (the index-path note, when one is used).
  std::string message;
};

/// Executes SELECT statements against the molecule engine.
///
/// Row shapes:
///  * `SELECT ALL`: one row per atom of each qualifying molecule —
///    columns ROOT, ATOM, TYPE, ATTRS (+ VALID_FROM/VALID_TO of the
///    molecule state for window/history queries).
///  * projection list: one row per qualifying binding of the projected
///    atom types — columns ROOT, <Type.attr>... (+ the state interval for
///    window/history queries).
///
/// Temporal semantics:
///  * `VALID AT t` materializes each molecule as of t,
///  * `VALID IN [a,b)` / `HISTORY` enumerate each molecule's maximal
///    constant states overlapping the window; the WHERE predicate is
///    evaluated per state.
///
/// Execution is one staged pipeline. The materializer operators produce
/// molecule states, EmitMolecule turns each state into rows, and the rows
/// flow through
///
///     emit -> [aggregate stage] -> [sort stage] -> the caller's RowSink
///
/// The aggregate stage (aggregates, GROUP BY ROOT) keeps one accumulator
/// per (group, aggregate) and emits its groups in ascending root order
/// once the input ends; the sort stage (ORDER BY) buffers the rows and
/// stable-sorts them on the key. Both are pipeline breakers: each holds
/// only what it must (the groups, the rows to sort) and pushes downstream
/// after the last input row. Plan + ExecuteStreaming is the one way rows
/// are made; Execute is the same pipeline collected into a ResultSet.
class SelectExecutor {
 public:
  /// `indexes` may be null (no secondary-index access paths then).
  SelectExecutor(const Catalog* catalog, const Materializer* materializer,
                 Timestamp now, const AttrIndexManager* indexes = nullptr)
      : catalog_(catalog),
        materializer_(materializer),
        now_(now),
        indexes_(indexes) {}

  /// Plan + ExecuteStreaming, collected into a ResultSet.
  Result<ResultSet> Execute(const SelectStmt& stmt) const;

  /// True when the statement has no pipeline breaker (no aggregates, no
  /// ORDER BY): its first row leaves the pipeline before the last input
  /// row is made.
  static bool CanStream(const SelectStmt& stmt) {
    return stmt.aggregates.empty() && stmt.order_by.empty();
  }

  /// Resolves types, plans root access and fixes the final column shape
  /// (checking the ORDER BY key against it) — everything that can fail or
  /// be reported before rows flow.
  Result<SelectPlan> Plan(const SelectStmt& stmt) const;

  /// Streams the statement's result rows into `sink`, in exactly the
  /// order Execute returns them. A sink that returns false stops
  /// execution early with OK status.
  Status ExecuteStreaming(const SelectStmt& stmt, const SelectPlan& plan,
                          RowSink* sink) const;

  /// EXPLAIN: reports the access path and temporal mode without
  /// executing.
  Result<ResultSet> Explain(const SelectStmt& stmt) const;

  /// Attaches a trace that execution fills with per-operator timings and
  /// work counters (EXPLAIN ANALYZE). The trace's cache stats report the
  /// materializer's accumulated numbers, so callers wanting per-query
  /// attribution pass a freshly constructed (or reset) materializer.
  /// Null (the default) disables tracing; the fast path then pays only a
  /// pointer test per span. A streaming execution writes the trace from
  /// the producing thread; readers must synchronize with its completion.
  void set_trace(QueryStats* trace) { trace_ = trace; }

  /// Attaches the query's cancellation scope: the row pipeline checks it
  /// per emitted molecule/state and unwinds with its status. Null (the
  /// default) disables the checks. The materializer has its own
  /// governance hook (set separately) for the loops below this layer.
  void set_context(const QueryContext* ctx) { ctx_ = ctx; }

  /// Attaches the flight recorder: execution wraps its operator phases
  /// (plan, execute, aggregate, sort, stream) in trace spans. Null (the
  /// default) records nothing.
  void set_recorder(TraceRecorder* rec) { rec_ = rec; }

 private:
  /// Drives the materializer operators and emits rows into `sink` (the
  /// head of the stage chain). Fills the trace's materialize/emit spans
  /// and work counters.
  Status Run(const SelectStmt& stmt, const SelectPlan& plan,
             RowSink* sink) const;

  /// Emits the rows of one molecule state into `sink`; false = the sink
  /// has stopped the query.
  Result<bool> EmitMolecule(const SelectStmt& stmt, const SelectPlan& plan,
                            const Molecule& molecule,
                            const Interval* state_valid, RowSink* sink) const;

  /// The trace's span field `us` for a TraceSpanScope to add its wall
  /// time to; null when untraced.
  double* SpanUs(double QueryStats::*us) const {
    return trace_ != nullptr ? &(trace_->*us) : nullptr;
  }

  /// Renders "name=value, ..." for an atom's attributes.
  Result<std::string> RenderAttrs(const AtomVersion& v) const;

  /// Resolves the named molecule type, or builds the ad-hoc definition
  /// of a "FROM <Root> VIA ..." clause (validating connectedness).
  Result<MoleculeTypeDef> ResolveMoleculeType(const SelectStmt& stmt) const;

  const Catalog* catalog_;
  const Materializer* materializer_;
  Timestamp now_;
  const AttrIndexManager* indexes_;
  QueryStats* trace_ = nullptr;
  const QueryContext* ctx_ = nullptr;
  TraceRecorder* rec_ = nullptr;
};

}  // namespace tcob

#endif  // TCOB_QUERY_EXECUTOR_H_
