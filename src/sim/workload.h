#ifndef TCOB_SIM_WORKLOAD_H_
#define TCOB_SIM_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "query/ast.h"
#include "record/value.h"
#include "storage/fault_env.h"
#include "time/interval.h"

namespace tcob::sim {

// ---- random schema ----------------------------------------------------
//
// The simulation schema mirrors the catalog's DDL surface but refers to
// everything by position (index into the vectors below) so ops stay
// valid under delta-debugging: a shrunk op stream never dangles a name.

struct SimAttrDef {
  std::string name;
  AttrType type = AttrType::kInt;
};

struct SimAtomTypeDef {
  std::string name;
  std::vector<SimAttrDef> attrs;
};

struct SimLinkTypeDef {
  std::string name;
  uint32_t from_pos = 0;  // index into SimSchema::atom_types
  uint32_t to_pos = 0;
};

struct SimMoleculeTypeDef {
  std::string name;
  uint32_t root_pos = 0;
  /// (link_pos, forward) — connected by construction, cycles allowed.
  std::vector<std::pair<uint32_t, bool>> edges;
};

struct SimIndexDef {
  std::string name;
  uint32_t type_pos = 0;
  uint32_t attr_pos = 0;
};

struct SimSchema {
  std::vector<SimAtomTypeDef> atom_types;
  std::vector<SimLinkTypeDef> link_types;
  std::vector<SimMoleculeTypeDef> molecule_types;
  std::vector<SimIndexDef> indexes;

  /// Atom-type positions reachable by a molecule type (root + closure
  /// over its edge list).
  std::vector<uint32_t> InvolvedTypes(uint32_t mol_pos) const;
};

// ---- ops --------------------------------------------------------------

enum class SimOpKind {
  kInsert,
  kUpdate,
  kBadUpdate,  // intentionally invalid update: error-path probe
  kDelete,
  kConnect,
  kDisconnect,
  kCheckpoint,
  kReopen,
  kPowerCut,
  kVacuum,
  kTierMigrate,  // cold-history migration (logically invisible)
  kVerify,
  kQuery,
  /// Explicit transaction control over one of a small set of slots
  /// (`txn_slot`). DML ops carrying txn_slot >= 0 are buffered into
  /// that slot's open transaction instead of auto-committing; kTxnCommit
  /// runs first-committer-wins validation and group-commits the buffer.
  kTxnBegin,
  kTxnCommit,
  kTxnAbort,
};

enum class SimQueryKind {
  kAllAsOf,
  kAllWindow,
  kAllHistory,
  kCountAsOf,   // COUNT(*), optionally GROUP BY ROOT
  kProjAsOf,
  kProjWindow,
  kAggAsOf,     // SUM/MIN/MAX/AVG over `proj`, optionally GROUP BY ROOT
};

/// One step of a simulation: a flattened union over all op kinds (the
/// unused fields of a kind are ignored). Flat beats std::variant here
/// because the shrinker clones and rewrites traces wholesale.
struct SimOp {
  SimOpKind kind = SimOpKind::kInsert;

  /// Transaction slot: the slot a kTxnBegin/kTxnCommit/kTxnAbort targets,
  /// or — on a DML op — the open slot whose transaction buffers the op.
  /// -1 = auto-commit (the default). The harness treats a slotted DML op
  /// whose slot is not open (a cut or reopen discarded it) as
  /// auto-commit, so shrunk traces never dangle.
  int txn_slot = -1;

  // DML (insert / update / bad-update / delete)
  uint32_t type_pos = 0;
  AtomId atom = 0;  // insert: the id the op will allocate; others: target
  /// (attr_pos, value) assignments; insert leaves unlisted attrs NULL,
  /// update carries them over.
  std::vector<std::pair<uint32_t, Value>> set;

  // connect / disconnect
  uint32_t link_pos = 0;
  AtomId from = 0;
  AtomId to = 0;

  /// DML valid-from, vacuum cutoff (strictly increasing across the
  /// stream for DML, so interval constraints reduce to liveness).
  Timestamp at = 0;

  // power cut
  uint64_t cut_after_events = 0;  // relative to the env's current count
  CutMode cut_mode = CutMode::kDropUnsynced;

  // query
  SimQueryKind qkind = SimQueryKind::kAllAsOf;
  uint32_t mol_pos = 0;
  Timestamp q_at = 0;
  Interval q_window;
  bool group_by_root = false;
  bool has_where = false;
  uint32_t where_type_pos = 0;
  uint32_t where_attr_pos = 0;
  BinaryOp where_op = BinaryOp::kEq;
  int64_t where_lit = 0;
  /// Projection refs as (type_pos, attr_pos); for kAggAsOf, the
  /// aggregated attribute of each entry of `aggs`.
  std::vector<std::pair<uint32_t, uint32_t>> proj;
  /// kAggAsOf: one aggregate function per `proj` entry.
  std::vector<AggFn> aggs;
  /// Projection kinds: ORDER BY proj[order_by] (-1 = no ORDER BY).
  int order_by = -1;
  bool order_desc = false;

  // query governance (kQuery only; all off by default)
  /// Arm this deadline (microseconds) on the query. The harness treats a
  /// DeadlineExceeded result as legal and skips result comparison — a
  /// wall-clock race is not a divergence.
  uint64_t deadline_micros = 0;
  /// Cancel the query's cursor from a second thread mid-drain.
  bool cancel = false;
  /// Arm this many transient read failures (injected EIO the retry
  /// policy absorbs) just before the query runs.
  uint32_t transient_read_failures = 0;
};

struct SimWorkload {
  uint64_t seed = 0;
  SimSchema schema;
  /// Cold-history tiering configuration of the instance under test
  /// (seed-derived knobs; `tiering_enabled` mirrors the GenOptions gate).
  /// The oracle never sees it — tiering must be logically invisible.
  bool tiering_enabled = false;
  Timestamp tiering_cold_age = 16;
  uint64_t tiering_segment_bytes = 2048;
  /// Mirrors GenOptions::enable_transient_io: instances under a workload
  /// with this set open with a read-retry policy armed.
  bool transient_io_enabled = false;
  std::vector<SimOp> ops;
};

/// Atom ids at or above this are "never existed" by construction: a sim
/// stream cannot allocate this many atoms, so the generator, harness
/// and shrinker use the range for deliberately-dangling references.
inline constexpr AtomId kSimDanglingBase = 1ull << 40;

struct GenOptions {
  size_t num_ops = 300;
  bool enable_cuts = true;
  bool enable_vacuum = true;
  bool enable_tiering = true;
  /// Governed queries: random deadlines on ~1 in 8 queries, a
  /// cancel-from-a-second-thread on ~1 in 12.
  bool enable_cancel = true;
  /// Transient-EIO disk mode: some queries run with a couple of injected
  /// transient read failures that the instances' retry policy absorbs.
  bool enable_transient_io = true;
  /// Interleaved explicit transactions: ops scattered across 2-4
  /// concurrent snapshot-isolation transactions with begin/commit/abort
  /// control ops in the stream. Disabling strips the slot assignments
  /// and turns the control ops into kVerify — the DML/query stream is
  /// otherwise bit-identical (ablation: `fuzz_sim --no_txns`).
  bool enable_txns = true;
};

/// Deterministically expands one 64-bit seed into a schema + op stream.
SimWorkload GenerateWorkload(uint64_t seed, const GenOptions& options);

/// Human-readable one-line rendering (failure traces, artifacts).
std::string OpToString(const SimSchema& schema, const SimOp& op);

/// Renders the whole workload (schema + ops) for a failing-seed artifact.
std::string WorkloadToString(const SimWorkload& w);

/// "Type.attr" of a (type_pos, attr_pos) projection ref — the column
/// name the executor gives it.
std::string ProjRefName(const SimSchema& schema,
                        const std::pair<uint32_t, uint32_t>& ref);

/// The MQL text a kQuery op executes.
std::string QueryToMql(const SimSchema& schema, const SimOp& op);

/// Rewrites atom ids so that the i-th kInsert in the stream carries the
/// id the model will actually allocate for it (i.e. insertion order),
/// and references follow. References to inserts no longer present are
/// moved far above the allocatable range so they stay "never existed"
/// instead of aliasing a surviving atom. Called by the shrinker after
/// every chunk removal; a full stream is already canonical.
void CanonicalizeAtomIds(std::vector<SimOp>* ops);

}  // namespace tcob::sim

#endif  // TCOB_SIM_WORKLOAD_H_
