#ifndef TCOB_SIM_MODEL_H_
#define TCOB_SIM_MODEL_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/result.h"
#include "query/result_set.h"
#include "sim/workload.h"

namespace tcob::sim {

/// Deliberately plantable model defects (shrinker demos, CI self-tests).
enum class ModelBug {
  kNone = 0,
  /// DeleteAtom validates but never closes the version: the first query
  /// that looks past a delete diverges from the real database.
  kIgnoreDeletes = 1,
};

/// One valid-time version of a model atom.
struct ModelVersion {
  Interval valid;
  std::vector<Value> attrs;  // schema order, NULL-padded
};

struct ModelAtom {
  uint32_t type_pos = 0;
  /// Ascending, non-overlapping; the last may be open-ended.
  std::vector<ModelVersion> versions;
};

/// The trivially-correct in-memory reference: plain sorted maps of
/// timestamped atom versions and link intervals, molecule BFS by
/// definition, query evaluation by brute-force time segmentation.
///
/// Every mutation mirrors the Database's *logical* contract exactly
/// (same validity rules, same id allocation, same vacuum predicate).
/// The harness only applies a mutation after the database acknowledged
/// it, so model and instance advance in lock-step even across power
/// cuts (see harness.cc's reconcile path).
class SimModel {
 public:
  SimModel(const SimSchema* schema, ModelBug bug)
      : schema_(schema), bug_(bug) {}

  // ---- mutations (call only after the database acked the op) ----------

  /// Allocates the next id (matching the catalog's watermark behaviour)
  /// and records version [from, forever).
  AtomId InsertAtom(uint32_t type_pos,
                    const std::vector<std::pair<uint32_t, Value>>& set,
                    Timestamp from);

  /// Records version [from, forever) under a caller-chosen id and
  /// advances the watermark past it. Explicit transactions allocate
  /// their atom ids at buffering time (and burn them on abort or
  /// conflict), so the harness mirrors the database's actual surrogate
  /// instead of predicting it.
  void InsertAtomWithId(AtomId id, uint32_t type_pos,
                        const std::vector<std::pair<uint32_t, Value>>& set,
                        Timestamp from);

  /// Would UpdateAtom succeed? False predicts an error: NotFound when
  /// the typed store holds no versions at all for the id (never
  /// inserted, fully vacuumed, or stored under another type) and
  /// InvalidArgument ("atom N is not live") when versions exist but none
  /// is current. The harness accepts either code — which one fires
  /// depends on physical state the model deliberately does not track.
  bool CanUpdate(uint32_t type_pos, AtomId id, Timestamp from) const;
  void UpdateAtom(uint32_t type_pos, AtomId id,
                  const std::vector<std::pair<uint32_t, Value>>& set,
                  Timestamp from);

  bool CanDelete(uint32_t type_pos, AtomId id, Timestamp from) const;
  void DeleteAtom(uint32_t type_pos, AtomId id, Timestamp from);

  /// Link ops mirror LinkStore: timestamps are strictly increasing in a
  /// sim stream, so connect is valid iff the pair has no open interval
  /// and disconnect iff it has one.
  bool CanConnect(uint32_t link_pos, AtomId from, AtomId to) const;
  void Connect(uint32_t link_pos, AtomId from, AtomId to, Timestamp at);
  bool CanDisconnect(uint32_t link_pos, AtomId from, AtomId to) const;
  void Disconnect(uint32_t link_pos, AtomId from, AtomId to, Timestamp at);

  /// Removes atom versions and link intervals with end <= cutoff (the
  /// stores' shared predicate); returns the removed atom-version count
  /// (the number Database::VacuumBefore reports).
  uint64_t VacuumBefore(Timestamp cutoff);

  /// A vacuum the database started but a power cut interrupted: it may
  /// or may not have committed. Comparisons at instants/segments ending
  /// at or before `cutoff` are masked from then on (both outcomes agree
  /// above it).
  void NoteUncertainVacuum(Timestamp cutoff);

  // ---- query oracle ---------------------------------------------------

  struct QueryExpectation {
    /// The statement must fail (empty window -> InvalidArgument; a link
    /// reaching an atom with zero stored versions -> NotFound).
    bool expect_error = false;
    /// Which error: NotFound (dangling link) vs InvalidArgument.
    bool error_is_not_found = false;
    /// As-of instant below the uncertain-vacuum horizon: execute the
    /// query but do not compare results.
    bool skip_compare = false;
    std::vector<std::string> columns;
    /// Canonical segment rows (see CanonicalizeDb for the encoding).
    std::multiset<std::string> rows;
  };
  QueryExpectation ExpectedRows(const SimOp& q) const;

  /// Maps a database ResultSet onto the model's canonical row encoding:
  /// windowed rows are split at the model's changepoints and segments
  /// ending at or before the horizon are dropped, making the comparison
  /// insensitive to state coalescing and to uncertain vacuums.
  Result<std::multiset<std::string>> CanonicalizeDb(
      const SimOp& q, const ResultSet& rs) const;

  // ---- generator / harness introspection ------------------------------

  AtomId next_id() const { return next_id_; }
  const std::map<AtomId, ModelAtom>& atoms() const { return atoms_; }
  std::vector<AtomId> AtomsOfType(uint32_t type_pos) const;
  /// Alive "now" = last version open-ended.
  bool AliveNow(AtomId id) const;
  std::vector<std::pair<AtomId, AtomId>> OpenLinks(uint32_t link_pos) const;
  Timestamp horizon() const { return horizon_; }

  /// Canonical rendering of the full logical state (every atom version,
  /// every link interval, the uncertain-vacuum horizon). The
  /// serializability check replays the committed-transaction journal in
  /// commit order into a fresh model and requires its digest to equal
  /// the lock-step model's — any drift in the harness's commit-order
  /// bookkeeping or the all-or-nothing crash reconciliation shows up as
  /// a byte difference here.
  std::string StateDigest() const;

 private:
  using LinkKey = std::tuple<uint32_t, AtomId, AtomId>;

  const ModelVersion* VersionAt(AtomId id, Timestamp t) const;
  bool AliveAt(AtomId id, Timestamp t) const;

  /// BFS fixpoint from `root` at instant `t` over the molecule's edge
  /// list; mirrors Materializer::MaterializeAsOfImpl. Dead partners are
  /// skipped (the store answers ok-but-empty), but a partner with zero
  /// versions in the target type's store is a NotFound *error* the
  /// materializer propagates — `missing` is set when a link reaches one.
  /// `uncertain` is set when a reached partner is dead and every version
  /// ends at or below the uncertain-vacuum horizon: an interrupted
  /// vacuum may have removed the atom entirely, so the database may
  /// either skip it or fail with NotFound.
  std::map<AtomId, const ModelVersion*> Materialize(uint32_t mol_pos,
                                                    AtomId root, Timestamp t,
                                                    bool* missing,
                                                    bool* uncertain) const;

  /// All interval boundaries inside (window.begin, window.end), with
  /// window.begin prepended: the instants where any molecule state can
  /// change. Segment i spans [b[i], b[i+1]) (last: window.end).
  std::vector<Timestamp> Boundaries(const Interval& window) const;

  bool EvalWhere(const SimOp& q,
                 const std::map<AtomId, const ModelVersion*>& atoms) const;
  bool WherePredicate(const SimOp& q, const ModelVersion& v) const;

  /// Appends the rows of one molecule state (segment == nullptr for
  /// as-of shape) to `out`, following EmitMolecule's row shapes and
  /// fingerprint dedup exactly.
  void EmitRows(const SimOp& q, AtomId root,
                const std::map<AtomId, const ModelVersion*>& atoms,
                const Interval* segment,
                std::multiset<std::string>* out) const;

  /// The projected values of each qualifying binding of `proj` (plus the
  /// predicate's type) over one molecule state, deduped by the projected
  /// atoms' ids: EmitMolecule's projection rows without ROOT/state
  /// columns.
  std::vector<std::vector<Value>> ProjectBindings(
      const SimOp& q, const std::vector<std::pair<uint32_t, uint32_t>>& proj,
      const std::map<AtomId, const ModelVersion*>& atoms) const;

  /// kAggAsOf: the distinct aggregated attributes in first-use order (the
  /// executor's hidden projection).
  static std::vector<std::pair<uint32_t, uint32_t>> HiddenProjection(
      const SimOp& q);

  /// kAggAsOf: folds one group's hidden-projection rows into its
  /// aggregate columns (canonical encoding), as the executor's aggregate
  /// stage does: NULLs skipped, an empty SUM/AVG/MIN/MAX is NULL.
  std::string FoldAggregates(const SimOp& q,
                             const std::vector<std::vector<Value>>& rows) const;

  std::string RenderAttrs(uint32_t type_pos,
                          const std::vector<Value>& attrs) const;

  const SimSchema* schema_;
  ModelBug bug_;
  AtomId next_id_ = 1;  // catalog watermark starts at 1
  std::map<AtomId, ModelAtom> atoms_;
  std::map<LinkKey, std::vector<Interval>> links_;
  Timestamp horizon_ = 0;  // uncertain-vacuum mask
};

}  // namespace tcob::sim

#endif  // TCOB_SIM_MODEL_H_
