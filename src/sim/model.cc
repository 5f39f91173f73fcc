#include "sim/model.h"

#include <algorithm>
#include <optional>

namespace tcob::sim {

namespace {

/// Canonical row encoding: Value::ToString per column, '|'-joined.
/// Attribute strings are lowercase ASCII (the generator's alphabet), so
/// '|' can never appear inside a column.
void AppendColumn(std::string* row, const Value& v) {
  if (!row->empty()) *row += '|';
  *row += v.ToString();
}

}  // namespace

// ---- mutations --------------------------------------------------------

AtomId SimModel::InsertAtom(
    uint32_t type_pos, const std::vector<std::pair<uint32_t, Value>>& set,
    Timestamp from) {
  AtomId id = next_id_;
  InsertAtomWithId(id, type_pos, set, from);
  return id;
}

void SimModel::InsertAtomWithId(
    AtomId id, uint32_t type_pos,
    const std::vector<std::pair<uint32_t, Value>>& set, Timestamp from) {
  const SimAtomTypeDef& def = schema_->atom_types[type_pos];
  ModelAtom atom;
  atom.type_pos = type_pos;
  ModelVersion v;
  v.valid = Interval(from, kForever);
  for (const SimAttrDef& a : def.attrs) v.attrs.push_back(Value::Null(a.type));
  for (const auto& [pos, value] : set) v.attrs[pos] = value;
  atom.versions.push_back(std::move(v));
  atoms_[id] = std::move(atom);
  if (id >= next_id_) next_id_ = id + 1;
}

bool SimModel::CanUpdate(uint32_t type_pos, AtomId id, Timestamp) const {
  // Strictly-increasing sim timestamps make "valid just before `from`"
  // equivalent to "last version open-ended" (a closed version always
  // ended at an earlier op's timestamp).
  auto it = atoms_.find(id);
  return it != atoms_.end() && it->second.type_pos == type_pos &&
         !it->second.versions.empty() &&
         it->second.versions.back().valid.open_ended();
}

void SimModel::UpdateAtom(
    uint32_t type_pos, AtomId id,
    const std::vector<std::pair<uint32_t, Value>>& set, Timestamp from) {
  (void)type_pos;
  ModelAtom& atom = atoms_.at(id);
  ModelVersion next = atom.versions.back();  // carry unchanged attrs over
  atom.versions.back().valid.end = from;
  next.valid = Interval(from, kForever);
  for (const auto& [pos, value] : set) next.attrs[pos] = value;
  atom.versions.push_back(std::move(next));
}

bool SimModel::CanDelete(uint32_t type_pos, AtomId id, Timestamp from) const {
  return CanUpdate(type_pos, id, from);
}

void SimModel::DeleteAtom(uint32_t, AtomId id, Timestamp from) {
  if (bug_ == ModelBug::kIgnoreDeletes) return;  // planted defect
  atoms_.at(id).versions.back().valid.end = from;
}

bool SimModel::CanConnect(uint32_t link_pos, AtomId from, AtomId to) const {
  auto it = links_.find(LinkKey{link_pos, from, to});
  return it == links_.end() || it->second.empty() ||
         !it->second.back().open_ended();
}

void SimModel::Connect(uint32_t link_pos, AtomId from, AtomId to,
                       Timestamp at) {
  links_[LinkKey{link_pos, from, to}].push_back(Interval(at, kForever));
}

bool SimModel::CanDisconnect(uint32_t link_pos, AtomId from,
                             AtomId to) const {
  auto it = links_.find(LinkKey{link_pos, from, to});
  return it != links_.end() && !it->second.empty() &&
         it->second.back().open_ended();
}

void SimModel::Disconnect(uint32_t link_pos, AtomId from, AtomId to,
                          Timestamp at) {
  links_.at(LinkKey{link_pos, from, to}).back().end = at;
}

uint64_t SimModel::VacuumBefore(Timestamp cutoff) {
  uint64_t removed = 0;
  for (auto it = atoms_.begin(); it != atoms_.end();) {
    auto& versions = it->second.versions;
    size_t before = versions.size();
    versions.erase(std::remove_if(versions.begin(), versions.end(),
                                  [&](const ModelVersion& v) {
                                    return v.valid.end <= cutoff;
                                  }),
                   versions.end());
    removed += before - versions.size();
    it = versions.empty() ? atoms_.erase(it) : std::next(it);
  }
  for (auto it = links_.begin(); it != links_.end();) {
    auto& ivs = it->second;
    ivs.erase(std::remove_if(
                  ivs.begin(), ivs.end(),
                  [&](const Interval& iv) { return iv.end <= cutoff; }),
              ivs.end());
    it = ivs.empty() ? links_.erase(it) : std::next(it);
  }
  return removed;
}

void SimModel::NoteUncertainVacuum(Timestamp cutoff) {
  horizon_ = std::max(horizon_, cutoff);
}

// ---- introspection ----------------------------------------------------

std::vector<AtomId> SimModel::AtomsOfType(uint32_t type_pos) const {
  std::vector<AtomId> out;
  for (const auto& [id, atom] : atoms_) {
    if (atom.type_pos == type_pos) out.push_back(id);
  }
  return out;
}

bool SimModel::AliveNow(AtomId id) const {
  auto it = atoms_.find(id);
  return it != atoms_.end() && !it->second.versions.empty() &&
         it->second.versions.back().valid.open_ended();
}

std::vector<std::pair<AtomId, AtomId>> SimModel::OpenLinks(
    uint32_t link_pos) const {
  std::vector<std::pair<AtomId, AtomId>> out;
  for (const auto& [key, ivs] : links_) {
    if (std::get<0>(key) == link_pos && !ivs.empty() &&
        ivs.back().open_ended()) {
      out.emplace_back(std::get<1>(key), std::get<2>(key));
    }
  }
  return out;
}

// ---- query internals --------------------------------------------------

const ModelVersion* SimModel::VersionAt(AtomId id, Timestamp t) const {
  auto it = atoms_.find(id);
  if (it == atoms_.end()) return nullptr;
  for (const ModelVersion& v : it->second.versions) {
    if (v.valid.Contains(t)) return &v;
  }
  return nullptr;
}

bool SimModel::AliveAt(AtomId id, Timestamp t) const {
  return VersionAt(id, t) != nullptr;
}

std::map<AtomId, const ModelVersion*> SimModel::Materialize(
    uint32_t mol_pos, AtomId root, Timestamp t, bool* missing,
    bool* uncertain) const {
  const SimMoleculeTypeDef& mol = schema_->molecule_types[mol_pos];
  std::map<AtomId, const ModelVersion*> out;
  const ModelVersion* rv = VersionAt(root, t);
  if (rv == nullptr) return out;
  out[root] = rv;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [link_pos, forward] : mol.edges) {
      const SimLinkTypeDef& link = schema_->link_types[link_pos];
      uint32_t source_type = forward ? link.from_pos : link.to_pos;
      uint32_t target_type = forward ? link.to_pos : link.from_pos;
      std::vector<AtomId> sources;
      for (const auto& [id, v] : out) {
        (void)v;
        if (atoms_.at(id).type_pos == source_type) sources.push_back(id);
      }
      for (AtomId source : sources) {
        for (const auto& [key, ivs] : links_) {
          if (std::get<0>(key) != link_pos) continue;
          AtomId partner;
          if (forward) {
            if (std::get<1>(key) != source) continue;
            partner = std::get<2>(key);
          } else {
            if (std::get<2>(key) != source) continue;
            partner = std::get<1>(key);
          }
          bool connected_at_t = false;
          for (const Interval& iv : ivs) connected_at_t |= iv.Contains(t);
          if (!connected_at_t || out.count(partner)) continue;
          auto pit = atoms_.find(partner);
          if (pit == atoms_.end() || pit->second.type_pos != target_type) {
            // Zero versions in the target type's store (never inserted,
            // fully vacuumed, or stored under another type): the store
            // answers NotFound and the materializer propagates it as an
            // error rather than skipping the partner.
            if (missing != nullptr) *missing = true;
            continue;
          }
          const ModelVersion* pv = VersionAt(partner, t);
          if (pv == nullptr) {
            // Dead partner: an ok-but-empty lookup, skipped — unless an
            // interrupted vacuum may have removed every version, in
            // which case the store may answer NotFound instead.
            if (uncertain != nullptr &&
                pit->second.versions.back().valid.end <= horizon_) {
              *uncertain = true;
            }
            continue;
          }
          out[partner] = pv;
          changed = true;
        }
      }
    }
  }
  return out;
}

std::vector<Timestamp> SimModel::Boundaries(const Interval& window) const {
  std::set<Timestamp> points;
  auto add = [&](Timestamp t) {
    if (t > window.begin && t < window.end) points.insert(t);
  };
  for (const auto& [id, atom] : atoms_) {
    (void)id;
    for (const ModelVersion& v : atom.versions) {
      add(v.valid.begin);
      if (!v.valid.open_ended()) add(v.valid.end);
    }
  }
  for (const auto& [key, ivs] : links_) {
    (void)key;
    for (const Interval& iv : ivs) {
      add(iv.begin);
      if (!iv.open_ended()) add(iv.end);
    }
  }
  std::vector<Timestamp> out;
  out.push_back(window.begin);
  out.insert(out.end(), points.begin(), points.end());
  return out;
}

bool SimModel::WherePredicate(const SimOp& q, const ModelVersion& v) const {
  const Value& a = v.attrs[q.where_attr_pos];
  // Mirrors ExprEvaluator::EvalBinary's NULL rules (the literal is
  // never NULL): = is false, != is true, orderings are false.
  if (a.is_null()) return q.where_op == BinaryOp::kNe;
  int64_t x = a.AsInt();
  switch (q.where_op) {
    case BinaryOp::kEq: return x == q.where_lit;
    case BinaryOp::kNe: return x != q.where_lit;
    case BinaryOp::kLt: return x < q.where_lit;
    case BinaryOp::kLe: return x <= q.where_lit;
    case BinaryOp::kGt: return x > q.where_lit;
    case BinaryOp::kGe: return x >= q.where_lit;
    default: return false;
  }
}

bool SimModel::EvalWhere(
    const SimOp& q,
    const std::map<AtomId, const ModelVersion*>& atoms) const {
  if (!q.has_where) return true;
  // Existential over the molecule's atoms of the predicate's type.
  for (const auto& [id, v] : atoms) {
    if (atoms_.at(id).type_pos == q.where_type_pos && WherePredicate(q, *v)) {
      return true;
    }
  }
  return false;
}

std::string SimModel::RenderAttrs(uint32_t type_pos,
                                  const std::vector<Value>& attrs) const {
  const SimAtomTypeDef& def = schema_->atom_types[type_pos];
  std::string out;
  for (size_t i = 0; i < def.attrs.size(); ++i) {
    if (i) out += ", ";
    out += def.attrs[i].name + "=" + attrs[i].ToString();
  }
  return out;
}

void SimModel::EmitRows(const SimOp& q, AtomId root,
                        const std::map<AtomId, const ModelVersion*>& atoms,
                        const Interval* segment,
                        std::multiset<std::string>* out) const {
  auto prefix = [&]() {
    std::string row;
    AppendColumn(&row, Value::Id(root));
    if (segment != nullptr) {
      AppendColumn(&row, Value::Time(segment->begin));
      AppendColumn(&row, Value::Time(segment->end));
    }
    return row;
  };

  bool select_all = q.qkind == SimQueryKind::kAllAsOf ||
                    q.qkind == SimQueryKind::kAllWindow ||
                    q.qkind == SimQueryKind::kAllHistory;
  if (select_all) {
    if (!EvalWhere(q, atoms)) return;
    for (const auto& [id, v] : atoms) {
      uint32_t tp = atoms_.at(id).type_pos;
      std::string row = prefix();
      AppendColumn(&row, Value::Id(id));
      AppendColumn(&row, Value::String(schema_->atom_types[tp].name));
      AppendColumn(&row, Value::String(RenderAttrs(tp, v->attrs)));
      out->insert(std::move(row));
    }
    return;
  }

  for (std::vector<Value>& values : ProjectBindings(q, q.proj, atoms)) {
    std::string row = prefix();
    for (const Value& v : values) AppendColumn(&row, v);
    out->insert(std::move(row));
  }
}

std::vector<std::vector<Value>> SimModel::ProjectBindings(
    const SimOp& q, const std::vector<std::pair<uint32_t, uint32_t>>& proj,
    const std::map<AtomId, const ModelVersion*>& atoms) const {
  // Bindings over projected + predicate types, existential predicate,
  // rows deduped per state by the projected atoms' ids.
  std::vector<std::vector<Value>> out;
  std::vector<uint32_t> btypes;
  for (const auto& [tp, ap] : proj) {
    (void)ap;
    btypes.push_back(tp);
  }
  if (q.has_where) btypes.push_back(q.where_type_pos);
  std::sort(btypes.begin(), btypes.end());
  btypes.erase(std::unique(btypes.begin(), btypes.end()), btypes.end());

  std::vector<std::vector<std::pair<AtomId, const ModelVersion*>>> domains;
  for (uint32_t tp : btypes) {
    std::vector<std::pair<AtomId, const ModelVersion*>> domain;
    for (const auto& [id, v] : atoms) {
      if (atoms_.at(id).type_pos == tp) domain.emplace_back(id, v);
    }
    if (domain.empty()) return out;  // unsatisfiable binding set
    domains.push_back(std::move(domain));
  }

  std::set<std::vector<AtomId>> seen;
  std::vector<size_t> odo(domains.size(), 0);
  while (true) {
    // One binding: btypes[i] -> domains[i][odo[i]].
    auto bound = [&](uint32_t tp) {
      size_t i = std::lower_bound(btypes.begin(), btypes.end(), tp) -
                 btypes.begin();
      return domains[i][odo[i]];
    };
    bool ok = true;
    if (q.has_where) {
      auto [id, v] = bound(q.where_type_pos);
      (void)id;
      ok = WherePredicate(q, *v);
    }
    if (ok) {
      std::vector<AtomId> fingerprint;
      std::vector<Value> values;
      for (const auto& [tp, ap] : proj) {
        auto [id, v] = bound(tp);
        fingerprint.push_back(id);
        values.push_back(v->attrs[ap]);
      }
      if (seen.insert(fingerprint).second) out.push_back(std::move(values));
    }
    // Advance the odometer.
    size_t d = 0;
    for (; d < odo.size(); ++d) {
      if (++odo[d] < domains[d].size()) break;
      odo[d] = 0;
    }
    if (d == odo.size()) break;
  }
  return out;
}

std::string SimModel::FoldAggregates(
    const SimOp& q, const std::vector<std::vector<Value>>& rows) const {
  // The executor folds the distinct aggregated attributes (its hidden
  // projection, built in the same order); `rows` are projected on it.
  std::vector<std::pair<uint32_t, uint32_t>> hidden = HiddenProjection(q);
  std::string out;
  for (size_t a = 0; a < q.aggs.size(); ++a) {
    const size_t column =
        std::find(hidden.begin(), hidden.end(), q.proj[a]) - hidden.begin();
    int64_t count = 0;
    double sum = 0;
    std::optional<Value> best;
    for (const std::vector<Value>& row : rows) {
      const Value& v = row[column];
      if (v.is_null()) continue;
      ++count;
      if (v.type() == AttrType::kInt || v.type() == AttrType::kDouble) {
        sum += v.NumericValue();
      }
      int cmp = best.has_value() ? v.Compare(*best).value() : 0;
      if (!best.has_value() || (q.aggs[a] == AggFn::kMin && cmp < 0) ||
          (q.aggs[a] == AggFn::kMax && cmp > 0)) {
        best = v;
      }
    }
    Value result = Value::Null(AttrType::kString);
    if (q.aggs[a] == AggFn::kMin || q.aggs[a] == AggFn::kMax) {
      if (best.has_value()) result = *best;
    } else if (count > 0) {
      result = Value::Double(q.aggs[a] == AggFn::kSum ? sum : sum / count);
    }
    AppendColumn(&out, result);
  }
  return out;
}

std::vector<std::pair<uint32_t, uint32_t>> SimModel::HiddenProjection(
    const SimOp& q) {
  std::vector<std::pair<uint32_t, uint32_t>> hidden;
  for (const auto& ref : q.proj) {
    if (std::find(hidden.begin(), hidden.end(), ref) == hidden.end()) {
      hidden.push_back(ref);
    }
  }
  return hidden;
}

// ---- query oracle -----------------------------------------------------

SimModel::QueryExpectation SimModel::ExpectedRows(const SimOp& q) const {
  const SimMoleculeTypeDef& mol = schema_->molecule_types[q.mol_pos];
  QueryExpectation out;

  // Column headers (mirrors SelectExecutor::Plan).
  bool windowed = q.qkind == SimQueryKind::kAllWindow ||
                  q.qkind == SimQueryKind::kAllHistory ||
                  q.qkind == SimQueryKind::kProjWindow;
  const bool aggregate = q.qkind == SimQueryKind::kCountAsOf ||
                         q.qkind == SimQueryKind::kAggAsOf;
  if (aggregate) {
    if (q.group_by_root) out.columns.push_back("ROOT");
    if (q.qkind == SimQueryKind::kCountAsOf) out.columns.push_back("COUNT(*)");
    for (size_t a = 0; a < q.aggs.size(); ++a) {
      out.columns.push_back(std::string(AggFnName(q.aggs[a])) + "(" +
                            ProjRefName(*schema_, q.proj[a]) + ")");
    }
  } else {
    out.columns.push_back("ROOT");
    if (windowed) {
      out.columns.push_back("VALID_FROM");
      out.columns.push_back("VALID_TO");
    }
    if (q.qkind == SimQueryKind::kAllAsOf ||
        q.qkind == SimQueryKind::kAllWindow ||
        q.qkind == SimQueryKind::kAllHistory) {
      out.columns.push_back("ATOM");
      out.columns.push_back("TYPE");
      out.columns.push_back("ATTRS");
    } else {
      for (const auto& ref : q.proj) {
        out.columns.push_back(ProjRefName(*schema_, ref));
      }
    }
  }

  if (!windowed) {
    Timestamp t = q.q_at;
    if (t < horizon_) {
      out.skip_compare = true;  // uncertain vacuum could mask this slice
      return out;
    }
    // Mirror PlanRootAccess: an as-of WHERE conjunct `root_type.attr
    // <cmp> literal` (cmp != `!=`) with an index on that attribute makes
    // the executor look up candidate roots in the index instead of
    // scanning — roots whose own attribute misses the range are never
    // materialized at all (their molecules contribute nothing, and a
    // dangling link inside them cannot fail the statement).
    bool index_plan = false;
    if (q.has_where && q.where_op != BinaryOp::kNe &&
        q.where_type_pos == mol.root_pos) {
      for (const SimIndexDef& ix : schema_->indexes) {
        if (ix.type_pos == mol.root_pos && ix.attr_pos == q.where_attr_pos) {
          index_plan = true;
        }
      }
    }
    uint64_t count = 0;
    std::vector<std::vector<Value>> folded;  // global kAggAsOf input
    bool statement_fails = false;
    bool uncertain = false;
    for (AtomId root : AtomsOfType(mol.root_pos)) {
      if (!AliveAt(root, t)) continue;
      if (index_plan && !WherePredicate(q, *VersionAt(root, t))) continue;
      bool missing = false;
      std::map<AtomId, const ModelVersion*> atoms =
          Materialize(q.mol_pos, root, t, &missing, &uncertain);
      if (missing) {
        // Full scan: the NotFound from the zero-version partner fails
        // the whole statement. Index path: MoleculesAsOf treats NotFound
        // as an index false positive and silently drops the root.
        if (!index_plan) statement_fails = true;
        continue;
      }
      if (q.qkind == SimQueryKind::kCountAsOf) {
        if (!EvalWhere(q, atoms)) continue;
        if (q.group_by_root) {
          std::string row;
          AppendColumn(&row, Value::Id(root));
          AppendColumn(&row, Value::Int(1));
          out.rows.insert(std::move(row));
        } else {
          ++count;
        }
      } else if (q.qkind == SimQueryKind::kAggAsOf) {
        std::vector<std::vector<Value>> rows =
            ProjectBindings(q, HiddenProjection(q), atoms);
        if (!q.group_by_root) {
          folded.insert(folded.end(), rows.begin(), rows.end());
        } else if (!rows.empty()) {
          std::string row;
          AppendColumn(&row, Value::Id(root));
          out.rows.insert(row + "|" + FoldAggregates(q, rows));
        }
      } else {
        EmitRows(q, root, atoms, nullptr, &out.rows);
      }
    }
    if (statement_fails) {
      // The reached set is insensitive to `uncertain` partners (dead
      // atoms never extend the frontier), so the error is certain.
      out.expect_error = true;
      out.error_is_not_found = true;
      out.rows.clear();
      return out;
    }
    if (uncertain) {
      // Whether the statement errors depends on whether an interrupted
      // vacuum committed: execute it, accept any outcome.
      out.skip_compare = true;
      out.rows.clear();
      return out;
    }
    if (q.qkind == SimQueryKind::kCountAsOf && !q.group_by_root) {
      out.rows.insert(Value::Int(static_cast<int64_t>(count)).ToString());
    }
    if (q.qkind == SimQueryKind::kAggAsOf && !q.group_by_root) {
      out.rows.insert(FoldAggregates(q, folded));  // one row, even empty
    }
    return out;
  }

  Interval window = q.qkind == SimQueryKind::kAllHistory ? Interval::All()
                                                         : q.q_window;
  if (window.empty()) {
    out.expect_error = true;  // executor: InvalidArgument("empty ...")
    return out;
  }
  if (window.begin < horizon_) {
    // The window reaches below the uncertain-vacuum horizon, where even
    // the model's own state is unreliable: a below-horizon segment may
    // hit a maybe-vacuumed atom and fail the whole statement. Execute
    // without comparing.
    out.skip_compare = true;
    return out;
  }
  std::vector<Timestamp> bounds = Boundaries(window);
  bool uncertain = false;
  for (AtomId root : AtomsOfType(mol.root_pos)) {
    bool in_window = false;
    for (const ModelVersion& v : atoms_.at(root).versions) {
      in_window |= v.valid.Overlaps(window);
    }
    if (!in_window) continue;
    for (size_t i = 0; i < bounds.size(); ++i) {
      Interval segment(bounds[i],
                       i + 1 < bounds.size() ? bounds[i + 1] : window.end);
      if (segment.end <= horizon_) continue;
      if (!AliveAt(root, segment.begin)) continue;
      bool missing = false;
      std::map<AtomId, const ModelVersion*> atoms =
          Materialize(q.mol_pos, root, segment.begin, &missing, &uncertain);
      // Unlike the as-of store path, the history sweep renders a state
      // that reaches a zero-version atom as a *gap* (no rows for this
      // segment), not an error — see Materializer::HistorySweep.
      if (missing) continue;
      EmitRows(q, root, atoms, &segment, &out.rows);
    }
  }
  if (uncertain) {
    out.skip_compare = true;
    out.rows.clear();
    return out;
  }
  return out;
}

Result<std::multiset<std::string>> SimModel::CanonicalizeDb(
    const SimOp& q, const ResultSet& rs) const {
  bool windowed = q.qkind == SimQueryKind::kAllWindow ||
                  q.qkind == SimQueryKind::kAllHistory ||
                  q.qkind == SimQueryKind::kProjWindow;
  std::multiset<std::string> out;
  if (!windowed) {
    for (const auto& row : rs.rows) {
      std::string r;
      for (const Value& v : row) AppendColumn(&r, v);
      out.insert(std::move(r));
    }
    return out;
  }
  Interval window = q.qkind == SimQueryKind::kAllHistory ? Interval::All()
                                                         : q.q_window;
  std::vector<Timestamp> bounds = Boundaries(window);
  for (const auto& row : rs.rows) {
    if (row.size() < 3) {
      return Status::Internal("windowed row with fewer than 3 columns");
    }
    Timestamp from = row[1].AsTime();
    Timestamp to = row[2].AsTime();
    // Split [from, to) at every model changepoint strictly inside it;
    // the database's coalesced states may span several model segments.
    std::vector<Timestamp> cuts = {from};
    for (Timestamp b : bounds) {
      if (b > from && b < to) cuts.push_back(b);
    }
    cuts.push_back(to);
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      if (cuts[i + 1] <= horizon_) continue;
      std::string r;
      AppendColumn(&r, row[0]);
      AppendColumn(&r, Value::Time(cuts[i]));
      AppendColumn(&r, Value::Time(cuts[i + 1]));
      for (size_t c = 3; c < row.size(); ++c) AppendColumn(&r, row[c]);
      out.insert(std::move(r));
    }
  }
  return out;
}

std::string SimModel::StateDigest() const {
  std::string out = "horizon=" + std::to_string(horizon_) + "\n";
  for (const auto& [id, atom] : atoms_) {
    out += "atom #" + std::to_string(id) + " " +
           schema_->atom_types[atom.type_pos].name;
    for (const ModelVersion& v : atom.versions) {
      out += " [" + std::to_string(v.valid.begin) + "," +
             std::to_string(v.valid.end) + "){" +
             RenderAttrs(atom.type_pos, v.attrs) + "}";
    }
    out += "\n";
  }
  for (const auto& [key, intervals] : links_) {
    const auto& [link_pos, from, to] = key;
    out += "link " + schema_->link_types[link_pos].name + " #" +
           std::to_string(from) + "->#" + std::to_string(to);
    for (const Interval& iv : intervals) {
      out += " [" + std::to_string(iv.begin) + "," + std::to_string(iv.end) +
             ")";
    }
    out += "\n";
  }
  return out;
}

}  // namespace tcob::sim
