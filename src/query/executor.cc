#include "query/executor.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "query/expr_eval.h"
#include "query/planner.h"

namespace tcob {

Result<std::string> SelectExecutor::RenderAttrs(const AtomVersion& v) const {
  TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* def, catalog_->GetAtomType(v.type));
  std::string out;
  for (size_t i = 0; i < def->attributes.size() && i < v.attrs.size(); ++i) {
    if (i) out += ", ";
    out += def->attributes[i].name + "=" + v.attrs[i].ToString();
  }
  return out;
}

Result<bool> SelectExecutor::EmitMolecule(const SelectStmt& stmt,
                                          const SelectPlan& plan,
                                          const Molecule& molecule,
                                          const Interval* state_valid,
                                          RowSink* sink) const {
  ExprEvaluator eval(catalog_, now_);

  auto push_state_columns = [&](std::vector<Value>* row) {
    if (state_valid != nullptr) {
      row->push_back(Value::Time(state_valid->begin));
      row->push_back(Value::Time(state_valid->end));
    }
  };

  if (plan.select_all) {
    if (stmt.where != nullptr) {
      TCOB_ASSIGN_OR_RETURN(bool ok, eval.Satisfies(*stmt.where, molecule));
      if (!ok) return true;
    }
    for (const auto& [id, version] : molecule.atoms) {
      TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* def,
                            catalog_->GetAtomType(version.type));
      std::vector<Value> row;
      row.push_back(Value::Id(molecule.root));
      push_state_columns(&row);
      row.push_back(Value::Id(id));
      row.push_back(Value::String(def->name));
      TCOB_ASSIGN_OR_RETURN(std::string attrs, RenderAttrs(version));
      row.push_back(Value::String(std::move(attrs)));
      TCOB_ASSIGN_OR_RETURN(bool more, sink->Push(std::move(row)));
      if (!more) return false;
    }
    return true;
  }

  // Projection: enumerate bindings over projected + predicate types.
  std::set<std::string> binding_types;
  for (const AttrRef& ref : plan.projection) {
    binding_types.insert(ref.type_name);
  }
  if (stmt.where != nullptr) {
    ExprEvaluator::CollectTypes(*stmt.where, &binding_types);
  }
  TCOB_ASSIGN_OR_RETURN(std::vector<Binding> bindings,
                        eval.EnumerateBindings(molecule, binding_types));
  // (An empty binding-type set yields exactly one empty binding — one
  // row per molecule, which is what COUNT(*) wants.)
  // De-duplicate projected rows when the predicate-only types fan out.
  std::set<std::vector<std::string>> seen;
  for (const Binding& binding : bindings) {
    if (stmt.where != nullptr) {
      TCOB_ASSIGN_OR_RETURN(bool ok, eval.EvalBool(*stmt.where, binding));
      if (!ok) continue;
    }
    std::vector<Value> row;
    row.push_back(Value::Id(molecule.root));
    push_state_columns(&row);
    std::vector<std::string> fingerprint;
    for (const AttrRef& ref : plan.projection) {
      auto it = binding.atoms.find(ref.type_name);
      if (it == binding.atoms.end()) {
        return Status::Internal("projection type unbound: " + ref.type_name);
      }
      TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* def,
                            catalog_->GetAtomTypeByName(ref.type_name));
      int idx = def->AttrIndex(ref.attr_name);
      if (idx < 0) {
        return Status::InvalidArgument("unknown attribute " + ref.ToString());
      }
      row.push_back(it->second->attrs[idx]);
      fingerprint.push_back(std::to_string(it->second->id));
    }
    if (!seen.insert(fingerprint).second) continue;
    TCOB_ASSIGN_OR_RETURN(bool more, sink->Push(std::move(row)));
    if (!more) return false;
  }
  return true;
}

Result<MoleculeTypeDef> SelectExecutor::ResolveMoleculeType(
    const SelectStmt& stmt) const {
  if (stmt.inline_root.empty()) {
    TCOB_ASSIGN_OR_RETURN(const MoleculeTypeDef* named,
                          catalog_->GetMoleculeTypeByName(stmt.molecule_type));
    return *named;
  }
  // Ad-hoc definition: resolve the root and links, check connectedness.
  MoleculeTypeDef def;
  def.name = "<inline>";
  TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* root,
                        catalog_->GetAtomTypeByName(stmt.inline_root));
  def.root_type = root->id;
  std::set<TypeId> reached = {root->id};
  for (const auto& [link_name, forward] : stmt.inline_edges) {
    TCOB_ASSIGN_OR_RETURN(const LinkTypeDef* link,
                          catalog_->GetLinkTypeByName(link_name));
    TypeId source = forward ? link->from_type : link->to_type;
    TypeId target = forward ? link->to_type : link->from_type;
    if (reached.count(source) == 0) {
      return Status::InvalidArgument(
          "inline molecule is disconnected at link " + link_name);
    }
    reached.insert(target);
    def.edges.push_back(MoleculeEdge{link->id, forward});
  }
  return def;
}

Result<ResultSet> SelectExecutor::Explain(const SelectStmt& stmt) const {
  TCOB_ASSIGN_OR_RETURN(MoleculeTypeDef resolved, ResolveMoleculeType(stmt));
  RootAccessPath path = PlanRootAccess(stmt, *catalog_, resolved);
  ResultSet out;
  out.columns = {"PLAN"};
  out.rows.push_back({Value::String(path.description)});
  const char* mode = stmt.mode == TemporalMode::kAsOf
                         ? "time slice (VALID AT)"
                         : (stmt.mode == TemporalMode::kWindow
                                ? "window (VALID IN)"
                                : "history");
  out.rows.push_back({Value::String(std::string("temporal mode: ") + mode)});
  out.rows.push_back({Value::String(
      "molecule materialization: fixpoint over " +
      std::to_string(resolved.edges.size()) + " edge(s)" +
      (stmt.inline_root.empty() ? "" : " (inline definition)"))});
  if (!stmt.aggregates.empty()) {
    out.rows.push_back({Value::String(
        std::string("aggregation: ") + std::to_string(stmt.aggregates.size()) +
        " aggregate(s)" + (stmt.group_by_root ? ", grouped by root" : ""))});
  }
  return out;
}

namespace {

/// Aggregate stage: folds the hidden-projection rows into one accumulator
/// per (group, aggregate) and, once the input ends, emits one row per
/// group in ascending root order — a single global group without GROUP
/// BY ROOT, which yields its row even over no input.
class AggregateStage : public RowSink {
 public:
  AggregateStage(const SelectStmt& stmt, const SelectPlan& plan,
                 RowSink* next)
      : stmt_(stmt), next_(next) {
    // Hidden rows are ROOT [VALID_FROM VALID_TO] <projection...>.
    const size_t base = 1 + (plan.windowed ? 2 : 0);
    for (const AggSpec& agg : stmt.aggregates) {
      auto ref = std::find_if(
          plan.projection.begin(), plan.projection.end(),
          [&](const AttrRef& r) {
            return r.type_name == agg.ref.type_name &&
                   r.attr_name == agg.ref.attr_name;
          });
      columns_.push_back(agg.star ? kCountStar
                                  : base + (ref - plan.projection.begin()));
    }
    if (!stmt.group_by_root) {
      groups_.try_emplace(kInvalidAtomId, columns_.size());
    }
  }

  Result<bool> Push(std::vector<Value> row) override {
    const AtomId group = stmt_.group_by_root ? row[0].AsId() : kInvalidAtomId;
    std::vector<Accumulator>& accs =
        groups_.try_emplace(group, columns_.size()).first->second;
    for (size_t a = 0; a < columns_.size(); ++a) {
      Accumulator& acc = accs[a];
      if (columns_[a] == kCountStar) {
        ++acc.count;
        continue;
      }
      const Value& v = row[columns_[a]];
      if (v.is_null()) continue;  // NULLs do not participate
      ++acc.count;
      if (v.type() == AttrType::kInt || v.type() == AttrType::kDouble) {
        acc.sum += v.NumericValue();
      } else {
        acc.numeric = false;
      }
      int cmp = 0;
      if (acc.best.has_value()) {
        TCOB_ASSIGN_OR_RETURN(cmp, v.Compare(*acc.best));
      }
      const AggFn fn = stmt_.aggregates[a].fn;
      if (!acc.best.has_value() || (fn == AggFn::kMin && cmp < 0) ||
          (fn == AggFn::kMax && cmp > 0)) {
        acc.best = v;
      }
    }
    return true;
  }

  /// Emits the groups downstream; stops early when the sink declines.
  Status Finish() {
    for (const auto& [root, accs] : groups_) {
      std::vector<Value> row;
      if (stmt_.group_by_root) row.push_back(Value::Id(root));
      for (size_t a = 0; a < accs.size(); ++a) {
        const AggSpec& agg = stmt_.aggregates[a];
        const Accumulator& acc = accs[a];
        if (agg.fn == AggFn::kCount) {
          row.push_back(Value::Int(acc.count));
        } else if (agg.fn == AggFn::kMin || agg.fn == AggFn::kMax) {
          row.push_back(acc.best.value_or(Value::Null(AttrType::kString)));
        } else if (!acc.numeric) {
          return Status::TypeError("SUM/AVG require a numeric attribute: " +
                                   agg.ref.ToString());
        } else if (acc.count == 0) {
          row.push_back(Value::Null(AttrType::kDouble));
        } else {
          row.push_back(Value::Double(
              agg.fn == AggFn::kSum ? acc.sum : acc.sum / acc.count));
        }
      }
      TCOB_ASSIGN_OR_RETURN(bool more, next_->Push(std::move(row)));
      if (!more) break;
    }
    return Status::OK();
  }

  size_t groups() const { return groups_.size(); }

 private:
  static constexpr size_t kCountStar = static_cast<size_t>(-1);

  struct Accumulator {
    int64_t count = 0;  // rows (COUNT(*)) or non-NULL values
    double sum = 0;
    bool numeric = true;        // every non-NULL value was numeric
    std::optional<Value> best;  // running MIN / MAX
  };

  const SelectStmt& stmt_;
  RowSink* next_;
  /// Per aggregate: its column in the hidden row, or kCountStar.
  std::vector<size_t> columns_;
  /// Keyed by root (kInvalidAtomId for the global group), so groups
  /// leave in ascending root order.
  std::map<AtomId, std::vector<Accumulator>> groups_;
};

/// Sort stage (ORDER BY): buffers every row, stable-sorts on the key
/// column once the input ends, then pushes downstream until the sink
/// declines.
class SortStage : public RowSink {
 public:
  SortStage(size_t column, bool desc, RowSink* next)
      : column_(column), desc_(desc), next_(next) {}

  Result<bool> Push(std::vector<Value> row) override {
    rows_.push_back(std::move(row));
    return true;
  }

  Status Finish() {
    Status sort_error = Status::OK();
    std::stable_sort(rows_.begin(), rows_.end(),
                     [&](const std::vector<Value>& a,
                         const std::vector<Value>& b) {
                       Result<int> cmp = a[column_].Compare(b[column_]);
                       if (!cmp.ok()) {
                         if (sort_error.ok()) sort_error = cmp.status();
                         return false;
                       }
                       return desc_ ? cmp.value() > 0 : cmp.value() < 0;
                     });
    TCOB_RETURN_NOT_OK(sort_error);
    for (std::vector<Value>& row : rows_) {
      TCOB_ASSIGN_OR_RETURN(bool more, next_->Push(std::move(row)));
      if (!more) break;
    }
    return Status::OK();
  }

  /// Rows held (unchanged by Finish, which moves out of the slots).
  size_t rows() const { return rows_.size(); }

 private:
  const size_t column_;
  const bool desc_;
  RowSink* next_;
  std::vector<std::vector<Value>> rows_;
};

/// Collects streamed rows into a ResultSet (Execute).
class CollectingSink : public RowSink {
 public:
  explicit CollectingSink(ResultSet* out) : out_(out) {}
  Result<bool> Push(std::vector<Value> row) override {
    out_->rows.push_back(std::move(row));
    return true;
  }

 private:
  ResultSet* out_;
};

}  // namespace

Result<SelectPlan> SelectExecutor::Plan(const SelectStmt& stmt) const {
  TraceSpanScope span(rec_, TraceSpanId::kPlan, SpanUs(&QueryStats::plan_us));
  SelectPlan plan;
  TCOB_ASSIGN_OR_RETURN(plan.resolved, ResolveMoleculeType(stmt));
  plan.aggregate = !stmt.aggregates.empty();
  plan.select_all = stmt.select_all && !plan.aggregate;
  plan.windowed = stmt.mode != TemporalMode::kAsOf;
  plan.projection = stmt.projection;
  if (plan.aggregate) {
    // Result: [ROOT] + one column per aggregate. The rows feeding the
    // aggregate stage project the distinct aggregated attributes.
    plan.projection.clear();
    if (stmt.group_by_root) plan.columns.push_back("ROOT");
    for (const AggSpec& agg : stmt.aggregates) {
      plan.columns.push_back(agg.ToString());
      if (agg.star) continue;
      bool dup = false;
      for (const AttrRef& ref : plan.projection) {
        dup = dup || (ref.type_name == agg.ref.type_name &&
                      ref.attr_name == agg.ref.attr_name);
      }
      if (!dup) plan.projection.push_back(agg.ref);
    }
  } else {
    plan.columns.push_back("ROOT");
    if (plan.windowed) {
      plan.columns.push_back("VALID_FROM");
      plan.columns.push_back("VALID_TO");
    }
    if (plan.select_all) {
      plan.columns.push_back("ATOM");
      plan.columns.push_back("TYPE");
      plan.columns.push_back("ATTRS");
    } else {
      for (const AttrRef& ref : plan.projection) {
        plan.columns.push_back(ref.ToString());
      }
    }
  }

  if (stmt.mode == TemporalMode::kAsOf) {
    plan.path = PlanRootAccess(stmt, *catalog_, plan.resolved);
    if (plan.path.use_index && indexes_ != nullptr) {
      plan.message = plan.path.description;
    }
    if (trace_ != nullptr) trace_->plan = plan.path.description;
  } else {
    plan.window = stmt.mode == TemporalMode::kHistory ? Interval::All()
                                                      : stmt.window;
    if (stmt.mode == TemporalMode::kWindow && stmt.window_end_now) {
      plan.window.end = now_;
    }
    if (plan.window.empty()) {
      return Status::InvalidArgument("empty query window");
    }
    if (trace_ != nullptr && trace_->plan.empty()) {
      trace_->plan = "seq scan of root versions, incremental history sweep";
    }
  }
  if (!stmt.order_by.empty()) {
    auto key = std::find(plan.columns.begin(), plan.columns.end(),
                         stmt.order_by);
    if (key == plan.columns.end()) {
      return Status::InvalidArgument(
          "ORDER BY column must appear in the result: " + stmt.order_by);
    }
    plan.order_column = static_cast<size_t>(key - plan.columns.begin());
  }
  return plan;
}

Status SelectExecutor::Run(const SelectStmt& stmt, const SelectPlan& plan,
                           RowSink* sink) const {
  // Traced wrapper around EmitMolecule: accumulates emit_us and the
  // molecule/state/atom work counters. `state_valid` null = as-of row
  // shape, non-null = one constant state of a history.
  auto emit = [&](const Molecule& mol,
                  const Interval* state_valid) -> Result<bool> {
    if (ctx_ != nullptr) {
      Status governed = ctx_->Check();
      if (!governed.ok()) return governed;
    }
    if (trace_ == nullptr) {
      return EmitMolecule(stmt, plan, mol, state_valid, sink);
    }
    if (state_valid == nullptr) {
      ++trace_->molecules;
    } else {
      ++trace_->states;
    }
    trace_->atoms_visited += mol.atoms.size();
    StopwatchUs emit_timer;
    Result<bool> more = EmitMolecule(stmt, plan, mol, state_valid, sink);
    trace_->emit_us += emit_timer.ElapsedUs();
    return more;
  };

  if (stmt.mode == TemporalMode::kAsOf) {
    Timestamp t = stmt.at_now ? now_ : stmt.at;
    StopwatchUs mat_timer;
    if (plan.path.use_index && indexes_ != nullptr) {
      TCOB_ASSIGN_OR_RETURN(const AttrIndexDef* index,
                            catalog_->GetAttrIndex(plan.path.index));
      TCOB_ASSIGN_OR_RETURN(std::vector<AtomId> roots,
                            indexes_->LookupAsOf(*index, plan.path.range, t));
      // MoleculesAsOf routes the roots through a query-scoped cache (and
      // the thread pool, when the materializer has one); roots not valid
      // at t are skipped — the index is version-grained, so a listed
      // root should be valid, but stay defensive.
      TCOB_RETURN_NOT_OK(materializer_->MoleculesAsOf(
          plan.resolved, roots, t,
          [&](Molecule mol) -> Result<bool> { return emit(mol, nullptr); }));
    } else {
      TCOB_RETURN_NOT_OK(materializer_->AllMoleculesAsOf(
          plan.resolved, t,
          [&](Molecule mol) -> Result<bool> { return emit(mol, nullptr); }));
    }
    if (trace_ != nullptr) {
      // Emit ran inside the materializer's streaming loop: subtract it
      // out so the two spans partition the loop's wall time.
      trace_->materialize_us += mat_timer.ElapsedUs() - trace_->emit_us;
    }
    return Status::OK();
  }

  StopwatchUs mat_timer;
  TCOB_RETURN_NOT_OK(materializer_->AllHistories(
      plan.resolved, plan.window,
      [&](MoleculeHistory history) -> Result<bool> {
        if (trace_ != nullptr) ++trace_->molecules;
        for (const MoleculeState& state : history.states) {
          Interval clipped = state.valid.Intersect(plan.window);
          if (clipped.empty()) continue;
          TCOB_ASSIGN_OR_RETURN(bool more, emit(state.molecule, &clipped));
          if (!more) return false;
        }
        return true;
      }));
  if (trace_ != nullptr) {
    trace_->materialize_us += mat_timer.ElapsedUs() - trace_->emit_us;
  }
  return Status::OK();
}

Result<ResultSet> SelectExecutor::Execute(const SelectStmt& stmt) const {
  TraceSpanScope span(rec_, TraceSpanId::kExecute);
  TCOB_ASSIGN_OR_RETURN(SelectPlan plan, Plan(stmt));
  ResultSet out;
  out.columns = plan.columns;
  out.message = plan.message;
  CollectingSink sink(&out);
  TCOB_RETURN_NOT_OK(ExecuteStreaming(stmt, plan, &sink));
  if (trace_ != nullptr) trace_->rows = out.rows.size();
  return out;
}

Status SelectExecutor::ExecuteStreaming(const SelectStmt& stmt,
                                        const SelectPlan& plan,
                                        RowSink* sink) const {
  // Plan() ran earlier (at cursor open); execute_us spans both halves.
  if (trace_ != nullptr) trace_->execute_us = trace_->plan_us;
  TraceSpanScope span(rec_, TraceSpanId::kStream,
                      SpanUs(&QueryStats::execute_us));
  // emit -> [aggregate] -> [sort] -> sink, chained back to front.
  std::optional<SortStage> sort;
  std::optional<AggregateStage> aggregate;
  RowSink* head = sink;
  if (!stmt.order_by.empty()) {
    head = &sort.emplace(plan.order_column, stmt.order_desc, head);
  }
  if (plan.aggregate) head = &aggregate.emplace(stmt, plan, head);

  Status st = Run(stmt, plan, head);
  if (st.ok() && aggregate.has_value()) {
    TraceSpanScope stage_span(rec_, TraceSpanId::kAggregate,
                              SpanUs(&QueryStats::aggregate_us));
    st = aggregate->Finish();
  }
  if (st.ok() && sort.has_value()) {
    TraceSpanScope stage_span(rec_, TraceSpanId::kSort,
                              SpanUs(&QueryStats::sort_us));
    st = sort->Finish();
  }
  if (trace_ != nullptr) {
    trace_->temporal_mode = stmt.mode == TemporalMode::kAsOf
                                ? "as-of"
                                : (stmt.mode == TemporalMode::kWindow
                                       ? "window"
                                       : "history");
    trace_->cache = materializer_->cache_stats();
    trace_->worker_us = materializer_->last_worker_micros();
    trace_->parallelism =
        trace_->worker_us.empty() ? 1 : trace_->worker_us.size();
    // The rows the stages held: one per group, or the whole sort input.
    trace_->peak_buffered_rows =
        std::max(aggregate.has_value() ? aggregate->groups() : 0,
                 sort.has_value() ? sort->rows() : 0);
  }
  return st;
}

}  // namespace tcob
