#include "sim/workload.h"

#include <algorithm>
#include <set>

#include "common/random.h"
#include "sim/model.h"

namespace tcob::sim {

namespace {

constexpr AtomId kDanglingBase = kSimDanglingBase;

AttrType PickAttrType(Random* rng) {
  switch (rng->Uniform(8)) {
    case 0:
    case 1:
    case 2: return AttrType::kInt;  // predicates need int attrs
    case 3: return AttrType::kString;
    case 4: return AttrType::kBool;
    case 5: return AttrType::kDouble;
    case 6: return AttrType::kTimestamp;
    default: return AttrType::kId;
  }
}

Value RandomValue(Random* rng, AttrType type) {
  switch (type) {
    case AttrType::kBool: return Value::Bool(rng->Bernoulli(0.5));
    case AttrType::kInt: return Value::Int(rng->UniformRange(-20, 99));
    case AttrType::kDouble:
      return Value::Double(static_cast<double>(rng->UniformRange(0, 400)) / 4);
    case AttrType::kString: return Value::String(rng->NextString(1 + rng->Uniform(4)));
    case AttrType::kTimestamp:
      return Value::Time(static_cast<Timestamp>(rng->UniformRange(0, 50)));
    case AttrType::kId:
      return Value::Id(static_cast<AtomId>(rng->UniformRange(1, 40)));
  }
  return Value::Int(0);
}

SimSchema GenerateSchema(Random* rng) {
  SimSchema schema;
  uint32_t num_types = 2 + static_cast<uint32_t>(rng->Uniform(3));
  for (uint32_t t = 0; t < num_types; ++t) {
    SimAtomTypeDef def;
    def.name = "t" + std::to_string(t);
    uint32_t num_attrs = 1 + static_cast<uint32_t>(rng->Uniform(4));
    for (uint32_t a = 0; a < num_attrs; ++a) {
      SimAttrDef attr;
      attr.name = std::string("a").append(std::to_string(a));
      // Attr 0 is always kInt so every type is predicate-eligible.
      attr.type = a == 0 ? AttrType::kInt : PickAttrType(rng);
      def.attrs.push_back(std::move(attr));
    }
    schema.atom_types.push_back(std::move(def));
  }
  uint32_t num_links = 2 + static_cast<uint32_t>(rng->Uniform(3));
  for (uint32_t l = 0; l < num_links; ++l) {
    SimLinkTypeDef def;
    def.name = "l" + std::to_string(l);
    def.from_pos = static_cast<uint32_t>(rng->Uniform(num_types));
    def.to_pos = static_cast<uint32_t>(rng->Uniform(num_types));  // cycles ok
    schema.link_types.push_back(std::move(def));
  }
  uint32_t num_mols = 1 + static_cast<uint32_t>(rng->Uniform(2));
  for (uint32_t m = 0; m < num_mols; ++m) {
    SimMoleculeTypeDef def;
    def.name = "m" + std::to_string(m);
    def.root_pos = static_cast<uint32_t>(rng->Uniform(num_types));
    // The catalog validates connectedness edge by edge: each edge's
    // source type must already be reached. Grow the edge list greedily
    // from the root; cycles and repeated links are fine as long as the
    // source side is reached.
    std::set<uint32_t> reached = {def.root_pos};
    uint32_t num_edges = 1 + static_cast<uint32_t>(rng->Uniform(4));
    for (uint32_t e = 0; e < num_edges; ++e) {
      std::vector<std::pair<uint32_t, bool>> candidates;
      for (uint32_t l = 0; l < num_links; ++l) {
        if (reached.count(schema.link_types[l].from_pos)) {
          candidates.emplace_back(l, true);
        }
        if (reached.count(schema.link_types[l].to_pos)) {
          candidates.emplace_back(l, false);
        }
      }
      if (candidates.empty()) break;  // no link touches the reached set
      auto [link_pos, forward] = candidates[rng->Uniform(candidates.size())];
      const SimLinkTypeDef& link = schema.link_types[link_pos];
      reached.insert(forward ? link.to_pos : link.from_pos);
      def.edges.emplace_back(link_pos, forward);
    }
    schema.molecule_types.push_back(std::move(def));
  }
  uint32_t num_idx = static_cast<uint32_t>(rng->Uniform(3));
  std::set<uint32_t> indexed;
  for (uint32_t i = 0; i < num_idx; ++i) {
    uint32_t type_pos = static_cast<uint32_t>(rng->Uniform(num_types));
    if (!indexed.insert(type_pos).second) continue;  // one per type
    SimIndexDef def;
    def.name = "ix" + std::to_string(i);
    def.type_pos = type_pos;
    def.attr_pos = 0;  // always kInt
    schema.indexes.push_back(std::move(def));
  }
  return schema;
}

/// Picks a random alive atom (any type), or 0 if none.
AtomId PickAlive(Random* rng, const SimModel& model) {
  std::vector<AtomId> alive;
  for (const auto& [id, atom] : model.atoms()) {
    (void)atom;
    if (model.AliveNow(id)) alive.push_back(id);
  }
  if (alive.empty()) return 0;
  return alive[rng->Uniform(alive.size())];
}

void GenerateQuery(Random* rng, const SimSchema& schema, Timestamp now,
                   const GenOptions& options, SimOp* op) {
  op->kind = SimOpKind::kQuery;
  // Governance knobs are drawn unconditionally so an ablated run
  // (--no_cancel / --no_transient_io) sees the exact same schema and op
  // stream; the gates only decide whether the drawn values take effect.
  const bool deadline_roll = rng->Bernoulli(0.125);
  const uint64_t deadline_us = 1 + rng->Uniform(500);
  const bool cancel_roll = rng->Bernoulli(0.08);
  const bool transient_roll = rng->Bernoulli(0.15);
  const uint32_t transient_n = 1 + static_cast<uint32_t>(rng->Uniform(2));
  if (options.enable_cancel) {
    if (deadline_roll) op->deadline_micros = deadline_us;
    op->cancel = cancel_roll;
  }
  if (options.enable_transient_io && transient_roll) {
    op->transient_read_failures = transient_n;
  }
  op->mol_pos = static_cast<uint32_t>(rng->Uniform(schema.molecule_types.size()));
  switch (rng->Uniform(12)) {
    case 0:
    case 1:
    case 2: op->qkind = SimQueryKind::kAllAsOf; break;
    case 3:
    case 4: op->qkind = SimQueryKind::kAllWindow; break;
    case 5: op->qkind = SimQueryKind::kAllHistory; break;
    case 6:
    case 7: op->qkind = SimQueryKind::kCountAsOf; break;
    case 8: op->qkind = SimQueryKind::kProjAsOf; break;
    case 9:
    case 10: op->qkind = SimQueryKind::kProjWindow; break;
    default: op->qkind = SimQueryKind::kAggAsOf; break;
  }
  // AS OF: half current, half strictly in the past.
  op->q_at = rng->Bernoulli(0.5)
                 ? now
                 : static_cast<Timestamp>(rng->UniformRange(1, now));
  // DURING window: occasionally deliberately empty (error-path probe).
  if (rng->Bernoulli(0.05)) {
    Timestamp a = rng->UniformRange(1, now + 2);
    op->q_window = Interval(a, a - rng->UniformRange(0, 2));
  } else {
    Timestamp a = rng->UniformRange(0, now + 2);
    op->q_window = Interval(a, a + 1 + rng->UniformRange(0, now));
  }
  std::vector<uint32_t> involved = schema.InvolvedTypes(op->mol_pos);
  auto pick_type = [&]() -> uint32_t {
    // Mostly molecule-involved types; sometimes any type (exercises the
    // unsatisfiable-binding path when it is not part of the molecule).
    if (!involved.empty() && rng->Bernoulli(0.8)) {
      return involved[rng->Uniform(involved.size())];
    }
    return static_cast<uint32_t>(rng->Uniform(schema.atom_types.size()));
  };
  op->group_by_root = (op->qkind == SimQueryKind::kCountAsOf ||
                       op->qkind == SimQueryKind::kAggAsOf) &&
                      rng->Bernoulli(0.5);
  bool projection = op->qkind == SimQueryKind::kProjAsOf ||
                    op->qkind == SimQueryKind::kProjWindow;
  op->has_where = rng->Bernoulli(projection ? 0.4 : 0.5);
  if (op->has_where) {
    op->where_type_pos = pick_type();
    op->where_attr_pos = 0;  // always kInt by construction
    constexpr BinaryOp kOps[] = {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                                 BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe};
    op->where_op = kOps[rng->Uniform(6)];
    op->where_lit = rng->UniformRange(-20, 99);
  }
  if (projection) {
    uint32_t n = 1 + static_cast<uint32_t>(rng->Uniform(2));
    for (uint32_t i = 0; i < n; ++i) {
      uint32_t tp = pick_type();
      uint32_t ap = static_cast<uint32_t>(
          rng->Uniform(schema.atom_types[tp].attrs.size()));
      op->proj.emplace_back(tp, ap);
    }
    if (rng->Bernoulli(0.4)) {
      op->order_by = static_cast<int>(rng->Uniform(n));
      op->order_desc = rng->Bernoulli(0.5);
    }
  }
  if (op->qkind == SimQueryKind::kAggAsOf) {
    constexpr AggFn kFns[] = {AggFn::kSum, AggFn::kMin, AggFn::kMax,
                              AggFn::kAvg};
    uint32_t n = 1 + static_cast<uint32_t>(rng->Uniform(2));
    for (uint32_t i = 0; i < n; ++i) {
      AggFn fn = kFns[rng->Uniform(4)];
      uint32_t tp = pick_type();
      // SUM/AVG take a numeric attribute (attr 0 is always one), MIN/MAX
      // any attribute.
      std::vector<uint32_t> attrs;
      const auto& defs = schema.atom_types[tp].attrs;
      for (uint32_t a = 0; a < defs.size(); ++a) {
        bool numeric = defs[a].type == AttrType::kInt ||
                       defs[a].type == AttrType::kDouble;
        if (numeric || fn == AggFn::kMin || fn == AggFn::kMax) {
          attrs.push_back(a);
        }
      }
      op->aggs.push_back(fn);
      op->proj.emplace_back(tp, attrs[rng->Uniform(attrs.size())]);
    }
  }
}

}  // namespace

std::vector<uint32_t> SimSchema::InvolvedTypes(uint32_t mol_pos) const {
  const SimMoleculeTypeDef& mol = molecule_types[mol_pos];
  std::set<uint32_t> types = {mol.root_pos};
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [link_pos, forward] : mol.edges) {
      const SimLinkTypeDef& link = link_types[link_pos];
      uint32_t src = forward ? link.from_pos : link.to_pos;
      uint32_t dst = forward ? link.to_pos : link.from_pos;
      if (types.count(src) && !types.count(dst)) {
        types.insert(dst);
        changed = true;
      }
    }
  }
  return std::vector<uint32_t>(types.begin(), types.end());
}

SimWorkload GenerateWorkload(uint64_t seed, const GenOptions& options) {
  Random rng(seed);
  SimWorkload w;
  w.seed = seed;
  w.schema = GenerateSchema(&rng);
  // Draw the tiering knobs unconditionally so a --no_tiering run sees
  // the exact same schema and op stream (only roll==98 ops differ).
  w.tiering_enabled = options.enable_tiering;
  w.tiering_cold_age = static_cast<Timestamp>(rng.UniformRange(8, 32));
  w.tiering_segment_bytes = 1024 * (1 + rng.Uniform(4));
  w.transient_io_enabled = options.enable_transient_io;
  // Transaction knobs are likewise drawn unconditionally; a --no_txns
  // run generates the identical DML/query stream and only strips the
  // slot assignments at the end.
  const uint32_t num_slots = 2 + static_cast<uint32_t>(rng.Uniform(3));
  std::vector<char> slot_open(num_slots, 0);

  // A shadow model keeps generated ops mostly-valid (alive targets, open
  // links) without talking to a real database.
  SimModel model(&w.schema, ModelBug::kNone);
  Timestamp now = 10;

  auto gen_insert = [&](SimOp* op) {
    op->kind = SimOpKind::kInsert;
    op->type_pos =
        static_cast<uint32_t>(rng.Uniform(w.schema.atom_types.size()));
    const SimAtomTypeDef& def = w.schema.atom_types[op->type_pos];
    for (uint32_t a = 0; a < def.attrs.size(); ++a) {
      if (rng.Bernoulli(0.8)) {
        op->set.emplace_back(a, RandomValue(&rng, def.attrs[a].type));
      }
    }
    op->at = now;
    op->atom = model.InsertAtom(op->type_pos, op->set, op->at);
  };

  for (size_t i = 0; i < options.num_ops; ++i) {
    SimOp op;
    uint64_t roll = i < 6 ? 0 : rng.Uniform(100);  // seed a population first
    now += rng.UniformRange(1, 3);

    if (roll < 20) {
      gen_insert(&op);
    } else if (roll < 36) {  // update
      AtomId id = PickAlive(&rng, model);
      if (id == 0) {
        gen_insert(&op);
      } else {
        op.kind = SimOpKind::kUpdate;
        op.atom = id;
        op.type_pos = model.atoms().at(id).type_pos;
        const SimAtomTypeDef& def = w.schema.atom_types[op.type_pos];
        uint32_t n = 1 + static_cast<uint32_t>(rng.Uniform(2));
        for (uint32_t k = 0; k < n; ++k) {
          uint32_t a = static_cast<uint32_t>(rng.Uniform(def.attrs.size()));
          op.set.emplace_back(a, RandomValue(&rng, def.attrs[a].type));
        }
        op.at = now;
        model.UpdateAtom(op.type_pos, op.atom, op.set, op.at);
      }
    } else if (roll < 44) {  // delete
      AtomId id = PickAlive(&rng, model);
      if (id == 0) {
        gen_insert(&op);
      } else {
        op.kind = SimOpKind::kDelete;
        op.atom = id;
        op.type_pos = model.atoms().at(id).type_pos;
        op.at = now;
        model.DeleteAtom(op.type_pos, op.atom, op.at);
      }
    } else if (roll < 58) {  // connect
      uint32_t link_pos =
          static_cast<uint32_t>(rng.Uniform(w.schema.link_types.size()));
      const SimLinkTypeDef& link = w.schema.link_types[link_pos];
      std::vector<AtomId> froms, tos;
      for (AtomId id : model.AtomsOfType(link.from_pos)) {
        if (model.AliveNow(id)) froms.push_back(id);
      }
      for (AtomId id : model.AtomsOfType(link.to_pos)) {
        if (model.AliveNow(id)) tos.push_back(id);
      }
      bool placed = false;
      if (!froms.empty() && !tos.empty()) {
        for (int attempt = 0; attempt < 8 && !placed; ++attempt) {
          AtomId f = froms[rng.Uniform(froms.size())];
          AtomId t = tos[rng.Uniform(tos.size())];
          if (!model.CanConnect(link_pos, f, t)) continue;
          op.kind = SimOpKind::kConnect;
          op.link_pos = link_pos;
          op.from = f;
          op.to = t;
          op.at = now;
          model.Connect(link_pos, f, t, now);
          placed = true;
        }
      }
      if (!placed) gen_insert(&op);
    } else if (roll < 64) {  // disconnect
      uint32_t link_pos =
          static_cast<uint32_t>(rng.Uniform(w.schema.link_types.size()));
      std::vector<std::pair<AtomId, AtomId>> open = model.OpenLinks(link_pos);
      if (open.empty()) {
        gen_insert(&op);
      } else {
        auto [f, t] = open[rng.Uniform(open.size())];
        op.kind = SimOpKind::kDisconnect;
        op.link_pos = link_pos;
        op.from = f;
        op.to = t;
        op.at = now;
        model.Disconnect(link_pos, f, t, now);
      }
    } else if (roll < 67) {  // bad update (deliberate error-path probe)
      op.kind = SimOpKind::kBadUpdate;
      op.type_pos =
          static_cast<uint32_t>(rng.Uniform(w.schema.atom_types.size()));
      // Never-existed target, or (when available) a dead/wrong-typed one.
      op.atom = kDanglingBase + rng.Uniform(16);
      if (rng.Bernoulli(0.5)) {
        std::vector<AtomId> stale;
        for (const auto& [id, atom] : model.atoms()) {
          if (!model.AliveNow(id) || atom.type_pos != op.type_pos) {
            stale.push_back(id);
          }
        }
        if (!stale.empty()) op.atom = stale[rng.Uniform(stale.size())];
      }
      const SimAtomTypeDef& def = w.schema.atom_types[op.type_pos];
      op.set.emplace_back(0, RandomValue(&rng, def.attrs[0].type));
      op.at = now;
    } else if (roll < 79) {  // query
      GenerateQuery(&rng, w.schema, now, options, &op);
    } else if (roll < 85) {  // transaction control
      // All randomness is drawn before branching so the stream stays
      // aligned whether or not a slot was available.
      const bool want_begin_roll = rng.Uniform(3) == 0;
      const uint32_t pick = static_cast<uint32_t>(rng.Uniform(num_slots));
      const bool commit_roll = rng.Bernoulli(0.85);
      std::vector<uint32_t> open_slots, closed_slots;
      for (uint32_t s = 0; s < num_slots; ++s) {
        (slot_open[s] ? open_slots : closed_slots).push_back(s);
      }
      bool want_begin = want_begin_roll;
      if (want_begin && closed_slots.empty()) want_begin = false;
      if (!want_begin && open_slots.empty()) want_begin = true;
      if (want_begin) {
        uint32_t s = closed_slots[pick % closed_slots.size()];
        op.kind = SimOpKind::kTxnBegin;
        op.txn_slot = static_cast<int>(s);
        slot_open[s] = 1;
      } else {
        uint32_t s = open_slots[pick % open_slots.size()];
        op.kind = commit_roll ? SimOpKind::kTxnCommit : SimOpKind::kTxnAbort;
        op.txn_slot = static_cast<int>(s);
        slot_open[s] = 0;
      }
    } else if (roll < 89) {
      op.kind = SimOpKind::kCheckpoint;
    } else if (roll < 92) {
      op.kind = SimOpKind::kReopen;
    } else if (roll < 95) {
      if (options.enable_cuts) {
        op.kind = SimOpKind::kPowerCut;
        op.cut_after_events = static_cast<uint64_t>(rng.UniformRange(2, 60));
        op.cut_mode = rng.Bernoulli(0.5) ? CutMode::kDropUnsynced
                                         : CutMode::kKeepAllTearLast;
      } else {
        GenerateQuery(&rng, w.schema, now, options, &op);
      }
    } else if (roll < 98) {
      if (options.enable_vacuum) {
        op.kind = SimOpKind::kVacuum;
        op.at = 1 + static_cast<Timestamp>(rng.Skewed(now));
        model.VacuumBefore(op.at);
      } else {
        GenerateQuery(&rng, w.schema, now, options, &op);
      }
    } else if (roll == 98) {
      // Tiering is logically invisible, so the model stays untouched —
      // every later query and dump compare still uses the same oracle.
      op.kind = options.enable_tiering ? SimOpKind::kTierMigrate
                                       : SimOpKind::kVerify;
    } else {
      op.kind = SimOpKind::kVerify;
    }
    // Scatter DML across the open transaction slots. The shadow model
    // already applied the op optimistically (as if the transaction will
    // commit); aborts and conflicts leave ghost targets behind, which
    // the harness treats like any other invalid reference (error-path
    // probes). Bad updates stay auto-commit: they probe the immediate
    // error surface, not buffering.
    switch (op.kind) {
      case SimOpKind::kInsert:
      case SimOpKind::kUpdate:
      case SimOpKind::kDelete:
      case SimOpKind::kConnect:
      case SimOpKind::kDisconnect: {
        const bool assign = rng.Bernoulli(0.45);
        const uint32_t pick = static_cast<uint32_t>(rng.Uniform(num_slots));
        if (assign && slot_open[pick]) op.txn_slot = static_cast<int>(pick);
        break;
      }
      default: break;
    }
    w.ops.push_back(std::move(op));
  }
  if (!options.enable_txns) {
    // Ablation: identical stream minus the transactional layer. Control
    // ops degrade to cheap integrity checks; DML auto-commits.
    for (SimOp& op : w.ops) {
      op.txn_slot = -1;
      if (op.kind == SimOpKind::kTxnBegin ||
          op.kind == SimOpKind::kTxnCommit ||
          op.kind == SimOpKind::kTxnAbort) {
        op.kind = SimOpKind::kVerify;
      }
    }
  }
  return w;
}

// ---- rendering --------------------------------------------------------

std::string ProjRefName(const SimSchema& schema,
                        const std::pair<uint32_t, uint32_t>& ref) {
  const SimAtomTypeDef& type = schema.atom_types[ref.first];
  return type.name + "." + type.attrs[ref.second].name;
}

std::string QueryToMql(const SimSchema& schema, const SimOp& op) {
  const SimMoleculeTypeDef& mol = schema.molecule_types[op.mol_pos];
  std::string q = "SELECT ";
  switch (op.qkind) {
    case SimQueryKind::kAllAsOf:
    case SimQueryKind::kAllWindow:
    case SimQueryKind::kAllHistory: q += "ALL"; break;
    case SimQueryKind::kCountAsOf: q += "COUNT(*)"; break;
    case SimQueryKind::kProjAsOf:
    case SimQueryKind::kProjWindow:
    case SimQueryKind::kAggAsOf: {
      for (size_t i = 0; i < op.proj.size(); ++i) {
        if (i) q += ", ";
        const std::string ref = ProjRefName(schema, op.proj[i]);
        q += op.aggs.empty() ? ref
                             : std::string(AggFnName(op.aggs[i])) + "(" +
                                   ref + ")";
      }
      break;
    }
  }
  q += " FROM " + mol.name;
  if (op.has_where) {
    const SimAtomTypeDef& t = schema.atom_types[op.where_type_pos];
    q += " WHERE " + t.name + "." + t.attrs[op.where_attr_pos].name;
    switch (op.where_op) {
      case BinaryOp::kEq: q += " = "; break;
      case BinaryOp::kNe: q += " != "; break;
      case BinaryOp::kLt: q += " < "; break;
      case BinaryOp::kLe: q += " <= "; break;
      case BinaryOp::kGt: q += " > "; break;
      default: q += " >= "; break;
    }
    q += std::to_string(op.where_lit);
  }
  if (op.group_by_root) q += " GROUP BY ROOT";
  if (op.order_by >= 0) {
    q += " ORDER BY " + ProjRefName(schema, op.proj[op.order_by]);
    if (op.order_desc) q += " DESC";
  }
  switch (op.qkind) {
    case SimQueryKind::kAllAsOf:
    case SimQueryKind::kCountAsOf:
    case SimQueryKind::kProjAsOf:
    case SimQueryKind::kAggAsOf:
      q += " VALID AT " + std::to_string(op.q_at);
      break;
    case SimQueryKind::kAllWindow:
    case SimQueryKind::kProjWindow:
      q += " VALID IN [" + std::to_string(op.q_window.begin) + ", " +
           std::to_string(op.q_window.end) + ")";
      break;
    case SimQueryKind::kAllHistory: q += " HISTORY"; break;
  }
  return q;
}

std::string OpToString(const SimSchema& schema, const SimOp& op) {
  auto type_name = [&](uint32_t pos) { return schema.atom_types[pos].name; };
  auto slot_tag = [&]() {
    return op.txn_slot >= 0 ? " [txn slot " + std::to_string(op.txn_slot) + "]"
                            : std::string();
  };
  auto render_set = [&](uint32_t type_pos) {
    std::string s;
    for (const auto& [pos, value] : op.set) {
      if (!s.empty()) s += ", ";
      s += schema.atom_types[type_pos].attrs[pos].name + "=" +
           value.ToString();
    }
    return s;
  };
  switch (op.kind) {
    case SimOpKind::kInsert:
      return "insert " + type_name(op.type_pos) + " #" +
             std::to_string(op.atom) + " {" + render_set(op.type_pos) +
             "} @" + std::to_string(op.at) + slot_tag();
    case SimOpKind::kUpdate:
    case SimOpKind::kBadUpdate:
      return std::string(op.kind == SimOpKind::kUpdate ? "update "
                                                       : "bad-update ") +
             type_name(op.type_pos) + " #" + std::to_string(op.atom) + " {" +
             render_set(op.type_pos) + "} @" + std::to_string(op.at) +
             slot_tag();
    case SimOpKind::kDelete:
      return "delete " + type_name(op.type_pos) + " #" +
             std::to_string(op.atom) + " @" + std::to_string(op.at) +
             slot_tag();
    case SimOpKind::kConnect:
    case SimOpKind::kDisconnect:
      return std::string(op.kind == SimOpKind::kConnect ? "connect "
                                                        : "disconnect ") +
             schema.link_types[op.link_pos].name + " #" +
             std::to_string(op.from) + " -> #" + std::to_string(op.to) +
             " @" + std::to_string(op.at) + slot_tag();
    case SimOpKind::kCheckpoint: return "checkpoint";
    case SimOpKind::kReopen: return "reopen";
    case SimOpKind::kPowerCut:
      return "power-cut after " + std::to_string(op.cut_after_events) +
             " events mode=" +
             (op.cut_mode == CutMode::kDropUnsynced ? "drop-unsynced"
                                                    : "keep-all-tear-last");
    case SimOpKind::kVacuum: return "vacuum before " + std::to_string(op.at);
    case SimOpKind::kTxnBegin: return "txn-begin" + slot_tag();
    case SimOpKind::kTxnCommit: return "txn-commit" + slot_tag();
    case SimOpKind::kTxnAbort: return "txn-abort" + slot_tag();
    case SimOpKind::kTierMigrate: return "tier-migrate";
    case SimOpKind::kVerify: return "verify-integrity";
    case SimOpKind::kQuery: {
      std::string q = "query: " + QueryToMql(schema, op);
      if (op.deadline_micros > 0) {
        q += " [deadline=" + std::to_string(op.deadline_micros) + "us]";
      }
      if (op.cancel) q += " [cancel]";
      if (op.transient_read_failures > 0) {
        q += " [transient-eio=" + std::to_string(op.transient_read_failures) +
             "]";
      }
      return q;
    }
  }
  return "?";
}

std::string WorkloadToString(const SimWorkload& w) {
  std::string out = "seed=" + std::to_string(w.seed) + "\nschema:\n";
  for (const SimAtomTypeDef& t : w.schema.atom_types) {
    out += "  atom " + t.name + " (";
    for (size_t i = 0; i < t.attrs.size(); ++i) {
      if (i) out += ", ";
      out += t.attrs[i].name + " " + AttrTypeName(t.attrs[i].type);
    }
    out += ")\n";
  }
  for (const SimLinkTypeDef& l : w.schema.link_types) {
    out += "  link " + l.name + " " + w.schema.atom_types[l.from_pos].name +
           " -> " + w.schema.atom_types[l.to_pos].name + "\n";
  }
  for (const SimMoleculeTypeDef& m : w.schema.molecule_types) {
    out += "  molecule " + m.name + " root " +
           w.schema.atom_types[m.root_pos].name + " edges [";
    for (size_t i = 0; i < m.edges.size(); ++i) {
      if (i) out += ", ";
      out += w.schema.link_types[m.edges[i].first].name +
             (m.edges[i].second ? "" : "^-1");
    }
    out += "]\n";
  }
  for (const SimIndexDef& ix : w.schema.indexes) {
    out += "  index " + ix.name + " on " +
           w.schema.atom_types[ix.type_pos].name + "." +
           w.schema.atom_types[ix.type_pos].attrs[ix.attr_pos].name + "\n";
  }
  out += "ops (" + std::to_string(w.ops.size()) + "):\n";
  for (size_t i = 0; i < w.ops.size(); ++i) {
    out += "  [" + std::to_string(i) + "] " + OpToString(w.schema, w.ops[i]) +
           "\n";
  }
  return out;
}

void CanonicalizeAtomIds(std::vector<SimOp>* ops) {
  std::map<AtomId, AtomId> remap;
  AtomId next = 1;
  for (const SimOp& op : *ops) {
    if (op.kind == SimOpKind::kInsert) remap[op.atom] = next++;
  }
  auto fix = [&](AtomId id) -> AtomId {
    if (id == 0 || id >= kDanglingBase) return id;  // already dangling
    auto it = remap.find(id);
    return it != remap.end() ? it->second : kDanglingBase + id;
  };
  for (SimOp& op : *ops) {
    switch (op.kind) {
      case SimOpKind::kInsert:
        op.atom = remap.at(op.atom);
        break;
      case SimOpKind::kUpdate:
      case SimOpKind::kBadUpdate:
      case SimOpKind::kDelete:
        op.atom = fix(op.atom);
        break;
      case SimOpKind::kConnect:
      case SimOpKind::kDisconnect:
        op.from = fix(op.from);
        op.to = fix(op.to);
        break;
      default: break;
    }
  }
}

}  // namespace tcob::sim
