#include "model.h"

#include <algorithm>
#include <random>
#include <tuple>

namespace tcobbench {
namespace {

using tcob::AttrType;
using tcob::Status;

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Attribute positions of the generated schema.
constexpr size_t kDeptBudget = 2;
constexpr size_t kEmpName = 0;
constexpr size_t kEmpSalary = 1;
constexpr size_t kProjBudget = 1;

/// Text of the attribute list the engine renders for SELECT ALL rows.
std::string RenderAttrs(Kind kind, const std::vector<Value>& attrs) {
  static const std::vector<std::string> kNames[] = {
      {"code", "name", "budget"}, {"name", "salary", "rank"},
      {"title", "budget"}};
  const std::vector<std::string>& names = kNames[static_cast<int>(kind)];
  std::string out;
  for (size_t i = 0; i < names.size() && i < attrs.size(); ++i) {
    if (i) out += ", ";
    out += names[i] + "=" + attrs[i].ToString();
  }
  return out;
}

}  // namespace

const char* TypeName(Kind k) {
  switch (k) {
    case Kind::kDept:
      return "Dept";
    case Kind::kEmp:
      return "Emp";
    case Kind::kProj:
      return "Proj";
  }
  return "?";
}

void RowDigest::Add(const std::vector<Value>& row) {
  uint64_t h = 1469598103934665603ULL;
  for (const Value& v : row) {
    for (unsigned char c : v.ToString()) {
      h = (h ^ c) * 1099511628211ULL;
    }
    h = (h ^ 0x1f) * 1099511628211ULL;
  }
  ++rows;
  sum += Mix(h);
}


uint64_t Model::PayloadBytes(const std::vector<Value>& attrs) {
  uint64_t n = 0;
  for (const Value& v : attrs) {
    n += v.type() == AttrType::kString ? v.AsString().size() : 8;
  }
  return n;
}

size_t Model::AddAtom(tcob::Database* db, Kind kind, std::vector<Value> attrs,
                      Status* st) {
  tcob::Result<AtomId> id =
      db->InsertAtomValues(TypeName(kind), attrs, kBase);
  if (!id.ok()) {
    *st = id.status();
    return 0;
  }
  atoms_.push_back(ModelAtom{kind, id.value(), {{kBase, std::move(attrs)}}});
  return atoms_.size() - 1;
}

Status Model::Load(tcob::Database* db, const GenConfig& config,
                   uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto below = [&](uint64_t n) { return rng() % n; };
  auto chance = [&](double p) {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53 < p;
  };
  const std::string pad(config.pad, 'x');

  TCOB_RETURN_NOT_OK(db->CreateAtomType(
                           "Dept", {{"code", AttrType::kString},
                                    {"name", AttrType::kString},
                                    {"budget", AttrType::kInt}})
                         .status());
  TCOB_RETURN_NOT_OK(db->CreateAtomType("Emp", {{"name", AttrType::kString},
                                                {"salary", AttrType::kInt},
                                                {"rank", AttrType::kInt}})
                         .status());
  TCOB_RETURN_NOT_OK(db->CreateAtomType("Proj", {{"title", AttrType::kString},
                                                 {"budget", AttrType::kInt}})
                         .status());
  TCOB_RETURN_NOT_OK(db->CreateLinkType("DeptEmp", "Dept", "Emp").status());
  TCOB_RETURN_NOT_OK(db->CreateLinkType("EmpProj", "Emp", "Proj").status());
  TCOB_RETURN_NOT_OK(
      db->CreateMoleculeType("DeptMol", "Dept",
                             {{"DeptEmp", true}, {"EmpProj", true}})
          .status());
  TCOB_RETURN_NOT_OK(db->CreateAttrIndex("dept_code", "Dept", "code").status());

  Status st;
  for (size_t d = 0; d < config.depts; ++d) {
    ModelDept dept;
    char code[32];
    std::snprintf(code, sizeof(code), "D%05zu", d);
    dept.code = code;
    dept.root = AddAtom(db, Kind::kDept,
                        {Value::String(dept.code),
                         Value::String("dept-" + std::to_string(d) + pad),
                         Value::Int(1000 + static_cast<int64_t>(below(9000)))},
                        &st);
    TCOB_RETURN_NOT_OK(st);
    for (size_t e = 0; e < config.emps_per_dept; ++e) {
      const std::string tag = std::to_string(d) + "-" + std::to_string(e);
      size_t emp = AddAtom(
          db, Kind::kEmp,
          {Value::String("emp-" + tag + pad),
           Value::Int(1000 + static_cast<int64_t>(below(5000))),
           Value::Int(static_cast<int64_t>(below(10)))},
          &st);
      TCOB_RETURN_NOT_OK(st);
      size_t proj = AddAtom(
          db, Kind::kProj,
          {Value::String("proj-" + tag + pad),
           Value::Int(100 + static_cast<int64_t>(below(900)))},
          &st);
      TCOB_RETURN_NOT_OK(st);
      TCOB_RETURN_NOT_OK(db->Connect("DeptEmp", atoms_[dept.root].id,
                                     atoms_[emp].id, kBase));
      TCOB_RETURN_NOT_OK(
          db->Connect("EmpProj", atoms_[emp].id, atoms_[proj].id, kBase));
      link_bytes_ += 32;
      dept.emps.push_back(emp);
      dept.projs.push_back(proj);
    }
    depts_.push_back(std::move(dept));
  }

  // Update rounds: every draw happens before the round is sorted into
  // time order, so the history depends on the seed alone.
  struct Change {
    Timestamp at;
    size_t atom;
    int64_t delta;
  };
  for (uint32_t r = 1; r <= config.rounds; ++r) {
    std::vector<Change> round;
    for (size_t a = 0; a < atoms_.size(); ++a) {
      double p = atoms_[a].kind == Kind::kEmp    ? config.emp_update_prob
                 : atoms_[a].kind == Kind::kDept ? config.dept_update_prob
                                                 : config.proj_update_prob;
      if (!chance(p)) continue;
      Timestamp at = kBase + r * kStride + below(kStride);
      round.push_back({at, a, 1 + static_cast<int64_t>(below(400))});
    }
    std::sort(round.begin(), round.end(), [](const Change& x, const Change& y) {
      return std::tie(x.at, x.atom) < std::tie(y.at, y.atom);
    });
    for (const Change& c : round) {
      ModelAtom& atom = atoms_[c.atom];
      std::vector<Value> attrs = atom.versions.back().attrs;
      size_t field = atom.kind == Kind::kEmp    ? kEmpSalary
                     : atom.kind == Kind::kDept ? kDeptBudget
                                                : kProjBudget;
      attrs[field] = Value::Int(attrs[field].AsInt() + c.delta);
      TCOB_RETURN_NOT_OK(
          db->UpdateAtomValues(TypeName(atom.kind), atom.id, attrs, c.at));
      atom.versions.push_back({c.at, std::move(attrs)});
      load_end_ = std::max(load_end_, c.at);
    }
  }
  return Status::OK();
}

void Model::AddEmpVersion(size_t atom, Timestamp begin, int64_t salary) {
  std::vector<Value> attrs = atoms_[atom].versions.back().attrs;
  attrs[kEmpSalary] = Value::Int(salary);
  atoms_[atom].versions.push_back({begin, std::move(attrs)});
}

int64_t Model::CurrentSalary(size_t atom) const {
  return atoms_[atom].versions.back().attrs[kEmpSalary].AsInt();
}

uint64_t Model::UserBytes() const {
  uint64_t n = link_bytes_;
  for (const ModelAtom& a : atoms_) {
    for (const ModelVersion& v : a.versions) n += PayloadBytes(v.attrs);
  }
  return n;
}

std::vector<size_t> Model::MoleculeAtoms(const ModelDept& dept) const {
  std::vector<size_t> out{dept.root};
  out.insert(out.end(), dept.emps.begin(), dept.emps.end());
  out.insert(out.end(), dept.projs.begin(), dept.projs.end());
  return out;
}

size_t Model::VersionAt(size_t a, Timestamp t, bool now) const {
  const std::vector<ModelVersion>& vs = atoms_[a].versions;
  if (now) return vs.size() - 1;
  size_t v = 0;
  while (v + 1 < vs.size() && vs[v + 1].begin <= t) ++v;
  return v;
}

std::vector<MoleculeState> Model::States(const ModelDept& dept,
                                         const Interval& window) const {
  const std::vector<size_t> mol = MoleculeAtoms(dept);
  const Timestamp lo = std::max(window.begin, kBase);
  const Timestamp hi = window.end;
  std::vector<MoleculeState> out;
  if (lo >= hi) return out;
  std::vector<Timestamp> points{lo};
  for (size_t a : mol) {
    for (const ModelVersion& v : atoms_[a].versions) {
      if (v.begin > lo && v.begin < hi) points.push_back(v.begin);
    }
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  for (size_t i = 0; i < points.size(); ++i) {
    MoleculeState s;
    s.valid = Interval(points[i], i + 1 < points.size() ? points[i + 1] : hi);
    for (size_t a : mol) s.version_of.push_back(VersionAt(a, points[i], false));
    out.push_back(std::move(s));
  }
  return out;
}

void Model::AddAtomRows(const ModelDept& dept, size_t a, size_t v,
                        const Interval* state, RowDigest* out) const {
  const ModelAtom& atom = atoms_[a];
  std::vector<Value> row{Value::Id(atoms_[dept.root].id)};
  if (state != nullptr) {
    row.push_back(Value::Time(state->begin));
    row.push_back(Value::Time(state->end));
  }
  row.push_back(Value::Id(atom.id));
  row.push_back(Value::String(TypeName(atom.kind)));
  row.push_back(Value::String(RenderAttrs(atom.kind, atom.versions[v].attrs)));
  out->Add(row);
}

RowDigest Model::SliceByCode(const ModelDept& dept, Timestamp t,
                             bool now) const {
  RowDigest out;
  for (size_t a : MoleculeAtoms(dept)) {
    AddAtomRows(dept, a, VersionAt(a, t, now), nullptr, &out);
  }
  return out;
}

RowDigest Model::WindowByCode(const ModelDept& dept, const Interval& w) const {
  RowDigest out;
  const std::vector<size_t> mol = MoleculeAtoms(dept);
  for (const MoleculeState& s : States(dept, w)) {
    for (size_t i = 0; i < mol.size(); ++i) {
      AddAtomRows(dept, mol[i], s.version_of[i], &s.valid, &out);
    }
  }
  return out;
}

// In MoleculeAtoms order the employees sit at positions 1..emps.size().

RowDigest Model::HistorySalaries(int64_t min) const {
  RowDigest out;
  for (const ModelDept& dept : depts_) {
    const Value root = Value::Id(atoms_[dept.root].id);
    for (const MoleculeState& s : States(dept, Interval::All())) {
      for (size_t e = 0; e < dept.emps.size(); ++e) {
        const Value& salary = atoms_[dept.emps[e]]
                                  .versions[s.version_of[1 + e]]
                                  .attrs[kEmpSalary];
        if (salary.AsInt() <= min) continue;
        out.Add({root, Value::Time(s.valid.begin), Value::Time(s.valid.end),
                 salary});
      }
    }
  }
  return out;
}

RowDigest Model::WindowBudgetSalary(const Interval& w) const {
  RowDigest out;
  for (const ModelDept& dept : depts_) {
    const Value root = Value::Id(atoms_[dept.root].id);
    for (const MoleculeState& s : States(dept, w)) {
      const Value& budget =
          atoms_[dept.root].versions[s.version_of[0]].attrs[kDeptBudget];
      for (size_t e = 0; e < dept.emps.size(); ++e) {
        out.Add({root, Value::Time(s.valid.begin), Value::Time(s.valid.end),
                 budget,
                 atoms_[dept.emps[e]]
                     .versions[s.version_of[1 + e]]
                     .attrs[kEmpSalary]});
      }
    }
  }
  return out;
}

RowDigest Model::GroupByRootWindow(const Interval& w) const {
  RowDigest out;
  for (const ModelDept& dept : depts_) {
    int64_t count = 0;
    int64_t sum = 0;
    int64_t max = 0;
    for (const MoleculeState& s : States(dept, w)) {
      for (size_t e = 0; e < dept.emps.size(); ++e) {
        int64_t salary = atoms_[dept.emps[e]]
                             .versions[s.version_of[1 + e]]
                             .attrs[kEmpSalary]
                             .AsInt();
        max = count == 0 ? salary : std::max(max, salary);
        sum += salary;
        ++count;
      }
    }
    if (count == 0) continue;
    out.Add({Value::Id(atoms_[dept.root].id), Value::Int(count),
             Value::Double(static_cast<double>(sum)), Value::Int(max)});
  }
  return out;
}

RowDigest Model::EmpSalariesAt(Timestamp t) const {
  RowDigest out;
  for (const ModelDept& dept : depts_) {
    const Value root = Value::Id(atoms_[dept.root].id);
    for (size_t emp : dept.emps) {
      const std::vector<Value>& attrs =
          atoms_[emp].versions[VersionAt(emp, t, false)].attrs;
      out.Add({root, attrs[kEmpName], attrs[kEmpSalary]});
    }
  }
  return out;
}

RowDigest Model::FullSliceAt(Timestamp t) const {
  RowDigest out;
  for (const ModelDept& dept : depts_) {
    RowDigest d = SliceByCode(dept, t, false);
    out.rows += d.rows;
    out.sum += d.sum;
  }
  return out;
}

}  // namespace tcobbench
