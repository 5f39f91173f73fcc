// Seeded data generator and result oracle of the TCOB benchmark.
//
// The generator loads a company database (Dept -DeptEmp-> Emp -EmpProj->
// Proj, molecule type DeptMol, a unique index on Dept.code) through the
// public Database API and keeps a model of every version it wrote. The
// oracle derives from that model the exact rows each benchmark statement
// must return, reduced to a row count plus an order-insensitive checksum.
#ifndef TCOBBENCH_MODEL_H_
#define TCOBBENCH_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "db/database.h"

namespace tcobbench {

using tcob::AtomId;
using tcob::Interval;
using tcob::Timestamp;
using tcob::Value;

/// Shape and history of the generated database.
struct GenConfig {
  size_t depts = 100;
  size_t emps_per_dept = 8;
  /// Update rounds after the initial load; round r runs in
  /// [base + r*stride, base + (r+1)*stride).
  uint32_t rounds = 8;
  double emp_update_prob = 0.8;
  double dept_update_prob = 0.3;
  double proj_update_prob = 0.2;
  /// Extra bytes in every name/title, to size records.
  size_t pad = 16;
};

enum class Kind { kDept, kEmp, kProj };

/// Atom type name of `k` in the generated schema.
const char* TypeName(Kind k);

/// One modelled atom version. `begin` is kPending for a version whose
/// stamp the engine chose at commit (VALID FROM NOW under concurrency).
struct ModelVersion {
  Timestamp begin = 0;
  std::vector<Value> attrs;
};

struct ModelAtom {
  Kind kind = Kind::kDept;
  AtomId id = 0;
  std::vector<ModelVersion> versions;
};

/// One department molecule: the root, its employees and their projects
/// (indices into Model::atoms()).
struct ModelDept {
  size_t root = 0;
  std::string code;
  std::vector<size_t> emps;
  std::vector<size_t> projs;
};

/// Row count plus order-insensitive checksum of a result.
struct RowDigest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  void Add(const std::vector<Value>& row);
  bool operator==(const RowDigest& o) const {
    return rows == o.rows && sum == o.sum;
  }
};

/// A maximal constant state of one molecule: its interval (clipped to the
/// query window) and, per molecule atom, the index of its version.
struct MoleculeState {
  Interval valid;
  std::vector<size_t> version_of;  // parallel to MoleculeAtoms()
};

class Model {
 public:
  static constexpr Timestamp kPending = tcob::kForever - 1;
  static constexpr Timestamp kBase = 10;
  static constexpr Timestamp kStride = 16;

  /// Creates the schema and loads the generated history into `db` (an
  /// empty database), recording every version.
  tcob::Status Load(tcob::Database* db, const GenConfig& config,
                    uint64_t seed);

  const std::vector<ModelAtom>& atoms() const { return atoms_; }
  const std::vector<ModelDept>& depts() const { return depts_; }
  /// Last instant stamped by the load (past-instant queries pick from
  /// [kBase, load_end]).
  Timestamp load_end() const { return load_end_; }
  /// Payload bytes of every version and link the generator wrote
  /// (strings: length; INT: 8 bytes; link: 16 bytes).
  uint64_t UserBytes() const;

  /// Records a committed salary change of employee atom `atom`.
  void AddEmpVersion(size_t atom, Timestamp begin, int64_t salary);
  int64_t CurrentSalary(size_t atom) const;

  // ---- expected results of the benchmark statements ----

  /// SELECT ALL FROM DeptMol WHERE Dept.code = '<code>' VALID AT t|NOW.
  RowDigest SliceByCode(const ModelDept& dept, Timestamp t, bool now) const;
  /// SELECT ALL FROM DeptMol WHERE Dept.code = '<code>' VALID IN [a, b).
  RowDigest WindowByCode(const ModelDept& dept, const Interval& w) const;
  /// SELECT Emp.salary FROM DeptMol [WHERE Emp.salary > min] HISTORY.
  RowDigest HistorySalaries(int64_t min) const;
  /// SELECT Dept.budget, Emp.salary FROM DeptMol VALID IN [a, b).
  RowDigest WindowBudgetSalary(const Interval& w) const;
  /// SELECT COUNT(*), SUM(Emp.salary), MAX(Emp.salary) FROM DeptMol
  /// GROUP BY ROOT VALID IN [a, b).
  RowDigest GroupByRootWindow(const Interval& w) const;
  /// SELECT Emp.name, Emp.salary FROM DeptMol ORDER BY Emp.salary DESC
  /// VALID AT t.
  RowDigest EmpSalariesAt(Timestamp t) const;
  /// SELECT ALL FROM DeptMol VALID AT t.
  RowDigest FullSliceAt(Timestamp t) const;

 private:
  size_t AddAtom(tcob::Database* db, Kind kind, std::vector<Value> attrs,
                 tcob::Status* st);
  /// Molecule atoms of `dept` in a fixed order: root, emps, projs.
  std::vector<size_t> MoleculeAtoms(const ModelDept& dept) const;
  /// Version of atom `a` valid at `t`; `now` selects the newest one.
  size_t VersionAt(size_t a, Timestamp t, bool now) const;
  /// The constant states of `dept`'s molecule overlapping `window`.
  std::vector<MoleculeState> States(const ModelDept& dept,
                                    const Interval& window) const;
  void AddAtomRows(const ModelDept& dept, size_t a, size_t v,
                   const Interval* state, RowDigest* out) const;
  static uint64_t PayloadBytes(const std::vector<Value>& attrs);

  std::vector<ModelAtom> atoms_;
  std::vector<ModelDept> depts_;
  Timestamp load_end_ = kBase;
  uint64_t link_bytes_ = 0;
};

}  // namespace tcobbench

#endif  // TCOBBENCH_MODEL_H_
