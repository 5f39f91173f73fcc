#include "mad/materializer.h"

#include <gtest/gtest.h>

#include "common/temp_dir.h"
#include "common/thread_pool.h"
#include "tstore/store_factory.h"

namespace tcob {
namespace {

/// Builds the Dept-Emp-Proj network directly on the stores (no Database
/// facade) so the molecule engine is tested in isolation, parameterized
/// over all storage strategies.
class MaterializerTest : public ::testing::TestWithParam<StorageStrategy> {
 protected:
  void SetUp() override {
    auto dm = DiskManager::Open(dir_.path() + "/db");
    ASSERT_TRUE(dm.ok());
    disk_ = std::move(dm).value();
    pool_ = std::make_unique<BufferPool>(disk_.get(), 512);
    store_ = MakeTemporalStore(GetParam(), pool_.get(), "store", {});
    links_ = std::make_unique<LinkStore>(pool_.get(), "links");

    dept_ = catalog_.CreateAtomType("Dept", {{"name", AttrType::kString},
                                             {"budget", AttrType::kInt}})
                .value();
    emp_ = catalog_.CreateAtomType("Emp", {{"name", AttrType::kString},
                                           {"salary", AttrType::kInt}})
               .value();
    proj_ = catalog_.CreateAtomType("Proj", {{"title", AttrType::kString}})
                .value();
    dept_emp_ = catalog_.CreateLinkType("DeptEmp", dept_, emp_).value();
    emp_proj_ = catalog_.CreateLinkType("EmpProj", emp_, proj_).value();
    mol_ = catalog_.CreateMoleculeType("DeptMol", dept_,
                                       {{dept_emp_, true}, {emp_proj_, true}})
               .value();
    mat_ = std::make_unique<Materializer>(&catalog_, store_.get(),
                                          links_.get());
  }

  const AtomTypeDef& DeptT() { return *catalog_.GetAtomType(dept_).value(); }
  const AtomTypeDef& EmpT() { return *catalog_.GetAtomType(emp_).value(); }
  const AtomTypeDef& ProjT() { return *catalog_.GetAtomType(proj_).value(); }
  const LinkTypeDef& DE() { return *catalog_.GetLinkType(dept_emp_).value(); }
  const LinkTypeDef& EP() { return *catalog_.GetLinkType(emp_proj_).value(); }
  const MoleculeTypeDef& Mol() {
    return *catalog_.GetMoleculeType(mol_).value();
  }

  /// dept #1 with emps #2, #3; emp #2 on proj #4. All at t=10.
  void BuildSmallNetwork() {
    ASSERT_TRUE(store_->Insert(DeptT(), 1,
                               {Value::String("R&D"), Value::Int(500)}, 10)
                    .ok());
    ASSERT_TRUE(store_->Insert(EmpT(), 2,
                               {Value::String("ada"), Value::Int(100)}, 10)
                    .ok());
    ASSERT_TRUE(store_->Insert(EmpT(), 3,
                               {Value::String("bob"), Value::Int(90)}, 10)
                    .ok());
    ASSERT_TRUE(
        store_->Insert(ProjT(), 4, {Value::String("compiler")}, 10).ok());
    ASSERT_TRUE(links_->Connect(DE(), 1, 2, 10).ok());
    ASSERT_TRUE(links_->Connect(DE(), 1, 3, 10).ok());
    ASSERT_TRUE(links_->Connect(EP(), 2, 4, 10).ok());
  }

  TempDir dir_;
  Catalog catalog_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<TemporalAtomStore> store_;
  std::unique_ptr<LinkStore> links_;
  std::unique_ptr<Materializer> mat_;
  TypeId dept_, emp_, proj_;
  LinkTypeId dept_emp_, emp_proj_;
  MoleculeTypeId mol_;
};

TEST_P(MaterializerTest, MaterializeCollectsConnectedAtoms) {
  BuildSmallNetwork();
  Molecule mol = mat_->MaterializeAsOf(Mol(), 1, 20).value();
  EXPECT_EQ(mol.root, 1u);
  EXPECT_EQ(mol.AtomCount(), 4u);
  EXPECT_EQ(mol.edges.size(), 3u);
  EXPECT_TRUE(mol.atoms.count(2));
  EXPECT_TRUE(mol.atoms.count(4));
}

TEST_P(MaterializerTest, MaterializeBeforeBirthFails) {
  BuildSmallNetwork();
  EXPECT_TRUE(mat_->MaterializeAsOf(Mol(), 1, 5).status().IsNotFound());
  EXPECT_TRUE(mat_->MaterializeAsOf(Mol(), 99, 20).status().IsNotFound());
}

TEST_P(MaterializerTest, TimeSliceSeesLinkChanges) {
  BuildSmallNetwork();
  // Emp #3 leaves the department at 30.
  ASSERT_TRUE(links_->Disconnect(DE(), 1, 3, 30).ok());
  Molecule before = mat_->MaterializeAsOf(Mol(), 1, 25).value();
  Molecule after = mat_->MaterializeAsOf(Mol(), 1, 35).value();
  EXPECT_EQ(before.AtomCount(), 4u);
  EXPECT_EQ(after.AtomCount(), 3u);
  EXPECT_FALSE(after.atoms.count(3));
}

TEST_P(MaterializerTest, TimeSliceSeesAtomVersions) {
  BuildSmallNetwork();
  ASSERT_TRUE(store_->Update(EmpT(), 2,
                             {Value::String("ada"), Value::Int(200)}, 30)
                  .ok());
  Molecule before = mat_->MaterializeAsOf(Mol(), 1, 20).value();
  Molecule after = mat_->MaterializeAsOf(Mol(), 1, 40).value();
  EXPECT_EQ(before.atoms.at(2).attrs[1].AsInt(), 100);
  EXPECT_EQ(after.atoms.at(2).attrs[1].AsInt(), 200);
  EXPECT_EQ(after.atoms.at(2).version_no, 2u);
}

TEST_P(MaterializerTest, DanglingLinkToDeadAtomSkipped) {
  BuildSmallNetwork();
  ASSERT_TRUE(store_->Delete(EmpT(), 3, 30).ok());
  // The link #1->#3 is still open, but atom #3 has no version at 35.
  Molecule mol = mat_->MaterializeAsOf(Mol(), 1, 35).value();
  EXPECT_EQ(mol.AtomCount(), 3u);
  EXPECT_FALSE(mol.atoms.count(3));
}

TEST_P(MaterializerTest, AllMoleculesAsOfStreamsEachRoot) {
  BuildSmallNetwork();
  ASSERT_TRUE(store_->Insert(DeptT(), 5,
                             {Value::String("Sales"), Value::Int(300)}, 10)
                  .ok());
  size_t count = 0;
  ASSERT_TRUE(mat_->AllMoleculesAsOf(Mol(), 20, [&](Molecule m) {
                     ++count;
                     EXPECT_TRUE(m.root == 1 || m.root == 5);
                     return Result<bool>(true);
                   })
                  .ok());
  EXPECT_EQ(count, 2u);
}

TEST_P(MaterializerTest, HistoryCapturesAtomChange) {
  BuildSmallNetwork();
  ASSERT_TRUE(store_->Update(EmpT(), 2,
                             {Value::String("ada"), Value::Int(200)}, 30)
                  .ok());
  MoleculeHistory h = mat_->History(Mol(), 1, Interval(10, 50)).value();
  ASSERT_EQ(h.states.size(), 2u);
  EXPECT_EQ(h.states[0].valid, Interval(10, 30));
  EXPECT_EQ(h.states[1].valid, Interval(30, 50));
  EXPECT_EQ(h.states[0].molecule.atoms.at(2).attrs[1].AsInt(), 100);
  EXPECT_EQ(h.states[1].molecule.atoms.at(2).attrs[1].AsInt(), 200);
}

TEST_P(MaterializerTest, HistoryCapturesLinkChange) {
  BuildSmallNetwork();
  ASSERT_TRUE(links_->Disconnect(DE(), 1, 3, 25).ok());
  MoleculeHistory h = mat_->History(Mol(), 1, Interval(10, 40)).value();
  ASSERT_EQ(h.states.size(), 2u);
  EXPECT_EQ(h.states[0].molecule.AtomCount(), 4u);
  EXPECT_EQ(h.states[1].molecule.AtomCount(), 3u);
  EXPECT_EQ(h.states[1].valid, Interval(25, 40));
}

TEST_P(MaterializerTest, HistoryHasGapWhenRootDead) {
  BuildSmallNetwork();
  ASSERT_TRUE(store_->Delete(DeptT(), 1, 30).ok());
  ASSERT_TRUE(store_->Insert(DeptT(), 1,
                             {Value::String("R&D2"), Value::Int(100)}, 50)
                  .ok());
  MoleculeHistory h = mat_->History(Mol(), 1, Interval(10, 70)).value();
  ASSERT_EQ(h.states.size(), 2u);
  EXPECT_EQ(h.states[0].valid, Interval(10, 30));
  EXPECT_EQ(h.states[1].valid, Interval(50, 70));
}

TEST_P(MaterializerTest, HistoryCoalescesIrrelevantChanges) {
  BuildSmallNetwork();
  // A change to an unconnected atom must not split this molecule's
  // history.
  ASSERT_TRUE(store_->Insert(EmpT(), 77,
                             {Value::String("eve"), Value::Int(1)}, 15)
                  .ok());
  ASSERT_TRUE(store_->Update(EmpT(), 77,
                             {Value::String("eve"), Value::Int(2)}, 20)
                  .ok());
  MoleculeHistory h = mat_->History(Mol(), 1, Interval(10, 40)).value();
  ASSERT_EQ(h.states.size(), 1u);
  EXPECT_EQ(h.states[0].valid, Interval(10, 40));
}

TEST_P(MaterializerTest, HistoryWindowClipsStates) {
  BuildSmallNetwork();
  ASSERT_TRUE(store_->Update(EmpT(), 2,
                             {Value::String("ada"), Value::Int(200)}, 30)
                  .ok());
  MoleculeHistory h = mat_->History(Mol(), 1, Interval(35, 45)).value();
  ASSERT_EQ(h.states.size(), 1u);
  EXPECT_EQ(h.states[0].valid, Interval(35, 45));
}

TEST_P(MaterializerTest, AllHistoriesIncludesDeadRoots) {
  BuildSmallNetwork();
  ASSERT_TRUE(store_->Delete(DeptT(), 1, 30).ok());
  size_t count = 0;
  ASSERT_TRUE(mat_->AllHistories(Mol(), Interval(40, 50),
                                 [&](MoleculeHistory) {
                                   ++count;
                                   return Result<bool>(true);
                                 })
                  .ok());
  EXPECT_EQ(count, 0u);  // dead during the window
  count = 0;
  ASSERT_TRUE(mat_->AllHistories(Mol(), Interval(10, 50),
                                 [&](MoleculeHistory h) {
                                   ++count;
                                   EXPECT_EQ(h.states.back().valid.end, 30);
                                   return Result<bool>(true);
                                 })
                  .ok());
  EXPECT_EQ(count, 1u);
}

TEST_P(MaterializerTest, SharedSubobjectAppearsInBothMolecules) {
  BuildSmallNetwork();
  // Dept #5 also employs emp #2 (shared sub-object, a network not a tree).
  ASSERT_TRUE(store_->Insert(DeptT(), 5,
                             {Value::String("Sales"), Value::Int(300)}, 10)
                  .ok());
  ASSERT_TRUE(links_->Connect(DE(), 5, 2, 10).ok());
  Molecule m1 = mat_->MaterializeAsOf(Mol(), 1, 20).value();
  Molecule m5 = mat_->MaterializeAsOf(Mol(), 5, 20).value();
  EXPECT_TRUE(m1.atoms.count(2));
  EXPECT_TRUE(m5.atoms.count(2));
  EXPECT_TRUE(m5.atoms.count(4));  // proj via shared emp
}

/// Field-by-field equality of two histories (stricter than SameState,
/// which only compares version numbers): validity pieces, every atom
/// version including attribute payloads, and the sorted edge lists.
void ExpectIdenticalHistories(const MoleculeHistory& got,
                              const MoleculeHistory& want) {
  EXPECT_EQ(got.root, want.root);
  ASSERT_EQ(got.states.size(), want.states.size());
  for (size_t i = 0; i < got.states.size(); ++i) {
    SCOPED_TRACE("state " + std::to_string(i));
    EXPECT_EQ(got.states[i].valid, want.states[i].valid);
    const Molecule& g = got.states[i].molecule;
    const Molecule& w = want.states[i].molecule;
    EXPECT_EQ(g.type, w.type);
    EXPECT_EQ(g.root, w.root);
    EXPECT_TRUE(g.edges == w.edges);
    ASSERT_EQ(g.atoms.size(), w.atoms.size());
    auto gi = g.atoms.begin();
    auto wi = w.atoms.begin();
    for (; gi != g.atoms.end(); ++gi, ++wi) {
      SCOPED_TRACE("atom " + std::to_string(wi->first));
      EXPECT_EQ(gi->first, wi->first);
      EXPECT_EQ(gi->second.id, wi->second.id);
      EXPECT_EQ(gi->second.type, wi->second.type);
      EXPECT_EQ(gi->second.version_no, wi->second.version_no);
      EXPECT_EQ(gi->second.valid, wi->second.valid);
      ASSERT_EQ(gi->second.attrs.size(), wi->second.attrs.size());
      for (size_t k = 0; k < gi->second.attrs.size(); ++k) {
        EXPECT_TRUE(gi->second.attrs[k].Equals(wi->second.attrs[k]));
      }
    }
  }
}

TEST_P(MaterializerTest, IncrementalHistoryMatchesNaiveUnderChurn) {
  BuildSmallNetwork();
  // Version churn, link churn, inner-atom death/rebirth, root
  // death/rebirth — every delta class the sweep distinguishes.
  ASSERT_TRUE(store_->Update(EmpT(), 2,
                             {Value::String("ada"), Value::Int(120)}, 15)
                  .ok());
  ASSERT_TRUE(links_->Disconnect(DE(), 1, 3, 20).ok());
  ASSERT_TRUE(store_->Update(DeptT(), 1,
                             {Value::String("R&D"), Value::Int(600)}, 25)
                  .ok());
  ASSERT_TRUE(links_->Connect(DE(), 1, 3, 28).ok());
  ASSERT_TRUE(store_->Delete(EmpT(), 3, 30).ok());
  ASSERT_TRUE(store_->Update(EmpT(), 2,
                             {Value::String("ada"), Value::Int(140)}, 35)
                  .ok());
  ASSERT_TRUE(store_->Insert(EmpT(), 3,
                             {Value::String("bob"), Value::Int(95)}, 40)
                  .ok());
  ASSERT_TRUE(links_->Disconnect(EP(), 2, 4, 45).ok());
  ASSERT_TRUE(store_->Delete(DeptT(), 1, 50).ok());
  ASSERT_TRUE(store_->Insert(DeptT(), 1,
                             {Value::String("R&D2"), Value::Int(50)}, 55)
                  .ok());
  ASSERT_TRUE(store_->Update(EmpT(), 2,
                             {Value::String("ada"), Value::Int(160)}, 60)
                  .ok());

  for (const Interval& window :
       {Interval(10, 70), Interval::All(), Interval(1, 70), Interval(12, 33),
        Interval(31, 49), Interval(51, 53), Interval(26, 27)}) {
    SCOPED_TRACE("window [" + std::to_string(window.begin) + "," +
                 std::to_string(window.end) + ")");
    auto incremental = mat_->History(Mol(), 1, window);
    auto naive = mat_->NaiveHistory(Mol(), 1, window);
    ASSERT_EQ(incremental.ok(), naive.ok());
    if (!incremental.ok()) continue;
    ExpectIdenticalHistories(incremental.value(), naive.value());
  }
}

TEST_P(MaterializerTest, CyclicMoleculeTypeHistoryMatchesNaive) {
  // Dept -> Emp -> Dept -> ... : the backward DeptEmp edge makes the
  // type graph cyclic; discovery and the sweep must still terminate and
  // agree with the naive path.
  MoleculeTypeId cyc =
      catalog_
          .CreateMoleculeType("CycleMol", dept_,
                              {{dept_emp_, true},
                               {dept_emp_, false},
                               {emp_proj_, true}})
          .value();
  const MoleculeTypeDef& cyc_def = *catalog_.GetMoleculeType(cyc).value();
  BuildSmallNetwork();
  // Dept #5 shares emp #2, so the cycle pulls a second department (and
  // its own churn) into dept #1's molecule.
  ASSERT_TRUE(store_->Insert(DeptT(), 5,
                             {Value::String("Sales"), Value::Int(300)}, 10)
                  .ok());
  ASSERT_TRUE(links_->Connect(DE(), 5, 2, 10).ok());
  ASSERT_TRUE(store_->Update(DeptT(), 5,
                             {Value::String("Sales"), Value::Int(350)}, 22)
                  .ok());
  ASSERT_TRUE(links_->Disconnect(DE(), 5, 2, 33).ok());

  MoleculeHistory h = mat_->History(cyc_def, 1, Interval(10, 40)).value();
  ASSERT_FALSE(h.states.empty());
  // Before the disconnect, dept #5 is reachable via the shared employee.
  EXPECT_TRUE(h.states.front().molecule.atoms.count(5));
  EXPECT_FALSE(h.states.back().molecule.atoms.count(5));
  ExpectIdenticalHistories(
      h, mat_->NaiveHistory(cyc_def, 1, Interval(10, 40)).value());
}

TEST_P(MaterializerTest, InnerAtomDeathShrinksRootDeathGaps) {
  BuildSmallNetwork();
  // Inner atom #3 dies at 25 while root #1 lives: the molecule shrinks
  // but its history stays contiguous.
  ASSERT_TRUE(store_->Delete(EmpT(), 3, 25).ok());
  // Root dies at 40 and returns at 55: that is a gap.
  ASSERT_TRUE(store_->Delete(DeptT(), 1, 40).ok());
  ASSERT_TRUE(store_->Insert(DeptT(), 1,
                             {Value::String("R&D2"), Value::Int(80)}, 55)
                  .ok());

  MoleculeHistory h = mat_->History(Mol(), 1, Interval(10, 70)).value();
  ASSERT_EQ(h.states.size(), 3u);
  // Shrink: [10,25) has emp #3, [25,40) does not, no gap between them.
  EXPECT_EQ(h.states[0].valid, Interval(10, 25));
  EXPECT_TRUE(h.states[0].molecule.atoms.count(3));
  EXPECT_EQ(h.states[1].valid, Interval(25, 40));
  EXPECT_FALSE(h.states[1].molecule.atoms.count(3));
  EXPECT_TRUE(h.states[0].valid.Meets(h.states[1].valid));
  // Gap: the root's death interval [40,55) yields no state at all.
  EXPECT_EQ(h.states[2].valid, Interval(55, 70));
  EXPECT_FALSE(h.states[1].valid.Meets(h.states[2].valid));

  ExpectIdenticalHistories(
      h, mat_->NaiveHistory(Mol(), 1, Interval(10, 70)).value());
}

TEST_P(MaterializerTest, IncrementalHistoryUsesFewerStoreAccesses) {
  BuildSmallNetwork();
  // A deep history: 12 updates on emp #2 produce 12 change points.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(store_->Update(EmpT(), 2,
                               {Value::String("ada"), Value::Int(100 + i)},
                               20 + i)
                    .ok());
  }
  const Interval window(10, 60);

  store_->ResetAccessStats();
  MoleculeHistory inc = mat_->History(Mol(), 1, window).value();
  const uint64_t incremental_accesses = store_->access_stats().Total();

  store_->ResetAccessStats();
  MoleculeHistory naive = mat_->NaiveHistory(Mol(), 1, window).value();
  const uint64_t naive_accesses = store_->access_stats().Total();

  ExpectIdenticalHistories(inc, naive);
  // The sweep pins each reachable atom once; the naive path re-fetches
  // every atom at every elementary interval.
  EXPECT_GE(naive_accesses, 5 * incremental_accesses)
      << "naive=" << naive_accesses
      << " incremental=" << incremental_accesses;
}

TEST_P(MaterializerTest, CallerProvidedCacheIsSharedAcrossHistories) {
  BuildSmallNetwork();
  ASSERT_TRUE(store_->Insert(DeptT(), 5,
                             {Value::String("Sales"), Value::Int(300)}, 10)
                  .ok());
  ASSERT_TRUE(links_->Connect(DE(), 5, 2, 10).ok());
  const Interval window(10, 40);

  VersionCache cache = mat_->NewCache(window);
  MoleculeHistory h1 = mat_->History(Mol(), 1, window, &cache).value();
  MoleculeHistory h5 = mat_->History(Mol(), 5, window, &cache).value();
  EXPECT_FALSE(h1.states.empty());
  EXPECT_FALSE(h5.states.empty());
  // The shared employee/project were pinned by the first history, so the
  // second one hits the cache instead of the store.
  EXPECT_GT(cache.stats().atom_hits, 0u);

  ExpectIdenticalHistories(h1, mat_->NaiveHistory(Mol(), 1, window).value());
  ExpectIdenticalHistories(h5, mat_->NaiveHistory(Mol(), 5, window).value());
}

std::string Render(const Molecule& m) {
  std::string out = std::to_string(m.root) + "{";
  for (const auto& [id, v] : m.atoms) {
    out += std::to_string(id) + "v" + std::to_string(v.version_no) + ",";
  }
  return out + std::to_string(m.edges.size()) + " edges}";
}

std::string Render(const MoleculeHistory& h) {
  std::string out = "history " + std::to_string(h.root);
  for (const MoleculeState& s : h.states) {
    out += " [" + std::to_string(s.valid.begin) + "," +
           std::to_string(s.valid.end) + ")" + Render(s.molecule);
  }
  return out;
}

TEST_P(MaterializerTest, InlineAndFanOutDriversAgree) {
  // Eight departments with one employee each; each employee gets a raise
  // at its own instant, and dept #106 closes at 25.
  std::vector<AtomId> roots;
  for (AtomId i = 0; i < 8; ++i) {
    const AtomId dept = 100 + 2 * i;
    const AtomId emp = dept + 1;
    ASSERT_TRUE(store_->Insert(DeptT(), dept,
                               {Value::String("d"), Value::Int(1)}, 10)
                    .ok());
    ASSERT_TRUE(
        store_->Insert(EmpT(), emp, {Value::String("e"), Value::Int(1)}, 10)
            .ok());
    ASSERT_TRUE(links_->Connect(DE(), dept, emp, 10).ok());
    ASSERT_TRUE(store_->Update(EmpT(), emp,
                               {Value::String("e"), Value::Int(2)},
                               20 + static_cast<Timestamp>(i))
                    .ok());
    roots.push_back(dept);
  }
  ASSERT_TRUE(store_->Delete(DeptT(), 106, 25).ok());
  roots.push_back(999);  // an index false positive: skipped

  ThreadPool pool(4);
  const Materializer inline_mat(&catalog_, store_.get(), links_.get());
  const Materializer fanned(&catalog_, store_.get(), links_.get(), &pool);

  // What one operator run delivered, then the status it returned. The
  // callback stops after `k` items or, with `fail`, errors at item `k`.
  auto drive = [&](const Materializer& m, int op, size_t k, bool fail) {
    std::vector<std::string> seen;
    auto take = [&](std::string item) -> Result<bool> {
      if (fail && seen.size() == k) {
        return Status::Internal("failed at item " + std::to_string(k));
      }
      seen.push_back(std::move(item));
      return fail || seen.size() < k;
    };
    auto take_molecule = [&](Molecule mol) { return take(Render(mol)); };
    Status s;
    switch (op) {
      case 0:
        s = m.AllMoleculesAsOf(Mol(), 30, take_molecule);
        break;
      case 1:
        s = m.MoleculesAsOf(Mol(), roots, 30, take_molecule);
        break;
      default:
        s = m.AllHistories(Mol(), Interval(10, 60), [&](MoleculeHistory h) {
          return take(Render(h));
        });
        break;
    }
    seen.push_back(s.ToString());
    return seen;
  };
  const size_t full[] = {7, 7, 8};  // dept #106 is dead at 30
  for (int op = 0; op < 3; ++op) {
    EXPECT_EQ(drive(fanned, op, 100, false).size(), full[op] + 1);
    EXPECT_FALSE(fanned.last_worker_micros().empty());
    EXPECT_EQ(drive(inline_mat, op, 100, false).size(), full[op] + 1);
    EXPECT_TRUE(inline_mat.last_worker_micros().empty());
    for (size_t k : {0, 1, 3, 6, 100}) {
      for (bool fail : {false, true}) {
        SCOPED_TRACE("op " + std::to_string(op) + " k " + std::to_string(k) +
                     (fail ? " fail" : " stop"));
        EXPECT_EQ(drive(inline_mat, op, k, fail), drive(fanned, op, k, fail));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, MaterializerTest,
                         ::testing::Values(StorageStrategy::kSnapshot,
                                           StorageStrategy::kIntegrated,
                                           StorageStrategy::kSeparated),
                         [](const auto& info) {
                           return StorageStrategyName(info.param);
                         });

}  // namespace
}  // namespace tcob
