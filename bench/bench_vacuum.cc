// Figure 13 (extension): temporal vacuuming ablation.
//
// A company database accumulates 64 versions/atom; we measure (a) the
// live version count, and (b) the cost of a current time slice and of a
// recent-window history query, before and after vacuuming everything
// older than the last quarter of the lifetime. Per strategy.
//
// Expected shape: vacuuming collapses snapshot's and integrated's
// current-slice cost toward separated's (their penalty is exactly the
// dead-version ballast the vacuum removes); separated, already flat,
// barely moves. Recent-window queries are unaffected for all three
// (their data survives the cutoff).

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "mad/materializer.h"

namespace tcob {
namespace bench {
namespace {

double TimeCurrentSlice(Database* db, const MoleculeTypeDef* mol) {
  BenchCheck(db->pool()->Reset(), "cold cache");
  WallTimer timer;
  Materializer mat = db->materializer();
  BenchCheck(mat.AllMoleculesAsOf(*mol, db->Now(),
                                  [](Molecule m) {
                                    benchmark::DoNotOptimize(m.AtomCount());
                                    return Result<bool>(true);
                                  }),
             "current slice");
  return timer.ElapsedMicros();
}

void BM_VacuumEffect(benchmark::State& state) {
  StorageStrategy strategy = static_cast<StorageStrategy>(state.range(0));
  bool vacuumed = state.range(1) != 0;
  CompanyConfig config;
  config.depts = 10;
  config.emps_per_dept = 10;
  config.versions_per_atom = 64;
  // Dedicated database per (strategy, vacuumed) cell: vary the pool-size
  // slot of the cache key by one page to separate the two variants
  // without changing any other knob.
  BenchDb* bench_db =
      GetCompanyDb(strategy, config, true, vacuumed ? 1025 : 1024);
  Database* db = bench_db->db.get();
  const MoleculeTypeDef* mol =
      db->catalog().GetMoleculeType(bench_db->handles.dept_mol).value();

  if (vacuumed) {
    // Cut away the oldest three quarters of the history (idempotent:
    // later iterations remove 0).
    Timestamp cutoff = bench_db->handles.first_time +
                       (bench_db->handles.last_time -
                        bench_db->handles.first_time) *
                           3 / 4;
    auto removed = db->VacuumBefore(cutoff);
    BenchCheck(removed.status(), "vacuum");
  }

  for (auto _ : state) {
    double micros = TimeCurrentSlice(db, mol);
    benchmark::DoNotOptimize(micros);
  }
  auto space = db->store()->SpaceStats();
  BenchCheck(space.status(), "space stats");
  state.counters["heap_pages"] = static_cast<double>(space->heap_pages);
  state.counters["index_pages"] = static_cast<double>(space->index_pages);
  state.SetLabel(std::string(StorageStrategyName(strategy)) +
                 (vacuumed ? "/vacuumed" : "/full_history"));
}

BENCHMARK(BM_VacuumEffect)
    ->ArgNames({"strategy", "vacuumed"})
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// Cold-history tiering ablation (Figure 13 extension, part 2).
//
// Same 64-versions/atom database; roughly the oldest three quarters of
// the history is migrated to delta-compressed cold segments. Two query
// shapes per (strategy, tiered) cell:
//   hot_tail:   a current time slice — touches only live/hot versions,
//               so tiering must PRUNE every cold segment and shed the
//               dead-version ballast from the hot stores.
//   long_range: full-lifetime histories — must decode cold segments,
//               paying the merge cost for byte-identical results.
// Counters expose the mechanism: per-iteration store accesses, page
// fetches and segment prune/scan counts, plus the static cold/hot
// on-disk page split and the migration compression ratio.
void BM_TieringEffect(benchmark::State& state) {
  StorageStrategy strategy = static_cast<StorageStrategy>(state.range(0));
  bool tiered = state.range(1) != 0;
  bool hot_tail = state.range(2) != 0;
  CompanyConfig config;
  config.depts = 10;
  config.emps_per_dept = 10;
  config.versions_per_atom = 64;
  uint32_t versions = config.versions_per_atom;
  if (BenchSmoke()) versions = std::min<uint32_t>(versions, 4);
  TieringOptions tiering;
  tiering.enabled = tiered;
  // Watermark = a quarter of the recorded lifetime back from "now":
  // the newest quarter stays hot, everything older is cold-eligible.
  tiering.cold_age = static_cast<Timestamp>(versions) * config.stride / 4;
  BenchDb* bench_db = GetCompanyDb(strategy, config, true, 1024, tiering);
  Database* db = bench_db->db.get();
  const MoleculeTypeDef* mol =
      db->catalog().GetMoleculeType(bench_db->handles.dept_mol).value();

  if (tiered) {
    // Idempotent across cells sharing this database: later calls find
    // nothing left to migrate.
    auto migrated = db->TierMigrate();
    BenchCheck(migrated.status(), "tier migrate");
  }

  const Interval lifetime{bench_db->handles.first_time,
                          bench_db->handles.last_time + 1};
  // Each measured query runs under a query scope, so `work` meters
  // exactly their storage work.
  QueryWork work;
  for (auto _ : state) {
    BenchCheck(db->pool()->Reset(), "cold cache");
    TraceQueryScope meter(QueryTag{0, &work});
    Materializer mat = db->materializer();
    if (hot_tail) {
      BenchCheck(mat.AllMoleculesAsOf(*mol, db->Now(),
                                      [](Molecule m) {
                                        benchmark::DoNotOptimize(m.AtomCount());
                                        return Result<bool>(true);
                                      }),
                 "hot-tail slice");
    } else {
      BenchCheck(mat.AllHistories(*mol, lifetime,
                                  [](MoleculeHistory h) {
                                    benchmark::DoNotOptimize(h.states.size());
                                    return Result<bool>(true);
                                  }),
                 "long-range history");
    }
  }
  const ColdTierAccessStats cold = ColdTierAccessStats::Of(work);
  const double iters =
      state.iterations() > 0 ? static_cast<double>(state.iterations()) : 1.0;
  state.counters["store_accesses"] =
      static_cast<double>(StoreAccessStats::Of(work).Total()) / iters;
  state.counters["pool_fetches"] =
      static_cast<double>(work[QueryWork::kPoolFetches]) / iters;
  state.counters["segments_pruned"] =
      static_cast<double>(cold.segments_pruned) / iters;
  state.counters["segments_scanned"] =
      static_cast<double>(cold.segments_scanned) / iters;
  state.counters["cold_versions_read"] =
      static_cast<double>(cold.cold_versions) / iters;

  auto space = db->store()->SpaceStats();
  BenchCheck(space.status(), "space stats");
  double hot_pages =
      static_cast<double>(space->heap_pages + space->index_pages);
  double cold_pages = 0;
  if (db->cold_tier() != nullptr) {
    for (const AtomTypeDef* type : db->catalog().AtomTypes()) {
      auto cold_space = db->cold_tier()->SpaceStats(*type);
      BenchCheck(cold_space.status(), "cold space stats");
      cold_pages += static_cast<double>(cold_space->total_pages);
    }
    ColdTierMigrationStats mig = db->cold_tier()->migration_stats();
    state.counters["compression_ratio"] =
        mig.output_bytes > 0 ? static_cast<double>(mig.input_bytes) /
                                   static_cast<double>(mig.output_bytes)
                             : 0;
  }
  state.counters["hot_pages"] = hot_pages;
  state.counters["cold_pages"] = cold_pages;
  state.counters["cold_fraction"] =
      hot_pages + cold_pages > 0 ? cold_pages / (hot_pages + cold_pages) : 0;
  state.SetLabel(std::string(StorageStrategyName(strategy)) +
                 (tiered ? "/tiered" : "/untiered") +
                 (hot_tail ? "/hot_tail" : "/long_range"));
}

BENCHMARK(BM_TieringEffect)
    ->ArgNames({"strategy", "tiered", "hot_tail"})
    ->ArgsProduct({{0, 1, 2}, {0, 1}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace tcob

TCOB_BENCH_MAIN();
