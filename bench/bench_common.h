#ifndef TCOB_BENCH_BENCH_COMMON_H_
#define TCOB_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "common/metrics.h"
#include "common/temp_dir.h"
#include "db/database.h"
#include "workload/bench_util.h"
#include "workload/company.h"

namespace tcob {
namespace bench {

/// Query-path worker threads for benchmark databases (1 = serial).
/// Set with --threads N (or TCOB_THREADS); read by GetCompanyDb.
inline size_t& BenchThreadsRef() {
  static size_t threads = 1;
  return threads;
}
inline size_t BenchThreads() { return BenchThreadsRef(); }

/// Smoke mode (--smoke): clamp workload sizes so every benchmark
/// executes in a fraction of a second — used by CI to validate that the
/// binaries run and emit well-formed JSON, not to measure anything.
inline bool& BenchSmokeRef() {
  static bool smoke = false;
  return smoke;
}
inline bool BenchSmoke() { return BenchSmokeRef(); }

/// Output path for the machine-readable run artifact. Empty selects the
/// default `BENCH_<name>.json` in the working directory.
inline std::string& BenchJsonOutRef() {
  static std::string* path = new std::string();
  return *path;
}

/// Output path for a flight-recorder dump (--trace_out=PATH). After the
/// benchmarks finish, the most recently built database's trace ring is
/// dumped here as Chrome trace_event JSON. Empty = no dump.
inline std::string& BenchTraceOutRef() {
  static std::string* path = new std::string();
  return *path;
}

/// The database whose trace --trace_out dumps: the last one GetCompanyDb
/// built with tracing enabled (cached databases outlive BenchMain).
inline Database*& TraceDumpDbRef() {
  static Database* db = nullptr;
  return db;
}

/// Strips TCOB-specific flags (--threads N, --smoke, --json_out=PATH,
/// --trace_out=PATH) from argv before google-benchmark sees them;
/// TCOB_THREADS in the environment supplies the default thread count.
inline void ParseBenchFlags(int* argc, char** argv) {
  if (const char* env = std::getenv("TCOB_THREADS")) {
    int v = std::atoi(env);
    if (v > 0) BenchThreadsRef() = static_cast<size_t>(v);
  }
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--threads=", 10) == 0) {
      int v = std::atoi(arg + 10);
      if (v > 0) BenchThreadsRef() = static_cast<size_t>(v);
      continue;
    }
    if (std::strcmp(arg, "--threads") == 0 && i + 1 < *argc) {
      int v = std::atoi(argv[++i]);
      if (v > 0) BenchThreadsRef() = static_cast<size_t>(v);
      continue;
    }
    if (std::strcmp(arg, "--smoke") == 0) {
      BenchSmokeRef() = true;
      continue;
    }
    if (std::strncmp(arg, "--json_out=", 11) == 0) {
      BenchJsonOutRef() = arg + 11;
      continue;
    }
    if (std::strcmp(arg, "--json_out") == 0 && i + 1 < *argc) {
      BenchJsonOutRef() = argv[++i];
      continue;
    }
    if (std::strncmp(arg, "--trace_out=", 12) == 0) {
      BenchTraceOutRef() = arg + 12;
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
}

/// A fully built company database plus its handles, kept alive and
/// shared across benchmark iterations so the (expensive) load phase is
/// paid once per configuration.
struct BenchDb {
  std::unique_ptr<TempDir> dir;
  std::unique_ptr<Database> db;
  CompanyHandles handles;
  // The config the database was actually built with (smoke mode clamps
  // the requested one) — use this, not the requested config, when
  // deriving timestamps inside the recorded history.
  CompanyConfig config;
};

/// Cache key for one configuration.
inline std::string ConfigKey(StorageStrategy strategy,
                             const CompanyConfig& config, bool version_index,
                             size_t pool_pages,
                             const TieringOptions& tiering = {},
                             bool trace_enabled = true) {
  return std::string(StorageStrategyName(strategy)) + "/" +
         std::to_string(config.depts) + "x" +
         std::to_string(config.emps_per_dept) + "x" +
         std::to_string(config.projs_per_emp) + "/v" +
         std::to_string(config.versions_per_atom) + "/idx" +
         std::to_string(version_index) + "/pool" +
         std::to_string(pool_pages) + "/t" +
         std::to_string(BenchThreads()) +
         (tiering.enabled ? "/tier" + std::to_string(tiering.cold_age) : "") +
         (trace_enabled ? "" : "/notrace");
}

/// Builds (or returns the cached) company database for a configuration.
/// In smoke mode the config is clamped to a tiny workload BEFORE the
/// cache key is computed, so smoke runs of different nominal sizes
/// share one database.
inline BenchDb* GetCompanyDb(StorageStrategy strategy,
                             const CompanyConfig& requested,
                             bool version_index = true,
                             size_t pool_pages = 1024,
                             const TieringOptions& tiering = {},
                             bool trace_enabled = true) {
  static std::map<std::string, std::unique_ptr<BenchDb>>* cache =
      new std::map<std::string, std::unique_ptr<BenchDb>>();
  CompanyConfig config = requested;
  if (BenchSmoke()) {
    config.depts = std::min<size_t>(config.depts, 2);
    config.emps_per_dept = std::min<size_t>(config.emps_per_dept, 3);
    config.projs_per_emp = std::min<size_t>(config.projs_per_emp, 2);
    config.versions_per_atom = std::min<uint32_t>(config.versions_per_atom, 4);
  }
  std::string key = ConfigKey(strategy, config, version_index, pool_pages,
                              tiering, trace_enabled);
  auto it = cache->find(key);
  if (it != cache->end()) return it->second.get();

  auto bench_db = std::make_unique<BenchDb>();
  bench_db->dir = std::make_unique<TempDir>();
  DatabaseOptions options;
  options.strategy = strategy;
  options.buffer_pool_pages = pool_pages;
  options.store.separated_version_index = version_index;
  options.parallelism = BenchThreads();
  options.tiering = tiering;
  options.trace.enabled = trace_enabled;
  auto db = Database::Open(bench_db->dir->path() + "/db", options);
  BenchCheck(db.status(), "open database");
  bench_db->db = std::move(db).value();
  if (trace_enabled) TraceDumpDbRef() = bench_db->db.get();
  auto handles = BuildCompany(bench_db->db.get(), config);
  BenchCheck(handles.status(), "build company workload");
  bench_db->handles = std::move(handles).value();
  bench_db->config = config;
  BenchCheck(bench_db->db->Checkpoint(), "checkpoint");
  BenchDb* out = bench_db.get();
  (*cache)[key] = std::move(bench_db);
  return out;
}

/// Timestamp in the middle of version round `round` (0-based) of a
/// company database built with `config`.
inline Timestamp RoundTime(const CompanyConfig& config, uint32_t round) {
  return config.base + static_cast<Timestamp>(round) * config.stride +
         config.stride / 2;
}

// ---- machine-readable run artifact ----

/// Process peak resident set size in bytes (0 where unavailable).
/// Monotone over the process lifetime: a record's value is the high-water
/// mark up to the moment its run finished, so ordering matters when two
/// benchmarks in one binary are compared on memory.
inline double CurrentPeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<double>(usage.ru_maxrss) * 1024.0;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

/// One per-iteration benchmark run, as captured by CollectingReporter.
struct BenchRunRecord {
  std::string name;
  std::string label;
  int64_t iterations = 0;
  double real_ns_per_iter = 0;
  double cpu_ns_per_iter = 0;
  /// Process peak RSS when the run finished (schema v2).
  double peak_rss_bytes = 0;
  /// Statement-start-to-first-row latency, hoisted from the benchmark's
  /// "first_row_micros" counter when it reports one; negative = absent.
  double first_row_micros = -1;
  std::map<std::string, double> counters;
};

/// Console reporter that additionally captures every non-aggregate,
/// non-errored run so BenchMain can serialize them after the fact.
class CollectingReporter : public ::benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type == Run::RT_Aggregate || run.error_occurred) continue;
      BenchRunRecord rec;
      rec.name = run.benchmark_name();
      rec.label = run.report_label;
      rec.iterations = run.iterations;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      rec.real_ns_per_iter = run.real_accumulated_time * 1e9 / iters;
      rec.cpu_ns_per_iter = run.cpu_accumulated_time * 1e9 / iters;
      rec.peak_rss_bytes = CurrentPeakRssBytes();
      for (const auto& [cname, counter] : run.counters) {
        rec.counters[cname] = counter.value;
      }
      auto frm = rec.counters.find("first_row_micros");
      if (frm != rec.counters.end()) rec.first_row_micros = frm->second;
      records_.push_back(std::move(rec));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  const std::vector<BenchRunRecord>& records() const { return records_; }

 private:
  std::vector<BenchRunRecord> records_;
};

/// JSON number formatting: non-finite values (a zero-iteration run can
/// produce NaN) are not representable in JSON — emit 0 instead.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Derives the artifact's bench name from argv[0]: basename minus any
/// "bench_" prefix (build/bench/bench_history -> "history").
inline std::string BenchNameFromArgv0(const char* argv0) {
  std::string name = argv0 != nullptr ? argv0 : "benchmark";
  size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  if (name.rfind("bench_", 0) == 0) name = name.substr(6);
  if (name.empty()) name = "benchmark";
  return name;
}

/// Serializes the captured runs to the artifact schema
/// (bench/bench_schema.json) and writes them to `path`.
inline bool WriteBenchJson(const std::string& path, const std::string& bench,
                           const std::vector<BenchRunRecord>& records) {
  std::string out;
  out += "{\n";
  out += "  \"schema_version\": 2,\n";
  out += "  \"bench\": \"" + JsonEscape(bench) + "\",\n";
  out += "  \"threads\": " + std::to_string(BenchThreads()) + ",\n";
  out += std::string("  \"smoke\": ") + (BenchSmoke() ? "true" : "false") +
         ",\n";
  out += "  \"benchmarks\": [";
  bool first = true;
  for (const BenchRunRecord& rec : records) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\n";
    out += "      \"name\": \"" + JsonEscape(rec.name) + "\",\n";
    if (!rec.label.empty()) {
      out += "      \"label\": \"" + JsonEscape(rec.label) + "\",\n";
    }
    out += "      \"iterations\": " + std::to_string(rec.iterations) + ",\n";
    out += "      \"real_ns_per_iter\": " + JsonNumber(rec.real_ns_per_iter) +
           ",\n";
    out += "      \"cpu_ns_per_iter\": " + JsonNumber(rec.cpu_ns_per_iter) +
           ",\n";
    out += "      \"peak_rss_bytes\": " + JsonNumber(rec.peak_rss_bytes) +
           ",\n";
    if (rec.first_row_micros >= 0) {
      out += "      \"first_row_micros\": " +
             JsonNumber(rec.first_row_micros) + ",\n";
    }
    out += "      \"counters\": {";
    bool cfirst = true;
    for (const auto& [cname, value] : rec.counters) {
      out += cfirst ? "" : ", ";
      cfirst = false;
      out += '"';
      out += JsonEscape(cname);
      out += "\": ";
      out += JsonNumber(value);
    }
    out += "}\n    }";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  ok = std::fclose(f) == 0 && ok;
  if (ok) std::fprintf(stderr, "wrote %s\n", path.c_str());
  return ok;
}

/// Shared main: parse TCOB flags, in smoke mode force a minimal
/// measuring time, run all benchmarks under the collecting reporter,
/// and emit the JSON artifact. Every bench_* binary uses this via
/// TCOB_BENCH_MAIN().
inline int BenchMain(int argc, char** argv) {
  char arg0_default[] = "benchmark";
  char* args_default = arg0_default;
  if (!argv) {
    argc = 1;
    argv = &args_default;
  }
  ParseBenchFlags(&argc, argv);
  std::string bench_name = BenchNameFromArgv0(argv[0]);
  // google-benchmark wants its flags in argv; rebuild it so smoke mode
  // can append --benchmark_min_time (storage must outlive Initialize).
  static std::vector<std::string>* arg_storage =
      new std::vector<std::string>();
  for (int i = 0; i < argc; ++i) arg_storage->push_back(argv[i]);
  if (BenchSmoke()) {
    arg_storage->push_back("--benchmark_min_time=0.001");
  }
  std::vector<char*> bench_argv;
  for (std::string& s : *arg_storage) bench_argv.push_back(s.data());
  int bench_argc = static_cast<int>(bench_argv.size());
  ::benchmark::Initialize(&bench_argc, bench_argv.data());
  if (::benchmark::ReportUnrecognizedArguments(bench_argc,
                                               bench_argv.data())) {
    return 1;
  }
  CollectingReporter reporter;
  ::benchmark::RunSpecifiedBenchmarks(&reporter);
  ::benchmark::Shutdown();
  if (!BenchTraceOutRef().empty()) {
    if (Database* db = TraceDumpDbRef()) {
      Status s = db->DumpTraceToFile(BenchTraceOutRef());
      if (!s.ok()) {
        std::fprintf(stderr, "trace dump failed: %s\n", s.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "wrote %s\n", BenchTraceOutRef().c_str());
    } else {
      std::fprintf(stderr,
                   "--trace_out: no traced database was built by this run\n");
      return 1;
    }
  }
  std::string path = BenchJsonOutRef();
  if (path.empty()) path = "BENCH_" + bench_name + ".json";
  if (!WriteBenchJson(path, bench_name, reporter.records())) return 1;
  return 0;
}

}  // namespace bench
}  // namespace tcob

/// BENCHMARK_MAIN() with TCOB flag handling (--threads, --smoke,
/// --json_out) and a machine-readable BENCH_<name>.json artifact.
#define TCOB_BENCH_MAIN()                                                 \
  int main(int argc, char** argv) {                                       \
    return ::tcob::bench::BenchMain(argc, argv);                          \
  }                                                                       \
  int main(int, char**)

#endif  // TCOB_BENCH_BENCH_COMMON_H_
