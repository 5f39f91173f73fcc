// Interactive MQL shell over a TCOB database.
//
// Usage:
//   mql_shell [db-directory] [--tiered[=AGE]] [--readonly]
//   (default directory: ./tcob-shell-db)
//
// --tiered enables cold-history tiering (versions older than AGE time
// units, default 64, migrate to compressed segments on .tier_migrate).
// --readonly opens the database read-only: every mutation is refused
// and nothing in the directory is touched.
//
// Type MQL statements terminated by ';'. Meta commands:
//   .help         show a cheat sheet
//   .checkpoint   flush everything and truncate the WAL
//   .now [t]      show or set the valid-time clock
//   .strategy     show the storage strategy
//   .metrics      dump the metrics registry (Prometheus text format)
//   .tiering      cold-tier report: segments, fences, cold/hot bytes
//   .tier_migrate migrate cold-eligible history into segments
//   .timing       toggle per-statement timing (first row vs total)
//   .timeout [ms] show or set the per-query deadline (0 disables)
//   .trace        flight recorder: on/off, or dump Perfetto JSON to FILE
//   .health       show the degradation state and its cause
//   .recover      try to return a read-only database to full service
//   .begin        open a transaction in the shell's session (BEGIN;)
//   .commit       commit it (COMMIT;) — may report a conflict
//   .abort        discard it (ABORT;)
//   .quit         exit
//
// The shell runs every statement in one session (Database::OpenSession),
// so a transaction opened by BEGIN; spans the statements that follow it
// and .timing reports the session's own last query.
//
// SELECT results stream: rows print as the engine produces them (a
// cursor pulls 64 rows at a time), so the first rows of a huge history
// scan appear immediately.
//
// The database persists: restart the shell with the same directory and
// your schema and history are still there (WAL recovery included).

#include <cstdio>
#include <cstring>
#include <string>

#include "db/database.h"

using namespace tcob;  // NOLINT: example brevity

namespace {

constexpr char kHelp[] = R"(MQL cheat sheet
  CREATE ATOM_TYPE Emp (name STRING, salary INT);
  CREATE LINK DeptEmp FROM Dept TO Emp;
  CREATE MOLECULE_TYPE DeptMol ROOT Dept EDGES (DeptEmp FORWARD);
  INSERT ATOM Emp (name='ada', salary=100) VALID FROM 10;
  UPDATE ATOM Emp 3 SET salary=200 VALID FROM 20;
  DELETE ATOM Emp 3 VALID FROM 30;
  CONNECT DeptEmp FROM 1 TO 3 VALID FROM 10;
  DISCONNECT DeptEmp FROM 1 TO 3 VALID FROM 30;
  SELECT ALL FROM DeptMol VALID AT 15;
  SELECT Emp.name FROM DeptMol WHERE Emp.salary > 150 VALID AT NOW;
  SELECT ALL FROM DeptMol VALID IN [10, 30);
  SELECT Emp.salary FROM DeptMol HISTORY;
  SELECT ALL FROM Dept VIA DeptEmp, EmpProj VALID AT NOW;  -- inline molecule
  SELECT COUNT(*), AVG(Emp.salary) FROM DeptMol GROUP BY ROOT VALID AT NOW;
  CREATE INDEX idx_salary ON Emp (salary);
  EXPLAIN SELECT ALL FROM DeptMol WHERE Emp.salary = 5 VALID AT 9;
  EXPLAIN ANALYZE SELECT ALL FROM DeptMol HISTORY;  -- run + trace
  VACUUM BEFORE 100;
  SHOW CATALOG;
  SHOW STATS;
  BEGIN; ... COMMIT;  -- snapshot-isolated transaction (or ABORT;)
Meta: .help .checkpoint .now [t] .strategy .metrics .tiering
      .tier_migrate .timing .timeout [ms] .trace [on|off|dump FILE]
      .health .recover .begin .commit .abort .quit
Attribute types: BOOL INT DOUBLE STRING TIMESTAMP ID
Temporal predicates: OVERLAPS CONTAINS BEFORE MEETS DURING, VALID(Type),
BEGIN(...), END(...), interval literals [a, b), NOW.
Aggregates: COUNT(*) COUNT/SUM/AVG/MIN/MAX(Type.attr), GROUP BY ROOT.
)";

/// .tiering report: per atom type, every cold segment with its time
/// fence and atom range, then the cold/hot on-disk byte split.
void PrintTiering(Database* db) {
  if (db->cold_tier() == nullptr) {
    printf("tiering disabled — start the shell with --tiered\n");
    return;
  }
  uint64_t cold_bytes = 0, cold_segments = 0, cold_versions = 0;
  for (const AtomTypeDef* type : db->catalog().AtomTypes()) {
    auto segments = db->cold_tier()->Segments(*type);
    if (!segments.ok()) {
      printf("error: %s\n", segments.status().ToString().c_str());
      return;
    }
    if (segments->empty()) continue;
    printf("%s:\n", type->name.c_str());
    for (const auto& seg : *segments) {
      printf("  segment fence=%s atoms=[%llu..%llu] (%u atoms) "
             "versions=%llu bytes=%llu\n",
             seg.fence.ToString().c_str(),
             static_cast<unsigned long long>(seg.min_atom),
             static_cast<unsigned long long>(seg.max_atom), seg.atom_count,
             static_cast<unsigned long long>(seg.version_count),
             static_cast<unsigned long long>(seg.bytes));
      ++cold_segments;
      cold_versions += seg.version_count;
      cold_bytes += seg.bytes;
    }
  }
  auto space = db->store()->SpaceStats();
  if (!space.ok()) {
    printf("error: %s\n", space.status().ToString().c_str());
    return;
  }
  uint64_t hot_bytes =
      (space->heap_pages + space->index_pages) * uint64_t{kPageSize};
  printf("cold: %llu segment(s), %llu version(s), %llu bytes\n",
         static_cast<unsigned long long>(cold_segments),
         static_cast<unsigned long long>(cold_versions),
         static_cast<unsigned long long>(cold_bytes));
  printf("hot:  %llu bytes (%llu pages)\n",
         static_cast<unsigned long long>(hot_bytes),
         static_cast<unsigned long long>(space->heap_pages +
                                         space->index_pages));
}

bool HandleMeta(Database* db, Session* session, const std::string& line,
                bool* timing) {
  if (line == ".help") {
    fputs(kHelp, stdout);
  } else if (line == ".timing") {
    *timing = !*timing;
    printf("timing %s\n", *timing ? "on" : "off");
  } else if (line == ".checkpoint") {
    Status s = db->Checkpoint();
    printf("%s\n", s.ok() ? "checkpointed" : s.ToString().c_str());
  } else if (line.rfind(".now", 0) == 0) {
    std::string arg = line.size() > 4 ? line.substr(5) : "";
    if (!arg.empty()) db->SetNow(strtoll(arg.c_str(), nullptr, 10));
    printf("now = %s\n", TimestampToString(db->Now()).c_str());
  } else if (line == ".strategy") {
    printf("%s\n", StorageStrategyName(db->options().strategy));
  } else if (line == ".metrics") {
    fputs(db->MetricsSnapshot().ToText().c_str(), stdout);
  } else if (line.rfind(".timeout", 0) == 0) {
    std::string arg = line.size() > 8 ? line.substr(9) : "";
    if (!arg.empty()) {
      uint64_t ms = strtoull(arg.c_str(), nullptr, 10);
      db->set_default_query_deadline(ms * 1000);
    }
    uint64_t micros = db->options().default_query_deadline_micros;
    if (micros == 0) {
      printf("timeout off\n");
    } else {
      printf("timeout = %llu ms\n",
             static_cast<unsigned long long>(micros / 1000));
    }
  } else if (line == ".health") {
    printf("health: %s\n", HealthStateName(db->health_state()));
    if (!db->health().ok()) {
      printf("cause: %s\n", db->health().ToString().c_str());
    }
  } else if (line == ".recover") {
    Status s = db->TryRecover();
    if (s.ok()) {
      printf("health: %s\n", HealthStateName(db->health_state()));
    } else {
      printf("recovery failed: %s\n", s.ToString().c_str());
    }
  } else if (line.rfind(".trace", 0) == 0) {
    std::string arg = line.size() > 6 ? line.substr(7) : "";
    if (arg == "on") {
      db->trace_recorder()->set_enabled(true);
    } else if (arg == "off") {
      db->trace_recorder()->set_enabled(false);
    } else if (arg.rfind("dump", 0) == 0) {
      std::string path = arg.size() > 4 ? arg.substr(5) : "";
      if (path.empty()) path = "trace.json";
      Status s = db->DumpTraceToFile(path);
      if (s.ok()) {
        printf("trace dumped to %s — open in https://ui.perfetto.dev or "
               "chrome://tracing\n",
               path.c_str());
      } else {
        printf("error: %s\n", s.ToString().c_str());
      }
      return true;
    } else if (!arg.empty()) {
      printf("usage: .trace [on|off|dump FILE]\n");
      return true;
    }
    printf("trace %s\n",
           db->trace_recorder()->is_enabled() ? "on" : "off");
  } else if (line == ".begin" || line == ".commit" || line == ".abort") {
    const char* stmt = line == ".begin"    ? "BEGIN;"
                       : line == ".commit" ? "COMMIT;"
                                           : "ABORT;";
    auto r = session->Execute(stmt);
    printf("%s\n", r.ok() ? r.value().message.c_str()
                          : r.status().ToString().c_str());
  } else if (line == ".tiering") {
    PrintTiering(db);
  } else if (line == ".tier_migrate") {
    if (db->cold_tier() == nullptr) {
      printf("tiering disabled — start the shell with --tiered\n");
    } else {
      auto migrated = db->TierMigrate();
      if (!migrated.ok()) {
        printf("error: %s\n", migrated.status().ToString().c_str());
      } else {
        printf("migrated %llu version(s) to cold segments\n",
               static_cast<unsigned long long>(migrated.value()));
      }
    }
  } else {
    printf("unknown meta command; try .help\n");
  }
  return true;
}

void PrintRow(const std::vector<Value>& row) {
  for (size_t i = 0; i < row.size(); ++i) {
    fputs(i == 0 ? "" : " | ", stdout);
    fputs(row[i].ToString().c_str(), stdout);
  }
  fputc('\n', stdout);
}

/// Runs one statement through the cursor API, printing rows as they
/// stream in instead of waiting for the whole result.
void RunStatement(Session* session, const std::string& mql, bool timing) {
  auto opened = session->Query(mql);
  if (!opened.ok()) {
    printf("error: %s\n", opened.status().ToString().c_str());
    return;
  }
  Cursor* cursor = opened.value().get();
  const bool tabular = !cursor->columns().empty();
  if (tabular) {
    std::string header;
    for (size_t i = 0; i < cursor->columns().size(); ++i) {
      header += (i == 0 ? "" : " | ") + cursor->columns()[i];
    }
    printf("%s\n%s\n", header.c_str(),
           std::string(header.size(), '-').c_str());
    fflush(stdout);
  }
  size_t total = 0;
  std::vector<std::vector<Value>> batch;
  for (;;) {
    auto pulled = cursor->NextBatch(64, &batch);
    if (!pulled.ok()) {
      printf("error: %s\n", pulled.status().ToString().c_str());
      break;
    }
    for (const std::vector<Value>& row : batch) PrintRow(row);
    fflush(stdout);
    total += pulled.value();
    if (pulled.value() < 64) break;
  }
  if (tabular) printf("(%zu rows)\n", total);
  if (!cursor->message().empty()) printf("%s\n", cursor->message().c_str());
  cursor->Close();
  if (timing && tabular) {
    const QueryStats& stats = session->last_query_stats();
    printf("first row %.1f us | total %.1f us | %llu rows streamed | "
           "peak buffered %llu rows\n",
           stats.first_row_us, stats.total_us,
           static_cast<unsigned long long>(stats.rows_streamed),
           static_cast<unsigned long long>(stats.peak_buffered_rows));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir = "./tcob-shell-db";
  DatabaseOptions options;
  for (int i = 1; i < argc; ++i) {
    if (strncmp(argv[i], "--tiered", 8) == 0) {
      options.tiering.enabled = true;
      if (argv[i][8] == '=') {
        options.tiering.cold_age = strtoll(argv[i] + 9, nullptr, 10);
      }
    } else if (strcmp(argv[i], "--readonly") == 0) {
      options.read_only = true;
    } else {
      dir = argv[i];
    }
  }
  auto opened = Database::Open(dir, options);
  if (!opened.ok()) {
    fprintf(stderr, "cannot open %s: %s\n", dir.c_str(),
            opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Database> db = std::move(opened).value();
  printf("tcob shell — database at %s (strategy: %s%s). "
         ".help for help, .quit to exit.\n",
         dir.c_str(), StorageStrategyName(db->options().strategy),
         db->options().read_only ? ", read-only" : "");

  Session session = db->OpenSession();
  std::string buffer;
  bool timing = false;
  char line[4096];
  for (;;) {
    fputs(buffer.empty() ? "mql> " : "...> ", stdout);
    fflush(stdout);
    if (!fgets(line, sizeof(line), stdin)) break;
    std::string text(line);
    // Trim trailing whitespace.
    while (!text.empty() && isspace(static_cast<unsigned char>(text.back()))) {
      text.pop_back();
    }
    if (buffer.empty()) {
      // Leading whitespace trim for meta detection.
      size_t start = text.find_first_not_of(" \t");
      if (start == std::string::npos) continue;
      std::string trimmed = text.substr(start);
      if (trimmed == ".quit" || trimmed == ".exit") break;
      if (!trimmed.empty() && trimmed[0] == '.') {
        HandleMeta(db.get(), &session, trimmed, &timing);
        continue;
      }
    }
    buffer += text;
    if (buffer.empty()) continue;
    if (buffer.back() != ';') {
      buffer += ' ';
      continue;  // statement continues on the next line
    }
    RunStatement(&session, buffer, timing);
    buffer.clear();
  }
  printf("bye\n");
  return 0;
}
