// TCOB benchmark program.
//
//   tcobbench --workload <slice_hot|history_scan|commit_mix> --seed N
//             --seconds S --trace 0|1 --workdir DIR [--git-commit SHA]
//
// Loads a seeded database through the public API, runs one closed-loop
// workload against one embedded Database for S seconds, checks every
// result against the generator's model, and prints one JSON result line
// last. --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics of a traced run (see README.md).
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "layers.h"
#include "model.h"
#include "query/executor.h"
#include "query/parser.h"
#include "storage/page.h"

#ifndef TCOBBENCH_BUILD_TYPE
#define TCOBBENCH_BUILD_TYPE "unknown"
#endif

namespace tcobbench {
namespace {

namespace fs = std::filesystem;
using tcob::Database;
using tcob::DatabaseOptions;
using tcob::Status;

// ---------------------------------------------------------------------------
// Workloads

enum class Wl { kSliceHot, kHistoryScan, kCommitMix };

struct Workload {
  Wl id;
  const char* name;
  const char* why;
  tcob::StorageStrategy strategy;
  int clients;
  bool sync_wal;
  GenConfig gen;
  /// Iterations of one statement cycle; a phase ends only on a cycle
  /// boundary, so every run executes each statement kind equally often.
  size_t cycle;
  size_t warmup_iters;
  /// Traced run: iterations per client executed with layer attribution
  /// (a fixed count, so the work counters repeat exactly per seed).
  size_t layer_iters;
  /// Tail percentiles of reads and of commits, each chosen so a run
  /// leaves well over ten samples beyond it.
  double read_tail_q;
  double commit_tail_q;
};

const Workload kWorkloads[] = {
    {Wl::kSliceHot, "slice_hot",
     "fixed per-statement costs dominate: indexed single-molecule time "
     "slices on a database inside the buffer pool; fan-out and pool misses "
     "are bypassed",
     tcob::StorageStrategy::kSeparated, 1, false,
     GenConfig{150, 8, 10, 0.8, 0.3, 0.2, 24}, 1024, 256, 640, 0.95, 0.95},
    {Wl::kHistoryScan, "history_scan",
     "all-roots history, window, aggregate and ORDER BY scans on the "
     "history-clustered design with a database twice the pool: sweeps, "
     "pool misses and fan-out do the work",
     tcob::StorageStrategy::kIntegrated, 1, false,
     GenConfig{130, 8, 5, 0.8, 0.3, 0.2, 450}, 7, 2, 7, 0.75, 0.95},
    {Wl::kCommitMix, "commit_mix",
     "the durable write path: 4 clients commit transactions and auto-commit "
     "updates with sync_wal, read their writes, and one checkpoints",
     tcob::StorageStrategy::kSeparated, 4, true,
     GenConfig{150, 8, 10, 0.8, 0.3, 0.2, 24}, 1, 16, 256, 0.95, 0.95},
};

constexpr size_t kSetups = 5;
constexpr size_t kSliceWriteEvery = 32;
constexpr size_t kHistoryWritesPerStatement = 4;
constexpr size_t kCommitMixCheckpointEvery = 128;
constexpr size_t kCommitMixPastReadEvery = 8;

// ---------------------------------------------------------------------------
// Measurement records

struct Samples {
  std::vector<double> read_first_ms;
  std::vector<double> read_ms;
  std::vector<double> commit_ms;
  std::vector<double> autocommit_ms;
  uint64_t rows = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Merge(const Samples& o) {
    auto cat = [](std::vector<double>* a, const std::vector<double>& b) {
      a->insert(a->end(), b.begin(), b.end());
    };
    cat(&read_first_ms, o.read_first_ms);
    cat(&read_ms, o.read_ms);
    cat(&commit_ms, o.commit_ms);
    cat(&autocommit_ms, o.autocommit_ms);
    rows += o.rows;
    attempted += o.attempted;
    failed += o.failed;
  }
};

/// Layer attribution accumulated over the traced run's layer phase:
/// per-statement span times (reported as medians, so the rare heavy
/// statements of a mix do not stand for the common ones) and counter
/// deltas (reported as means per statement).
struct LayerAcc {
  uint64_t reads = 0;
  uint64_t rows = 0;
  uint64_t autocommits = 0;
  uint64_t txn_commits = 0;
  uint64_t checkpoints = 0;
  uint64_t checkpoint_writes = 0;
  std::vector<double> parse_us;
  std::vector<double> plan_us;
  std::vector<double> execute_us;
  std::vector<double> execute_self_us;
  std::vector<double> index_us;
  std::vector<double> materialize_us;
  std::vector<double> mad_self_us;
  std::vector<double> tstore_us;
  std::vector<double> overhead_us;
  std::vector<double> txn_buffer_us;
  std::vector<double> checkpoint_ms;
  /// Engine counter deltas around the SELECTs.
  Counters selects;

  void Merge(const LayerAcc& o) {
    auto cat = [](std::vector<double>* a, const std::vector<double>& b) {
      a->insert(a->end(), b.begin(), b.end());
    };
    reads += o.reads;
    rows += o.rows;
    autocommits += o.autocommits;
    txn_commits += o.txn_commits;
    checkpoints += o.checkpoints;
    checkpoint_writes += o.checkpoint_writes;
    cat(&parse_us, o.parse_us);
    cat(&plan_us, o.plan_us);
    cat(&execute_us, o.execute_us);
    cat(&execute_self_us, o.execute_self_us);
    cat(&index_us, o.index_us);
    cat(&materialize_us, o.materialize_us);
    cat(&mad_self_us, o.mad_self_us);
    cat(&tstore_us, o.tstore_us);
    cat(&overhead_us, o.overhead_us);
    cat(&txn_buffer_us, o.txn_buffer_us);
    cat(&checkpoint_ms, o.checkpoint_ms);
    selects += o.selects;
  }
};

/// kPlain: the end-to-end path alone. kTraced: the same calls wrapped in
/// spans, plus engine counter snapshots around each SELECT. kLayer:
/// kTraced, and each read is also re-run through the layers' public
/// functions with one span per layer.
enum class Mode { kPlain, kTraced, kLayer };

/// Expected outcome of one read statement.
struct Query {
  std::string mql;
  RowDigest expect;
  int desc_order_col = -1;  // column that must be non-increasing
};

class OrderCheck {
 public:
  explicit OrderCheck(int col) : col_(col) {}
  void See(const std::vector<tcob::Value>& row) {
    if (col_ < 0 || static_cast<size_t>(col_) >= row.size()) return;
    int64_t v = row[col_].AsInt();
    if (seen_ && v > prev_) ok_ = false;
    prev_ = v;
    seen_ = true;
  }
  bool ok() const { return ok_; }

 private:
  int col_;
  bool seen_ = false;
  bool ok_ = true;
  int64_t prev_ = 0;
};

class DigestSink : public tcob::RowSink {
 public:
  DigestSink(RowDigest* digest, OrderCheck* order)
      : digest_(digest), order_(order) {}
  tcob::Result<bool> Push(std::vector<tcob::Value> row) override {
    order_->See(row);
    digest_->Add(row);
    return true;
  }

 private:
  RowDigest* digest_;
  OrderCheck* order_;
};

// ---------------------------------------------------------------------------
// One closed-loop client

class Client {
 public:
  Client(const Workload& wl, Database* db, Model* model, uint32_t index,
         uint64_t seed)
      : wl_(wl),
        db_(db),
        model_(model),
        index_(index),
        rng_(seed * 1000003 + index),
        log_(index),
        timed_(db->store(), &log_) {
    for (size_t d = index; d < model->depts().size(); d += wl.clients) {
      my_depts_.push_back(d);
    }
  }

  /// Runs one iteration of the workload's loop.
  void Iterate(Mode mode, Samples* s) {
    log_.set_op(iter_);
    switch (wl_.id) {
      case Wl::kSliceHot:
        IterateSliceHot(mode, s);
        break;
      case Wl::kHistoryScan:
        IterateHistoryScan(mode, s);
        break;
      case Wl::kCommitMix:
        IterateCommitMix(mode, s);
        break;
    }
    ++iter_;
  }

  /// Stamps of explicitly-timed writes start after everything loaded.
  void set_next_stamp(Timestamp t) { next_stamp_ = t; }
  const SpanLog& log() const { return log_; }
  const LayerAcc& layer() const { return layer_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  uint64_t Below(uint64_t n) { return rng_() % n; }
  double Uniform() { return static_cast<double>(rng_() >> 11) * 0x1.0p-53; }
  Timestamp PastInstant() {
    return Model::kBase + Below(model_->load_end() - Model::kBase + 1);
  }
  const ModelDept& Dept(size_t i) const { return model_->depts()[i]; }
  std::string CodeFilter(const ModelDept& d) const {
    return "SELECT ALL FROM DeptMol WHERE Dept.code = '" + d.code + "'";
  }

  void Fail(Samples* s, const std::string& what) {
    ++s->failed;
    if (errors_.size() < 8) errors_.push_back(what);
  }

  void IterateSliceHot(Mode mode, Samples* s) {
    // Skewed key choice: the cube of a uniform draw favours low indices.
    const ModelDept& dept = Dept(static_cast<size_t>(
        std::pow(Uniform(), 3.0) *
        static_cast<double>(model_->depts().size())));
    // The statement mix is a fixed schedule, so every run has the same
    // share of each kind: one all-roots window sweep per cycle, one past
    // slice in eight, current slices otherwise.
    const size_t pos = iter_ % wl_.cycle;
    Query q;
    if (pos == wl_.cycle - 1) {
      // Windows start in the first quarter of the loaded history, so
      // each sweep covers most of it and costs about the same.
      Timestamp from = Model::kBase +
                       Below((model_->load_end() - Model::kBase) / 4 + 1);
      Timestamp now = db_->Now();
      q.mql = CodeFilter(dept) + " VALID IN [" + std::to_string(from) +
              ", NOW)";
      q.expect = model_->WindowByCode(dept, Interval(from, now));
    } else if (pos % 8 == 5) {
      Timestamp t = PastInstant();
      q.mql = CodeFilter(dept) + " VALID AT " + std::to_string(t);
      q.expect = model_->SliceByCode(dept, t, false);
    } else {
      q.mql = CodeFilter(dept) + " VALID AT NOW";
      q.expect = model_->SliceByCode(dept, 0, true);
    }
    Read(q, mode, s);
    if (pos % kSliceWriteEvery == kSliceWriteEvery - 1) {
      TxnWrite(dept, 3, mode, s);
      AutoWrite(dept, mode, s);
    }
  }

  void IterateHistoryScan(Mode mode, Samples* s) {
    // Windows span half the loaded history, so a window's cost does not
    // depend on where it falls. The window projection runs twice per
    // cycle of seven: ordered by latency or by time to first row, the
    // cycle's middle statement is then one kind, not the edge between two,
    // which keeps each run's medians steady.
    auto window = [&] {
      const Timestamp half = (model_->load_end() - Model::kBase) / 2;
      const Timestamp a = Model::kBase + Below(half + 1);
      return Interval(a, a + half + 1);
    };
    auto in = [](const Interval& w) {
      return " VALID IN [" + std::to_string(w.begin) + ", " +
             std::to_string(w.end) + ")";
    };
    Query q;
    switch (iter_ % wl_.cycle) {
      case 0:
        q.mql = "SELECT Emp.salary FROM DeptMol HISTORY";
        q.expect = model_->HistorySalaries(INT64_MIN);
        break;
      case 1:
      case 6: {
        const Interval w = window();
        q.mql = "SELECT Dept.budget, Emp.salary FROM DeptMol" + in(w);
        q.expect = model_->WindowBudgetSalary(w);
        break;
      }
      case 2: {
        const Interval w = window();
        q.mql =
            "SELECT COUNT(*), SUM(Emp.salary), MAX(Emp.salary) FROM DeptMol "
            "GROUP BY ROOT" +
            in(w);
        q.expect = model_->GroupByRootWindow(w);
        break;
      }
      case 3: {
        const Timestamp t = PastInstant();
        q.mql =
            "SELECT Emp.name, Emp.salary FROM DeptMol ORDER BY Emp.salary "
            "DESC VALID AT " +
            std::to_string(t);
        q.expect = model_->EmpSalariesAt(t);
        q.desc_order_col = 2;
        break;
      }
      case 4: {
        const Timestamp t = PastInstant();
        q.mql = "SELECT ALL FROM DeptMol VALID AT " + std::to_string(t);
        q.expect = model_->FullSliceAt(t);
        break;
      }
      case 5: {
        const int64_t min = 1000 + static_cast<int64_t>(Below(4000));
        q.mql = "SELECT Emp.salary FROM DeptMol WHERE Emp.salary > " +
                std::to_string(min) + " HISTORY";
        q.expect = model_->HistorySalaries(min);
        break;
      }
    }
    Read(q, mode, s);
    for (size_t w = 0; w < kHistoryWritesPerStatement; ++w) {
      const ModelDept& dept = Dept(Below(model_->depts().size()));
      TxnWrite(dept, 3, mode, s);
      AutoWrite(dept, mode, s);
    }
  }

  void IterateCommitMix(Mode mode, Samples* s) {
    const ModelDept& dept = Dept(my_depts_[Below(my_depts_.size())]);
    TxnWrite(dept, 4, mode, s);
    AutoWrite(dept, mode, s);
    Query q;
    q.mql = CodeFilter(dept) + " VALID AT NOW";
    q.expect = model_->SliceByCode(dept, 0, true);
    Read(q, mode, s);
    if (iter_ % kCommitMixPastReadEvery == kCommitMixPastReadEvery - 1) {
      const ModelDept& other = Dept(my_depts_[Below(my_depts_.size())]);
      Timestamp t = PastInstant();
      q.mql = CodeFilter(other) + " VALID AT " + std::to_string(t);
      q.expect = model_->SliceByCode(other, t, false);
      Read(q, mode, s);
    }
    if (index_ == 0 && iter_ % kCommitMixCheckpointEvery ==
                           kCommitMixCheckpointEvery - 1) {
      Checkpoint(mode, s);
    }
  }

  SpanLog* LogFor(Mode mode) { return mode == Mode::kPlain ? nullptr : &log_; }

  /// Writes with explicit stamps when this is the only writer (the model
  /// then knows every version's time); concurrent writers use NOW.
  bool ExplicitStamps() const { return wl_.clients == 1; }

  void Read(const Query& q, Mode mode, Samples* s) {
    ++s->attempted;
    if (mode == Mode::kLayer) LayeredRead(q, s);
    // The engine's SELECT publishes its trace into unsynchronized
    // per-database state, so concurrent SELECTs on one Database are not
    // safe yet; clients serialize their SELECTs (commits stay concurrent).
    std::unique_lock<std::mutex> serialize(select_mu_, std::defer_lock);
    if (wl_.clients > 1) serialize.lock();
    Counters before;
    if (mode != Mode::kPlain) before = Counters::Of(*db_);
    ScopedSpan span(LogFor(mode), "db.query");
    RowDigest got;
    OrderCheck order(q.desc_order_col);
    const int64_t t0 = NowNs();
    int64_t first = -1;
    auto cursor = db_->Query(q.mql);
    if (!cursor.ok()) {
      Fail(s, q.mql + ": " + cursor.status().ToString());
      return;
    }
    std::vector<tcob::Value> row;
    while (true) {
      tcob::Result<bool> more = cursor.value()->Next(&row);
      if (!more.ok()) {
        cursor.value()->Close();
        Fail(s, q.mql + ": " + more.status().ToString());
        return;
      }
      if (!more.value()) break;
      if (first < 0) first = NowNs();
      order.See(row);
      got.Add(row);
    }
    cursor.value()->Close();
    const int64_t t1 = NowNs();
    span.Finish();
    if (first < 0) first = t1;
    if (mode != Mode::kPlain) {
      Counters delta = Counters::Of(*db_) - before;
      if (mode == Mode::kLayer) {
        layer_.selects += delta;
        ++layer_.reads;
        layer_.rows += got.rows;
        layer_.overhead_us.push_back((t1 - t0) / 1e3 - direct_us_);
      }
    }
    serialize = {};
    if (!(got == q.expect) || !order.ok()) {
      Fail(s, q.mql + ": wrong result (" + std::to_string(got.rows) +
                  " rows, expected " + std::to_string(q.expect.rows) + ")");
      return;
    }
    s->read_first_ms.push_back((first - t0) / 1e6);
    s->read_ms.push_back((t1 - t0) / 1e6);
    s->rows += got.rows;
  }

  /// The same statement through each layer's public functions: parse,
  /// plan, execute, then the index probe and materializer operator the
  /// plan chose, on a serial materializer over a timed store.
  void LayeredRead(const Query& q, Samples* s) {
    ScopedSpan op(&log_, "layers.read");
    const tcob::Catalog& catalog = db_->catalog();
    ScopedSpan parse_span(&log_, "query.parse");
    tcob::Result<tcob::Statement> parsed = tcob::Parser::Parse(q.mql);
    const double parse_us = parse_span.Finish();
    const tcob::SelectStmt* stmt =
        parsed.ok() ? std::get_if<tcob::SelectStmt>(&parsed.value()) : nullptr;
    if (stmt == nullptr) {
      Fail(s, q.mql + ": layered parse failed");
      return;
    }
    const Timestamp now = db_->Now();
    tcob::Materializer mat(&catalog, &timed_, db_->links(), nullptr);
    tcob::SelectExecutor exec(&catalog, &mat, now, db_->attr_indexes());
    ScopedSpan plan_span(&log_, "query.plan");
    tcob::Result<tcob::SelectPlan> plan = exec.Plan(*stmt);
    const double plan_us = plan_span.Finish();
    if (!plan.ok()) {
      Fail(s, q.mql + ": layered plan failed: " + plan.status().ToString());
      return;
    }

    RowDigest got;
    OrderCheck order(q.desc_order_col);
    ScopedSpan exec_span(&log_, "query.execute");
    Status st;
    if (tcob::SelectExecutor::CanStream(*stmt)) {
      DigestSink sink(&got, &order);
      st = exec.ExecuteStreaming(*stmt, plan.value(), &sink);
    } else {
      tcob::Result<tcob::ResultSet> rs = exec.Execute(*stmt);
      st = rs.status();
      if (rs.ok()) {
        for (const auto& row : rs.value().rows) {
          order.See(row);
          got.Add(row);
        }
      }
    }
    const double execute_us = exec_span.Finish();
    direct_us_ = parse_us + plan_us + execute_us;
    timed_.TakeUs();
    if (!st.ok() || !(got == q.expect) || !order.ok()) {
      Fail(s, q.mql + ": layered execution disagrees with the model");
      return;
    }

    const Timestamp t = stmt->at_now ? now : stmt->at;
    std::vector<tcob::AtomId> roots;
    const bool as_of = stmt->mode == tcob::TemporalMode::kAsOf;
    if (as_of && plan.value().path.use_index) {
      ScopedSpan index_span(&log_, "index.lookup");
      auto def = catalog.GetAttrIndex(plan.value().path.index);
      auto found = def.ok() ? db_->attr_indexes()->LookupAsOf(
                                  *def.value(), plan.value().path.range, t)
                            : tcob::Result<std::vector<tcob::AtomId>>(
                                  def.status());
      const double index_us = index_span.Finish();
      if (!found.ok()) {
        Fail(s, q.mql + ": index lookup failed");
        return;
      }
      roots = std::move(found).value();
      layer_.index_us.push_back(index_us);
    }

    tcob::Materializer direct(&catalog, &timed_, db_->links(), nullptr);
    ScopedSpan mat_span(&log_, "mad.materialize");
    if (as_of) {
      auto drop = [](tcob::Molecule) -> tcob::Result<bool> { return true; };
      st = plan.value().path.use_index
               ? direct.MoleculesAsOf(plan.value().resolved, roots, t, drop)
               : direct.AllMoleculesAsOf(plan.value().resolved, t, drop);
    } else {
      st = direct.AllHistories(
          plan.value().resolved, plan.value().window,
          [](tcob::MoleculeHistory) -> tcob::Result<bool> { return true; });
    }
    const double materialize_us = mat_span.Finish();
    const double tstore_us = timed_.TakeUs();
    if (!st.ok()) {
      Fail(s, q.mql + ": materializer failed: " + st.ToString());
      return;
    }
    layer_.parse_us.push_back(parse_us);
    layer_.plan_us.push_back(plan_us);
    layer_.execute_us.push_back(execute_us);
    layer_.execute_self_us.push_back(execute_us - materialize_us);
    layer_.materialize_us.push_back(materialize_us);
    layer_.mad_self_us.push_back(materialize_us - tstore_us);
    layer_.tstore_us.push_back(tstore_us);
  }

  /// Picks `n` distinct employees of `dept`.
  std::vector<size_t> PickEmps(const ModelDept& dept, size_t n) {
    std::vector<size_t> emps = dept.emps;
    for (size_t i = 0; i < n && i < emps.size(); ++i) {
      std::swap(emps[i], emps[i + Below(emps.size() - i)]);
    }
    emps.resize(std::min(n, emps.size()));
    return emps;
  }

  void TxnWrite(const ModelDept& dept, size_t n, Mode mode, Samples* s) {
    ++s->attempted;
    std::vector<size_t> emps = PickEmps(dept, n);
    std::vector<int64_t> salaries;
    std::vector<Timestamp> stamps;
    SpanLog* log = LogFor(mode);
    double buffer_us = 0;
    Status st;
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(log, "db.txn");
      tcob::Transaction txn = db_->Begin();
      for (size_t emp : emps) {
        salaries.push_back(model_->CurrentSalary(emp) + 1 +
                           static_cast<int64_t>(Below(100)));
        stamps.push_back(ExplicitStamps() ? next_stamp_++ : Model::kPending);
        ScopedSpan update(log, "db.txn_update");
        const int64_t b0 = NowNs();
        st = txn.UpdateAtom("Emp", model_->atoms()[emp].id,
                            {{"salary", tcob::Value::Int(salaries.back())}},
                            stamps.back(), !ExplicitStamps());
        buffer_us += (NowNs() - b0) / 1e3;
        if (!st.ok()) break;
      }
      if (st.ok()) {
        ScopedSpan commit(log, "db.txn_commit");
        st = txn.Commit();
      } else {
        txn.Abort();
      }
    }
    const int64_t t1 = NowNs();
    if (!st.ok()) {
      Fail(s, "transaction on " + dept.code + ": " + st.ToString());
      return;
    }
    for (size_t i = 0; i < emps.size(); ++i) {
      model_->AddEmpVersion(emps[i], stamps[i], salaries[i]);
    }
    s->commit_ms.push_back((t1 - t0) / 1e6);
    if (mode == Mode::kLayer) {
      ++layer_.txn_commits;
      layer_.txn_buffer_us.push_back(buffer_us);
    }
  }

  void AutoWrite(const ModelDept& dept, Mode mode, Samples* s) {
    ++s->attempted;
    const size_t emp = PickEmps(dept, 1)[0];
    const int64_t salary =
        model_->CurrentSalary(emp) + 1 + static_cast<int64_t>(Below(100));
    const Timestamp stamp = ExplicitStamps() ? next_stamp_++ : Model::kPending;
    const std::string mql =
        "UPDATE ATOM Emp " + std::to_string(model_->atoms()[emp].id) +
        " SET salary=" + std::to_string(salary) + " VALID FROM " +
        (ExplicitStamps() ? std::to_string(stamp) : std::string("NOW"));
    ScopedSpan span(LogFor(mode), "db.autocommit");
    const int64_t t0 = NowNs();
    tcob::Result<tcob::ResultSet> out = db_->Execute(mql);
    const int64_t t1 = NowNs();
    span.Finish();
    if (!out.ok()) {
      Fail(s, mql + ": " + out.status().ToString());
      return;
    }
    if (mode == Mode::kLayer) ++layer_.autocommits;
    model_->AddEmpVersion(emp, stamp, salary);
    s->autocommit_ms.push_back((t1 - t0) / 1e6);
  }

  void Checkpoint(Mode mode, Samples* s) {
    ++s->attempted;
    Counters before;
    if (mode == Mode::kLayer) before = Counters::Of(*db_);
    ScopedSpan span(LogFor(mode), "db.checkpoint");
    const int64_t t0 = NowNs();
    Status st = db_->Checkpoint();
    const int64_t t1 = NowNs();
    span.Finish();
    if (!st.ok()) {
      Fail(s, "checkpoint: " + st.ToString());
      return;
    }
    if (mode == Mode::kLayer) {
      ++layer_.checkpoints;
      layer_.checkpoint_ms.push_back((t1 - t0) / 1e6);
      // Checkpoints write dirty pages through the page journal, which the
      // pool's eviction-writeback counter does not see: count page writes.
      layer_.checkpoint_writes += (Counters::Of(*db_) - before).disk_writes;
    }
  }

  static std::mutex select_mu_;

  const Workload& wl_;
  Database* db_;
  Model* model_;
  uint32_t index_;
  std::mt19937_64 rng_;
  SpanLog log_;
  TimedStore timed_;
  LayerAcc layer_;
  std::vector<size_t> my_depts_;
  std::vector<std::string> errors_;
  uint64_t iter_ = 0;
  Timestamp next_stamp_ = 0;
  /// Parse + plan + execute time of the latest layered read.
  double direct_us_ = 0;
};

std::mutex Client::select_mu_;

// ---------------------------------------------------------------------------
// Helpers

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  std::string git_commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "--workdir") {
      a->workdir = v;
    } else if (k == "--git-commit") {
      a->git_commit = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->workdir.empty() &&
         a->seconds > 0;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

/// The `q` percentile, or the eleventh-largest sample when fewer than ten
/// samples lie beyond it. Returns (value, percentile used).
std::pair<double, double> Tail(const std::vector<double>& v, double q) {
  if (v.empty()) return {0, 0};
  const double n = static_cast<double>(v.size());
  if (n * (1 - q) >= 10) return {Percentile(v, q), 100 * q};
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  const size_t rank = sorted.size() > 10 ? sorted.size() - 11 : 0;
  return {sorted[rank], 100.0 * static_cast<double>(rank + 1) / n};
}

uint64_t DirBytes(const fs::path& dir) {
  uint64_t n = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) n += e.file_size(ec);
  }
  return n;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

uint64_t ContextSwitches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;
}

/// Resident set size now, KiB (0 where /proc is unavailable).
double RssKib() {
  std::ifstream statm("/proc/self/statm");
  uint64_t pages = 0;
  uint64_t resident = 0;
  if (!(statm >> pages >> resident)) return 0;
  return static_cast<double>(resident) * sysconf(_SC_PAGESIZE) / 1024.0;
}

int AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
}

/// Pins the process to the first CPU of its affinity mask, before any
/// thread starts (threads inherit it). Returns the CPU, or -1.
int PinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

/// The cgroup CPU quota as "quota period" (v2 cpu.max, else the v1 cfs
/// files) and the CPUs it allows (0 = no quota or unreadable).
std::pair<std::string, double> CgroupCpuQuota() {
  std::string quota;
  double period = 0;
  std::ifstream v2("/sys/fs/cgroup/cpu.max");
  if (!(v2 >> quota >> period)) {
    std::ifstream q("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
    std::ifstream p("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
    if (!(q >> quota) || !(p >> period)) return {"unavailable", 0};
    if (quota == "-1") quota = "max";
  }
  const std::string text =
      quota + " " + std::to_string(static_cast<int64_t>(period));
  if (quota == "max" || period <= 0) return {text, 0};
  return {text, std::strtod(quota.c_str(), nullptr) / period};
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Runs `fn` once per client: inline for one client, else one thread each.
template <typename Fn>
void ForEachClient(std::vector<std::unique_ptr<Client>>& clients, Fn fn) {
  if (clients.size() == 1) {
    fn(*clients[0], 0);
    return;
  }
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back([&fn, &clients, i] { fn(*clients[i], i); });
  }
  for (std::thread& t : threads) t.join();
}

/// Runs whole cycles until `seconds` have passed; each iteration's mode
/// comes from `mode_of(iteration index within the phase)`.
template <typename ModeOf>
void RunTimed(Client& c, const Workload& wl, double seconds, ModeOf mode_of,
              Samples* plain, Samples* traced) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (size_t i = 0;; ++i) {
    if (i % wl.cycle == 0 && NowNs() >= deadline) break;
    Mode m = mode_of(i);
    c.Iterate(m, m == Mode::kPlain ? plain : traced);
  }
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Compares every atom's recovered history with the model; returns the
/// number of atoms whose versions differ.
size_t VerifyRecovered(Database* db, const Model& model,
                       std::vector<std::string>* errors) {
  size_t bad = 0;
  for (const ModelAtom& atom : model.atoms()) {
    auto type = db->catalog().GetAtomTypeByName(TypeName(atom.kind));
    auto versions =
        type.ok() ? db->store()->GetVersions(*type.value(), atom.id,
                                             Interval::All())
                  : tcob::Result<std::vector<tcob::AtomVersion>>(type.status());
    bool ok = versions.ok() && versions.value().size() == atom.versions.size();
    for (size_t v = 0; ok && v < atom.versions.size(); ++v) {
      const tcob::AtomVersion& got = versions.value()[v];
      const ModelVersion& want = atom.versions[v];
      ok = (want.begin == Model::kPending || got.valid.begin == want.begin) &&
           got.attrs.size() == want.attrs.size();
      for (size_t a = 0; ok && a < want.attrs.size(); ++a) {
        ok = got.attrs[a].ToString() == want.attrs[a].ToString();
      }
    }
    if (!ok) {
      ++bad;
      if (errors->size() < 8) {
        errors->push_back("recovered history of atom " +
                          std::to_string(atom.id) + " differs from the model");
      }
    }
  }
  return bad;
}

// ---------------------------------------------------------------------------

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: tcobbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workdir DIR [--git-commit SHA]\n");
    return 2;
  }
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wl = &w;
  }
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  bool release = std::strcmp(TCOBBENCH_BUILD_TYPE, "Release") == 0;
#ifndef NDEBUG
  release = false;
#endif
  if (!release) {
    std::fprintf(stderr,
                 "refusing to report timings from a non-Release build "
                 "(build type '%s')\n",
                 TCOBBENCH_BUILD_TYPE);
    return 3;
  }

  // Single-core capacity on the reference host is steady, while the
  // capacity several threads get swings between about one and four cores
  // with neighbouring load; every workload therefore runs on one core.
  const int host_affinity = AffinityCpus();
  const int pinned_cpu = PinToOneCpu();

  const fs::path run_dir = fs::path(args.workdir) /
                           (std::string(wl->name) + "-" +
                            std::to_string(args.seed) + "-" +
                            std::to_string(getpid()));
  std::error_code ec;
  fs::remove_all(run_dir, ec);
  fs::create_directories(run_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", run_dir.c_str());
    return 2;
  }

  DatabaseOptions options;
  options.strategy = wl->strategy;
  options.sync_wal = wl->sync_wal;
  // The bulk load does not fsync per statement; the workload's own flush
  // policy applies from the reopen on.
  DatabaseOptions load_options = options;
  load_options.sync_wal = false;

  // ---- setup: generate + load + checkpoint + reopen, several times ----
  std::vector<double> setup_s;
  std::unique_ptr<Database> db;
  std::unique_ptr<Model> model;
  fs::path db_dir;
  for (size_t k = 0; k < kSetups; ++k) {
    db.reset();
    if (!db_dir.empty()) fs::remove_all(db_dir, ec);
    db_dir = run_dir / ("db" + std::to_string(k));
    model = std::make_unique<Model>();
    const int64_t t0 = NowNs();
    auto loading = Database::Open(db_dir.string(), load_options);
    Status st = loading.status();
    if (st.ok()) st = model->Load(loading.value().get(), wl->gen, args.seed);
    if (st.ok()) st = loading.value()->Checkpoint();
    if (loading.ok()) loading.value().reset();
    if (st.ok()) {
      auto opened = Database::Open(db_dir.string(), options);
      st = opened.status();
      if (st.ok()) db = std::move(opened).value();
    }
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      db.reset();
      fs::remove_all(run_dir, ec);
      return 1;
    }
    setup_s.push_back((NowNs() - t0) / 1e9);
  }
  const uint64_t db_bytes = DirBytes(db_dir);

  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < wl->clients; ++c) {
    clients.push_back(std::make_unique<Client>(*wl, db.get(), model.get(),
                                               static_cast<uint32_t>(c),
                                               args.seed));
    clients.back()->set_next_stamp(db->Now() + 1);
  }
  std::vector<Samples> plain(clients.size());
  std::vector<Samples> traced(clients.size());
  std::vector<Samples> unmeasured(clients.size());

  ForEachClient(clients, [&](Client& c, size_t i) {
    for (size_t n = 0; n < wl->warmup_iters; ++n) {
      c.Iterate(Mode::kPlain, &unmeasured[i]);
    }
  });

  double measured_s = 0;
  double cpu_s = 0;
  uint64_t ctx_switches = 0;
  double rss_growth_kib = 0;
  Counters layer_phase;
  if (!args.trace) {
    const int64_t t0 = NowNs();
    ForEachClient(clients, [&](Client& c, size_t i) {
      RunTimed(c, *wl, args.seconds, [](size_t) { return Mode::kPlain; },
               &plain[i], &traced[i]);
    });
    measured_s = (NowNs() - t0) / 1e9;
  } else {
    const Counters before = Counters::Of(*db);
    ForEachClient(clients, [&](Client& c, size_t i) {
      for (size_t n = 0; n < wl->layer_iters; ++n) {
        c.Iterate(Mode::kLayer, &unmeasured[i]);
      }
    });
    layer_phase = Counters::Of(*db) - before;
    // Untraced and traced iterations alternate, so drift over the run
    // (e.g. memory growth) affects both sides of the overhead equally; with
    // an even cycle the alternation shifts by one each cycle, so every
    // statement kind runs both ways.
    const double cpu0 = CpuSeconds();
    const uint64_t cs0 = ContextSwitches();
    const double rss0 = RssKib();
    const int64_t t0 = NowNs();
    const size_t cycle = wl->cycle;
    ForEachClient(clients, [&](Client& c, size_t i) {
      RunTimed(
          c, *wl, args.seconds,
          [cycle](size_t n) {
            size_t flip = cycle % 2 == 0 ? n + n / cycle : n;
            return flip % 2 == 0 ? Mode::kPlain : Mode::kTraced;
          },
          &plain[i], &traced[i]);
    });
    measured_s = (NowNs() - t0) / 1e9;
    cpu_s = CpuSeconds() - cpu0;
    ctx_switches = ContextSwitches() - cs0;
    rss_growth_kib = RssKib() - rss0;
  }

  // ---- durability: reopen a crash image taken at quiescence ----
  std::vector<std::string> errors;
  for (const auto& c : clients) {
    errors.insert(errors.end(), c->errors().begin(), c->errors().end());
  }
  const fs::path image_dir = run_dir / "crash-image";
  fs::copy(db_dir, image_dir, fs::copy_options::recursive, ec);
  double replay_s = 0;
  size_t recovery_mismatches = 1;
  if (!ec) {
    const int64_t t0 = NowNs();
    auto reopened = Database::Open(image_dir.string(), options);
    replay_s = (NowNs() - t0) / 1e9;
    if (reopened.ok()) {
      recovery_mismatches =
          VerifyRecovered(reopened.value().get(), *model, &errors);
    } else {
      errors.push_back("reopen failed: " + reopened.status().ToString());
    }
  } else {
    errors.push_back("cannot copy the database for the crash image");
  }
  fs::remove_all(image_dir, ec);

  Status final_ckpt = db->Checkpoint();
  if (!final_ckpt.ok()) errors.push_back("final checkpoint failed");
  const double space_amp =
      static_cast<double>(DirBytes(db_dir)) /
      static_cast<double>(std::max<uint64_t>(1, model->UserBytes()));

  Samples all;
  for (const Samples& s : plain) all.Merge(s);
  Samples all_traced;
  for (const Samples& s : traced) all_traced.Merge(s);
  Samples unmeasured_total;
  for (const Samples& s : unmeasured) unmeasured_total.Merge(s);
  const uint64_t attempted =
      all.attempted + all_traced.attempted + unmeasured_total.attempted + 1;
  const uint64_t failed = all.failed + all_traced.failed +
                          unmeasured_total.failed + (recovery_mismatches > 0) +
                          (final_ckpt.ok() ? 0 : 1);
  const bool correct = failed == 0;

  // ---- run record ----
  const auto [cpu_quota, quota_cpus] = CgroupCpuQuota();
  const int pinned_affinity = AffinityCpus();
  const double effective =
      quota_cpus > 0 ? std::min<double>(pinned_affinity, quota_cpus)
                     : pinned_affinity;
  const auto read_tail = Tail(all.read_ms, wl->read_tail_q);
  const auto first_tail = Tail(all.read_first_ms, wl->read_tail_q);
  const auto commit_tail = Tail(all.commit_ms, wl->commit_tail_q);
  const auto auto_tail = Tail(all.autocommit_ms, wl->commit_tail_q);
  std::printf(
      "{\"run_record\": {\"workload\": \"%s\", \"why\": \"%s\", \"seed\": "
      "%" PRIu64 ", \"seconds\": %g, \"trace\": %d, \"git_commit\": \"%s\", "
      "\"build_type\": \"%s\", \"nproc\": %u, \"host_affinity_cpus\": %d, "
      "\"pinned_cpu\": %d, \"cgroup_cpu_quota\": \"%s\", "
      "\"effective_cpus\": %.3g, \"strategy\": "
      "\"%s\", \"clients\": %d, \"sync_wal\": %s, \"group_commit\": %s, "
      "\"parallelism\": %zu, \"pool_pages\": %zu, \"pool_bytes\": %zu, "
      "\"db_bytes_after_setup\": %" PRIu64
      ", \"measured_s\": %.3f, \"reads\": %zu, \"commits\": %zu, "
      "\"autocommits\": %zu, \"tails\": {\"read_ms\": [%.4g, %zu], "
      "\"read_first_row_ms\": [%.4g, %zu], \"commit_ms\": [%.4g, %zu], "
      "\"autocommit_ms\": [%.4g, %zu]}, \"error_rate\": %.6g}}\n",
      wl->name, JsonEscape(wl->why).c_str(), args.seed, args.seconds,
      args.trace ? 1 : 0, JsonEscape(args.git_commit).c_str(),
      TCOBBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
      host_affinity, pinned_cpu, cpu_quota.c_str(), effective,
      tcob::StorageStrategyName(options.strategy),
      wl->clients, options.sync_wal ? "true" : "false",
      options.group_commit ? "true" : "false", options.parallelism,
      options.buffer_pool_pages,
      options.buffer_pool_pages * static_cast<size_t>(tcob::kPageSize),
      db_bytes, measured_s, all.read_ms.size(), all.commit_ms.size(),
      all.autocommit_ms.size(), read_tail.second, all.read_ms.size(),
      first_tail.second, all.read_first_ms.size(), commit_tail.second,
      all.commit_ms.size(), auto_tail.second, all.autocommit_ms.size(),
      Ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  for (const std::string& e : errors) {
    std::fprintf(stderr, "error: %s\n", e.c_str());
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    const double commits =
        static_cast<double>(all.commit_ms.size() + all.autocommit_ms.size());
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"read_first_row_p50_ms", Median(all.read_first_ms), "ms"},
        {"read_first_row_tail_ms", first_tail.first, "ms"},
        {"read_p50_ms", Median(all.read_ms), "ms"},
        {"read_tail_ms", read_tail.first, "ms"},
        {"reads_per_s", all.read_ms.size() / measured_s, "1/s"},
        {"rows_per_s", all.rows / measured_s, "1/s"},
        {"commit_p50_ms", Median(all.commit_ms), "ms"},
        {"commit_tail_ms", commit_tail.first, "ms"},
        {"autocommit_p50_ms", Median(all.autocommit_ms), "ms"},
        {"autocommit_tail_ms", auto_tail.first, "ms"},
        {"commits_per_s", commits / measured_s, "1/s"},
        {"peak_rss_mib", PeakRssMib(), "MiB"},
        {"space_amp", space_amp, "ratio"},
    };
  } else {
    LayerAcc l;
    for (const auto& c : clients) l.Merge(c->layer());
    const double reads = static_cast<double>(l.reads);
    const double commits = static_cast<double>(l.txn_commits + l.autocommits);
    const double phase_selects =
        static_cast<double>(all.read_ms.size() + all_traced.read_ms.size());
    // Drift of the untraced reads of the first client, in the order run.
    const std::vector<double>& seq = plain[0].read_ms;
    const size_t decile = std::max<size_t>(1, seq.size() / 10);
    const double drift =
        seq.size() < 20
            ? 0
            : Ratio(Median({seq.end() - decile, seq.end()}),
                    Median({seq.begin(), seq.begin() + decile}));
    auto overhead_pct = [](const std::vector<double>& base,
                           const std::vector<double>& with) {
      return base.empty() || with.empty()
                 ? 0
                 : 100.0 * (Median(with) / Median(base) - 1.0);
    };
    metrics = {
        {"query.parse_us", Median(l.parse_us), "us"},
        {"query.plan_us", Median(l.plan_us), "us"},
        {"query.execute_us", Median(l.execute_us), "us"},
        {"query.execute_self_us", Median(l.execute_self_us), "us"},
        {"query.rows_per_stmt", Ratio(static_cast<double>(l.rows), reads),
         "count"},
        {"index.lookup_us", Median(l.index_us), "us"},
        {"db.statement_overhead_us", Median(l.overhead_us), "us"},
        {"db.txn_buffer_us", Median(l.txn_buffer_us), "us"},
        {"db.checkpoint_ms", Median(l.checkpoint_ms), "ms"},
        {"db.conflicts_per_commit",
         Ratio(static_cast<double>(layer_phase.txn_conflicts), commits),
         "count"},
        {"mad.materialize_us", Median(l.materialize_us), "us"},
        {"mad.self_us", Median(l.mad_self_us), "us"},
        {"mad.vcache_hit_rate",
         Ratio(static_cast<double>(l.selects.vcache_hits),
               static_cast<double>(l.selects.vcache_probes)),
         "ratio"},
        {"mad.versions_pinned_per_stmt",
         Ratio(static_cast<double>(l.selects.versions_pinned), reads),
         "count"},
        {"tstore.read_us", Median(l.tstore_us), "us"},
        {"tstore.accesses_per_stmt",
         Ratio(static_cast<double>(l.selects.store_accesses), reads), "count"},
        {"storage.pool_fetches_per_stmt",
         Ratio(static_cast<double>(l.selects.pool_fetches), reads), "count"},
        {"storage.pool_hit_rate",
         Ratio(static_cast<double>(l.selects.pool_hits),
               static_cast<double>(l.selects.pool_hits +
                                   l.selects.pool_misses)),
         "ratio"},
        {"storage.pool_evictions_per_stmt",
         Ratio(static_cast<double>(l.selects.pool_evictions), reads), "count"},
        {"storage.disk_reads_per_stmt",
         Ratio(static_cast<double>(l.selects.disk_reads), reads), "count"},
        {"storage.disk_writes_per_commit",
         Ratio(static_cast<double>(layer_phase.disk_writes), commits),
         "count"},
        {"storage.dirty_writebacks_per_checkpoint",
         Ratio(static_cast<double>(l.checkpoint_writes),
               static_cast<double>(l.checkpoints)),
         "count"},
        {"wal.fsyncs_per_commit",
         Ratio(static_cast<double>(layer_phase.wal_syncs), commits), "count"},
        {"wal.group_size_mean",
         Ratio(static_cast<double>(layer_phase.group_commit_members),
               static_cast<double>(layer_phase.group_commits)),
         "count"},
        {"wal.appends_per_commit",
         Ratio(static_cast<double>(layer_phase.wal_appends), commits),
         "count"},
        {"wal.bytes_per_commit",
         Ratio(static_cast<double>(layer_phase.wal_bytes), commits), "B"},
        {"wal.replay_s", replay_s, "s"},
        {"proc.cpu_ms_per_stmt", Ratio(cpu_s * 1e3, phase_selects), "ms"},
        {"proc.ctx_switches_per_stmt",
         Ratio(static_cast<double>(ctx_switches), phase_selects), "count"},
        {"proc.rss_growth_kib_per_stmt", Ratio(rss_growth_kib, phase_selects),
         "KiB"},
        {"proc.latency_drift_ratio", drift, "ratio"},
        {"trace.read_p50_overhead_pct",
         overhead_pct(all.read_ms, all_traced.read_ms), "%"},
        {"trace.commit_p50_overhead_pct",
         overhead_pct(all.commit_ms, all_traced.commit_ms), "%"},
    };
    std::vector<const SpanLog*> logs;
    for (const auto& c : clients) logs.push_back(&c->log());
    const fs::path spans = fs::path(args.workdir) /
                           ("spans-" + std::string(wl->name) + "-" +
                            std::to_string(args.seed) + ".json");
    if (!WriteSpans(spans.string(), logs)) {
      std::fprintf(stderr, "cannot write %s\n", spans.c_str());
    }
  }
  for (const Metric& m : metrics) {
    std::printf("# %-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }

  clients.clear();
  db.reset();
  fs::remove_all(run_dir, ec);
  std::printf("%s\n", ResultLine(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace tcobbench

int main(int argc, char** argv) { return tcobbench::Main(argc, argv); }
