#include "workload.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "checker.h"
#include "probes.h"
#include "queries.h"
#include "serving/session.h"
#include "sumtab/database.h"

namespace sumbench {

using sumtab::Database;
using sumtab::DatabaseOptions;
using sumtab::QueryOptions;
using sumtab::QueryResult;
using sumtab::StatusOr;
namespace fs = std::filesystem;

bool FindWorkload(const std::string& name, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "dashboard") {
    s.sizes = {100000, 100000, 10000};
    s.dashboard_client = true;
    s.query_tail = 0.99;
  } else if (name == "adhoc") {
    // lineitem alone is ~17 MB as int64/double columns: far past L2.
    s.sizes = {100000, 300000, 30000};
    s.dashboard_client = false;
    s.query_tail = 0.95;
  } else if (name == "ingest") {
    s.sizes = {100000, 100000, 10000};
    s.dashboard_client = false;
    s.solo_share = 0;
    s.client_in_mixed = true;
    s.append_period_ms = 100;
    s.append_rows = 500;
    s.query_tail = 0.99;
  } else {
    return false;
  }
  *spec = s;
  return true;
}

namespace {

/// Appender cycle: three eagerly maintained batches, two deferred ones (the
/// trans ASTs go stale and reads over them are answered by compensation),
/// then a RefreshSummaryTable of every trans AST. Eager appends are the
/// majority, so the median append is an eager one rather than falling
/// between the two modes.
enum class AppendStep { kEager, kDeferred, kRefresh };
AppendStep StepOf(int64_t k) {
  switch (k % 6) {
    case 0:
    case 1:
    case 2:
      return AppendStep::kEager;
    case 3:
    case 4:
      return AppendStep::kDeferred;
    default:
      return AppendStep::kRefresh;
  }
}

class Runner {
 public:
  explicit Runner(const RunConfig& config)
      : cfg_(config),
        spec_(config.spec),
        append_rng_(config.seed * 31 + 17) {
    // Of the generated rows the benchmark keeps only what it needs later,
    // so that peak_rss_mb is the program's memory, not a second copy of
    // the data.
    Dataset data = Generate(spec_.sizes, cfg_.seed);
    ref_.AddAll(data.trans);
    next_tid_ = static_cast<int64_t>(data.trans.size());
    home_ = data.home;
    revenue_by_year_ = LineitemRevenueByYear(data);
    orders_by_year_ = OrdersByYear(data);
  }

  RunResult Run() {
    std::string self_test = CheckerSelfTest();
    if (!self_test.empty()) Fail("checker self-test: " + self_test);
    Setup();
    CheckReferences("after set-up");
    Window();
    if (cfg_.trace) Probes();
    CheckAfterWindow();
    Restart();
    CheckAfterRestart();
    return Finish();
  }

 private:
  // ---- bookkeeping ----

  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    correct_ = false;
    if (errors_++ < 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  void OpFailed(const std::string& what) {
    failed_.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu_);
    if (errors_++ < 20) std::fprintf(stderr, "OP FAILED: %s\n", what.c_str());
  }

  DatabaseOptions Durable(const std::string& dir) const {
    DatabaseOptions options;
    options.data_dir = dir;
    options.wal_sync = true;  // flush policy: fsync before every publish
    options.checkpoint_interval_records = 0;  // checkpoints are explicit
    return options;
  }

  /// Appends `n` new rows to trans; on acknowledgement, folds them into the
  /// reference and advances the tid counter. Returns false on failure.
  bool AppendTrans(Database* db, int n, bool maintain, double* ms) {
    std::vector<Row> rows = MakeTransBatch(&append_rng_, next_tid_, n, home_);
    std::vector<Row> copy = rows;
    Database::AppendOptions options;
    options.maintain = maintain;
    auto start = Clock::now();
    auto result = db->Append("trans", std::move(rows), options);
    if (ms != nullptr) *ms = MsSince(start);
    if (!result.ok()) {
      OpFailed("append: " + result.status().ToString());
      return false;
    }
    ref_.AddAll(copy);
    next_tid_ += n;
    return true;
  }

  // ---- set-up ----

  /// Creates both schemas, loads the rows (generated afresh from the seed,
  /// untimed, and moved into the program) and materializes every AST on a
  /// durable database in `dir`; returns the seconds the program took.
  double SetupOnce(const std::string& dir, std::unique_ptr<Database>* out) {
    fs::remove_all(dir);
    Dataset data = Generate(spec_.sizes, cfg_.seed);
    auto start = Clock::now();
    auto opened = Database::Open(Durable(dir));
    if (!opened.ok()) {
      Fail("open: " + opened.status().ToString());
      return 0;
    }
    std::unique_ptr<Database> db = std::move(*opened);
    auto loaded = LoadDataset(db.get(), std::move(data));
    if (!loaded.ok()) Fail("load: " + loaded.ToString());
    for (const NamedSql& ast : Asts()) {
      auto rows = db->DefineSummaryTable(ast.name, ast.sql);
      if (!rows.ok()) Fail(std::string("define ") + ast.name + ": " +
                           rows.status().ToString());
    }
    double seconds = MsSince(start) / 1000;
    *out = std::move(db);
    return seconds;
  }

  void Setup() {
    std::vector<double> times;
    for (int i = 0; i < kSetups; ++i) {
      db_.reset();
      std::string dir = cfg_.data_dir + "/db" + std::to_string(i);
      times.push_back(SetupOnce(dir, &db_));
      if (i + 1 < kSetups) {
        db_.reset();
        fs::remove_all(dir);
      }
    }
    db_dir_ = cfg_.data_dir + "/db" + std::to_string(kSetups - 1);
    setup_s_ = Median(times);
    server_ = std::make_unique<sumtab::serving::Server>(db_.get(), Admission());
  }

  static sumtab::serving::AdmissionOptions Admission() {
    sumtab::serving::AdmissionOptions admission;
    admission.max_concurrent = 16;
    admission.max_queued = 256;
    admission.max_wait_millis = 60000;
    return admission;
  }

  // ---- the measured window ----

  void Window() {
    auto before = db_->Stats();
    const auto start = Clock::now();
    auto at = [&](double seconds) {
      return start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
    };
    const auto solo_end = at(cfg_.seconds * spec_.solo_share);
    const auto deadline = at(cfg_.seconds * (1 - kCompensatedShare));
    if (solo_end > start) ClientLoop(start, solo_end);
    const auto mixed_start = Clock::now();
    const int lanes = kReadSenders;
    std::vector<std::thread> readers;
    for (int lane = 0; lane < lanes; ++lane) {
      readers.emplace_back(
          [&, lane] { ReadLoop(mixed_start, deadline, lane, lanes); });
    }
    std::thread appender([&] { AppendLoop(mixed_start, deadline); });
    if (spec_.client_in_mixed) ClientLoop(mixed_start, deadline);
    for (std::thread& reader : readers) reader.join();
    appender.join();
    CompensatedLoop(cfg_.seconds * kCompensatedShare);
    window_s_ = MsSince(start) / 1000;
    auto after = db_->Stats();
    int64_t hits = after.plan_cache_hits - before.plan_cache_hits;
    int64_t lookups = hits + after.plan_cache_misses - before.plan_cache_misses +
                      after.plan_cache_invalidations -
                      before.plan_cache_invalidations;
    plan_cache_hit_ratio_ =
        lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                    : 0;
    plan_cache_invalidations_ = static_cast<double>(
        after.plan_cache_invalidations - before.plan_cache_invalidations);
  }

  std::vector<std::string> ClientRound(Rng* rng) const {
    return spec_.dashboard_client ? texts_.Round(rng) : AdhocRound(rng);
  }

  /// Closed loop: the next query goes out when the previous one returns.
  /// Queries go in whole rounds (ClientRound), so every run sends the same
  /// mix.
  void ClientLoop(Clock::time_point start, Clock::time_point deadline) {
    auto session = server_->CreateSession();
    Rng rng(cfg_.seed * 7 + 1 + client_lat_.size());
    std::vector<std::string> round;
    size_t next = 0;
    while (Clock::now() < deadline) {
      if (next == round.size()) {
        round = ClientRound(&rng);
        next = 0;
      }
      const std::string& sql = round[next++];
      auto t0 = Clock::now();
      StatusOr<QueryResult> result = session->Query(sql, BenchOptions());
      auto done = Clock::now();
      attempted_.fetch_add(1);
      if (!result.ok()) {
        OpFailed("client query: " + result.status().ToString() + ": " + sql);
        continue;
      }
      client_lat_.push_back(MsSince(t0, done));
      client_rewritten_ += result->used_summary_table ? 1 : 0;
    }
    client_busy_s_ += MsSince(start) / 1000;
    rejected_ += session->GetStats().rejected;
  }

  /// Open loop: read i is due at start + i / kReadRate whether or not
  /// earlier reads have returned, and is timed from that moment. Reader
  /// `lane` of `lanes` sends the reads with i % lanes == lane, so one slow
  /// read delays only its own sender.
  void ReadLoop(Clock::time_point start, Clock::time_point deadline,
                int lane, int lanes) {
    auto session = server_->CreateSession({.max_in_flight = 4, .weight = 2});
    Rng rng(cfg_.seed * 13 + 5 + static_cast<uint64_t>(lane));
    std::vector<std::string> round;
    size_t next = 0;
    std::vector<double> lat, lag;
    const auto interval = std::chrono::nanoseconds(
        static_cast<int64_t>(1e9 / kReadRate));
    for (int64_t i = lane;; i += lanes) {
      auto scheduled = start + i * interval;
      if (scheduled >= deadline) break;
      std::this_thread::sleep_until(scheduled);
      auto sent = Clock::now();
      lag.push_back(MsSince(scheduled, sent));
      if (next == round.size()) {
        round = texts_.HotRound(&rng);
        next = 0;
      }
      const std::string& sql = round[next++];
      StatusOr<QueryResult> result = session->Query(sql, BenchOptions());
      auto done = Clock::now();
      attempted_.fetch_add(1);
      if (!result.ok()) {
        OpFailed("read: " + result.status().ToString() + ": " + sql);
        continue;
      }
      lat.push_back(MsSince(scheduled, done));
    }
    rejected_ += session->GetStats().rejected;
    std::lock_guard<std::mutex> lock(mu_);
    read_lat_.insert(read_lat_.end(), lat.begin(), lat.end());
    lag_ms_.insert(lag_ms_.end(), lag.begin(), lag.end());
  }

  /// Compensated phase, in kCompensatedCycles equal cycles: the trans ASTs
  /// are refreshed and then left stale by kStaleBatches deferred batches, so
  /// every read sees the same delta, and one closed-loop session sends, in
  /// whole rounds, the hot trans texts that compensation answered in an
  /// untimed first pass. Reads in the
  /// mixed phase land on stale ASTs too, but their latency there followed
  /// the appender's timing and the host's load: over ten seeds its
  /// quartile spread reached 0.36 of the median. The texts' latencies
  /// range over 0.1-3 ms, so the median read falls on a steep slope of the
  /// mix (again 0.36 over ten seeds); compensated_query_ms is the median
  /// over rounds of a round's mean read instead.
  void CompensatedLoop(double seconds) {
    for (int cycle = 0; cycle < kCompensatedCycles; ++cycle) {
      CompensatedCycle(seconds / kCompensatedCycles);
    }
  }

  void CompensatedCycle(double seconds) {
    for (const NamedSql& ast : Asts()) {
      if (!ast.on_trans) continue;
      auto st = db_->RefreshSummaryTable(ast.name);
      if (!st.ok()) Fail("refresh before the compensated phase: " + st.ToString());
    }
    for (int i = 0; i < kStaleBatches; ++i) {
      AppendTrans(db_.get(), spec_.append_rows, false, nullptr);
    }
    auto session = server_->CreateSession();
    std::vector<std::string> round;
    for (const std::string& sql : texts_.hot_trans()) {
      attempted_.fetch_add(1);
      StatusOr<QueryResult> result = session->Query(sql, BenchOptions());
      if (!result.ok()) {
        OpFailed("compensated read: " + result.status().ToString() + ": " + sql);
      } else if (result->compensated) {
        round.push_back(sql);
      }
    }
    if (round.empty()) {
      Fail("no hot trans text is answered by compensation");
      return;
    }
    const auto deadline =
        Clock::now() + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
    do {
      double round_ms = 0;
      int answered = 0;
      for (const std::string& sql : round) {
        auto t0 = Clock::now();
        StatusOr<QueryResult> result = session->Query(sql, BenchOptions());
        auto done = Clock::now();
        attempted_.fetch_add(1);
        if (!result.ok()) {
          OpFailed("compensated read: " + result.status().ToString() + ": " + sql);
          continue;
        }
        compensated_lat_.push_back(MsSince(t0, done));
        round_ms += MsSince(t0, done);
        ++answered;
        compensation_rows_.push_back(
            static_cast<double>(result->compensation_delta_rows));
      }
      if (answered > 0) compensated_round_ms_.push_back(round_ms / answered);
    } while (Clock::now() < deadline);
    rejected_ += session->GetStats().rejected;
  }

  void AppendLoop(Clock::time_point start, Clock::time_point deadline) {
    auto session = server_->CreateSession();
    const auto period = std::chrono::milliseconds(spec_.append_period_ms);
    for (int64_t k = 0;; ++k) {
      auto scheduled = start + k * period;
      if (scheduled >= deadline || Clock::now() >= deadline) break;
      std::this_thread::sleep_until(scheduled);
      AppendStep step = StepOf(k);
      attempted_.fetch_add(1);
      if (step == AppendStep::kRefresh) {
        for (const NamedSql& ast : Asts()) {
          if (!ast.on_trans) continue;
          auto t0 = Clock::now();
          auto st = db_->RefreshSummaryTable(ast.name);
          if (!st.ok()) OpFailed("refresh: " + st.ToString());
          refresh_ms_.push_back(MsSince(t0));
        }
        continue;
      }
      double ms = 0;
      if (!AppendTrans(db_.get(), spec_.append_rows,
                       step == AppendStep::kEager, &ms)) {
        continue;
      }
      append_lat_.push_back(ms);
      appended_rows_ += spec_.append_rows;
      append_busy_ms_ += ms;

      // The first query after an append scans the new trans version.
      attempted_.fetch_add(1);
      auto t0 = Clock::now();
      StatusOr<QueryResult> scan = session->Query(kTransScanSql, BenchOptions(false));
      double scan_ms = MsSince(t0);
      if (!scan.ok()) {
        OpFailed("post-append scan: " + scan.status().ToString());
        continue;
      }
      post_scan_ms_.push_back(scan_ms);
      std::string diff =
          CompareRows(scan->relation.rows, ExpectedTransScan(ref_));
      if (!diff.empty()) Fail("post-append scan: " + diff);
    }
    rejected_ += session->GetStats().rejected;
  }

  // ---- per-layer probes (traced runs only) ----

  void Probes() {
    ProbeContext ctx{db_.get(), server_.get(), &texts_,       &spec_,
                     cfg_.seed,  cfg_.data_dir, next_tid_};
    ProbeResult probes = RunProbes(ctx);
    for (Metric& m : probes.metrics) layer_.push_back(std::move(m));
    for (const std::string& e : probes.errors) Fail(e);
    // The probes append to trans on the main database (first scan after an
    // append); fold those acknowledged rows into the reference.
    for (const std::vector<Row>& batch : probes.main_appends) {
      ref_.AddAll(batch);
      next_tid_ += static_cast<int64_t>(batch.size());
    }
  }

  // ---- checks (outside every timed region) ----

  void ExpectRows(const std::string& what, const std::string& sql,
                  const QueryOptions& options, const std::vector<Row>& want) {
    StatusOr<QueryResult> result = db_->Query(sql, options);
    if (!result.ok()) {
      Fail(what + ": " + result.status().ToString() + ": " + sql);
      return;
    }
    std::string diff = CompareRows(result->relation.rows, want);
    if (!diff.empty()) Fail(what + ": " + diff + ": " + sql);
  }

  /// Answers against the benchmark's own aggregates, with the rewrite on
  /// (most of these are answered from an AST) and off.
  void CheckReferences(const std::string& when) {
    const struct {
      const char* sql;
      std::vector<Row> want;
    } checks[] = {
        {"select year(date) as y, count(*) as cnt, sum(qty) as q, "
         "sum(qty * price) as v from trans group by year(date)",
         ExpectedTransByYear(ref_)},
        {"select year(date) as y, sum(qty * price) as value from trans "
         "group by year(date)",
         ExpectedValueByYear(ref_)},
        {"select flid, year(date) as year, count(*) as cnt from trans "
         "group by flid, year(date)",
         ExpectedCountByFlidYear(ref_)},
        {"select count(*) as n, sum(qty) as q, sum(tid) as t from trans",
         {Row{sumtab::Value::Int(ref_.rows), sumtab::Value::Int(ref_.qty),
              sumtab::Value::Int(ref_.tid_sum)}}},
        {"select year(shipdate) as y, sum(lprice * (1 - ldisc)) as rev "
         "from lineitem group by year(shipdate)",
         ExpectedRevenueByYear(revenue_by_year_)},
        {"select year(odate) as y, count(*) as cnt from orders "
         "group by year(odate)",
         ExpectedOrdersByYear(orders_by_year_)},
    };
    for (const auto& check : checks) {
      ExpectRows("reference " + when, check.sql, BenchOptions(), check.want);
      ExpectRows("reference (rewrite off) " + when, check.sql, BenchOptions(false),
                 check.want);
    }
  }

  /// Rewrite-on must equal rewrite-off (Cohen & Nutt: a rewrite is correct
  /// only if it equals the query over the base tables).
  void CheckEquivalence(const std::string& when, const std::string& sql) {
    StatusOr<QueryResult> base = db_->Query(sql, BenchOptions(false));
    StatusOr<QueryResult> rewritten = db_->Query(sql, BenchOptions());
    if (!base.ok() || !rewritten.ok()) {
      Fail("equivalence " + when + ": query failed: " + sql);
      return;
    }
    std::string diff =
        CompareRows(rewritten->relation.rows, base->relation.rows);
    if (!diff.empty()) {
      Fail("rewrite != base " + when + " via " + rewritten->summary_table +
           ": " + diff + ": " + sql);
    }
  }

  void CheckAllTexts(const std::string& when) {
    for (const std::string& sql : texts_.hot()) CheckEquivalence(when, sql);
    Rng rng(cfg_.seed * 101 + 9);
    for (int i = 0; i < kColdChecks; ++i) {
      CheckEquivalence(when, DashboardTexts::Variant(&rng));
    }
    for (const NamedSql& q : AdhocQueries()) CheckEquivalence(when, q.sql);
  }

  /// Every AST's stored rows against a from-scratch recompute of its
  /// definition over the base tables.
  void CheckAstsAgainstRecompute(const std::string& when) {
    for (const NamedSql& ast : Asts()) {
      auto info = db_->GetSummaryTableInfo(ast.name);
      if (!info.ok() || info->state != sumtab::AstState::kFresh) {
        Fail(std::string("AST ") + ast.name + " not fresh " + when);
        continue;
      }
      const sumtab::catalog::Table* table = db_->catalog().FindTable(ast.name);
      if (table == nullptr) {
        Fail(std::string("AST ") + ast.name + " missing from the catalog");
        continue;
      }
      std::string columns;
      for (const auto& column : table->columns) {
        columns += (columns.empty() ? "" : ", ") + column.name;
      }
      StatusOr<QueryResult> stored = db_->Query(
          "select " + columns + " from " + ast.name, BenchOptions(false));
      StatusOr<QueryResult> recomputed = db_->Query(ast.sql, BenchOptions(false));
      if (!stored.ok() || !recomputed.ok()) {
        Fail(std::string("AST ") + ast.name + " query failed " + when + ": " +
             (stored.ok() ? recomputed.status() : stored.status()).ToString());
        continue;
      }
      std::string diff =
          CompareRows(stored->relation.rows, recomputed->relation.rows);
      if (!diff.empty()) {
        Fail(std::string("AST ") + ast.name + " != recompute " + when + ": " +
             diff);
      }
    }
  }

  void CheckAfterWindow() {
    // Fresh ASTs, then incrementally maintained batches on top: the stored
    // ASTs must equal their recompute.
    for (const NamedSql& ast : Asts()) {
      auto st = db_->RefreshSummaryTable(ast.name);
      if (!st.ok()) Fail("refresh before checks: " + st.ToString());
    }
    for (int i = 0; i < 2; ++i) {
      AppendTrans(db_.get(), spec_.append_rows, true, nullptr);
    }
    CheckAstsAgainstRecompute("after the window");
    CheckReferences("after the window");
    // Deferred batches leave the trans ASTs stale: rewrites now go through
    // delta compensation and must still equal the base-table answer.
    for (int i = 0; i < 2; ++i) {
      AppendTrans(db_.get(), spec_.append_rows, false, nullptr);
    }
    CheckAllTexts("with compensation");
    CheckReferences("with compensation");
  }

  // ---- restart ----

  void Restart() {
    auto t0 = Clock::now();
    auto st = db_->Checkpoint();
    checkpoint_ms_ = MsSince(t0);
    if (!st.ok()) Fail("checkpoint: " + st.ToString());
    checkpoint_bytes_ = 0;
    for (const auto& entry : fs::directory_iterator(db_dir_)) {
      if (entry.path().filename().string().rfind("ckpt-", 0) == 0) {
        checkpoint_bytes_ += static_cast<double>(entry.file_size());
      }
    }
    // A fixed WAL suffix past the checkpoint, so every open replays the
    // same records.
    for (int i = 0; i < kSuffixAppends; ++i) {
      AppendTrans(db_.get(), kSuffixRows, false, nullptr);
    }
    server_.reset();
    db_.reset();

    const std::string first_sql = texts_.hot().front();
    std::vector<double> restart, open;
    for (int i = 0; i < kRestarts; ++i) {
      db_.reset();
      attempted_.fetch_add(1);
      auto start = Clock::now();
      auto opened = Database::Open(Durable(db_dir_));
      double open_ms = MsSince(start);
      if (!opened.ok()) {
        OpFailed("reopen: " + opened.status().ToString());
        continue;
      }
      db_ = std::move(*opened);
      StatusOr<QueryResult> first = db_->Query(first_sql, BenchOptions());
      double total_s = MsSince(start) / 1000;
      if (!first.ok()) {
        OpFailed("first query after restart: " + first.status().ToString());
        continue;
      }
      restart.push_back(total_s);
      open.push_back(open_ms);
    }
    restart_s_ = Median(restart);
    open_ms_ = Median(open);
    if (db_ != nullptr) {
      replayed_records_ = static_cast<double>(
          db_->Stats().durability.recovery_replayed_records);
    }
  }

  void CheckAfterRestart() {
    if (db_ == nullptr) {
      Fail("no database after restart");
      return;
    }
    // Every acknowledged append is present: the reference covers exactly
    // the batches Append acknowledged.
    CheckReferences("after restart");
    for (const std::string& sql : texts_.hot_trans()) {
      CheckEquivalence("after restart", sql);
    }
  }

  RunResult Finish() {
    RunResult r;
    r.correct = correct_;
    r.attempted = attempted_.load();
    r.failed = failed_.load();
    if (client_lat_.size() < 1.0 / (1 - spec_.query_tail) * 10 ||
        append_lat_.size() < 1.0 / (1 - kAppendTail) * 10) {
      std::fprintf(stderr,
                   "note: fewer than ten samples beyond a tail percentile "
                   "(client %zu, reads %zu, appends %zu)\n",
                   client_lat_.size(), read_lat_.size(), append_lat_.size());
    }
    if (cfg_.trace) {
      r.metrics = layer_;
      r.metrics.push_back({"sumtab.plan_cache_hit_ratio", plan_cache_hit_ratio_, "ratio"});
      r.metrics.push_back({"sumtab.plan_cache_invalidations", plan_cache_invalidations_, "count"});
      r.metrics.push_back({"sumtab.refresh_ms", Median(refresh_ms_), "ms"});
      r.metrics.push_back({"sumtab.compensation_delta_rows", Mean(compensation_rows_), "rows"});
      r.metrics.push_back({"wal.checkpoint_ms", checkpoint_ms_, "ms"});
      r.metrics.push_back({"wal.checkpoint_bytes", checkpoint_bytes_, "bytes"});
      r.metrics.push_back({"wal.open_ms", open_ms_, "ms"});
      r.metrics.push_back({"wal.replayed_records", replayed_records_, "count"});
      r.metrics.push_back({"serving.rejected", static_cast<double>(rejected_.load()), "count"});
      r.metrics.push_back({"loadgen.lag_ms", Mean(lag_ms_), "ms"});
      // The traced run's own client median, to set beside the untraced
      // runs' query_p50_ms (sumbench/steady.py --trace does).
      r.metrics.push_back({"trace.query_p50_ms", Median(client_lat_), "ms"});
      std::fprintf(stderr, "client rewritten share %.3f\n",
                   client_lat_.empty() ? 0.0
                       : static_cast<double>(client_rewritten_) /
                             static_cast<double>(client_lat_.size()));
      return r;
    }
    r.metrics = {
        {"setup_s", setup_s_, "s"},
        {"queries_per_s", static_cast<double>(client_lat_.size()) / client_busy_s_,
         "1/s"},
        {"query_p50_ms", Median(client_lat_), "ms"},
        {"query_tail_ms", Percentile(client_lat_, spec_.query_tail), "ms"},
        {"read_p50_ms", Median(read_lat_), "ms"},
        {"append_rows_per_s", append_busy_ms_ > 0
             ? static_cast<double>(appended_rows_) / (append_busy_ms_ / 1000) : 0,
         "rows/s"},
        {"append_p50_ms", Median(append_lat_), "ms"},
        {"append_tail_ms", Percentile(append_lat_, kAppendTail), "ms"},
        {"post_append_scan_ms", Median(post_scan_ms_), "ms"},
        {"compensated_query_ms", Median(compensated_round_ms_), "ms"},
        {"restart_s", restart_s_, "s"},
        {"peak_rss_mb", PeakRssMiB(), "MiB"},
    };
    for (const auto& [label, v] :
         {std::pair<const char*, const std::vector<double>*>{"client", &client_lat_},
          {"reads", &read_lat_},
          {"comp", &compensated_lat_},
          {"appends", &append_lat_}}) {
      std::fprintf(stderr, "%-8s p50 %.3f p75 %.3f p90 %.3f p95 %.3f p98 %.3f "
                   "p99 %.3f p99.9 %.3f ms\n", label, Percentile(*v, 0.5),
                   Percentile(*v, 0.75), Percentile(*v, 0.9), Percentile(*v, 0.95),
                   Percentile(*v, 0.98), Percentile(*v, 0.99), Percentile(*v, 0.999));
    }
    std::fprintf(stderr,
                 "samples: client %zu (rewritten %lld), reads %zu "
                 "(compensated %zu in %zu rounds), appends %zu, window %.2f s\n",
                 client_lat_.size(), static_cast<long long>(client_rewritten_),
                 read_lat_.size(), compensated_lat_.size(), compensated_round_ms_.size(),
                 append_lat_.size(),
                 window_s_);
    return r;
  }

  static constexpr int kSetups = 3;
  static constexpr int kRestarts = 5;
  /// Threads that send the open-loop reads in the mixed phase, beside the
  /// appender and (ingest) the closed-loop client. Dashboard and adhoc so
  /// leave one of four vCPUs free: with three senders at 200 reads/s, their
  /// read and append metrics followed the host's load, spreading up to
  /// 0.37 of the median over ten seeds.
  static constexpr int kReadSenders = 2;
  /// Open-loop dashboard reads per second, over all senders.
  static constexpr double kReadRate = 100;
  /// Deferred batches behind the trans ASTs in the compensated phase.
  static constexpr int kStaleBatches = 2;
  /// Refresh-and-stale cycles in the compensated phase. One run's cycles
  /// read up to 1.4 times apart, with the same seed and delta, so the
  /// median is taken over the rounds of several.
  static constexpr int kCompensatedCycles = 6;
  static constexpr int kSuffixAppends = 16;
  static constexpr int kSuffixRows = 100;
  static constexpr int kColdChecks = 24;

  const RunConfig cfg_;
  const WorkloadSpec spec_;
  const DashboardTexts texts_;
  std::vector<int> home_;  // Dataset::home
  std::map<int, double> revenue_by_year_;
  std::map<int, int64_t> orders_by_year_;

  // Written by the appender thread during the window, by the main thread
  // otherwise.
  Rng append_rng_;
  TransReference ref_;
  int64_t next_tid_ = 0;

  std::unique_ptr<Database> db_;
  std::unique_ptr<sumtab::serving::Server> server_;
  std::string db_dir_;

  std::mutex mu_;
  bool correct_ = true;
  int errors_ = 0;
  std::atomic<int64_t> attempted_{0};
  std::atomic<int64_t> failed_{0};
  std::atomic<int64_t> rejected_{0};

  // Samples; each vector has a single writer thread.
  std::vector<double> client_lat_, read_lat_, compensated_lat_, compensated_round_ms_,
      compensation_rows_, lag_ms_, append_lat_, post_scan_ms_, refresh_ms_;
  int64_t client_rewritten_ = 0;
  int64_t appended_rows_ = 0;
  double append_busy_ms_ = 0;
  double client_busy_s_ = 0;
  double window_s_ = 0;
  double setup_s_ = 0;
  double restart_s_ = 0;
  double open_ms_ = 0;
  double replayed_records_ = 0;
  double checkpoint_ms_ = 0;
  double checkpoint_bytes_ = 0;
  double plan_cache_hit_ratio_ = 0;
  double plan_cache_invalidations_ = 0;
  std::vector<Metric> layer_;
};

}  // namespace

RunResult RunWorkload(const RunConfig& config) {
  Runner runner(config);
  return runner.Run();
}

}  // namespace sumbench
