#include "probes.h"

#include <algorithm>
#include <filesystem>
#include <memory>

#include "engine/executor.h"
#include "matching/rewriter.h"
#include "qgm/qgm_builder.h"
#include "sql/parser.h"

namespace sumbench {

using sumtab::Database;
using sumtab::QueryOptions;
using sumtab::StatusOr;

namespace {

/// Threads of the engine's thread curve: 1 to the 4 cores of the reference
/// machine (the engine clamps lanes to its pool, so the names stay fixed).
constexpr int kCurveThreads = 4;
constexpr int kReps = 5;

class Prober {
 public:
  explicit Prober(const ProbeContext& ctx)
      : ctx_(ctx),
        data_(Generate(ctx.spec->sizes, ctx.seed)),
        rng_(ctx.seed * 211 + 3),
        next_tid_(ctx.next_tid) {}

  ProbeResult Run() {
    Planning();
    ScanFloor();
    ThreadCurve();
    ColumnarBuild();
    Twins();
    ServingOverhead();
    TraceOverhead();
    return std::move(out_);
  }

 private:
  void Put(const std::string& name, double value, const std::string& unit) {
    out_.metrics.push_back({name, value, unit});
  }
  void Error(const std::string& e) { out_.errors.push_back(e); }

  sumtab::engine::ExecOptions Exec(int threads) const {
    sumtab::engine::ExecOptions options;
    options.vectorized = true;
    options.max_threads = threads;
    return options;
  }

  StatusOr<sumtab::qgm::Graph> Graph(const std::string& sql) const {
    auto stmt = sumtab::sql::Parse(sql);
    if (!stmt.ok()) return stmt.status();
    return sumtab::qgm::BuildGraph(**stmt, ctx_.db->catalog());
  }

  /// The client's query mix, as in the window.
  std::vector<std::string> ClientTexts() {
    std::vector<std::string> texts;
    Rng rng(ctx_.seed * 7 + 1);
    for (int i = 0; i < (ctx_.spec->dashboard_client ? 5 : 2); ++i) {
      std::vector<std::string> round = ctx_.spec->dashboard_client
                                           ? ctx_.texts->Round(&rng)
                                           : AdhocRound(&rng);
      texts.insert(texts.end(), round.begin(), round.end());
    }
    return texts;
  }

  /// sql.parse_us, qgm.build_us, matching.* and engine.execute_us over the
  /// client's query mix: the steps Database::Query runs on a plan-cache
  /// miss, called one module at a time.
  void Planning() {
    std::vector<sumtab::qgm::Graph> ast_graphs;
    std::vector<std::string> ast_names;
    for (const NamedSql& ast : Asts()) {
      auto graph = Graph(ast.sql);
      if (!graph.ok()) {
        Error(std::string("AST graph ") + ast.name + ": " +
              graph.status().ToString());
        return;
      }
      ast_graphs.push_back(std::move(*graph));
      ast_names.push_back(ast.name);
    }
    const sumtab::catalog::Catalog& catalog = ctx_.db->catalog();
    std::vector<double> parse_us, build_us, rewrite_us, attempts, exec_us;
    int rewritten_queries = 0;
    for (const std::string& sql : ClientTexts()) {
      auto t0 = Clock::now();
      auto stmt = sumtab::sql::Parse(sql);
      parse_us.push_back(UsSince(t0));
      if (!stmt.ok()) {
        Error("parse: " + sql);
        continue;
      }
      t0 = Clock::now();
      auto graph = sumtab::qgm::BuildGraph(**stmt, catalog);
      build_us.push_back(UsSince(t0));
      if (!graph.ok()) {
        Error("build: " + sql);
        continue;
      }
      // Round 0 offers every AST; a rewrite is offered to every AST once
      // more, as Database's iterative rerouting does.
      const sumtab::qgm::Graph* current = &*graph;
      std::unique_ptr<sumtab::qgm::Graph> chosen;
      double spent = 0;
      int tried = 0;
      for (int round = 0; round < 2; ++round) {
        std::unique_ptr<sumtab::qgm::Graph> round_best;
        int64_t round_rows = -1;
        for (size_t a = 0; a < ast_graphs.size(); ++a) {
          sumtab::matching::SummaryTableDef def{ast_names[a], &ast_graphs[a]};
          t0 = Clock::now();
          auto result = sumtab::matching::RewriteQuery(*current, def, catalog);
          spent += UsSince(t0);
          ++tried;
          if (!result.ok() || !result->rewritten) continue;
          // Like Database, prefer the rewrite that scans the fewest rows.
          int64_t rows = ctx_.db->TableRows(ast_names[a]);
          if (round_rows < 0 || rows < round_rows) {
            round_rows = rows;
            round_best =
                std::make_unique<sumtab::qgm::Graph>(std::move(result->graph));
          }
        }
        if (round_best == nullptr) break;
        chosen = std::move(round_best);
        current = chosen.get();
      }
      rewrite_us.push_back(spent);
      attempts.push_back(tried);
      rewritten_queries += current != &*graph ? 1 : 0;
      if (exec_us.size() < 64) {
        sumtab::engine::Executor executor(ctx_.db->storage(), Exec(kQueryLanes));
        t0 = Clock::now();
        auto rel = executor.Execute(*current);
        exec_us.push_back(UsSince(t0));
        if (!rel.ok()) Error("execute: " + rel.status().ToString() + ": " + sql);
      }
    }
    Put("sql.parse_us", Mean(parse_us), "us");
    Put("qgm.build_us", Mean(build_us), "us");
    Put("matching.rewrite_us", Mean(rewrite_us), "us");
    Put("matching.attempts_per_query", Mean(attempts), "count");
    Put("matching.rewrite_ratio",
        parse_us.empty() ? 0
                         : static_cast<double>(rewritten_queries) /
                               static_cast<double>(parse_us.size()),
        "ratio");
    Put("engine.execute_us", Median(exec_us), "us");
  }

  /// engine.ns_per_row for a one-column sum over lineitem (the largest fact
  /// table of every workload), single-threaded, beside the benchmark's own
  /// plain int64 sum over the same column.
  void ScanFloor() {
    auto graph = Graph("select sum(lqty) as q from lineitem");
    if (!graph.ok()) {
      Error("floor graph: " + graph.status().ToString());
      return;
    }
    std::vector<int64_t> column;
    for (const Row& row : data_.lineitem) column.push_back(row[3].AsInt());
    const double rows = static_cast<double>(column.size());
    std::vector<double> engine_ns, floor_ns;
    for (int rep = 0; rep < kReps; ++rep) {
      sumtab::engine::Executor executor(ctx_.db->storage(), Exec(1));
      auto t0 = Clock::now();
      auto rel = executor.Execute(*graph);
      engine_ns.push_back(UsSince(t0) * 1000 / rows);
      if (!rel.ok() || rel->rows.size() != 1) {
        Error("floor query failed");
        return;
      }
      t0 = Clock::now();
      int64_t sum = 0;
      for (int64_t v : column) sum += v;
      // Keeps the loop from being folded away and checks the engine.
      volatile int64_t sink = sum;
      floor_ns.push_back(UsSince(t0) * 1000 / rows);
      if (sink != rel->rows[0][0].AsInt()) Error("sum(lqty) != column sum");
    }
    Put("engine.ns_per_row", Median(engine_ns), "ns");
    Put("engine.colsum_floor_ns_per_row", Median(floor_ns), "ns");
  }

  /// engine.execute_us.t1 ... t4: one scan-heavy aggregate at 1..4 lanes.
  void ThreadCurve() {
    auto graph = Graph(AdhocQueries()[4].sql);  // vt1
    if (!graph.ok()) {
      Error("curve graph: " + graph.status().ToString());
      return;
    }
    for (int t = 1; t <= kCurveThreads; ++t) {
      std::vector<double> us;
      for (int rep = 0; rep < kReps; ++rep) {
        sumtab::engine::Executor executor(ctx_.db->storage(), Exec(t));
        auto t0 = Clock::now();
        auto rel = executor.Execute(*graph);
        us.push_back(UsSince(t0));
        if (!rel.ok()) Error("curve execute failed");
      }
      Put("engine.execute_us.t" + std::to_string(t), Median(us), "us");
    }
  }

  std::vector<Row> Batch(int n) {
    std::vector<Row> rows = MakeTransBatch(&rng_, next_tid_, n, data_.home);
    next_tid_ += n;
    return rows;
  }

  /// engine.columnar_build_us: the first base-table scan after an append
  /// minus the same scan once warm.
  void ColumnarBuild() {
    const QueryOptions base = BenchOptions(false);
    std::vector<double> diff;
    for (int rep = 0; rep < kReps; ++rep) {
      std::vector<Row> rows = Batch(ctx_.spec->append_rows);
      Database::AppendOptions deferred;
      deferred.maintain = false;
      auto appended = ctx_.db->Append("trans", rows, deferred);
      if (!appended.ok()) {
        Error("probe append: " + appended.status().ToString());
        return;
      }
      out_.main_appends.push_back(std::move(rows));
      auto t0 = Clock::now();
      auto first = ctx_.db->Query(kTransScanSql, base);
      double first_us = UsSince(t0);
      t0 = Clock::now();
      auto warm = ctx_.db->Query(kTransScanSql, base);
      double warm_us = UsSince(t0);
      if (!first.ok() || !warm.ok()) Error("probe scan failed");
      diff.push_back(first_us - warm_us);
    }
    Put("engine.columnar_build_us", Median(diff), "us");
  }

  /// sumtab.* write costs and wal.* costs on two twins of the card schema
  /// loaded with the workload's rows: one in memory, one durable.
  void Twins() {
    Database mem;
    std::string dir = ctx_.data_dir + "/twin";
    std::filesystem::remove_all(dir);
    sumtab::DatabaseOptions durable_options;
    durable_options.data_dir = dir;
    durable_options.wal_sync = true;
    auto durable = Database::Open(durable_options);
    if (!durable.ok()) {
      Error("twin open: " + durable.status().ToString());
      return;
    }
    Database* dur = durable->get();
    for (Database* db : {&mem, dur}) {
      auto st = LoadDataset(db, data_, /*card_only=*/true);
      if (!st.ok()) Error("twin load: " + st.ToString());
      for (const NamedSql& ast : Asts()) {
        if (!ast.on_trans) continue;
        auto rows = db->DefineSummaryTable(ast.name, ast.sql);
        if (!rows.ok()) Error("twin define: " + rows.status().ToString());
      }
    }
    // Twin tids start past the main database's, so batches never collide.
    int64_t saved_tid = next_tid_;
    next_tid_ += 1 << 24;
    const int n = ctx_.spec->append_rows;
    Database::AppendOptions eager, deferred;
    deferred.maintain = false;
    std::vector<double> eager_us, deferred_us, durable_us;
    int incremental = 0, maintained = 0;
    int64_t wal_bytes = dur->Stats().durability.wal_bytes;
    int64_t wal_rows = 0;
    for (int rep = 0; rep < 2 * kReps; ++rep) {
      for (const NamedSql& ast : Asts()) {
        if (!ast.on_trans) continue;
        auto st = mem.RefreshSummaryTable(ast.name);
        if (!st.ok()) Error("twin refresh: " + st.ToString());
      }
      auto t0 = Clock::now();
      auto report = mem.Append("trans", Batch(n), eager);
      eager_us.push_back(UsSince(t0));
      if (!report.ok()) {
        Error("twin eager append: " + report.status().ToString());
        return;
      }
      for (const auto& entry : report->entries) {
        if (entry.mode == Database::RefreshMode::kIncremental) ++incremental;
        if (entry.mode == Database::RefreshMode::kIncremental ||
            entry.mode == Database::RefreshMode::kRecompute) {
          ++maintained;
        }
      }
      std::vector<Row> rows = Batch(n);
      std::vector<Row> same = rows;
      t0 = Clock::now();
      auto in_memory = mem.Append("trans", std::move(rows), deferred);
      deferred_us.push_back(UsSince(t0));
      t0 = Clock::now();
      auto logged = dur->Append("trans", std::move(same), deferred);
      durable_us.push_back(UsSince(t0));
      wal_rows += n;
      if (!in_memory.ok() || !logged.ok()) Error("twin deferred append failed");
    }
    next_tid_ = saved_tid;
    Put("sumtab.append_publish_us", Median(deferred_us), "us");
    Put("sumtab.maintenance_merge_us", Median(eager_us) - Median(deferred_us),
        "us");
    Put("sumtab.incremental_ratio",
        maintained > 0 ? static_cast<double>(incremental) / maintained : 0,
        "ratio");
    Put("wal.append_overhead_us", Median(durable_us) - Median(deferred_us),
        "us");
    Put("wal.bytes_per_row",
        static_cast<double>(dur->Stats().durability.wal_bytes - wal_bytes) /
            static_cast<double>(wal_rows),
        "bytes");
    durable->reset();
    std::filesystem::remove_all(dir);
  }

  /// A hot dashboard text the database answers from an AST.
  std::string CheapText() {
    for (const std::string& sql : ctx_.texts->hot()) {
      auto r = ctx_.db->Query(sql, BenchOptions());
      if (r.ok() && r->used_summary_table) return sql;
    }
    return ctx_.texts->hot().front();
  }

  /// serving.overhead_us: Session::Query minus Database::Query on one
  /// cheap cached query, alternating, with nothing else running.
  void ServingOverhead() {
    const std::string sql = CheapText();
    auto session = ctx_.server->CreateSession();
    std::vector<double> via_session, direct;
    for (int i = 0; i < 400; ++i) {
      auto t0 = Clock::now();
      auto a = session->Query(sql, BenchOptions());
      via_session.push_back(UsSince(t0));
      t0 = Clock::now();
      auto b = ctx_.db->Query(sql, BenchOptions());
      direct.push_back(UsSince(t0));
      if (!a.ok() || !b.ok()) {
        Error("serving overhead query failed");
        return;
      }
    }
    Put("serving.overhead_us", Median(via_session) - Median(direct), "us");
  }

  /// trace.overhead_pct: the client mix with QueryOptions::collect_trace on
  /// against the same texts untraced, in blocks: the median over every
  /// text of its traced time over its untraced time in the same block.
  /// collect_trace is not part of the plan-cache key, so each block runs
  /// once untimed first: both sides then find the same cached plans. The
  /// side that runs first alternates from block to block.
  void TraceOverhead() {
    std::vector<std::string> texts = ClientTexts();
    const size_t block = ctx_.spec->dashboard_client ? 50 : 7;
    QueryOptions traced = BenchOptions();
    traced.collect_trace = true;
    std::vector<double> ratios;
    size_t next = 0;
    auto deadline = Clock::now() + std::chrono::milliseconds(1500);
    for (int64_t b = 0; Clock::now() < deadline || ratios.size() < 8; ++b) {
      std::vector<double> us[2];
      for (int pass = 0; pass < 3; ++pass) {
        // pass 0 warms the plan cache; passes 1 and 2 are the two sides.
        const int side = pass == 0 ? -1 : static_cast<int>((pass - 1 + b) % 2);
        for (size_t i = 0; i < block; ++i) {
          const std::string& sql = texts[(next + i) % texts.size()];
          auto t0 = Clock::now();
          auto r = ctx_.db->Query(sql, side == 1 ? traced : BenchOptions());
          double elapsed = UsSince(t0);
          if (side >= 0) us[side].push_back(elapsed);
          if (!r.ok()) Error("trace overhead query failed: " + sql);
        }
      }
      for (size_t i = 0; i < block; ++i) {
        if (us[0][i] > 0) ratios.push_back(us[1][i] / us[0][i]);
      }
      next += block;
    }
    Put("trace.overhead_pct", 100 * (Median(ratios) - 1), "%");
  }

  const ProbeContext& ctx_;
  const Dataset data_;  // the workload's rows, generated again from the seed
  Rng rng_;
  int64_t next_tid_;
  ProbeResult out_;
};

}  // namespace

ProbeResult RunProbes(const ProbeContext& ctx) { return Prober(ctx).Run(); }

}  // namespace sumbench
