// Per-layer probes of a traced run. Each probe times calls into one
// module's public functions from the benchmark's own code (sql::Parse,
// qgm::BuildGraph, matching::RewriteQuery, engine::Executor::Execute,
// Database::Append / RefreshSummaryTable, the durable twin's WAL, and
// serving::Session::Query); nothing inside the program is instrumented.
#ifndef SUMBENCH_PROBES_H_
#define SUMBENCH_PROBES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "data.h"
#include "queries.h"
#include "serving/session.h"
#include "sumtab/database.h"
#include "workload.h"

namespace sumbench {

struct ProbeContext {
  sumtab::Database* db;  // the workload's database, quiescent
  sumtab::serving::Server* server;
  const DashboardTexts* texts;
  const WorkloadSpec* spec;
  uint64_t seed;
  std::string data_dir;
  int64_t next_tid;  // first free trans tid on `db`
};

struct ProbeResult {
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  /// Batches the probes appended to the workload's database (acknowledged).
  std::vector<std::vector<Row>> main_appends;
};

ProbeResult RunProbes(const ProbeContext& ctx);

}  // namespace sumbench

#endif  // SUMBENCH_PROBES_H_
