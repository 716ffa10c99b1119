// One benchmark run: set-up, the measured window, the checks, and (traced
// runs) the per-layer probes.
#ifndef SUMBENCH_WORKLOAD_H_
#define SUMBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "data.h"
#include "sumtab/database.h"

namespace sumbench {

/// What distinguishes the workloads. Every workload runs the same streams
/// (closed-loop client, open-loop dashboard reads, appender, and the
/// closing restart) so that every end-to-end metric exists on each; the
/// sizes, the client's query mix, the phases and the write rate set the
/// balance.
///
/// The window has three phases. In the solo phase the client runs alone; in
/// the mixed phase the reads and the appender run, with the client beside
/// them only when `client_in_mixed` is set; in the last kCompensatedShare
/// of the window one session sends reads that delta compensation answers,
/// alone on the database.
struct WorkloadSpec {
  std::string name;
  DataSizes sizes;
  /// true: the client sends dashboard texts; false: ad-hoc queries.
  bool dashboard_client = true;
  /// Share of --seconds given to the solo phase.
  double solo_share = 0.4;
  bool client_in_mixed = false;
  /// One appender operation (append, or refresh of the trans ASTs) every
  /// this many milliseconds, `append_rows` rows per append.
  int append_period_ms = 75;
  int append_rows = 100;
  /// Tail percentile reported as query_tail_ms: the highest of 99.9, 99,
  /// 98, 95, 90, 80 and 75 that keeps at least ten samples beyond it at the
  /// reference run length of 30 s, except on dashboard, whose p99.9 follows
  /// the host's preemptions (sumbench/README.md lists them).
  double query_tail = 0.99;
};

/// Share of --seconds given to the compensated phase that ends the window.
inline constexpr double kCompensatedShare = 0.1;

/// The same rule for append_tail_ms; every workload appends 166 to 225
/// times in 30 s, so it is p90 on each.
inline constexpr double kAppendTail = 0.9;

/// Engine lanes for every query the benchmark sends. One lane, because
/// ParallelFor (src/common/thread_pool.cc) can return while its last lane
/// still locks and signals the mutex and condition variable in the
/// returned frame, which corrupts the caller's stack now and then; with one
/// lane no lane task is ever spawned. Only the traced thread curve runs
/// more lanes.
inline constexpr int kQueryLanes = 1;

/// QueryOptions for the benchmark's queries: kQueryLanes, rewrite on or off.
inline sumtab::QueryOptions BenchOptions(bool rewrite = true) {
  sumtab::QueryOptions options;
  options.max_threads = kQueryLanes;
  options.enable_rewrite = rewrite;
  return options;
}

/// Returns false for an unknown name.
bool FindWorkload(const std::string& name, WorkloadSpec* spec);

struct RunConfig {
  WorkloadSpec spec;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;  // scratch directory for the durable databases
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
};

RunResult RunWorkload(const RunConfig& config);

}  // namespace sumbench

#endif  // SUMBENCH_WORKLOAD_H_
