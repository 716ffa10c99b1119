// Benchmark program for sumtab. One run sets up a durable database with the
// card and TPC-D schemas and the paper's ASTs, measures one workload for
// --seconds, checks the answers, and prints one JSON result line:
//
//   sumbench --workload dashboard|adhoc|ingest --seed N --seconds S
//            --trace 0|1 --data-dir DIR
//   sumbench --self-test      # the checker must reject perturbed answers
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// sumbench/run.py builds this program and is the command to run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "checker.h"
#include "common.h"
#include "workload.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: sumbench --workload dashboard|adhoc|ingest --seed N "
               "--seconds S --trace 0|1 --data-dir DIR\n"
               "       sumbench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  sumbench::RunConfig config;
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--self-test") {
      std::string problems = sumbench::CheckerSelfTest();
      if (!problems.empty()) {
        std::printf("checker self-test FAILED: %s\n", problems.c_str());
        return 1;
      }
      std::printf("checker self-test passed\n");
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && config.seconds > 0;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      config.trace = value == "1";
    } else if (arg == "--data-dir") {
      config.data_dir = value;
    } else {
      return Usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace || config.data_dir.empty() ||
      !sumbench::FindWorkload(workload, &config.spec)) {
    return Usage();
  }
  sumbench::RunResult result = sumbench::RunWorkload(config);
  std::printf("%s\n", sumbench::ResultJson(result.correct, result.attempted,
                                           result.failed, result.metrics)
                          .c_str());
  return 0;
}
