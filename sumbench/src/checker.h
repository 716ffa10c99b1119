// Answer checks that do not rely on the program's own comparators: a row
// multiset comparison with exact integers and relative-tolerance doubles,
// and expected relations built from the benchmark's own reference
// aggregates.
#ifndef SUMBENCH_CHECKER_H_
#define SUMBENCH_CHECKER_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/value.h"
#include "data.h"

namespace sumbench {

/// Doubles agree when |a - b| <= kRelTol * max(|a|, |b|, 1). Summation order
/// changes with the engine's thread count and between an AST re-aggregation
/// and a base-table scan, so doubles cannot be compared exactly; every
/// integer, date and string must match exactly.
inline constexpr double kRelTol = 1e-9;

/// Empty when `got` and `want` hold the same rows as multisets (column
/// names ignored); otherwise a description of the first difference.
std::string CompareRows(std::vector<Row> got, std::vector<Row> want);

/// Reference answers in the column order of the matching query in
/// checker.cc's ReferenceChecks.
std::vector<Row> ExpectedTransByYear(const TransReference& ref);
std::vector<Row> ExpectedValueByYear(const TransReference& ref);
std::vector<Row> ExpectedCountByFlidYear(const TransReference& ref);
std::vector<Row> ExpectedTransScan(const TransReference& ref);
std::vector<Row> ExpectedRevenueByYear(const std::map<int, double>& rev);
std::vector<Row> ExpectedOrdersByYear(const std::map<int, int64_t>& orders);

/// Perturbs a correct answer (one count off by one, one group missing, one
/// double beyond tolerance) and returns a description of every perturbation
/// the comparison failed to report, plus any false alarm on the unperturbed
/// and within-tolerance answers. Empty means the checker works.
std::string CheckerSelfTest();

}  // namespace sumbench

#endif  // SUMBENCH_CHECKER_H_
