// The benchmark's SQL: the paper's hand-defined ASTs, the dashboard query
// templates with seeded literal variants, and the ad-hoc queries no AST
// answers.
#ifndef SUMBENCH_QUERIES_H_
#define SUMBENCH_QUERIES_H_

#include <string>
#include <vector>

#include "common.h"

namespace sumbench {

struct NamedSql {
  const char* name;
  const char* sql;
  bool on_trans;  // reads the card fact table (appends make it stale)
};

/// AST1, the year/month value AST, AST7, AST10, the AST12 grouping sets and
/// the three TPC-D ASTs.
const std::vector<NamedSql>& Asts();

/// vg1-vg4, vt1-vt4, W7, W8 and sg1-sg4: scans, filters, joins, global
/// aggregates and CUBE/ROLLUP/GROUPING SETS that no AST answers.
const std::vector<NamedSql>& AdhocQueries();

/// One round of ad-hoc queries: each once, in seeded random order.
std::vector<std::string> AdhocRound(Rng* rng);

/// Dashboard texts: the Fig. 2/6/7/10-14 and W1-W6 templates. Every
/// template has literal slots; kHotTexts variants spread over the literal
/// ranges form the hot set, the same for every seed, and the cold tail
/// draws uniformly from all variants (tens of thousands) with the run's
/// seed, so the cold texts of the wide templates are almost always new to
/// the plan cache.
class DashboardTexts {
 public:
  /// Hot texts: a quarter of the plan cache's 256 entries.
  static constexpr int kHotTexts = 64;
  /// Cold variants per round: with every hot text once, 80% of a round
  /// is hot.
  static constexpr int kColdPerRound = 16;

  DashboardTexts();

  const std::vector<std::string>& hot() const { return hot_; }
  /// Hot texts over trans only (the ones deferred appends make stale).
  const std::vector<std::string>& hot_trans() const { return hot_trans_; }
  /// Every hot text once plus kColdPerRound fresh cold variants, in seeded
  /// random order. Whole rounds keep the mix the same from run to run.
  std::vector<std::string> Round(Rng* rng) const;
  /// Every hot text once, in seeded random order.
  std::vector<std::string> HotRound(Rng* rng) const;
  /// A uniformly drawn variant of a uniformly drawn template.
  static std::string Variant(Rng* rng);

 private:
  std::vector<std::string> hot_;
  std::vector<std::string> hot_trans_;
};

/// Base-table scan the appender runs after each append; its answer is
/// checked exactly against the benchmark's running trans reference.
inline constexpr const char* kTransScanSql =
    "select count(*) as n, sum(qty) as q from trans";

}  // namespace sumbench

#endif  // SUMBENCH_QUERIES_H_
