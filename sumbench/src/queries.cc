#include "queries.h"

#include <string>

namespace sumbench {

const std::vector<NamedSql>& Asts() {
  static const std::vector<NamedSql> kAsts = {
      {"ast1",
       "select faid, flid, year(date) as year, count(*) as cnt "
       "from trans group by faid, flid, year(date)",
       true},
      {"ast_ym",
       "select year(date) as year, month(date) as month, "
       "sum(qty * price) as value from trans group by year(date), "
       "month(date)",
       true},
      {"ast7",
       "select flid, year(date) as year, count(*) as cnt "
       "from trans group by flid, year(date)",
       true},
      {"ast10",
       "select flid, year(date) as year, count(*) as cnt, "
       "(select count(*) from trans) as totcnt "
       "from trans group by flid, year(date)",
       true},
      {"ast12",
       "select flid, faid, year(date) as year, month(date) as month, "
       "count(*) as cnt from trans "
       "group by grouping sets ((flid, faid, year(date)), (flid, year(date)), "
       "(flid, year(date), month(date)), (year(date)))",
       true},
      {"ast_part_year",
       "select lineitem.pkey as pkey, pbrand, ptype, year(shipdate) as y, "
       "count(*) as cnt, sum(lqty) as qty, sum(lprice) as price, "
       "sum(lprice * (1 - ldisc)) as rev "
       "from lineitem, part where lineitem.pkey = part.pkey "
       "group by lineitem.pkey, pbrand, ptype, year(shipdate)",
       false},
      {"ast_order_year",
       "select year(odate) as y, opriority, count(*) as cnt from orders "
       "group by year(odate), opriority",
       false},
      {"ast_ship_month",
       "select year(shipdate) as y, month(shipdate) as m, count(*) as cnt, "
       "sum(lprice * (1 - ldisc)) as rev from lineitem "
       "group by year(shipdate), month(shipdate)",
       false},
  };
  return kAsts;
}

const std::vector<NamedSql>& AdhocQueries() {
  static const std::vector<NamedSql> kAdhoc = {
      {"vg1", "select flid, year(date) as year, count(*) as cnt, "
              "sum(qty * price) as value from trans group by flid, year(date)",
       true},
      {"vg2", "select faid, sum(qty) as q, avg(price) as p from trans "
              "where month(date) >= 6 group by faid",
       true},
      {"vg3", "select state, sum(qty * price) as value from trans, loc "
              "where flid = lid group by state",
       true},
      {"vg4", "select count(*) as cnt, sum(qty * price) as value, "
              "avg(price) as p from trans where qty > 2",
       true},
      {"vt1", "select year(shipdate) as y, sum(lprice * (1 - ldisc)) as rev, "
              "count(*) as cnt, sum(ldisc) as d from lineitem "
              "group by year(shipdate)",
       false},
      {"vt2", "select pkey, avg(ldisc) as d, sum(lqty) as q from lineitem "
              "where lqty > 10 group by pkey",
       false},
      {"vt3", "select pbrand, sum(lqty * ldisc) as vol from lineitem, part "
              "where lineitem.pkey = part.pkey group by pbrand",
       false},
      {"vt4", "select year(shipdate) as y, month(shipdate) as m, "
              "sum(lqty) as q from lineitem "
              "group by year(shipdate), month(shipdate)",
       false},
      {"W7", "select rname, sum(lprice) as rev "
             "from lineitem, orders, customer, nation "
             "where lineitem.okey = orders.okey and orders.ckey = customer.ckey "
             "and customer.nkey = nation.nkey group by rname",
       false},
      {"W8", "select pkey, avg(ldisc) as d from lineitem group by pkey", false},
      {"sg1", "select flid, year(date) as y, count(*) as cnt, sum(qty) as sq "
              "from trans group by cube(flid, year(date))",
       true},
      {"sg2", "select faid, flid, year(date) as y, count(*) as cnt, "
              "sum(qty) as sq from trans "
              "group by rollup(faid, flid, year(date))",
       true},
      {"sg3", "select flid, faid, year(date) as y, count(*) as cnt, "
              "sum(qty * price) as value from trans group by grouping sets "
              "((flid, faid), (flid, year(date)), (year(date)))",
       true},
      {"sg4", "select state, year(date) as y, count(*) as cnt, sum(qty) as sq "
              "from trans, loc where flid = lid group by rollup(state, "
              "year(date))",
       true},
  };
  return kAdhoc;
}

namespace {

struct Template {
  bool on_trans;
  int variants;
  std::string (*make)(int v);
};

std::string S(int v) { return std::to_string(v); }
const char* Country(int v) { return v % 2 == 0 ? "USA" : "Canada"; }
constexpr const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                       "4-NOT SPECIFIED", "5-LOW"};

// Literal ranges reach past the data on purpose: a variant whose HAVING
// bound exceeds every group still has to be answered (empty) correctly.
const Template kTemplates[] = {
    // Fig. 2: rejoin of loc, HAVING over the regrouped count (AST1).
    {true, 2 * 2000,
     [](int v) {
       return "select faid, state, year(date) as year, count(*) as cnt "
              "from trans, loc where flid = lid and country = '" +
              std::string(Country(v)) +
              "' group by faid, state, year(date) having count(*) > " +
              S(v / 2);
     }},
    // Fig. 6: regrouping by an expression over a grouping column (AST_ym).
    {true, 12,
     [](int v) {
       return "select year(date) % 100 as yy, sum(qty * price) as value "
              "from trans where month(date) >= " +
              S(1 + v) + " group by year(date) % 100";
     }},
    // Fig. 7: group-by rejoin (AST1 / AST7).
    {true, 2 * 3000,
     [](int v) {
       return "select state, year(date) as year, count(*) as cnt "
              "from trans, loc where flid = lid and country = '" +
              std::string(Country(v)) +
              "' group by state, year(date) having count(*) > " + S(v / 2);
     }},
    // Fig. 10: nested group-by.
    {true, 12,
     [](int v) {
       return "select tcnt, count(*) as ycnt from "
              "(select year(date) as year, count(*) as tcnt from trans "
              "where year(date) >= " +
              S(1985 + v) + " group by year(date)) group by tcnt";
     }},
    // Fig. 11: scalar subquery (AST10).
    {true, 5000,
     [](int v) {
       return "select flid, count(*) as cnt, "
              "count(*) / (select count(*) from trans) as cntpct "
              "from trans, loc where flid = lid and country = 'USA' "
              "group by flid having count(*) > " +
              S(v);
     }},
    // Fig. 12: grouping sets under a filter (AST12).
    {true, 12,
     [](int v) {
       return "select flid, year(date) as year, count(*) as cnt "
              "from trans where year(date) > " +
              S(1985 + v) +
              " group by grouping sets ((flid, year(date)), (year(date)))";
     }},
    // Fig. 13: a slice of the grouping-set AST (AST12).
    {true, 12 * 400,
     [](int v) {
       return "select flid, year(date) as year, count(*) as cnt "
              "from trans where month(date) >= " +
              S(1 + v % 12) + " group by flid, year(date) having count(*) > " +
              S(v / 12);
     }},
    // Fig. 14: cube over the grouping-set AST.
    {true, 1,
     [](int) {
       return std::string(
           "select flid, year(date) as year, count(*) as cnt "
           "from trans group by cube(flid, year(date))");
     }},
    // W1-W6 over the TPC-D ASTs.
    {false, 12,
     [](int v) {
       return "select year(shipdate) as y, sum(lprice * (1 - ldisc)) as rev "
              "from lineitem where year(shipdate) >= " +
              S(1989 + v) + " group by year(shipdate)";
     }},
    {false, 12,
     [](int v) {
       return "select pbrand, year(shipdate) as y, "
              "sum(lprice * (1 - ldisc)) as rev from lineitem, part "
              "where lineitem.pkey = part.pkey and year(shipdate) >= " +
              S(1989 + v) + " group by pbrand, year(shipdate)";
     }},
    {false, 12,
     [](int v) {
       return "select ptype, sum(lqty) as vol from lineitem, part "
              "where lineitem.pkey = part.pkey and year(shipdate) >= " +
              S(1989 + v) + " group by ptype";
     }},
    {false, 3000,
     [](int v) {
       return "select pkey, count(*) as cnt from lineitem group by pkey "
              "having count(*) > " +
              S(v);
     }},
    {false, 5 * 2000,
     [](int v) {
       return "select year(odate) as y, count(*) as cnt from orders "
              "where opriority = '" +
              std::string(kPriorities[v % 5]) +
              "' group by year(odate) having count(*) > " + S(v / 5);
     }},
    {false, 12,
     [](int v) {
       return "select opriority, count(*) as cnt from orders "
              "where year(odate) = " +
              S(1989 + v) + " group by opriority";
     }},
};
constexpr int kNumTemplates = sizeof(kTemplates) / sizeof(kTemplates[0]);

}  // namespace

DashboardTexts::DashboardTexts() {
  // How many hot texts each template gets does not depend on the seed:
  // round-robin over the templates, capped by their variant counts.
  std::vector<int> per_template(kNumTemplates, 0);
  for (int placed = 0, t = 0; placed < kHotTexts; t = (t + 1) % kNumTemplates) {
    if (per_template[t] < kTemplates[t].variants) {
      ++per_template[t];
      ++placed;
    }
  }
  // Each template's literals are spread over its range: one variant drawn
  // from each of per_template[t] equal strata. The draw does not depend on
  // the run's seed: with a seeded hot set, the medians of the open-loop
  // reads and of the compensated reads moved with the seed.
  Rng rng(0x9e3779b97f4a7c15ULL);
  for (int t = 0; t < kNumTemplates; ++t) {
    const Template& tmpl = kTemplates[t];
    const int k = per_template[t];
    for (int j = 0; j < k; ++j) {
      int lo = tmpl.variants * j / k;
      int hi = tmpl.variants * (j + 1) / k;
      std::string text = tmpl.make(lo + rng.Uniform(hi - lo));
      hot_.push_back(text);
      if (tmpl.on_trans) hot_trans_.push_back(text);
    }
  }
}

namespace {

void Shuffle(std::vector<std::string>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[static_cast<size_t>(rng->Next() % i)]);
  }
}

}  // namespace

std::vector<std::string> AdhocRound(Rng* rng) {
  std::vector<std::string> round;
  for (const NamedSql& q : AdhocQueries()) round.push_back(q.sql);
  Shuffle(&round, rng);
  return round;
}

std::vector<std::string> DashboardTexts::Round(Rng* rng) const {
  std::vector<std::string> round = hot_;
  for (int i = 0; i < kColdPerRound; ++i) round.push_back(Variant(rng));
  Shuffle(&round, rng);
  return round;
}

std::vector<std::string> DashboardTexts::HotRound(Rng* rng) const {
  std::vector<std::string> round = hot_;
  Shuffle(&round, rng);
  return round;
}

std::string DashboardTexts::Variant(Rng* rng) {
  const Template& tmpl = kTemplates[rng->Uniform(kNumTemplates)];
  return tmpl.make(rng->Uniform(tmpl.variants));
}

}  // namespace sumbench
