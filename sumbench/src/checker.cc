#include "checker.h"

#include <algorithm>
#include <cmath>

namespace sumbench {

using sumtab::Value;

namespace {

bool IsExactKind(const Value& v) {
  return v.kind() == Value::Kind::kInt || v.kind() == Value::Kind::kDate ||
         v.kind() == Value::Kind::kBool;
}

double AsNumber(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kInt:
      return static_cast<double>(v.AsInt());
    case Value::Kind::kDouble:
      return v.AsDouble();
    case Value::Kind::kDate:
      return v.AsDate();
    case Value::Kind::kBool:
      return v.AsBool() ? 1 : 0;
    default:
      return 0;
  }
}

bool IsNumber(const Value& v) {
  return IsExactKind(v) || v.kind() == Value::Kind::kDouble;
}

/// Ordering used only to line rows up: NULL first, numbers by value,
/// strings lexicographically.
int Order(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) {
    return static_cast<int>(!a.is_null()) - static_cast<int>(!b.is_null());
  }
  if (IsNumber(a) && IsNumber(b)) {
    if (IsExactKind(a) && IsExactKind(b)) {
      int64_t x = a.kind() == Value::Kind::kInt ? a.AsInt()
                                                : static_cast<int64_t>(AsNumber(a));
      int64_t y = b.kind() == Value::Kind::kInt ? b.AsInt()
                                                : static_cast<int64_t>(AsNumber(b));
      return (x > y) - (x < y);
    }
    double x = AsNumber(a), y = AsNumber(b);
    return (x > y) - (x < y);
  }
  if (a.kind() == Value::Kind::kString && b.kind() == Value::Kind::kString) {
    return a.AsString().compare(b.AsString()) < 0   ? -1
           : a.AsString().compare(b.AsString()) > 0 ? 1
                                                    : 0;
  }
  return (a.kind() > b.kind()) - (a.kind() < b.kind());
}

bool RowLess(const Row& a, const Row& b) {
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    int c = Order(a[i], b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (IsExactKind(a) && IsExactKind(b)) return Order(a, b) == 0;
  if (IsNumber(a) && IsNumber(b)) {
    double x = AsNumber(a), y = AsNumber(b);
    if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
    double scale = std::max({std::fabs(x), std::fabs(y), 1.0});
    return std::fabs(x - y) <= kRelTol * scale;
  }
  if (a.kind() == Value::Kind::kString && b.kind() == Value::Kind::kString) {
    return a.AsString() == b.AsString();
  }
  return false;
}

std::string RowText(const Row& row) {
  std::string s = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) s += ", ";
    s += row[i].ToString();
  }
  return s + ")";
}

}  // namespace

std::string CompareRows(std::vector<Row> got, std::vector<Row> want) {
  if (got.size() != want.size()) {
    return "row count " + std::to_string(got.size()) + " != expected " +
           std::to_string(want.size());
  }
  std::sort(got.begin(), got.end(), RowLess);
  std::sort(want.begin(), want.end(), RowLess);
  for (size_t r = 0; r < got.size(); ++r) {
    bool same = got[r].size() == want[r].size();
    for (size_t c = 0; same && c < got[r].size(); ++c) {
      same = SameValue(got[r][c], want[r][c]);
    }
    if (!same) {
      return "row " + RowText(got[r]) + " != expected " + RowText(want[r]);
    }
  }
  return "";
}

// select year(date) as y, count(*) as cnt, sum(qty) as q,
//        sum(qty * price) as v from trans group by year(date)
std::vector<Row> ExpectedTransByYear(const TransReference& ref) {
  std::vector<Row> rows;
  for (const auto& [year, agg] : ref.by_year) {
    rows.push_back(Row{Value::Int(year), Value::Int(agg.count),
                       Value::Int(agg.qty), Value::Double(agg.value)});
  }
  return rows;
}

// select year(date) as y, sum(qty * price) as value from trans
// group by year(date)   -- answered from the year/month AST
std::vector<Row> ExpectedValueByYear(const TransReference& ref) {
  std::vector<Row> rows;
  for (const auto& [year, agg] : ref.by_year) {
    rows.push_back(Row{Value::Int(year), Value::Double(agg.value)});
  }
  return rows;
}

// select flid, year(date) as year, count(*) as cnt from trans
// group by flid, year(date)   -- answered from AST7
std::vector<Row> ExpectedCountByFlidYear(const TransReference& ref) {
  std::vector<Row> rows;
  for (const auto& [key, count] : ref.count_by_flid_year) {
    rows.push_back(
        Row{Value::Int(key.first), Value::Int(key.second), Value::Int(count)});
  }
  return rows;
}

// kTransScanSql: select count(*) as n, sum(qty) as q from trans
std::vector<Row> ExpectedTransScan(const TransReference& ref) {
  return {Row{Value::Int(ref.rows), Value::Int(ref.qty)}};
}

// select year(shipdate) as y, sum(lprice * (1 - ldisc)) as rev
// from lineitem group by year(shipdate)   -- answered from ast_ship_month
std::vector<Row> ExpectedRevenueByYear(const std::map<int, double>& rev) {
  std::vector<Row> rows;
  for (const auto& [year, value] : rev) {
    rows.push_back(Row{Value::Int(year), Value::Double(value)});
  }
  return rows;
}

// select year(odate) as y, count(*) as cnt from orders group by year(odate)
std::vector<Row> ExpectedOrdersByYear(const std::map<int, int64_t>& orders) {
  std::vector<Row> rows;
  for (const auto& [year, count] : orders) {
    rows.push_back(Row{Value::Int(year), Value::Int(count)});
  }
  return rows;
}

std::string CheckerSelfTest() {
  TransReference ref;
  Rng rng(1);
  const std::vector<int> home(50, 3);
  ref.AddAll(MakeTransBatch(&rng, 0, 500, home));
  const std::vector<Row> truth = ExpectedTransByYear(ref);
  std::string problems;
  auto expect = [&](const char* what, const std::vector<Row>& answer,
                    bool should_pass) {
    bool passed = CompareRows(answer, truth).empty();
    if (passed != should_pass) {
      problems += std::string(what) +
                  (should_pass ? " was rejected; " : " was accepted; ");
    }
  };
  expect("the exact answer", truth, true);

  std::vector<Row> reordered(truth.rbegin(), truth.rend());
  expect("a reordered answer", reordered, true);

  std::vector<Row> count_off = truth;
  count_off[0][1] = Value::Int(count_off[0][1].AsInt() + 1);
  expect("a count off by one", count_off, false);

  std::vector<Row> missing = truth;
  missing.pop_back();
  expect("an answer missing one group", missing, false);

  std::vector<Row> drifted = truth;
  drifted[0][3] = Value::Double(drifted[0][3].AsDouble() * (1 + 1e-6));
  expect("a double off by 1e-6 relative", drifted, false);

  std::vector<Row> rounded = truth;
  rounded[0][3] = Value::Double(rounded[0][3].AsDouble() * (1 + 1e-12));
  expect("a double within tolerance", rounded, true);

  std::vector<Row> int_as_double = truth;
  int_as_double[0][2] =
      Value::Double(static_cast<double>(int_as_double[0][2].AsInt()) + 0.5);
  expect("an integer sum with a fractional part", int_as_double, false);
  return problems;
}

}  // namespace sumbench
