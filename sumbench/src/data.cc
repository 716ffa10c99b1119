#include "data.h"

#include <utility>

namespace sumbench {

using sumtab::Status;
using sumtab::Type;
using sumtab::Value;
using sumtab::catalog::Column;

namespace {

constexpr int kAccounts = 50;
constexpr int kCustomers = 20;
constexpr int kLocations = 40;
constexpr int kPGroups = 12;
constexpr int kStartYear = 1990;
constexpr int kYears = 5;

constexpr int kParts = 500;
constexpr int kTpcdCustomers = 300;
constexpr int kTpcdStartYear = 1992;
constexpr int kTpcdYears = 6;

constexpr const char* kStates[] = {"CA", "NY", "TX", "WA",
                                   "ON", "BC", "IL", "FL"};
constexpr const char* kPGroupNames[] = {
    "TV",     "audio",   "laptop", "phone", "camera", "console",
    "tablet", "watch",   "printer", "router", "drone", "monitor"};
constexpr const char* kNations[] = {"FRANCE", "GERMANY", "JAPAN", "CHINA",
                                    "USA",    "CANADA",  "BRAZIL", "INDIA"};
constexpr const char* kRegions[] = {"EUROPE",  "EUROPE",  "ASIA",    "ASIA",
                                    "AMERICA", "AMERICA", "AMERICA", "ASIA"};
constexpr const char* kTypes[] = {"BRASS", "COPPER", "NICKEL", "STEEL", "TIN"};
constexpr const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                     "MACHINERY", "HOUSEHOLD"};
constexpr const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                       "4-NOT SPECIFIED", "5-LOW"};

int32_t Date(int year, int month, int day) {
  return year * 10000 + month * 100 + day;
}

Row TransRow(Rng* rng, int64_t tid, const std::vector<int>& home) {
  int account = rng->Uniform(kAccounts);
  int location = rng->Uniform(100) < 85 ? home[account]
                                        : rng->Uniform(kLocations);
  int year = kStartYear + rng->Uniform(kYears);
  int month = 1 + rng->Uniform(12);
  int day = 1 + rng->Uniform(28);
  double price = 5.0 + rng->UnitDouble() * 995.0;
  double disc = rng->Uniform(10) < 3 ? 0.05 + rng->UnitDouble() * 0.25 : 0.0;
  return Row{Value::Int(tid),
             Value::Int(account),
             Value::Int(rng->Uniform(kPGroups)),
             Value::Int(location),
             Value::Date(Date(year, month, day)),
             Value::Int(1 + rng->Uniform(5)),
             Value::Double(price),
             Value::Double(disc)};
}

}  // namespace

Dataset Generate(const DataSizes& sizes, uint64_t seed) {
  Dataset d;
  d.sizes = sizes;
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 1);

  for (int c = 0; c < kCustomers; ++c) {
    d.cust.push_back(Row{Value::Int(c), Value::String("cust" + std::to_string(c)),
                         Value::Int(21 + rng.Uniform(60))});
  }
  for (int a = 0; a < kAccounts; ++a) {
    d.acct.push_back(Row{Value::Int(a), Value::Int(rng.Uniform(kCustomers)),
                         Value::String(rng.Uniform(10) < 8 ? "active"
                                                           : "frozen")});
  }
  for (int l = 0; l < kLocations; ++l) {
    int s = l % 8;
    bool canadian = s == 4 || s == 5;  // ON and BC
    d.loc.push_back(Row{Value::Int(l), Value::String("city" + std::to_string(l)),
                        Value::String(kStates[s]),
                        Value::String(canadian ? "Canada" : "USA")});
  }
  for (int p = 0; p < kPGroups; ++p) {
    d.pgroup.push_back(Row{Value::Int(p), Value::String(kPGroupNames[p])});
  }
  // Location l is in state l % 8. Account a lives in state a % 8, so every
  // seed spreads the accounts over states and countries alike; the seed
  // picks which of the state's locations.
  for (int a = 0; a < kAccounts; ++a) {
    d.home.push_back(a % 8 + 8 * rng.Uniform(kLocations / 8));
  }
  d.trans.reserve(static_cast<size_t>(sizes.trans));
  for (int64_t t = 0; t < sizes.trans; ++t) {
    d.trans.push_back(TransRow(&rng, t, d.home));
  }

  for (int n = 0; n < 8; ++n) {
    d.nation.push_back(Row{Value::Int(n), Value::String(kNations[n]),
                           Value::String(kRegions[n])});
  }
  for (int c = 0; c < kTpcdCustomers; ++c) {
    d.customer.push_back(Row{Value::Int(c),
                             Value::String("Customer#" + std::to_string(c)),
                             Value::Int(rng.Uniform(8)),
                             Value::String(kSegments[rng.Uniform(5)])});
  }
  for (int p = 0; p < kParts; ++p) {
    d.part.push_back(Row{Value::Int(p),
                         Value::String("Part#" + std::to_string(p)),
                         Value::String(kTypes[rng.Uniform(5)]),
                         Value::String("Brand#" +
                                       std::to_string(rng.Uniform(25)))});
  }
  for (int o = 0; o < sizes.orders; ++o) {
    int year = kTpcdStartYear + rng.Uniform(kTpcdYears);
    d.orders.push_back(
        Row{Value::Int(o), Value::Int(rng.Uniform(kTpcdCustomers)),
            Value::Date(Date(year, 1 + rng.Uniform(12), 1 + rng.Uniform(28))),
            Value::String(kPriorities[rng.Uniform(5)])});
  }
  d.lineitem.reserve(static_cast<size_t>(sizes.lineitems));
  for (int64_t l = 0; l < sizes.lineitems; ++l) {
    int year = kTpcdStartYear + rng.Uniform(kTpcdYears);
    d.lineitem.push_back(Row{
        Value::Int(l), Value::Int(rng.Uniform(sizes.orders)),
        Value::Int(rng.Uniform(kParts)), Value::Int(1 + rng.Uniform(50)),
        Value::Double(900.0 + rng.UnitDouble() * 100000.0),
        Value::Double(rng.Uniform(11) / 100.0),
        Value::Date(Date(year, 1 + rng.Uniform(12), 1 + rng.Uniform(28)))});
  }
  return d;
}

#define SB_RETURN_NOT_OK(expr)      \
  do {                              \
    Status _st = (expr);            \
    if (!_st.ok()) return _st;      \
  } while (false)

Status LoadDataset(sumtab::Database* db, Dataset d, bool card_only) {
  SB_RETURN_NOT_OK(db->CreateTable(
      "cust",
      {Column{"cid", Type::kInt, false}, Column{"cname", Type::kString, false},
       Column{"age", Type::kInt, false}},
      {"cid"}));
  SB_RETURN_NOT_OK(db->CreateTable(
      "acct",
      {Column{"aid", Type::kInt, false}, Column{"cid", Type::kInt, false},
       Column{"status", Type::kString, false}},
      {"aid"}));
  SB_RETURN_NOT_OK(db->CreateTable(
      "loc",
      {Column{"lid", Type::kInt, false}, Column{"city", Type::kString, false},
       Column{"state", Type::kString, false},
       Column{"country", Type::kString, false}},
      {"lid"}));
  SB_RETURN_NOT_OK(db->CreateTable(
      "pgroup",
      {Column{"pgid", Type::kInt, false},
       Column{"pgname", Type::kString, false}},
      {"pgid"}));
  SB_RETURN_NOT_OK(db->CreateTable(
      "trans",
      {Column{"tid", Type::kInt, false}, Column{"faid", Type::kInt, false},
       Column{"fpgid", Type::kInt, false}, Column{"flid", Type::kInt, false},
       Column{"date", Type::kDate, false}, Column{"qty", Type::kInt, false},
       Column{"price", Type::kDouble, false},
       Column{"disc", Type::kDouble, false}},
      {"tid"}));
  SB_RETURN_NOT_OK(db->AddForeignKey("acct", "cid", "cust", "cid"));
  SB_RETURN_NOT_OK(db->AddForeignKey("trans", "faid", "acct", "aid"));
  SB_RETURN_NOT_OK(db->AddForeignKey("trans", "flid", "loc", "lid"));
  SB_RETURN_NOT_OK(db->AddForeignKey("trans", "fpgid", "pgroup", "pgid"));
  SB_RETURN_NOT_OK(db->BulkLoad("cust", std::move(d.cust)));
  SB_RETURN_NOT_OK(db->BulkLoad("acct", std::move(d.acct)));
  SB_RETURN_NOT_OK(db->BulkLoad("loc", std::move(d.loc)));
  SB_RETURN_NOT_OK(db->BulkLoad("pgroup", std::move(d.pgroup)));
  SB_RETURN_NOT_OK(db->BulkLoad("trans", std::move(d.trans)));
  if (card_only) return Status::OK();

  SB_RETURN_NOT_OK(db->CreateTable(
      "nation",
      {Column{"nkey", Type::kInt, false}, Column{"nname", Type::kString, false},
       Column{"rname", Type::kString, false}},
      {"nkey"}));
  SB_RETURN_NOT_OK(db->CreateTable(
      "customer",
      {Column{"ckey", Type::kInt, false}, Column{"cname", Type::kString, false},
       Column{"nkey", Type::kInt, false},
       Column{"segment", Type::kString, false}},
      {"ckey"}));
  SB_RETURN_NOT_OK(db->CreateTable(
      "part",
      {Column{"pkey", Type::kInt, false}, Column{"pname", Type::kString, false},
       Column{"ptype", Type::kString, false},
       Column{"pbrand", Type::kString, false}},
      {"pkey"}));
  SB_RETURN_NOT_OK(db->CreateTable(
      "orders",
      {Column{"okey", Type::kInt, false}, Column{"ckey", Type::kInt, false},
       Column{"odate", Type::kDate, false},
       Column{"opriority", Type::kString, false}},
      {"okey"}));
  SB_RETURN_NOT_OK(db->CreateTable(
      "lineitem",
      {Column{"lkey", Type::kInt, false}, Column{"okey", Type::kInt, false},
       Column{"pkey", Type::kInt, false}, Column{"lqty", Type::kInt, false},
       Column{"lprice", Type::kDouble, false},
       Column{"ldisc", Type::kDouble, false},
       Column{"shipdate", Type::kDate, false}},
      {"lkey"}));
  SB_RETURN_NOT_OK(db->AddForeignKey("customer", "nkey", "nation", "nkey"));
  SB_RETURN_NOT_OK(db->AddForeignKey("orders", "ckey", "customer", "ckey"));
  SB_RETURN_NOT_OK(db->AddForeignKey("lineitem", "okey", "orders", "okey"));
  SB_RETURN_NOT_OK(db->AddForeignKey("lineitem", "pkey", "part", "pkey"));
  SB_RETURN_NOT_OK(db->BulkLoad("nation", std::move(d.nation)));
  SB_RETURN_NOT_OK(db->BulkLoad("customer", std::move(d.customer)));
  SB_RETURN_NOT_OK(db->BulkLoad("part", std::move(d.part)));
  SB_RETURN_NOT_OK(db->BulkLoad("orders", std::move(d.orders)));
  return db->BulkLoad("lineitem", std::move(d.lineitem));
}

std::vector<Row> MakeTransBatch(Rng* rng, int64_t first_tid, int n,
                                const std::vector<int>& home) {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    rows.push_back(TransRow(rng, first_tid + i, home));
  }
  return rows;
}

void TransReference::Add(const Row& row) {
  int64_t qty_v = row[5].AsInt();
  int year = row[4].AsDate() / 10000;
  ++rows;
  qty += qty_v;
  tid_sum += row[0].AsInt();
  YearAgg& agg = by_year[year];
  ++agg.count;
  agg.qty += qty_v;
  agg.value += static_cast<double>(qty_v) * row[6].AsDouble();
  ++count_by_flid_year[{static_cast<int>(row[3].AsInt()), year}];
}

std::map<int, double> LineitemRevenueByYear(const Dataset& data) {
  std::map<int, double> out;
  for (const Row& row : data.lineitem) {
    out[row[6].AsDate() / 10000] +=
        row[4].AsDouble() * (1 - row[5].AsDouble());
  }
  return out;
}

std::map<int, int64_t> OrdersByYear(const Dataset& data) {
  std::map<int, int64_t> out;
  for (const Row& row : data.orders) ++out[row[2].AsDate() / 10000];
  return out;
}

}  // namespace sumbench
