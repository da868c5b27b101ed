#include "benchmarks/fibench/fibench.h"

#include <thread>
#include <vector>

#include "benchmarks/common.h"
#include "common/rng.h"

namespace olxp::benchmarks {

namespace {

using benchfw::TxnProfile;

/// 3 tables, 6 columns, 4 secondary indexes (Table II row). The schema
/// follows SmallBank with integrity constraints adapted to engines without
/// FK support (the FK version is enabled when the profile enforces FKs).
const char* kFibenchDdl[] = {
    "CREATE TABLE account (custid INT PRIMARY KEY, name VARCHAR(64))",
    "CREATE TABLE saving ("
    " custid INT PRIMARY KEY, bal DOUBLE,"
    " FOREIGN KEY (custid) REFERENCES account (custid))",
    "CREATE TABLE checking ("
    " custid INT PRIMARY KEY, bal DOUBLE,"
    " FOREIGN KEY (custid) REFERENCES account (custid))",
    "CREATE INDEX idx_account_name ON account (name)",
    "CREATE INDEX idx_saving_bal ON saving (bal)",
    "CREATE INDEX idx_checking_bal ON checking (bal)",
    "CREATE INDEX idx_account_name_id ON account (name, custid)",
};

constexpr double kInitialBalance = 1000.0;

Status CreateFibenchSchema(engine::Session& s) {
  for (const char* ddl : kFibenchDdl) {
    OLXP_RETURN_NOT_OK(Exec(s, ddl));
  }
  return Status::OK();
}

Status LoadFibench(engine::Database& db, const benchfw::LoadParams& params) {
  const int customers = params.scale * 1000;
  std::vector<std::thread> threads;
  std::vector<Status> results(params.load_threads, Status::OK());
  int per = (customers + params.load_threads - 1) / params.load_threads;
  for (int t = 0; t < params.load_threads; ++t) {
    threads.emplace_back([&, t] {
      auto session = db.CreateSession();
      engine::Session& s = *session;
      s.set_charging_enabled(false);
      Rng rng(params.seed * 131 + t);
      int begin = 1 + t * per;
      int end = std::min(customers + 1, begin + per);
      auto load_range = [&]() -> Status {
        OLXP_RETURN_NOT_OK(s.Begin());
        for (int c = begin; c < end; ++c) {
          OLXP_RETURN_NOT_OK(Exec(
              s, "INSERT INTO account VALUES (?, ?)",
              {Value::Int(c),
               Value::String("cust-" + std::to_string(c) + "-" +
                             rng.AlnumString(8))}));
          OLXP_RETURN_NOT_OK(
              Exec(s, "INSERT INTO saving VALUES (?, ?)",
                   {Value::Int(c), Value::Double(kInitialBalance)}));
          OLXP_RETURN_NOT_OK(
              Exec(s, "INSERT INTO checking VALUES (?, ?)",
                   {Value::Int(c), Value::Double(kInitialBalance)}));
          if ((c - begin) % 250 == 249) {
            OLXP_RETURN_NOT_OK(s.Commit());
            OLXP_RETURN_NOT_OK(s.Begin());
          }
        }
        return s.Commit();
      };
      if (begin < end) results[t] = load_range();
    });
  }
  for (auto& t : threads) t.join();
  for (const Status& st : results) OLXP_RETURN_NOT_OK(st);
  return Status::OK();
}

int64_t RandCustomer(Rng& rng, int customers) {
  // Hotspot access: 25% of traffic hits the first 100 accounts (SmallBank
  // convention) — this is what makes contention observable.
  if (rng.Chance(0.25)) return rng.Uniform(int64_t{1}, int64_t{100});
  return rng.Uniform(int64_t{1}, int64_t{customers});
}

// ------------------------------ OLTP bodies ------------------------------

/// Balance (read-only): total of savings + checking.
Status BalanceBody(engine::Session& s, Rng& rng, int customers) {
  const int64_t c = RandCustomer(rng, customers);
  return InTxn(s, [&]() -> Status {
    auto sv = Query(s, "SELECT bal FROM saving WHERE custid = ?",
                    {Value::Int(c)});
    if (!sv.ok()) return sv.status();
    auto ck = Query(s, "SELECT bal FROM checking WHERE custid = ?",
                    {Value::Int(c)});
    return ck.ok() ? Status::OK() : ck.status();
  });
}

/// DepositChecking: checking += amount.
Status DepositCheckingBody(engine::Session& s, Rng& rng, int customers) {
  const int64_t c = RandCustomer(rng, customers);
  const double amount = rng.Uniform(0.01, 100.0);
  return InTxn(s, [&]() -> Status {
    return Exec(s, "UPDATE checking SET bal = bal + ? WHERE custid = ?",
                {Value::Double(amount), Value::Int(c)});
  });
}

/// TransactSavings: saving += amount (may be negative but not overdrawn).
Status TransactSavingsBody(engine::Session& s, Rng& rng, int customers) {
  const int64_t c = RandCustomer(rng, customers);
  const double amount = rng.Uniform(-50.0, 100.0);
  return InTxn(s, [&]() -> Status {
    auto bal = Query(s, "SELECT bal FROM saving WHERE custid = ?",
                     {Value::Int(c)});
    if (!bal.ok()) return bal.status();
    if (bal->rows.empty()) return Status::NotFound("saving row");
    if (bal->rows[0][0].AsDouble() + amount < 0) {
      return Status::Aborted("would overdraw savings");
    }
    return Exec(s, "UPDATE saving SET bal = bal + ? WHERE custid = ?",
                {Value::Double(amount), Value::Int(c)});
  });
}

/// Amalgamate: move all funds of customer A to the checking of customer B.
Status AmalgamateBody(engine::Session& s, Rng& rng, int customers) {
  const int64_t a = RandCustomer(rng, customers);
  int64_t b = RandCustomer(rng, customers);
  if (b == a) b = a % customers + 1;
  return InTxn(s, [&]() -> Status {
    auto sv = Query(s, "SELECT bal FROM saving WHERE custid = ?",
                    {Value::Int(a)});
    if (!sv.ok()) return sv.status();
    auto ck = Query(s, "SELECT bal FROM checking WHERE custid = ?",
                    {Value::Int(a)});
    if (!ck.ok()) return ck.status();
    if (sv->rows.empty() || ck->rows.empty()) {
      return Status::NotFound("account rows");
    }
    double total = sv->rows[0][0].AsDouble() + ck->rows[0][0].AsDouble();
    OLXP_RETURN_NOT_OK(
        Exec(s, "UPDATE saving SET bal = 0 WHERE custid = ?",
             {Value::Int(a)}));
    OLXP_RETURN_NOT_OK(
        Exec(s, "UPDATE checking SET bal = 0 WHERE custid = ?",
             {Value::Int(a)}));
    return Exec(s, "UPDATE checking SET bal = bal + ? WHERE custid = ?",
                {Value::Double(total), Value::Int(b)});
  });
}

/// SendPayment: checking-to-checking transfer with sufficiency check.
Status SendPaymentBody(engine::Session& s, Rng& rng, int customers) {
  const int64_t a = RandCustomer(rng, customers);
  int64_t b = RandCustomer(rng, customers);
  if (b == a) b = a % customers + 1;
  const double amount = rng.Uniform(0.01, 50.0);
  return InTxn(s, [&]() -> Status {
    auto bal = Query(s, "SELECT bal FROM checking WHERE custid = ?",
                     {Value::Int(a)});
    if (!bal.ok()) return bal.status();
    if (bal->rows.empty()) return Status::NotFound("checking row");
    if (bal->rows[0][0].AsDouble() < amount) {
      return Status::Aborted("insufficient funds");
    }
    OLXP_RETURN_NOT_OK(
        Exec(s, "UPDATE checking SET bal = bal - ? WHERE custid = ?",
             {Value::Double(amount), Value::Int(a)}));
    return Exec(s, "UPDATE checking SET bal = bal + ? WHERE custid = ?",
                {Value::Double(amount), Value::Int(b)});
  });
}

/// WriteCheck: checking -= amount with a $1 penalty when overdrawing.
Status WriteCheckBody(engine::Session& s, Rng& rng, int customers) {
  const int64_t c = RandCustomer(rng, customers);
  const double amount = rng.Uniform(0.01, 50.0);
  return InTxn(s, [&]() -> Status {
    auto sv = Query(s, "SELECT bal FROM saving WHERE custid = ?",
                    {Value::Int(c)});
    if (!sv.ok()) return sv.status();
    auto ck = Query(s, "SELECT bal FROM checking WHERE custid = ?",
                    {Value::Int(c)});
    if (!ck.ok()) return ck.status();
    if (sv->rows.empty() || ck->rows.empty()) {
      return Status::NotFound("account rows");
    }
    double total = sv->rows[0][0].AsDouble() + ck->rows[0][0].AsDouble();
    double debit = total < amount ? amount + 1.0 : amount;
    return Exec(s, "UPDATE checking SET bal = bal - ? WHERE custid = ?",
                {Value::Double(debit), Value::Int(c)});
  });
}

// --------------------------- analytical queries --------------------------

/// Q1: Account Name Query — names joined from ACCOUNT and CHECKING (paper's
/// example).
Status FQ1(engine::Session& s, Rng& rng) {
  auto rs = Query(
      s, "SELECT a.custid, a.name, c.bal FROM account a JOIN checking c "
         "ON c.custid = a.custid WHERE c.bal > ? ORDER BY c.bal DESC "
         "LIMIT 100",
      {Value::Double(rng.Uniform(500.0, 1500.0))});
  return rs.ok() ? Status::OK() : rs.status();
}

/// Q2: total wealth distribution (join + aggregate + arithmetic).
Status FQ2(engine::Session& s, Rng& /*rng*/) {
  auto rs = Query(
      s, "SELECT COUNT(*), SUM(sv.bal + ck.bal), AVG(sv.bal + ck.bal), "
         "MIN(sv.bal + ck.bal), MAX(sv.bal + ck.bal) FROM saving sv "
         "JOIN checking ck ON ck.custid = sv.custid");
  return rs.ok() ? Status::OK() : rs.status();
}

/// Q3: top savers (Order-By heavy).
Status FQ3(engine::Session& s, Rng& /*rng*/) {
  auto rs = Query(
      s, "SELECT custid, bal FROM saving ORDER BY bal DESC LIMIT 10");
  return rs.ok() ? Status::OK() : rs.status();
}

/// Q4: overdraft exposure (sub-selection).
Status FQ4(engine::Session& s, Rng& /*rng*/) {
  auto rs = Query(
      s, "SELECT COUNT(*) FROM checking WHERE bal < 0 AND custid IN "
         "(SELECT custid FROM saving WHERE bal < 100)");
  return rs.ok() ? Status::OK() : rs.status();
}

// --------------------------- hybrid transactions --------------------------

/// X1 (read-only): balance consultation with a real-time percentile-ish
/// anchor (average balance across the bank).
Status FX1(engine::Session& s, Rng& rng, int customers) {
  const int64_t c = RandCustomer(rng, customers);
  return InTxn(s, [&]() -> Status {
    auto anchor = Query(s, "SELECT AVG(bal) FROM checking");
    if (!anchor.ok()) return anchor.status();
    auto bal = Query(s, "SELECT bal FROM checking WHERE custid = ?",
                     {Value::Int(c)});
    return bal.ok() ? Status::OK() : bal.status();
  });
}

/// X2: deposit preceded by a real-time inflow aggregate (write).
Status FX2(engine::Session& s, Rng& rng, int customers) {
  const int64_t c = RandCustomer(rng, customers);
  const double amount = rng.Uniform(0.01, 100.0);
  return InTxn(s, [&]() -> Status {
    auto agg = Query(s, "SELECT SUM(bal) FROM checking");
    if (!agg.ok()) return agg.status();
    return Exec(s, "UPDATE checking SET bal = bal + ? WHERE custid = ?",
                {Value::Double(amount), Value::Int(c)});
  });
}

/// X3: payment with a real-time recipient-risk scan (write).
Status FX3(engine::Session& s, Rng& rng, int customers) {
  const int64_t a = RandCustomer(rng, customers);
  int64_t b = RandCustomer(rng, customers);
  if (b == a) b = a % customers + 1;
  const double amount = rng.Uniform(0.01, 50.0);
  return InTxn(s, [&]() -> Status {
    auto risk = Query(s, "SELECT COUNT(*) FROM checking WHERE bal < 0");
    if (!risk.ok()) return risk.status();
    OLXP_RETURN_NOT_OK(
        Exec(s, "UPDATE checking SET bal = bal - ? WHERE custid = ?",
             {Value::Double(amount), Value::Int(a)}));
    return Exec(s, "UPDATE checking SET bal = bal + ? WHERE custid = ?",
                {Value::Double(amount), Value::Int(b)});
  });
}

/// X4: savings transaction anchored on the real-time max saving (write).
Status FX4(engine::Session& s, Rng& rng, int customers) {
  const int64_t c = RandCustomer(rng, customers);
  const double amount = rng.Uniform(0.01, 100.0);
  return InTxn(s, [&]() -> Status {
    auto mx = Query(s, "SELECT MAX(bal) FROM saving");
    if (!mx.ok()) return mx.status();
    return Exec(s, "UPDATE saving SET bal = bal + ? WHERE custid = ?",
                {Value::Double(amount), Value::Int(c)});
  });
}

/// X5: amalgamate with a real-time wealth snapshot (write).
Status FX5(engine::Session& s, Rng& rng, int customers) {
  const int64_t a = RandCustomer(rng, customers);
  int64_t b = RandCustomer(rng, customers);
  if (b == a) b = a % customers + 1;
  return InTxn(s, [&]() -> Status {
    auto snap = Query(
        s, "SELECT AVG(sv.bal + ck.bal) FROM saving sv JOIN checking ck "
           "ON ck.custid = sv.custid");
    if (!snap.ok()) return snap.status();
    auto sv = Query(s, "SELECT bal FROM saving WHERE custid = ?",
                    {Value::Int(a)});
    if (!sv.ok()) return sv.status();
    if (sv->rows.empty()) return Status::NotFound("saving");
    OLXP_RETURN_NOT_OK(
        Exec(s, "UPDATE saving SET bal = 0 WHERE custid = ?",
             {Value::Int(a)}));
    return Exec(s, "UPDATE checking SET bal = bal + ? WHERE custid = ?",
                {Value::Double(sv->rows[0][0].AsDouble()), Value::Int(b)});
  });
}

/// X6: the paper's Checking Balance Transaction — verifies that the cheque
/// balance is sufficient and aggregates the minimum savings value (the
/// volatility-of-extremes analysis mentioned in §IV-B2). Write.
Status FX6(engine::Session& s, Rng& rng, int customers) {
  const int64_t c = RandCustomer(rng, customers);
  const double amount = rng.Uniform(0.01, 50.0);
  return InTxn(s, [&]() -> Status {
    auto bal = Query(s, "SELECT bal FROM checking WHERE custid = ?",
                     {Value::Int(c)});
    if (!bal.ok()) return bal.status();
    if (bal->rows.empty()) return Status::NotFound("checking");
    // Real-time extreme-value aggregate.
    auto extreme = Query(s, "SELECT MIN(bal) FROM saving");
    if (!extreme.ok()) return extreme.status();
    if (bal->rows[0][0].AsDouble() < amount) {
      return Status::Aborted("insufficient cheque balance");
    }
    return Exec(s, "UPDATE checking SET bal = bal - ? WHERE custid = ?",
                {Value::Double(amount), Value::Int(c)});
  });
}

}  // namespace

benchfw::BenchmarkSuite MakeFibenchmark(benchfw::LoadParams params) {
  benchfw::BenchmarkSuite suite;
  suite.load_params = params;
  suite.name = "fibenchmark";
  suite.domain = "banking";
  suite.create_schema = CreateFibenchSchema;
  suite.load = LoadFibench;
  suite.has_hybrid_txn = true;
  suite.has_real_time_query = true;
  suite.semantically_consistent_schema = true;
  suite.general_benchmark = false;
  suite.domain_specific_benchmark = true;

  const int customers = params.scale * 1000;
  auto mk = [customers](Status (*fn)(engine::Session&, Rng&, int)) {
    return [fn, customers](engine::Session& s, Rng& r) {
      return fn(s, r, customers);
    };
  };

  // 15% read-only: Balance.
  suite.transactions = {
      {"Amalgamate", 17, false, mk(AmalgamateBody)},
      {"Balance", 15, true, mk(BalanceBody)},
      {"DepositChecking", 17, false, mk(DepositCheckingBody)},
      {"SendPayment", 17, false, mk(SendPaymentBody)},
      {"TransactSavings", 17, false, mk(TransactSavingsBody)},
      {"WriteCheck", 17, false, mk(WriteCheckBody)},
  };
  suite.queries = {
      {"Q1", 1, true, FQ1},
      {"Q2", 1, true, FQ2},
      {"Q3", 1, true, FQ3},
      {"Q4", 1, true, FQ4},
  };
  // 20% read-only: X1.
  suite.hybrids = {
      {"X1", 20, true, mk(FX1)},  {"X2", 16, false, mk(FX2)},
      {"X3", 16, false, mk(FX3)}, {"X4", 16, false, mk(FX4)},
      {"X5", 16, false, mk(FX5)}, {"X6", 16, false, mk(FX6)},
  };
  return suite;
}

}  // namespace olxp::benchmarks
