#include <algorithm>
#include <vector>

#include "benchmarks/common.h"
#include "benchmarks/subench/subench.h"
#include "common/clock.h"

namespace olxp::benchmarks {

namespace {

using benchfw::TxnProfile;

struct Scale {
  int warehouses;
  int items;
};

int64_t RandWarehouse(Rng& rng, const Scale& sc) {
  return rng.Uniform(int64_t{1}, int64_t{sc.warehouses});
}
int64_t RandDistrict(Rng& rng) {
  return rng.Uniform(int64_t{1}, int64_t{kSubDistrictsPerWarehouse});
}
int64_t RandCustomer(Rng& rng) {
  return rng.NURand(1023, 1, kSubCustomersPerDistrict);
}
int64_t RandItem(Rng& rng, const Scale& sc) {
  return rng.NURand(8191, 1, sc.items);
}

int64_t UniqueHistoryStamp() {
  static std::atomic<int64_t> counter{0};
  return NowMicros() * 1000 +
         (counter.fetch_add(1, std::memory_order_relaxed) % 1000);
}

// ----------------------------- OLTP bodies -------------------------------

/// TPC-C NewOrder: mid-weight read-write transaction. 1% of requests roll
/// back on an invalid item, as the spec requires. When `with_rt_query` is
/// set this becomes the paper's hybrid X1: the identical transaction with a
/// real-time lowest-price query injected before item selection (§III-B1).
Status NewOrderBody(engine::Session& s, Rng& rng, const Scale& sc,
                    bool with_rt_query = false) {
  const int64_t w = RandWarehouse(rng, sc);
  const int64_t d = RandDistrict(rng);
  const int64_t c = RandCustomer(rng);
  const int ol_cnt = static_cast<int>(rng.Uniform(int64_t{5}, int64_t{15}));
  const bool rollback = rng.Chance(0.01);
  // Pick items up front and lock stock in sorted order — the standard
  // TPC-C client technique for avoiding deadlocks between NewOrders.
  std::vector<int64_t> item_ids;
  for (int l = 0; l < ol_cnt; ++l) item_ids.push_back(RandItem(rng, sc));
  std::sort(item_ids.begin(), item_ids.end());

  return InTxn(s, [&]() -> Status {
    auto wtax = Query(s, "SELECT w_tax FROM warehouse WHERE w_id = ?",
                      {Value::Int(w)});
    if (!wtax.ok()) return wtax.status();
    if (with_rt_query) {
      // Real-time query: the lowest catalogue price, not a random price.
      auto min_price = Query(s, "SELECT MIN(i_price) FROM item");
      if (!min_price.ok()) return min_price.status();
    }
    auto dist = Query(
        s, "SELECT d_tax, d_next_o_id FROM district WHERE d_w_id = ? AND "
           "d_id = ?",
        {Value::Int(w), Value::Int(d)});
    if (!dist.ok()) return dist.status();
    if (dist->rows.empty()) return Status::NotFound("district");
    int64_t o_id = dist->rows[0][1].AsInt();
    OLXP_RETURN_NOT_OK(Exec(
        s, "UPDATE district SET d_next_o_id = ? WHERE d_w_id = ? AND d_id = ?",
        {Value::Int(o_id + 1), Value::Int(w), Value::Int(d)}));
    auto cust = Query(
        s, "SELECT c_discount, c_last, c_credit FROM customer WHERE "
           "c_w_id = ? AND c_d_id = ? AND c_id = ?",
        {Value::Int(w), Value::Int(d), Value::Int(c)});
    if (!cust.ok()) return cust.status();

    Status ord = Exec(
        s, "INSERT INTO orders VALUES (?, ?, ?, ?, ?, NULL, ?, 1)",
        {Value::Int(o_id), Value::Int(d), Value::Int(w), Value::Int(c),
         Value::Timestamp(NowMicros()), Value::Int(ol_cnt)});
    if (ord.code() == StatusCode::kAlreadyExists) {
      // Read-committed engines let two NewOrders observe the same
      // d_next_o_id; the unique-key violation is the client's retry signal.
      return Status::Conflict("duplicate order id under read-committed");
    }
    OLXP_RETURN_NOT_OK(ord);
    OLXP_RETURN_NOT_OK(Exec(s, "INSERT INTO new_order VALUES (?, ?, ?)",
                            {Value::Int(o_id), Value::Int(d), Value::Int(w)}));

    for (int l = 1; l <= ol_cnt; ++l) {
      int64_t i_id = item_ids[l - 1];
      if (rollback && l == ol_cnt) i_id = sc.items + 1;  // invalid item
      auto item = Query(s, "SELECT i_price, i_name FROM item WHERE i_id = ?",
                        {Value::Int(i_id)});
      if (!item.ok()) return item.status();
      if (item->rows.empty()) {
        return Status::Aborted("invalid item (1% forced rollback)");
      }
      double price = item->rows[0][0].AsDouble();
      auto stock = Query(
          s, "SELECT s_quantity, s_ytd, s_order_cnt FROM stock WHERE "
             "s_w_id = ? AND s_i_id = ?",
          {Value::Int(w), Value::Int(i_id)});
      if (!stock.ok()) return stock.status();
      if (stock->rows.empty()) return Status::NotFound("stock");
      int64_t qty = stock->rows[0][0].AsInt();
      int64_t order_qty = rng.Uniform(int64_t{1}, int64_t{10});
      int64_t new_qty =
          qty - order_qty + (qty - order_qty < 10 ? 91 : 0);
      OLXP_RETURN_NOT_OK(Exec(
          s, "UPDATE stock SET s_quantity = ?, s_ytd = s_ytd + ?, "
             "s_order_cnt = s_order_cnt + 1 WHERE s_w_id = ? AND s_i_id = ?",
          {Value::Int(new_qty), Value::Double(static_cast<double>(order_qty)),
           Value::Int(w), Value::Int(i_id)}));
      OLXP_RETURN_NOT_OK(Exec(
          s, "INSERT INTO order_line VALUES (?, ?, ?, ?, ?, ?, NULL, ?, ?, ?)",
          {Value::Int(o_id), Value::Int(d), Value::Int(w), Value::Int(l),
           Value::Int(i_id), Value::Int(w), Value::Int(order_qty),
           Value::Double(price * static_cast<double>(order_qty)),
           Value::String("dist-info-fixed-24-chars")}));
    }
    return Status::OK();
  });
}

/// TPC-C Payment: 60% of lookups go through the customer last-name index.
Status PaymentBody(engine::Session& s, Rng& rng, const Scale& sc) {
  const int64_t w = RandWarehouse(rng, sc);
  const int64_t d = RandDistrict(rng);
  const double amount = rng.Uniform(1.0, 5000.0);

  return InTxn(s, [&]() -> Status {
    OLXP_RETURN_NOT_OK(
        Exec(s, "UPDATE warehouse SET w_ytd = w_ytd + ? WHERE w_id = ?",
             {Value::Double(amount), Value::Int(w)}));
    OLXP_RETURN_NOT_OK(Exec(
        s, "UPDATE district SET d_ytd = d_ytd + ? WHERE d_w_id = ? AND "
           "d_id = ?",
        {Value::Double(amount), Value::Int(w), Value::Int(d)}));

    int64_t c_id;
    if (rng.Chance(0.6)) {
      std::string last = Rng::LastName(rng.NURand(255, 0, 999));
      auto rows = Query(
          s, "SELECT c_id FROM customer WHERE c_w_id = ? AND c_d_id = ? AND "
             "c_last = ? ORDER BY c_first",
          {Value::Int(w), Value::Int(d), Value::String(last)});
      if (!rows.ok()) return rows.status();
      if (rows->rows.empty()) {
        c_id = RandCustomer(rng);
      } else {
        c_id = rows->rows[rows->rows.size() / 2][0].AsInt();
      }
    } else {
      c_id = RandCustomer(rng);
    }
    OLXP_RETURN_NOT_OK(Exec(
        s, "UPDATE customer SET c_balance = c_balance - ?, "
           "c_ytd_payment = c_ytd_payment + ?, c_payment_cnt = "
           "c_payment_cnt + 1 WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
        {Value::Double(amount), Value::Double(amount), Value::Int(w),
         Value::Int(d), Value::Int(c_id)}));
    OLXP_RETURN_NOT_OK(Exec(
        s, "INSERT INTO history VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
        {Value::Int(c_id), Value::Int(d), Value::Int(w), Value::Int(d),
         Value::Int(w), Value::Timestamp(UniqueHistoryStamp()),
         Value::Double(amount), Value::String("payment-history-data")}));
    return Status::OK();
  });
}

/// TPC-C OrderStatus (read-only).
Status OrderStatusBody(engine::Session& s, Rng& rng, const Scale& sc) {
  const int64_t w = RandWarehouse(rng, sc);
  const int64_t d = RandDistrict(rng);
  const int64_t c = RandCustomer(rng);
  return InTxn(s, [&]() -> Status {
    auto cust = Query(
        s, "SELECT c_balance, c_first, c_middle, c_last FROM customer "
           "WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
        {Value::Int(w), Value::Int(d), Value::Int(c)});
    if (!cust.ok()) return cust.status();
    auto order = Query(
        s, "SELECT MAX(o_id) FROM orders WHERE o_w_id = ? AND o_d_id = ? "
           "AND o_c_id = ?",
        {Value::Int(w), Value::Int(d), Value::Int(c)});
    if (!order.ok()) return order.status();
    if (order->rows.empty() || order->rows[0][0].is_null()) {
      return Status::OK();  // customer without orders
    }
    int64_t o_id = order->rows[0][0].AsInt();
    auto lines = Query(
        s, "SELECT ol_i_id, ol_quantity, ol_amount, ol_delivery_d FROM "
           "order_line WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?",
        {Value::Int(w), Value::Int(d), Value::Int(o_id)});
    return lines.ok() ? Status::OK() : lines.status();
  });
}

/// TPC-C Delivery: drains the oldest NEW_ORDER of each district.
Status DeliveryBody(engine::Session& s, Rng& rng, const Scale& sc) {
  const int64_t w = RandWarehouse(rng, sc);
  const int64_t carrier = rng.Uniform(int64_t{1}, int64_t{10});
  return InTxn(s, [&]() -> Status {
    for (int64_t d = 1; d <= kSubDistrictsPerWarehouse; ++d) {
      auto oldest = Query(
          s, "SELECT MIN(no_o_id) FROM new_order WHERE no_w_id = ? AND "
             "no_d_id = ?",
          {Value::Int(w), Value::Int(d)});
      if (!oldest.ok()) return oldest.status();
      if (oldest->rows.empty() || oldest->rows[0][0].is_null()) continue;
      int64_t o_id = oldest->rows[0][0].AsInt();
      Status del = Exec(
          s, "DELETE FROM new_order WHERE no_w_id = ? AND no_d_id = ? AND "
             "no_o_id = ?",
          {Value::Int(w), Value::Int(d), Value::Int(o_id)});
      if (del.code() == StatusCode::kNotFound) {
        // A concurrent Delivery drained this order between our MIN() and
        // the delete; surface as a retryable conflict (TPC-C semantics).
        return Status::Conflict("delivery raced on oldest order");
      }
      OLXP_RETURN_NOT_OK(del);
      auto cust = Query(
          s, "SELECT o_c_id FROM orders WHERE o_w_id = ? AND o_d_id = ? AND "
             "o_id = ?",
          {Value::Int(w), Value::Int(d), Value::Int(o_id)});
      if (!cust.ok()) return cust.status();
      if (cust->rows.empty()) continue;
      int64_t c_id = cust->rows[0][0].AsInt();
      OLXP_RETURN_NOT_OK(Exec(
          s, "UPDATE orders SET o_carrier_id = ? WHERE o_w_id = ? AND "
             "o_d_id = ? AND o_id = ?",
          {Value::Int(carrier), Value::Int(w), Value::Int(d),
           Value::Int(o_id)}));
      auto total = Query(
          s, "SELECT SUM(ol_amount) FROM order_line WHERE ol_w_id = ? AND "
             "ol_d_id = ? AND ol_o_id = ?",
          {Value::Int(w), Value::Int(d), Value::Int(o_id)});
      if (!total.ok()) return total.status();
      double amount = total->rows.empty() || total->rows[0][0].is_null()
                          ? 0.0
                          : total->rows[0][0].AsDouble();
      OLXP_RETURN_NOT_OK(Exec(
          s, "UPDATE order_line SET ol_delivery_d = ? WHERE ol_w_id = ? AND "
             "ol_d_id = ? AND ol_o_id = ?",
          {Value::Timestamp(NowMicros()), Value::Int(w), Value::Int(d),
           Value::Int(o_id)}));
      OLXP_RETURN_NOT_OK(Exec(
          s, "UPDATE customer SET c_balance = c_balance + ?, "
             "c_delivery_cnt = c_delivery_cnt + 1 WHERE c_w_id = ? AND "
             "c_d_id = ? AND c_id = ?",
          {Value::Double(amount), Value::Int(w), Value::Int(d),
           Value::Int(c_id)}));
    }
    return Status::OK();
  });
}

/// TPC-C StockLevel (read-only): recent orders' items below threshold.
Status StockLevelBody(engine::Session& s, Rng& rng, const Scale& sc) {
  const int64_t w = RandWarehouse(rng, sc);
  const int64_t d = RandDistrict(rng);
  const int64_t threshold = rng.Uniform(int64_t{10}, int64_t{20});
  return InTxn(s, [&]() -> Status {
    auto next = Query(
        s, "SELECT d_next_o_id FROM district WHERE d_w_id = ? AND d_id = ?",
        {Value::Int(w), Value::Int(d)});
    if (!next.ok()) return next.status();
    if (next->rows.empty()) return Status::NotFound("district");
    int64_t next_o = next->rows[0][0].AsInt();
    auto count = Query(
        s, "SELECT COUNT(DISTINCT ol_i_id) FROM order_line, stock WHERE "
           "ol_w_id = ? AND ol_d_id = ? AND ol_o_id >= ? AND ol_o_id < ? AND "
           "s_w_id = ol_w_id AND s_i_id = ol_i_id AND s_quantity < ?",
        {Value::Int(w), Value::Int(d), Value::Int(next_o - 20),
         Value::Int(next_o), Value::Int(threshold)});
    return count.ok() ? Status::OK() : count.status();
  });
}

// ------------------------- analytical queries ----------------------------

/// Q1: Orders Analytical Report — magnitude summary of ORDER_LINE grouped
/// by line number (the paper's flagship subenchmark query).
Status Q1(engine::Session& s, Rng& /*rng*/) {
  auto rs = Query(
      s, "SELECT ol_number, SUM(ol_quantity), SUM(ol_amount), "
         "AVG(ol_quantity), AVG(ol_amount), COUNT(*) FROM order_line "
         "GROUP BY ol_number ORDER BY ol_number");
  return rs.ok() ? Status::OK() : rs.status();
}

/// Q2: customer balance distribution (CUSTOMER).
Status Q2(engine::Session& s, Rng& /*rng*/) {
  auto rs = Query(
      s, "SELECT c_credit, COUNT(*), AVG(c_balance), MIN(c_balance), "
         "MAX(c_balance) FROM customer GROUP BY c_credit ORDER BY c_credit");
  return rs.ok() ? Status::OK() : rs.status();
}

/// Q3: spend analysis over HISTORY — the table stitched schemas never
/// analyze (§III-B2).
Status Q3(engine::Session& s, Rng& /*rng*/) {
  auto rs = Query(
      s, "SELECT h_w_id, COUNT(*), SUM(h_amount), AVG(h_amount) FROM history "
         "GROUP BY h_w_id ORDER BY h_w_id");
  return rs.ok() ? Status::OK() : rs.status();
}

/// Q4: warehouse vs district year-to-date reconciliation (WAREHOUSE +
/// DISTRICT, also ignored by stitched schemas).
Status Q4(engine::Session& s, Rng& /*rng*/) {
  auto rs = Query(
      s, "SELECT w.w_id, MAX(w.w_ytd), SUM(d.d_ytd) FROM warehouse w "
         "JOIN district d ON d.d_w_id = w.w_id GROUP BY w.w_id "
         "ORDER BY w.w_id");
  return rs.ok() ? Status::OK() : rs.status();
}

/// Q5: top revenue items.
Status Q5(engine::Session& s, Rng& /*rng*/) {
  auto rs = Query(
      s, "SELECT ol_i_id, SUM(ol_amount) AS rev FROM order_line "
         "GROUP BY ol_i_id ORDER BY rev DESC LIMIT 10");
  return rs.ok() ? Status::OK() : rs.status();
}

/// Q6: stock pressure per warehouse.
Status Q6(engine::Session& s, Rng& rng) {
  auto rs = Query(
      s, "SELECT s_w_id, COUNT(*) FROM stock WHERE s_quantity < ? "
         "GROUP BY s_w_id ORDER BY s_w_id",
      {Value::Int(rng.Uniform(int64_t{20}, int64_t{40}))});
  return rs.ok() ? Status::OK() : rs.status();
}

/// Q7: order behaviour per customer credit class (multi-join).
Status Q7(engine::Session& s, Rng& /*rng*/) {
  auto rs = Query(
      s, "SELECT c.c_credit, COUNT(*), AVG(o.o_ol_cnt) FROM orders o "
         "JOIN customer c ON c.c_w_id = o.o_w_id AND c.c_d_id = o.o_d_id "
         "AND c.c_id = o.o_c_id GROUP BY c.c_credit");
  return rs.ok() ? Status::OK() : rs.status();
}

/// Q8: undelivered backlog by warehouse.
Status Q8(engine::Session& s, Rng& /*rng*/) {
  auto rs = Query(
      s, "SELECT o_w_id, COUNT(*) FROM orders WHERE o_carrier_id IS NULL "
         "GROUP BY o_w_id ORDER BY o_w_id");
  return rs.ok() ? Status::OK() : rs.status();
}

/// Q9: price-band catalogue analysis (CASE + grouping).
Status Q9(engine::Session& s, Rng& /*rng*/) {
  auto rs = Query(
      s, "SELECT CASE WHEN i_price < 50 THEN 0 ELSE 1 END AS band, "
         "COUNT(*), AVG(i_price) FROM item GROUP BY "
         "CASE WHEN i_price < 50 THEN 0 ELSE 1 END ORDER BY band");
  return rs.ok() ? Status::OK() : rs.status();
}

// ------------------------- hybrid transactions ---------------------------
// Each performs a real-time query *inside* an online transaction: the
// engine pins the whole transaction to the row store (§V-B2).

/// X1: the paper's flagship hybrid — the NewOrder transaction with a
/// real-time lowest-price query injected in-between (write).
Status X1(engine::Session& s, Rng& rng, const Scale& sc) {
  return NewOrderBody(s, rng, sc, /*with_rt_query=*/true);
}

/// X2: Payment preceded by a real-time district-wide balance aggregate
/// (fraud screening) — write.
Status X2(engine::Session& s, Rng& rng, const Scale& sc) {
  const int64_t w = RandWarehouse(rng, sc);
  const int64_t d = RandDistrict(rng);
  const int64_t c = RandCustomer(rng);
  const double amount = rng.Uniform(1.0, 5000.0);
  return InTxn(s, [&]() -> Status {
    auto screen = Query(
        s, "SELECT AVG(c_balance), MIN(c_balance) FROM customer WHERE "
           "c_w_id = ?",
        {Value::Int(w)});
    if (!screen.ok()) return screen.status();
    OLXP_RETURN_NOT_OK(
        Exec(s, "UPDATE warehouse SET w_ytd = w_ytd + ? WHERE w_id = ?",
             {Value::Double(amount), Value::Int(w)}));
    OLXP_RETURN_NOT_OK(Exec(
        s, "UPDATE district SET d_ytd = d_ytd + ? WHERE d_w_id = ? AND "
           "d_id = ?",
        {Value::Double(amount), Value::Int(w), Value::Int(d)}));
    OLXP_RETURN_NOT_OK(Exec(
        s, "UPDATE customer SET c_balance = c_balance - ? WHERE c_w_id = ? "
           "AND c_d_id = ? AND c_id = ?",
        {Value::Double(amount), Value::Int(w), Value::Int(d), Value::Int(c)}));
    return Status::OK();
  });
}

/// X3: order-status consultation with a real-time open-order count
/// (read-only).
Status X3(engine::Session& s, Rng& rng, const Scale& sc) {
  const int64_t w = RandWarehouse(rng, sc);
  const int64_t d = RandDistrict(rng);
  const int64_t c = RandCustomer(rng);
  return InTxn(s, [&]() -> Status {
    auto backlog = Query(
        s, "SELECT COUNT(*) FROM new_order WHERE no_w_id = ?",
        {Value::Int(w)});
    if (!backlog.ok()) return backlog.status();
    auto order = Query(
        s, "SELECT MAX(o_id) FROM orders WHERE o_w_id = ? AND o_d_id = ? "
           "AND o_c_id = ?",
        {Value::Int(w), Value::Int(d), Value::Int(c)});
    return order.ok() ? Status::OK() : order.status();
  });
}

/// X4: stock-level check with a real-time warehouse-wide average
/// (read-only).
Status X4(engine::Session& s, Rng& rng, const Scale& sc) {
  const int64_t w = RandWarehouse(rng, sc);
  const int64_t threshold = rng.Uniform(int64_t{10}, int64_t{20});
  return InTxn(s, [&]() -> Status {
    auto avg = Query(s, "SELECT AVG(s_quantity) FROM stock WHERE s_w_id = ?",
                     {Value::Int(w)});
    if (!avg.ok()) return avg.status();
    auto low = Query(
        s, "SELECT COUNT(*) FROM stock WHERE s_w_id = ? AND s_quantity < ?",
        {Value::Int(w), Value::Int(threshold)});
    return low.ok() ? Status::OK() : low.status();
  });
}

/// X5: catalogue browsing with a real-time average-price anchor
/// (read-only).
Status X5(engine::Session& s, Rng& rng, const Scale& sc) {
  return InTxn(s, [&]() -> Status {
    auto avg = Query(s, "SELECT AVG(i_price) FROM item");
    if (!avg.ok()) return avg.status();
    for (int k = 0; k < 5; ++k) {
      auto item = Query(s, "SELECT i_name, i_price FROM item WHERE i_id = ?",
                        {Value::Int(RandItem(rng, sc))});
      if (!item.ok()) return item.status();
    }
    return Status::OK();
  });
}

}  // namespace

void AddSubenchWorkloads(benchfw::BenchmarkSuite* suite) {
  const Scale sc{suite->load_params.scale, suite->load_params.items};

  // OLTP mix follows TPC-C: 8% read-only (OrderStatus + StockLevel).
  suite->transactions = {
      {"NewOrder", 45, false,
       [sc](engine::Session& s, Rng& r) { return NewOrderBody(s, r, sc); }},
      {"Payment", 43, false,
       [sc](engine::Session& s, Rng& r) { return PaymentBody(s, r, sc); }},
      {"OrderStatus", 4, true,
       [sc](engine::Session& s, Rng& r) { return OrderStatusBody(s, r, sc); }},
      {"Delivery", 4, false,
       [sc](engine::Session& s, Rng& r) { return DeliveryBody(s, r, sc); }},
      {"StockLevel", 4, true,
       [sc](engine::Session& s, Rng& r) { return StockLevelBody(s, r, sc); }},
  };
  suite->queries = {
      {"Q1", 1, true, Q1}, {"Q2", 1, true, Q2}, {"Q3", 1, true, Q3},
      {"Q4", 1, true, Q4}, {"Q5", 1, true, Q5}, {"Q6", 1, true, Q6},
      {"Q7", 1, true, Q7}, {"Q8", 1, true, Q8}, {"Q9", 1, true, Q9},
  };
  // Hybrid mix: 60% read-only (X3, X4, X5).
  suite->hybrids = {
      {"X1", 20, false,
       [sc](engine::Session& s, Rng& r) { return X1(s, r, sc); }},
      {"X2", 20, false,
       [sc](engine::Session& s, Rng& r) { return X2(s, r, sc); }},
      {"X3", 20, true,
       [sc](engine::Session& s, Rng& r) { return X3(s, r, sc); }},
      {"X4", 20, true,
       [sc](engine::Session& s, Rng& r) { return X4(s, r, sc); }},
      {"X5", 20, true,
       [sc](engine::Session& s, Rng& r) { return X5(s, r, sc); }},
  };
}

}  // namespace olxp::benchmarks
