#include "sql/executor.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/clock.h"
#include "common/strings.h"
#include "sql/bound_plan.h"
#include "sql/scalar_ops.h"

namespace olxp::sql {

// Bound-plan node definitions (BoundExpr, TableStep, BoundSelect, ...) live
// in sql/bound_plan.h so the vectorized engine in src/exec/ can lower them.

Status ForEachSubquery(const BoundSelect& plan,
                       const std::function<Status(const BoundExpr&)>& fn) {
  std::function<Status(const BoundExpr&)> visit = [&](const BoundExpr& e) {
    if (e.sub_id >= 0) OLXP_RETURN_NOT_OK(fn(e));
    for (const auto& c : e.children) OLXP_RETURN_NOT_OK(visit(*c));
    return Status::OK();
  };
  auto walk = [&](const BoundExprPtr& p) -> Status {
    return p == nullptr ? Status::OK() : visit(*p);
  };
  for (const TableStep& step : plan.steps) {
    for (const auto& k : step.key_exprs) OLXP_RETURN_NOT_OK(walk(k));
    OLXP_RETURN_NOT_OK(walk(step.range_lo));
    OLXP_RETURN_NOT_OK(walk(step.range_hi));
    for (const auto& f : step.filters) OLXP_RETURN_NOT_OK(walk(f));
  }
  for (const auto& p : plan.projections) OLXP_RETURN_NOT_OK(walk(p));
  for (const auto& g : plan.group_by) OLXP_RETURN_NOT_OK(walk(g));
  for (const AggSpec& a : plan.aggs) OLXP_RETURN_NOT_OK(walk(a.arg));
  OLXP_RETURN_NOT_OK(walk(plan.having));
  for (const BoundOrderItem& oi : plan.order_by) {
    OLXP_RETURN_NOT_OK(walk(oi.expr));
  }
  return Status::OK();
}

StatusOr<Value> ScalarSubqueryValue(const std::vector<Row>& rows) {
  if (rows.size() > 1) {
    return Status::InvalidArgument(
        "scalar subquery returned more than one row");
  }
  if (rows.empty() || rows[0].empty()) return Value::Null();
  return rows[0][0];
}

namespace {

// ================================ compiler =================================

struct TableBinding {
  std::string alias;
  int table_id = -1;
  const storage::TableSchema* schema = nullptr;
  int base = 0;
};

class Compiler {
 public:
  explicit Compiler(const Catalog& catalog) : catalog_(catalog) {}

  StatusOr<std::unique_ptr<CompiledStatement::Impl>> CompileStatement(
      const Statement& stmt) {
    auto impl = std::make_unique<CompiledStatement::Impl>();
    if (const auto* s = std::get_if<SelectStmt>(&stmt)) {
      impl->kind = StmtKind::kSelect;
      auto plan = CompileSelect(*s);
      if (!plan.ok()) return plan.status();
      impl->select = std::move(plan).value();
    } else if (const auto* s = std::get_if<InsertStmt>(&stmt)) {
      impl->kind = StmtKind::kInsert;
      auto b = CompileInsert(*s);
      if (!b.ok()) return b.status();
      impl->insert = std::move(b).value();
    } else if (const auto* s = std::get_if<UpdateStmt>(&stmt)) {
      impl->kind = StmtKind::kUpdate;
      auto b = CompileUpdate(*s);
      if (!b.ok()) return b.status();
      impl->update = std::move(b).value();
    } else if (const auto* s = std::get_if<DeleteStmt>(&stmt)) {
      impl->kind = StmtKind::kDelete;
      auto b = CompileDelete(*s);
      if (!b.ok()) return b.status();
      impl->del = std::move(b).value();
    } else if (const auto* s = std::get_if<CreateTableStmt>(&stmt)) {
      impl->kind = StmtKind::kCreateTable;
      auto b = CompileCreateTable(*s);
      if (!b.ok()) return b.status();
      impl->create_table = std::move(b).value();
    } else if (const auto* s = std::get_if<CreateIndexStmt>(&stmt)) {
      impl->kind = StmtKind::kCreateIndex;
      auto b = CompileCreateIndex(*s);
      if (!b.ok()) return b.status();
      impl->create_index = std::move(b).value();
    } else {
      return Status::Internal("unknown statement variant");
    }
    impl->num_subqueries = num_subqueries_;
    return impl;
  }

 private:
  StatusOr<std::shared_ptr<BoundSelect>> CompileSelect(
      const SelectStmt& stmt) {
    if (stmt.from.empty()) {
      return Status::Unsupported("SELECT without FROM");
    }
    // --- scope ---
    std::vector<TableBinding> scope;
    int base = 0;
    for (const TableRef& ref : stmt.from) {
      auto tid = catalog_.TableId(ref.table_name);
      if (!tid.ok()) return tid.status();
      TableBinding b;
      b.alias = ToLower(ref.alias);
      b.table_id = *tid;
      b.schema = &catalog_.GetSchema(*tid);
      b.base = base;
      base += b.schema->num_columns();
      scope.push_back(std::move(b));
    }
    auto plan = std::make_shared<BoundSelect>();
    plan->total_slots = base;
    plan->distinct = stmt.distinct;
    plan->limit = stmt.limit;

    // --- aggregate mode detection ---
    bool has_agg = !stmt.group_by.empty();
    for (const SelectItem& item : stmt.items) {
      if (!item.is_star && item.expr->ContainsAggregate()) has_agg = true;
    }
    if (stmt.having && stmt.having->ContainsAggregate()) has_agg = true;
    plan->aggregate_mode = has_agg;

    // --- group by ---
    for (const ExprPtr& g : stmt.group_by) {
      auto e = CompileExpr(*g, scope, /*allow_agg=*/false, plan.get());
      if (!e.ok()) return e.status();
      plan->group_by.push_back(std::move(e).value());
    }

    // --- projections ---
    for (const SelectItem& item : stmt.items) {
      if (item.is_star) {
        if (has_agg) {
          return Status::InvalidArgument("SELECT * with aggregates");
        }
        for (const TableBinding& b : scope) {
          for (int c = 0; c < b.schema->num_columns(); ++c) {
            auto e = std::make_unique<BoundExpr>();
            e->kind = BKind::kSlot;
            e->slot = b.base + c;
            e->max_slot = e->slot;
            plan->projections.push_back(std::move(e));
            plan->column_names.push_back(b.schema->columns()[c].name);
          }
        }
        continue;
      }
      auto e = CompileExpr(*item.expr, scope, has_agg, plan.get());
      if (!e.ok()) return e.status();
      if (has_agg) OLXP_RETURN_NOT_OK(CheckGrouped(**e, *plan, scope));
      plan->projections.push_back(std::move(e).value());
      plan->column_names.push_back(
          !item.alias.empty() ? item.alias : DeriveName(*item.expr));
    }

    // --- having ---
    if (stmt.having) {
      auto e = CompileExpr(*stmt.having, scope, has_agg, plan.get());
      if (!e.ok()) return e.status();
      if (has_agg) OLXP_RETURN_NOT_OK(CheckGrouped(**e, *plan, scope));
      plan->having = std::move(e).value();
    }

    // --- where: split conjuncts, compile, place ---
    plan->steps.reserve(scope.size());
    for (const TableBinding& b : scope) {
      TableStep step;
      step.table_id = b.table_id;
      step.schema = b.schema;
      step.base = b.base;
      step.ncols = b.schema->num_columns();
      plan->steps.push_back(std::move(step));
    }
    if (stmt.where) {
      std::vector<const Expr*> conjuncts;
      CollectConjuncts(*stmt.where, &conjuncts);
      for (const Expr* c : conjuncts) {
        auto e = CompileExpr(*c, scope, /*allow_agg=*/false, plan.get());
        if (!e.ok()) return e.status();
        BoundExprPtr be = std::move(e).value();
        int step_idx = StepForSlot(*plan, be->max_slot);
        plan->steps[step_idx].filters.push_back(std::move(be));
      }
    }
    for (TableStep& step : plan->steps) ChooseAccessPath(&step);

    // --- order by ---
    for (const OrderItem& oi : stmt.order_by) {
      BoundOrderItem bo;
      bo.desc = oi.desc;
      // ORDER BY <position>
      if (oi.expr->kind == ExprKind::kLiteral &&
          oi.expr->literal.type() == ValueType::kInt) {
        int pos = static_cast<int>(oi.expr->literal.AsInt()) - 1;
        if (pos < 0 || pos >= static_cast<int>(plan->projections.size())) {
          return Status::InvalidArgument("ORDER BY position out of range");
        }
        bo.proj_index = pos;
        plan->order_by.push_back(std::move(bo));
        continue;
      }
      // ORDER BY <alias>
      if (oi.expr->kind == ExprKind::kColumnRef && oi.expr->table.empty()) {
        int pos = -1;
        for (size_t i = 0; i < stmt.items.size(); ++i) {
          if (!stmt.items[i].is_star &&
              EqualsNoCase(stmt.items[i].alias, oi.expr->column)) {
            pos = static_cast<int>(i);
            break;
          }
        }
        if (pos >= 0) {
          bo.proj_index = pos;
          plan->order_by.push_back(std::move(bo));
          continue;
        }
      }
      auto e = CompileExpr(*oi.expr, scope, has_agg, plan.get());
      if (!e.ok()) return e.status();
      if (has_agg) OLXP_RETURN_NOT_OK(CheckGrouped(**e, *plan, scope));
      bo.expr = std::move(e).value();
      plan->order_by.push_back(std::move(bo));
    }
    return plan;
  }

  StatusOr<std::unique_ptr<BoundInsert>> CompileInsert(
      const InsertStmt& stmt) {
    auto tid = catalog_.TableId(stmt.table_name);
    if (!tid.ok()) return tid.status();
    auto b = std::make_unique<BoundInsert>();
    b->table_id = *tid;
    b->schema = &catalog_.GetSchema(*tid);
    if (!stmt.columns.empty()) {
      for (const std::string& col : stmt.columns) {
        int pos = b->schema->ColumnIndex(col);
        if (pos < 0) {
          return Status::InvalidArgument("unknown column " + col + " in " +
                                         stmt.table_name);
        }
        b->col_map.push_back(pos);
      }
    }
    size_t expect = stmt.columns.empty()
                        ? static_cast<size_t>(b->schema->num_columns())
                        : stmt.columns.size();
    std::vector<TableBinding> empty_scope;
    for (const auto& row : stmt.rows) {
      if (row.size() != expect) {
        return Status::InvalidArgument("INSERT arity mismatch");
      }
      std::vector<BoundExprPtr> bound_row;
      for (const ExprPtr& v : row) {
        auto e = CompileExpr(*v, empty_scope, false, nullptr);
        if (!e.ok()) return e.status();
        bound_row.push_back(std::move(e).value());
      }
      b->rows.push_back(std::move(bound_row));
    }
    return b;
  }

  /// Compiles the WHERE scan of an UPDATE/DELETE as a one-step plan, which
  /// the executor runs through RunJoin as is on every execution.
  StatusOr<BoundSelect> CompileSingleTableScan(
      const std::string& table_name, const ExprPtr& where,
      std::vector<TableBinding>* scope) {
    auto tid = catalog_.TableId(table_name);
    if (!tid.ok()) return tid.status();
    TableBinding b;
    b.alias = ToLower(table_name);
    b.table_id = *tid;
    b.schema = &catalog_.GetSchema(*tid);
    b.base = 0;
    scope->push_back(b);

    TableStep step;
    step.table_id = b.table_id;
    step.schema = b.schema;
    step.base = 0;
    step.ncols = b.schema->num_columns();
    if (where) {
      std::vector<const Expr*> conjuncts;
      CollectConjuncts(*where, &conjuncts);
      for (const Expr* c : conjuncts) {
        auto e = CompileExpr(*c, *scope, false, nullptr);
        if (!e.ok()) return e.status();
        step.filters.push_back(std::move(e).value());
      }
    }
    ChooseAccessPath(&step);
    BoundSelect scan;
    scan.total_slots = step.ncols;
    scan.steps.push_back(std::move(step));
    return scan;
  }

  StatusOr<std::unique_ptr<BoundUpdate>> CompileUpdate(
      const UpdateStmt& stmt) {
    auto b = std::make_unique<BoundUpdate>();
    std::vector<TableBinding> scope;
    auto scan = CompileSingleTableScan(stmt.table_name, stmt.where, &scope);
    if (!scan.ok()) return scan.status();
    b->scan = std::move(scan).value();
    for (const auto& [col, expr] : stmt.assignments) {
      int pos = b->step().schema->ColumnIndex(col);
      if (pos < 0) {
        return Status::InvalidArgument("unknown column " + col);
      }
      auto e = CompileExpr(*expr, scope, false, nullptr);
      if (!e.ok()) return e.status();
      b->assignments.emplace_back(pos, std::move(e).value());
    }
    return b;
  }

  StatusOr<std::unique_ptr<BoundDelete>> CompileDelete(
      const DeleteStmt& stmt) {
    auto b = std::make_unique<BoundDelete>();
    std::vector<TableBinding> scope;
    auto scan = CompileSingleTableScan(stmt.table_name, stmt.where, &scope);
    if (!scan.ok()) return scan.status();
    b->scan = std::move(scan).value();
    return b;
  }

  StatusOr<std::unique_ptr<BoundCreateTable>> CompileCreateTable(
      const CreateTableStmt& stmt) {
    std::vector<storage::ColumnDef> cols;
    std::vector<int> pk;
    for (size_t i = 0; i < stmt.columns.size(); ++i) {
      const ColumnSpec& c = stmt.columns[i];
      cols.push_back(storage::ColumnDef{c.name, c.type, !c.not_null});
      if (c.primary_key) pk.push_back(static_cast<int>(i));
    }
    storage::TableSchema tmp(stmt.table_name, cols, {});
    for (const std::string& col : stmt.primary_key) {
      int pos = tmp.ColumnIndex(col);
      if (pos < 0) {
        return Status::InvalidArgument("unknown pk column " + col);
      }
      pk.push_back(pos);
    }
    if (pk.empty()) {
      return Status::InvalidArgument("table " + stmt.table_name +
                                     " needs a primary key");
    }
    // PK columns are implicitly NOT NULL.
    for (int p : pk) cols[p].nullable = false;
    auto b = std::make_unique<BoundCreateTable>();
    b->schema = storage::TableSchema(stmt.table_name, cols, pk);
    for (const ForeignKeySpec& fk : stmt.foreign_keys) {
      storage::ForeignKeyDef def;
      def.ref_table = fk.ref_table;
      for (const std::string& col : fk.columns) {
        int pos = b->schema.ColumnIndex(col);
        if (pos < 0) {
          return Status::InvalidArgument("unknown fk column " + col);
        }
        def.column_idx.push_back(pos);
      }
      // Referenced column positions resolved by the engine at DDL time.
      b->schema.AddForeignKey(std::move(def));
    }
    return b;
  }

  StatusOr<std::unique_ptr<BoundCreateIndex>> CompileCreateIndex(
      const CreateIndexStmt& stmt) {
    auto tid = catalog_.TableId(stmt.table_name);
    if (!tid.ok()) return tid.status();
    const storage::TableSchema& schema = catalog_.GetSchema(*tid);
    storage::IndexDef def;
    def.name = stmt.index_name;
    def.unique = stmt.unique;
    for (const std::string& col : stmt.columns) {
      int pos = schema.ColumnIndex(col);
      if (pos < 0) {
        return Status::InvalidArgument("unknown index column " + col);
      }
      def.column_idx.push_back(pos);
    }
    auto b = std::make_unique<BoundCreateIndex>();
    b->table_name = stmt.table_name;
    b->def = std::move(def);
    return b;
  }

  static void CollectConjuncts(const Expr& e, std::vector<const Expr*>* out) {
    if (e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kAnd) {
      CollectConjuncts(*e.children[0], out);
      CollectConjuncts(*e.children[1], out);
      return;
    }
    out->push_back(&e);
  }

  static bool SameBound(const BoundExpr& a, const BoundExpr& b) {
    if (a.kind != b.kind || a.slot != b.slot ||
        a.param_index != b.param_index || a.uop != b.uop ||
        a.bop != b.bop || a.negated_in != b.negated_in ||
        a.sub_id != b.sub_id || a.literal.type() != b.literal.type() ||
        a.literal != b.literal || a.children.size() != b.children.size()) {
      return false;
    }
    for (size_t i = 0; i < a.children.size(); ++i) {
      if (!SameBound(*a.children[i], *b.children[i])) return false;
    }
    return true;
  }

  /// The grouping rule of SQL:1999 (and PostgreSQL): outside aggregates, an
  /// aggregate query's SELECT list, HAVING and ORDER BY read a column only
  /// inside an expression that matches a GROUP BY expression, or when every
  /// primary-key column of the column's table is grouped (one row of that
  /// table per group). Any other column would take an arbitrary row of its
  /// group, and the two stores visit a group's rows in different orders.
  static Status CheckGrouped(const BoundExpr& e, const BoundSelect& plan,
                             const std::vector<TableBinding>& scope) {
    for (const BoundExprPtr& g : plan.group_by) {
      if (SameBound(e, *g)) return Status::OK();
    }
    if (e.kind == BKind::kSlot) {
      const TableBinding* b = &scope.front();
      for (const TableBinding& t : scope) {
        if (t.base <= e.slot) b = &t;
      }
      bool pk_grouped = true;
      for (int pk : b->schema->pk_columns()) {
        bool grouped = false;
        for (const BoundExprPtr& g : plan.group_by) {
          grouped |= g->kind == BKind::kSlot && g->slot == b->base + pk;
        }
        pk_grouped &= grouped;
      }
      if (pk_grouped) return Status::OK();
      return Status::InvalidArgument(
          "column " + b->schema->columns()[e.slot - b->base].name +
          " must appear in the GROUP BY clause or be used in an aggregate "
          "function");
    }
    // A subquery's own columns were checked when it compiled; only its
    // probe operand (children) reads this query's row.
    for (const BoundExprPtr& c : e.children) {
      OLXP_RETURN_NOT_OK(CheckGrouped(*c, plan, scope));
    }
    return Status::OK();
  }

  static int StepForSlot(const BoundSelect& plan, int max_slot) {
    if (max_slot < 0) return 0;
    for (size_t i = 0; i < plan.steps.size(); ++i) {
      const TableStep& s = plan.steps[i];
      if (max_slot < s.base + s.ncols) return static_cast<int>(i);
    }
    return static_cast<int>(plan.steps.size()) - 1;
  }

  /// Chooses an index-backed access path from the step's filters.
  static void ChooseAccessPath(TableStep* step) {
    // Collect candidate equalities col_slot -> value expr, and range bounds.
    std::map<int, const BoundExpr*> equalities;   // local col idx -> value
    std::map<int, std::pair<const BoundExpr*, const BoundExpr*>> ranges;
    for (const BoundExprPtr& f : step->filters) {
      const BoundExpr* col = nullptr;
      const BoundExpr* val = nullptr;
      BinaryOp op;
      if (f->kind == BKind::kBinary) {
        op = f->bop;
        const BoundExpr* l = f->children[0].get();
        const BoundExpr* r = f->children[1].get();
        auto in_step = [&](const BoundExpr* e) {
          return e->kind == BKind::kSlot && e->slot >= step->base &&
                 e->slot < step->base + step->ncols;
        };
        auto bound_before = [&](const BoundExpr* e) {
          return e->max_slot < step->base;
        };
        if (in_step(l) && bound_before(r)) {
          col = l;
          val = r;
        } else if (in_step(r) && bound_before(l)) {
          col = r;
          val = l;
          // flip comparison direction
          switch (op) {
            case BinaryOp::kLt: op = BinaryOp::kGt; break;
            case BinaryOp::kLe: op = BinaryOp::kGe; break;
            case BinaryOp::kGt: op = BinaryOp::kLt; break;
            case BinaryOp::kGe: op = BinaryOp::kLe; break;
            default: break;
          }
        } else {
          continue;
        }
        int local = col->slot - step->base;
        switch (op) {
          case BinaryOp::kEq:
            equalities[local] = val;
            break;
          case BinaryOp::kGe:
          case BinaryOp::kGt:
            if (ranges[local].first == nullptr) ranges[local].first = val;
            break;
          case BinaryOp::kLe:
          case BinaryOp::kLt:
            if (ranges[local].second == nullptr) ranges[local].second = val;
            break;
          default:
            break;
        }
      } else if (f->kind == BKind::kBetween) {
        const BoundExpr* subj = f->children[0].get();
        if (subj->kind == BKind::kSlot && subj->slot >= step->base &&
            subj->slot < step->base + step->ncols &&
            f->children[1]->max_slot < step->base &&
            f->children[2]->max_slot < step->base) {
          int local = subj->slot - step->base;
          ranges[local] = {f->children[1].get(), f->children[2].get()};
        }
      }
    }

    const auto& pk = step->schema->pk_columns();
    // Longest pk equality prefix.
    size_t pk_prefix = 0;
    while (pk_prefix < pk.size() && equalities.count(pk[pk_prefix])) {
      ++pk_prefix;
    }
    if (pk_prefix == pk.size() && !pk.empty()) {
      step->path = TableStep::Path::kPkPoint;
      for (int c : pk) step->key_exprs.push_back(CloneBound(*equalities[c]));
      return;
    }
    // pk prefix (possibly empty) + optional range on the next pk column.
    const BoundExpr* lo = nullptr;
    const BoundExpr* hi = nullptr;
    if (pk_prefix < pk.size()) {
      auto it = ranges.find(pk[pk_prefix]);
      if (it != ranges.end()) {
        lo = it->second.first;
        hi = it->second.second;
      }
    }
    if (pk_prefix > 0 || lo != nullptr || hi != nullptr) {
      step->path = TableStep::Path::kPkPrefixRange;
      for (size_t i = 0; i < pk_prefix; ++i) {
        step->key_exprs.push_back(CloneBound(*equalities[pk[i]]));
      }
      if (lo != nullptr) step->range_lo = CloneBound(*lo);
      if (hi != nullptr) step->range_hi = CloneBound(*hi);
      return;
    }
    // Secondary indexes: longest equality prefix wins.
    int best_index = -1;
    size_t best_len = 0;
    const auto& indexes = step->schema->indexes();
    for (size_t i = 0; i < indexes.size(); ++i) {
      size_t len = 0;
      while (len < indexes[i].column_idx.size() &&
             equalities.count(indexes[i].column_idx[len])) {
        ++len;
      }
      if (len > best_len) {
        best_len = len;
        best_index = static_cast<int>(i);
      }
    }
    if (best_index >= 0 && best_len > 0) {
      step->path = TableStep::Path::kIndexPrefix;
      step->index_id = best_index;
      for (size_t i = 0; i < best_len; ++i) {
        step->key_exprs.push_back(
            CloneBound(*equalities[indexes[best_index].column_idx[i]]));
      }
      return;
    }
    step->path = TableStep::Path::kFull;
  }

  static std::string DeriveName(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kColumnRef:
        return e.column;
      case ExprKind::kAggregate:
        switch (e.agg) {
          case AggFunc::kCountStar:
          case AggFunc::kCount:
            return "count";
          case AggFunc::kSum:
            return "sum";
          case AggFunc::kAvg:
            return "avg";
          case AggFunc::kMin:
            return "min";
          case AggFunc::kMax:
            return "max";
        }
        return "agg";
      default:
        return "expr";
    }
  }

  StatusOr<BoundExprPtr> CompileExpr(const Expr& e,
                                     const std::vector<TableBinding>& scope,
                                     bool allow_agg, BoundSelect* plan) {
    auto out = std::make_unique<BoundExpr>();
    out->max_slot = -1;
    switch (e.kind) {
      case ExprKind::kLiteral:
        out->kind = BKind::kLiteral;
        out->literal = e.literal;
        return out;
      case ExprKind::kParam:
        out->kind = BKind::kParam;
        out->param_index = e.param_index;
        return out;
      case ExprKind::kColumnRef: {
        int slot = -1;
        if (!e.table.empty()) {
          std::string alias = ToLower(e.table);
          for (const TableBinding& b : scope) {
            if (b.alias == alias) {
              int pos = b.schema->ColumnIndex(e.column);
              if (pos < 0) {
                return Status::InvalidArgument("unknown column " + e.table +
                                               "." + e.column);
              }
              slot = b.base + pos;
              break;
            }
          }
          if (slot < 0) {
            return Status::InvalidArgument("unknown table alias " + e.table);
          }
        } else {
          int hits = 0;
          for (const TableBinding& b : scope) {
            int pos = b.schema->ColumnIndex(e.column);
            if (pos >= 0) {
              slot = b.base + pos;
              ++hits;
            }
          }
          if (hits == 0) {
            return Status::InvalidArgument("unknown column " + e.column);
          }
          if (hits > 1) {
            return Status::InvalidArgument("ambiguous column " + e.column);
          }
        }
        out->kind = BKind::kSlot;
        out->slot = slot;
        out->max_slot = slot;
        return out;
      }
      case ExprKind::kAggregate: {
        if (!allow_agg || plan == nullptr) {
          return Status::InvalidArgument("aggregate not allowed here");
        }
        AggSpec spec;
        spec.fn = e.agg;
        if (!e.children.empty()) {
          auto arg = CompileExpr(*e.children[0], scope, false, plan);
          if (!arg.ok()) return arg.status();
          spec.arg = std::move(arg).value();
        }
        out->kind = BKind::kAggRef;
        out->agg_index = static_cast<int>(plan->aggs.size());
        plan->aggs.push_back(std::move(spec));
        return out;
      }
      case ExprKind::kUnary: {
        out->kind = BKind::kUnary;
        out->uop = e.unary_op;
        auto c = CompileExpr(*e.children[0], scope, allow_agg, plan);
        if (!c.ok()) return c.status();
        out->max_slot = (*c)->max_slot;
        out->children.push_back(std::move(c).value());
        return out;
      }
      case ExprKind::kBinary: {
        out->kind = BKind::kBinary;
        out->bop = e.binary_op;
        for (int i = 0; i < 2; ++i) {
          auto c = CompileExpr(*e.children[i], scope, allow_agg, plan);
          if (!c.ok()) return c.status();
          out->max_slot = std::max(out->max_slot, (*c)->max_slot);
          out->children.push_back(std::move(c).value());
        }
        return out;
      }
      case ExprKind::kBetween: {
        out->kind = BKind::kBetween;
        for (int i = 0; i < 3; ++i) {
          auto c = CompileExpr(*e.children[i], scope, allow_agg, plan);
          if (!c.ok()) return c.status();
          out->max_slot = std::max(out->max_slot, (*c)->max_slot);
          out->children.push_back(std::move(c).value());
        }
        return out;
      }
      case ExprKind::kInList: {
        out->kind = BKind::kInList;
        out->negated_in = e.negated_in;
        for (const auto& child : e.children) {
          auto c = CompileExpr(*child, scope, allow_agg, plan);
          if (!c.ok()) return c.status();
          out->max_slot = std::max(out->max_slot, (*c)->max_slot);
          out->children.push_back(std::move(c).value());
        }
        return out;
      }
      case ExprKind::kInSubquery:
      case ExprKind::kScalarSubquery: {
        out->kind = e.kind == ExprKind::kInSubquery ? BKind::kInSubquery
                                                    : BKind::kScalarSubquery;
        out->negated_in = e.negated_in;
        if (!e.children.empty()) {
          auto c = CompileExpr(*e.children[0], scope, allow_agg, plan);
          if (!c.ok()) return c.status();
          out->max_slot = (*c)->max_slot;
          out->children.push_back(std::move(c).value());
        }
        // Subqueries compile in a fresh scope: correlation is intentionally
        // unsupported (documented dialect restriction).
        auto sub = CompileSelect(*e.subquery);
        if (!sub.ok()) return sub.status();
        out->subplan = std::move(sub).value();
        out->sub_id = num_subqueries_++;
        return out;
      }
      case ExprKind::kCase: {
        out->kind = BKind::kCase;
        for (const auto& child : e.children) {
          auto c = CompileExpr(*child, scope, allow_agg, plan);
          if (!c.ok()) return c.status();
          out->max_slot = std::max(out->max_slot, (*c)->max_slot);
          out->children.push_back(std::move(c).value());
        }
        return out;
      }
    }
    return Status::Internal("unhandled expression kind");
  }

  const Catalog& catalog_;
  int num_subqueries_ = 0;
};

}  // namespace

// ================================ execution ================================

namespace {

struct ExecContext {
  std::span<const Value> params;
  /// Null when every subquery is already materialized (EvalBound).
  StorageIface* storage = nullptr;
  /// Materialized uncorrelated subquery results, by sub_id.
  SubqueryRows* subqueries = nullptr;
};

StatusOr<ResultSet> ExecuteSelectPlan(const BoundSelect& plan,
                                      ExecContext* ctx,
                                      obs::QueryTrace* trace = nullptr);

StatusOr<Value> Eval(const BoundExpr& e, const Row& tuple, ExecContext* ctx,
                     const std::vector<Value>* agg_values);

/// The subquery's rows, executing it on first use; with `trace`, that
/// execution adds a "subquery" op.
StatusOr<const std::vector<Row>*> MaterializeSubquery(
    const BoundExpr& e, ExecContext* ctx, obs::QueryTrace* trace = nullptr) {
  std::optional<std::vector<Row>>& slot = ctx->subqueries->at(e.sub_id);
  if (!slot.has_value()) {
    if (ctx->storage == nullptr) {
      return Status::Internal("subquery was not pre-materialized");
    }
    const int64_t t0 = trace != nullptr ? NowNanos() : 0;
    auto rs = ExecuteSelectPlan(*e.subplan, ctx);
    if (!rs.ok()) return rs.status();
    if (trace != nullptr) {
      trace->AddSubquery(e.sub_id, static_cast<int64_t>(rs->rows.size()),
                         NowNanos() - t0);
    }
    slot = std::move(rs->rows);
  }
  return &*slot;
}

/// Executes every subquery of the plan into the statement's subquery rows
/// (ForEachSubquery's positions) and rejects a multi-row scalar subquery up
/// front, whether or not a row ever evaluates it. RunJoin calls this before
/// taking any table latch: evaluating a subquery lazily from inside a scan
/// callback would open a nested scan under the SHARED table latch — the
/// lock-order hazard that kept TSan's deadlock detection off. Correlation
/// is unsupported (subqueries compile in a fresh scope), so every subquery
/// is loop-invariant and safe to run up front.
Status PrematerializePlanSubqueries(const BoundSelect& plan,
                                    ExecContext* ctx,
                                    obs::QueryTrace* trace = nullptr) {
  if (ctx->subqueries->empty()) return Status::OK();  // the common case
  return ForEachSubquery(plan, [&](const BoundExpr& e) -> Status {
    auto rows = MaterializeSubquery(e, ctx, trace);
    if (!rows.ok()) return rows.status();
    if (e.kind != BKind::kScalarSubquery) return Status::OK();
    return ScalarSubqueryValue(**rows).status();
  });
}

/// Binary arithmetic over boxed values (rules in sql/scalar_ops.h).
StatusOr<Value> Arith(BinaryOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  OLXP_RETURN_NOT_OK(CheckArithOperands(a.type(), b.type()));
  if (ArithAsDouble(op, a.type(), b.type())) {
    auto r = DoubleArith(op, a.AsDouble(), b.AsDouble());
    return r ? Value::Double(*r) : Value::Null();
  }
  auto r = IntArith(op, a.AsInt(), b.AsInt());
  return r ? Value::Int(*r) : Value::Null();
}

StatusOr<Value> Eval(const BoundExpr& e, const Row& tuple, ExecContext* ctx,
                     const std::vector<Value>* agg_values) {
  switch (e.kind) {
    case BKind::kLiteral:
      return e.literal;
    case BKind::kSlot:
      assert(e.slot >= 0 && static_cast<size_t>(e.slot) < tuple.size());
      return tuple[e.slot];
    case BKind::kParam:
      if (e.param_index < 0 ||
          static_cast<size_t>(e.param_index) >= ctx->params.size()) {
        return Status::InvalidArgument("missing statement parameter");
      }
      return ctx->params[e.param_index];
    case BKind::kAggRef:
      if (agg_values == nullptr) {
        return Status::Internal("aggregate referenced outside group context");
      }
      return (*agg_values)[e.agg_index];
    case BKind::kUnary: {
      auto c = Eval(*e.children[0], tuple, ctx, agg_values);
      if (!c.ok()) return c;
      const Value& v = *c;
      switch (e.uop) {
        case UnaryOp::kNeg:
          OLXP_RETURN_NOT_OK(CheckNegOperand(v.type()));
          if (v.is_null()) return Value::Null();
          if (v.type() == ValueType::kDouble) {
            return Value::Double(-v.AsDouble());
          }
          if (auto r = IntNeg(v.AsInt())) return Value::Int(*r);
          return Value::Null();
        case UnaryOp::kNot:
          return Value::Bool(!v.AsBool());
        case UnaryOp::kIsNull:
          return Value::Bool(v.is_null());
        case UnaryOp::kIsNotNull:
          return Value::Bool(!v.is_null());
      }
      return Status::Internal("bad unary op");
    }
    case BKind::kBinary: {
      // Short-circuit logical ops.
      if (e.bop == BinaryOp::kAnd || e.bop == BinaryOp::kOr) {
        auto l = Eval(*e.children[0], tuple, ctx, agg_values);
        if (!l.ok()) return l;
        bool lv = l->AsBool();
        if (e.bop == BinaryOp::kAnd && !lv) return Value::Bool(false);
        if (e.bop == BinaryOp::kOr && lv) return Value::Bool(true);
        auto r = Eval(*e.children[1], tuple, ctx, agg_values);
        if (!r.ok()) return r;
        return Value::Bool(r->AsBool());
      }
      auto l = Eval(*e.children[0], tuple, ctx, agg_values);
      if (!l.ok()) return l;
      auto r = Eval(*e.children[1], tuple, ctx, agg_values);
      if (!r.ok()) return r;
      switch (e.bop) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod:
          return Arith(e.bop, *l, *r);
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          if (l->is_null() || r->is_null()) return Value::Bool(false);
          return Value::Bool(CmpMatches(e.bop, l->Compare(*r)));
        case BinaryOp::kLike:
        case BinaryOp::kNotLike: {
          if (l->is_null() || r->is_null()) return Value::Bool(false);
          if (l->type() != ValueType::kString ||
              r->type() != ValueType::kString) {
            return Status::InvalidArgument("LIKE requires strings");
          }
          bool m = SqlLike(l->AsString(), r->AsString());
          return Value::Bool(e.bop == BinaryOp::kLike ? m : !m);
        }
        default:
          return Status::Internal("bad binary op");
      }
    }
    case BKind::kBetween: {
      auto v = Eval(*e.children[0], tuple, ctx, agg_values);
      if (!v.ok()) return v;
      auto lo = Eval(*e.children[1], tuple, ctx, agg_values);
      if (!lo.ok()) return lo;
      auto hi = Eval(*e.children[2], tuple, ctx, agg_values);
      if (!hi.ok()) return hi;
      if (v->is_null() || lo->is_null() || hi->is_null()) {
        return Value::Bool(false);
      }
      return Value::Bool(v->Compare(*lo) >= 0 && v->Compare(*hi) <= 0);
    }
    case BKind::kInList: {
      auto v = Eval(*e.children[0], tuple, ctx, agg_values);
      if (!v.ok()) return v;
      bool found = false;
      for (size_t i = 1; i < e.children.size(); ++i) {
        auto item = Eval(*e.children[i], tuple, ctx, agg_values);
        if (!item.ok()) return item;
        if (!v->is_null() && !item->is_null() && v->Compare(*item) == 0) {
          found = true;
          break;
        }
      }
      return Value::Bool(e.negated_in ? !found : found);
    }
    case BKind::kInSubquery: {
      auto v = Eval(*e.children[0], tuple, ctx, agg_values);
      if (!v.ok()) return v;
      auto rows = MaterializeSubquery(e, ctx);
      if (!rows.ok()) return rows.status();
      bool found = false;
      for (const Row& r : **rows) {
        if (!r.empty() && !v->is_null() && !r[0].is_null() &&
            v->Compare(r[0]) == 0) {
          found = true;
          break;
        }
      }
      return Value::Bool(e.negated_in ? !found : found);
    }
    case BKind::kScalarSubquery: {
      auto rows = MaterializeSubquery(e, ctx);
      if (!rows.ok()) return rows.status();
      return ScalarSubqueryValue(**rows);
    }
    case BKind::kCase: {
      size_t n = e.children.size();
      bool has_else = n % 2 == 1;
      size_t pairs = n / 2;
      for (size_t i = 0; i < pairs; ++i) {
        auto cond = Eval(*e.children[2 * i], tuple, ctx, agg_values);
        if (!cond.ok()) return cond;
        if (cond->AsBool()) {
          return Eval(*e.children[2 * i + 1], tuple, ctx, agg_values);
        }
      }
      if (has_else) return Eval(*e.children[n - 1], tuple, ctx, agg_values);
      return Value::Null();
    }
  }
  return Status::Internal("unhandled bound expr kind");
}

/// Evaluates the step's key expressions against the tuple built so far and
/// coerces each to the corresponding key column's type.
Status EvalKey(const TableStep& step, const std::vector<int>& key_cols,
               const Row& tuple, ExecContext* ctx, Row* out) {
  out->clear();
  for (size_t i = 0; i < step.key_exprs.size(); ++i) {
    auto v = Eval(*step.key_exprs[i], tuple, ctx, nullptr);
    if (!v.ok()) return v.status();
    ValueType want = step.schema->columns()[key_cols[i]].type;
    auto cast = v->CastTo(want);
    if (!cast.ok()) return cast.status();
    out->push_back(std::move(cast).value());
  }
  return Status::OK();
}

// AggAccum lives in sql/bound_plan.h (shared with the vectorized engine).

struct Group {
  Row repr;  ///< representative input tuple (first of the group)
  std::vector<AggAccum> accums;
  int64_t star_count = 0;
};

/// Drives the join pipeline: emits every joined tuple passing all filters.
///
/// Latch discipline: multi-step plans take ONE table latch at a time, like
/// the vectorized path's one-ScanPin-per-table rule. Recursing into the
/// next step from inside a scan callback would nest that table's SHARED
/// latch under the current one; two joins ordering the tables differently
/// (or a concurrent exclusive-latch taker such as CREATE INDEX backfill)
/// then form an acquired-after cycle — a real deadlock, and the reason
/// TSan ran with detect_deadlocks=0. So for nested plans every scan-style
/// step materializes its rows first and recursion only ever walks
/// in-memory vectors; kFull inner tables cache once per statement, which
/// also removes the O(outer x inner) rescan. Single-step plans keep the
/// streaming path (LIMIT early-stop, no copy): with subqueries
/// pre-materialized, their callbacks touch no storage.
Status RunJoin(const BoundSelect& plan, ExecContext* ctx,
               const std::function<Status(const Row&)>& emit,
               bool* stop_flag) {
  OLXP_RETURN_NOT_OK(PrematerializePlanSubqueries(plan, ctx));

  Row tuple(plan.total_slots, Value::Null());
  const bool nested = plan.steps.size() > 1;
  // Per-statement cache of fully-scanned tables (kFull and degenerate
  // range steps of nested plans), keyed by step index.
  std::vector<std::optional<std::vector<Row>>> full_cache(plan.steps.size());
  auto ensure_full = [&](size_t k) -> Status {
    if (full_cache[k].has_value()) return Status::OK();
    std::vector<Row> rows;
    OLXP_RETURN_NOT_OK(
        ctx->storage->ScanTable(plan.steps[k].table_id, [&](const Row& row) {
          rows.push_back(row);
          return true;
        }));
    full_cache[k] = std::move(rows);
    return Status::OK();
  };

  // Recursive step executor.
  std::function<Status(size_t)> do_step = [&](size_t k) -> Status {
    if (*stop_flag) return Status::OK();
    if (k == plan.steps.size()) return emit(tuple);
    const TableStep& step = plan.steps[k];

    Status inner_status;
    auto consume = [&](const Row& row) -> bool {
      // Copy into slots.
      for (int c = 0; c < step.ncols; ++c) tuple[step.base + c] = row[c];
      // Filters.
      for (const BoundExprPtr& f : step.filters) {
        auto v = Eval(*f, tuple, ctx, nullptr);
        if (!v.ok()) {
          inner_status = v.status();
          return false;
        }
        if (!v->AsBool()) return true;  // skip row
      }
      Status st = do_step(k + 1);
      if (!st.ok()) {
        inner_status = st;
        return false;
      }
      return !*stop_flag;
    };

    switch (step.path) {
      case TableStep::Path::kPkPoint: {
        Row key;
        OLXP_RETURN_NOT_OK(
            EvalKey(step, step.schema->pk_columns(), tuple, ctx, &key));
        auto row = ctx->storage->GetByPk(step.table_id, key);
        if (!row.ok()) return row.status();
        if (row->has_value()) {
          consume(**row);
        }
        return inner_status;
      }
      case TableStep::Path::kPkPrefixRange: {
        Row prefix;
        OLXP_RETURN_NOT_OK(
            EvalKey(step, step.schema->pk_columns(), tuple, ctx, &prefix));
        Row lo = prefix, hi = prefix;
        int next_col = step.schema->pk_columns().size() > prefix.size()
                           ? step.schema->pk_columns()[prefix.size()]
                           : -1;
        if (step.range_lo && next_col >= 0) {
          auto v = Eval(*step.range_lo, tuple, ctx, nullptr);
          if (!v.ok()) return v.status();
          auto cast = v->CastTo(step.schema->columns()[next_col].type);
          if (!cast.ok()) return cast.status();
          lo.push_back(std::move(cast).value());
        }
        if (step.range_hi && next_col >= 0) {
          auto v = Eval(*step.range_hi, tuple, ctx, nullptr);
          if (!v.ok()) return v.status();
          auto cast = v->CastTo(step.schema->columns()[next_col].type);
          if (!cast.ok()) return cast.status();
          hi.push_back(std::move(cast).value());
        }
        if (lo.empty() && hi.empty()) {
          // Degenerate: treat as full scan.
          if (nested) {
            OLXP_RETURN_NOT_OK(ensure_full(k));
            for (const Row& row : *full_cache[k]) {
              if (!consume(row)) break;
            }
            return inner_status;
          }
          OLXP_RETURN_NOT_OK(ctx->storage->ScanTable(step.table_id, consume));
          return inner_status;
        }
        if (nested) {
          // Key depends on outer slots: collect under the latch, consume
          // (and recurse) after it drops.
          std::vector<Row> rows;
          OLXP_RETURN_NOT_OK(ctx->storage->ScanPkRange(
              step.table_id, lo, hi, [&](const Row& row) {
                rows.push_back(row);
                return true;
              }));
          for (const Row& row : rows) {
            if (!consume(row)) break;
          }
          return inner_status;
        }
        OLXP_RETURN_NOT_OK(
            ctx->storage->ScanPkRange(step.table_id, lo, hi, consume));
        return inner_status;
      }
      case TableStep::Path::kIndexPrefix: {
        const storage::IndexDef& def =
            step.schema->indexes()[step.index_id];
        std::vector<int> cols(def.column_idx.begin(),
                              def.column_idx.begin() + step.key_exprs.size());
        Row key;
        OLXP_RETURN_NOT_OK(EvalKey(step, cols, tuple, ctx, &key));
        std::vector<Row> rows;
        OLXP_RETURN_NOT_OK(ctx->storage->IndexLookup(step.table_id,
                                                     step.index_id, key,
                                                     &rows));
        for (const Row& row : rows) {
          if (!consume(row)) break;
        }
        return inner_status;
      }
      case TableStep::Path::kFull: {
        if (nested) {
          OLXP_RETURN_NOT_OK(ensure_full(k));
          for (const Row& row : *full_cache[k]) {
            if (!consume(row)) break;
          }
          return inner_status;
        }
        OLXP_RETURN_NOT_OK(ctx->storage->ScanTable(step.table_id, consume));
        return inner_status;
      }
    }
    return Status::Internal("bad access path");
  };

  return do_step(0);
}

StatusOr<ResultSet> ExecuteSelectPlan(const BoundSelect& plan,
                                      ExecContext* ctx,
                                      obs::QueryTrace* trace) {
  // Subqueries run first (RunJoin then finds them materialized), so a
  // trace lists them ahead of the operators that read them.
  OLXP_RETURN_NOT_OK(PrematerializePlanSubqueries(plan, ctx, trace));
  ResultSet rs;
  rs.column_names = plan.column_names;
  bool stop = false;
  // EXPLAIN ANALYZE capture (coarse: the interpreter fuses its stages, so
  // ops report the pipeline's phase boundaries, not inner-loop splits).
  const bool tracing = trace != nullptr;
  int64_t tuples = 0;  ///< joined tuples reaching projection/aggregation
  const int64_t t_start = tracing ? NowNanos() : 0;
  int64_t t_join_end = 0;

  struct PendingRow {
    Row out;
    Row order_keys;
  };
  std::vector<PendingRow> pending;
  std::unordered_set<Row, storage::KeyHash, storage::KeyEq> distinct_seen;

  const bool can_stop_early = !plan.aggregate_mode && plan.order_by.empty() &&
                              !plan.distinct && plan.limit >= 0;

  auto project_and_collect = [&](const Row& tuple,
                                 const std::vector<Value>* aggs) -> Status {
    PendingRow pr;
    pr.out.reserve(plan.projections.size());
    for (const BoundExprPtr& p : plan.projections) {
      auto v = Eval(*p, tuple, ctx, aggs);
      if (!v.ok()) return v.status();
      pr.out.push_back(std::move(v).value());
    }
    if (plan.distinct && !distinct_seen.insert(pr.out).second) {
      return Status::OK();
    }
    for (const BoundOrderItem& oi : plan.order_by) {
      if (oi.proj_index >= 0) {
        pr.order_keys.push_back(pr.out[oi.proj_index]);
      } else {
        auto v = Eval(*oi.expr, tuple, ctx, aggs);
        if (!v.ok()) return v.status();
        pr.order_keys.push_back(std::move(v).value());
      }
    }
    pending.push_back(std::move(pr));
    if (can_stop_early &&
        pending.size() >= static_cast<size_t>(plan.limit)) {
      stop = true;
    }
    return Status::OK();
  };

  if (!plan.aggregate_mode) {
    OLXP_RETURN_NOT_OK(RunJoin(
        plan, ctx,
        [&](const Row& tuple) {
          ++tuples;
          return project_and_collect(tuple, nullptr);
        },
        &stop));
    if (tracing) t_join_end = NowNanos();
  } else {
    // Hash aggregation. Groups keep first-seen order, the order the
    // replica emits them.
    std::vector<Group> groups;
    std::unordered_map<Row, size_t, storage::KeyHash, storage::KeyEq>
        group_index;
    OLXP_RETURN_NOT_OK(RunJoin(
        plan, ctx,
        [&](const Row& tuple) -> Status {
          ++tuples;
          Row key;
          key.reserve(plan.group_by.size());
          for (const BoundExprPtr& g : plan.group_by) {
            auto v = Eval(*g, tuple, ctx, nullptr);
            if (!v.ok()) return v.status();
            key.push_back(std::move(v).value());
          }
          auto [it, inserted] =
              group_index.try_emplace(std::move(key), groups.size());
          if (inserted) {
            Group& g = groups.emplace_back();
            g.repr = tuple;
            g.accums.resize(plan.aggs.size());
          }
          Group& grp = groups[it->second];
          grp.star_count++;
          for (size_t a = 0; a < plan.aggs.size(); ++a) {
            const AggSpec& spec = plan.aggs[a];
            if (spec.arg) {
              auto v = Eval(*spec.arg, tuple, ctx, nullptr);
              if (!v.ok()) return v.status();
              grp.accums[a].Add(*v);
            } else {
              grp.accums[a].Add(Value::Int(1));
            }
          }
          return Status::OK();
        },
        &stop));
    if (tracing) t_join_end = NowNanos();

    // Global aggregate over empty input still yields one row.
    if (groups.empty() && plan.group_by.empty()) {
      Group& g = groups.emplace_back();
      g.repr.assign(plan.total_slots, Value::Null());
      g.accums.resize(plan.aggs.size());
    }

    for (const Group& g : groups) {
      std::vector<Value> agg_values(plan.aggs.size());
      for (size_t a = 0; a < plan.aggs.size(); ++a) {
        agg_values[a] = g.accums[a].Result(plan.aggs[a].fn, g.star_count);
      }
      if (plan.having) {
        auto v = Eval(*plan.having, g.repr, ctx, &agg_values);
        if (!v.ok()) return v.status();
        if (!v->AsBool()) continue;
      }
      OLXP_RETURN_NOT_OK(project_and_collect(g.repr, &agg_values));
    }
  }

  if (tracing) {
    obs::TraceOp pipe;
    pipe.op = plan.steps.size() > 1 ? "join" : "scan";
    pipe.detail = "steps=" + std::to_string(plan.steps.size());
    pipe.rows_in = tuples;
    pipe.rows_out = tuples;
    pipe.wall_us = (t_join_end - t_start) / 1000;
    trace->ops.push_back(std::move(pipe));
    obs::TraceOp sinkop;
    sinkop.op = plan.aggregate_mode ? "aggregate" : "project";
    if (plan.distinct) sinkop.detail = "distinct";
    sinkop.rows_in = tuples;
    sinkop.rows_out = static_cast<int64_t>(pending.size());
    sinkop.wall_us = (NowNanos() - t_join_end) / 1000;
    trace->ops.push_back(std::move(sinkop));
  }

  // Sort / limit / emit.
  const int64_t t_sort = tracing ? NowNanos() : 0;
  if (!plan.order_by.empty()) {
    std::stable_sort(pending.begin(), pending.end(),
                     [&](const PendingRow& a, const PendingRow& b) {
                       for (size_t i = 0; i < plan.order_by.size(); ++i) {
                         int c = a.order_keys[i].Compare(b.order_keys[i]);
                         if (c != 0) {
                           return plan.order_by[i].desc ? c > 0 : c < 0;
                         }
                       }
                       return false;
                     });
    if (tracing) {
      obs::TraceOp order;
      order.op = "order";
      order.detail = std::to_string(plan.order_by.size()) + " keys";
      order.rows_in = static_cast<int64_t>(pending.size());
      order.rows_out = static_cast<int64_t>(pending.size());
      order.wall_us = (NowNanos() - t_sort) / 1000;
      trace->ops.push_back(std::move(order));
    }
  }
  size_t n = pending.size();
  if (plan.limit >= 0) n = std::min(n, static_cast<size_t>(plan.limit));
  rs.rows.reserve(n);
  for (size_t i = 0; i < n; ++i) rs.rows.push_back(std::move(pending[i].out));
  rs.affected_rows = 0;
  if (tracing) {
    obs::TraceOp emit;
    emit.op = "emit";
    if (plan.limit >= 0) emit.detail = "limit=" + std::to_string(plan.limit);
    emit.rows_in = static_cast<int64_t>(pending.size());
    emit.rows_out = static_cast<int64_t>(rs.rows.size());
    trace->ops.push_back(std::move(emit));
  }
  return rs;
}

StatusOr<ResultSet> ExecuteInsertPlan(const BoundInsert& plan,
                                      ExecContext* ctx) {
  ResultSet rs;
  Row empty_tuple;
  for (const auto& bound_row : plan.rows) {
    Row row(plan.schema->num_columns(), Value::Null());
    for (size_t i = 0; i < bound_row.size(); ++i) {
      auto v = Eval(*bound_row[i], empty_tuple, ctx, nullptr);
      if (!v.ok()) return v.status();
      int pos = plan.col_map.empty() ? static_cast<int>(i) : plan.col_map[i];
      row[pos] = std::move(v).value();
    }
    OLXP_RETURN_NOT_OK(ctx->storage->Insert(plan.table_id, std::move(row)));
    rs.affected_rows++;
  }
  return rs;
}

/// Materializes all rows matched by an UPDATE/DELETE's one-step scan before
/// mutating, so the scan never observes its own writes.
Status CollectMatches(const BoundSelect& scan, ExecContext* ctx,
                      std::vector<Row>* out) {
  bool stop = false;
  return RunJoin(scan, ctx,
                 [&](const Row& tuple) -> Status {
                   out->push_back(tuple);
                   return Status::OK();
                 },
                 &stop);
}

/// Re-checks the step's filters against the freshly locked row.
StatusOr<bool> StillMatches(const TableStep& step, const Row& row,
                            ExecContext* ctx) {
  for (const BoundExprPtr& f : step.filters) {
    auto v = Eval(*f, row, ctx, nullptr);
    if (!v.ok()) return v.status();
    if (!v->AsBool()) return false;
  }
  return true;
}

StatusOr<ResultSet> ExecuteUpdatePlan(const BoundUpdate& plan,
                                      ExecContext* ctx) {
  const TableStep& step = plan.step();
  std::vector<Row> matches;
  OLXP_RETURN_NOT_OK(CollectMatches(plan.scan, ctx, &matches));
  ResultSet rs;
  for (const Row& matched : matches) {
    Row pk = step.schema->ExtractPrimaryKey(matched);
    // Atomic read-modify-write: lock the row, re-read its CURRENT value,
    // re-check the predicate and evaluate assignments against it. Without
    // the relock, read-committed engines lose concurrent updates (e.g.
    // TPC-C's d_next_o_id counter handing out duplicate order ids).
    auto current = ctx->storage->LockAndGet(step.table_id, pk);
    if (!current.ok()) return current.status();
    if (!current->has_value()) continue;  // deleted concurrently
    auto matches_now = StillMatches(step, **current, ctx);
    if (!matches_now.ok()) return matches_now.status();
    if (!*matches_now) continue;
    Row new_row = **current;
    for (const auto& [pos, expr] : plan.assignments) {
      auto v = Eval(*expr, **current, ctx, nullptr);
      if (!v.ok()) return v.status();
      new_row[pos] = std::move(v).value();
    }
    OLXP_RETURN_NOT_OK(ctx->storage->Update(step.table_id, std::move(new_row)));
    rs.affected_rows++;
  }
  return rs;
}

StatusOr<ResultSet> ExecuteDeletePlan(const BoundDelete& plan,
                                      ExecContext* ctx) {
  const TableStep& step = plan.step();
  std::vector<Row> matches;
  OLXP_RETURN_NOT_OK(CollectMatches(plan.scan, ctx, &matches));
  ResultSet rs;
  for (const Row& row : matches) {
    Row pk = step.schema->ExtractPrimaryKey(row);
    auto current = ctx->storage->LockAndGet(step.table_id, pk);
    if (!current.ok()) return current.status();
    if (!current->has_value()) continue;  // already gone
    auto matches_now = StillMatches(step, **current, ctx);
    if (!matches_now.ok()) return matches_now.status();
    if (!*matches_now) continue;
    OLXP_RETURN_NOT_OK(ctx->storage->Delete(step.table_id, pk));
    rs.affected_rows++;
  }
  return rs;
}

}  // namespace

StatusOr<Value> EvalBound(const BoundExpr& e, const Row& tuple,
                          std::span<const Value> params,
                          const std::vector<Value>* agg_values,
                          SubqueryRows* subqueries) {
  ExecContext ctx;
  ctx.params = params;
  ctx.subqueries = subqueries;
  return Eval(e, tuple, &ctx, agg_values);
}

// ============================ public interface =============================

CompiledStatement::CompiledStatement(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
CompiledStatement::~CompiledStatement() = default;
CompiledStatement::CompiledStatement(CompiledStatement&&) noexcept = default;
CompiledStatement& CompiledStatement::operator=(CompiledStatement&&) noexcept =
    default;

bool CompiledStatement::IsSelect() const {
  return impl_->kind == StmtKind::kSelect;
}

bool CompiledStatement::IsAnalyticalShape() const {
  if (impl_->kind != StmtKind::kSelect) return false;
  return impl_->select->aggregate_mode || impl_->select->steps.size() > 1;
}

bool CompiledStatement::IsPointRead() const {
  return impl_->kind == StmtKind::kSelect && impl_->select->steps.size() == 1 &&
         impl_->select->steps[0].path == TableStep::Path::kPkPoint;
}

StatusOr<std::unique_ptr<CompiledStatement>> Compile(const Statement& stmt,
                                                     const Catalog& catalog) {
  Compiler compiler(catalog);
  auto impl = compiler.CompileStatement(stmt);
  if (!impl.ok()) return impl.status();
  return std::unique_ptr<CompiledStatement>(
      new CompiledStatement(std::move(impl).value()));
}

namespace {

/// DML trace: one "write" op plus the closing "emit" (DML result sets carry
/// no rows, so emit's rows_out is 0 — the statement's result cardinality).
StatusOr<ResultSet> TraceWrite(StatusOr<ResultSet> rs, obs::QueryTrace* trace,
                               const char* kind, int64_t t_start) {
  if (trace == nullptr || !rs.ok()) return rs;
  obs::TraceOp write;
  write.op = "write";
  write.detail = kind;
  write.rows_in = rs->affected_rows;
  write.rows_out = rs->affected_rows;
  write.wall_us = (NowNanos() - t_start) / 1000;
  trace->ops.push_back(std::move(write));
  obs::TraceOp emit;
  emit.op = "emit";
  emit.rows_in = static_cast<int64_t>(rs->rows.size());
  emit.rows_out = static_cast<int64_t>(rs->rows.size());
  trace->ops.push_back(std::move(emit));
  return rs;
}

}  // namespace

StatusOr<ResultSet> Execute(const CompiledStatement& stmt,
                            std::span<const Value> params,
                            StorageIface* storage, obs::QueryTrace* trace) {
  SubqueryRows subqueries(stmt.impl().num_subqueries);
  ExecContext ctx;
  ctx.params = params;
  ctx.storage = storage;
  ctx.subqueries = &subqueries;
  const int64_t t_start = trace != nullptr ? NowNanos() : 0;
  switch (stmt.impl().kind) {
    case StmtKind::kSelect:
      return ExecuteSelectPlan(*stmt.impl().select, &ctx, trace);
    case StmtKind::kInsert:
      return TraceWrite(ExecuteInsertPlan(*stmt.impl().insert, &ctx), trace,
                        "insert", t_start);
    case StmtKind::kUpdate:
      return TraceWrite(ExecuteUpdatePlan(*stmt.impl().update, &ctx), trace,
                        "update", t_start);
    case StmtKind::kDelete:
      return TraceWrite(ExecuteDeletePlan(*stmt.impl().del, &ctx), trace,
                        "delete", t_start);
    case StmtKind::kCreateTable: {
      OLXP_RETURN_NOT_OK(
          storage->CreateTable(stmt.impl().create_table->schema));
      return ResultSet{};
    }
    case StmtKind::kCreateIndex: {
      OLXP_RETURN_NOT_OK(
          storage->CreateIndex(stmt.impl().create_index->table_name,
                               stmt.impl().create_index->def));
      return ResultSet{};
    }
  }
  return Status::Internal("bad statement kind");
}

}  // namespace olxp::sql
