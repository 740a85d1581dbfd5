#ifndef DIABLO_TESTS_ENGINE_ORACLE_H_
#define DIABLO_TESTS_ENGINE_ORACLE_H_

// A small sequential model of the engine's partitioned semantics, used
// as the oracle of the engine property suites (fusion_test,
// hashagg_test). It shares no code with src/runtime/engine.cc:
//  - narrow operators run eagerly, one whole partition per operator;
//  - wide operators route every row to Value::Hash(key) % partitions,
//    scanning source partitions in order (the arrival order the engine
//    guarantees), and aggregate each destination through an ordered
//    std::map — so output rows come out sorted by key per partition, as
//    the engine promises;
//  - folds (reduceByKey, reduce) run sequentially in arrival order.
// Everything except a floating-point fold must therefore match the
// engine exactly. The engine folds doubles through a map-side combine
// and per-partition partials, which re-associates the sums, so
// MatchesOracle compares results that fold doubles with
// runtime::BagAlmostEquals and their row keys, in order, exactly.

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "runtime/operators.h"
#include "runtime/value.h"

namespace diablo::runtime::oracle {

using Parts = std::vector<ValueVec>;
using MapFn = std::function<StatusOr<Value>(const Value&)>;
using PredFn = std::function<StatusOr<bool>(const Value&)>;
using FlatMapFn = std::function<StatusOr<ValueVec>(const Value&)>;
using ReduceFn = std::function<StatusOr<Value>(const Value&, const Value&)>;

/// Contiguous chunks, chunk p = rows [n*p/parts, n*(p+1)/parts).
inline Parts Parallelize(const ValueVec& rows, int parts) {
  Parts out(parts);
  const size_t n = rows.size();
  for (int p = 0; p < parts; ++p) {
    for (size_t i = n * p / parts; i < n * (p + 1) / parts; ++i) {
      out[p].push_back(rows[i]);
    }
  }
  return out;
}

inline ValueVec Collect(const Parts& in) {
  ValueVec out;
  for (const ValueVec& part : in) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

inline StatusOr<Parts> Map(const Parts& in, const MapFn& fn) {
  Parts out(in.size());
  for (size_t p = 0; p < in.size(); ++p) {
    for (const Value& row : in[p]) {
      DIABLO_ASSIGN_OR_RETURN(Value v, fn(row));
      out[p].push_back(std::move(v));
    }
  }
  return out;
}

inline StatusOr<Parts> MapValues(const Parts& in, const MapFn& fn) {
  return Map(in, [&fn](const Value& row) -> StatusOr<Value> {
    DIABLO_ASSIGN_OR_RETURN(Value v, fn(row.tuple()[1]));
    return Value::MakePair(row.tuple()[0], std::move(v));
  });
}

inline StatusOr<Parts> Filter(const Parts& in, const PredFn& pred) {
  Parts out(in.size());
  for (size_t p = 0; p < in.size(); ++p) {
    for (const Value& row : in[p]) {
      DIABLO_ASSIGN_OR_RETURN(bool keep, pred(row));
      if (keep) out[p].push_back(row);
    }
  }
  return out;
}

inline StatusOr<Parts> FlatMap(const Parts& in, const FlatMapFn& fn) {
  Parts out(in.size());
  for (size_t p = 0; p < in.size(); ++p) {
    for (const Value& row : in[p]) {
      DIABLO_ASSIGN_OR_RETURN(ValueVec vs, fn(row));
      out[p].insert(out[p].end(), vs.begin(), vs.end());
    }
  }
  return out;
}

/// The destination partition of a keyed row.
inline size_t Destination(const Value& key, int parts) {
  return key.Hash() % static_cast<size_t>(parts);
}

/// Per-destination ordered maps filled in arrival order; `add(map, row)`
/// folds one keyed row into its destination's map.
template <typename Payload, typename Add>
std::vector<std::map<Value, Payload>> Route(const Parts& in, int parts,
                                            Add&& add) {
  std::vector<std::map<Value, Payload>> dest(parts);
  for (const ValueVec& part : in) {
    for (const Value& row : part) {
      add(dest[Destination(row.tuple()[0], parts)], row);
    }
  }
  return dest;
}

inline Parts GroupByKey(const Parts& in, int parts) {
  auto dest = Route<ValueVec>(in, parts, [](auto& m, const Value& row) {
    m[row.tuple()[0]].push_back(row.tuple()[1]);
  });
  Parts out(parts);
  for (int d = 0; d < parts; ++d) {
    for (auto& [key, bag] : dest[d]) {
      out[d].push_back(Value::MakePair(key, Value::MakeBag(std::move(bag))));
    }
  }
  return out;
}

inline StatusOr<Parts> ReduceByKey(const Parts& in, const ReduceFn& fn,
                                   int parts) {
  Status status;
  auto dest = Route<Value>(in, parts, [&](auto& m, const Value& row) {
    auto [it, fresh] = m.try_emplace(row.tuple()[0], row.tuple()[1]);
    if (fresh || !status.ok()) return;
    StatusOr<Value> folded = fn(it->second, row.tuple()[1]);
    if (!folded.ok()) {
      status = folded.status();
      return;
    }
    it->second = std::move(*folded);
  });
  if (!status.ok()) return status;
  Parts out(parts);
  for (int d = 0; d < parts; ++d) {
    for (auto& [key, v] : dest[d]) out[d].push_back(Value::MakePair(key, v));
  }
  return out;
}

inline StatusOr<Parts> ReduceByKey(const Parts& in, BinOp op, int parts) {
  return ReduceByKey(
      in, [op](const Value& a, const Value& b) { return EvalBinOp(op, a, b); },
      parts);
}

/// Inner join: per destination, left rows build in arrival order and
/// right rows probe in arrival order; output follows the probe order.
inline Parts Join(const Parts& left, const Parts& right, int parts) {
  auto build = Route<ValueVec>(left, parts, [](auto& m, const Value& row) {
    m[row.tuple()[0]].push_back(row.tuple()[1]);
  });
  Parts out(parts);
  for (const ValueVec& part : right) {
    for (const Value& row : part) {
      const Value& key = row.tuple()[0];
      const size_t d = Destination(key, parts);
      auto it = build[d].find(key);
      if (it == build[d].end()) continue;
      for (const Value& lv : it->second) {
        out[d].push_back(
            Value::MakePair(key, Value::MakePair(lv, row.tuple()[1])));
      }
    }
  }
  return out;
}

inline Parts CoGroup(const Parts& left, const Parts& right, int parts) {
  std::vector<std::map<Value, std::pair<ValueVec, ValueVec>>> dest(parts);
  for (const ValueVec& part : left) {
    for (const Value& row : part) {
      dest[Destination(row.tuple()[0], parts)][row.tuple()[0]]
          .first.push_back(row.tuple()[1]);
    }
  }
  for (const ValueVec& part : right) {
    for (const Value& row : part) {
      dest[Destination(row.tuple()[0], parts)][row.tuple()[0]]
          .second.push_back(row.tuple()[1]);
    }
  }
  Parts out(parts);
  for (int d = 0; d < parts; ++d) {
    for (auto& [key, sides] : dest[d]) {
      out[d].push_back(Value::MakePair(
          key, Value::MakePair(Value::MakeBag(std::move(sides.first)),
                               Value::MakeBag(std::move(sides.second)))));
    }
  }
  return out;
}

inline Parts Distinct(const Parts& in, int parts) {
  std::vector<std::set<Value>> dest(parts);
  for (const ValueVec& part : in) {
    for (const Value& row : part) dest[Destination(row, parts)].insert(row);
  }
  Parts out(parts);
  for (int d = 0; d < parts; ++d) out[d].assign(dest[d].begin(), dest[d].end());
  return out;
}

/// Sequential fold of every row in partition order; nullopt when empty.
inline StatusOr<std::optional<Value>> Reduce(const Parts& in,
                                             const ReduceFn& fn) {
  std::optional<Value> acc;
  for (const ValueVec& part : in) {
    for (const Value& row : part) {
      if (!acc.has_value()) {
        acc = row;
      } else {
        DIABLO_ASSIGN_OR_RETURN(*acc, fn(*acc, row));
      }
    }
  }
  return acc;
}

/// The key of a (key, value) row; any other row is its own key.
inline const Value& RowKey(const Value& row) {
  return row.is_tuple() && row.tuple().size() == 2 ? row.tuple()[0] : row;
}

/// Engine result vs oracle result: exact equality, or — for results
/// that fold doubles — the same row keys in the same order and
/// BagAlmostEquals within 1e-9.
inline ::testing::AssertionResult MatchesOracle(const ValueVec& got,
                                                const ValueVec& want,
                                                bool folds_doubles) {
  bool match = got == want;
  if (folds_doubles && got.size() == want.size()) {
    match = BagAlmostEquals(Value::MakeBag(got), Value::MakeBag(want), 1e-9);
    for (size_t i = 0; match && i < got.size(); ++i) {
      match = RowKey(got[i]) == RowKey(want[i]);
    }
  }
  if (match) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "engine " << Value::MakeBag(got).ToString() << "\n  oracle "
         << Value::MakeBag(want).ToString();
}

}  // namespace diablo::runtime::oracle

#endif  // DIABLO_TESTS_ENGINE_ORACLE_H_
