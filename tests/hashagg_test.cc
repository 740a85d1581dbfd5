// Hash-aggregation and worker-pool property tests.
//
// The engine's wide operators aggregate through the open-addressing
// KeyedAccumulator. The contract: hash-table iteration order is never
// observable. Each workload's result must equal the ordered-map oracle
// of engine_oracle.h (within 1e-9 where doubles are folded, since the
// engine's map-side combine re-associates the sums), and engine runs
// must be byte-identical for every partition count, host thread count
// and fault schedule. The persistent work-stealing pool carries a
// matching contract: every index runs exactly once and a failing wave
// reports the error of the lowest-indexed failing task no matter how
// many threads raced.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "runtime/engine.h"
#include "runtime/fault.h"
#include "runtime/keyed_accumulator.h"
#include "runtime/worker_pool.h"
#include "tests/engine_oracle.h"

namespace diablo::runtime {
namespace {

Value I(int64_t v) { return Value::MakeInt(v); }
Value D(double v) { return Value::MakeDouble(v); }
Value S(const std::string& v) { return Value::MakeString(v); }

// ---------------------------------------------------------------------
// KeyedAccumulator unit tests.

TEST(KeyedAccumulator, FindOrCreateGroupsAndGrows) {
  // Start far below the final key count so Grow() runs several times;
  // growth must keep every cached-hash bucket reachable.
  KeyedAccumulator<int64_t> acc(/*expected_keys=*/0);
  for (int64_t i = 0; i < 500; ++i) {
    const Value key = I(i % 101);
    auto ref = acc.FindOrCreate(key.Hash(), key);
    if (ref.inserted) ref.payload = 0;
    ref.payload += 1;
  }
  EXPECT_EQ(acc.size(), 101u);
  for (int64_t k = 0; k < 101; ++k) {
    const Value key = I(k);
    int64_t* count = acc.Find(key.Hash(), key);
    ASSERT_NE(count, nullptr) << "key " << k;
    // 500 draws over 101 keys: keys 0..95 appear 5 times, the rest 4.
    EXPECT_EQ(*count, k < 96 ? 5 : 4) << "key " << k;
  }
  const Value absent = I(101);
  EXPECT_EQ(acc.Find(absent.Hash(), absent), nullptr);
}

TEST(KeyedAccumulator, SortByKeyCanonicalizesAndStaysUsable) {
  KeyedAccumulator<int64_t> acc;
  std::mt19937_64 rng(7);
  std::vector<int64_t> keys{9, 3, 14, 0, 7, 11, 2};
  std::shuffle(keys.begin(), keys.end(), rng);
  for (int64_t k : keys) {
    const Value key = I(k);
    acc.FindOrCreate(key.Hash(), key).payload = k * 10;
  }
  acc.SortByKey();
  std::sort(keys.begin(), keys.end());
  ASSERT_EQ(acc.entries().size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(acc.entries()[i].key, I(keys[i]));
  }
  // The probe table is rebuilt after the sort: lookups still hit.
  for (int64_t k : keys) {
    const Value key = I(k);
    int64_t* payload = acc.Find(key.Hash(), key);
    ASSERT_NE(payload, nullptr);
    EXPECT_EQ(*payload, k * 10);
  }
}

TEST(KeyedAccumulator, StructuralKeysCompareByValueNotHash) {
  // Tuple keys exercise the equality fallback behind the hash compare.
  KeyedAccumulator<ValueVec> acc;
  for (int round = 0; round < 3; ++round) {
    for (int64_t a = 0; a < 8; ++a) {
      const Value key = Value::MakePair(I(a), S("k" + std::to_string(a % 3)));
      acc.FindOrCreate(key.Hash(), key).payload.push_back(I(round));
    }
  }
  EXPECT_EQ(acc.size(), 8u);
  for (auto& e : acc.entries()) EXPECT_EQ(e.payload.size(), 3u);
}

// ---------------------------------------------------------------------
// WorkerPool unit tests.

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  for (int wave = 0; wave < 20; ++wave) {
    const int n = 1 + wave * 37;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    Status st = pool.Run(n, [&](int i) -> Status {
      hits[i].fetch_add(1);
      return Status::OK();
    });
    ASSERT_TRUE(st.ok()) << st.ToString();
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "wave " << wave << " index " << i;
    }
  }
}

TEST(WorkerPool, ReportsLowestIndexedError) {
  // Two failing indices; the higher one sits in the range a different
  // worker owns, so with naive first-error reporting the winner would
  // depend on thread timing. The pool must always report index 3.
  for (int threads : {1, 2, 4, 8}) {
    WorkerPool pool(threads);
    for (int rep = 0; rep < 25; ++rep) {
      Status st = pool.Run(64, [&](int i) -> Status {
        if (i == 3 || i == 60) {
          return Status::RuntimeError("task " + std::to_string(i));
        }
        return Status::OK();
      });
      ASSERT_FALSE(st.ok());
      EXPECT_EQ(st.message(), "task 3") << "threads " << threads;
    }
  }
}

TEST(WorkerPool, EmptyAndUndersizedWaves) {
  WorkerPool pool(8);
  EXPECT_TRUE(pool.Run(0, [](int) { return Status::OK(); }).ok());
  // Fewer indices than workers: most ranges start empty and workers can
  // only find work by stealing.
  std::vector<std::atomic<int>> hits(3);
  for (auto& h : hits) h.store(0);
  Status st = pool.Run(3, [&](int i) -> Status {
    hits[i].fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(hits[i].load(), 1);
}

// ---------------------------------------------------------------------
// Engine-level property: hash aggregation matches the ordered-map oracle
// across workloads and engine configurations.

// Word count: (word, 1) pairs reduced by key. String keys stress
// hashing/compare asymmetry.
StatusOr<ValueVec> WordCount(Engine& engine, const ValueVec& words) {
  Dataset ds = engine.Parallelize(words);
  DIABLO_ASSIGN_OR_RETURN(
      Dataset pairs, engine.Map(ds, [](const Value& v) -> StatusOr<Value> {
        return Value::MakePair(v, I(1));
      }));
  DIABLO_ASSIGN_OR_RETURN(Dataset counts,
                          engine.ReduceByKey(pairs, BinOp::kAdd));
  return engine.Collect(counts);
}

// PageRank-flavoured: two iterations of join(ranks, links) →
// contributions → reduceByKey over doubles. Float folds make any
// arrival-order divergence between engine runs visible bit-for-bit.
StatusOr<ValueVec> PageRankIters(Engine& engine, const ValueVec& edges) {
  Dataset links = engine.Parallelize(edges);
  DIABLO_ASSIGN_OR_RETURN(Dataset grouped, engine.GroupByKey(links));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset ranks,
      engine.MapValues(grouped,
                       [](const Value&) -> StatusOr<Value> { return D(1.0); }));
  for (int iter = 0; iter < 2; ++iter) {
    DIABLO_ASSIGN_OR_RETURN(Dataset joined, engine.Join(grouped, ranks));
    DIABLO_ASSIGN_OR_RETURN(
        Dataset contribs,
        engine.FlatMap(joined, [](const Value& v) -> StatusOr<ValueVec> {
          const ValueVec& outs = v.tuple()[1].tuple()[0].bag();
          const double rank = v.tuple()[1].tuple()[1].AsDouble();
          ValueVec out;
          out.reserve(outs.size());
          for (const Value& dst : outs) {
            out.push_back(Value::MakePair(
                dst, D(rank / static_cast<double>(outs.size()))));
          }
          return out;
        }));
    DIABLO_ASSIGN_OR_RETURN(Dataset summed,
                            engine.ReduceByKey(contribs, BinOp::kAdd));
    DIABLO_ASSIGN_OR_RETURN(
        ranks, engine.MapValues(summed, [](const Value& v) -> StatusOr<Value> {
          return D(0.15 + 0.85 * v.AsDouble());
        }));
  }
  return engine.Collect(ranks);
}

// Join + coGroup + distinct over the same keyed rows, concatenated.
StatusOr<ValueVec> RelationalMix(Engine& engine, const ValueVec& rows) {
  Dataset ds = engine.Parallelize(rows);
  DIABLO_ASSIGN_OR_RETURN(Dataset sums, engine.ReduceByKey(ds, BinOp::kAdd));
  DIABLO_ASSIGN_OR_RETURN(Dataset joined, engine.Join(ds, sums));
  DIABLO_ASSIGN_OR_RETURN(ValueVec out, engine.Collect(joined));
  DIABLO_ASSIGN_OR_RETURN(Dataset cg, engine.CoGroup(ds, sums));
  DIABLO_ASSIGN_OR_RETURN(ValueVec cg_rows, engine.Collect(cg));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset keys, engine.Map(ds, [](const Value& v) -> StatusOr<Value> {
        return v.tuple()[0];
      }));
  DIABLO_ASSIGN_OR_RETURN(Dataset uniq, engine.Distinct(keys));
  DIABLO_ASSIGN_OR_RETURN(ValueVec uniq_rows, engine.Collect(uniq));
  out.insert(out.end(), cg_rows.begin(), cg_rows.end());
  out.insert(out.end(), uniq_rows.begin(), uniq_rows.end());
  return out;
}

// The three workloads on the sequential oracle over `parts` partitions.
StatusOr<ValueVec> WordCountOracle(const ValueVec& words, int parts) {
  DIABLO_ASSIGN_OR_RETURN(
      oracle::Parts pairs,
      oracle::Map(oracle::Parallelize(words, parts),
                  [](const Value& v) -> StatusOr<Value> {
                    return Value::MakePair(v, I(1));
                  }));
  DIABLO_ASSIGN_OR_RETURN(oracle::Parts counts,
                          oracle::ReduceByKey(pairs, BinOp::kAdd, parts));
  return oracle::Collect(counts);
}

StatusOr<ValueVec> PageRankItersOracle(const ValueVec& edges, int parts) {
  const oracle::Parts grouped =
      oracle::GroupByKey(oracle::Parallelize(edges, parts), parts);
  DIABLO_ASSIGN_OR_RETURN(
      oracle::Parts ranks,
      oracle::MapValues(grouped, [](const Value&) -> StatusOr<Value> {
        return D(1.0);
      }));
  for (int iter = 0; iter < 2; ++iter) {
    DIABLO_ASSIGN_OR_RETURN(
        oracle::Parts contribs,
        oracle::FlatMap(
            oracle::Join(grouped, ranks, parts),
            [](const Value& v) -> StatusOr<ValueVec> {
              const ValueVec& outs = v.tuple()[1].tuple()[0].bag();
              const double rank = v.tuple()[1].tuple()[1].AsDouble();
              ValueVec out;
              for (const Value& dst : outs) {
                out.push_back(Value::MakePair(
                    dst, D(rank / static_cast<double>(outs.size()))));
              }
              return out;
            }));
    DIABLO_ASSIGN_OR_RETURN(oracle::Parts summed,
                            oracle::ReduceByKey(contribs, BinOp::kAdd, parts));
    DIABLO_ASSIGN_OR_RETURN(
        ranks, oracle::MapValues(summed, [](const Value& v) -> StatusOr<Value> {
          return D(0.15 + 0.85 * v.AsDouble());
        }));
  }
  return oracle::Collect(ranks);
}

StatusOr<ValueVec> RelationalMixOracle(const ValueVec& rows, int parts) {
  const oracle::Parts ds = oracle::Parallelize(rows, parts);
  DIABLO_ASSIGN_OR_RETURN(oracle::Parts sums,
                          oracle::ReduceByKey(ds, BinOp::kAdd, parts));
  ValueVec out = oracle::Collect(oracle::Join(ds, sums, parts));
  const ValueVec cg_rows = oracle::Collect(oracle::CoGroup(ds, sums, parts));
  DIABLO_ASSIGN_OR_RETURN(
      oracle::Parts keys,
      oracle::Map(ds, [](const Value& v) -> StatusOr<Value> {
        return v.tuple()[0];
      }));
  const ValueVec uniq_rows = oracle::Collect(oracle::Distinct(keys, parts));
  out.insert(out.end(), cg_rows.begin(), cg_rows.end());
  out.insert(out.end(), uniq_rows.begin(), uniq_rows.end());
  return out;
}

StatusOr<ValueVec> RunWorkload(Engine& engine, int which,
                               const ValueVec& rows) {
  switch (which) {
    case 0:
      return WordCount(engine, rows);
    case 1:
      return PageRankIters(engine, rows);
    default:
      return RelationalMix(engine, rows);
  }
}

/// Word count folds ints; the PageRank and relational workloads fold
/// doubles.
bool FoldsDoubles(int which) { return which != 0; }

StatusOr<ValueVec> RunOracle(int which, const ValueVec& rows, int parts) {
  switch (which) {
    case 0:
      return WordCountOracle(rows, parts);
    case 1:
      return PageRankItersOracle(rows, parts);
    default:
      return RelationalMixOracle(rows, parts);
  }
}

ValueVec WorkloadInput(int which, std::mt19937_64& rng) {
  ValueVec rows;
  if (which == 0) {
    const int n = 200 + static_cast<int>(rng() % 300);
    for (int i = 0; i < n; ++i) {
      rows.push_back(S("word" + std::to_string(rng() % 37)));
    }
  } else if (which == 1) {
    const int nodes = 20 + static_cast<int>(rng() % 20);
    const int edges = 150 + static_cast<int>(rng() % 150);
    for (int i = 0; i < edges; ++i) {
      rows.push_back(Value::MakePair(I(static_cast<int64_t>(rng() % nodes)),
                                     I(static_cast<int64_t>(rng() % nodes))));
    }
  } else {
    const int n = 150 + static_cast<int>(rng() % 250);
    for (int i = 0; i < n; ++i) {
      rows.push_back(Value::MakePair(
          I(static_cast<int64_t>(rng() % 23)),
          D(static_cast<double>(rng() % 1000) / 7.0 - 50.0)));
    }
  }
  return rows;
}

TEST(HashAggProperty, HashMatchesOrderedByteForByte) {
  for (int which = 0; which < 3; ++which) {
    for (uint64_t seed = 0; seed < 6; ++seed) {
      std::mt19937_64 rng(seed * 6151 + which + 1);
      ValueVec rows = WorkloadInput(which, rng);
      const int parts = 1 + static_cast<int>(rng() % 12);
      auto want = RunOracle(which, rows, parts);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ValueVec serial_out;
      for (int host_threads : {1, 4}) {
        EngineConfig config;
        config.num_partitions = parts;
        config.host_threads = host_threads;
        Engine engine(config);
        auto got = RunWorkload(engine, which, rows);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_TRUE(oracle::MatchesOracle(*got, *want, FoldsDoubles(which)))
            << "workload " << which << " seed " << seed << " threads "
            << host_threads;
        if (host_threads == 1) {
          serial_out = *got;
        } else {
          EXPECT_EQ(*got, serial_out)
              << "workload " << which << " seed " << seed;
        }
      }
    }
  }
}

TEST(HashAggProperty, HashUnderFaultsMatchesOrderedFaultFree) {
  // Fault schedules key off (stage id, partition, attempt, row index) —
  // coordinates the aggregation does not change — so a faulty run must
  // reproduce the fault-free run byte for byte, and the fault-free run
  // must match the oracle.
  for (int which = 0; which < 3; ++which) {
    for (uint64_t seed = 0; seed < 4; ++seed) {
      std::mt19937_64 rng(seed * 2741 + which + 11);
      ValueVec rows = WorkloadInput(which, rng);

      EngineConfig clean_config;
      Engine clean(clean_config);
      auto expected = RunWorkload(clean, which, rows);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      auto want = RunOracle(which, rows, clean_config.num_partitions);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      EXPECT_TRUE(oracle::MatchesOracle(*expected, *want, FoldsDoubles(which)))
          << "workload " << which << " seed " << seed;

      EngineConfig faulty_config;
      faulty_config.host_threads = 4;
      faulty_config.faults.seed = seed + 17;
      faulty_config.faults.task_failure_rate = 0.08;
      faulty_config.faults.corrupt_shuffle_rate = 0.01;
      faulty_config.faults.max_task_attempts = 12;
      faulty_config.serialize_shuffles = true;
      Engine faulty(faulty_config);
      auto got = RunWorkload(faulty, which, rows);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, *expected) << "workload " << which << " seed " << seed;
    }
  }
}

TEST(HashAggProperty, LostPartitionRecoveryUsesAccumulatorReplay) {
  // Deterministic lost-partition directives drive the recompute_many
  // closures (the accumulator-based replay paths) for every wide
  // operator in the mix; the rebuilt partitions must be byte-identical.
  std::mt19937_64 rng(4242);
  ValueVec rows = WorkloadInput(/*which=*/2, rng);
  EngineConfig clean_config;
  Engine clean(clean_config);
  auto expected = RunWorkload(clean, 2, rows);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  int64_t fired = 0;
  for (int stage = 0; stage < 8; ++stage) {
    EngineConfig config;
    config.faults.lose_partitions.push_back({stage, 2, 0});
    Engine engine(config);
    auto got = RunWorkload(engine, 2, rows);
    ASSERT_TRUE(got.ok()) << "stage " << stage << ": "
                          << got.status().ToString();
    EXPECT_EQ(*got, *expected) << "stage " << stage;
    fired += engine.metrics().total_recomputed_partitions();
  }
  // Not every stage id consumes a shuffle input, but several must have
  // replayed a lost partition through the accumulator-based closures.
  EXPECT_GE(fired, 3);
}

TEST(HashAggProperty, EveryWideOperatorReplaysLostPartitions) {
  // Each wide operator's output feeds a checkpoint; losing partitions of
  // that input (and of every other stage input) rebuilds them through
  // the operator's recompute_many replay — the restricted scatter plus
  // the reduce body the forward tasks ran, over a pending fused chain.
  // The rebuilt partitions must be byte-identical.
  std::mt19937_64 rng(4242);
  const ValueVec rows = WorkloadInput(/*which=*/2, rng);
  using WideOp = std::function<StatusOr<Dataset>(Engine&, const Dataset&)>;
  const std::vector<std::pair<std::string, WideOp>> ops = {
      {"groupByKey",
       [](Engine& e, const Dataset& ds) { return e.GroupByKey(ds); }},
      {"reduceByKey",
       [](Engine& e, const Dataset& ds) {
         return e.ReduceByKey(ds, BinOp::kAdd);
       }},
      {"join",
       [](Engine& e, const Dataset& ds) -> StatusOr<Dataset> {
         DIABLO_ASSIGN_OR_RETURN(Dataset sums, e.ReduceByKey(ds, BinOp::kAdd));
         return e.Join(ds, sums);
       }},
      {"coGroup",
       [](Engine& e, const Dataset& ds) -> StatusOr<Dataset> {
         DIABLO_ASSIGN_OR_RETURN(Dataset sums, e.ReduceByKey(ds, BinOp::kAdd));
         return e.CoGroup(ds, sums);
       }},
      {"distinct",
       [](Engine& e, const Dataset& ds) { return e.Distinct(ds); }},
  };
  for (const auto& [name, op] : ops) {
    auto run = [&](const EngineConfig& config) -> StatusOr<ValueVec> {
      Engine engine(config);
      DIABLO_ASSIGN_OR_RETURN(
          Dataset scaled,
          engine.MapValues(engine.Parallelize(rows), BinOp::kMul, D(2.0)));
      DIABLO_ASSIGN_OR_RETURN(Dataset wide, op(engine, scaled));
      DIABLO_ASSIGN_OR_RETURN(Dataset durable, engine.Checkpoint(wide));
      DIABLO_ASSIGN_OR_RETURN(ValueVec out, engine.Collect(durable));
      if (config.faults.enabled() &&
          engine.metrics().total_recomputed_partitions() == 0) {
        return Status::RuntimeError("no partition was lost");
      }
      return out;
    };
    auto expected = run(EngineConfig{});
    ASSERT_TRUE(expected.ok()) << name << ": " << expected.status().ToString();
    EngineConfig lossy;
    for (int stage = 0; stage < 16; ++stage) {
      for (int input = 0; input < 2; ++input) {
        lossy.faults.lose_partitions.push_back({stage, 1, input});
        lossy.faults.lose_partitions.push_back({stage, 6, input});
      }
    }
    auto got = run(lossy);
    ASSERT_TRUE(got.ok()) << name << ": " << got.status().ToString();
    EXPECT_EQ(*got, *expected) << name;
  }
}

TEST(HashAggProperty, DistinctRecoveryUnderFaults) {
  // Distinct's dedup and its lost-partition replay both run on the
  // accumulator now; randomized faults plus a directed partition loss
  // must reproduce the clean answer.
  ValueVec rows;
  std::mt19937_64 rng(91);
  for (int i = 0; i < 400; ++i) {
    rows.push_back(Value::MakePair(I(static_cast<int64_t>(rng() % 29)),
                                   S("v" + std::to_string(rng() % 5))));
  }
  auto run = [&](EngineConfig config) {
    Engine engine(config);
    Dataset ds = engine.Parallelize(rows);
    auto uniq = engine.Distinct(ds);
    EXPECT_TRUE(uniq.ok()) << uniq.status().ToString();
    auto out = engine.Collect(*uniq);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? *out : ValueVec{};
  };
  const ValueVec expected = run(EngineConfig{});
  ASSERT_FALSE(expected.empty());
  const int parts = EngineConfig{}.num_partitions;
  EXPECT_EQ(expected, oracle::Collect(oracle::Distinct(
                          oracle::Parallelize(rows, parts), parts)));

  EngineConfig faulty;
  faulty.faults.seed = 5;
  faulty.faults.task_failure_rate = 0.1;
  faulty.faults.max_task_attempts = 10;
  faulty.faults.lose_partitions.push_back({1, 3, 0});
  EXPECT_EQ(run(faulty), expected);
}

// ---------------------------------------------------------------------
// Deterministic error selection (the RunPerPartition contract).

TEST(DeterministicErrors, SameErrorForEveryThreadCountAndScheduler) {
  // Several partitions fail inside one fused Force wave; the reported
  // error must be the one from the lowest-indexed failing partition
  // whether the wave runs inline (one thread) or on the worker pool.
  ValueVec rows;
  for (int i = 0; i < 160; ++i) rows.push_back(I(i));

  auto run = [&](int host_threads) {
    EngineConfig config;
    config.num_partitions = 16;
    config.host_threads = host_threads;
    Engine engine(config);
    Dataset ds = engine.Parallelize(rows);
    auto mapped = engine.Map(ds, [](const Value& v) -> StatusOr<Value> {
      // Rows 155 (partition 15) and 72 (partition 7) fail; partition 7
      // is the lowest failing partition, and 72 is its first bad row.
      if (v.AsInt() == 72 || v.AsInt() == 155) {
        return Status::RuntimeError("bad row " + std::to_string(v.AsInt()));
      }
      return v;
    });
    if (!mapped.ok()) return mapped.status();
    // The map is deferred; the Force wave runs it and must fail.
    auto forced = engine.Force(*mapped);
    return forced.ok() ? Status::OK() : forced.status();
  };

  const Status expected = run(1);
  ASSERT_FALSE(expected.ok());
  EXPECT_EQ(expected.message(), "bad row 72");
  for (int threads : {1, 2, 4, 8}) {
    for (int rep = 0; rep < 10; ++rep) {
      const Status got = run(threads);
      ASSERT_FALSE(got.ok());
      EXPECT_EQ(got.ToString(), expected.ToString()) << "threads " << threads;
    }
  }
}

TEST(PersistentPool, ReusedAcrossStagesAndMatchesSpawn) {
  // One engine drives a multi-stage program three times. Its pool is
  // created once and must run the tasks of several stages per round,
  // with output byte-identical to the inline single-thread engine.
  std::mt19937_64 rng(2026);
  ValueVec rows = WorkloadInput(/*which=*/1, rng);
  EngineConfig pool_config;
  pool_config.host_threads = 4;
  EngineConfig inline_config;
  inline_config.host_threads = 1;

  Engine pooled(pool_config), serial(inline_config);
  for (int round = 0; round < 3; ++round) {
    pooled.ResetRunState();
    serial.ResetRunState();
    auto a = RunWorkload(pooled, 1, rows);
    auto b = RunWorkload(serial, 1, rows);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(*a, *b) << "round " << round;
    int pooled_stages = 0;
    for (const StageStats& stage : pooled.metrics().stages()) {
      if (stage.pool_tasks > 0) ++pooled_stages;
    }
    EXPECT_GT(pooled.metrics().total_pool_tasks(), 0) << "round " << round;
    EXPECT_GT(pooled_stages, 1) << "round " << round;
    EXPECT_EQ(serial.metrics().total_pool_tasks(), 0) << "round " << round;
  }
}

}  // namespace
}  // namespace diablo::runtime
