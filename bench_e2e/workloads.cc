#include "workloads.h"

#include <algorithm>

#include "workloads/programs.h"
#include "workloads/workloads.h"

namespace diablo::bench_e2e {

namespace {

using runtime::Value;
using runtime::ValueVec;

/// A Figure-3 / Table-2 program at generator size `size`, checked against
/// the reference interpreter at `check_size`.
ProgramDef Paper(const std::string& name, int64_t size, int64_t check_size) {
  const bench::ProgramSpec& spec = bench::GetProgram(name);
  ProgramDef p;
  p.name = name;
  p.source = spec.source;
  p.make_inputs = spec.make_inputs;
  p.scalar_outputs = spec.scalar_outputs;
  p.array_outputs = spec.array_outputs;
  p.tolerance = spec.tolerance;
  p.handwritten = name;
  p.size = size;
  p.check_size = check_size;
  return p;
}

/// Figure 3 G (group_by) over heavy-hitter keys: (i, (key, value)) rows
/// whose keys are Zipf(1.5) ranks over n/10 ranks, values uniform in
/// [0, 10) like bench::GroupByPairs.
ProgramDef ZipfGroupBy(int64_t size, int64_t check_size) {
  ProgramDef p = Paper("group_by", size, check_size);
  p.name = "group_by_zipf";
  p.make_inputs = [](int64_t n, std::mt19937_64& rng) -> Bindings {
    bench::ZipfSampler zipf(std::max<int64_t>(1, n / 10), 1.5);
    std::uniform_real_distribution<double> value(0, 10);
    ValueVec rows;
    rows.reserve(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      Value key = Value::MakeInt(zipf(rng));
      rows.push_back(Value::MakePair(
          Value::MakeInt(i),
          Value::MakeTuple({std::move(key), Value::MakeDouble(value(rng))})));
    }
    return {{"V", Value::MakeBag(std::move(rows))}};
  };
  return p;
}

ProgramDef Rejected(const std::string& file, const std::string& code) {
  ProgramDef p;
  p.name = "rejected." + file;
  p.rejected_file = file + ".diablo";
  p.expect_code = code;
  return p;
}

std::vector<WorkloadDef> Build() {
  std::vector<WorkloadDef> out;

  WorkloadDef compile;
  compile.name = "compile_table1";
  compile.kind = WorkloadKind::kCompile;
  compile.warmup_passes = 25;
  compile.why =
      "Table 1: translation time of the 16 paper programs plus the 5 "
      "rejected examples (diagnostic path); parser, analysis (absint, "
      "merge algebra), translate, normalize and opt do all the work, the "
      "engine none.";
  for (const bench::Table1Entry& e : bench::Table1Programs()) {
    ProgramDef p;
    p.name = e.name;
    p.source = e.source;
    compile.programs.push_back(std::move(p));
  }
  compile.programs.push_back(Rejected("bubble_sort", "D001"));
  compile.programs.push_back(Rejected("nonaffine_write", "D003"));
  compile.programs.push_back(Rejected("nonassoc_merge", "D203"));
  compile.programs.push_back(Rejected("oob_write", "D201"));
  compile.programs.push_back(Rejected("stencil", "D001"));
  out.push_back(std::move(compile));

  WorkloadDef flat;
  flat.name = "fig3_flat";
  flat.kind = WorkloadKind::kRun;
  flat.why =
      "Figure 3 A-G: scalar keys, so the typed columnar path, fused narrow "
      "chains and the worker pool carry the work with no boxed fallback; "
      "the Zipf group_by adds heavy-hitter keys for the skew layer. A "
      "composite-key change should leave it flat.";
  flat.programs = {
      Paper("conditional_sum", 120000, 120000),
      Paper("equal", 120000, 120000),
      Paper("string_match", 60000, 60000),
      Paper("word_count", 60000, 60000),
      Paper("histogram", 30000, 30000),
      Paper("linear_regression", 40000, 40000),
      Paper("group_by", 60000, 60000),
      ZipfGroupBy(60000, 60000),
  };
  out.push_back(std::move(flat));

  WorkloadDef matrix;
  matrix.name = "fig3_matrix";
  matrix.kind = WorkloadKind::kRun;
  matrix.why =
      "Figure 3 H-L: tuple keys, joins, coGroup merges and driver-side "
      "statements, where most aggregated rows fall back to the boxed path; "
      "the workload for the one-path-per-operator and composite-key items.";
  matrix.programs = {
      Paper("matrix_addition", 80, 30),
      Paper("matrix_multiplication", 36, 12),
      Paper("pagerank", 10, 6),
      Paper("kmeans", 3000, 600),
      Paper("matrix_factorization", 50, 16),
  };
  out.push_back(std::move(matrix));

  WorkloadDef dist;
  dist.name = "dist_shuffle";
  dist.kind = WorkloadKind::kDist;
  dist.why =
      "word_count, group_by and pagerank with every task wave on forked dist "
      "workers over the wire codec: the only workload that measures "
      "src/dist (TypedRows, ChainTally and remote branches cross it).";
  dist.programs = {
      Paper("word_count", 20000, 20000),
      Paper("group_by", 20000, 20000),
      Paper("pagerank", 8, 6),
  };
  out.push_back(std::move(dist));
  return out;
}

}  // namespace

const std::vector<WorkloadDef>& Workloads() {
  static const auto* kWorkloads = new std::vector<WorkloadDef>(Build());
  return *kWorkloads;
}

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace diablo::bench_e2e
