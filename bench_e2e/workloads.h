#ifndef DIABLO_BENCH_E2E_WORKLOADS_H_
#define DIABLO_BENCH_E2E_WORKLOADS_H_

// The benchmark's four workloads: which paper programs each runs, at
// which size, how each is checked, and why the workload exists.

#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "diablo/diablo.h"

namespace diablo::bench_e2e {

enum class WorkloadKind {
  kCompile,  ///< compile only, run nothing
  kRun,      ///< compile + run on the in-process engine
  kDist,     ///< compile + run with EngineConfig::remote = dist::Coordinator
};

struct ProgramDef {
  /// Row name in the per-program table and `program.<name>.run_s`.
  std::string name;
  /// Loop-language source; empty when `rejected_file` supplies it.
  std::string source;
  /// Compile-only rejected programs: file under
  /// examples/programs/rejected/ and the diagnostic code it must get.
  std::string rejected_file;
  std::string expect_code;
  /// Run programs: input generator (seeded by the benchmark), the
  /// outputs collected and compared, and the comparison tolerance.
  std::function<Bindings(int64_t n, std::mt19937_64& rng)> make_inputs;
  std::vector<std::string> scalar_outputs;
  std::vector<std::string> array_outputs;
  double tolerance = 1e-6;
  /// bench::RunHandwritten name of the hand-written engine version.
  std::string handwritten;
  /// Generator size of the timed instance, and of the instance checked
  /// against the sequential reference interpreter (equal when the
  /// reference is fast enough at full size).
  int64_t size = 0;
  int64_t check_size = 0;
};

struct WorkloadDef {
  std::string name;
  /// Why the workload was chosen: which layers it loads, which open
  /// work it is meant to judge.
  std::string why;
  WorkloadKind kind = WorkloadKind::kRun;
  /// Untimed passes in each set-up, enough to warm caches and lazy
  /// initialisation; the first one's outputs are the reference bytes.
  int warmup_passes = 1;
  std::vector<ProgramDef> programs;
};

const std::vector<WorkloadDef>& Workloads();

/// Null when no workload has that name.
const WorkloadDef* FindWorkload(const std::string& name);

}  // namespace diablo::bench_e2e

#endif  // DIABLO_BENCH_E2E_WORKLOADS_H_
