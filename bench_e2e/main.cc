// End-to-end benchmark of DIABLO on the paper's programs.
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//             [--seed2 M] [--root DIR] [--trace-dir DIR]
//             [--inject-corruption PROGRAM]
//
// One closed-loop driver runs one program at a time through the public
// API: the diablo::Compile phases (parser, analysis, translate,
// normalize, opt), diablo::Run and output collection on a
// runtime::Engine — with EngineConfig::remote = dist::Coordinator for
// the dist workload. A pass runs every program of the workload once.
//
// --trace 0 (end-to-end): engines run with tracing off; prints setup_s,
// pass_s_p50, pass_s_tail, peak_rss_mb and correct_ratio.
// --trace 1 (per layer): an untraced phase, then a traced phase whose
// benchmark-side spans merge with the engine trace into a per-layer
// ledger (self times), written as Chrome trace JSON under --trace-dir.
//
// Every output is checked: each timed pass against the warm-up pass
// byte for byte; DIABLO against the hand-written engine code at full
// size and against the reference interpreter (at a smaller instance
// where full size is too slow); dist outputs against in-process ones;
// rejected programs against their expected diagnostic. Every miss
// counts in `failed`. The last stdout line is the JSON result.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/absint.h"
#include "analysis/loop_lint.h"
#include "analysis/merge_algebra.h"
#include "analysis/restrictions.h"
#include "diablo/diablo.h"
#include "dist/coordinator.h"
#include "ledger.h"
#include "normalize/normalize.h"
#include "parser/parser.h"
#include "runtime/serialize.h"
#include "workloads.h"
#include "workloads/harness.h"

#ifndef BENCH_E2E_COMPILER
#define BENCH_E2E_COMPILER "unknown"
#endif
#ifndef BENCH_E2E_BUILD_TYPE
#define BENCH_E2E_BUILD_TYPE "unknown"
#endif

namespace diablo::bench_e2e {
namespace {

using runtime::Engine;
using runtime::EngineConfig;
using runtime::Value;

constexpr const char* kPhases[] = {"parser", "analysis", "translate",
                                   "normalize", "opt"};
constexpr int kNumPhases = 5;
/// Set-ups per --trace 0 run; setup_s is their median.
constexpr int kSetups = 5;
/// Share of --seconds the --trace 1 run spends untraced (the rest traced).
constexpr double kUntracedShare = 0.4;
/// Traced passes whose spans are kept for the Chrome trace file.
constexpr size_t kTracePassesKept = 40;
/// The end-to-end timings come from the quietest block of the run: the
/// passes split in order into at most kMaxBlocks blocks of at least
/// kMinBlockPasses each, and the block with the lowest median wins. On a
/// shared host a run can spend seconds at a time in a slow state (1.5x
/// for the single-threaded compile_table1); the quietest block reads the
/// program, not the neighbours. Runs with fewer than 2 x kMinBlockPasses
/// passes form one block: every pass counts.
constexpr size_t kMaxBlocks = 5;
constexpr size_t kMinBlockPasses = 200;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  std::optional<uint64_t> seed2;
  double seconds = 0;
  int trace = -1;
  std::string root = ".";
  std::string trace_dir = ".bench_build/bench_e2e_traces";
  std::string inject_corruption;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr, "bench_e2e: %s\n", why.c_str());
  std::fprintf(stderr,
               "usage: bench_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 [--seed2 M] [--root DIR] [--trace-dir DIR] "
               "[--inject-corruption PROGRAM]\nworkloads:");
  for (const WorkloadDef& w : Workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

uint64_t ParseUint(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || v[0] == '-') {
    Usage(flag + " expects a non-negative integer, got '" + v + "'");
  }
  return x;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = ParseUint(flag, v);
    } else if (flag == "--seed2") {
      a.seed2 = ParseUint(flag, v);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(ParseUint(flag, v));
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(ParseUint(flag, v));
    } else if (flag == "--root") {
      a.root = v;
    } else if (flag == "--trace-dir") {
      a.trace_dir = v;
    } else if (flag == "--inject-corruption") {
      a.inject_corruption = v;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (FindWorkload(a.workload) == nullptr) {
    Usage("unknown workload '" + a.workload + "'");
  }
  if (a.seconds < 1) Usage("--seconds must be at least 1");
  if (a.trace != 0 && a.trace != 1) Usage("--trace must be 0 or 1");
  return a;
}

int HostThreads() {
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(n, 1, 4);
}

/// Coordinator plus workers stay within the host's processors.
int DistWorkers() { return std::max(1, HostThreads() - 1); }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Seeded generator stream for program `index`; `tag` separates the
/// timed instance (0) from the reference-check instance (1).
std::mt19937_64 Rng(uint64_t seed, size_t index, uint32_t tag) {
  std::seed_seq seq{static_cast<uint32_t>(seed), static_cast<uint32_t>(seed >> 32),
                    static_cast<uint32_t>(index), tag};
  return std::mt19937_64(seq);
}

/// Deterministic engine counters over a slice of Metrics::stages().
struct Counters {
  double sim_s = 0;
  int64_t stages = 0;
  int64_t shuffles = 0;
  int64_t shuffle_bytes = 0;
  int64_t work_units = 0;
  int64_t hash_agg_rows = 0;
  int64_t accumulator_peak_bytes = 0;
  int64_t columnar_batches = 0;
  int64_t fallback_rows = 0;
  int64_t salt_fanout = 0;
  int64_t salted_keys = 0;
  int64_t dist_tasks = 0;

  void Add(const Counters& o) {
    sim_s += o.sim_s;
    stages += o.stages;
    shuffles += o.shuffles;
    shuffle_bytes += o.shuffle_bytes;
    work_units += o.work_units;
    hash_agg_rows += o.hash_agg_rows;
    accumulator_peak_bytes =
        std::max(accumulator_peak_bytes, o.accumulator_peak_bytes);
    columnar_batches += o.columnar_batches;
    fallback_rows += o.fallback_rows;
    salt_fanout += o.salt_fanout;
    salted_keys += o.salted_keys;
    dist_tasks += o.dist_tasks;
  }
  bool operator==(const Counters&) const = default;
};

Counters CountStages(const runtime::Metrics& all, size_t begin, size_t end,
                     const runtime::ClusterModel& model) {
  runtime::Metrics m;
  for (size_t i = begin; i < end; ++i) m.AddStage(all.stages()[i]);
  Counters c;
  c.sim_s = m.SimulatedSeconds(model);
  c.stages = m.num_stages();
  c.shuffles = m.num_wide_stages();
  c.shuffle_bytes = m.total_shuffle_bytes();
  c.work_units = m.total_work();
  c.hash_agg_rows = m.total_hash_agg_rows();
  c.accumulator_peak_bytes = m.max_accumulator_bytes_peak();
  c.columnar_batches = m.total_columnar_batches();
  c.fallback_rows = m.total_columnar_rows_fallback();
  c.salt_fanout = m.total_salt_fanout();
  c.salted_keys = m.total_salted_keys();
  c.dist_tasks = m.total_dist_tasks();
  return c;
}

/// What one program execution inside a pass produced.
struct ProgramResult {
  Status status;
  double phase_s[kNumPhases] = {};
  double run_s = 0;
  double collect_s = 0;
  double total_s = 0;
  int64_t verdict_errors = 0;
  /// Compile-only: the rejection report, or the compiled program.
  std::string rejection;
  std::optional<CompiledProgram> compiled;
  /// Run programs: scalar outputs then array outputs, in ProgramDef order.
  std::vector<Value> outputs;
  size_t stage_begin = 0;
  size_t stage_end = 0;
};

std::string SerializeAll(const std::vector<Value>& values) {
  std::string out;
  for (const Value& v : values) out += runtime::Serialize(v);
  return out;
}

/// The bytes a timed pass must reproduce exactly.
std::string Fingerprint(const ProgramResult& r) {
  if (!r.status.ok()) return "error: " + r.status.ToString();
  if (!r.rejection.empty()) return "rejected: " + r.rejection;
  if (r.compiled.has_value() && r.outputs.empty()) {
    return r.compiled->TargetToString();
  }
  return SerializeAll(r.outputs);
}

struct PassResult {
  double pass_s = 0;
  std::vector<ProgramResult> programs;
};

/// A benchmark-side span of a traced pass, closed when destroyed; does
/// nothing on an untraced pass (null trace).
class SpanScope {
 public:
  SpanScope(PassTrace* trace, const char* layer, std::string name,
            int64_t parent)
      : trace_(trace),
        id_(trace != nullptr ? trace->Open(layer, std::move(name), parent)
                             : -1) {}
  ~SpanScope() {
    if (trace_ != nullptr) trace_->Close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int64_t id() const { return id_; }

 private:
  PassTrace* trace_;
  int64_t id_;
};

/// Runs `fn` inside a span of `layer`, storing its wall seconds.
template <typename Fn>
auto Timed(PassTrace* trace, int64_t parent, const char* layer,
           double* seconds, Fn&& fn) {
  SpanScope span(trace, layer, layer, parent);
  const double t0 = NowUs();
  auto result = fn();
  *seconds = SecondsSince(t0);
  return result;
}

/// A program's scalar outputs then its array outputs, in ProgramDef order.
StatusOr<std::vector<Value>> CollectOutputs(const ProgramRun& run,
                                            const ProgramDef& p) {
  std::vector<Value> out;
  for (const std::string& name : p.scalar_outputs) {
    DIABLO_ASSIGN_OR_RETURN(Value v, run.Scalar(name));
    out.push_back(std::move(v));
  }
  for (const std::string& name : p.array_outputs) {
    DIABLO_ASSIGN_OR_RETURN(Value v, run.Array(name));
    out.push_back(std::move(v));
  }
  return out;
}

bool OutputsAgree(const Value& a, const Value& b, double tolerance) {
  if (a.is_bag() && b.is_bag()) {
    return runtime::BagAlmostEquals(a, b, tolerance);
  }
  return runtime::AlmostEquals(a, b, tolerance);
}

/// Engines, inputs and bookkeeping of one workload run on one seed.
class Bench {
 public:
  Bench(const WorkloadDef& def, const Args& args, uint64_t seed)
      : def_(def), args_(args), seed_(seed) {}

  /// Generates inputs, builds the engine (and coordinator) and runs the
  /// untimed warm-up pass that later passes must reproduce. Returns the
  /// wall seconds it took; `gen_s` gets the input-generation share.
  double Setup(double* gen_s) {
    const double t0 = NowUs();
    sources_.clear();
    inputs_.clear();
    for (size_t i = 0; i < def_.programs.size(); ++i) {
      const ProgramDef& p = def_.programs[i];
      sources_.push_back(p.rejected_file.empty()
                             ? p.source
                             : ReadFile(args_.root +
                                        "/examples/programs/rejected/" +
                                        p.rejected_file));
      Bindings in;
      if (p.make_inputs) {
        std::mt19937_64 rng = Rng(seed_, i, 0);
        in = p.make_inputs(p.size, rng);
      }
      inputs_.push_back(std::move(in));
    }
    *gen_s = SecondsSince(t0);
    engine_.reset();
    coordinator_.reset();
    if (def_.kind == WorkloadKind::kDist) {
      dist::DistConfig dc;
      dc.num_workers = DistWorkers();
      coordinator_ = std::make_unique<dist::Coordinator>(dc);
    }
    engine_ = std::make_unique<Engine>(Config(/*tracing=*/false));
    PassResult warm = RunPass(engine_.get(), nullptr, -1);
    warm_fingerprints_.clear();
    program_counters_.clear();
    for (const ProgramResult& r : warm.programs) {
      warm_fingerprints_.push_back(Fingerprint(r));
      program_counters_.push_back(CountStages(engine_->metrics(),
                                              r.stage_begin, r.stage_end,
                                              engine_->config().cluster));
    }
    warm_ = std::move(warm);
    warm_totals_ = Totals(*engine_);
    for (int w = 1; w < def_.warmup_passes; ++w) {
      Verify(RunPass(engine_.get(), nullptr, -1), *engine_, -1);
    }
    hand_sim_s_.assign(def_.programs.size(), 0);
    check_notes_.assign(def_.programs.size(), "");
    return SecondsSince(t0);
  }

  /// The one-off output checks. Each check is one attempted unit.
  void Check() {
    for (size_t i = 0; i < def_.programs.size(); ++i) {
      const ProgramDef& p = def_.programs[i];
      const ProgramResult& warm = warm_.programs[i];
      if (!warm.status.ok()) {
        Miss(p.name, "warm-up failed: " + warm.status.ToString());
        continue;
      }
      CheckCompile(i);
      if (def_.kind == WorkloadKind::kCompile) continue;
      CheckHandwritten(i);
      CheckReference(i);
      if (def_.kind == WorkloadKind::kDist) CheckDistAgainstLocal(i);
    }
  }

  /// Runs one pass on `engine` (tracing per its config); with a trace,
  /// benchmark-side spans go into it under `parent`.
  PassResult RunPass(Engine* engine, PassTrace* trace, int64_t parent) {
    engine->ResetRunState();
    hosts_.clear();
    PassResult pass;
    SpanScope span(trace, "pass", def_.name, parent);
    const double t0 = NowUs();
    for (size_t i = 0; i < def_.programs.size(); ++i) {
      pass.programs.push_back(RunProgram(engine, i, trace, span.id()));
    }
    pass.pass_s = SecondsSince(t0);
    return pass;
  }

  /// Compares a timed pass with the warm-up, byte for byte, and its
  /// engine counters with the warm-up's. Counts attempts and misses.
  void Verify(const PassResult& pass, const Engine& engine, int pass_index) {
    for (size_t i = 0; i < pass.programs.size(); ++i) {
      ++attempted_;
      std::string fp = Fingerprint(pass.programs[i]);
      if (pass_index == 1 && args_.inject_corruption == def_.programs[i].name &&
          !fp.empty()) {
        fp[fp.size() / 2] ^= 0x20;  // test hook: a corrupted output
      }
      if (!pass.programs[i].status.ok()) {
        Miss(def_.programs[i].name,
             "pass failed: " + pass.programs[i].status.ToString());
      } else if (fp != warm_fingerprints_[i]) {
        Miss(def_.programs[i].name, "output differs from the warm-up pass");
      }
    }
    if (def_.kind != WorkloadKind::kCompile) {
      ++attempted_;
      if (!(Totals(engine) == warm_totals_)) {
        Miss(def_.name, "engine counters differ from the warm-up pass");
      }
    }
    const runtime::Metrics& m = engine.metrics();
    for (const runtime::StageStats& s : m.stages()) {
      dist_retries_ += s.dist_retries;
      dist_workers_lost_ += s.dist_workers_lost;
    }
  }

  /// Runs every hand-written program once on `engine`, timing each.
  /// Returns per-program seconds (0 where there is no hand-written code).
  std::vector<double> RunHandPass(Engine* engine, PassTrace* trace) {
    std::vector<double> seconds(def_.programs.size(), 0);
    for (size_t i = 0; i < def_.programs.size(); ++i) {
      const ProgramDef& p = def_.programs[i];
      if (p.handwritten.empty()) continue;
      ++attempted_;
      SpanScope span(trace, "hand", p.name, -1);
      hosts_.push_back(span.id());
      const double t0 = NowUs();
      auto out = bench::RunHandwritten(p.handwritten, *engine, inputs_[i]);
      seconds[i] = SecondsSince(t0);
      if (!out.ok()) Miss(p.name, "hand-written run failed");
    }
    return seconds;
  }

  Engine* engine() { return engine_.get(); }
  EngineConfig Config(bool tracing) const {
    EngineConfig c;
    c.host_threads = HostThreads();
    c.tracing = tracing;
    c.remote = coordinator_.get();
    return c;
  }

  const WorkloadDef& def() const { return def_; }
  const ProgramResult& warm(size_t i) const { return warm_.programs[i]; }
  const Counters& program_counters(size_t i) const {
    return program_counters_[i];
  }
  double hand_sim_s(size_t i) const { return hand_sim_s_[i]; }
  const std::string& check_note(size_t i) const { return check_notes_[i]; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  int64_t dist_retries() const { return dist_retries_; }
  int64_t dist_workers_lost() const { return dist_workers_lost_; }
  /// Benchmark spans of the last pass (and the hand-written runs after
  /// it) that engine root spans may be charged to: run, collect, hand.
  const std::vector<int64_t>& hosts() const { return hosts_; }

 private:
  ProgramResult RunProgram(Engine* engine, size_t i, PassTrace* trace,
                           int64_t parent) {
    ProgramResult r;
    SpanScope span(trace, "program", def_.programs[i].name, parent);
    const double t0 = NowUs();
    r.stage_begin = static_cast<size_t>(engine->metrics().num_stages());
    CompileAndRun(engine, i, trace, span.id(), &r);
    r.stage_end = static_cast<size_t>(engine->metrics().num_stages());
    r.total_s = SecondsSince(t0);
    return r;
  }

  /// The compile phases one public call at a time, then (unless the
  /// workload only compiles) diablo::Run and output collection.
  void CompileAndRun(Engine* engine, size_t i, PassTrace* trace,
                     int64_t span, ProgramResult* r) {
    const ProgramDef& p = def_.programs[i];
    auto parsed = Timed(trace, span, kPhases[0], &r->phase_s[0], [&] {
      return parser::ParseProgram(sources_[i]);
    });
    if (!parsed.ok()) {
      r->status = parsed.status();
      return;
    }
    analysis::RestrictionReport report;
    ast::Program canonical =
        Timed(trace, span, kPhases[1], &r->phase_s[1], [&] {
          ast::Program c = analysis::CanonicalizeIncrements(*parsed);
          report = analysis::CheckProgram(c);
          return c;
        });
    r->verdict_errors = static_cast<int64_t>(report.violations.size());
    if (!report.ok) {
      r->rejection = report.ToString();
      if (p.expect_code.empty()) {
        r->status = Status::RestrictionViolation(r->rejection);
      }
      return;
    }
    auto translated = Timed(trace, span, kPhases[2], &r->phase_s[2], [&] {
      return translate::Translate(canonical);
    });
    if (!translated.ok()) {
      r->status = translated.status();
      return;
    }
    comp::NameGen names("n");
    comp::TargetProgram normalized =
        Timed(trace, span, kPhases[3], &r->phase_s[3], [&] {
          return normalize::NormalizeTarget(translated->program, &names);
        });
    CompiledProgram compiled;
    compiled.source = std::move(canonical);
    compiled.vars = std::move(translated->vars);
    compiled.target = Timed(trace, span, kPhases[4], &r->phase_s[4], [&] {
      return opt::OptimizeTarget(normalized, &names, CompileOptions().optimize);
    });
    r->compiled = std::move(compiled);
    if (def_.kind == WorkloadKind::kCompile) return;

    std::optional<ProgramRun> run;
    {
      SpanScope run_span(trace, "run", "diablo::Run", span);
      hosts_.push_back(run_span.id());
      const double t0 = NowUs();
      auto ran = diablo::Run(*r->compiled, engine, inputs_[i]);
      r->run_s = SecondsSince(t0);
      if (!ran.ok()) {
        r->status = ran.status();
        return;
      }
      run.emplace(std::move(*ran));
    }
    SpanScope collect_span(trace, "collect", "collect", span);
    hosts_.push_back(collect_span.id());
    const double t0 = NowUs();
    auto outputs = CollectOutputs(*run, p);
    r->collect_s = SecondsSince(t0);
    if (outputs.ok()) {
      r->outputs = std::move(*outputs);
    } else {
      r->status = outputs.status();
    }
  }

  Counters Totals(const Engine& engine) const {
    return CountStages(engine.metrics(), 0,
                       static_cast<size_t>(engine.metrics().num_stages()),
                       engine.config().cluster);
  }

  void Miss(const std::string& program, const std::string& why) {
    ++failed_;
    std::fprintf(stderr, "bench_e2e: FAILED %s/%s: %s\n", def_.name.c_str(),
                 program.c_str(), why.c_str());
  }

  void Note(size_t i, const std::string& note) {
    if (!check_notes_[i].empty()) check_notes_[i] += ", ";
    check_notes_[i] += note;
  }

  /// The phase-by-phase compile equals diablo::Compile; rejected
  /// programs get their expected diagnostic code.
  void CheckCompile(size_t i) {
    const ProgramDef& p = def_.programs[i];
    ++attempted_;
    auto compiled = diablo::Compile(sources_[i]);
    if (!p.expect_code.empty()) {
      bool has_code = false;
      if (!compiled.ok() &&
          compiled.status().code() == StatusCode::kRestrictionViolation) {
        auto parsed = parser::ParseProgram(sources_[i]);
        if (parsed.ok()) {
          ast::Program c = analysis::CanonicalizeIncrements(*parsed);
          std::vector<analysis::Diagnostic> diags = analysis::LintLoops(c);
          for (auto& d : analysis::AnalyzeProgram(c).diagnostics) {
            diags.push_back(std::move(d));
          }
          for (auto& d : analysis::LintMergeOperators(c)) {
            diags.push_back(std::move(d));
          }
          for (const auto& d : diags) {
            has_code = has_code || (d.code == p.expect_code &&
                                    d.severity == analysis::Severity::kError);
          }
        }
      }
      if (!has_code || warm_.programs[i].rejection.empty()) {
        Miss(p.name, "expected rejection with " + p.expect_code);
      }
      Note(i, "rejected " + p.expect_code);
      return;
    }
    if (!compiled.ok() || !warm_.programs[i].compiled.has_value() ||
        compiled->TargetToString() !=
            warm_.programs[i].compiled->TargetToString()) {
      Miss(p.name, "phase-by-phase compile differs from diablo::Compile");
    }
    Note(i, "compile");
  }

  /// Primary output (first scalar, else first array) against the
  /// hand-written engine code at full size; records its cost-model time.
  void CheckHandwritten(size_t i) {
    const ProgramDef& p = def_.programs[i];
    if (p.handwritten.empty()) return;
    ++attempted_;
    engine_->ResetRunState();
    auto hw = bench::RunHandwritten(p.handwritten, *engine_, inputs_[i]);
    hand_sim_s_[i] =
        engine_->metrics().SimulatedSeconds(engine_->config().cluster);
    const Value& primary = warm_.programs[i].outputs.front();
    if (!hw.ok() ||
        !OutputsAgree(*hw, primary, std::max(1e-6, p.tolerance))) {
      Miss(p.name, "differs from the hand-written version at n=" +
                       std::to_string(p.size));
    }
    Note(i, "hand n=" + std::to_string(p.size));
  }

  /// Every output against the sequential reference interpreter, at
  /// check_size (full size when check_size == size).
  void CheckReference(size_t i) {
    const ProgramDef& p = def_.programs[i];
    ++attempted_;
    Bindings small;
    const Bindings* in = &inputs_[i];
    std::vector<Value> got = warm_.programs[i].outputs;
    if (p.check_size != p.size) {
      std::mt19937_64 rng = Rng(seed_, i, 1);
      small = p.make_inputs(p.check_size, rng);
      in = &small;
      engine_->ResetRunState();
      auto run = diablo::Run(*warm_.programs[i].compiled, engine_.get(), small);
      auto outputs = run.ok() ? CollectOutputs(*run, p)
                              : StatusOr<std::vector<Value>>(run.status());
      if (!outputs.ok()) {
        Miss(p.name, "run at reference size failed");
        return;
      }
      got = std::move(*outputs);
    }
    auto ref = diablo::RunReference(sources_[i], *in);
    bool agree = ref.ok();
    size_t k = 0;
    for (const std::string& n : p.scalar_outputs) {
      auto want = ref.ok() ? (*ref)->GetScalar(n) : StatusOr<Value>(Value());
      agree = agree && want.ok() && OutputsAgree(got[k], *want, p.tolerance);
      ++k;
    }
    for (const std::string& n : p.array_outputs) {
      auto want = ref.ok() ? (*ref)->GetArray(n) : StatusOr<Value>(Value());
      agree = agree && want.ok() && OutputsAgree(got[k], *want, p.tolerance);
      ++k;
    }
    if (!agree) {
      Miss(p.name, "differs from the reference interpreter at n=" +
                       std::to_string(p.check_size));
    }
    Note(i, "reference n=" + std::to_string(p.check_size));
  }

  /// Dist outputs equal in-process outputs byte for byte.
  void CheckDistAgainstLocal(size_t i) {
    const ProgramDef& p = def_.programs[i];
    ++attempted_;
    EngineConfig local_config = Config(false);
    local_config.remote = nullptr;
    Engine local(local_config);
    auto run = diablo::Run(*warm_.programs[i].compiled, &local, inputs_[i]);
    auto outputs = run.ok() ? CollectOutputs(*run, p)
                            : StatusOr<std::vector<Value>>(run.status());
    if (!outputs.ok() || SerializeAll(*outputs) != warm_fingerprints_[i]) {
      Miss(p.name, "dist output differs from the in-process engine");
    }
    Note(i, "dist==local");
  }

  const WorkloadDef& def_;
  const Args& args_;
  const uint64_t seed_;
  std::vector<std::string> sources_;
  std::vector<Bindings> inputs_;
  // The coordinator outlives the engine that borrows it.
  std::unique_ptr<dist::Coordinator> coordinator_;
  std::unique_ptr<Engine> engine_;
  PassResult warm_;
  std::vector<std::string> warm_fingerprints_;
  std::vector<Counters> program_counters_;
  Counters warm_totals_;
  std::vector<double> hand_sim_s_;
  std::vector<std::string> check_notes_;
  std::vector<int64_t> hosts_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t dist_retries_ = 0;
  int64_t dist_workers_lost_ = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// One measured run of a workload on one seed.
struct Result {
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
};

std::string Fmt(double v, int precision = 4) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

/// Pass and per-program times of the untraced timed passes.
struct PassSeries {
  std::vector<double> pass_s;
  std::vector<std::vector<double>> program_s;  // [program][pass]
  std::vector<std::vector<double>> hand_s;     // [program][pass]
  std::vector<double> compile_share;
  std::vector<double> engine_share;

  explicit PassSeries(size_t programs)
      : program_s(programs), hand_s(programs) {}

  void Add(const PassResult& pass) {
    pass_s.push_back(pass.pass_s);
    double compile = 0, engine = 0;
    for (size_t i = 0; i < pass.programs.size(); ++i) {
      const ProgramResult& r = pass.programs[i];
      program_s[i].push_back(r.total_s);
      for (double s : r.phase_s) compile += s;
      engine += r.run_s + r.collect_s;
    }
    compile_share.push_back(compile / pass.pass_s);
    engine_share.push_back(engine / pass.pass_s);
  }
  void AddHand(const std::vector<double>& seconds) {
    for (size_t i = 0; i < seconds.size(); ++i) {
      if (seconds[i] > 0) hand_s[i].push_back(seconds[i]);
    }
  }
};

void PrintProgramTable(const Bench& bench, const PassSeries& series,
                       bool hand_measured) {
  const WorkloadDef& def = bench.def();
  std::printf("\n%-24s %11s %10s %7s %6s %9s %9s %9s  %s\n", "program",
              "wall_p50_s", "sim_s", "stages", "shfl", "hand_sim", "hand_wall",
              "fallback", "checked");
  for (size_t i = 0; i < def.programs.size(); ++i) {
    const Counters& c = bench.program_counters(i);
    const double hand_sim = bench.hand_sim_s(i);
    const double hand_wall = Median(series.hand_s[i]);
    std::string hand_wall_s = "-";
    if (hand_measured && hand_wall > 0) {
      hand_wall_s = Fmt(Median(series.program_s[i]) / hand_wall, 2) + "x";
    }
    std::printf("%-24s %11.5f %10.5f %7lld %6lld %9s %9s %9s  %s\n",
                def.programs[i].name.c_str(), Median(series.program_s[i]),
                c.sim_s, static_cast<long long>(c.stages),
                static_cast<long long>(c.shuffles),
                hand_sim > 0 ? (Fmt(c.sim_s / hand_sim, 2) + "x").c_str() : "-",
                hand_wall_s.c_str(),
                c.hash_agg_rows > 0
                    ? Fmt(static_cast<double>(c.fallback_rows) /
                              static_cast<double>(c.hash_agg_rows),
                          3)
                          .c_str()
                    : "-",
                bench.check_note(i).c_str());
  }
}

/// The passes of the quietest block (see kMaxBlocks), in run order.
std::vector<double> QuietestBlock(const std::vector<double>& passes) {
  const size_t blocks =
      std::clamp<size_t>(passes.size() / kMinBlockPasses, 1, kMaxBlocks);
  std::vector<double> best;
  double best_median = 0;
  for (size_t b = 0; b < blocks; ++b) {
    std::vector<double> block(
        passes.begin() + static_cast<std::ptrdiff_t>(b * passes.size() / blocks),
        passes.begin() +
            static_cast<std::ptrdiff_t>((b + 1) * passes.size() / blocks));
    const double m = Median(block);
    if (best.empty() || m < best_median) {
      best_median = m;
      best = std::move(block);
    }
  }
  return best;
}

/// Runs timed passes on `engine` until `deadline_us`, verifying each.
void TimedPasses(Bench& bench, Engine* engine, double deadline_us,
                 bool with_hand, PassSeries* series, int* pass_index) {
  do {
    PassResult pass = bench.RunPass(engine, nullptr, -1);
    bench.Verify(pass, *engine, (*pass_index)++);
    series->Add(pass);
    if (with_hand) series->AddHand(bench.RunHandPass(engine, nullptr));
  } while (NowUs() < deadline_us);
}

Result Execute(const WorkloadDef& def, const Args& args, uint64_t seed) {
  Result result;
  Bench bench(def, args, seed);
  const size_t n = def.programs.size();
  std::printf("workload %s (seed %llu): %s\n", def.name.c_str(),
              static_cast<unsigned long long>(seed), def.why.c_str());

  // Set-up: several times for --trace 0 (setup_s is the median), once
  // for --trace 1, which reports no end-to-end metric.
  std::vector<double> setup_s, gen_s;
  for (int s = 0; s < (args.trace == 0 ? kSetups : 1); ++s) {
    double gen = 0;
    setup_s.push_back(bench.Setup(&gen));
    gen_s.push_back(gen);
  }
  bench.Check();

  Counters totals;
  int64_t verdict_errors = 0, target_bytes = 0;
  for (size_t i = 0; i < n; ++i) {
    totals.Add(bench.program_counters(i));
    verdict_errors += bench.warm(i).verdict_errors;
    if (bench.warm(i).compiled.has_value()) {
      target_bytes += static_cast<int64_t>(
          bench.warm(i).compiled->TargetToString().size());
    }
  }

  PassSeries series(n);
  int pass_index = 0;
  const double start = NowUs();
  if (args.trace == 0) {
    TimedPasses(bench, bench.engine(), start + args.seconds * 1e6,
                /*with_hand=*/false, &series, &pass_index);
  } else {
    TimedPasses(bench, bench.engine(),
                start + kUntracedShare * args.seconds * 1e6,
                /*with_hand=*/true, &series, &pass_index);
  }

  const std::vector<double> quiet = QuietestBlock(series.pass_s);
  double tail = 0, tail_pct = 0;
  const bool tail_ok = TailPercentile(quiet, &tail, &tail_pct);
  const double quiet_p50 = Median(quiet);
  const double p50 = Median(series.pass_s);
  std::printf("host {\"nproc\": %u, \"host_threads\": %d, \"dist_workers\": %d, "
              "\"compiler\": \"%s\", \"build_type\": \"%s\", \"seed\": %llu, "
              "\"workload\": \"%s\", \"trace\": %d}\n",
              std::thread::hardware_concurrency(),
              def.kind == WorkloadKind::kDist ? 1 : HostThreads(),
              def.kind == WorkloadKind::kDist ? DistWorkers() : 0,
              BENCH_E2E_COMPILER, BENCH_E2E_BUILD_TYPE,
              static_cast<unsigned long long>(seed), def.name.c_str(),
              args.trace);
  std::printf("untraced passes %zu, p50 %.6f s; quietest block of %zu "
              "passes: p50 %.6f s, tail p%.2f %.6f s (%s)\n",
              series.pass_s.size(), p50, quiet.size(), quiet_p50, tail_pct,
              tail, tail_ok ? "10 passes beyond it" : "under 11 passes: max");
  const double fallback_ratio =
      totals.hash_agg_rows > 0 ? static_cast<double>(totals.fallback_rows) /
                                     static_cast<double>(totals.hash_agg_rows)
                               : 0;
  std::printf("shares: boxed fallback %.4f of %lld aggregated rows; compiler "
              "phases %.4f and engine %.4f of pass time\n",
              fallback_ratio, static_cast<long long>(totals.hash_agg_rows),
              Median(series.compile_share), Median(series.engine_share));

  auto add = [&](std::string name, double value, std::string unit) {
    result.metrics.push_back({std::move(name), value, std::move(unit)});
  };

  if (args.trace == 0) {
    PrintProgramTable(bench, series, /*hand_measured=*/false);
    result.attempted = bench.attempted();
    result.failed = bench.failed();
    add("setup_s", Median(setup_s), "s");
    add("pass_s_p50", quiet_p50, "s");
    add("pass_s_tail", tail, "s");
    add("peak_rss_mb", PeakRssMb(), "MB");
    add("correct_ratio",
        1.0 - static_cast<double>(result.failed) /
                  static_cast<double>(std::max<int64_t>(1, result.attempted)),
        "ratio");
    return result;
  }

  // Traced phase: a second engine with tracing on (same coordinator),
  // its own warm-up, then traced passes with the hand-written runs.
  Engine traced(bench.Config(/*tracing=*/true));
  {
    PassResult warm = bench.RunPass(&traced, nullptr, -1);
    bench.Verify(warm, traced, -1);
  }
  std::vector<PassLedger> ledgers;
  std::vector<Span> kept;
  const double deadline = start + args.seconds * 1e6;
  do {
    PassTrace trace;
    PassResult pass = bench.RunPass(&traced, &trace, -1);
    bench.Verify(pass, traced, pass_index++);
    bench.RunHandPass(&traced, &trace);
    trace.AddEngineSpans(traced.trace()->Snapshot(),
                         traced.trace()->EpochUs(), traced.metrics(),
                         bench.hosts());
    ledgers.push_back(Summarize(trace));
    if (ledgers.size() <= kTracePassesKept) {
      const int64_t offset = static_cast<int64_t>(kept.size());
      for (Span s : trace.spans()) {
        s.id += offset;
        if (s.parent >= 0) s.parent += offset;
        kept.push_back(std::move(s));
      }
    }
  } while (NowUs() < deadline);

  auto med = [&](auto fn) {
    std::vector<double> v;
    for (const PassLedger& l : ledgers) v.push_back(fn(l));
    return Median(v);
  };
  auto self = [](const PassLedger& l, const char* layer) {
    auto it = l.self_s.find(layer);
    return it == l.self_s.end() ? 0.0 : it->second;
  };
  auto role = [](const PassLedger& l, const char* r) {
    auto it = l.wave_s.find(r);
    return it == l.wave_s.end() ? 0.0 : it->second;
  };
  const int lanes =
      def.kind == WorkloadKind::kDist ? DistWorkers() : HostThreads();
  const double traced_p50 = med([](const PassLedger& l) { return l.pass_s; });

  for (int k = 0; k < kNumPhases; ++k) {
    add(std::string(kPhases[k]) + ".ms",
        1e3 * med([&](const PassLedger& l) { return self(l, kPhases[k]); }),
        "ms");
  }
  add("opt.target_bytes", static_cast<double>(target_bytes), "bytes");
  add("analysis.verdict_errors", static_cast<double>(verdict_errors), "count");
  add("exec.driver_s", med([&](const PassLedger& l) {
        return self(l, "run") + self(l, "engine.run") +
               self(l, "engine.statement");
      }),
      "s");
  add("exec.collect_s", med([&](const PassLedger& l) {
        return self(l, "collect");
      }),
      "s");
  add("runtime.stage_self_s", med([&](const PassLedger& l) {
        return self(l, "engine.stage") + self(l, "engine.recovery");
      }),
      "s");
  add("plan.stages", static_cast<double>(totals.stages), "count");
  add("plan.shuffles", static_cast<double>(totals.shuffles), "count");
  add("sim_s", totals.sim_s, "s");
  std::vector<double> sim_ratios, hand_ratios;
  for (size_t i = 0; i < n; ++i) {
    if (bench.hand_sim_s(i) > 0) {
      sim_ratios.push_back(bench.program_counters(i).sim_s /
                           bench.hand_sim_s(i));
    }
    const double hand = Median(series.hand_s[i]);
    if (hand > 0) hand_ratios.push_back(Median(series.program_s[i]) / hand);
  }
  add("plan.sim_ratio", GeoMean(sim_ratios), "ratio");
  add("plan.hand_ratio", GeoMean(hand_ratios), "ratio");
  for (const char* r : {"combine", "shuffle", "reduce", "merge", "narrow"}) {
    add(std::string("runtime.wave_s.") + r,
        med([&](const PassLedger& l) { return role(l, r); }), "s");
  }
  add("runtime.task_busy_s",
      med([](const PassLedger& l) { return l.task_busy_s; }), "s");
  add("runtime.wave_idle_s", med([&](const PassLedger& l) {
        return std::max(0.0, l.wave_s_total * lanes - l.task_busy_s);
      }),
      "s");
  add("runtime.parallel_eff", med([&](const PassLedger& l) {
        return l.wave_s_total > 0 ? l.task_busy_s / (l.wave_s_total * lanes)
                                  : 0.0;
      }),
      "ratio");
  add("runtime.task_skew", med([](const PassLedger& l) {
        return l.wave_task_mean_s > 0 ? l.wave_task_max_s / l.wave_task_mean_s
                                      : 0.0;
      }),
      "ratio");
  add("runtime.shuffle_bytes", static_cast<double>(totals.shuffle_bytes),
      "bytes");
  add("runtime.work_units", static_cast<double>(totals.work_units), "count");
  add("runtime.hash_agg_rows", static_cast<double>(totals.hash_agg_rows),
      "count");
  add("runtime.accumulator_peak_mb",
      static_cast<double>(totals.accumulator_peak_bytes) / (1024.0 * 1024.0),
      "MB");
  add("columnar.batches", static_cast<double>(totals.columnar_batches),
      "count");
  add("columnar.fallback_rows", static_cast<double>(totals.fallback_rows),
      "count");
  add("columnar.fallback_ratio", fallback_ratio, "ratio");
  add("skew.salt_fanout", static_cast<double>(totals.salt_fanout), "count");
  add("skew.salted_keys", static_cast<double>(totals.salted_keys), "count");
  add("dist.tasks", static_cast<double>(totals.dist_tasks), "count");
  add("dist.retries", static_cast<double>(bench.dist_retries()), "count");
  add("dist.workers_lost", static_cast<double>(bench.dist_workers_lost()),
      "count");
  add("dist.wave_s", med([](const PassLedger& l) { return l.dist_wave_s; }),
      "s");
  add("dist.worker_busy_s",
      med([](const PassLedger& l) { return l.dist_worker_busy_s; }), "s");
  std::map<std::string, double> program_run_s;
  for (const WorkloadDef& w : Workloads()) {
    for (const ProgramDef& p : w.programs) program_run_s[p.name] = 0;
  }
  for (size_t i = 0; i < n; ++i) {
    program_run_s[def.programs[i].name] = Median(series.program_s[i]);
  }
  for (const auto& [name, seconds] : program_run_s) {
    add("program." + name + ".run_s", seconds, "s");
  }
  add("bench.gen_s", Median(gen_s), "s");
  add("bench.trace_overhead", p50 > 0 ? traced_p50 / p50 : 0, "ratio");
  add("bench.traced_pass_s_p50", traced_p50, "s");
  const double accounted = med([&](const PassLedger& l) {
    double layers = l.wave_s_total;
    for (const char* layer : {"parser", "analysis", "translate", "normalize",
                              "opt", "run", "collect", "engine.run",
                              "engine.statement", "engine.stage",
                              "engine.recovery"}) {
      layers += self(l, layer);
    }
    return l.pass_s > 0 ? layers / l.pass_s : 0.0;
  });
  add("bench.accounted_share", accounted, "ratio");
  add("bench.other_s", med([&](const PassLedger& l) {
        return self(l, "pass") + self(l, "program");
      }),
      "s");
  add("bench.compile_share", Median(series.compile_share), "ratio");
  add("bench.engine_share", Median(series.engine_share), "ratio");
  add("bench.passes", static_cast<double>(series.pass_s.size()), "count");
  add("bench.pass_s_p50_all", p50, "s");
  add("bench.quiet_block_passes", static_cast<double>(quiet.size()), "count");
  add("bench.traced_passes", static_cast<double>(ledgers.size()), "count");
  add("bench.tail_pct", tail_pct, "pct");
  result.attempted = bench.attempted();
  result.failed = bench.failed();
  add("failed_ratio",
      static_cast<double>(result.failed) /
          static_cast<double>(std::max<int64_t>(1, result.attempted)),
      "ratio");

  PrintProgramTable(bench, series, /*hand_measured=*/true);
  std::printf("traced: %zu passes, p50 %.6f s (x%.3f untraced); per-layer "
              "self time accounts for %.4f of it\n",
              ledgers.size(), traced_p50, p50 > 0 ? traced_p50 / p50 : 0,
              accounted);
  const std::string path = args.trace_dir + "/" + def.name + "-seed" +
                           std::to_string(seed) + ".trace.json";
  std::ofstream out(path);
  if (out) {
    WriteChromeTrace(kept, out);
    std::printf("chrome trace (%zu spans, first %zu traced passes): %s\n",
                kept.size(), std::min(kTracePassesKept, ledgers.size()),
                path.c_str());
  } else {
    std::printf("chrome trace not written: cannot open %s\n", path.c_str());
  }
  return result;
}

std::string ResultJson(const Result& r) {
  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", r.metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + r.metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + r.metrics[i].unit + "\"}";
  }
  json += "}}";
  return json;
}

}  // namespace
}  // namespace diablo::bench_e2e

int main(int argc, char** argv) {
  using namespace diablo::bench_e2e;
  const Args args = ParseArgs(argc, argv);
  const WorkloadDef& def = *FindWorkload(args.workload);
  Result result = Execute(def, args, args.seed);
  if (args.seed2.has_value()) {
    // Re-check on a second, unseen seed: same workload, fresh inputs.
    Result second = Execute(def, args, *args.seed2);
    std::printf("seed2 %s\n", ResultJson(second).c_str());
    result.attempted += second.attempted;
    result.failed += second.failed;
  }
  std::fflush(stdout);
  std::printf("%s\n", ResultJson(result).c_str());
  return 0;
}
