#ifndef DIABLO_BENCH_E2E_LEDGER_H_
#define DIABLO_BENCH_E2E_LEDGER_H_

// The benchmark's span ledger: benchmark-side spans around each public
// call (compile phases, diablo::Run, output collection, the hand-written
// run) merged with the engine's own trace (run > statement > stage >
// wave > task, worker-process lanes under the dist backend), self times,
// per-layer totals, and a Chrome trace_event export.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "runtime/metrics.h"
#include "runtime/trace.h"

namespace diablo::bench_e2e {

/// Monotonic steady-clock reading in microseconds.
double NowUs();

/// Wall-clock seconds since `start_us` (a NowUs() reading).
inline double SecondsSince(double start_us) {
  return (NowUs() - start_us) * 1e-6;
}

struct Span {
  int64_t id = 0;
  int64_t parent = -1;
  /// Ledger layer the span's self time is charged to: a benchmark-side
  /// layer ("pass", "program", "parser", ..., "run", "collect", "hand")
  /// or an engine span kind ("engine.run", "engine.statement",
  /// "engine.stage", "engine.wave", "engine.task", "engine.recovery").
  std::string layer;
  std::string name;
  double start_us = 0;  ///< absolute steady-clock microseconds
  double dur_us = 0;
  int process = 0;  ///< 0 = driver process, 1.. = dist worker process + 1
  int worker = 0;   ///< 0 = driver thread, 1.. = pool worker thread
  /// Engine wave spans: whether the enclosing stage shuffles.
  bool wide = false;
};

/// The spans of one traced pass, in the order they opened.
class PassTrace {
 public:
  /// Opens a benchmark-side span under `parent` (-1 for a root).
  int64_t Open(std::string layer, std::string name, int64_t parent);
  void Close(int64_t id);

  /// Splices the engine trace recorded while the pass ran. Engine spans
  /// are relative to `recorder_epoch_us`; engine root spans are parented
  /// to the innermost benchmark span in `hosts` whose interval contains
  /// their start (diablo::Run, collection, or the hand-written run).
  void AddEngineSpans(const std::vector<runtime::TraceSpan>& engine_spans,
                      double recorder_epoch_us,
                      const runtime::Metrics& metrics,
                      const std::vector<int64_t>& hosts);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span (its duration minus the part of it the
  /// union of its children covers), indexed like spans().
  std::vector<double> SelfTimesUs() const;

 private:
  std::vector<Span> spans_;  ///< id == index
};

/// Wave role from the engine's wave name: "combine" (`<op>.combine`),
/// "shuffle" (scatter waves), "merge" (the ⊳ merges: arrayMerge,
/// mergeInc), "reduce" (other waves of a shuffling stage: reduceByKey,
/// joins, groupBy) or "narrow".
std::string WaveRole(const Span& wave);

/// Per-layer seconds (and counts) of one traced pass.
struct PassLedger {
  double pass_s = 0;
  std::map<std::string, double> self_s;  ///< by layer, pass-local spans
  std::map<std::string, double> wave_s;  ///< wave wall time by role
  double task_busy_s = 0;
  double wave_s_total = 0;
  /// Sum over waves of max task time and of mean task time (task_skew).
  double wave_task_max_s = 0;
  double wave_task_mean_s = 0;
  double dist_wave_s = 0;
  double dist_worker_busy_s = 0;
};

/// Rolls a pass's spans up into ledger layers.
PassLedger Summarize(const PassTrace& trace);

/// Writes spans as Chrome trace_event JSON (one process lane per dist
/// process, one thread row per worker).
void WriteChromeTrace(const std::vector<Span>& spans, std::ostream& os);

/// Median (average of the middle pair for even counts); 0 when empty.
double Median(std::vector<double> v);

/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest sample. Returns false when there are fewer than
/// eleven samples.
bool TailPercentile(std::vector<double> v, double* value, double* percentile);

/// Geometric mean of positive values; 0 when empty.
double GeoMean(const std::vector<double>& v);

}  // namespace diablo::bench_e2e

#endif  // DIABLO_BENCH_E2E_LEDGER_H_
