#include "ledger.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ostream>
#include <utility>

namespace diablo::bench_e2e {

using runtime::SpanKind;
using runtime::TraceSpan;

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t PassTrace::Open(std::string layer, std::string name, int64_t parent) {
  Span s;
  s.id = static_cast<int64_t>(spans_.size());
  s.parent = parent;
  s.layer = std::move(layer);
  s.name = std::move(name);
  s.start_us = NowUs();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void PassTrace::Close(int64_t id) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.dur_us = NowUs() - s.start_us;
}

void PassTrace::AddEngineSpans(const std::vector<TraceSpan>& engine_spans,
                               double recorder_epoch_us,
                               const runtime::Metrics& metrics,
                               const std::vector<int64_t>& hosts) {
  const int64_t base = static_cast<int64_t>(spans_.size());
  // Engine span ids are dense from 0 within one recorder snapshot, but
  // map them explicitly so the splice never depends on that.
  std::map<int64_t, int64_t> id_map;
  for (size_t i = 0; i < engine_spans.size(); ++i) {
    id_map[engine_spans[i].id] = base + static_cast<int64_t>(i);
  }
  std::map<int64_t, bool> stage_wide;  // engine stage span id -> wide
  for (const TraceSpan& t : engine_spans) {
    if (t.kind == SpanKind::kStage && t.metrics_index >= 0 &&
        t.metrics_index < metrics.num_stages()) {
      stage_wide[t.id] = metrics.stages()[t.metrics_index].wide;
    }
  }
  for (const TraceSpan& t : engine_spans) {
    Span s;
    s.id = id_map[t.id];
    s.layer = std::string("engine.") + runtime::SpanKindName(t.kind);
    s.name = t.name;
    s.start_us = t.start_us + recorder_epoch_us;
    s.dur_us = t.dur_us;
    s.process = t.process;
    s.worker = t.worker;
    if (t.kind == SpanKind::kWave) {
      auto it = stage_wide.find(t.parent);
      s.wide = it != stage_wide.end() && it->second;
    }
    auto parent = id_map.find(t.parent);
    if (parent != id_map.end()) {
      s.parent = parent->second;
    } else {
      // Root engine span: charge it to the innermost benchmark span that
      // was open when it started (hosts are listed outermost first).
      s.parent = -1;
      for (int64_t h : hosts) {
        const Span& host = spans_[static_cast<size_t>(h)];
        if (s.start_us >= host.start_us &&
            s.start_us <= host.start_us + host.dur_us) {
          s.parent = h;
        }
      }
    }
    spans_.push_back(std::move(s));
  }
}

std::vector<double> PassTrace::SelfTimesUs() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].push_back(
          {s.start_us, s.start_us + s.dur_us});
    }
  }
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double lo = spans_[i].start_us;
    const double hi = lo + spans_[i].dur_us;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0, cur_lo = 0, cur_hi = -1;
    for (auto [a, b] : kids) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (a > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
      } else {
        cur_hi = std::max(cur_hi, b);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, spans_[i].dur_us - covered);
  }
  return self;
}

std::string WaveRole(const Span& wave) {
  const std::string& n = wave.name;
  auto ends_with = [&](const std::string& suffix) {
    return n.size() >= suffix.size() &&
           n.compare(n.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  if (ends_with(".combine")) return "combine";
  if (n == "shuffle" || ends_with(".shuffle")) return "shuffle";
  // The paper's ⊳ merges: arrayMerge, mergeInc and their waves.
  if (n.find("merge") != std::string::npos ||
      n.find("Merge") != std::string::npos) {
    return "merge";
  }
  return wave.wide ? "reduce" : "narrow";
}

PassLedger Summarize(const PassTrace& trace) {
  const std::vector<Span>& spans = trace.spans();
  const std::vector<double> self = trace.SelfTimesUs();
  // The hand-written run is timed next to the pass, not inside it: its
  // span and everything beneath it stay out of the pass layers.
  std::vector<bool> under_hand(spans.size(), false);
  std::vector<std::vector<size_t>> tasks_of(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t p = spans[i].parent;  // parents precede children
    under_hand[i] = spans[i].layer == "hand" ||
                    (p >= 0 && under_hand[static_cast<size_t>(p)]);
    if (spans[i].layer == "engine.task" && p >= 0) {
      tasks_of[static_cast<size_t>(p)].push_back(i);
    }
  }
  PassLedger out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (under_hand[i]) continue;
    if (s.layer == "pass") out.pass_s += s.dur_us * 1e-6;
    out.self_s[s.layer] += self[i] * 1e-6;
    if (s.layer != "engine.wave") continue;
    const double wave_s = s.dur_us * 1e-6;
    out.wave_s[WaveRole(s)] += wave_s;
    out.wave_s_total += wave_s;
    double busy = 0, mx = 0;
    bool remote = false;
    for (size_t t : tasks_of[i]) {
      const double d = spans[t].dur_us * 1e-6;
      busy += d;
      mx = std::max(mx, d);
      remote = remote || spans[t].process > 0;
    }
    out.task_busy_s += busy;
    if (!tasks_of[i].empty()) {
      out.wave_task_max_s += mx;
      out.wave_task_mean_s += busy / static_cast<double>(tasks_of[i].size());
    }
    if (remote) {
      out.dist_wave_s += wave_s;
      out.dist_worker_busy_s += busy;
    }
  }
  return out;
}

namespace {

void JsonString(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << ' ';
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

void WriteChromeTrace(const std::vector<Span>& spans, std::ostream& os) {
  double epoch = spans.empty() ? 0 : spans.front().start_us;
  for (const Span& s : spans) epoch = std::min(epoch, s.start_us);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const Span& s : spans) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"ph\":\"X\",\"name\":";
    JsonString(os, s.name.empty() ? s.layer : s.name);
    os << ",\"cat\":";
    JsonString(os, s.layer);
    os << ",\"ts\":" << (s.start_us - epoch) << ",\"dur\":" << s.dur_us
       << ",\"pid\":" << s.process << ",\"tid\":" << s.worker
       << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool TailPercentile(std::vector<double> v, double* value, double* percentile) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n < 11) {
    *value = n == 0 ? 0 : v.back();
    *percentile = 100;
    return false;
  }
  *value = v[n - 11];
  *percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return true;
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

}  // namespace diablo::bench_e2e
