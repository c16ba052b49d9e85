// The benchmark's own arithmetic, kept apart from the workload driver
// so selftest.cpp can check it without running a single job:
//
//   * percentile selection over raw per-job samples (nearest rank),
//     with the count of samples lying beyond the percentile;
//   * the failed-job tally behind `failed_fraction`;
//   * in-memory spans, self time (a span minus the part of it its
//     child spans cover) and the Chrome trace-event JSON writer;
//   * a small JSON well-formedness checker for the trace file.
#pragma once

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ---- Percentiles -----------------------------------------------------------

struct Percentile {
  double value = 0.0;
  std::size_t count = 0;   // samples the percentile was selected from
  std::size_t beyond = 0;  // samples strictly after the selected rank
  // The choosing-metrics rule: a percentile is reportable only when at
  // least this many samples lie beyond it.
  static constexpr std::size_t kMinBeyond = 10;
  bool resolved() const noexcept { return beyond >= kMinBeyond; }
};

// Nearest-rank percentile: the ceil(q*n)-th smallest sample (1-based),
// never interpolated, so the value is always one measured sample.
inline Percentile percentile(std::vector<double> samples, double q) {
  Percentile p;
  p.count = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  const double exact = q * static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  p.value = samples[rank - 1];
  p.beyond = samples.size() - rank;
  return p;
}

// Smallest sample count whose q-percentile has kMinBeyond samples
// beyond it.
inline std::size_t min_samples_for(double q) {
  std::size_t n = 1;
  while (percentile(std::vector<double>(n, 0.0), q).beyond <
         Percentile::kMinBeyond) {
    ++n;
  }
  return n;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- Failed-job tally ------------------------------------------------------

enum class JobOutcome {
  kOk,
  kRejected,      // refused at admission
  kExpired,       // deadline passed before the job finished
  kUnsuccessful,  // ran, but the report says success=false
  kWrongAnswer,   // success=true, but an answer differs from the reference
};

struct Tally {
  std::size_t attempted = 0;
  std::size_t rejected = 0;
  std::size_t expired = 0;
  std::size_t unsuccessful = 0;
  std::size_t wrong = 0;

  void add(JobOutcome o) {
    ++attempted;
    switch (o) {
      case JobOutcome::kOk: break;
      case JobOutcome::kRejected: ++rejected; break;
      case JobOutcome::kExpired: ++expired; break;
      case JobOutcome::kUnsuccessful: ++unsuccessful; break;
      case JobOutcome::kWrongAnswer: ++wrong; break;
    }
  }
  void merge(const Tally& o) {
    attempted += o.attempted;
    rejected += o.rejected;
    expired += o.expired;
    unsuccessful += o.unsuccessful;
    wrong += o.wrong;
  }
  std::size_t failed() const noexcept {
    return rejected + expired + unsuccessful + wrong;
  }
  std::size_t succeeded() const noexcept { return attempted - failed(); }
  double failed_fraction() const noexcept {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed()) /
                                static_cast<double>(attempted);
  }
};

// ---- Spans -----------------------------------------------------------------

struct Span {
  std::string name;  // "<layer>.<call>", e.g. "rs.decode"
  double start = 0.0;  // seconds since the tracer's epoch
  double end = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = -1;  // -1 = root
  std::uint64_t job = 0;
  unsigned tid = 0;

  double duration() const noexcept { return end - start; }
  // Text before the first '.', the layer the span is charged to.
  std::string layer() const { return name.substr(0, name.find('.')); }
};

// Length of the union of [s, e) intervals clipped to [lo, hi).
inline double covered(std::vector<std::pair<double, double>> iv, double lo,
                      double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double cur_s = 0.0, cur_e = 0.0;
  bool open = false;
  for (auto [s, e] : iv) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (e <= s) continue;
    if (open && s <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) total += cur_e - cur_s;
    cur_s = s;
    cur_e = e;
    open = true;
  }
  if (open) total += cur_e - cur_s;
  return total;
}

// Self time of every span: its duration minus the part of it that
// its direct children cover (overlapping children count once).
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::map<std::int64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (it != index.end()) kids[it->second].emplace_back(s.start, s.end);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration() -
              covered(kids[i], spans[i].start, spans[i].end);
  }
  return self;
}

struct LayerTime {
  double total = 0.0;
  double self = 0.0;
  std::size_t spans = 0;
};

inline std::map<std::string, LayerTime> layer_times(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTime& lt = out[spans[i].layer()];
    lt.total += spans[i].duration();
    lt.self += self[i];
    ++lt.spans;
  }
  return out;
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

// Chrome trace-event JSON ("X" complete events, microseconds), the
// format chrome://tracing and Perfetto open directly.
inline std::string chrome_trace_json(const std::vector<Span>& spans) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i != 0) out += ',';
    out += "\n{\"name\":\"" + json_escape(s.name) + "\",\"cat\":\"" +
           json_escape(s.layer()) + "\",\"ph\":\"X\"";
    std::snprintf(buf, sizeof(buf),
                  ",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"id\":%lld,\"parent\":%lld,\"job\":%llu}}",
                  s.start * 1e6, s.duration() * 1e6, s.tid,
                  static_cast<long long>(s.id),
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.job));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

// Collects spans in memory; written out once, at exit. A disabled
// tracer records nothing and costs one branch per scope.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const noexcept { return enabled_; }

  double now() const {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }
  double to_seconds(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration<double>(t - epoch_).count();
  }

  std::int64_t next_id() { return next_id_.fetch_add(1); }

  void record(Span s) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::atomic<std::int64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span around one call into a layer. Nested scopes on one
// thread parent automatically; the job id is inherited from the
// enclosing scope unless given.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t job = 0)
      : tracer_(tracer) {
    if (!tracer_.enabled()) return;
    span_.name = name;
    span_.id = tracer_.next_id();
    span_.parent = current_id();
    span_.job = job != 0 ? job : current_job();
    span_.tid = thread_index();
    prev_id_ = current_id();
    prev_job_ = current_job();
    current_id() = span_.id;
    current_job() = span_.job;
    span_.start = tracer_.now();
  }
  ~Scope() {
    if (!tracer_.enabled()) return;
    span_.end = tracer_.now();
    current_id() = prev_id_;
    current_job() = prev_job_;
    tracer_.record(std::move(span_));
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  // Id of the innermost open scope on this thread (-1 = none): the
  // parent to give spans recorded by hand from other threads.
  static std::int64_t current_span() { return current_id(); }

 private:
  static std::int64_t& current_id() {
    thread_local std::int64_t id = -1;
    return id;
  }
  static std::uint64_t& current_job() {
    thread_local std::uint64_t job = 0;
    return job;
  }
  static unsigned thread_index() {
    static std::atomic<unsigned> next{1};
    thread_local unsigned idx = next.fetch_add(1);
    return idx;
  }

  Tracer& tracer_;
  Span span_;
  std::int64_t prev_id_ = -1;
  std::uint64_t prev_job_ = 0;
};

// ---- JSON well-formedness ---------------------------------------------------

// Recursive-descent check of RFC 8259 syntax (no semantic checks).
class JsonChecker {
 public:
  static bool well_formed(const std::string& text) {
    JsonChecker c(text);
    c.ws();
    if (!c.value()) return false;
    c.ws();
    return c.i_ == text.size();
  }

 private:
  explicit JsonChecker(const std::string& t) : t_(t) {}

  bool value() {
    if (i_ >= t_.size()) return false;
    switch (t_[i_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++i_;
    ws();
    if (peek('}')) return ++i_, true;
    while (true) {
      ws();
      if (!string()) return false;
      ws();
      if (!peek(':')) return false;
      ++i_;
      ws();
      if (!value()) return false;
      ws();
      if (peek('}')) return ++i_, true;
      if (!peek(',')) return false;
      ++i_;
    }
  }
  bool array() {
    ++i_;
    ws();
    if (peek(']')) return ++i_, true;
    while (true) {
      ws();
      if (!value()) return false;
      ws();
      if (peek(']')) return ++i_, true;
      if (!peek(',')) return false;
      ++i_;
    }
  }
  bool string() {
    if (!peek('"')) return false;
    ++i_;
    while (i_ < t_.size()) {
      const char c = t_[i_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        if (i_ >= t_.size()) return false;
        const char e = t_[i_++];
        if (e == 'u') {
          for (int k = 0; k < 4; ++k, ++i_) {
            if (i_ >= t_.size() || !std::isxdigit(
                                       static_cast<unsigned char>(t_[i_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
    }
    return false;
  }
  bool number() {
    const std::size_t start = i_;
    if (peek('-')) ++i_;
    if (!digits()) return false;
    if (t_[start] == '-' ? (t_[start + 1] == '0' && i_ - start > 2)
                         : (t_[start] == '0' && i_ - start > 1)) {
      return false;  // leading zero
    }
    if (peek('.')) {
      ++i_;
      if (!digits()) return false;
    }
    if (peek('e') || peek('E')) {
      ++i_;
      if (peek('+') || peek('-')) ++i_;
      if (!digits()) return false;
    }
    return true;
  }
  bool digits() {
    const std::size_t start = i_;
    while (i_ < t_.size() && std::isdigit(static_cast<unsigned char>(t_[i_]))) {
      ++i_;
    }
    return i_ > start;
  }
  bool literal(const char* word) {
    const std::string w(word);
    if (t_.compare(i_, w.size(), w) != 0) return false;
    i_ += w.size();
    return true;
  }
  bool peek(char c) const { return i_ < t_.size() && t_[i_] == c; }
  void ws() {
    while (i_ < t_.size() &&
           (t_[i_] == ' ' || t_[i_] == '\n' || t_[i_] == '\r' ||
            t_[i_] == '\t')) {
      ++i_;
    }
  }

  const std::string& t_;
  std::size_t i_ = 0;
};

}  // namespace perfbench
