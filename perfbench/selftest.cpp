// Self-test of the benchmark's own arithmetic (harness.hpp): the
// percentile rule, the failed-job tally, self time and the trace JSON.
// run.py runs it before every benchmark run; a failure stops the run.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void percentiles() {
  using perfbench::percentile;
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  const perfbench::Percentile p90 = percentile(v, 0.90);
  check(near(p90.value, 90.0), "p90 of 1..100 is the 90th sample");
  check(p90.count == 100 && p90.beyond == 10, "p90 of 100: 10 beyond");
  check(p90.resolved(), "100 samples resolve p90");
  const perfbench::Percentile p50 = percentile(v, 0.50);
  check(near(p50.value, 50.0) && p50.beyond == 50, "p50 of 1..100");

  v.pop_back();  // 99 samples: rank ceil(89.1) = 90, 9 beyond
  const perfbench::Percentile short90 = percentile(v, 0.90);
  check(short90.beyond == 9 && !short90.resolved(),
        "99 samples leave p90 unresolved");
  check(perfbench::min_samples_for(0.90) == 100, "p90 needs 100 samples");
  check(perfbench::min_samples_for(0.50) == 20, "p50 needs 20 samples");

  check(percentile({}, 0.9).count == 0, "empty input");
  check(near(percentile({7.0}, 0.9).value, 7.0), "single sample");
  check(near(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5), "even median");
}

void tally() {
  perfbench::Tally t;
  using O = perfbench::JobOutcome;
  for (O o : {O::kOk, O::kOk, O::kRejected, O::kExpired, O::kUnsuccessful,
              O::kWrongAnswer, O::kOk, O::kOk}) {
    t.add(o);
  }
  check(t.attempted == 8, "attempted counts every job");
  check(t.failed() == 4, "rejected+expired+unsuccessful+wrong all fail");
  check(t.succeeded() == 4, "successes exclude every failure kind");
  check(near(t.failed_fraction(), 0.5), "failed_fraction = 4/8");
  check(near(perfbench::Tally{}.failed_fraction(), 0.0), "empty tally");
}

perfbench::Span span(const char* name, double s, double e, long id,
                     long parent) {
  perfbench::Span sp;
  sp.name = name;
  sp.start = s;
  sp.end = e;
  sp.id = id;
  sp.parent = parent;
  return sp;
}

void self_time() {
  // root [0,10) with children [1,3), [2,5) (overlap), [8,12) (clipped
  // to the parent), and a grandchild inside [1,3).
  const std::vector<perfbench::Span> spans = {
      span("a.root", 0, 10, 1, -1), span("b.x", 1, 3, 2, 1),
      span("b.y", 2, 5, 3, 1),      span("c.z", 8, 12, 4, 1),
      span("d.g", 1.5, 2.5, 5, 2),
  };
  const std::vector<double> self = perfbench::self_times(spans);
  check(near(self[0], 10.0 - 4.0 - 2.0), "root self = 10 - [1,5) - [8,10)");
  check(near(self[1], 2.0 - 1.0), "child self excludes its grandchild");
  check(near(self[2], 3.0), "leaf self = duration");
  check(near(self[3], 4.0), "span past its parent keeps its own duration");
  const auto layers = perfbench::layer_times(spans);
  check(near(layers.at("b").total, 5.0) && near(layers.at("b").self, 4.0),
        "layer totals sum spans by prefix");
  check(near(perfbench::covered({{0, 1}, {1, 2}, {5, 6}}, 0, 10), 3.0),
        "touching intervals merge");
}

void trace_json() {
  using perfbench::JsonChecker;
  const std::vector<perfbench::Span> spans = {
      span("rs.decode", 0.001, 0.002, 1, -1),
      span("odd \"name\"\\\n", 0.0, 1.0, 2, 1),
  };
  const std::string json = perfbench::chrome_trace_json(spans);
  check(JsonChecker::well_formed(json), "trace JSON is well formed");
  check(json.find("\"ph\":\"X\"") != std::string::npos, "complete events");
  check(json.find("\"ts\":1000.000") != std::string::npos, "microseconds");
  check(JsonChecker::well_formed(perfbench::chrome_trace_json({})),
        "empty trace is well formed");
  for (const char* bad : {"{", "{\"a\":}", "[1,]", "{\"a\" 1}", "01",
                          "\"\\x\"", "[1] x", "-", "1.", "tru"}) {
    check(!JsonChecker::well_formed(bad), bad);
  }
  for (const char* good : {"{}", "[]", "-0.5e+3", "\"\\u00e9\"",
                           "{\"a\":[true,false,null,{\"b\":1}]}"}) {
    check(JsonChecker::well_formed(good), good);
  }
}

}  // namespace

int main() {
  percentiles();
  tally();
  self_time();
  trace_json();
  if (g_failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("selftest: ok\n");
  return 0;
}
