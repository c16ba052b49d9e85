// Camelot proof-service benchmark: one binary, four workloads.
//
//   camelot_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--shardd <path>] [--trace-out <file>]
//
// --trace 0 runs the workload with tracing off and prints the
// end-to-end metrics (jobs_per_s, latency_p50_s, latency_p90_s,
// setup_s, peak_rss_mb; failed_fraction rides in attempted/failed).
// --trace 1 is a separate run on the same inputs that records spans
// around the public calls into each layer, reads the service's own
// counters and stage histograms, and prints the per-layer metrics.
// Either way the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Every job's answers are compared with references computed by brute
// force before the timed window; a wrong answer makes the run exit 1.
// The library is driven only through its public entry points:
// ProofService::submit for the service workloads, ShardCoordinator::run
// for the fleet, and the staged ProofSession / evaluator / rs / poly /
// verifier / crt calls for the traced per-layer split.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "apps/ov.hpp"
#include "core/byzantine.hpp"
#include "core/erasure_stream.hpp"
#include "core/proof_service.hpp"
#include "core/proof_session.hpp"
#include "core/rng.hpp"
#include "core/shard.hpp"
#include "core/symbol_stream.hpp"
#include "core/verifier.hpp"
#include "count/clique_camelot.hpp"
#include "count/triangle_camelot.hpp"
#include "field/crt.hpp"
#include "field/field_cache.hpp"
#include "field/field_ops.hpp"
#include "graph/brute.hpp"
#include "graph/generators.hpp"
#include "harness.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "rs/code_cache.hpp"
#include "rs/gao.hpp"
#include "rs/reed_solomon.hpp"

// ---- operator-new interposition ------------------------------------------
// Counts every heap allocation in this process, so arena.allocs_per_job
// is an exact count over a window of jobs.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t n) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}
void* counted_aligned_alloc(std::size_t n, std::size_t align) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t rounded = (n + align - 1) / align * align;
  return std::aligned_alloc(align, rounded != 0 ? rounded : align);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = counted_aligned_alloc(n, static_cast<std::size_t>(a))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  if (void* p = counted_aligned_alloc(n, static_cast<std::size_t>(a))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace camelot;
using perfbench::JobOutcome;
using perfbench::Scope;
using perfbench::Tally;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// ---- Workloads -------------------------------------------------------------

enum class Front { kService, kFleet };

constexpr std::size_t kShards = 2;       // shardd processes per fleet
constexpr std::size_t kColdStarts = 11;   // setup_s = median of these
constexpr std::size_t kProbeInputs = 4;   // staged sessions per traced run

ClusterConfig single_thread() {
  ClusterConfig c;
  c.num_threads = 1;  // 0 would mean all cores in a shardd worker
  return c;
}

struct Workload {
  std::string name;
  Front front = Front::kService;
  std::size_t pool = 16;        // distinct inputs, cycled through
  bool open_loop = false;
  double rate = 0.0;            // open loop: scheduled jobs per second
  std::size_t outstanding = 1;  // closed loop: jobs in flight
  // ProofService worker threads (the fleet runs kShards workers), each
  // evaluating one job on one thread: two compute threads on a 4-vCPU
  // host, so a shared host's neighbours slow a run less.
  unsigned workers = 2;
  ClusterConfig config = single_thread();
  std::size_t corrupt = 0;      // kRandom byzantine nodes per job
  double loss_rate = 0.0;       // erasure transport drop rate
  std::string (*spec)(u64 seed) = nullptr;
};

std::string ov_spec(u64 s) { return "ov:48:24:0.35:" + std::to_string(s); }
std::string clique_spec(u64 s) {
  return "clique:8:22:6:" + std::to_string(s);
}
std::string triangle_spec(u64 s) {
  return "triangle:64:600:" + std::to_string(s);
}

std::vector<Workload> workloads() {
  std::vector<Workload> w;
  {
    Workload x;
    x.name = "ov-clean";
    x.outstanding = 2;
    x.config.num_nodes = 8;
    x.config.redundancy = 2.0;
    x.config.num_primes = 4;
    x.spec = ov_spec;
    w.push_back(x);
  }
  {
    Workload x;
    x.name = "ov-byzantine-lossy";
    x.outstanding = 2;
    x.config.num_nodes = 16;
    x.config.redundancy = 4.0;
    x.config.num_primes = 4;
    // Each repair round re-draws the 2% loss schedule, so a position
    // is still missing after r rounds with probability 0.02^(r+1).
    // Five rounds keep e * 0.02^6 below 1e-6 per prime: no job fails.
    x.config.repair_budget = 5;
    x.corrupt = 5;
    x.loss_rate = 0.02;
    x.spec = ov_spec;
    w.push_back(x);
  }
  {
    Workload x;
    x.name = "clique6-open";
    x.open_loop = true;
    // About 55% of the closed-loop capacity of two single-thread
    // workers (~22 jobs/s), so jobs queue now and then but no backlog
    // builds.
    x.rate = 12.0;
    x.outstanding = 2;  // warm-up only; the window is open loop
    x.pool = 64;
    x.config.num_nodes = 8;
    x.spec = clique_spec;
    w.push_back(x);
  }
  {
    // Runnable, but not a BENCHMARK.json workload: a job waits for the
    // slower of its two shards, which prime partition fixes statically,
    // so on a shared host its latency flips between ~21 and ~34 ms
    // (ten-seed spread up to 31%) as the host moves the two vCPUs.
    // The service workloads' traced runs still measure core/shard.
    Workload x;
    x.name = "triangle-fleet";
    x.front = Front::kFleet;
    x.pool = 64;
    x.outstanding = 1;
    x.config.num_nodes = 8;
    x.spec = triangle_spec;
    w.push_back(x);
  }
  return w;
}

// ---- Inputs and references -------------------------------------------------

struct Input {
  std::string spec;
  std::shared_ptr<const CamelotProblem> problem;
  std::function<bool(const std::vector<BigInt>&)> matches;
  std::shared_ptr<const ByzantineAdversary> adversary;
  std::vector<std::size_t> corrupt_nodes;
  u64 adversary_seed = 0;
};

std::vector<std::string> split(const std::string& s) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = s.find(':', start);
    parts.push_back(s.substr(start, colon - start));
    if (colon == std::string::npos) return parts;
    start = colon + 1;
  }
}

// The reference answer comes from an algorithm independent of the
// proof pipeline: brute-force counting on the same generated input.
std::function<bool(const std::vector<BigInt>&)> reference_for(
    const std::string& spec, const CamelotProblem& problem) {
  const std::vector<std::string> p = split(spec);
  const auto num = [&](std::size_t i) {
    return std::strtoull(p[i].c_str(), nullptr, 10);
  };
  if (p[0] == "ov") {
    const u64 seed = num(4);
    const double density = std::strtod(p[3].c_str(), nullptr);
    const std::vector<u64> want = count_orthogonal_brute(
        BoolMatrix::random(num(1), num(2), density, seed),
        BoolMatrix::random(num(1), num(2), density, seed + 1));
    return [want](const std::vector<BigInt>& got) {
      if (got.size() != want.size()) return false;
      for (std::size_t i = 0; i < want.size(); ++i) {
        if (got[i] != BigInt::from_u64(want[i])) return false;
      }
      return true;
    };
  }
  if (p[0] == "clique") {
    const u64 want = count_k_cliques_brute(gnm(num(1), num(2), num(4)), num(3));
    const auto& cp = dynamic_cast<const CliqueCountProblem&>(problem);
    return [want, &cp](const std::vector<BigInt>& got) {
      return got.size() == 1 &&
             cp.cliques_from_answer(got[0]) == BigInt::from_u64(want);
    };
  }
  const u64 want = count_triangles_brute(gnm(num(1), num(2), num(3)));
  return [want](const std::vector<BigInt>& got) {
    return got.size() == 1 &&
           TriangleCountProblem::triangles_from_answer(got[0]) ==
               BigInt::from_u64(want);
  };
}

std::vector<Input> make_pool(const Workload& w, u64 seed) {
  std::vector<Input> pool;
  for (std::size_t i = 0; i < w.pool; ++i) {
    const u64 s = splitmix64((seed << 8) + i + 0x5EED) & 0xFFFFFFFFull;
    Input in;
    in.spec = w.spec(s);
    in.problem = make_problem_from_spec(in.spec);
    in.matches = reference_for(in.spec, *in.problem);
    if (w.corrupt > 0) {
      std::vector<std::size_t> nodes(w.config.num_nodes);
      for (std::size_t j = 0; j < nodes.size(); ++j) nodes[j] = j;
      std::mt19937_64 rng(splitmix64(s ^ 0xB12A57ull));
      std::shuffle(nodes.begin(), nodes.end(), rng);
      nodes.resize(w.corrupt);
      std::sort(nodes.begin(), nodes.end());
      in.corrupt_nodes = nodes;
      in.adversary_seed = splitmix64(s ^ 0xAD7E25A2ull);
      in.adversary = std::make_shared<ByzantineAdversary>(
          nodes, ByzantineStrategy::kRandom, in.adversary_seed);
    }
    pool.push_back(std::move(in));
  }
  return pool;
}

u64 loss_seed_for(u64 seed, std::uint64_t job) {
  return splitmix64(seed ^ (job * 0x9E3779B97F4A7C15ull));
}

JobOutcome classify(const RunReport& r, const Input& in) {
  if (r.status == JobStatus::kRejected) return JobOutcome::kRejected;
  if (r.status == JobStatus::kDeadlineExpired) return JobOutcome::kExpired;
  if (!r.success) return JobOutcome::kUnsuccessful;
  return in.matches(r.answers) ? JobOutcome::kOk : JobOutcome::kWrongAnswer;
}

ShardJob shard_job(const Workload& w, const Input& in, u64 loss_seed) {
  ShardJob job;
  job.problem_spec = in.spec;
  job.config = w.config;
  job.loss_rate = w.loss_rate;
  job.loss_seed = loss_seed;
  if (in.adversary != nullptr) {
    job.adversary = true;
    job.corrupt_nodes = in.corrupt_nodes;
    job.strategy = ByzantineStrategy::kRandom;
    job.adversary_seed = in.adversary_seed;
  }
  return job;
}

// ---- Load generation -------------------------------------------------------

// Exact per-job facts kept from each report (the reports themselves
// are dropped as soon as they are checked).
struct JobRecord {
  std::size_t input = 0;
  double latency = 0.0;  // from submit (closed) or due time (open)
  double ready = 0.0;    // seconds since the window opened
  JobOutcome outcome = JobOutcome::kOk;
  std::size_t quotient_steps = 0;
  std::size_t hgcd_calls = 0;
  std::size_t corrected = 0;
  std::size_t repair_rounds = 0;
  std::size_t repaired_symbols = 0;
  std::size_t codeword_symbols = 0;
};

JobRecord record_of(const RunReport& r, const Input& in, std::size_t input) {
  JobRecord rec;
  rec.input = input;
  rec.outcome = classify(r, in);
  for (const PrimeRunReport& p : r.per_prime) {
    rec.quotient_steps += p.decode_quotient_steps;
    rec.hgcd_calls += p.decode_hgcd_calls;
    rec.corrected += p.corrected_symbols.size();
    rec.repair_rounds += p.repair_rounds;
    rec.repaired_symbols += p.repaired_symbols;
  }
  rec.codeword_symbols = r.code_length * r.num_primes;
  return rec;
}

struct LoopResult {
  std::vector<JobRecord> jobs;
  std::vector<double> lateness;
  double window = 0.0;  // window open -> last completion
  Tally tally;

  std::vector<double> latencies() const {
    std::vector<double> v;
    v.reserve(jobs.size());
    for (const JobRecord& j : jobs) v.push_back(j.latency);
    return v;
  }
  double jobs_per_s() const {
    return window > 0.0 ? static_cast<double>(tally.succeeded()) / window
                        : 0.0;
  }
};

// The window closes once `seconds` have passed *and* enough jobs were
// sent for the p90 to have kMinBeyond samples beyond it (hard stop at
// three times a nonzero window).
bool window_done(Clock::time_point t0, double seconds, std::size_t sent,
                 std::size_t min_jobs) {
  const double el = secs(Clock::now() - t0);
  return (el >= seconds && sent >= min_jobs) ||
         (seconds > 0.0 && el >= 3.0 * seconds);
}

struct LoopSpec {
  double seconds = 0.0;
  std::size_t min_jobs = 0;
  std::uint64_t first_job = 0;
  bool open_loop = false;
  double rate = 0.0;
  std::size_t outstanding = 1;
};

// Drives a ProofService: one sender thread submits, one waiter per
// job in flight blocks on its future, so every completion is
// timestamped the moment its report is ready.
LoopResult service_loop(ProofService& service, const Workload& w,
                        const std::vector<Input>& pool, u64 seed,
                        const LoopSpec& ls, Tracer& tracer) {
  struct Pending {
    std::uint64_t job;
    std::size_t input;
    Clock::time_point start;  // latency origin
    std::future<RunReport> fut;
  };
  LoopResult out;
  out.jobs.reserve(4096);
  out.lateness.reserve(4096);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> pending;
  std::deque<Clock::time_point> free_slots;  // closed loop: slot freed at
  bool sending_done = false;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < ls.outstanding; ++i) free_slots.push_back(t0);

  const std::int64_t parent = Scope::current_span();
  const std::size_t num_waiters = ls.open_loop ? 16 : ls.outstanding;
  std::vector<std::thread> waiters;
  // Releases and joins the waiters on every exit path, so no thread
  // outlives the state above even if submit() throws.
  struct Joiner {
    std::mutex& mu;
    std::condition_variable& cv;
    bool& done;
    std::vector<std::thread>& threads;
    ~Joiner() {
      {
        std::lock_guard<std::mutex> lock(mu);
        done = true;
      }
      cv.notify_all();
      for (std::thread& t : threads) t.join();
    }
  };
  {
    Joiner joiner{mu, cv, sending_done, waiters};
    for (std::size_t i = 0; i < num_waiters; ++i) {
      waiters.emplace_back([&] {
        while (true) {
          Pending p;
          {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return !pending.empty() || sending_done; });
            if (pending.empty()) return;
            p = std::move(pending.front());
            pending.pop_front();
          }
          RunReport r;
          try {
            r = p.fut.get();
          } catch (const std::exception& e) {
            std::fprintf(stderr, "job %llu threw: %s\n",
                         static_cast<unsigned long long>(p.job), e.what());
            r.success = false;  // counted as an unsuccessful job
          }
          const Clock::time_point ready = Clock::now();
          if (tracer.enabled()) {
            perfbench::Span s;
            s.name = "service.job";
            s.id = tracer.next_id();
            s.parent = parent;
            s.job = p.job + 1;
            s.start = tracer.to_seconds(p.start);
            s.end = tracer.to_seconds(ready);
            tracer.record(std::move(s));
          }
          JobRecord rec = record_of(r, pool[p.input], p.input);
          rec.latency = secs(ready - p.start);
          rec.ready = secs(ready - t0);
          std::lock_guard<std::mutex> lock(mu);
          out.jobs.push_back(rec);
          out.tally.add(rec.outcome);
          if (!ls.open_loop) free_slots.push_back(ready);
          cv.notify_all();
        }
      });
    }

    for (std::uint64_t k = 0;; ++k) {
      Clock::time_point due;
      if (ls.open_loop) {
        due = t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(k / ls.rate));
        std::this_thread::sleep_until(due);
      } else {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !free_slots.empty(); });
        due = free_slots.front();
        free_slots.pop_front();
      }
      if (window_done(t0, ls.seconds, k, ls.min_jobs)) break;
      const std::uint64_t job = ls.first_job + k;
      const std::size_t input = job % pool.size();
      const Input& in = pool[input];
      SubmitOptions opts;
      opts.loss_rate = w.loss_rate;
      opts.loss_seed = loss_seed_for(seed, job);
      const Clock::time_point submitted = Clock::now();
      out.lateness.push_back(secs(submitted - due));
      std::future<RunReport> fut;
      {
        Scope span(tracer, "service.submit", job + 1);
        fut = service.submit(in.problem, w.config, in.adversary, opts);
      }
      std::lock_guard<std::mutex> lock(mu);
      pending.push_back(
          {job, input, ls.open_loop ? due : submitted, std::move(fut)});
      cv.notify_all();
    }
  }  // joiner: drain and join the waiters
  for (const JobRecord& j : out.jobs) {
    out.window = std::max(out.window, j.ready);
  }
  return out;
}

// Per-shard worker busy seconds, parsed from the last fleet_snapshot()
// scrapes: the worker's own job-latency histogram, which times each
// submit frame from receipt to its last prime report. (The stage
// histograms would count thread-seconds once a shard evaluates nodes
// on more than one thread.)
std::vector<double> shard_busy(const ShardCoordinator& coord) {
  std::vector<double> busy;
  for (const std::string& json : coord.last_shard_scrapes()) {
    double b = 0.0;
    if (!json.empty()) {
      for (const auto& [name, h] : obs::parse_json_snapshot(json).histograms) {
        if (name == "camelot_job_latency_seconds") b += h.sum_seconds;
      }
    }
    busy.push_back(b);
  }
  return busy;
}

// Drives a ShardCoordinator, one job at a time. With `overhead` set,
// every job is followed by a fleet scrape so each job's per-shard busy
// time is known, and latency minus the busiest worker's time lands in
// `overhead` (the scrape traffic is part of the tracing overhead).
LoopResult fleet_loop(ShardCoordinator& coord, const Workload& w,
                      const std::vector<Input>& pool, u64 seed,
                      const LoopSpec& ls, Tracer& tracer,
                      std::vector<double>* overhead) {
  const bool scrape = overhead != nullptr;
  LoopResult out;
  out.jobs.reserve(4096);
  std::vector<double> busy_prev;
  if (scrape) {
    coord.fleet_snapshot();
    busy_prev = shard_busy(coord);
  }
  const Clock::time_point t0 = Clock::now();
  Clock::time_point due = t0;
  for (std::uint64_t k = 0; !window_done(t0, ls.seconds, k, ls.min_jobs);
       ++k) {
    const std::uint64_t job = ls.first_job + k;
    const std::size_t input = job % pool.size();
    const Clock::time_point submitted = Clock::now();
    out.lateness.push_back(secs(submitted - due));
    RunReport r;
    {
      Scope span(tracer, "shard.job", job + 1);
      r = coord.run(shard_job(w, pool[input], loss_seed_for(seed, job)));
    }
    const Clock::time_point ready = Clock::now();
    JobRecord rec = record_of(r, pool[input], input);
    rec.latency = secs(ready - submitted);
    rec.ready = secs(ready - t0);
    out.jobs.push_back(rec);
    out.tally.add(rec.outcome);
    if (scrape) {
      coord.fleet_snapshot();
      std::vector<double> busy = shard_busy(coord);
      double worst = 0.0;
      for (std::size_t i = 0; i < busy.size() && i < busy_prev.size(); ++i) {
        worst = std::max(worst, busy[i] - busy_prev[i]);
      }
      overhead->push_back(rec.latency - worst);
      busy_prev = std::move(busy);
    }
    due = Clock::now();
  }
  out.window = out.jobs.empty() ? 0.0 : out.jobs.back().ready;
  return out;
}

// ---- Set-up time ------------------------------------------------------------

ShardOptions fleet_options(const std::string& shardd) {
  ShardOptions o;
  o.num_shards = kShards;
  o.shardd_path = shardd;
  return o;
}

ProofServiceConfig service_options(const Workload& w) {
  ProofServiceConfig c;
  c.num_workers = w.workers;
  return c;
}

// Cold front end -> first verified report. A fresh ProofService owns
// fresh field/code/plan caches, so every repetition is cold.
double cold_start(const Workload& w, const std::vector<Input>& pool, u64 seed,
                  const std::string& shardd, Tally& tally) {
  const Input& in = pool[0];
  if (w.front == Front::kFleet) {
    const Clock::time_point t0 = Clock::now();
    ShardCoordinator coord(fleet_options(shardd));
    const RunReport r = coord.run(shard_job(w, in, loss_seed_for(seed, 0)));
    const double s = secs(Clock::now() - t0);
    tally.add(classify(r, in));
    return s;
  }
  SubmitOptions opts;
  opts.loss_rate = w.loss_rate;
  opts.loss_seed = loss_seed_for(seed, 0);
  const Clock::time_point t0 = Clock::now();
  ProofService service(service_options(w));
  const RunReport r =
      service.submit(in.problem, w.config, in.adversary, opts).get();
  const double s = secs(Clock::now() - t0);
  tally.add(classify(r, in));
  return s;
}

// ---- Machine context --------------------------------------------------------

volatile u64 g_sink;

// bench_service's frozen calibration loop: hardware division of every
// 128-bit product, independent of the library, so its drift measures
// the machine rather than the code.
double division_ns_per_op() {
  const u64 q = 1099511627791ull;
  std::vector<u64> a(1 << 14), b(1 << 14);
  u64 x = 0x9E3779B97F4A7C15ull;
  for (auto& v : a) v = (x ^= x << 13, x ^= x >> 7, x ^= x << 17) % q;
  for (auto& v : b) v = (x ^= x << 13, x ^= x >> 7, x ^= x << 17) % q;
  double best = std::numeric_limits<double>::infinity();
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point t0 = Clock::now();
    u64 acc = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      acc ^= static_cast<u64>(static_cast<u128>(a[i]) * b[i] % q);
    }
    g_sink = acc;
    best = std::min(best, secs(Clock::now() - t0) * 1e9 /
                              static_cast<double>(a.size()));
  } while (secs(Clock::now() - start) < 0.2);
  return best;
}

std::string backend_rung() {
  switch (best_backend()) {
    case FieldBackend::kMontgomeryAvx512:
      return cpu_supports_avx512ifma() ? "avx512+ifma" : "avx512";
    case FieldBackend::kMontgomeryAvx2:
      return "avx2";
    default:
      return "scalar";
  }
}

double peak_rss_mb() {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  // ru_maxrss is in KiB; for children it is the largest reaped child.
  return static_cast<double>(self.ru_maxrss + kids.ru_maxrss) / 1024.0;
}

// ---- Output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Prints the result line and returns `correct`, cleared when a metric
// is not a finite number (JSON has no NaN; it would be a benchmark bug).
bool print_result(bool correct, const Tally& tally,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
      correct = false;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", tally.attempted, tally.failed());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_tally(const char* what, const Tally& t) {
  std::printf(
      "%s: attempted=%zu failed=%zu (rejected=%zu expired=%zu "
      "unsuccessful=%zu wrong=%zu) failed_fraction=%.6f (ratio)\n",
      what, t.attempted, t.failed(), t.rejected, t.expired, t.unsuccessful,
      t.wrong, t.failed_fraction());
}

// ---- Traced per-layer probe -------------------------------------------------

// What the staged sessions and the direct layer calls measured.
struct ProbeResult {
  std::map<std::string, std::vector<double>> per_job;   // stage.* sums
  std::map<std::string, std::vector<double>> per_call;  // one call each
  std::map<std::size_t, double> critical_path;  // by pool index
  double eval_points = 0.0, eval_seconds = 0.0;
  std::vector<double> node_cost_ratio;
  Tally tally;
};

template <typename Fn>
double timed(Tracer& tracer, const char* name, Fn&& fn) {
  Scope span(tracer, name);
  const Clock::time_point t0 = Clock::now();
  fn();
  return secs(Clock::now() - t0);
}

// Stand-alone sessions on the workload's own inputs, driven stage by
// stage through the per-prime API, plus direct calls into each layer
// at the (d, e, q) those sessions use. Private caches and registry:
// nothing here warms the global caches a measured run could touch.
ProbeResult staged_probe(const Workload& w, const std::vector<Input>& pool,
                         u64 seed, Tracer& tracer) {
  ProbeResult probe;
  auto fields = std::make_shared<FieldCache>();
  auto codes = std::make_shared<CodeCache>();
  auto registry = std::make_shared<obs::Registry>();
  ClusterConfig cfg = w.config;
  cfg.num_threads = 1;
  {
    // Warm the private caches so the stages below are steady-state,
    // as they are inside a warm service.
    ProofSession warm(*pool[0].problem, cfg, fields, nullptr, codes, registry);
    warm.run(pool[0].adversary.get());
  }
  for (std::size_t p = 0; p < kProbeInputs && p < pool.size(); ++p) {
    const Input& in = pool[p];
    const CamelotProblem& problem = *in.problem;
    const std::uint64_t job_id = 1000000 + p;
    Scope input_span(tracer, "probe.input", job_id);
    ProofSession s(problem, cfg, fields, nullptr, codes, registry);
    LosslessChannel lossless;
    std::unique_ptr<AdversarialChannel> adversarial;
    if (in.adversary) {
      adversarial = std::make_unique<AdversarialChannel>(*in.adversary);
    }
    const SymbolChannel& channel =
        adversarial ? static_cast<const SymbolChannel&>(*adversarial)
                    : lossless;
    std::map<std::string, double> job;
    double critical = 0.0;
    for (std::size_t pi = 0; pi < s.num_primes(); ++pi) {
      const double prep = timed(tracer, "session.prepare_prime",
                                [&] { s.prepare_prime(pi); });
      const double trans = timed(tracer, "session.transport_prime",
                                 [&] { s.transport_prime(pi, channel); });
      const double dec = timed(tracer, "session.decode_prime",
                               [&] { s.decode_prime(pi); });
      const double ver = timed(tracer, "session.verify_prime",
                               [&] { s.verify_prime(pi); });
      const double rec = timed(tracer, "session.recover_prime",
                               [&] { s.recover_prime(pi); });
      job["stage.prepare_s"] += prep;
      job["stage.transport_s"] += trans;
      job["stage.decode_s"] += dec;
      job["stage.verify_s"] += ver;
      job["stage.recover_s"] += rec;
      critical = std::max(critical, prep + trans + dec + ver + rec);
    }
    RunReport report;
    job["stage.report_s"] =
        timed(tracer, "session.report", [&] { report = s.report(); });
    probe.tally.add(classify(report, in));
    for (const auto& [k, v] : job) probe.per_job[k].push_back(v);
    probe.critical_path[p] = critical;

    // Direct layer calls at this input's (d, e, q).
    const ProofSpec spec = problem.spec();
    const std::size_t d = spec.degree_bound;
    const std::size_t e = s.plan().code_length;
    const std::size_t m = std::min(d + 1, e);
    const std::size_t k = cfg.num_nodes;
    std::vector<std::vector<u64>> residues(spec.answer_count);
    for (std::size_t pi = 0; pi < s.num_primes(); ++pi) {
      const u64 q = s.prime(pi);
      const FieldOps ops = fields->ops(q, 2 * e, cfg.backend);
      std::shared_ptr<const ReedSolomonCode> code = codes->code(ops, d, e);
      const std::vector<u64>& pts = code->points();
      std::vector<double> node_eval;
      for (std::size_t j = 0; j < k; ++j) {
        const std::size_t lo = (j * e + k - 1) / k;
        const std::size_t hi = std::min(m, ((j + 1) * e + k - 1) / k);
        if (hi <= lo) continue;  // parity-only node: no evaluator work
        std::unique_ptr<Evaluator> ev;
        probe.per_call["eval.build_s"].push_back(timed(
            tracer, "eval.build", [&] { ev = problem.make_evaluator(ops); }));
        const double t = timed(tracer, "eval.points", [&] {
          g_sink = ev->evaluate_points(
                         std::span<const u64>(pts.data() + lo, hi - lo))
                       .back();
        });
        node_eval.push_back(t);
        probe.eval_points += static_cast<double>(hi - lo);
        probe.eval_seconds += t;
      }
      if (p < 2) {
        probe.per_call["rs.code_build_s"].push_back(
            timed(tracer, "rs.code_build", [&] {
              ReedSolomonCode fresh(ops, d, e);
              g_sink = fresh.length();
            }));
      }
      const std::vector<u64>& sent = s.sent(pi);
      const std::vector<u64>& received = s.received(pi);
      probe.per_call["rs.extend_s"].push_back(timed(tracer, "rs.extend", [&] {
        g_sink = code->encode_systematic(
                         std::span<const u64>(sent.data(), m))
                     .back();
      }));
      GaoResult decoded;
      probe.per_call["rs.decode_s"].push_back(timed(
          tracer, "rs.decode", [&] { decoded = gao_decode(*code, received); }));
      probe.per_call["poly.interp_s"].push_back(
          timed(tracer, "poly.interp", [&] {
            g_sink = code->tree().interpolate(received, ops.prime()).c.size();
          }));
      probe.per_call["poly.multipoint_s"].push_back(
          timed(tracer, "poly.multipoint", [&] {
            g_sink = code->tree().evaluate(decoded.message, ops.prime()).back();
          }));
      std::unique_ptr<Evaluator> verifier = problem.make_evaluator(ops);
      const double v = timed(tracer, "verify.proof", [&] {
        g_sink = verify_proof_with(*verifier, decoded.message,
                                   cfg.verification_trials,
                                   splitmix64(seed ^ q))
                     .accepted;
      });
      probe.per_call["verify.s_per_prime"].push_back(v);
      probe.node_cost_ratio.push_back(v / perfbench::median(node_eval));
      const std::vector<u64>& res = s.prime_report(pi).answer_residues;
      for (std::size_t a = 0; a < res.size() && a < residues.size(); ++a) {
        residues[a].push_back(res[a]);
      }
    }
    std::vector<u64> primes;
    for (std::size_t pi = 0; pi < s.num_primes(); ++pi) {
      primes.push_back(s.prime(pi));
    }
    probe.per_job["field.crt_s"].push_back(timed(tracer, "field.crt", [&] {
      for (const auto& r : residues) {
        g_sink = (spec.answers_signed ? crt_reconstruct_signed(r, primes)
                                      : crt_reconstruct(r, primes))
                     .bit_length();
      }
    }));

    // Repair cost: the streaming pipeline over the erasure channel
    // (at the workload's loss rate) minus the same pipeline over the
    // channel beneath it.
    ProofSession streaming(problem, cfg, fields, nullptr, codes, registry);
    LosslessStreamingChannel clean;
    std::unique_ptr<AdversarialStreamingChannel> corrupting;
    if (in.adversary) {
      corrupting = std::make_unique<AdversarialStreamingChannel>(*in.adversary);
    }
    const StreamingSymbolChannel& inner =
        corrupting ? static_cast<const StreamingSymbolChannel&>(*corrupting)
                   : clean;
    const ErasureStreamingChannel lossy(
        LossSpec{w.loss_rate, loss_seed_for(seed, p)}, &inner);
    double repair = 0.0;
    for (std::size_t pi = 0; pi < streaming.num_primes(); ++pi) {
      const double base = timed(tracer, "transport.inner", [&] {
        streaming.run_prime_streaming(pi, inner);
      });
      const double with_loss = timed(tracer, "transport.erasure", [&] {
        streaming.run_prime_streaming(pi, lossy);
      });
      repair += with_loss - base;
    }
    probe.per_job["transport.repair_s"].push_back(repair);
    probe.tally.add(classify(streaming.report(), in));
  }
  return probe;
}

double fetch_median(const std::map<std::string, std::vector<double>>& m,
                    const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0.0 : perfbench::median(it->second);
}

// Stage histogram sums (seconds) from a registry snapshot.
std::map<std::string, double> stage_sums(const obs::Registry::Snapshot& s) {
  std::map<std::string, double> out;
  for (const auto& [name, h] : s.histograms) {
    for (const char* st : {"prepare", "transport", "decode", "verify",
                           "recover"}) {
      if (name == std::string("camelot_stage_") + st + "_seconds") {
        out[st] += h.sum_seconds;
      }
    }
  }
  return out;
}

std::int64_t gauge_of(const obs::Registry::Snapshot& s,
                      const std::string& name) {
  for (const auto& [n, v] : s.gauges) {
    if (n == name) return v;
  }
  return 0;
}

std::int64_t bandwidth_total(const obs::Registry::Snapshot& s) {
  std::int64_t total = 0;
  for (const auto& [n, v] : s.gauges) {
    if (n.rfind("camelot_shard_bandwidth_bytes_shard", 0) == 0) total += v;
  }
  return total;
}

// Job-facts averages over a window.
struct WindowFacts {
  double quotient_steps = 0, hgcd_calls = 0, corrected = 0;
  double repair_rounds = 0, repaired_symbols = 0, useful_ratio = 1.0;
};

WindowFacts facts_of(const LoopResult& r) {
  WindowFacts f;
  if (r.jobs.empty()) return f;
  double codeword = 0.0;
  for (const JobRecord& j : r.jobs) {
    f.quotient_steps += static_cast<double>(j.quotient_steps);
    f.hgcd_calls += static_cast<double>(j.hgcd_calls);
    f.corrected += static_cast<double>(j.corrected);
    f.repair_rounds += static_cast<double>(j.repair_rounds);
    f.repaired_symbols += static_cast<double>(j.repaired_symbols);
    codeword += static_cast<double>(j.codeword_symbols);
  }
  f.useful_ratio = codeword / (codeword + f.repaired_symbols);
  const double n = static_cast<double>(r.jobs.size());
  f.quotient_steps /= n;
  f.hgcd_calls /= n;
  f.corrected /= n;
  f.repair_rounds /= n;
  f.repaired_symbols /= n;
  return f;
}

// Median of job latency minus the job's critical path; inputs the
// probe did not run are charged the probed inputs' median path.
double queue_wait(const LoopResult& r, const ProbeResult& probe) {
  std::vector<double> paths;
  for (const auto& [input, path] : probe.critical_path) paths.push_back(path);
  const double fallback = perfbench::median(paths);
  std::vector<double> wait;
  for (const JobRecord& j : r.jobs) {
    auto it = probe.critical_path.find(j.input);
    wait.push_back(j.latency -
                   (it != probe.critical_path.end() ? it->second : fallback));
  }
  return perfbench::median(wait);
}

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string shardd = "./shardd";
  std::string trace_out;
};

void usage() {
  std::fprintf(stderr,
               "usage: camelot_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--shardd <path>] "
               "[--trace-out <file>]\nworkloads:");
  for (const Workload& w : workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--shardd") a.shardd = v;
    else if (k == "--trace-out") a.trace_out = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

// ---- The two run modes ------------------------------------------------------

int run_end_to_end(const Workload& w, const std::vector<Input>& pool,
                   const Args& a) {
  Tracer off(false);
  Tally setup_tally;
  std::vector<double> cold;
  for (std::size_t i = 0; i < kColdStarts; ++i) {
    cold.push_back(cold_start(w, pool, a.seed, a.shardd, setup_tally));
  }
  const std::size_t min_jobs = perfbench::min_samples_for(0.90);
  LoopSpec ls{a.seconds, min_jobs, w.pool, w.open_loop, w.rate,
              w.outstanding};
  LoopSpec warm{0.0, w.pool, 0, false, 0.0, w.outstanding};
  LoopResult window;
  Tally warm_tally;
  if (w.front == Front::kService) {
    ProofService service(service_options(w));
    warm_tally = service_loop(service, w, pool, a.seed, warm, off).tally;
    window = service_loop(service, w, pool, a.seed, ls, off);
  } else {
    ShardCoordinator coord(fleet_options(a.shardd));
    warm_tally = fleet_loop(coord, w, pool, a.seed, warm, off, nullptr).tally;
    window = fleet_loop(coord, w, pool, a.seed, ls, off, nullptr);
  }
  const perfbench::Percentile p50 =
      perfbench::percentile(window.latencies(), 0.50);
  const perfbench::Percentile p90 =
      perfbench::percentile(window.latencies(), 0.90);
  const perfbench::Percentile late =
      perfbench::percentile(window.lateness, 0.90);
  Tally all = window.tally;
  all.merge(setup_tally);
  all.merge(warm_tally);

  std::printf("window: %.3f s, %zu jobs\n", window.window, window.jobs.size());
  std::printf("latency_p90_s from %zu samples, %zu beyond p90%s\n", p90.count,
              p90.beyond, p90.resolved() ? "" : " (UNRESOLVED: < 10 beyond)");
  std::printf("loadgen lateness p90: %.6f s%s\n", late.value,
              late.value > 0.1 * p50.value ? " (generator fell behind)" : "");
  print_tally("window jobs", window.tally);
  print_tally("all jobs (setup + warm-up + window)", all);
  const std::vector<Metric> metrics = {
      {"jobs_per_s", window.jobs_per_s(), "1/s"},
      {"latency_p50_s", p50.value, "s"},
      {"latency_p90_s", p90.value, "s"},
      {"setup_s", perfbench::median(cold), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  print_metrics(metrics);
  std::printf("  %-32s %14.6g %s\n", "failed_fraction",
              window.tally.failed_fraction(), "ratio");
  return print_result(all.wrong == 0, window.tally, metrics) ? 0 : 1;
}

int run_traced(const Workload& w, const std::vector<Input>& pool,
               const Args& a) {
  Tracer off(false);
  Tracer tracer(true);
  const double part = std::max(1.0, 0.4 * a.seconds);
  const std::size_t min_jobs = perfbench::min_samples_for(0.90);
  LoopSpec warm{0.0, w.pool, 0, false, 0.0, w.outstanding};
  LoopSpec untraced_ls{part, min_jobs, w.pool, w.open_loop, w.rate,
                       w.outstanding};
  LoopSpec traced_ls = untraced_ls;
  traced_ls.first_job = 100000;

  Tally all;
  LoopResult untraced, traced;
  std::vector<Metric> m;
  std::map<std::string, double> insitu;
  double allocs_per_job = 0.0, arena_reserved = 0.0;
  double high_water = 0.0, plan_ratio = 0.0, code_ratio = 0.0;
  double rejected = 0.0, expired = 0.0;
  double spawn_s = 0.0, frame_bytes = 0.0, shard_overhead = 0.0;
  double retried = 0.0;
  LoopResult service_window;  // jobs the service-layer numbers describe

  // Spawn timing: median of three coordinator constructions.
  auto spawn_median = [&](std::unique_ptr<ShardCoordinator>& keep) {
    std::vector<double> t;
    for (int i = 0; i < 3; ++i) {
      keep.reset();
      const double s = timed(tracer, "shard.spawn", [&] {
        keep = std::make_unique<ShardCoordinator>(fleet_options(a.shardd));
      });
      t.push_back(s);
    }
    return perfbench::median(t);
  };

  // The service layer's own numbers over a warm service.
  auto read_service = [&](ProofService& service, const LoopResult& window,
                          const ProofService::Stats& before) {
    const ProofService::Stats st = service.stats();
    high_water = static_cast<double>(st.queue_depth_high_water);
    plan_ratio = static_cast<double>(st.plan_cache_hits) /
                 std::max<double>(1.0, static_cast<double>(
                                           st.plan_cache_hits +
                                           st.plan_cache_misses));
    code_ratio = static_cast<double>(st.code_cache.hits) /
                 std::max<double>(1.0, static_cast<double>(
                                           st.code_cache.hits +
                                           st.code_cache.misses));
    rejected = static_cast<double>(st.rejected - before.rejected);
    expired = static_cast<double>(st.expired - before.expired);
    service_window = window;
  };

  if (w.front == Front::kService) {
    ProofService service(service_options(w));
    all.merge(service_loop(service, w, pool, a.seed, warm, off).tally);
    const obs::Registry::Snapshot h0 = service.metrics()->snapshot();
    const std::uint64_t a0 = g_heap_allocs.load();
    untraced = service_loop(service, w, pool, a.seed, untraced_ls, off);
    const std::uint64_t a1 = g_heap_allocs.load();
    const obs::Registry::Snapshot h1 = service.metrics()->snapshot();
    allocs_per_job = static_cast<double>(a1 - a0) /
                     static_cast<double>(std::max<std::size_t>(
                         1, untraced.jobs.size()));
    arena_reserved =
        static_cast<double>(gauge_of(h1, "camelot_arena_bytes_reserved"));
    const auto s0 = stage_sums(h0), s1 = stage_sums(h1);
    for (const auto& [k, v] : s1) {
      insitu[k] = (v - s0.at(k)) / static_cast<double>(untraced.jobs.size());
    }
    const ProofService::Stats before = service.stats();
    {
      Scope span(tracer, "service.window");
      traced = service_loop(service, w, pool, a.seed, traced_ls, tracer);
    }
    read_service(service, traced, before);
    all.merge(untraced.tally);
    all.merge(traced.tally);

    // The shard layer at this workload's job shape.
    std::unique_ptr<ShardCoordinator> coord;
    spawn_s = spawn_median(coord);
    LoopSpec fleet_ls{0.0, 4, 200000, false, 0.0, 1};
    all.merge(
        fleet_loop(*coord, w, pool, a.seed, fleet_ls, off, nullptr).tally);
    const std::int64_t b0 = bandwidth_total(coord->metrics().snapshot());
    fleet_ls.first_job = 200100;
    all.merge(
        fleet_loop(*coord, w, pool, a.seed, fleet_ls, off, nullptr).tally);
    const std::int64_t b1 = bandwidth_total(coord->metrics().snapshot());
    frame_bytes = static_cast<double>(b1 - b0) / 4.0;
    std::vector<double> overhead;
    fleet_ls.first_job = 200200;
    all.merge(fleet_loop(*coord, w, pool, a.seed, fleet_ls, tracer, &overhead)
                  .tally);
    shard_overhead = perfbench::median(overhead);
    retried = static_cast<double>(coord->retried_primes());
  } else {
    std::unique_ptr<ShardCoordinator> coord;
    spawn_s = spawn_median(coord);
    all.merge(fleet_loop(*coord, w, pool, a.seed, warm, off, nullptr).tally);
    const obs::Registry::Snapshot h0 = coord->fleet_snapshot();
    const std::int64_t b0 = bandwidth_total(coord->metrics().snapshot());
    const double r0 = static_cast<double>(coord->retried_primes());
    untraced =
        fleet_loop(*coord, w, pool, a.seed, untraced_ls, off, nullptr);
    const std::int64_t b1 = bandwidth_total(coord->metrics().snapshot());
    const obs::Registry::Snapshot h1 = coord->fleet_snapshot();
    const double n = static_cast<double>(untraced.jobs.size());
    frame_bytes = static_cast<double>(b1 - b0) / n;
    const auto s0 = stage_sums(h0), s1 = stage_sums(h1);
    for (const auto& [k, v] : s1) insitu[k] = (v - s0.at(k)) / n;
    std::vector<double> overhead;
    {
      Scope span(tracer, "shard.window");
      traced = fleet_loop(*coord, w, pool, a.seed, traced_ls, tracer,
                          &overhead);
    }
    shard_overhead = perfbench::median(overhead);
    retried = static_cast<double>(coord->retried_primes()) - r0;
    all.merge(untraced.tally);
    all.merge(traced.tally);

    // The service layer at this workload's job shape: a warm
    // ProofService fed the same inputs one job at a time.
    ProofService service(service_options(w));
    all.merge(service_loop(service, w, pool, a.seed, warm, off).tally);
    const ProofService::Stats before = service.stats();
    const std::uint64_t a0 = g_heap_allocs.load();
    LoopSpec svc_ls{0.0, w.pool, 300000, false, 0.0, 1};
    LoopResult svc = service_loop(service, w, pool, a.seed, svc_ls, tracer);
    const std::uint64_t a1 = g_heap_allocs.load();
    allocs_per_job = static_cast<double>(a1 - a0) /
                     static_cast<double>(std::max<std::size_t>(
                         1, svc.jobs.size()));
    arena_reserved = static_cast<double>(gauge_of(
        service.metrics()->snapshot(), "camelot_arena_bytes_reserved"));
    read_service(service, svc, before);
    all.merge(svc.tally);
  }

  ProbeResult probe = staged_probe(w, pool, a.seed, tracer);
  all.merge(probe.tally);

  const WindowFacts facts = facts_of(traced);
  const perfbench::Percentile late =
      perfbench::percentile(untraced.lateness, 0.90);
  const double p50_untraced =
      perfbench::percentile(untraced.latencies(), 0.50).value;
  const double p50_traced =
      perfbench::percentile(traced.latencies(), 0.50).value;

  const auto per_call = [&](const char* name) {
    return fetch_median(probe.per_call, name);
  };
  const auto per_job = [&](const std::string& name) {
    return fetch_median(probe.per_job, name);
  };
  m.push_back({"service.queue_wait_s", queue_wait(service_window, probe), "s"});
  m.push_back({"service.queue_depth_high_water", high_water, "count"});
  m.push_back({"service.plan_cache_hit_ratio", plan_ratio, "ratio"});
  m.push_back({"service.code_cache_hit_ratio", code_ratio, "ratio"});
  m.push_back({"service.rejected", rejected, "count"});
  m.push_back({"service.expired", expired, "count"});
  for (const char* st : {"prepare", "transport", "decode", "verify", "recover",
                         "report"}) {
    m.push_back({std::string("stage.") + st + "_s",
                 per_job(std::string("stage.") + st + "_s"), "s"});
  }
  std::printf("stage cross-check: traced span sum vs in-situ histogram sum "
              "(seconds per job)\n");
  for (const char* st : {"prepare", "transport", "decode", "verify",
                         "recover"}) {
    const double span = per_job(std::string("stage.") + st + "_s");
    const double hist = insitu.count(st) ? insitu.at(st) : 0.0;
    m.push_back({std::string("stage.") + st + ".insitu_s", hist, "s"});
    m.push_back({std::string("stage.") + st + ".gap_s", span - hist, "s"});
    std::printf("  %-10s span %.6f  histogram %.6f  gap %+.6f\n", st, span,
                hist, span - hist);
  }
  m.push_back({"eval.build_s", per_call("eval.build_s"), "s"});
  m.push_back({"eval.points_per_s",
               probe.eval_seconds > 0 ? probe.eval_points / probe.eval_seconds
                                      : 0.0,
               "1/s"});
  m.push_back({"rs.code_build_s", per_call("rs.code_build_s"), "s"});
  m.push_back({"rs.extend_s", per_call("rs.extend_s"), "s"});
  m.push_back({"rs.decode_s", per_call("rs.decode_s"), "s"});
  m.push_back({"rs.quotient_steps", facts.quotient_steps, "count"});
  m.push_back({"rs.hgcd_calls", facts.hgcd_calls, "count"});
  m.push_back({"rs.corrected_symbols", facts.corrected, "count"});
  m.push_back({"poly.interp_s", per_call("poly.interp_s"), "s"});
  m.push_back({"poly.multipoint_s", per_call("poly.multipoint_s"), "s"});
  m.push_back({"verify.s_per_prime",
               per_call("verify.s_per_prime"), "s"});
  m.push_back({"verify.node_cost_ratio",
               perfbench::median(probe.node_cost_ratio), "ratio"});
  m.push_back({"field.crt_s", per_job("field.crt_s"), "s"});
  m.push_back({"transport.repair_rounds", facts.repair_rounds, "count"});
  m.push_back({"transport.repaired_symbols", facts.repaired_symbols, "count"});
  m.push_back({"transport.useful_ratio", facts.useful_ratio, "ratio"});
  m.push_back({"transport.repair_s",
               per_job("transport.repair_s"), "s"});
  m.push_back({"arena.allocs_per_job", allocs_per_job, "count"});
  m.push_back({"arena.bytes_reserved", arena_reserved, "bytes"});
  m.push_back({"shard.spawn_s", spawn_s, "s"});
  m.push_back({"shard.frame_bytes_per_job", frame_bytes, "bytes"});
  m.push_back({"shard.overhead_s", shard_overhead, "s"});
  m.push_back({"shard.retried_primes", retried, "count"});
  m.push_back({"loadgen.lateness_p90_s", late.value, "s"});
  m.push_back({"trace.overhead_p50_s", p50_traced - p50_untraced, "s"});
  m.push_back({"trace.overhead_jobs_per_s",
               traced.jobs_per_s() - untraced.jobs_per_s(), "1/s"});

  std::printf("untraced window: %zu jobs, %.3f jobs/s, p50 %.6f s\n",
              untraced.jobs.size(), untraced.jobs_per_s(), p50_untraced);
  std::printf("traced window:   %zu jobs, %.3f jobs/s, p50 %.6f s\n",
              traced.jobs.size(), traced.jobs_per_s(), p50_traced);

  const std::vector<perfbench::Span> spans = tracer.spans();
  std::printf("layer self time (seconds, summed over %zu spans):\n",
              spans.size());
  for (const auto& [layer, lt] : perfbench::layer_times(spans)) {
    std::printf("  %-10s total %10.4f  self %10.4f  spans %zu\n",
                layer.c_str(), lt.total, lt.self, lt.spans);
  }
  bool trace_ok = true;
  if (!a.trace_out.empty()) {
    const std::string json = perfbench::chrome_trace_json(spans);
    std::ofstream f(a.trace_out);
    f << json;
    trace_ok =
        static_cast<bool>(f) && perfbench::JsonChecker::well_formed(json);
    std::printf("trace: %zu spans -> %s%s\n", spans.size(),
                a.trace_out.c_str(), trace_ok ? "" : " (WRITE FAILED)");
  }
  print_tally("all jobs", all);
  print_metrics(m);
  return print_result(all.wrong == 0 && trace_ok, all, m) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    usage();
    return 2;
  }
  const std::vector<Workload> all = workloads();
  auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return w.name == a.workload;
  });
  if (it == all.end()) {
    usage();
    return 2;
  }
  const Workload& w = *it;
  try {
    std::printf(
        "context: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
        "\"trace\": %d, \"nproc\": %u, \"backend\": \"%s\", "
        "\"calibration_division_ns_per_op\": %.4f, \"compute_threads\": %zu, "
        "\"loop\": \"%s\", \"rate_per_s\": %g, \"outstanding\": %zu}\n",
        w.name.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
        a.trace ? 1 : 0, std::thread::hardware_concurrency(),
        backend_rung().c_str(), division_ns_per_op(),
        (w.front == Front::kFleet ? kShards : w.workers) *
            w.config.num_threads,
        w.open_loop ? "open" : "closed", w.rate, w.outstanding);
    const std::vector<Input> pool = make_pool(w, a.seed);
    return a.trace ? run_traced(w, pool, a) : run_end_to_end(w, pool, a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "camelot_bench: %s\n", e.what());
    return 1;
  }
}
