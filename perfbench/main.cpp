// ttg_perfbench: runs one benchmark workload and prints one JSON report.
//
//   ttg_perfbench --workload <chain|stencil|serving|wire> --seed <n>
//                 --seconds <s> --trace <0|1> [--spans <path>]
//   ttg_perfbench --selftest       checks the benchmark's own arithmetic
//   ttg_perfbench --list-metrics   prints every metric name and unit
//
// --trace 0 runs untraced segments and reports the end-to-end metrics.
// --trace 1 runs three segments (untraced, spans, atomic census) and
// reports the per-layer metrics, the traced end-to-end figure and the
// tracing overhead; --spans names the Chrome trace file it writes.
// perfbench/run.py builds this program and wraps its report.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/topology.hpp"
#include "spans.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// Length of one untraced segment. Each segment builds the workload
/// again, so a run samples set-up once per segment and spreads its timed
/// work over many Runtime instances (see end_to_end()).
constexpr double kSegmentSeconds = 0.5;

/// Largest |split residual| the traced run accepts on chain and stencil:
/// the share of workers x epoch wall time that bodies, inter-body gaps
/// and each epoch's edges (submit end to first body, last body to
/// completion) leave unaccounted. What remains is the submit itself and
/// the skew of workers joining or leaving an epoch after its first or
/// before its last body.
constexpr double kSplitTolerance = 0.10;

struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;
};

// Every metric the program can print. BENCHMARK.json lists the same
// names (run.py and --selftest check both ways).
const std::vector<MetricDef>& catalog() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s", true},
      {"latency_ns_per_task", "ns", true},
      {"tasks_per_s", "1/s", true},
      {"graphs_per_s", "1/s", true},
      {"p50_ms", "ms", true},
      {"peak_rss_mb", "MB", true},
      {"ttg.send_ns", "ns", false},
      {"ttg.seed_ns", "ns", false},
      {"ttg.body_self_ns", "ns", false},
      {"runtime.gap_ns", "ns", false},
      {"runtime.busy_frac", "ratio", false},
      {"runtime.execute_us", "us", false},
      {"runtime.first_task_us", "us", false},
      {"sched.ready_wait_ns", "ns", false},
      {"sched.steal_attempts_per_task", "count", false},
      {"sched.steal_success_ratio", "ratio", false},
      {"sched.parks_per_task", "count", false},
      {"sched.ingress_hits_per_task", "count", false},
      {"structures.copy_pool_hit_ratio", "ratio", false},
      {"atomics.rmw_per_task", "count", false},
      {"atomics.mempool_per_task", "count", false},
      {"atomics.input_count_per_task", "count", false},
      {"atomics.refcount_per_task", "count", false},
      {"atomics.bucket_lock_per_task", "count", false},
      {"atomics.scheduler_per_task", "count", false},
      {"atomics.termdet_per_task", "count", false},
      {"termdet.detect_us", "us", false},
      {"comm.post_ns", "ns", false},
      {"comm.frames_per_task", "count", false},
      {"comm.bytes_per_frame", "bytes", false},
      {"comm.deliver_us", "us", false},
      {"comm.handler_ns", "ns", false},
      {"taskbench.kernel_ns", "ns", false},
      {"taskbench.kernel_frac", "ratio", false},
      {"setup.world_ms", "ms", false},
      {"setup.record_ms", "ms", false},
      {"setup.mesh_ms", "ms", false},
      {"bench.late_us_p99", "us", false},
      {"bench.p99_ms", "ms", false},
      {"bench.traced_latency_ns_per_task", "ns", false},
      {"bench.trace_overhead_ns_per_task", "ns", false},
      {"bench.split_residual_frac", "ratio", false},
  };
  return defs;
}

struct Value {
  double value = 0;
  std::uint64_t samples = 0;
};

// --- span analysis ----------------------------------------------------

struct Totals {
  double ns = 0;
  double self_ns = 0;
  std::uint64_t n = 0;
  double mean() const { return n > 0 ? ns / static_cast<double>(n) : 0; }
};

struct Analysis {
  Totals by_name[static_cast<int>(SpanName::kCount_)];
  double window_ns = 0;  // summed epoch/wave wall time
  std::uint64_t window_bodies = 0;
  double window_body_ns = 0;  // body time inside windows
  double gap_ns = 0;          // inter-body gaps inside windows
  Totals first_task;          // first body start - submit end, per graph
  Totals detect;              // completion seen - last body end, per graph
  double edge_ns = 0;  // closed-loop epochs: first_task + detect, summed
  std::uint64_t post_bytes = 0;

  const Totals& operator[](SpanName n) const {
    return by_name[static_cast<int>(n)];
  }
};

Analysis analyze(const std::vector<ThreadSpans>& threads) {
  Analysis a;
  struct Window {
    std::uint64_t t0, t1;
  };
  std::vector<Window> windows;
  struct Graph {
    std::uint64_t submit_end = 0, complete = 0;
    std::uint64_t first_body = ~std::uint64_t{0}, last_body = 0;
    bool epoch = false;  // a closed-loop epoch (has an epoch span)
  };
  std::unordered_map<std::uint32_t, Graph> graphs;

  for (const ThreadSpans& t : threads) {
    const std::vector<std::uint64_t> self = self_times(t.spans);
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const Span& s = t.spans[i];
      const std::uint64_t dur = s.t1 > s.t0 ? s.t1 - s.t0 : 0;
      Totals& tot = a.by_name[static_cast<int>(s.name)];
      tot.ns += ttg::cycles_to_ns(dur);
      tot.self_ns += ttg::cycles_to_ns(self[i]);
      tot.n += 1;
      switch (s.name) {
        case SpanName::kEpoch:
        case SpanName::kWave:
          windows.push_back({s.t0, s.t1});
          a.window_ns += ttg::cycles_to_ns(dur);
          break;
        case SpanName::kSubmit:
          graphs[s.group].submit_end = s.t1;
          break;
        case SpanName::kGraph:
          graphs[s.group].complete = s.t1;
          break;
        case SpanName::kBody: {
          Graph& g = graphs[s.group];
          g.first_body = std::min(g.first_body, s.t0);
          g.last_body = std::max(g.last_body, s.t1);
          break;
        }
        case SpanName::kPost:
          a.post_bytes += s.arg;
          break;
        default:
          break;
      }
      if (s.name == SpanName::kEpoch) {
        graphs[s.group].complete = s.t1;
        graphs[s.group].epoch = true;
      }
    }
  }
  std::sort(windows.begin(), windows.end(),
            [](const Window& x, const Window& y) { return x.t0 < y.t0; });
  auto window_of = [&](const Span& s) -> long {
    auto it = std::upper_bound(
        windows.begin(), windows.end(), s.t0,
        [](std::uint64_t t, const Window& w) { return t < w.t0; });
    if (it == windows.begin()) return -1;
    --it;
    return s.t1 <= it->t1 ? it - windows.begin() : -1;
  };
  for (const ThreadSpans& t : threads) {
    long prev_window = -1;
    std::uint64_t prev_end = 0;
    for (const Span& s : t.spans) {
      if (s.name != SpanName::kBody) continue;
      const long w = window_of(s);
      if (w >= 0) {
        a.window_bodies += 1;
        a.window_body_ns += ttg::cycles_to_ns(s.t1 - s.t0);
        if (w == prev_window && s.t0 >= prev_end) {
          a.gap_ns += ttg::cycles_to_ns(s.t0 - prev_end);
        }
      }
      prev_window = w;
      prev_end = s.t1;
    }
  }
  for (const auto& [id, g] : graphs) {
    if (g.last_body == 0) continue;
    double first = 0, detect = 0;
    if (g.submit_end != 0) {
      first = ttg::cycles_to_ns(g.first_body) - ttg::cycles_to_ns(g.submit_end);
      a.first_task.ns += first;
      a.first_task.n += 1;
    }
    if (g.complete != 0) {
      detect = ttg::cycles_to_ns(g.complete) - ttg::cycles_to_ns(g.last_body);
      a.detect.ns += detect;
      a.detect.n += 1;
    }
    if (g.epoch) a.edge_ns += first + detect;
  }
  return a;
}

// --- helpers ----------------------------------------------------------

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::vector<double> pooled(const std::vector<SegmentResult>& segs,
                           std::vector<double> SegmentResult::*field) {
  std::vector<double> out;
  for (const SegmentResult& s : segs) {
    out.insert(out.end(), (s.*field).begin(), (s.*field).end());
  }
  return out;
}

// --- metrics ----------------------------------------------------------

void end_to_end(const std::vector<SegmentResult>& segs,
                std::map<std::string, Value>& m) {
  // Per-segment figures; set-up is the median over segments, every
  // timing the best segment (lowest latency, highest throughput). Noise
  // on a shared host only ever slows a Runtime instance down, often for
  // seconds at a time, and the best of many instances is what repeats
  // from run to run (README.md). The report also prints the tail pooled
  // over all segments.
  std::vector<double> setup, per_task, tasks_rate, graphs_rate, p50;
  std::uint64_t epochs = 0, graphs = 0;
  for (const SegmentResult& s : segs) {
    setup.push_back(s.setup_s);
    per_task.push_back(median(s.op_ns_per_task));
    tasks_rate.push_back(ratio(static_cast<double>(s.closed_tasks), s.closed_s));
    graphs_rate.push_back(
        ratio(static_cast<double>(s.closed_graphs), s.closed_s));
    std::vector<double> lat = s.latency_ms;
    std::sort(lat.begin(), lat.end());
    if (!lat.empty()) p50.push_back(percentile(lat, 0.50).value);
    epochs += s.op_ns_per_task.size();
    graphs += lat.size();
  }
  auto lowest = [](const std::vector<double>& v) {
    return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
  };
  auto highest = [](const std::vector<double>& v) {
    return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
  };
  m["setup_s"] = {median(setup), setup.size()};
  m["latency_ns_per_task"] = {lowest(per_task), epochs};
  m["tasks_per_s"] = {highest(tasks_rate), epochs};
  m["graphs_per_s"] = {highest(graphs_rate), epochs};
  m["p50_ms"] = {lowest(p50), graphs};
  m["peak_rss_mb"] = {peak_rss_mb(), 1};
}

void per_layer(const std::vector<SegmentResult>& segs, const Analysis& a,
               int workers, std::map<std::string, Value>& m) {
  const SegmentResult& plain = segs[0];
  const SegmentResult& spans = segs[1];
  const SegmentResult& census = segs[2];
  auto mean = [](const Totals& t) { return Value{t.mean(), t.n}; };

  const std::uint64_t bodies = a[SpanName::kBody].n;
  m["ttg.send_ns"] = mean(a[SpanName::kSend]);
  m["ttg.seed_ns"] = mean(a[SpanName::kSeed]);
  m["ttg.body_self_ns"] = {ratio(a[SpanName::kBody].self_ns,
                                 static_cast<double>(bodies)),
                           bodies};
  m["runtime.gap_ns"] = {
      ratio(a.gap_ns, static_cast<double>(a.window_bodies)), a.window_bodies};
  const double capacity = workers * a.window_ns;
  m["runtime.busy_frac"] = {ratio(a.window_body_ns, capacity),
                            a.window_bodies};
  m["runtime.execute_us"] = {a[SpanName::kExecute].mean() / 1e3,
                             a[SpanName::kExecute].n};
  m["runtime.first_task_us"] = {a.first_task.mean() / 1e3, a.first_task.n};
  m["termdet.detect_us"] = {a.detect.mean() / 1e3, a.detect.n};
  m["sched.ready_wait_ns"] = mean(a[SpanName::kReadyWait]);

  const Counters& c = plain.counters;
  const auto tasks = static_cast<double>(c.tasks);
  m["sched.steal_attempts_per_task"] = {
      ratio(static_cast<double>(c.steal_attempts), tasks), c.tasks};
  m["sched.steal_success_ratio"] = {
      ratio(static_cast<double>(c.steal_successes),
            static_cast<double>(c.steal_attempts)),
      c.steal_attempts};
  m["sched.parks_per_task"] = {ratio(static_cast<double>(c.parks), tasks),
                               c.tasks};
  m["sched.ingress_hits_per_task"] = {
      ratio(static_cast<double>(c.ingress_hits), tasks), c.tasks};
  m["structures.copy_pool_hit_ratio"] = {
      ratio(static_cast<double>(c.pool_hits),
            static_cast<double>(c.pool_hits + c.pool_misses)),
      c.pool_hits + c.pool_misses};

  const auto census_tasks = static_cast<double>(census.counters.tasks);
  auto per_task = [&](std::uint64_t n) {
    return Value{ratio(static_cast<double>(n), census_tasks),
                 census.counters.tasks};
  };
  const ttg::AtomicOpSnapshot& at = census.census;
  m["atomics.rmw_per_task"] =
      per_task(at.total() - at[ttg::AtomicOpCategory::kCopyPoolHit] -
               at[ttg::AtomicOpCategory::kCopyPoolMiss]);
  m["atomics.mempool_per_task"] = per_task(at[ttg::AtomicOpCategory::kMemPool]);
  m["atomics.input_count_per_task"] =
      per_task(at[ttg::AtomicOpCategory::kInputCount]);
  m["atomics.refcount_per_task"] =
      per_task(at[ttg::AtomicOpCategory::kRefCount]);
  m["atomics.bucket_lock_per_task"] =
      per_task(at[ttg::AtomicOpCategory::kBucketLock]);
  m["atomics.scheduler_per_task"] =
      per_task(at[ttg::AtomicOpCategory::kScheduler]);
  m["atomics.termdet_per_task"] = per_task(at[ttg::AtomicOpCategory::kTermDet]);

  const Totals& post = a[SpanName::kPost];
  m["comm.post_ns"] = mean(post);
  m["comm.frames_per_task"] = {
      ratio(static_cast<double>(post.n), static_cast<double>(bodies)), bodies};
  m["comm.bytes_per_frame"] = {
      ratio(static_cast<double>(a.post_bytes), static_cast<double>(post.n)),
      post.n};
  m["comm.deliver_us"] = {a[SpanName::kDeliver].mean() / 1e3,
                          a[SpanName::kDeliver].n};
  m["comm.handler_ns"] = mean(a[SpanName::kHandler]);

  m["taskbench.kernel_ns"] = mean(a[SpanName::kKernel]);
  m["taskbench.kernel_frac"] = {ratio(a[SpanName::kKernel].ns, capacity),
                                a[SpanName::kKernel].n};

  std::vector<double> world, record, mesh;
  for (const SegmentResult& s : segs) {
    world.push_back(s.world_ms);
    record.push_back(s.record_ms);
    mesh.push_back(s.mesh_ms);
  }
  m["setup.world_ms"] = {median(world), world.size()};
  m["setup.record_ms"] = {median(record), record.size()};
  m["setup.mesh_ms"] = {median(mesh), mesh.size()};

  std::vector<double> late = plain.late_us;
  std::sort(late.begin(), late.end());
  m["bench.late_us_p99"] = {percentile(late, 0.99).value, late.size()};
  std::vector<double> lat = plain.latency_ms;
  std::sort(lat.begin(), lat.end());
  m["bench.p99_ms"] = {percentile(lat, 0.99).value, lat.size()};

  const double untraced = median(plain.op_ns_per_task);
  const double traced = median(spans.op_ns_per_task);
  m["bench.traced_latency_ns_per_task"] = {traced, spans.op_ns_per_task.size()};
  m["bench.trace_overhead_ns_per_task"] = {traced - untraced,
                                           spans.op_ns_per_task.size()};
  m["bench.split_residual_frac"] = {
      1.0 - ratio(a.window_body_ns + a.gap_ns + workers * a.edge_ns, capacity),
      a.window_bodies};
}

// --- self-test --------------------------------------------------------

int selftest() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
      ++failures;
    }
  };
  auto near = [](double a, double b) { return std::fabs(a - b) < 1e-9; };

  // Percentiles: nearest rank, and the samples strictly beyond it.
  std::vector<double> v100;
  for (int i = 1; i <= 100; ++i) v100.push_back(i);
  expect(near(percentile(v100, 0.50).value, 50) &&
             percentile(v100, 0.50).beyond == 50,
         "p50 of 1..100 is 50 with 50 beyond");
  expect(near(percentile(v100, 0.99).value, 99) &&
             percentile(v100, 0.99).beyond == 1,
         "p99 of 1..100 is 99 with 1 beyond");
  std::vector<double> v1000;
  for (int i = 1; i <= 1000; ++i) v1000.push_back(i);
  expect(near(percentile(v1000, 0.99).value, 990) &&
             percentile(v1000, 0.99).beyond == 10,
         "p99 of 1..1000 is 990 with 10 beyond");
  const std::vector<double> v10 = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  expect(near(percentile(v10, 0.99).value, 10) &&
             percentile(v10, 0.99).beyond == 0,
         "p99 of 10 samples is the maximum, none beyond");
  expect(near(percentile(v10, 0.0).value, 1), "p0 is the minimum");
  expect(percentile({}, 0.5).beyond == 0 && near(percentile({}, 0.5).value, 0),
         "percentile of no samples is 0");
  expect(near(median({3, 1, 2}), 2), "median of 3 samples");
  expect(near(median({4, 1, 3, 2}), 2.5), "median of 4 samples");
  expect(near(median({}), 0), "median of no samples");

  // Self time: root [0,100] with children A [10,30] and B [20,50]
  // (overlapping: their union covers 40) and C [90,120] (clipped to the
  // root: covers 10); A has child D [12,18]; B has none.
  auto mk = [](std::uint64_t t0, std::uint64_t t1, std::uint32_t parent) {
    Span s;
    s.t0 = t0;
    s.t1 = t1;
    s.parent = parent;
    return s;
  };
  const std::vector<Span> tree = {mk(0, 100, kNoParent), mk(10, 30, 0),
                                  mk(20, 50, 0),         mk(90, 120, 0),
                                  mk(12, 18, 1),         mk(200, 210, kNoParent)};
  const std::vector<std::uint64_t> self = self_times(tree);
  const std::vector<std::uint64_t> want = {50, 14, 30, 30, 6, 10};
  expect(self == want, "self times of the synthetic span tree");

  // Metric names: unique and within the name alphabet.
  std::set<std::string> seen;
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  for (const MetricDef& d : catalog()) {
    expect(std::regex_match(d.name, name_re),
           std::string("metric name syntax: ") + d.name);
    expect(seen.insert(d.name).second,
           std::string("metric name unique: ") + d.name);
  }
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

int run(const Args& args) {
  // Calibrate the TSC before anything is timed.
  (void)ttg::cycles_per_ns();

  std::vector<Mode> modes;
  if (args.trace) {
    modes = {Mode::kPlain, Mode::kSpans, Mode::kCensus};
  } else {
    const long n = std::lround(args.seconds / kSegmentSeconds);
    modes.assign(static_cast<std::size_t>(std::max(3L, n)), Mode::kPlain);
  }
  const double share = args.seconds / static_cast<double>(modes.size());
  std::vector<SegmentResult> segs;
  std::vector<ThreadSpans> spans;
  for (std::size_t i = 0; i < modes.size(); ++i) {
    Segment seg;
    seg.seed = args.seed * 1000003 + i;
    seg.seconds = share;
    seg.mode = modes[i];
    start_tracing(seg.mode == Mode::kSpans);
    segs.push_back(run_segment(args.workload, seg));
    if (seg.mode == Mode::kSpans) spans = collect_spans();
    start_tracing(false);
  }

  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  for (const SegmentResult& s : segs) {
    attempted += s.attempted;
    failed += s.failed;
    errors.insert(errors.end(), s.errors.begin(), s.errors.end());
  }
  const int workers = segs.front().workers;

  std::map<std::string, Value> m;
  bool split_ok = true;
  std::string split_note;
  if (args.trace) {
    const Analysis a = analyze(spans);
    per_layer(segs, a, workers, m);
    const double residual = m["bench.split_residual_frac"].value;
    const double bodies = static_cast<double>(a.window_bodies);
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "per task: body_self %.1f + send %.1f + kernel %.1f + gap %.1f + "
        "workers x (first_task + detect) %.1f = %.1f ns; workers x epoch "
        "wall per task %.1f ns; residual %.4f (tolerance %.2f)",
        ratio(a[SpanName::kBody].self_ns, bodies),
        ratio(a[SpanName::kSend].ns, bodies),
        ratio(a[SpanName::kKernel].ns, bodies), ratio(a.gap_ns, bodies),
        ratio(workers * a.edge_ns, bodies),
        ratio(a.window_body_ns + a.gap_ns + workers * a.edge_ns, bodies),
        ratio(workers * a.window_ns, bodies), residual, kSplitTolerance);
    split_note = buf;
    if ((args.workload == "chain" || args.workload == "stencil") &&
        !(std::fabs(residual) <= kSplitTolerance)) {
      split_ok = false;
    }
    if (!args.spans_path.empty() &&
        !write_chrome_trace(args.spans_path, spans, 50000)) {
      errors.push_back("cannot write " + args.spans_path);
    }
  } else {
    end_to_end(segs, m);
  }

  std::vector<double> lat = pooled(segs, &SegmentResult::latency_ms);
  std::sort(lat.begin(), lat.end());
  const Percentile p99 = percentile(lat, 0.99);
  double best_p99 = 0;
  for (const SegmentResult& s : segs) {
    std::vector<double> l = s.latency_ms;
    std::sort(l.begin(), l.end());
    const double v = percentile(l, 0.99).value;
    if (!l.empty() && (best_p99 == 0 || v < best_p99)) best_p99 = v;
  }

  std::string out = "{";
  out += "\"workload\":" + json_string(args.workload);
  out += ",\"seed\":" + std::to_string(args.seed);
  out += ",\"trace\":" + std::string(args.trace ? "true" : "false");
  out += ",\"host\":{\"cpu\":" + json_string(cpu_model()) +
         ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"memory_domains\":" +
         std::to_string(ttg::topology().num_domains) +
         ",\"compiler\":" + json_string(PERFBENCH_COMPILER) +
         ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) + "}";
  out += ",\"correct\":" + std::string(failed == 0 ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"failed_frac\":" +
         json_number(ratio(static_cast<double>(failed),
                           static_cast<double>(attempted)));
  out += ",\"best_segment_p99_ms\":" + json_number(best_p99);
  out += ",\"pooled_p99_ms\":" + json_number(p99.value);
  out += ",\"pooled_p99_beyond\":" + std::to_string(p99.beyond);
  out += ",\"segments\":" + std::to_string(segs.size());
  out += ",\"segment_latency_ns_per_task\":[";
  for (std::size_t i = 0; i < segs.size(); ++i) {
    out += (i ? "," : "") + json_number(median(segs[i].op_ns_per_task));
  }
  out += "]";
  out += ",\"split_ok\":" + std::string(split_ok ? "true" : "false");
  out += ",\"split\":" + json_string(split_note);
  out += ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    out += (i ? "," : "") + json_string(errors[i]);
  }
  out += "],\"metrics\":{";
  bool first = true;
  for (const MetricDef& d : catalog()) {
    if (d.end_to_end == args.trace) continue;
    const Value v = m.at(d.name);
    out += std::string(first ? "" : ",") + json_string(d.name) +
           ":{\"value\":" + json_number(v.value) + ",\"unit\":" +
           json_string(d.unit) + ",\"samples\":" + std::to_string(v.samples) +
           "}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  if (!split_ok) {
    std::fprintf(stderr, "split check FAILED on %s: %s\n",
                 args.workload.c_str(), split_note.c_str());
  }
  return failed == 0 && split_ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--selftest") return selftest();
    if (a == "--list-metrics") {
      for (const MetricDef& d : catalog()) {
        std::printf("%s %s %s\n", d.end_to_end ? "end_to_end" : "per_layer",
                    d.name, d.unit);
      }
      return 0;
    }
    if (a == "--workload") {
      args.workload = value();
    } else if (a == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      args.trace = value() == "1";
    } else if (a == "--spans") {
      args.spans_path = value();
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end() ||
      !(args.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: ttg_perfbench --workload <chain|stencil|serving|wire>"
                 " --seed <n> --seconds <s> --trace <0|1> [--spans <path>]\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ttg_perfbench: %s\n", e.what());
    return 2;
  }
}
