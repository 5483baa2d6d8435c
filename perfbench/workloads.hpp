// The four benchmark workloads (see README.md for why each exists).
//
// A run is a sequence of segments. Each segment builds its workload from
// scratch (timed as set-up), runs closed-loop operations and, for
// serving, an open-loop phase until its time budget is spent, checks
// every output, and tears down. The same code runs untraced and traced:
// spans and the atomic census are switched on per segment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "atomics/op_counter.hpp"

namespace perfbench {

enum class Mode {
  kPlain,   ///< no spans, no census: the end-to-end measurement
  kSpans,   ///< spans recorded at every layer boundary
  kCensus,  ///< Eq. (1) atomic census on, no spans
};

/// Sums of the runtime's public counters (trace::MetricsRegistry).
struct Counters {
  std::uint64_t tasks = 0;  ///< engine.r*.tasks_executed
  std::uint64_t steal_attempts = 0;
  std::uint64_t steal_successes = 0;
  std::uint64_t ingress_hits = 0;
  std::uint64_t parks = 0;  ///< engine.r*.backoff_parks
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;

  static Counters read();
  Counters operator-(const Counters& rhs) const;
};

struct Segment {
  std::uint64_t seed = 0;
  double seconds = 1;  ///< budget for the timed phase
  Mode mode = Mode::kPlain;
};

struct SegmentResult {
  // Set-up, up to the first timed operation.
  double setup_s = 0;
  double world_ms = 0;   ///< Runtime/World/TT construction
  double record_ms = 0;  ///< replay recordings (serving)
  double mesh_ms = 0;    ///< TCP mesh bootstrap (wire)

  // Closed-loop phase: one entry per epoch (serving: per wave).
  std::vector<double> op_ns_per_task;
  double closed_s = 0;  ///< summed epoch/wave wall time
  std::uint64_t closed_tasks = 0;
  std::uint64_t closed_graphs = 0;

  /// Per-graph latency: open-loop from the scheduled arrival (serving),
  /// else each epoch from execute() to wait() returning.
  std::vector<double> latency_ms;
  /// Open-loop generator lateness: actual submit - scheduled arrival.
  std::vector<double> late_us;

  std::uint64_t attempted = 0;  ///< graphs/epochs run
  std::uint64_t failed = 0;     ///< non-ok status or wrong output
  std::vector<std::string> errors;

  int workers = 0;
  Counters counters;        ///< delta over the timed phase
  ttg::AtomicOpSnapshot census;  ///< delta over the timed phase (kCensus)
};

SegmentResult run_segment(const std::string& workload, const Segment& seg);

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

}  // namespace perfbench
