// In-memory span recorder and the benchmark's statistics arithmetic.
//
// A span is one timed call into a layer, recorded from the benchmark's
// own code (task bodies, ttg::send call sites, the Communicator
// decorator, the seeding thread). Spans live in per-thread buffers so
// recording one costs two TSC reads and a store; the buffers are read
// only after the threads that filled them have been joined or quiesced.
// Timestamps are ttg::rdtsc() cycles; every thread of the process shares
// the clock, so spans from different threads (and from both ranks of the
// in-process wire workload) are comparable.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/cycle_clock.hpp"

namespace perfbench {

/// Layer-boundary names. The enum value is stored in every span; the
/// string is the span's name in the Chrome trace.
enum class SpanName : std::uint16_t {
  kEpoch,        ///< main thread: one closed-loop epoch, execute..wait
  kWave,         ///< main thread: one closed-loop serving wave
  kGraph,        ///< serving: one graph, submit start..completion seen
  kSubmit,       ///< main thread: execute + seeds (+ seal)
  kExecute,      ///< World::execute()/execute_replay()
  kSeed,         ///< external send_input/sendk_input
  kWait,         ///< Submission::wait()
  kBody,         ///< one task body (group = graph/epoch id)
  kSend,         ///< one ttg::send inside a body
  kKernel,       ///< taskbench::run_kernel inside a body
  kReadyWait,    ///< last input send end .. body start (explicit times)
  kPost,         ///< Communicator::post (arg = payload bytes)
  kHandler,      ///< frame handler on the transport's progress thread
  kDeliver,      ///< sender post start .. receiver handler entry
  kCount_,
};

const char* to_string(SpanName name);

inline constexpr std::uint32_t kNoParent = 0xffffffffu;

struct Span {
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  std::uint32_t parent = kNoParent;  ///< index in the same thread's buffer
  std::uint32_t group = 0;           ///< graph/epoch id (0 = none)
  std::uint32_t arg = 0;             ///< name-specific payload
  SpanName name = SpanName::kEpoch;
};

/// One thread's spans, in open order (a parent precedes its children).
struct ThreadSpans {
  int tid = 0;
  std::vector<Span> spans;
};

namespace detail {
extern std::atomic<bool> g_enabled;
}

/// True while spans are being recorded (one relaxed load).
inline bool tracing() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Discards every recorded span and starts (or stops) recording. Call
/// only while no other thread records.
void start_tracing(bool on);

/// True once some thread's buffer is nearly full; callers stop opening
/// new epochs so every recorded epoch is complete.
bool spans_nearly_full();

/// Moves every thread's spans out of its buffer. Call only while
/// quiescent.
std::vector<ThreadSpans> collect_spans();

/// Opens a span on the calling thread (parent = the innermost open span,
/// start = `t0`, or now when 0) and returns its handle, or kNoParent
/// when the buffer is full.
std::uint32_t open_span(SpanName name, std::uint32_t group,
                        std::uint32_t arg = 0, std::uint64_t t0 = 0);
/// Closes the span returned by open_span; returns its end time.
std::uint64_t close_span(std::uint32_t handle);
/// Records a finished span with explicit times and no parent.
void add_span(SpanName name, std::uint64_t t0, std::uint64_t t1,
              std::uint32_t group, std::uint32_t arg = 0);

/// RAII span; free when recording is off.
class Scope {
 public:
  Scope(SpanName name, std::uint32_t group, std::uint32_t arg = 0)
      : handle_(tracing() ? open_span(name, group, arg) : kNoParent) {}
  ~Scope() {
    if (handle_ != kNoParent) close_span(handle_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::uint32_t handle_;
};

/// Writes the spans as a Chrome trace (chrome://tracing, Perfetto):
/// at most `max_per_thread` spans of each thread, with each span's
/// parent, group and self time in its args.
bool write_chrome_trace(const std::string& path,
                        const std::vector<ThreadSpans>& threads,
                        std::size_t max_per_thread);

// --- arithmetic ------------------------------------------------------

/// Self time of every span of one thread's buffer: its duration minus
/// the part of [t0, t1] covered by the union of its children.
std::vector<std::uint64_t> self_times(const std::vector<Span>& spans);

/// Nearest-rank percentile of `sorted` (ascending): the value at rank
/// ceil(q * n), plus how many samples lie strictly beyond that rank.
struct Percentile {
  double value = 0;
  std::size_t beyond = 0;
};
Percentile percentile(const std::vector<double>& sorted, double q);

/// Median of an unsorted sample (0 when empty).
double median(std::vector<double> values);

}  // namespace perfbench
