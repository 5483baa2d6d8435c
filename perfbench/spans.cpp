#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>

namespace perfbench {

namespace detail {
std::atomic<bool> g_enabled{false};
}

namespace {

// Per-thread capacity. A thread stops recording when its buffer is
// full; the segment loop stops opening epochs at 3/4, so every epoch it
// ran is recorded whole (no epoch records more than a quarter of this).
constexpr std::size_t kSpansPerThread = std::size_t{1} << 20;
constexpr std::size_t kNearlyFull = kSpansPerThread / 4 * 3;

struct ThreadBuf {
  int tid = 0;
  std::vector<Span> spans;
  std::vector<std::uint32_t> open;  // innermost open span last
};

std::mutex g_bufs_mutex;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;  // guarded; never shrinks
std::atomic<bool> g_nearly_full{false};

ThreadBuf& my_buf() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_bufs_mutex);
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    buf = g_bufs.back().get();
    buf->tid = static_cast<int>(g_bufs.size());
  }
  if (buf->spans.capacity() == 0) buf->spans.reserve(kSpansPerThread);
  return *buf;
}

std::uint32_t push(ThreadBuf& b, const Span& s) {
  if (b.spans.size() >= kSpansPerThread) return kNoParent;
  if (b.spans.size() == kNearlyFull) {
    g_nearly_full.store(true, std::memory_order_relaxed);
  }
  b.spans.push_back(s);
  return static_cast<std::uint32_t>(b.spans.size() - 1);
}

}  // namespace

const char* to_string(SpanName name) {
  switch (name) {
    case SpanName::kEpoch: return "epoch";
    case SpanName::kWave: return "wave";
    case SpanName::kGraph: return "graph";
    case SpanName::kSubmit: return "submit";
    case SpanName::kExecute: return "runtime.execute";
    case SpanName::kSeed: return "ttg.seed";
    case SpanName::kWait: return "wait";
    case SpanName::kBody: return "body";
    case SpanName::kSend: return "ttg.send";
    case SpanName::kKernel: return "taskbench.kernel";
    case SpanName::kReadyWait: return "sched.ready_wait";
    case SpanName::kPost: return "comm.post";
    case SpanName::kHandler: return "comm.handler";
    case SpanName::kDeliver: return "comm.deliver";
    case SpanName::kCount_: break;
  }
  return "?";
}

void start_tracing(bool on) {
  std::lock_guard<std::mutex> lock(g_bufs_mutex);
  for (auto& b : g_bufs) {
    std::vector<Span>().swap(b->spans);
    b->open.clear();
  }
  g_nearly_full.store(false, std::memory_order_relaxed);
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

bool spans_nearly_full() {
  return g_nearly_full.load(std::memory_order_relaxed);
}

std::vector<ThreadSpans> collect_spans() {
  std::lock_guard<std::mutex> lock(g_bufs_mutex);
  std::vector<ThreadSpans> out;
  for (const auto& b : g_bufs) {
    if (b->spans.empty()) continue;
    out.push_back(ThreadSpans{b->tid, std::move(b->spans)});
    b->spans = {};
  }
  return out;
}

std::uint32_t open_span(SpanName name, std::uint32_t group,
                        std::uint32_t arg, std::uint64_t t0) {
  ThreadBuf& b = my_buf();
  Span s;
  s.name = name;
  s.arg = arg;
  s.group = group;
  if (!b.open.empty()) {
    s.parent = b.open.back();
    if (group == 0) s.group = b.spans[s.parent].group;
  }
  s.t0 = t0 != 0 ? t0 : ttg::rdtsc();
  const std::uint32_t h = push(b, s);
  if (h != kNoParent) b.open.push_back(h);
  return h;
}

std::uint64_t close_span(std::uint32_t handle) {
  ThreadBuf& b = my_buf();
  const std::uint64_t t1 = ttg::rdtsc();
  b.spans[handle].t1 = t1;
  b.open.pop_back();
  return t1;
}

void add_span(SpanName name, std::uint64_t t0, std::uint64_t t1,
              std::uint32_t group, std::uint32_t arg) {
  Span s;
  s.name = name;
  s.t0 = t0;
  s.t1 = t1;
  s.group = group;
  s.arg = arg;
  (void)push(my_buf(), s);
}

std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  struct Child {
    std::uint32_t parent;
    std::uint64_t t0, t1;
  };
  std::vector<Child> children;
  for (const Span& s : spans) {
    if (s.parent != kNoParent && s.parent < spans.size()) {
      children.push_back({s.parent, s.t0, std::max(s.t0, s.t1)});
    }
  }
  std::sort(children.begin(), children.end(),
            [](const Child& a, const Child& b) {
              return a.parent != b.parent ? a.parent < b.parent : a.t0 < b.t0;
            });
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].t1 > spans[i].t0 ? spans[i].t1 - spans[i].t0 : 0;
  }
  // Sweep each parent's children in start order, merging overlaps, and
  // subtract the covered part of the parent's interval.
  for (std::size_t i = 0; i < children.size();) {
    const std::uint32_t p = children[i].parent;
    const std::uint64_t lo = spans[p].t0;
    const std::uint64_t hi = std::max(spans[p].t0, spans[p].t1);
    std::uint64_t covered = 0;
    std::uint64_t cur0 = 0, cur1 = 0;
    bool have = false;
    for (; i < children.size() && children[i].parent == p; ++i) {
      const std::uint64_t a = std::clamp(children[i].t0, lo, hi);
      const std::uint64_t b = std::clamp(children[i].t1, lo, hi);
      if (have && a <= cur1) {
        cur1 = std::max(cur1, b);
        continue;
      }
      if (have) covered += cur1 - cur0;
      cur0 = a;
      cur1 = b;
      have = true;
    }
    if (have) covered += cur1 - cur0;
    self[p] -= std::min(self[p], covered);
  }
  return self;
}

Percentile percentile(const std::vector<double>& sorted, double q) {
  Percentile p;
  const std::size_t n = sorted.size();
  if (n == 0) return p;
  // Nearest rank: the smallest rank r with r >= q * n (1-based); the
  // epsilon keeps q * n that is integral in exact arithmetic integral.
  double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  r = std::clamp(r, 1.0, static_cast<double>(n));
  const auto rank = static_cast<std::size_t>(r);
  p.value = sorted[rank - 1];
  p.beyond = n - rank;
  return p;
}

double median(std::vector<double> values) {
  const std::size_t n = values.size();
  if (n == 0) return 0;
  auto mid = values.begin() + static_cast<std::ptrdiff_t>(n / 2);
  std::nth_element(values.begin(), mid, values.end());
  if (n % 2 == 1) return *mid;
  const double upper = *mid;
  const double lower = *std::max_element(values.begin(), mid);
  return (lower + upper) / 2;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<ThreadSpans>& threads,
                        std::size_t max_per_thread) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t origin = ~std::uint64_t{0};
  for (const auto& t : threads) {
    for (const Span& s : t.spans) origin = std::min(origin, s.t0);
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (const auto& t : threads) {
    const std::vector<std::uint64_t> self = self_times(t.spans);
    const std::size_t n = std::min(t.spans.size(), max_per_thread);
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = t.spans[i];
      const std::uint64_t t1 = std::max(s.t0, s.t1);
      std::fprintf(
          f,
          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"group\":%u,\"parent\":%lld,"
          "\"arg\":%u,\"self_us\":%.3f}}",
          first ? "" : ",\n", to_string(s.name), t.tid,
          ttg::cycles_to_ns(s.t0 - origin) / 1e3,
          ttg::cycles_to_ns(t1 - s.t0) / 1e3, s.group,
          s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
          s.arg, ttg::cycles_to_ns(self[i]) / 1e3);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
