#include "workloads.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/cycle_clock.hpp"
#include "common/rng.hpp"
#include "comm/tcp.hpp"
#include "runtime/trace.hpp"
#include "spans.hpp"
#include "taskbench/taskbench.hpp"
#include "ttg/ttg.hpp"

namespace perfbench {

namespace {

// --- sizes -------------------------------------------------------------
// Epochs are sized so a run of a few seconds holds well over 1000 of
// them: the p99 of per-graph latency then has at least ten samples
// beyond it.
constexpr int kChainTasks = 4096;     // chain tasks per epoch
constexpr int kStencilWidth = 16;     // Task Bench points per row
constexpr int kStencilSteps = 256;    // rows per stencil epoch
constexpr std::uint64_t kStencilFlops = 1000;
constexpr int kWireSteps = 32;        // rows per wire epoch
constexpr int kServingWorlds = 64;
constexpr int kServingChain = 16;     // tasks per serving graph
/// Open-loop arrival rate (graphs/s), fixed in absolute terms so a slower
/// runtime faces the same offered load: 15-25% of the closed-loop
/// saturation measured on the reference host (README.md says why not
/// more).
constexpr double kServingRate = 100000;

double ns(std::uint64_t cycles) { return ttg::cycles_to_ns(cycles); }
double ms_since(std::uint64_t t0) { return ns(ttg::rdtsc() - t0) / 1e6; }

// --- readiness: last input send end, per task key --------------------

class ReadyTable {
 public:
  explicit ReadyTable(std::size_t n)
      : n_(n), slots_(std::make_unique<std::atomic<std::uint64_t>[]>(n)) {
    for (std::size_t i = 0; i < n; ++i) slots_[i].store(0);
  }
  /// A send to the task in `slot` returned at `t` (keeps the latest).
  void note(std::size_t slot, std::uint64_t t) {
    auto& s = slots_[slot % n_];
    std::uint64_t cur = s.load(std::memory_order_relaxed);
    while (cur < t &&
           !s.compare_exchange_weak(cur, t, std::memory_order_relaxed)) {
    }
  }
  /// The task in `slot` starts: its readiness time, consumed.
  std::uint64_t take(std::size_t slot) {
    return slots_[slot % n_].exchange(0, std::memory_order_relaxed);
  }

 private:
  std::size_t n_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> slots_;
};

/// Brackets one task body: the body span, plus the ready-wait span from
/// the task's last input send to now.
class Body {
 public:
  Body(std::uint32_t group, ReadyTable& ready, std::size_t slot) {
    if (!tracing()) return;
    const std::uint64_t now = ttg::rdtsc();
    if (const std::uint64_t r = ready.take(slot); r != 0) {
      add_span(SpanName::kReadyWait, r, std::max(r, now), group);
    }
    handle_ = open_span(SpanName::kBody, group, 0, now);
  }
  ~Body() {
    if (handle_ != kNoParent) close_span(handle_);
  }
  Body(const Body&) = delete;
  Body& operator=(const Body&) = delete;

 private:
  std::uint32_t handle_ = kNoParent;
};

template <std::size_t I, typename K, typename V, typename Outs>
void send(const K& key, V&& value, Outs& outs, ReadyTable& ready,
          std::size_t slot) {
  if (!tracing()) {
    ttg::send<I>(key, std::forward<V>(value), outs);
    return;
  }
  const std::uint32_t h = open_span(SpanName::kSend, 0);
  ttg::send<I>(key, std::forward<V>(value), outs);
  ready.note(slot, h != kNoParent ? close_span(h) : ttg::rdtsc());
}

template <std::size_t I, typename K, typename Outs>
void sendk(const K& key, Outs& outs, ReadyTable& ready, std::size_t slot) {
  if (!tracing()) {
    ttg::sendk<I>(key, outs);
    return;
  }
  const std::uint32_t h = open_span(SpanName::kSend, 0);
  ttg::sendk<I>(key, outs);
  ready.note(slot, h != kNoParent ? close_span(h) : ttg::rdtsc());
}

/// One external seed (send_input/sendk_input) from the driving thread.
template <typename F>
void seed(F&& f, std::uint32_t group, ReadyTable& ready, std::size_t slot) {
  if (!tracing()) {
    f();
    return;
  }
  const std::uint32_t h = open_span(SpanName::kSeed, group);
  f();
  ready.note(slot, h != kNoParent ? close_span(h) : ttg::rdtsc());
}

// --- segment plumbing ---------------------------------------------------

/// Brackets the timed phase: counter deltas, and the census in kCensus.
class Probe {
 public:
  Probe(const Segment& seg, SegmentResult& r) : seg_(seg), r_(r) {
    if (seg_.mode == Mode::kCensus) ttg::atomic_ops::set_enabled(true);
    atoms0_ = ttg::atomic_ops::snapshot();
    counters0_ = Counters::read();
  }
  ~Probe() {
    r_.counters = Counters::read() - counters0_;
    if (seg_.mode == Mode::kCensus) {
      r_.census = ttg::atomic_ops::snapshot() - atoms0_;
      ttg::atomic_ops::set_enabled(false);
    }
  }
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

 private:
  const Segment& seg_;
  SegmentResult& r_;
  ttg::AtomicOpSnapshot atoms0_;
  Counters counters0_;
};

/// Runs `op` until the segment's budget is spent (at least once). A
/// traced segment also stops before its span buffers fill.
template <typename Op>
void timed_loop(const Segment& seg, Op&& op) {
  const std::uint64_t end =
      ttg::rdtsc() + ttg::ns_to_cycles(seg.seconds * 1e9);
  do {
    op();
  } while (ttg::rdtsc() < end && !(tracing() && spans_nearly_full()));
}

/// Records one closed-loop epoch of `tasks` tasks.
void record_epoch(SegmentResult& r, std::uint64_t cycles, std::uint64_t tasks,
                  bool ok, const std::string& what) {
  const double wall_ns = ns(cycles);
  r.op_ns_per_task.push_back(wall_ns / static_cast<double>(tasks));
  r.latency_ms.push_back(wall_ns / 1e6);
  r.closed_s += wall_ns / 1e9;
  r.closed_tasks += tasks;
  r.closed_graphs += 1;
  r.attempted += 1;
  if (!ok) {
    r.failed += 1;
    if (r.errors.size() < 8) r.errors.push_back(what);
  }
}

/// Runs one closed-loop epoch on the driving thread: execute, seeds,
/// wait, all inside an epoch span. Returns the epoch's status and its
/// wall time in cycles.
template <typename Seeds>
std::pair<ttg::Status, std::uint64_t> closed_epoch(ttg::World& world,
                                                   std::uint32_t g,
                                                   Seeds&& seeds) {
  const std::uint64_t t0 = ttg::rdtsc();
  ttg::Status st;
  {
    Scope epoch(SpanName::kEpoch, g);
    ttg::Submission sub;
    {
      Scope submit(SpanName::kSubmit, g);
      {
        Scope ex(SpanName::kExecute, g);
        sub = world.execute();
      }
      seeds();
    }
    Scope w(SpanName::kWait, g);
    st = sub.wait();
  }
  return {st, ttg::rdtsc() - t0};
}

// --- chain ----------------------------------------------------------------

std::int64_t chain_a(std::int64_t a, int k) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                       6364136223846793005ULL +
                                   static_cast<std::uint64_t>(k));
}
std::int64_t chain_b(std::int64_t b, std::int64_t a) { return b ^ (a >> 7); }

SegmentResult run_chain(const Segment& seg) {
  SegmentResult r;
  r.workers = 1;
  const std::uint64_t t_setup = ttg::rdtsc();
  ttg::Config cfg = ttg::Config::optimized();
  cfg.num_threads = 1;
  ttg::World world(cfg);
  ttg::Edge<int, std::int64_t> ea("a"), eb("b");
  std::atomic<std::uint32_t> group{0};
  ReadyTable ready(kChainTasks + 1);
  // Written by the last task, read after wait() returns.
  std::int64_t out_a = 0, out_b = 0;
  auto tt = ttg::make_tt<int>(
      [&](const int& k, std::int64_t& a, std::int64_t& b, auto& outs) {
        Body body(group.load(std::memory_order_relaxed), ready,
                  static_cast<std::size_t>(k));
        if (k < kChainTasks) {
          // Lvalue sends: the copy path, one new data copy per flow.
          const std::int64_t na = chain_a(a, k);
          const std::int64_t nb = chain_b(b, na);
          const auto next = static_cast<std::size_t>(k + 1);
          send<0>(k + 1, na, outs, ready, next);
          send<1>(k + 1, nb, outs, ready, next);
        } else {
          out_a = a;
          out_b = b;
        }
      },
      ttg::edges(ea, eb), ttg::edges(ea, eb), "chain", world);
  r.world_ms = ms_since(t_setup);

  ttg::SplitMix64 rng(seg.seed);
  std::uint32_t next_group = 0;
  auto epoch = [&](bool timed) {
    const std::uint32_t g = ++next_group;
    group.store(g, std::memory_order_relaxed);
    const auto a0 = static_cast<std::int64_t>(rng.next());
    const auto b0 = static_cast<std::int64_t>(rng.next());
    const auto [st, cycles] = closed_epoch(world, g, [&] {
      seed([&] { tt->send_input<0>(0, a0); }, g, ready, 0);
      seed([&] { tt->send_input<1>(0, b0); }, g, ready, 0);
    });
    std::int64_t a = a0, b = b0;
    for (int k = 0; k < kChainTasks; ++k) {
      a = chain_a(a, k);
      b = chain_b(b, a);
    }
    const bool ok = st.ok() && out_a == a && out_b == b;
    if (timed) {
      record_epoch(r, cycles, kChainTasks + 1, ok,
                   st.ok() ? "chain: wrong final values"
                           : "chain: epoch failed: " + st.reason);
    }
  };
  epoch(false);  // warm-up: pools, pending table, worker wake path
  r.setup_s = ns(ttg::rdtsc() - t_setup) / 1e9;

  {
    Probe probe(seg, r);
    timed_loop(seg, [&] { epoch(true); });
  }
  return r;
}

// --- Task Bench periodic stencil (stencil and wire) -----------------------

struct StencilSpec {
  int width = kStencilWidth;
  int steps = kStencilSteps;
  taskbench::Kernel kernel = taskbench::Kernel::kComputeBound;
  std::uint64_t flops = kStencilFlops;
  int nranks = 1;
};

taskbench::BenchConfig bench_config(const StencilSpec& s) {
  taskbench::BenchConfig cfg;
  cfg.pattern = taskbench::Pattern::kStencil1DPeriodic;
  cfg.kernel = s.kernel;
  cfg.width = s.width;
  cfg.steps = s.steps;
  cfg.iterations = taskbench::flops_to_iterations(s.flops);
  return cfg;
}

/// The periodic 1-D stencil as a TTG graph: a source row, W x T stencil
/// tasks with three inputs each (left, center and right origin), and a
/// collector for the last row. Built identically on every rank.
class StencilGraph {
 public:
  using Key = std::pair<int, int>;  // (t, x)

  StencilGraph(ttg::World& world, const StencilSpec& spec,
               std::atomic<std::uint32_t>& group)
      : cfg_(bench_config(spec)),
        group_(group),
        ready_(static_cast<std::size_t>((spec.steps + 2) * spec.width)),
        last_row_(static_cast<std::size_t>(spec.width)) {
    const int W = cfg_.width;
    const int T = cfg_.steps;
    // Routes point (t, x)'s value to its three t+1 consumers, or to the
    // collector from the last row.
    auto emit = [this, W, T](int t, int x, std::uint64_t v, auto& outs) {
      if (t == T) {
        send<3>(x, std::uint64_t{v}, outs, ready_, slot(T + 1, x));
        return;
      }
      const int left = (x + 1) % W;       // x is this consumer's left
      const int right = (x - 1 + W) % W;  // x is this consumer's right
      send<0>(Key{t + 1, left}, std::uint64_t{v}, outs, ready_,
              slot(t + 1, left));
      send<1>(Key{t + 1, x}, std::uint64_t{v}, outs, ready_, slot(t + 1, x));
      send<2>(Key{t + 1, right}, std::uint64_t{v}, outs, ready_,
              slot(t + 1, right));
    };
    auto stencil = ttg::make_tt<Key>(
        [this, emit, W](const Key& k, std::uint64_t& lv, std::uint64_t& cv,
                        std::uint64_t& rv, auto& outs) {
          const auto [t, x] = k;
          Body body(group_.load(std::memory_order_relaxed), ready_,
                    slot(t, x));
          // combine() takes the dependencies ordered by origin x.
          std::pair<int, std::uint64_t> by_origin[3] = {
              {(x - 1 + W) % W, lv}, {x, cv}, {(x + 1) % W, rv}};
          std::sort(std::begin(by_origin), std::end(by_origin));
          const std::uint64_t vals[3] = {by_origin[0].second,
                                         by_origin[1].second,
                                         by_origin[2].second};
          {
            Scope kernel(SpanName::kKernel, 0);
            (void)taskbench::run_kernel(cfg_, t, x);
          }
          emit(t, x, taskbench::combine(t, x, vals, 3), outs);
        },
        ttg::edges(el_, ec_, er_), ttg::edges(el_, ec_, er_, out_),
        "stencil", world);
    auto source = ttg::make_tt<int>(
        [this, emit](const int& x, const ttg::Void&, auto& outs) {
          Body body(group_.load(std::memory_order_relaxed), ready_,
                    slot(0, x));
          emit(0, x, taskbench::seed_value(x), outs);
        },
        ttg::edges(seed_), ttg::edges(el_, ec_, er_, out_), "source", world);
    auto collect = ttg::make_tt<int>(
        [this, T](const int& x, std::uint64_t& v, auto&) {
          Body body(group_.load(std::memory_order_relaxed), ready_,
                    slot(T + 1, x));
          std::lock_guard<std::mutex> lock(last_mutex_);
          last_row_[static_cast<std::size_t>(x)] = v;
          ++last_count_;
        },
        ttg::edges(out_), ttg::edges(), "collect", world);
    if (spec.nranks > 1) {
      const int n = spec.nranks;
      stencil->set_keymap([n](const Key& k) { return k.second % n; });
      source->set_keymap([n](const int& x) { return x % n; });
      collect->set_keymap([](const int&) { return 0; });
    }
    auto* src = source.get();
    seed_x_ = [src](int x) { src->template sendk_input<0>(x); };
    stencil_ = std::move(stencil);
    source_ = std::move(source);
    collect_ = std::move(collect);
  }

  StencilGraph(const StencilGraph&) = delete;
  StencilGraph& operator=(const StencilGraph&) = delete;

  std::uint64_t tasks() const {
    return static_cast<std::uint64_t>(cfg_.width) *
           static_cast<std::uint64_t>(cfg_.steps + 2);
  }

  /// Seeds the source row in the order of `perm` (driving rank only).
  void seed_row(const std::vector<int>& perm, std::uint32_t g) {
    for (int x : perm) {
      seed([&] { seed_x_(x); }, g, ready_, slot(0, x));
    }
  }

  /// Checks the collected last row against the reference checksum
  /// (collecting rank only) and clears it for the next epoch.
  bool check_and_reset(std::uint64_t expected) {
    std::lock_guard<std::mutex> lock(last_mutex_);
    const bool ok = last_count_ == cfg_.width &&
                    taskbench::fold_checksum(last_row_) == expected;
    last_count_ = 0;
    std::fill(last_row_.begin(), last_row_.end(), 0);
    return ok;
  }

 private:
  std::size_t slot(int t, int x) const {
    return static_cast<std::size_t>(t * cfg_.width + x);
  }

  taskbench::BenchConfig cfg_;
  std::atomic<std::uint32_t>& group_;
  ReadyTable ready_;
  ttg::Edge<int, ttg::Void> seed_{"seed"};
  ttg::Edge<Key, std::uint64_t> el_{"left"}, ec_{"center"}, er_{"right"};
  ttg::Edge<int, std::uint64_t> out_{"out"};
  std::mutex last_mutex_;
  std::vector<std::uint64_t> last_row_;  // guarded by last_mutex_
  int last_count_ = 0;                   // guarded by last_mutex_
  std::function<void(int)> seed_x_;
  std::shared_ptr<void> stencil_, source_, collect_;
};

std::vector<int> permutation(int n, ttg::SplitMix64& rng) {
  std::vector<int> p(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(i + 1)));
    std::swap(p[static_cast<std::size_t>(i)], p[static_cast<std::size_t>(j)]);
  }
  return p;
}

SegmentResult run_stencil(const Segment& seg) {
  SegmentResult r;
  const StencilSpec spec;
  static const std::uint64_t expected =
      taskbench::reference_checksum(bench_config(spec));
  const std::uint64_t t_setup = ttg::rdtsc();
  ttg::Config cfg = ttg::Config::optimized();
  cfg.num_threads = 0;  // one worker per hardware thread
  r.workers = cfg.threads();
  ttg::World world(cfg);
  std::atomic<std::uint32_t> group{0};
  StencilGraph graph(world, spec, group);
  r.world_ms = ms_since(t_setup);

  ttg::SplitMix64 rng(seg.seed);
  std::uint32_t next_group = 0;
  auto epoch = [&](bool timed) {
    const std::uint32_t g = ++next_group;
    group.store(g, std::memory_order_relaxed);
    const std::vector<int> perm = permutation(spec.width, rng);
    const auto [st, cycles] =
        closed_epoch(world, g, [&] { graph.seed_row(perm, g); });
    const bool ok = graph.check_and_reset(expected) && st.ok();
    if (timed) {
      record_epoch(r, cycles, graph.tasks(), ok,
                   st.ok() ? "stencil: checksum mismatch"
                           : "stencil: epoch failed: " + st.reason);
    }
  };
  epoch(false);
  r.setup_s = ns(ttg::rdtsc() - t_setup) / 1e9;

  {
    Probe probe(seg, r);
    timed_loop(seg, [&] { epoch(true); });
  }
  return r;
}

// --- wire: two ranks over TCP in one process ------------------------------

/// Post timestamps per sending rank, indexed by that rank's post
/// sequence number. TCP delivers one connection's frames in order, so the
/// receiver's n-th frame from a rank is that rank's n-th post.
class WireClock {
 public:
  static constexpr std::size_t kCap = std::size_t{1} << 20;
  WireClock() {
    for (auto& s : stamps_) {
      s = std::make_unique<std::atomic<std::uint64_t>[]>(kCap);
      for (std::size_t i = 0; i < kCap; ++i) s[i].store(0);
    }
  }
  void set(int rank, std::uint64_t seq, std::uint64_t t) {
    if (seq < kCap) stamps_[rank][seq].store(t, std::memory_order_release);
  }
  std::uint64_t get(int rank, std::uint64_t seq) const {
    return seq < kCap ? stamps_[rank][seq].load(std::memory_order_acquire)
                      : 0;
  }

 private:
  std::unique_ptr<std::atomic<std::uint64_t>[]> stamps_[2];
};

/// Communicator decorator: times post() and the frame handler, and pairs
/// each received frame with its post for the delivery latency. A plain
/// forwarder while spans are off.
class TimedComm final : public ttg::comm::Communicator {
 public:
  TimedComm(std::unique_ptr<ttg::comm::Communicator> inner, WireClock& clock)
      : inner_(std::move(inner)), clock_(clock) {}
  TimedComm(const TimedComm&) = delete;
  TimedComm& operator=(const TimedComm&) = delete;

  int rank() const override { return inner_->rank(); }
  int size() const override { return inner_->size(); }

  void set_frame_handler(ttg::comm::FrameHandler handler) override {
    inner_->set_frame_handler(
        [this, handler = std::move(handler)](int source, const std::byte* data,
                                             std::size_t n) {
          if (!tracing()) {
            handler(source, data, n);
            return;
          }
          // Only the transport's progress thread runs handlers.
          const std::uint64_t now = ttg::rdtsc();
          const std::uint64_t sent =
              clock_.get(source, recv_seq_[source & 1]++);
          if (sent != 0) {
            add_span(SpanName::kDeliver, sent, std::max(sent, now), 0);
          }
          Scope s(SpanName::kHandler, 0, static_cast<std::uint32_t>(n));
          handler(source, data, n);
        });
  }
  void set_loss_handler(ttg::comm::LossHandler handler) override {
    inner_->set_loss_handler(std::move(handler));
  }

  void post(int target, const std::byte* data, std::size_t n) override {
    if (!tracing()) {
      inner_->post(target, data, n);
      return;
    }
    // Held across the inner post so sequence order is wire order.
    std::lock_guard<std::mutex> lock(post_mutex_);
    Scope s(SpanName::kPost, 0, static_cast<std::uint32_t>(n));
    clock_.set(rank(), send_seq_++, ttg::rdtsc());
    inner_->post(target, data, n);
  }

  bool supports_local_closures() const override {
    return inner_->supports_local_closures();
  }
  void shutdown() override { inner_->shutdown(); }

 private:
  std::unique_ptr<ttg::comm::Communicator> inner_;
  WireClock& clock_;
  std::mutex post_mutex_;
  std::uint64_t send_seq_ = 0;        // guarded by post_mutex_
  std::uint64_t recv_seq_[2] = {0, 0};  // progress thread only
};

/// A listening socket on 127.0.0.1, kernel-chosen port.
int loopback_listener(int* port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("wire: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 4) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    throw std::runtime_error("wire: cannot listen on 127.0.0.1");
  }
  *port = ntohs(addr.sin_port);
  return fd;
}

SegmentResult run_wire(const Segment& seg) {
  SegmentResult r;
  r.workers = 2;  // one per rank
  StencilSpec spec;
  spec.steps = kWireSteps;
  spec.kernel = taskbench::Kernel::kEmpty;
  spec.flops = 0;
  spec.nranks = 2;
  static const std::uint64_t expected =
      taskbench::reference_checksum(bench_config(spec));

  const std::uint64_t t_setup = ttg::rdtsc();
  WireClock clock;
  std::shared_ptr<TimedComm> comm[2];
  {
    int port[2] = {0, 0};
    ttg::comm::TcpCommunicator::Options opt[2];
    for (int i = 0; i < 2; ++i) opt[i].listen_fd = loopback_listener(&port[i]);
    for (int i = 0; i < 2; ++i) {
      opt[i].rank = i;
      opt[i].size = 2;
      for (int j = 0; j < 2; ++j) {
        opt[i].hosts.push_back("127.0.0.1:" + std::to_string(port[j]));
      }
    }
    // Rank 1 connects while rank 0 accepts; both constructors block
    // until the mesh is up.
    std::unique_ptr<ttg::comm::TcpCommunicator> tcp1;
    std::exception_ptr err1;
    std::thread boot1([&] {
      try {
        tcp1 = std::make_unique<ttg::comm::TcpCommunicator>(opt[1]);
      } catch (...) {
        err1 = std::current_exception();
      }
    });
    std::unique_ptr<ttg::comm::TcpCommunicator> tcp0;
    std::exception_ptr err0;
    try {
      tcp0 = std::make_unique<ttg::comm::TcpCommunicator>(opt[0]);
    } catch (...) {
      err0 = std::current_exception();
    }
    boot1.join();
    if (err0) std::rethrow_exception(err0);
    if (err1) std::rethrow_exception(err1);
    comm[0] = std::make_shared<TimedComm>(std::move(tcp0), clock);
    comm[1] = std::make_shared<TimedComm>(std::move(tcp1), clock);
  }
  r.mesh_ms = ms_since(t_setup);

  // Each rank's World is built and driven by its own thread, as in a
  // one-process-per-rank run: the constructing thread is the one the
  // termination detector counts as that rank's producer.
  const std::uint64_t t_world = ttg::rdtsc();
  ttg::Config cfg = ttg::Config::optimized();
  cfg.num_threads = 1;
  std::atomic<std::uint32_t> group{0};
  std::barrier sync(2);
  bool go = true;  // written by rank 0 before the opening barrier
  std::string rank1_error;  // read by rank 0 after the closing barrier
  std::thread rank1([&] {
    ttg::World w1(cfg, comm[1]);
    StencilGraph g1(w1, spec, group);
    sync.arrive_and_wait();  // built
    for (;;) {
      sync.arrive_and_wait();
      if (!go) return;
      ttg::Submission sub = w1.execute();
      const ttg::Status st = sub.wait();
      rank1_error = st.ok() ? "" : "wire: rank 1 epoch failed: " + st.reason;
      sync.arrive_and_wait();
    }
  });
  ttg::World w0(cfg, comm[0]);
  StencilGraph g0(w0, spec, group);
  sync.arrive_and_wait();
  r.world_ms = ms_since(t_world);

  ttg::SplitMix64 rng(seg.seed);
  std::uint32_t next_group = 0;
  auto epoch = [&](bool timed) {
    const std::uint32_t g = ++next_group;
    group.store(g, std::memory_order_relaxed);
    const std::vector<int> perm = permutation(spec.width, rng);
    sync.arrive_and_wait();
    const auto [st, cycles] =
        closed_epoch(w0, g, [&] { g0.seed_row(perm, g); });
    sync.arrive_and_wait();
    const bool sum_ok = g0.check_and_reset(expected);
    const bool ok = st.ok() && rank1_error.empty() && sum_ok;
    if (timed) {
      record_epoch(r, cycles, g0.tasks(), ok,
                   !st.ok()                ? "wire: epoch failed: " + st.reason
                   : !rank1_error.empty() ? rank1_error
                                          : "wire: checksum mismatch");
    }
  };
  epoch(false);
  r.setup_s = ns(ttg::rdtsc() - t_setup) / 1e9;
  {
    Probe probe(seg, r);
    timed_loop(seg, [&] { epoch(true); });
  }
  go = false;
  sync.arrive_and_wait();
  rank1.join();
  return r;
}

// --- serving: many tenant Worlds on one Runtime ---------------------------

struct Server {
  std::unique_ptr<ttg::World> world;
  ttg::Edge<int, ttg::Void> edge{"ctl"};
  std::shared_ptr<void> tt;
  std::function<void()> seed_fn;
  bool replay = false;
  std::unique_ptr<ttg::ReplayInstance> instance;
  int index = 0;
  std::atomic<std::uint32_t> group{0};

  ttg::Submission handle;
  bool open = false;
  std::uint64_t t_start = 0;  // latency clock: scheduled arrival / submit

  Server(ttg::Runtime& rt, int idx, ReadyTable& ready) : index(idx) {
    ttg::WorldOptions wo;
    wo.name = "srv" + std::to_string(idx);
    world = rt.make_world(wo);
    const std::size_t base = static_cast<std::size_t>(idx) * kServingChain;
    auto node = ttg::make_tt<int>(
        [this, &ready, base](const int& k, const ttg::Void&, auto& outs) {
          Body body(group.load(std::memory_order_relaxed), ready,
                    base + static_cast<std::size_t>(k));
          if (k + 1 < kServingChain) {
            sendk<0>(k + 1, outs, ready, base + static_cast<std::size_t>(k) + 1);
          }
        },
        ttg::edges(edge), ttg::edges(edge), "chain", *world);
    auto* raw = node.get();
    seed_fn = [raw] { raw->template sendk_input<0>(0); };
    tt = std::move(node);
    replay = idx % 2 == 0;
  }

  /// Records the replay template (replay servers only).
  void record() {
    world->begin_recording();
    seed_fn();
    world->fence();
    auto tmpl = world->end_recording();
    if (tmpl == nullptr) throw std::runtime_error("serving: recording failed");
    instance = std::make_unique<ttg::ReplayInstance>(std::move(tmpl));
  }

  /// Opens one graph: admit + seed + seal, from the single driving thread.
  void submit(std::uint32_t g, ReadyTable& ready) {
    group.store(g, std::memory_order_relaxed);
    Scope s(SpanName::kSubmit, g);
    {
      Scope ex(SpanName::kExecute, g);
      handle = replay ? world->execute_replay(*instance) : world->execute();
    }
    seed(seed_fn, g, ready,
         static_cast<std::size_t>(index) * kServingChain);
    world->seal_seeds();
    open = true;
  }
};

SegmentResult run_serving(const Segment& seg) {
  SegmentResult r;
  r.workers = 2;
  ReadyTable ready(static_cast<std::size_t>(kServingWorlds) * kServingChain);
  const std::uint64_t t_setup = ttg::rdtsc();
  ttg::RuntimeOptions opts;
  opts.config = ttg::Config::optimized();
  opts.config.num_threads = r.workers;
  opts.name = "serving";
  ttg::Runtime rt(opts);
  std::vector<std::unique_ptr<Server>> servers;
  for (int i = 0; i < kServingWorlds; ++i) {
    servers.push_back(std::make_unique<Server>(rt, i, ready));
  }
  r.world_ms = ms_since(t_setup);
  const std::uint64_t t_record = ttg::rdtsc();
  for (auto& s : servers) {
    if (s->replay) s->record();
  }
  r.record_ms = ms_since(t_record);

  std::uint32_t next_group = 0;
  std::uint64_t graphs_done = 0;
  // Collects every finished graph; with `target`, until it finished.
  auto collect = [&](Server* target, bool timed, bool open_loop) {
    for (;;) {
      bool target_open = false;
      for (auto& s : servers) {
        if (!s->open) continue;
        if (!s->handle.done()) {
          target_open |= s.get() == target;
          continue;
        }
        const std::uint64_t now = ttg::rdtsc();
        const ttg::Status st = s->handle.wait();
        s->open = false;
        ++graphs_done;
        if (tracing()) {
          add_span(SpanName::kGraph, s->t_start, now,
                   s->group.load(std::memory_order_relaxed));
        }
        if (!timed) continue;
        if (open_loop) r.latency_ms.push_back(ns(now - s->t_start) / 1e6);
        r.attempted += 1;
        if (!st.ok()) {
          r.failed += 1;
          if (r.errors.size() < 8) {
            r.errors.push_back("serving: graph failed: " + st.reason);
          }
        }
      }
      if (target == nullptr || !target_open) return;
      std::this_thread::yield();
    }
  };
  // Closed loop: open every World's graph, then drain the wave.
  auto wave = [&](bool timed) {
    const std::uint64_t t0 = ttg::rdtsc();
    {
      Scope w(SpanName::kWave, 0);
      for (auto& s : servers) {
        s->t_start = ttg::rdtsc();
        s->submit(++next_group, ready);
      }
      for (auto& s : servers) collect(s.get(), timed, false);
    }
    const std::uint64_t cycles = ttg::rdtsc() - t0;
    if (timed) {
      const double wall = ns(cycles);
      const auto tasks = static_cast<std::uint64_t>(kServingWorlds) *
                         kServingChain;
      r.op_ns_per_task.push_back(wall / static_cast<double>(tasks));
      r.closed_s += wall / 1e9;
      r.closed_tasks += tasks;
      r.closed_graphs += kServingWorlds;
    }
  };
  wave(false);  // first epochs: replay instantiation, pools
  r.setup_s = ns(ttg::rdtsc() - t_setup) / 1e9;

  std::vector<std::uint64_t> tasks_before;
  for (auto& s : servers) tasks_before.push_back(s->world->total_tasks_executed());
  const std::uint64_t graphs_before = graphs_done;
  {
    Probe probe(seg, r);
    Segment closed = seg;
    closed.seconds = seg.seconds / 2;
    timed_loop(closed, [&] { wave(true); });

    // Open loop: seeded Poisson arrivals at a fixed rate, round-robin
    // over the Worlds; latency runs from the scheduled arrival, so a
    // busy World's queueing delay counts against the system.
    ttg::SplitMix64 rng(seg.seed);
    const std::uint64_t t_begin = ttg::rdtsc();
    const std::uint64_t t_end =
        t_begin + ttg::ns_to_cycles(seg.seconds / 2 * 1e9);
    double due_ns = 0;
    for (std::uint64_t i = 0;; ++i) {
      due_ns += -std::log(1.0 - rng.next_double()) / kServingRate * 1e9;
      const std::uint64_t due = t_begin + ttg::ns_to_cycles(due_ns);
      if (due >= t_end || (tracing() && spans_nearly_full())) break;
      while (ttg::rdtsc() < due) {
        collect(nullptr, true, true);
        std::this_thread::yield();
      }
      Server* s = servers[i % servers.size()].get();
      if (s->open) collect(s, true, true);
      r.late_us.push_back(ns(ttg::rdtsc() - due) / 1e3);
      s->t_start = due;
      s->submit(++next_group, ready);
    }
    for (auto& s : servers) collect(s.get(), true, true);
  }

  std::uint64_t tasks = 0;
  for (std::size_t i = 0; i < servers.size(); ++i) {
    tasks += servers[i]->world->total_tasks_executed() - tasks_before[i];
  }
  const std::uint64_t want = (graphs_done - graphs_before) * kServingChain;
  if (tasks != want) {
    r.failed += 1;
    r.errors.push_back("serving: executed " + std::to_string(tasks) +
                       " tasks, expected " + std::to_string(want));
  }
  servers.clear();  // every World before its Runtime
  return r;
}

}  // namespace

Counters Counters::read() {
  Counters c;
  for (const ttg::trace::Metric& m :
       ttg::trace::MetricsRegistry::instance().snapshot()) {
    if (m.name == "copy_pool.hits") c.pool_hits += m.value;
    if (m.name == "copy_pool.misses") c.pool_misses += m.value;
    if (m.name.rfind("engine.r", 0) != 0) continue;
    const std::string field = m.name.substr(m.name.rfind('.') + 1);
    if (field == "tasks_executed") c.tasks += m.value;
    if (field == "steal_attempts") c.steal_attempts += m.value;
    if (field == "steal_successes") c.steal_successes += m.value;
    if (field == "ingress_hits") c.ingress_hits += m.value;
    if (field == "backoff_parks") c.parks += m.value;
  }
  return c;
}

Counters Counters::operator-(const Counters& b) const {
  Counters d;
  d.tasks = tasks - b.tasks;
  d.steal_attempts = steal_attempts - b.steal_attempts;
  d.steal_successes = steal_successes - b.steal_successes;
  d.ingress_hits = ingress_hits - b.ingress_hits;
  d.parks = parks - b.parks;
  d.pool_hits = pool_hits - b.pool_hits;
  d.pool_misses = pool_misses - b.pool_misses;
  return d;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"chain", "stencil",
                                                 "serving", "wire"};
  return names;
}

SegmentResult run_segment(const std::string& workload, const Segment& seg) {
  if (workload == "chain") return run_chain(seg);
  if (workload == "stencil") return run_stencil(seg);
  if (workload == "serving") return run_serving(seg);
  if (workload == "wire") return run_wire(seg);
  throw std::invalid_argument("unknown workload: " + workload);
}

}  // namespace perfbench
