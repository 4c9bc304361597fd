#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace pb::trace {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint64_t> g_next_req{1};
std::atomic<std::uint32_t> g_next_tid{1};

struct ThreadBuf {
  std::uint32_t tid = 0;
  std::vector<Span> spans;
};

std::mutex g_bufs_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;  // guarded by g_bufs_mu

// Buffers belong to the registry, so spans outlive the thread that
// recorded them; each thread appends only to its own.
ThreadBuf& LocalBuf() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    auto owned = std::make_unique<ThreadBuf>();
    owned->tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
    owned->spans.reserve(1 << 16);
    buf = owned.get();
    const std::lock_guard<std::mutex> lock(g_bufs_mu);
    g_bufs.push_back(std::move(owned));
  }
  return *buf;
}

thread_local std::uint64_t t_parent = 0;
thread_local std::uint64_t t_req = 0;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::uint64_t NewRequest() {
  return g_next_req.fetch_add(1, std::memory_order_relaxed);
}

Scope::Scope(const char* name, std::uint64_t req) : on_(Enabled()) {
  if (!on_) return;
  span_.name = name;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_parent;
  span_.req = req != 0 ? req : t_req;
  saved_parent_ = t_parent;
  saved_req_ = t_req;
  t_parent = span_.id;
  t_req = span_.req;
  span_.start_ns = NowNs();
}

Scope::~Scope() {
  if (!on_) return;
  span_.end_ns = NowNs();
  t_parent = saved_parent_;
  t_req = saved_req_;
  ThreadBuf& buf = LocalBuf();
  span_.tid = buf.tid;
  buf.spans.push_back(span_);
}

std::vector<Span> Collect() {
  std::vector<Span> all;
  const std::lock_guard<std::mutex> lock(g_bufs_mu);
  for (const auto& b : g_bufs) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return all;
}

void WriteChromeJson(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.tid << ",\"ts\":" << static_cast<double>(s.start_ns - t0) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"req\":" << s.req << "}}";
  }
  out << "\n]}\n";
}

std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, SelfTime> out;
  for (const Span& s : spans) {
    // Union of the child intervals, clipped to this span.
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    if (auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        iv.emplace_back(std::max(c->start_ns, s.start_ns),
                        std::min(c->end_ns, s.end_ns));
      }
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_b = 0, cur_e = -1;
    for (const auto& [b, e] : iv) {
      if (e <= b) continue;
      if (b > cur_e) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;
    const std::int64_t dur = s.end_ns - s.start_ns;
    SelfTime& st = out[s.name];
    st.total_ms += static_cast<double>(dur) / 1e6;
    st.self_ms += static_cast<double>(dur - covered) / 1e6;
    ++st.count;
  }
  return out;
}

}  // namespace pb::trace
