// Outside-in span tracing for the traced run.  The benchmark wraps each
// call it makes into a layer's public functions in a Scope; spans are kept
// in per-thread memory and written as Chrome trace-event JSON at the end.
// Nothing inside the program is instrumented: a layer's span covers the
// whole public call.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb::trace {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t req = 0;     ///< shared by the spans of one op
  std::uint32_t tid = 0;
};

/// Tracing is off unless enabled; a Scope then costs one relaxed load.
void Enable(bool on);
bool Enabled();

/// Fresh request id for the root span of one op.
std::uint64_t NewRequest();

class Scope {
 public:
  /// `req` != 0 starts a new op; 0 inherits the enclosing span's request.
  explicit Scope(const char* name, std::uint64_t req = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool on_ = false;
  Span span_;
  std::uint64_t saved_parent_ = 0;
  std::uint64_t saved_req_ = 0;
};

/// Every span recorded so far, from all threads.  Call with no Scope open
/// on any other thread.
std::vector<Span> Collect();

void WriteChromeJson(const std::string& path, const std::vector<Span>& spans);

struct SelfTime {
  double self_ms = 0;   ///< duration minus the time child spans cover
  double total_ms = 0;
  std::size_t count = 0;
};
std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans);

}  // namespace pb::trace
