// Bench-side tracing: one span around each call the benchmark makes into a
// library module. Spans live in memory and are written as a Chrome trace
// when the run ends; per-layer times are the spans' self times (duration
// minus the part covered by child spans). The library itself carries no
// span for this benchmark: every span is opened here, at the call site.

#ifndef EGWBENCH_SPANS_H_
#define EGWBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace egwbench {

class SpanLog {
 public:
  struct Span {
    const char* name = "";
    double start_us = 0;
    double end_us = 0;
    int parent = -1;     // Index into spans(), -1 for a root.
    uint32_t iter = 0;   // Iteration the span belongs to.
  };

  explicit SpanLog(std::string workload);

  // Spans are recorded only while enabled; a disabled log costs one branch.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void set_iteration(uint32_t iter) { iter_ = iter; }
  uint32_t iteration() const { return iter_; }

  int Open(const char* name);
  void Close(int index);

  const std::vector<Span>& spans() const { return spans_; }

  // Self time in ms per span name, over the spans of iteration `iter`.
  std::map<std::string, double> SelfMs(uint32_t iter) const;

  // Writes every span as Chrome trace "X" events (one thread, the bench's
  // own); parent and iteration ride along in args.
  bool WriteChrome(const std::string& path) const;

 private:
  double NowUs() const;

  std::string workload_;
  std::chrono::steady_clock::time_point origin_;
  bool enabled_ = false;
  uint32_t iter_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// RAII span; a no-op when the log is null or disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log != nullptr && log->enabled() ? log : nullptr),
        index_(log_ != nullptr ? log_->Open(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->Close(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

}  // namespace egwbench

#endif  // EGWBENCH_SPANS_H_
