#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace egwbench {

SpanLog::SpanLog(std::string workload)
    : workload_(std::move(workload)), origin_(std::chrono::steady_clock::now()) {}

double SpanLog::NowUs() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanLog::Open(const char* name) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.iter = iter_;
  span.start_us = NowUs();
  spans_.push_back(span);
  int index = static_cast<int>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void SpanLog::Close(int index) {
  spans_[static_cast<size_t>(index)].end_us = NowUs();
  // Spans are strictly nested (RAII), so the closing span is the top.
  stack_.pop_back();
}

std::map<std::string, double> SpanLog::SelfMs(uint32_t iter) const {
  // Children close before their parents, so one pass in index order can
  // subtract each span's duration from its parent's total.
  std::vector<double> self(spans_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_us - spans_[i].start_us;
    int parent = spans_[i].parent;
    if (parent >= 0) {
      self[static_cast<size_t>(parent)] -= spans_[i].end_us - spans_[i].start_us;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].iter == iter) {
      out[spans_[i].name] += self[i] / 1000.0;
    }
  }
  return out;
}

bool SpanLog::WriteChrome(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"egwbench %s\"}}",
               workload_.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 ",\n{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"iter\":%u,"
                 "\"workload\":\"%s\"}}",
                 s.name, s.start_us, s.end_us - s.start_us, i, s.parent, s.iter,
                 workload_.c_str());
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace egwbench
