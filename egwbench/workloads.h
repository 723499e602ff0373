// Inputs shared by the benchmark (egwbench.cc) and the reference maker
// (make_refs.cc): the seeded editing-trace presets and the reference
// digests both programs agree on.

#ifndef EGWBENCH_WORKLOADS_H_
#define EGWBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trace.h"

namespace egwbench {

// Every trace workload runs the Table 1 presets at this scale (the scale
// the repository's fig8 numbers are quoted at).
inline constexpr double kTraceScale = 0.25;

// The trace inputs come in a fixed number of variants, because each
// variant's reference digests cost minutes of CPU to compute
// (SimpleWalker is quadratic). A run's --seed picks variant
// seed % kTraceVariants; variant 0 is the repository's own presets.
inline constexpr uint64_t kTraceVariants = 4;

inline constexpr const char* kConcurrentTraces[] = {"C1", "C2"};
inline constexpr const char* kSequentialAsyncTraces[] = {"S1", "S2", "S3", "A1", "A2"};

// True for the linear-history presets, whose ops replay as plain string
// edits in LV order.
bool IsSequential(std::string_view name);

// The named Table 1 preset at kTraceScale, with its generator seed moved
// by `variant` (variant 0 reproduces GenerateNamedTrace exactly).
egwalker::Trace GenerateVariant(std::string_view name, uint64_t variant);

// FNV-1a 64 of the document text, as 16 hex digits.
std::string Digest(std::string_view text);

// Applies a linear history's ops in LV order to a plain string. Only valid
// for IsSequential traces (every event's parent is its predecessor).
std::string PlainReplay(const egwalker::Trace& trace);

// One line of the reference file: the final text of `trace` in `variant`.
struct TraceRef {
  uint64_t chars = 0;
  std::string digest;
};
// variant -> trace name -> reference.
using RefTable = std::map<uint64_t, std::map<std::string, TraceRef>>;

// Reads the reference file (see make_refs.cc for its format). Returns
// std::nullopt if the file is missing or malformed.
std::optional<RefTable> ReadRefs(const std::string& path, std::string* error);

}  // namespace egwbench

#endif  // EGWBENCH_WORKLOADS_H_
