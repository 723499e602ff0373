// Shared pieces of the end-to-end benchmark (see README.md): the inputs a
// workload is built from, the result the run prints, and the two phases
// every iteration runs.
//
// Every workload is a set of documents plus a recorded inbound message
// stream for a server:
//  - the document phase merges each document's whole history into a fresh
//    replica (one patch), saves it at rest and loads it back;
//  - the server phase replays the stream through a Router, tick by tick,
//    in a closed loop (a tick's batch is routed only after the previous
//    barrier returned), flushes every shard and reloads every chain.
// The documents are editing traces; the stream carries the last tenth of
// each trace's history, one patch per tick.

#ifndef EGWBENCH_BENCH_H_
#define EGWBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/doc.h"
#include "server/protocol.h"
#include "spans.h"

namespace egwbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// The registry's at-rest options: v2, compressed columns, cached text.
egwalker::SaveOptions AtRestOptions();
// The same with column compression off.
egwalker::SaveOptions RawOptions();

// One document of a workload, with the references it is checked against.
struct DocInput {
  std::string name;
  std::unique_ptr<egwalker::Doc> source;  // Holds the full history.
  std::string full_patch;                 // MakePatch(source, {}).
  uint64_t events = 0;
  std::string expected_digest;            // Digest() of the final text.
  uint64_t expected_chars = 0;
};

// A recorded inbound stream for the server phase.
struct RecordedMsg {
  uint64_t tick = 0;
  int from = -1;
  egwalker::Message msg;
};
struct Stream {
  std::vector<RecordedMsg> msgs;    // Ticks ascending.
  int endpoints = 1;                // Server (id 0) plus client endpoints.
  int shards = 1;
  size_t max_resident = 0;          // 0 = every document stays resident.
  std::vector<std::string> docs;
  std::map<std::string, std::string> expected_text;  // Final text per doc.
  uint64_t expected_events = 0;     // Distinct events the clients pushed.
};

struct Workload {
  std::vector<DocInput> docs;
  Stream stream;
};

// Operations attempted and failed, with the first few failures spelled
// out on stderr.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Check(bool ok, const std::string& what);
};

// Per-iteration results of the two phases. Times are summed over the
// iteration's documents; the lists gather one sample per tick.
struct DocPhase {
  double merge_ms = 0, save_ms = 0, load_ms = 0;
  uint64_t file_bytes = 0, steady_heap_bytes = 0, merge_peak_heap_bytes = 0;
};
struct ServerPhase {
  double wall_ms = 0;
  uint64_t events_applied = 0;
  uint64_t bytes_at_rest = 0;
  std::vector<double> tick_ms;
};

// Named per-layer values of one traced iteration: times come from the span
// log, counters are filled in directly.
using LayerValues = std::map<std::string, double>;

inline void Add(LayerValues* layers, const char* name, double v) { (*layers)[name] += v; }

// Counts the columns of one v2 segment by codec (codec.columns_*).
void AddSegmentColumns(std::string_view segment, LayerValues* layers);

// Runs the document phase once. With a live span log, also makes the
// per-layer calls and adds their counters to *layers.
DocPhase RunDocPhase(Workload& w, Outcome& outcome, SpanLog* spans, LayerValues* layers);

// Runs the server phase once (a fresh Router each time). With a live span
// log, also replays the stream single-threaded into a bare Broker and
// DocRegistry and adds the per-layer counters to *layers.
ServerPhase RunServerPhase(const Stream& stream, Outcome& outcome, SpanLog* spans,
                           LayerValues* layers);

// Workload set-up (timed as setup_s by the caller).
struct TraceRef;
// `refs` holds the variant's reference digests; `ticks` is how many
// patches each trace's history is cut into for the server phase.
Workload SetupTraceWorkload(const std::vector<std::string>& traces, uint64_t variant,
                            const std::map<std::string, TraceRef>& refs, int ticks,
                            Outcome& outcome);

}  // namespace egwbench

#endif  // EGWBENCH_BENCH_H_
