// The document phase and the trace workloads' set-up.

#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "core/walker.h"
#include "encoding/columnar.h"
#include "graph/topo_sort.h"
#include "sync/patch.h"
#include "util/memtrack.h"
#include "workloads.h"

namespace egwbench {

using egwalker::Doc;
using egwalker::RemoteChunk;

egwalker::SaveOptions AtRestOptions() {
  egwalker::SaveOptions o;
  o.include_deleted_content = true;
  o.cache_final_doc = true;
  o.format_version = 2;
  o.compress_columns = true;
  return o;
}

egwalker::SaveOptions RawOptions() {
  egwalker::SaveOptions o = AtRestOptions();
  o.compress_columns = false;
  return o;
}

void AddSegmentColumns(std::string_view segment, LayerValues* layers) {
  static const char* kCodec[] = {"codec.columns_raw", "codec.columns_lz4",
                                 "codec.columns_lzhuf", "codec.columns_lzhuf_static"};
  if (auto info = egwalker::PeekSegment(segment)) {
    for (const egwalker::SegmentColumn& col : info->columns) {
      if (col.codec < 4) {
        Add(layers, kCodec[col.codec], 1);
      }
    }
  }
}

void Outcome::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    if (failed < 8) {
      std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    }
    ++failed;
  }
}

namespace {

// Share of each trace's history that arrives at the server tick by tick.
constexpr double kLiveShare = 0.1;
// Ticks between two pieces of a Git-style (A) history.
constexpr int kCommitStride = 10;
// Loads of every saved file per document phase.
constexpr int kLoadRepeats = 3;

uint64_t CountChars(const std::string& utf8) {
  uint64_t n = 0;
  for (char c : utf8) {
    n += (static_cast<unsigned char>(c) & 0xC0) != 0x80;
  }
  return n;
}

bool Matches(const DocInput& in, const std::string& text) {
  return CountChars(text) == in.expected_chars && Digest(text) == in.expected_digest;
}

// The per-layer calls for one document (traced run only). Each call sits in
// its own span; the counters go straight into *layers.
void TraceLayers(DocInput& in, const std::string& at_rest, SpanLog* spans,
                 LayerValues* layers) {
  Doc& src = *in.source;
  const egwalker::Trace& trace = src.trace();
  {
    ScopedSpan s(spans, "graph.plan");
    egwalker::WalkPlan plan = egwalker::PlanWalkAll(trace.graph);
    (void)plan;
  }
  std::vector<egwalker::XfOp> xf_ops;
  {
    // The replay whose output the rope layer re-applies below; untimed
    // because the sink itself costs time.
    egwalker::Walker capture(trace.graph, trace.ops);
    egwalker::Rope scratch;
    egwalker::ReplaySinks sinks;
    sinks.xf_ops = &xf_ops;
    capture.ReplayAll(scratch, {}, sinks);
  }
  {
    egwalker::Walker walker(trace.graph, trace.ops);
    egwalker::Rope rope;
    std::vector<egwalker::CriticalPoint> critical;
    egwalker::ReplaySinks sinks;
    sinks.critical_points = &critical;
    {
      ScopedSpan s(spans, "walker.replay");
      walker.ReplayAll(rope, {}, sinks);
    }
    Add(layers, "walker.critical_clears", static_cast<double>(critical.size()));
    Add(layers, "walker.peak_spans", static_cast<double>(walker.peak_span_count()));
    const egwalker::YataStats& y = walker.yata_stats();
    Add(layers, "yata.integrations", static_cast<double>(y.integrations));
    Add(layers, "yata.scan_steps", static_cast<double>(y.scan_steps));
    Add(layers, "yata.or_scan_steps", static_cast<double>(y.or_scan_steps));
    Add(layers, "yata.cmp_steps", static_cast<double>(y.cmp_steps));
    Add(layers, "yata.fast_inserts", static_cast<double>(y.fast_inserts));
  }
  std::optional<std::vector<RemoteChunk>> chunks;
  {
    ScopedSpan s(spans, "patch.decode");
    chunks = egwalker::DecodePatch(in.full_patch);
  }
  if (chunks.has_value()) {
    Doc peer("bench-peer");
    {
      ScopedSpan s(spans, "doc.apply_chunks");
      peer.ApplyRemoteChunks(*chunks);
    }
    Add(layers, "doc.replayed_events", static_cast<double>(peer.replayed_events()));
  }
  {
    egwalker::Rope rope;
    {
      ScopedSpan s(spans, "rope.apply");
      for (const egwalker::XfOp& op : xf_ops) {
        if (op.noop) {
          continue;
        }
        if (op.kind == egwalker::OpKind::kInsert) {
          rope.InsertAt(op.pos, op.text);
        } else {
          rope.RemoveAt(op.pos, op.count);
        }
      }
    }
    Add(layers, "rope.xf_ops", static_cast<double>(xf_ops.size()));
  }
  std::optional<std::string> cached;
  {
    ScopedSpan s(spans, "columnar.read_cached");
    cached = egwalker::ReadCachedDoc(at_rest);
  }
  if (cached.has_value()) {
    ScopedSpan s(spans, "rope.build");
    egwalker::Rope rope(*cached);
  }
  {
    std::string patch;
    {
      ScopedSpan s(spans, "patch.make");
      patch = egwalker::MakePatch(src, {});
    }
    Add(layers, "patch.bytes", static_cast<double>(patch.size()));
  }
  std::string raw;
  {
    ScopedSpan s(spans, "columnar.encode_raw");
    raw = src.Save(RawOptions());
  }
  Add(layers, "columnar.raw_bytes", static_cast<double>(raw.size()));
  {
    ScopedSpan s(spans, "columnar.decode");
    auto decoded = egwalker::DecodeTrace(at_rest);
  }
  {
    ScopedSpan s(spans, "columnar.decode_raw");
    auto decoded = egwalker::DecodeTrace(raw);
  }
  AddSegmentColumns(src.SaveSegment(0, AtRestOptions()), layers);
}

}  // namespace

DocPhase RunDocPhase(Workload& w, Outcome& outcome, SpanLog* spans, LayerValues* layers) {
  DocPhase out;
  std::vector<std::string> saved(w.docs.size());
  for (size_t i = 0; i < w.docs.size(); ++i) {
    DocInput& in = w.docs[i];
    ScopedSpan doc_span(spans, "doc");
    {
      egwalker::memtrack::ResetPeak();
      size_t base = egwalker::memtrack::CurrentBytes();
      Doc peer("bench-peer");
      std::optional<uint64_t> merged;
      auto t0 = Clock::now();
      {
        ScopedSpan s(spans, "sync.apply_patch");
        merged = egwalker::ApplyPatch(peer, in.full_patch);
      }
      out.merge_ms += MsSince(t0);
      out.merge_peak_heap_bytes += egwalker::memtrack::PeakBytes() - base;
      outcome.Check(merged.has_value() && *merged == in.events, in.name + ": merge");
      outcome.Check(Matches(in, peer.Text()), in.name + ": merged text vs reference");
      if (layers != nullptr) {
        const egwalker::DiffStats& d = peer.graph().diff_stats();
        Add(layers, "graph.diff_calls", static_cast<double>(d.calls));
        Add(layers, "graph.diff_runs_visited", static_cast<double>(d.runs_visited));
        Add(layers, "graph.diff_events_spanned", static_cast<double>(d.events_spanned));
      }
      t0 = Clock::now();
      {
        ScopedSpan s(spans, "doc.save");
        saved[i] = peer.Save(AtRestOptions());
      }
      out.save_ms += MsSince(t0);
      outcome.Check(!saved[i].empty(), in.name + ": save");
      out.file_bytes += saved[i].size();
    }
    if (layers != nullptr) {
      TraceLayers(in, saved[i], spans, layers);
    }
  }
  // Loads last, all kept alive together: the heap they retain is the
  // steady-state footprint of the open documents. Loads are short, so the
  // files are loaded kLoadRepeats times and the figures are their mean.
  for (int repeat = 0; repeat < kLoadRepeats; ++repeat) {
    std::vector<std::optional<Doc>> loaded;
    loaded.reserve(w.docs.size());
    size_t base = egwalker::memtrack::CurrentBytes();
    for (size_t i = 0; i < w.docs.size(); ++i) {
      auto t0 = Clock::now();
      {
        ScopedSpan s(spans, "doc.load");
        loaded.push_back(Doc::Load(saved[i], "bench-peer"));
      }
      out.load_ms += MsSince(t0);
    }
    out.steady_heap_bytes += egwalker::memtrack::CurrentBytes() - base;
    for (size_t i = 0; i < w.docs.size(); ++i) {
      const DocInput& in = w.docs[i];
      outcome.Check(loaded[i].has_value(), in.name + ": load");
      outcome.Check(loaded[i].has_value() && loaded[i]->end_lv() == in.events &&
                        Matches(in, loaded[i]->Text()),
                    in.name + ": Load(Save(doc)) keeps text and events");
    }
  }
  out.load_ms /= kLoadRepeats;
  out.steady_heap_bytes /= kLoadRepeats;
  return out;
}

Workload SetupTraceWorkload(const std::vector<std::string>& traces, uint64_t variant,
                            const std::map<std::string, TraceRef>& refs, int ticks,
                            Outcome& outcome) {
  Workload w;
  Stream& stream = w.stream;
  stream.shards = 1;
  stream.endpoints = 1 + static_cast<int>(traces.size());
  for (size_t t = 0; t < traces.size(); ++t) {
    const std::string& name = traces[t];
    auto ref = refs.find(name);
    if (ref == refs.end()) {
      std::fprintf(stderr, "no reference digest for %s in trace variant %llu\n", name.c_str(),
                   static_cast<unsigned long long>(variant));
      std::exit(3);
    }
    egwalker::Trace trace = GenerateVariant(name, variant);
    DocInput in;
    in.name = name;
    in.events = trace.graph.size();
    in.expected_digest = ref->second.digest;
    in.expected_chars = ref->second.chars;
    auto source = Doc::Load(egwalker::EncodeTrace(trace, egwalker::SaveOptions{}), "bench-src");
    outcome.Check(source.has_value(), name + ": source load");
    if (!source.has_value()) {
      std::exit(3);
    }
    in.source = std::make_unique<Doc>(std::move(*source));
    in.full_patch = egwalker::MakePatch(*in.source, {});

    // The live stream: a replica receives the history in causally ordered
    // pieces, and each piece is re-encoded as the patch one client sends
    // the server in that tick. The first piece carries the first
    // (1 - kLiveShare) of the history (the document the server already
    // holds when live editing starts); the rest arrives over `ticks` ticks.
    // Live-typed histories (S, C) send a piece every tick; the Git-style A
    // histories send one every kCommitStride ticks, as commits would.
    int client = 1 + static_cast<int>(t);
    stream.docs.push_back(name);
    RecordedMsg join;
    join.tick = 1;
    join.from = client;
    join.msg.type = egwalker::MsgType::kSyncRequest;
    join.msg.doc = name;
    join.msg.summary = egwalker::EncodeSummary({});
    stream.msgs.push_back(join);
    auto chunks = egwalker::DecodePatch(in.full_patch);
    outcome.Check(chunks.has_value(), name + ": decode full patch");
    Doc replica("bench-live");
    egwalker::VersionSummary sent;
    size_t next = 0;
    const uint64_t live_start = in.events - static_cast<uint64_t>(kLiveShare * in.events);
    const int stride = name[0] == 'A' ? kCommitStride : 1;
    const int pieces = ticks / stride;
    for (int piece = 0; piece <= pieces && chunks.has_value(); ++piece) {
      uint64_t goal = live_start + (in.events - live_start) * static_cast<uint64_t>(piece) /
                                       static_cast<uint64_t>(pieces);
      std::vector<RemoteChunk> batch;
      uint64_t have = replica.end_lv();
      while (next < chunks->size() && have < goal) {
        RemoteChunk chunk = (*chunks)[next];
        if (chunk.chain_previous && batch.empty() && next > 0) {
          // The chained predecessor went out in an earlier piece: name it.
          const RemoteChunk& prev = (*chunks)[next - 1];
          chunk.chain_previous = false;
          chunk.parents = {{prev.agent, prev.seq_start + prev.count - 1}};
        }
        have += chunk.count;
        batch.push_back(std::move(chunk));
        ++next;
      }
      if (batch.empty()) {
        continue;
      }
      auto applied = replica.ApplyRemoteChunks(batch);
      outcome.Check(applied.has_value(), name + ": replica piece");
      RecordedMsg m;
      m.tick = 2 + static_cast<uint64_t>(piece * stride);
      m.from = client;
      m.msg.type = egwalker::MsgType::kPatch;
      m.msg.doc = name;
      m.msg.patch = egwalker::MakePatch(replica, sent);
      sent = egwalker::SummarizeDoc(replica);
      m.msg.summary = egwalker::EncodeSummary(sent);
      stream.msgs.push_back(std::move(m));
    }
    outcome.Check(replica.end_lv() == in.events && Matches(in, replica.Text()),
                  name + ": replica fed in pieces converges to the reference");
    stream.expected_text[name] = replica.Text();
    stream.expected_events += in.events;
    w.docs.push_back(std::move(in));
  }
  std::stable_sort(stream.msgs.begin(), stream.msgs.end(),
                   [](const RecordedMsg& a, const RecordedMsg& b) { return a.tick < b.tick; });
  return w;
}

}  // namespace egwbench
