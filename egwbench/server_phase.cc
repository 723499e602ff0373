// The server phase: a recorded stream replayed through a Router.

#include <time.h>

#include <cstdio>

#include "bench.h"
#include "encoding/columnar.h"
#include "server/broker.h"
#include "server/netsim.h"
#include "server/registry.h"
#include "server/router.h"
#include "sync/patch.h"

namespace egwbench {

using egwalker::Broker;
using egwalker::Doc;
using egwalker::DocRegistry;
using egwalker::Message;
using egwalker::MsgType;
using egwalker::NetSim;
using egwalker::Router;

namespace {

egwalker::RouterConfig MakeRouterConfig(int shards, size_t max_resident) {
  egwalker::RouterConfig config;
  config.shards = shards;
  config.shard.registry.max_resident = max_resident;
  return config;
}

egwalker::NetSimConfig MakeNetConfig(uint64_t seed) {
  egwalker::NetSimConfig config;
  config.seed = seed;
  config.min_latency = 1;
  config.max_latency = 3;
  return config;
}

double CpuMs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

// Stands in for the recorded clients during replay: drops what it gets.
class DiscardEndpoint final : public egwalker::Endpoint {
 public:
  void OnMessage(NetSim&, int, int, const Message&) override {}
};

// Counts what the registry writes (traced run only).
class CountingStorage final : public egwalker::SegmentStorage {
 public:
  void Append(const std::string& doc, std::string segment) override {
    ++appends;
    bytes_appended += segment.size();
    inner_.Append(doc, std::move(segment));
  }
  const std::vector<std::string>* Chain(const std::string& doc) const override {
    return inner_.Chain(doc);
  }
  void Replace(const std::string& doc, std::vector<std::string> chain) override {
    ++replaces;
    for (const std::string& s : chain) {
      bytes_replaced += s.size();
    }
    inner_.Replace(doc, std::move(chain));
  }
  uint64_t appends = 0, bytes_appended = 0, replaces = 0, bytes_replaced = 0;

 private:
  egwalker::MemStorage inner_;
};

// The bare broker's outbound side in the single-threaded replay: replies
// go nowhere, as the recorded clients are not there to take them.
class DiscardSink final : public egwalker::MessageSink {
 public:
  void Send(int, Message) override {}
  uint64_t now() const override { return now_; }
  uint64_t now_ = 0;
};

// The stream replayed single-threaded into a bare Broker + DocRegistry
// (traced run only): per-message-type handling times and the broker and
// storage counters.
void ReplayBare(const Stream& stream, SpanLog* spans, LayerValues* layers) {
  CountingStorage storage;
  DocRegistry::Config registry_config;
  registry_config.max_resident = stream.max_resident;
  DocRegistry registry(storage, registry_config);
  Broker broker(registry);
  DiscardSink sink;
  size_t i = 0;
  while (i < stream.msgs.size()) {
    sink.now_ = stream.msgs[i].tick;
    for (; i < stream.msgs.size() && stream.msgs[i].tick == sink.now_; ++i) {
      const RecordedMsg& m = stream.msgs[i];
      ScopedSpan s(spans, m.msg.type == MsgType::kPatch ? "broker.handle_patch"
                                                          : "broker.handle_sync");
      broker.Handle(sink, m.from, m.msg);
    }
    ScopedSpan s(spans, "broker.flush_broadcasts");
    broker.FlushBroadcasts(sink);
  }
  const Broker::Stats& b = broker.stats();
  Add(layers, "broker.patch_encodes", static_cast<double>(b.patch_encodes));
  Add(layers, "broker.patch_encodes_shared", static_cast<double>(b.patch_encodes_shared));
  Add(layers, "broker.patch_encodes_reused", static_cast<double>(b.patch_encodes_reused));
  Add(layers, "broker.patch_events_scanned", static_cast<double>(b.patch_events_scanned));
  Add(layers, "broker.patch_events_encoded", static_cast<double>(b.patch_events_encoded));
  Add(layers, "broker.patches_applied", static_cast<double>(b.patches_applied));
  Add(layers, "broker.sync_requests", static_cast<double>(b.sync_requests));
  Add(layers, "broker.fanout_amplification",
      static_cast<double>(b.patch_events_encoded) /
          static_cast<double>(std::max<uint64_t>(1, stream.expected_events)));
  Add(layers, "storage.appends", static_cast<double>(storage.appends));
  Add(layers, "storage.bytes_appended", static_cast<double>(storage.bytes_appended));
  Add(layers, "storage.replaces", static_cast<double>(storage.replaces));
  Add(layers, "storage.bytes_replaced", static_cast<double>(storage.bytes_replaced));
}

}  // namespace

ServerPhase RunServerPhase(const Stream& stream, Outcome& outcome, SpanLog* spans,
                           LayerValues* layers) {
  ServerPhase out;
  NetSim net(MakeNetConfig(7));
  Router router(MakeRouterConfig(stream.shards, stream.max_resident));
  int self = router.Attach(net);
  std::vector<DiscardEndpoint> discards(static_cast<size_t>(stream.endpoints - 1));
  for (auto& d : discards) {
    net.AddEndpoint(&d);
  }
  // Round-robin placement: an exactly even split across shards.
  for (size_t d = 0; d < stream.docs.size(); ++d) {
    router.Assign(stream.docs[d], static_cast<int>(d) % stream.shards);
  }

  // Closed loop: route one recorded tick, then barrier; the next tick's
  // batch goes out only after the barrier returned.
  double cpu0 = CpuMs(CLOCK_PROCESS_CPUTIME_ID);
  double bench_cpu0 = CpuMs(CLOCK_THREAD_CPUTIME_ID);
  auto wall0 = Clock::now();
  {
    ScopedSpan replay(spans, "server.replay");
    size_t i = 0;
    uint64_t tick = stream.msgs.empty() ? 0 : stream.msgs.front().tick;
    while (i < stream.msgs.size()) {
      auto t0 = Clock::now();
      {
        ScopedSpan s(spans, "router.route");
        for (; i < stream.msgs.size() && stream.msgs[i].tick == tick; ++i) {
          router.OnMessage(net, stream.msgs[i].from, self, stream.msgs[i].msg);
        }
      }
      {
        ScopedSpan s(spans, "router.barrier");
        net.Tick();
      }
      out.tick_ms.push_back(MsSince(t0));
      ++tick;
    }
    ScopedSpan s(spans, "router.barrier");
    net.Run(64);  // The last broadcasts drain through.
  }
  out.wall_ms = MsSince(wall0);
  double cpu_ms = (CpuMs(CLOCK_PROCESS_CPUTIME_ID) - cpu0) -
                  (CpuMs(CLOCK_THREAD_CPUTIME_ID) - bench_cpu0);
  uint64_t blocked = router.TotalBlockedPushes();
  router.Stop();

  Broker::Stats broker_stats = router.AggregateBrokerStats();
  DocRegistry::Stats registry_stats;
  for (int s = 0; s < router.shard_count(); ++s) {
    registry_stats.Merge(router.shard(s).registry().stats());
  }
  outcome.Check(broker_stats.patches_rejected == 0, "server: no patch rejected");
  outcome.attempted += broker_stats.patches_in;

  {
    ScopedSpan s(spans, "registry.flush_all");
    for (int i = 0; i < router.shard_count(); ++i) {
      router.shard(i).registry().FlushAll();
    }
  }
  uint64_t chain_bytes = 0;
  for (int i = 0; i < router.shard_count(); ++i) {
    chain_bytes += router.shard(i).storage().total_bytes();
  }
  // Reload every chain: each must equal every client replica's final text.
  // The bytes at rest are the chains' size once compacted (each document
  // written as the one consolidated segment compaction writes): the raw
  // chain size is a sawtooth between compactions, so from one seed to the
  // next it says more about where the last compaction fell than about the
  // encoding (it is reported per layer as storage.chain_bytes).
  const egwalker::SaveOptions checkpoint = egwalker::DocRegistryConfig().checkpoint;
  {
    ScopedSpan s(spans, "registry.reload");
    for (const std::string& name : stream.docs) {
      const std::vector<std::string>* chain =
          router.shard(router.ShardOf(name)).storage().Chain(name);
      std::optional<Doc> doc;
      if (chain != nullptr) {
        doc = Doc::LoadChain(*chain, "bench-reload");
      }
      outcome.Check(doc.has_value(), name + ": chain load");
      if (!doc.has_value()) {
        continue;
      }
      out.events_applied += doc->end_lv();
      out.bytes_at_rest += doc->SaveSegment(0, checkpoint).size();
      auto expected = stream.expected_text.find(name);
      outcome.Check(expected != stream.expected_text.end() && doc->Text() == expected->second,
                    name + ": reloaded chain equals the client replicas");
    }
  }
  outcome.Check(out.events_applied == stream.expected_events,
                "server: events applied equals distinct events pushed");

  if (layers != nullptr) {
    Add(layers, "registry.loads", static_cast<double>(registry_stats.loads));
    Add(layers, "registry.flushes", static_cast<double>(registry_stats.flushes));
    Add(layers, "registry.compactions", static_cast<double>(registry_stats.compactions));
    Add(layers, "registry.evictions", static_cast<double>(registry_stats.evictions));
    Add(layers, "registry.session_resumes", static_cast<double>(registry_stats.session_resumes));
    Add(layers, "registry.replayed_on_load", static_cast<double>(registry_stats.replayed_on_load));
    Add(layers, "registry.lazy_bytes_skipped",
        static_cast<double>(registry_stats.lazy_bytes_skipped));
    Add(layers, "registry.hydrated_bytes_retired",
        static_cast<double>(registry_stats.hydrated_bytes_retired));
    Add(layers, "storage.chain_bytes", static_cast<double>(chain_bytes));
    Add(layers, "router.blocked_pushes", static_cast<double>(blocked));
    Add(layers, "shard.cpu_ms", cpu_ms);
    Add(layers, "shard.parallelism", cpu_ms / out.wall_ms);
    for (int i = 0; i < router.shard_count(); ++i) {
      for (const std::string& name : stream.docs) {
        const std::vector<std::string>* chain = router.shard(i).storage().Chain(name);
        for (size_t k = 0; chain != nullptr && k < chain->size(); ++k) {
          AddSegmentColumns((*chain)[k], layers);
        }
      }
    }
    ReplayBare(stream, spans, layers);
  }
  outcome.Check(registry_stats.chain_load_failures == 0, "server: chain_load_failures");
  return out;
}

}  // namespace egwbench
