// Reference maker: computes each trace's final text with the unoptimised
// SimpleWalker (the paper's pseudocode, an O(n) scan per event) and prints
// one reference line per trace. For the linear-history presets it also
// replays the ops as plain string edits and refuses to print a reference
// the two disagree on.
//
//   egwbench_refs --variant <v> [<trace>...]
//
// Output lines: "<variant> <trace> <chars> <fnv1a64 hex>". make_refs.py
// runs this per (variant, trace) and writes egwbench/refs/trace_refs.txt.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/simple_walker.h"
#include "workloads.h"

namespace {

uint64_t CountChars(const std::string& utf8) {
  uint64_t n = 0;
  for (char c : utf8) {
    n += (static_cast<unsigned char>(c) & 0xC0) != 0x80;
  }
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t variant = 0;
  std::vector<std::string> names;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--variant" && i + 1 < argc) {
      variant = std::strtoull(argv[++i], nullptr, 10);
    } else if (!arg.empty() && arg[0] != '-') {
      names.push_back(arg);
    } else {
      std::fprintf(stderr, "usage: egwbench_refs --variant <v> [<trace>...]\n");
      return 2;
    }
  }
  if (names.empty()) {
    for (const char* n : egwbench::kConcurrentTraces) names.emplace_back(n);
    for (const char* n : egwbench::kSequentialAsyncTraces) names.emplace_back(n);
  }
  for (const std::string& name : names) {
    auto t0 = std::chrono::steady_clock::now();
    egwalker::Trace trace = egwbench::GenerateVariant(name, variant);
    egwalker::SimpleWalker walker(trace.graph, trace.ops);
    std::string text = walker.ReplayAll();
    if (egwbench::IsSequential(name) && egwbench::PlainReplay(trace) != text) {
      std::fprintf(stderr, "%s variant %llu: SimpleWalker and plain replay disagree\n",
                   name.c_str(), static_cast<unsigned long long>(variant));
      return 1;
    }
    double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    std::fprintf(stderr, "%s variant %llu: %.1f s\n", name.c_str(),
                 static_cast<unsigned long long>(variant), s);
    std::printf("%llu %s %llu %s\n", static_cast<unsigned long long>(variant), name.c_str(),
                static_cast<unsigned long long>(CountChars(text)),
                egwbench::Digest(text).c_str());
    std::fflush(stdout);
  }
  return 0;
}
