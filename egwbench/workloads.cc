#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "trace/generate.h"

namespace egwbench {

using egwalker::AsyncConfig;
using egwalker::GenerateAsync;
using egwalker::GenerateConcurrent;
using egwalker::GenerateSequential;
using egwalker::OpKind;
using egwalker::Trace;

bool IsSequential(std::string_view name) { return !name.empty() && name[0] == 'S'; }

Trace GenerateVariant(std::string_view name, uint64_t variant) {
  // Same configurations as egwalker::GenerateNamedTrace; only the seeds
  // move with the variant. The benchmark checks at set-up that variant 0
  // still equals GenerateNamedTrace.
  const double scale = kTraceScale;
  auto events = [scale](double thousands) {
    return static_cast<uint64_t>(std::llround(thousands * 1000.0 * scale));
  };
  auto seed = [variant](uint64_t preset) { return preset + variant * 0x10000; };
  std::string label(name);
  if (name == "S1") {
    return GenerateSequential({events(779), 0.575, 2, seed(0x51)}, label);
  }
  if (name == "S2") {
    return GenerateSequential({events(1105), 0.267, 1, seed(0x52)}, label);
  }
  if (name == "S3") {
    return GenerateSequential({events(2339), 0.099, 2, seed(0x53)}, label);
  }
  if (name == "C1") {
    return GenerateConcurrent({events(652), 0.901, 3, 3.65, 20.6, seed(0xC1)}, label);
  }
  if (name == "C2") {
    return GenerateConcurrent({events(608), 0.930, 3, 2.4, 12.9, seed(0xC2)}, label);
  }
  AsyncConfig cfg;
  if (name == "A1") {
    cfg.target_events = events(947);
    cfg.chars_remaining = 0.078;
    cfg.style = AsyncConfig::Style::kSerial;
    cfg.branch_event_fraction = 0.10;
    cfg.target_commits = static_cast<uint64_t>(std::max(9.0, 150.0 * scale));
    cfg.authors = 194;
    cfg.seed = seed(0xA1);
    return GenerateAsync(cfg, label);
  }
  if (name == "A2") {
    cfg.target_events = events(698);
    cfg.chars_remaining = 0.496;
    cfg.style = AsyncConfig::Style::kInterleaved;
    cfg.live_branches = 6;
    cfg.target_commits = static_cast<uint64_t>(std::max(8.0, 2430.0 * scale));
    cfg.authors = 299;
    cfg.seed = seed(0xA2);
    return GenerateAsync(cfg, label);
  }
  std::fprintf(stderr, "unknown trace preset %s\n", label.c_str());
  std::abort();
}

std::string Digest(std::string_view text) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

namespace {

// Splits UTF-8 into scalar values (the generators emit valid UTF-8).
std::u32string Decode(std::string_view utf8) {
  std::u32string out;
  out.reserve(utf8.size());
  for (size_t i = 0; i < utf8.size();) {
    auto b = static_cast<unsigned char>(utf8[i]);
    int len = b < 0x80 ? 1 : b < 0xE0 ? 2 : b < 0xF0 ? 3 : 4;
    char32_t cp = len == 1 ? b : len == 2 ? (b & 0x1F) : len == 3 ? (b & 0x0F) : (b & 0x07);
    for (int k = 1; k < len; ++k) {
      cp = (cp << 6) | (static_cast<unsigned char>(utf8[i + static_cast<size_t>(k)]) & 0x3F);
    }
    out.push_back(cp);
    i += static_cast<size_t>(len);
  }
  return out;
}

std::string Encode(const std::u32string& text) {
  std::string out;
  out.reserve(text.size());
  for (char32_t cp : text) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }
  return out;
}

}  // namespace

std::string PlainReplay(const Trace& trace) {
  std::u32string doc;
  for (const egwalker::OpRun& run : trace.ops.runs()) {
    uint64_t n = run.span.size();
    if (run.kind == OpKind::kInsert) {
      doc.insert(run.pos, Decode(run.text));
    } else if (run.fwd) {
      doc.erase(run.pos, n);  // Every event deletes at pos.
    } else {
      doc.erase(run.pos + 1 - n, n);  // Backspace: event i deletes pos - i.
    }
  }
  return Encode(doc);
}

std::optional<RefTable> ReadRefs(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return std::nullopt;
  }
  RefTable table;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    uint64_t variant = 0;
    std::string name;
    TraceRef ref;
    if (!(fields >> variant >> name >> ref.chars >> ref.digest) || ref.digest.size() != 16) {
      *error = path + ": malformed line: " + line;
      return std::nullopt;
    }
    table[variant][name] = ref;
  }
  return table;
}

}  // namespace egwbench
