#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "explore/artifact_cache.hpp"
#include "minicc/codegen.hpp"
#include "obs/obs.hpp"
#include "partition/platform_registry.hpp"
#include "suite/runner.hpp"
#include "support/json.hpp"

namespace perfbench {

using namespace b2h;

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::size_t Rng::Below(std::size_t bound) {
  return bound == 0 ? 0 : static_cast<std::size_t>(Next() % bound);
}

Pool BuildPool() {
  Pool pool;
  std::set<std::string> seen;  // content hashes
  const auto add = [&](const suite::Benchmark& bench, int opt_level,
                       int unroll, mips::SoftBinary binary) {
    if (!seen.insert(explore::HashBinary(binary)).second) return;
    PoolBinary entry;
    entry.bench = &bench;
    entry.opt_level = opt_level;
    entry.unroll = unroll;
    entry.name = bench.name;
    if (opt_level >= 0) {
      entry.name.append("@O").append(std::to_string(opt_level));
      if (opt_level == 3 && unroll != minicc::CompileOptions{}.unroll_factor) {
        entry.name.append("u").append(std::to_string(unroll));
      }
    }
    entry.binary = std::make_shared<const mips::SoftBinary>(std::move(binary));
    entry.reference = bench.reference();
    pool.binaries.push_back(std::move(entry));
  };
  for (const suite::Benchmark& bench : suite::AllBenchmarks()) {
    if (!bench.assembly.empty()) {
      auto built = suite::BuildBinary(bench);
      if (!built.ok()) {
        throw std::runtime_error("assembling " + bench.name + ": " +
                                 built.status().message());
      }
      add(bench, -1, 0, std::move(built).take());
      continue;
    }
    const int default_unroll = minicc::CompileOptions{}.unroll_factor;
    const std::pair<int, int> variants[] = {
        {0, 0}, {1, 0}, {2, 0}, {3, default_unroll}, {3, 2}, {3, 8}};
    for (const auto& [level, unroll] : variants) {
      minicc::CompileOptions options;
      options.opt_level = level;
      if (unroll != 0) options.unroll_factor = unroll;
      const obs::Stopwatch watch;
      auto compiled = minicc::Compile(bench.source, options);
      pool.compile_ms.push_back(watch.Millis());
      if (!compiled.ok()) {
        throw std::runtime_error("compiling " + bench.name + ": " +
                                 compiled.status().message());
      }
      add(bench, level, unroll, std::move(compiled).take().binary);
    }
  }
  return pool;
}

std::vector<std::string> RegisterGridPlatforms() {
  const double cpu_clocks[] = {40, 100, 200, 400};
  const double fpga_kgates[] = {15, 50, 300};
  std::vector<std::string> names;
  for (double mhz : cpu_clocks) {
    for (double kg : fpga_kgates) {
      partition::Platform platform = partition::Platform::WithCpuMhz(mhz);
      platform.fpga.capacity_gates = kg * 1000.0;
      platform.fpga.usable_fraction = 1.0;
      std::string name = "mips" + std::to_string(static_cast<int>(mhz)) +
                         "-" + std::to_string(static_cast<int>(kg)) + "kg";
      partition::PlatformRegistry::Global().Register(name, platform);
      names.push_back(std::move(name));
    }
  }
  return names;
}

Draw::Draw(std::size_t size, std::uint64_t seed) : size_(size), rng_(seed) {}

std::size_t Draw::Next() {
  if (next_ % size_ == 0) {
    std::vector<std::size_t> epoch(size_);
    for (std::size_t i = 0; i < size_; ++i) epoch[i] = i;
    rng_.Shuffle(epoch);
    order_.insert(order_.end(), epoch.begin(), epoch.end());
  }
  return order_[next_++];
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double position = q * static_cast<double>(sorted.size() - 1);
  const auto below = static_cast<std::size_t>(position);
  if (below + 1 >= sorted.size()) return sorted.back();
  const double fraction = position - static_cast<double>(below);
  return sorted[below] + (sorted[below + 1] - sorted[below]) * fraction;
}

double Samples::Mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double value : values_) sum += value;
  return sum / static_cast<double>(values_.size());
}

std::uint64_t NowNs() { return obs::Stopwatch::Now(); }

SpanRecorder::Scope::Scope(SpanRecorder& recorder, std::string name)
    : recorder_(recorder), armed_(recorder.enabled_) {
  if (!armed_) return;
  Span span;
  span.name = std::move(name);
  span.id = recorder_.next_id_++;
  span.parent = recorder_.stack_.empty() ? 0 : recorder_.stack_.back();
  span.op = recorder_.op_;
  index_ = recorder_.spans_.size();
  recorder_.stack_.push_back(span.id);
  recorder_.spans_.push_back(std::move(span));
  recorder_.spans_[index_].start_ns = NowNs();
}

SpanRecorder::Scope::~Scope() {
  if (!armed_) return;
  recorder_.spans_[index_].end_ns = NowNs();
  recorder_.stack_.pop_back();
}

void SpanRecorder::Merge(const SpanRecorder& other) {
  // Renumber so ids stay unique across the merged recorders.
  const std::uint32_t offset = next_id_ - 1;
  for (Span span : other.spans_) {
    span.id += offset;
    if (span.parent != 0) span.parent += offset;
    spans_.push_back(std::move(span));
  }
  next_id_ += other.next_id_ - 1;
}

std::map<std::string, LayerTotals> SelfTimes(
    const std::vector<SpanRecorder::Span>& spans) {
  std::map<std::uint32_t, double> child_ms;
  for (const auto& span : spans) {
    if (span.parent != 0) child_ms[span.parent] += span.Millis();
  }
  std::map<std::string, LayerTotals> totals;
  for (const auto& span : spans) {
    LayerTotals& layer = totals[span.name];
    ++layer.calls;
    layer.total_ms += span.Millis();
    const auto children = child_ms.find(span.id);
    layer.self_ms += span.Millis() -
                     (children == child_ms.end() ? 0.0 : children->second);
  }
  return totals;
}

void WriteSpans(const std::vector<SpanRecorder::Span>& spans,
                const Args& args) {
  const std::string path = args.run_dir + "/spans-" + args.workload + "-s" +
                           std::to_string(args.seed) + ".jsonl";
  std::ofstream out(path, std::ios::trunc);
  for (const auto& span : spans) {
    out << "{\"name\":\"" << support::JsonEscape(span.name)
        << "\",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << ",\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"op\":" << span.op << "}\n";
  }
  out.close();
  if (out) {
    std::printf("spans -> %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "b2h-perfbench: could not write %s\n", path.c_str());
  }
}

void PrintLedger(const std::vector<SpanRecorder::Span>& spans) {
  // Group every span under the name of its root span.
  std::map<std::uint32_t, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::map<std::string, std::vector<SpanRecorder::Span>> trees;
  for (const auto& span : spans) {
    const SpanRecorder::Span* root = &span;
    while (root->parent != 0) root = &spans[by_id.at(root->parent)];
    trees[root->name].push_back(span);
  }
  std::printf("ledger (per root call; self = span minus its children):\n");
  for (const auto& [root, members] : trees) {
    const std::map<std::string, LayerTotals> totals = SelfTimes(members);
    const LayerTotals& top = totals.at(root);
    const double calls = static_cast<double>(top.calls);
    std::printf("  %-38s %9s %11s %11s %7s\n", root.c_str(), "calls",
                "self ms", "total ms", "% root");
    for (const auto& [name, layer] : totals) {
      std::printf("    %-36s %9zu %11.4f %11.4f %7.2f\n", name.c_str(),
                  layer.calls, layer.self_ms / calls, layer.total_ms / calls,
                  top.total_ms > 0.0 ? 100.0 * layer.self_ms / top.total_ms
                                     : 0.0);
    }
  }
}

void Outcome::Fail(std::string what) {
  ++wrong;
  Error(std::move(what));
}

void Outcome::Error(std::string what) {
  ++failed;
  if (failures.size() < 20) failures.push_back(std::move(what));
}

void Outcome::Add(std::string name, double value, std::string unit,
                  std::size_t samples) {
  metrics.push_back({std::move(name), value, std::move(unit), samples});
}

double PeakRssMb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) +
                                           "/status";
  std::ifstream status(path);
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
