// A vendor-tool style command-line partitioner (paper §1: "The
// partitioning/synthesis tool could be provided by the platform vendor").
//
// Input: a MIPS assembly file (the stand-in for a linked binary), or the
// name of a bundled benchmark.  Output: partitioning report on stdout and
// one VHDL file per hardware region.
//
//   ./build/examples/binary_partitioner path/to/program.s
//   ./build/examples/binary_partitioner crc
//   ./build/examples/binary_partitioner crc --platform mips400
//   ./build/examples/binary_partitioner crc --cpu-mhz 400 --fpga-kgates 50
//   ./build/examples/binary_partitioner crc --pipeline default,-reroll-loops
//   ./build/examples/binary_partitioner crc --out-dir build/vhdl
//   ./build/examples/binary_partitioner crc --trace-out build/crc.trace.json
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "mips/assembler.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "toolchain/toolchain.hpp"

using namespace b2h;

namespace {

Result<mips::SoftBinary> LoadInput(const std::string& input) {
  if (const suite::Benchmark* bench = suite::FindBenchmark(input)) {
    return suite::BuildBinary(*bench, 1);
  }
  std::ifstream file(input);
  if (!file) {
    return Status::Error(ErrorKind::kParse,
                         "cannot open '" + input +
                             "' (not a file or bundled benchmark)");
  }
  std::ostringstream text;
  text << file.rdbuf();
  return mips::Assemble(text.str());
}

/// The value of a numeric flag: the whole of `text` parsed as a finite
/// number above 0.  Prints an error and returns nullopt otherwise.
std::optional<double> PositiveFlag(const char* flag, const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value) || value <= 0.0) {
    printf("error: %s needs a finite number above 0, got '%s'\n", flag,
           text);
    return std::nullopt;
  }
  return value;
}

std::string SafeFileName(std::string name) {
  for (char& c : name) {
    if (c == '/' || c == ':') c = '_';
  }
  return name;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    printf("usage: %s <program.s | benchmark-name> [--platform NAME] "
           "[--cpu-mhz N] [--fpga-kgates N] [--pipeline SPEC] "
           "[--out-dir DIR] [--trace-out FILE]\n", argv[0]);
    printf("registered platforms:");
    for (const auto& name : PlatformRegistry::Global().Names()) {
      printf(" %s", name.c_str());
    }
    printf("\n");
    return 1;
  }

  Toolchain toolchain;
  partition::Platform platform =
      *PlatformRegistry::Global().Find("mips200-xc2v1000");
  std::string platform_label = "mips200-xc2v1000";
  const std::string input = argv[1];
  // Generated VHDL lands under the build tree by default, not in whatever
  // directory the tool happens to run from (keeps source checkouts clean).
  std::string out_dir = "build/vhdl";
  // Pass 1: pick the base platform, so --cpu-mhz/--fpga-kgates compose on
  // top of it regardless of flag order.
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--platform") == 0) {
      auto found = PlatformRegistry::Global().Find(argv[i + 1]);
      if (!found.has_value()) {
        printf("unknown platform '%s'\n", argv[i + 1]);
        return 1;
      }
      platform = *found;
      platform_label = argv[i + 1];
    }
  }
  // Pass 2: overrides.
  bool custom = false;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--cpu-mhz") == 0) {
      const std::optional<double> mhz = PositiveFlag(argv[i], argv[i + 1]);
      if (!mhz.has_value()) return 1;
      platform.cpu.clock_mhz = *mhz;
      platform_label += "+custom";
      custom = true;
    } else if (std::strcmp(argv[i], "--fpga-kgates") == 0) {
      const std::optional<double> kgates = PositiveFlag(argv[i], argv[i + 1]);
      if (!kgates.has_value()) return 1;
      platform.fpga.capacity_gates = *kgates * 1000.0;
      platform.fpga.usable_fraction = 1.0;
      platform_label += "+custom";
      custom = true;
    } else if (std::strcmp(argv[i], "--pipeline") == 0) {
      toolchain.WithPipeline(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--out-dir") == 0) {
      out_dir = argv[i + 1];
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      // Destructor-flushed: the trace file appears even on the early-exit
      // failure paths below.
      toolchain.WithTrace(argv[i + 1]);
    }
  }
  // The toolchain runs on registered platforms only: an overridden one is
  // registered under its label first.
  if (custom) PlatformRegistry::Global().Register(platform_label, platform);

  auto loaded = LoadInput(input);
  if (!loaded.ok()) {
    printf("error: %s\n", loaded.status().message().c_str());
    return 1;
  }
  auto binary =
      std::make_shared<const mips::SoftBinary>(std::move(loaded).take());
  printf("loaded %zu instructions, %zu data bytes\n", binary->text.size(),
         binary->data.size());

  auto run = toolchain.RunOn(platform_label, binary, input);
  if (!run.ok()) {
    // The paper's failure mode: indirect jumps defeat CDFG recovery; the
    // program simply stays all-software.
    printf("partitioning failed (%s): %s\n", ToString(run.status().kind()),
           run.status().message().c_str());
    printf("the application remains software-only.\n");
    return 2;
  }

  printf("\n%s\n", run.value().Report().c_str());

  std::error_code mkdir_error;
  std::filesystem::create_directories(out_dir, mkdir_error);
  if (mkdir_error) {
    printf("cannot create --out-dir '%s': %s\n", out_dir.c_str(),
           mkdir_error.message().c_str());
    return 1;
  }
  for (const auto& kernel : run.value().partition.hw) {
    const std::string path =
        (std::filesystem::path(out_dir) /
         ("hw_" + SafeFileName(kernel.synthesized.region.name) + ".vhd"))
            .string();
    std::ofstream out(path);
    out << kernel.synthesized.vhdl;
    out.close();
    if (out.fail()) {
      printf("error: cannot write '%s'\n", path.c_str());
      return 1;
    }
    printf("wrote %s (%.0f gates, %s)\n", path.c_str(),
           kernel.synthesized.area.total_gates,
           kernel.arrays_resident ? "arrays resident in BRAM"
                                  : "arrays in main memory");
  }
  if (!run.value().partition.rejected.empty()) {
    printf("\nregions not moved to hardware:\n");
    for (const auto& reason : run.value().partition.rejected) {
      printf("  %s\n", reason.c_str());
    }
  }
  return 0;
}
