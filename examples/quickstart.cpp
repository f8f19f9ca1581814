// Quickstart: the complete flow on a small program, end to end.
//
//   MiniC source -> MIPS binary (the "any compiler" stand-in)
//   -> b2h::Toolchain: profile on the simulated MIPS, decompile the
//      *binary* into an annotated CDFG (PassManager pipeline), partition
//      hot loops to the FPGA, synthesize, estimate
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <memory>

#include "minicc/codegen.hpp"
#include "toolchain/toolchain.hpp"

using namespace b2h;

namespace {

// A tiny image-threshold kernel: the inner loop is the obvious hardware
// candidate.  Note the partitioner never sees this source — only the
// compiled binary.
const char* kSource = R"(
byte image[256];
byte out[256];

int threshold() {
  int i;
  int count = 0;
  for (i = 0; i < 256; i = i + 1) {
    int p = image[i];
    if (p > 128) {
      out[i] = 255;
      count = count + 1;
    } else {
      out[i] = 0;
    }
  }
  return count;
}

int main() {
  int i;
  for (i = 0; i < 256; i = i + 1) {
    image[i] = (i * 37 + 11) & 255;
  }
  return threshold();
}
)";

}  // namespace

int main() {
  // 1. Compile (stands in for "any software compiler" producing a binary).
  minicc::CompileOptions compile_options;
  compile_options.opt_level = 1;
  auto compiled = minicc::Compile(kSource, compile_options);
  if (!compiled.ok()) {
    printf("compile error: %s\n", compiled.status().message().c_str());
    return 1;
  }
  auto binary = std::make_shared<const mips::SoftBinary>(
      std::move(compiled).take().binary);
  printf("compiled: %zu MIPS instructions\n", binary->text.size());

  // 2. Run the whole binary-level partitioning flow on the paper's
  //    platform ("mips200-xc2v1000": MIPS@200MHz + Virtex-II).
  Toolchain toolchain;
  toolchain.WithPipeline("default");  // the paper's full pass pipeline
  auto run = toolchain.RunOn("mips200-xc2v1000", binary, "threshold");
  if (!run.ok()) {
    printf("flow error: %s\n", run.status().message().c_str());
    return 1;
  }
  printf("\n%s\n", run.value().Report().c_str());

  // 3. Peek at the generated VHDL for the first hardware region.
  if (!run.value().partition.hw.empty()) {
    const auto& kernel = run.value().partition.hw.front();
    printf("--- VHDL for %s (first 25 lines) ---\n",
           kernel.synthesized.region.name.c_str());
    const std::string& vhdl = kernel.synthesized.vhdl;
    std::size_t pos = 0;
    for (int line = 0; line < 25 && pos != std::string::npos; ++line) {
      const std::size_t end = vhdl.find('\n', pos);
      printf("%s\n", vhdl.substr(pos, end - pos).c_str());
      pos = end == std::string::npos ? end : end + 1;
    }
    printf("...\n\n--- ISE-style area report ---\n%s\n",
           kernel.synthesized.area.Summary().c_str());
  }
  return 0;
}
