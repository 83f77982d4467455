// perfbench — the ExtraP end-to-end benchmark program.
//
//   perfbench --workload suite-cold|whatif-warm|serve-mixed --seed N
//             --seconds S --trace 0|1 --reference FILE [--out-dir DIR]
//             [--small] [--write-reference]
//
// Prints a host line, then as the last line one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics when
// --trace 0, the per-layer metrics when --trace 1 (see README.md).
#include <cstdlib>
#include <iostream>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

void usage() {
  std::cerr << "usage: perfbench --workload suite-cold|whatif-warm|serve-mixed "
               "--seed N --seconds S --trace 0|1 --reference FILE "
               "[--out-dir DIR] [--small] [--write-reference]\n";
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (a == "--workload") opt.workload = value();
      else if (a == "--seed") opt.seed = std::stoull(value());
      else if (a == "--seconds") opt.seconds = std::stod(value());
      else if (a == "--trace") opt.trace = std::stoi(value()) != 0;
      else if (a == "--reference") opt.reference = value();
      else if (a == "--out-dir") opt.out_dir = value();
      else if (a == "--small") opt.small = true;
      else if (a == "--write-reference") opt.write_reference = true;
      else {
        usage();
        return 2;
      }
    } catch (const std::exception&) {
      usage();
      return 2;
    }
  }
  if (opt.reference.empty() || opt.seconds <= 0) {
    usage();
    return 2;
  }
  try {
    pb::Reference ref(opt.reference, opt.write_reference);
    pb::Outcome out;
    pb::Sheet sheet;
    if (opt.workload == "suite-cold")
      sheet = pb::run_suite_cold(opt, ref, out);
    else if (opt.workload == "whatif-warm")
      sheet = pb::run_whatif_warm(opt, ref, out);
    else if (opt.workload == "serve-mixed")
      sheet = pb::run_serve_mixed(opt, ref, out);
    else {
      usage();
      return 2;
    }
    ref.save();
    pb::print_result(sheet, opt.trace, out);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
