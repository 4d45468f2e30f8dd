// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --data-dir <dir> --metrics <name:unit,...>
//
// Prints human-readable "# " lines, then one JSON result line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exit code 0 only when every answer matched its oracle. See README.md for
// why each workload and metric exists.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "cold_scan|serve_mixed|ingest_mixed "
               "--seed N --seconds S --trace 0|1 --data-dir DIR "
               "--metrics NAME:UNIT,...\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--data-dir") {
      args.data_dir = value;
    } else if (flag == "--metrics") {
      for (size_t at = 0; at < value.size();) {
        size_t comma = value.find(',', at);
        if (comma == std::string::npos) comma = value.size();
        const std::string spec = value.substr(at, comma - at);
        const size_t colon = spec.find(':');
        if (colon == std::string::npos) Usage("bad metric spec " + spec);
        args.metrics[spec.substr(0, colon)] = spec.substr(colon + 1);
        at = comma + 1;
      }
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (args.data_dir.empty()) Usage("--data-dir is required");
  if (args.seconds <= 0) Usage("--seconds must be positive");
  if (args.metrics.empty()) Usage("--metrics is required");
  return args;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT(build/namespaces)
  Args args = ParseArgs(argc, argv);
  args.data_dir += "/" + args.workload + "-" + std::to_string(::getpid());
  std::filesystem::remove_all(args.data_dir);
  std::filesystem::create_directories(args.data_dir);

  Report report;
  if (args.workload == "cold_scan") {
    RunColdScan(args, &report);
  } else if (args.workload == "serve_mixed") {
    RunServeMixed(args, &report);
  } else if (args.workload == "ingest_mixed") {
    RunIngestMixed(args, &report);
  } else {
    Usage("unknown workload " + args.workload);
  }
  std::filesystem::remove_all(args.data_dir);

  // The result line carries exactly the metrics --metrics lists for the
  // run's mode (run.py passes BENCHMARK.json's list).
  report.CheckAgainst(args.metrics, args.trace ? "not exercised by " + args.workload
                                               : std::string());
  return report.Print();
}
