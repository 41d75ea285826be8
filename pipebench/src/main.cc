// pipebench: the repository's end-to-end benchmark.
//
//   pipebench --workload wire_1k|update_churn|fleet --seed N --seconds S
//             --trace 0|1
//
// Prints notes to stderr and, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 they are the per-layer
// metrics of a traced run. Exits 1 when any output check fails.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: pipebench --workload wire_1k|update_churn|fleet "
               "--seed N --seconds S --trace 0|1\n");
}

}  // namespace

int main(int argc, char** argv) {
  pipebench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else {
      Usage();
      return 2;
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0) {
    Usage();
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", options.work_dir.c_str());
    return 2;
  }

  pipebench::Report report;
  if (options.workload == "wire_1k") {
    report = pipebench::RunWire(options, nullptr);
  } else if (options.workload == "update_churn") {
    report = pipebench::RunChurn(options, nullptr);
  } else if (options.workload == "fleet") {
    report = pipebench::RunFleet(options, nullptr);
  } else {
    Usage();
    return 2;
  }
  if (options.trace) pipebench::CompletePerLayer(&report);
  for (const std::string& note : report.notes) {
    std::fprintf(stderr, "%s\n", note.c_str());
  }
  std::printf("%s\n", report.ToJson().c_str());
  return report.correct ? 0 : 1;
}
