// perfbench_workload: runs one benchmark workload in this (fresh) process and
// prints its report as one JSON object on the last line of stdout.
//
//   perfbench_workload --workload paper-sweep|fleet-10x|daemon-mixed|shard-sweep
//                    --seed N --seconds S [--trace 0|1] [--setup-only]
//                    [--out DIR]
//
// perfbench/run.py is the entry point that builds this binary, repeats the
// set-up in separate processes and assembles the final result line.
#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common/json.hpp"
#include "common/vkernel.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_workload: %s\nusage: perfbench_workload --workload NAME --seed N "
               "--seconds S [--trace 0|1] [--setup-only] [--out DIR]\n",
               why.c_str());
  std::exit(2);
}

RunConfig parse_args(int argc, char** argv) {
  RunConfig c;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      c.workload = value();
    } else if (arg == "--seed") {
      c.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      c.seconds = std::stod(value());
    } else if (arg == "--trace") {
      c.trace = value() == "1";
    } else if (arg == "--setup-only") {
      c.setup_only = true;
    } else if (arg == "--out") {
      c.out_dir = value();
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (c.workload.empty()) usage("--workload is required");
  if (c.seconds <= 0) usage("--seconds must be > 0");
  return c;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  const RunConfig config = parse_args(argc, argv);
  WorkloadReport report;
  try {
    if (config.workload == "paper-sweep") {
      report = run_paper_sweep(config);
    } else if (config.workload == "fleet-10x") {
      report = run_fleet_10x(config);
    } else if (config.workload == "daemon-mixed") {
      report = run_daemon_mixed(config);
    } else if (config.workload == "shard-sweep") {
      report = run_shard_sweep(config);
    } else {
      usage("unknown workload " + config.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workload: %s: %s\n", config.workload.c_str(), e.what());
    return 1;
  }

  if (config.trace) {
    const std::string path = config.out_dir + "/spans-" + config.workload + "-" +
                             std::to_string(config.seed) + ".jsonl";
    Tracer::instance().write_jsonl(path);
    report.layer.add("trace.spans", static_cast<double>(Tracer::instance().spans().size()),
                     "count", path);
  }
  report.e2e.add("peak_rss_mb", peak_rss_mib(), "MiB", "process peak RSS");

  preempt::JsonObject out;
  out.emplace_back("workload", config.workload);
  out.emplace_back("seed", static_cast<double>(config.seed));
  out.emplace_back("setup_s", report.setup_s);
  out.emplace_back("vk_path", preempt::vk::path_name(preempt::vk::active_path()));
  out.emplace_back("attempted", report.checks.attempted());
  out.emplace_back("failed", report.checks.failed());
  preempt::JsonArray failures;
  for (const std::string& m : report.checks.messages()) failures.emplace_back(m);
  out.emplace_back("failures", std::move(failures));
  out.emplace_back("e2e", report.e2e.to_json());
  out.emplace_back("layer", report.layer.to_json());
  std::cout << preempt::JsonValue(std::move(out)).dump() << std::endl;
  return report.checks.failed() == 0 ? 0 : 3;
}
