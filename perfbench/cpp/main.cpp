// perfbench: one workload per run, printing one JSON result line.
//
//   perfbench --workload paper_sync|tcp_flood --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// prints the per-layer metrics of a traced run and writes its spans to
// DIR/spans-<workload>-<seed>.jsonl. Any delivery violation makes the run
// exit 1 after printing the result.
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common.h"

namespace {

using perfbench::Options;
using perfbench::Result;

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--out-dir") {
      opt.out_dir = value;
    } else {
      std::cerr << "perfbench: unknown option " << key << "\n";
      return false;
    }
  }
  return !opt.workload.empty() && opt.seconds > 0;
}

bool known(const std::vector<std::pair<std::string, std::string>>& names,
           const std::string& name) {
  for (const auto& entry : names) {
    if (entry.first == name) return true;
  }
  return false;
}

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::cerr << "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n";
    return 2;
  }
  perfbench::pin_to_one_cpu();
  Result r;
  if (opt.workload == "paper_sync") {
    r = perfbench::run_paper_sync(opt);
  } else if (opt.workload == "tcp_flood") {
    r = perfbench::run_tcp_flood(opt);
  } else {
    std::cerr << "perfbench: unknown workload " << opt.workload << "\n";
    return 2;
  }

  const auto& names = opt.trace ? perfbench::per_layer_metrics()
                                 : perfbench::end_to_end_metrics();
  for (const auto& [name, value] : r.metrics) {
    if (!known(perfbench::per_layer_metrics(), name) &&
        !known(perfbench::end_to_end_metrics(), name)) {
      r.violation("metric without a declared unit: " + name);
    }
  }
  std::string metrics;
  for (const auto& [name, unit] : names) {
    const auto it = r.metrics.find(name);
    double value = 0;
    if (it == r.metrics.end()) {
      // Only per-layer metrics of a layer the workload does not reach may
      // be absent; they read 0.
      if (!opt.trace) r.violation("metric not measured: " + name);
    } else {
      value = it->second;
    }
    if (!std::isfinite(value)) {
      r.violation("non-finite metric: " + name);
      value = 0;
    }
    if (!metrics.empty()) metrics += ",";
    metrics += "\"" + name + "\":{\"value\":" + number(value) +
               ",\"unit\":\"" + unit + "\"}";
  }
  if (opt.trace) {
    const std::string path = opt.out_dir + "/spans-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".jsonl";
    if (!perfbench::Spans::instance().write(path)) {
      r.violation("cannot write spans to " + path);
    }
  }
  if (r.attempted == 0) {
    r.violation("no operation attempted");
    r.attempted = 1;
  }
  for (const auto& v : r.violations) std::cerr << "VIOLATION: " << v << "\n";
  const bool correct = r.violations.empty() && r.failed == 0;
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
            << ",\"metrics\":{" << metrics << "}}" << std::endl;
  return correct ? 0 : 1;
}
