// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE.csv]
//
// Prints one line per metric (name, value, unit, samples) and, as the last
// line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// with tracing switched on and off in alternate stretches, then times each
// layer and reports the per-layer metrics.

#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\nworkloads:";
  for (const auto& w : perfbench::workloads()) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  perfbench::RunOptions opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        name = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
        have_seconds = opt.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage();
        opt.trace = value == "1";
        have_trace = true;
      } else if (flag == "--trace-out") {
        opt.trace_path = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (argc % 2 == 0 || !have_seed || !have_seconds || !have_trace) return usage();

  const perfbench::Workload* workload = nullptr;
  for (const auto& w : perfbench::workloads())
    if (w.name == name) workload = &w;
  if (workload == nullptr) return usage();

  perfbench::Result r;
  try {
    r = workload->run(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << name << " failed: " << e.what() << '\n';
    return 1;
  }

  for (const auto& m : r.metrics) {
    if (!std::isfinite(m.value)) {  // JSON has no spelling for it
      std::cerr << "perfbench: " << name << ": metric " << m.name
                << " is not finite\n";
      return 1;
    }
  }

  for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());
  for (const auto& m : r.metrics)
    std::printf("%-36s %14.6g %-6s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
