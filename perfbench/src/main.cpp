// fferate benchmark driver.
//
//   perfbench --workload relay_campaign|mac_flow|service_mix --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints the host fingerprint, every metric by name with its unit, and as
// the last line one JSON object {correct, attempted, failed, metrics}. With
// --trace 0 the JSON carries the end-to-end metrics; with --trace 1 the
// per-layer metrics, and the spans are written to DIR/trace-<workload>-<seed>.jsonl.
// Exits non-zero when any correctness check fails.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Report;

const std::vector<std::string> kEndToEnd = {"latency_ms", "tail_ms", "throughput_per_s",
                                            "setup_s", "peak_rss_mb"};

std::vector<std::string> per_layer_names() {
  std::vector<std::string> names = {
      "sim.engine_build_s",        "sim.golden_cycles",
      "fault.run_s",               "fault.passes",
      "fault.cycles_simulated",    "fault.ops_evaluated",
      "fault.checkpoint_restores", "fault.lane_fill",
      "fault.op_ns",               "features.extract_s",
      "ml.fit_s",                  "ml.predict_s",
      "core.flow_golden_s",        "core.flow_campaign_s",
      "core.flow_training_s",      "service.hash_s",
      "service.acquire_s",         "service.queue_wait_ms.predict",
      "service.queue_wait_ms.campaign", "service.run_ms.predict",
      "service.run_ms.campaign",   "service.cache_hits",
      "service.cache_misses",      "service.engine_builds",
      "service.hit_ratio",         "trace.overhead_pct"};
  for (const char* blocks : {"1", "2", "4", "8"}) {
    for (const char* metric : {"run_s", "op_ns", "lane_fill"}) {
      names.push_back(std::string("fault.sweep_b") + blocks + "." + metric);
    }
  }
  return names;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload relay_campaign|mac_flow|service_mix "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
  return 2;
}

std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !(options.seconds > 0)) return usage();

  perfbench::Tracer tracer(options.trace);
  Report report;
  try {
    std::filesystem::create_directories(options.out_dir);
    if (options.workload == "relay_campaign") {
      report = perfbench::run_relay_campaign(options, tracer);
    } else if (options.workload == "mac_flow") {
      report = perfbench::run_mac_flow(options, tracer);
    } else if (options.workload == "service_mix") {
      report = perfbench::run_service_mix(options, tracer);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
    return 1;
  }

  std::printf("# workload %s seed %llu seconds %g trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("# host %s\n", perfbench::fingerprint(report).c_str());
  report.set("failed_ratio",
             report.attempted == 0 ? 1.0
                                   : static_cast<double>(report.failed) /
                                         static_cast<double>(report.attempted),
             "ratio");
  for (const auto& [name, metric] : report.metrics) {
    std::printf("%-34s %14.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }

  if (options.trace) {
    const std::filesystem::path path =
        options.out_dir / ("trace-" + options.workload + "-" +
                           std::to_string(options.seed) + ".jsonl");
    tracer.write(path);
    std::map<std::string, double> by_layer;
    for (const auto& [name, seconds] : tracer.self_seconds()) {
      by_layer[name.substr(0, name.find('.'))] += seconds;
    }
    for (const auto& [layer, seconds] : by_layer) {
      std::printf("# self_s %-10s %10.4f\n", layer.c_str(), seconds);
    }
    std::printf("# %zu spans written to %s\n", tracer.spans().size(), path.c_str());
  }

  const std::vector<std::string> names = options.trace ? per_layer_names() : kEndToEnd;
  std::string json;
  for (const std::string& name : names) {
    const auto it = report.metrics.find(name);
    if (it == report.metrics.end() || !std::isfinite(it->second.value)) {
      report.check(false, "metric not measured: " + name);
      continue;
    }
    json += (json.empty() ? "" : ", ") + ("\"" + name + "\": {\"value\": ") +
            number(it->second.value) + ", \"unit\": \"" + it->second.unit + "\"}";
  }
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  }
  const bool ok = report.correct() && report.failed == 0 && report.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              ok ? "true" : "false", static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), json.c_str());
  return ok ? 0 : 1;
}
