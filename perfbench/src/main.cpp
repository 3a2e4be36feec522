// One workload run of the xtalk-sta benchmark, in a fresh process:
//
//   xtalk_perfbench --workload table|eco|service --seed N --seconds S
//                   --trace 0|1 [--setup-only]
//
// Prints one JSON object as its last line: set-up time, operation counts,
// operation latencies and peak RSS, the workload's own figures, and (traced
// run) the per-layer figures. run.py turns it into the benchmark result.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "harness.hpp"

namespace {

using perfbench::Clock;

[[noreturn]] void usage(const char* why) {
  std::cerr << "xtalk_perfbench: " << why
            << "\nusage: xtalk_perfbench --workload table|eco|service --seed N "
               "--seconds S --trace 0|1 [--setup-only]\n";
  std::exit(2);
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string metrics_json(const std::map<std::string, perfbench::Metric>& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    out += quoted(name) + ": {\"value\": " + number(metric.value) +
           ", \"unit\": " + quoted(metric.unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point start = Clock::now();
  perfbench::Options opt;
  bool have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
      have_seconds = true;
    } else if (arg == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      opt.trace = t == "1";
      have_trace = true;
    } else if (arg == "--setup-only") {
      opt.setup_only = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!opt.setup_only && (!have_seconds || !have_trace)) {
    usage("--seconds and --trace are required");
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) usage("--seconds out of range");

  perfbench::Report rep;
  try {
    if (opt.workload == "table") {
      rep = perfbench::run_table(opt, start);
    } else if (opt.workload == "eco") {
      rep = perfbench::run_eco(opt, start);
    } else if (opt.workload == "service") {
      rep = perfbench::run_service(opt, start);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::cerr << "xtalk_perfbench: " << opt.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }

  std::ostringstream out;
  out << "{\"workload\": " << quoted(opt.workload)
      << ", \"setup_s\": " << number(rep.setup_s)
      << ", \"peak_rss_mb\": "
      << number(rep.peak_rss_mb > 0.0 ? rep.peak_rss_mb : perfbench::peak_rss_mb())
      << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
      << ", \"failures\": [";
  for (std::size_t i = 0; i < rep.failures.size(); ++i) {
    out << (i ? ", " : "") << quoted(rep.failures[i]);
  }
  out << "], \"window_s\": " << number(rep.window_s)
      << ", \"ops\": " << rep.ops
      << ", \"ops_per_s\": " << number(perfbench::median(rep.rates))
      << ", \"rates\": [";
  for (std::size_t i = 0; i < rep.rates.size(); ++i) {
    out << (i ? ", " : "") << number(rep.rates[i]);
  }
  out << "]"
      << ", \"work_ms\": " << number(rep.typical_work_ms())
      << ", \"work_p90_ms\": " << number(rep.work_ms.percentile(0.9))
      << ", \"work_p90_supported\": "
      << (rep.work_ms.tail_supported(0.9) ? "true" : "false")
      << ", \"detail\": " << metrics_json(rep.detail)
      << ", \"layers\": " << metrics_json(rep.layers) << "}";
  std::cout << out.str() << std::endl;
  return 0;
}
