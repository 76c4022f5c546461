// perfbench: runs one dmm benchmark workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>] [--commit <id>]
//
// Output: a `meta` line (seed, nproc, thread counts, compiler, build type,
// commit), one `metric <name> = <value> <unit>` line per metric, then as
// the last line one JSON object {"correct", "attempted", "failed",
// "metrics"}.  With --trace 0 the metrics are end-to-end; with --trace 1
// they are the per-layer metrics derived from the spans, and the spans are
// written to --trace-out as Chrome trace-event JSON.  Exit status: 0 when
// every check passed, 1 when any failed, 2 on a usage error.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n"
            << "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
               " [--trace-out <path>] [--commit <id>]\nworkloads:";
  for (const std::string& name : workload_names()) std::cerr << " " << name;
  std::cerr << "\n";
  std::exit(2);
}

int cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char text[64];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

/// Keeps freed memory in the process for the next op: no mmap-backed
/// blocks, and the heap top is never trimmed.  Otherwise every op's
/// buffers (tens of MB on greedy-uniform, hundreds on views-k4) are faulted
/// in and zeroed by the kernel afresh, and on a shared host that page
/// zeroing moved a run's median op time by up to 15% from one run to the
/// next.
void keep_freed_memory() {
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
}

}  // namespace

int main(int argc, char** argv) {
  keep_freed_memory();
  RunConfig config;
  std::string trace_out;
  std::string commit = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        config.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
        have_seconds = config.seconds > 0.0;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        config.trace = value == "1";
        have_trace = true;
      } else if (arg == "--trace-out") {
        trace_out = value;
      } else if (arg == "--commit") {
        commit = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }
  bool known = false;
  for (const std::string& name : workload_names()) known = known || name == config.workload;
  if (!known) usage("unknown workload '" + config.workload + "'");
  config.nproc = cpus_available();

  Tracer tracer(config.trace);
  Outcome out;
  try {
    out = run_workload(config, tracer);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << config.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  out.metrics.push_back(Metric{"peak_rss_mb", peak_rss_mib(), "MiB"});
  out.metrics.push_back(Metric{
      "failed_ratio",
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed) / static_cast<double>(out.attempted),
      "fraction"});
  if (out.attempted == 0) {
    out.correct = false;
    out.errors.push_back("no op was attempted");
  }

  std::ostringstream meta;
  meta << "{\"workload\":" << json_string(config.workload) << ",\"seed\":" << config.seed
       << ",\"seconds\":" << json_number(config.seconds)
       << ",\"trace\":" << (config.trace ? "true" : "false") << ",\"nproc\":" << config.nproc
       << ",\"compiler\":" << json_string(__VERSION__)
       << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
       << ",\"commit\":" << json_string(commit);
  for (const auto& [key, value] : out.meta) {
    meta << "," << json_string(key) << ":" << json_string(value);
  }
  meta << "}";
  std::cout << "meta " << meta.str() << "\n";

  for (const std::string& error : out.errors) std::cerr << "perfbench: " << error << "\n";
  for (const Metric& m : out.metrics) {
    std::cout << "metric " << m.name << " = " << json_number(m.value) << " " << m.unit << "\n";
  }

  if (config.trace && !trace_out.empty()) {
    std::ofstream file(trace_out);
    tracer.write_chrome_json(file, meta.str());
    if (!file) {
      std::cerr << "perfbench: cannot write " << trace_out << "\n";
      out.correct = false;
    }
  }

  const bool ok = out.correct && out.failed == 0;
  std::cout << "{\"correct\":" << (ok ? "true" : "false") << ",\"attempted\":" << out.attempted
            << ",\"failed\":" << out.failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::cout << (i ? "," : "") << json_string(m.name) << ":{\"value\":" << json_number(m.value)
              << ",\"unit\":" << json_string(m.unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return ok ? 0 : 1;
}
