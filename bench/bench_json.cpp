#include "bench_json.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace dmm::benchjson {

namespace {

std::string escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

const char* gate_name(Gate gate) {
  switch (gate) {
    case Gate::kExact: return "exact";
    case Gate::kClose: return "close";
    case Gate::kBanded: return "banded";
    case Gate::kNone: break;
  }
  return "none";
}

std::size_t metric_index(std::string_view name) {
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    if (name == kMetrics[i].name) return i;
  }
  std::string message = "bench_json: undeclared metric '";
  message += name;
  message += "' (declare it in kMetrics, bench_json.hpp)";
  throw std::invalid_argument(message);
}

}  // namespace

bool known_experiment(const std::string& experiment) {
  return std::any_of(std::begin(kExperiments), std::end(kExperiments),
                     [&](const char* e) { return experiment == e; });
}

Record& Record::set(std::string_view name, double value) {
  const std::size_t index = metric_index(name);
  if (!std::isfinite(value)) {
    std::string message = "bench_json: ";
    message += name;
    message += " must be finite (instance '" + instance + "')";
    throw std::invalid_argument(message);
  }
  values_[index] = value;
  return *this;
}

double Record::get(std::string_view name) const {
  return values_[metric_index(name)].value_or(0.0);
}

std::string to_json(const Record& record) {
  std::string out = "{\"instance\":\"";
  out += escape(record.instance);
  out += "\",\"engine\":\"";
  out += escape(record.engine);
  out += "\",\"threads\":";
  out += std::to_string(record.threads);
  out += ",\"metrics\":{";
  const char* sep = "";
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    if (!record.value(i)) continue;
    out += sep;
    out += '"';
    out += kMetrics[i].name;
    out += "\":";
    out += number(*record.value(i));
    sep = ",";
  }
  out += "}}";
  return out;
}

Harness::Harness(std::string experiment, int& argc, char** argv)
    : experiment_(std::move(experiment)) {
  if (!known_experiment(experiment_)) {
    throw std::invalid_argument("bench_json: unknown experiment '" + experiment_ +
                                "' (the set is enumerated in bench_json.hpp)");
  }
  if (const char* env = std::getenv("DMM_BENCH_JSON_DIR")) directory_ = env;
  // Strip harness flags so google-benchmark's own parser never sees them.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke_ = true;
    } else if (arg == "--scale") {
      scale_ = true;
    } else if (arg == "--json-dir" && i + 1 < argc) {
      directory_ = argv[++i];
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
}

long long peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // ru_maxrss is KiB on Linux, bytes on macOS.
#if defined(__APPLE__)
  return static_cast<long long>(usage.ru_maxrss);
#else
  return static_cast<long long>(usage.ru_maxrss) * 1024;
#endif
#else
  return 0;
#endif
}

double Harness::time_ns(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start).count());
}

std::string Harness::path() const {
  std::string dir = directory_.empty() ? "." : directory_;
  if (dir.back() != '/') dir += '/';
  return dir + "BENCH_" + experiment_ + ".json";
}

int Harness::write() const {
  std::ofstream out(path());
  if (!out) {
    std::fprintf(stderr, "bench_json: cannot write %s\n", path().c_str());
    return 2;
  }
  out << "{\"schema\":\"dmm-bench-9\",\"experiment\":\"" << escape(experiment_)
      << "\",\n\"metrics\":{";
  // Declare exactly the metrics the records use, in declaration order.
  const char* sep = "";
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    const bool used = std::any_of(records_.begin(), records_.end(),
                                  [&](const Record& r) { return r.value(i).has_value(); });
    if (!used) continue;
    const Metric& metric = kMetrics[i];
    out << sep << "\n  \"" << metric.name << "\":{\"unit\":\"" << metric.unit
        << "\",\"gate\":\"" << gate_name(metric.gate) << "\"";
    if (metric.floor) out << ",\"floor\":\"" << metric.floor << "\"";
    out << "}";
    sep = ",";
  }
  out << "},\n\"records\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (i) out << ",";
    out << "\n  " << to_json(records_[i]);
  }
  out << "\n]}\n";
  out.close();
  std::printf("bench_json: wrote %s (%zu record%s)\n", path().c_str(), records_.size(),
              records_.size() == 1 ? "" : "s");
  return out ? 0 : 2;
}

}  // namespace dmm::benchjson
