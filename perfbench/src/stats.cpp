#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <string_view>

#include "svc/service.hpp"

namespace perfbench {

double percentile(std::vector<double> sample, double q) {
  std::sort(sample.begin(), sample.end());
  return dmm::svc::nearest_rank_percentile(sample, q);
}

double median(std::vector<double> sample) { return percentile(std::move(sample), 0.5); }

bool reportable(double q, std::size_t n) {
  if (n == 0) return false;
  const double rank = std::ceil(q * static_cast<double>(n));
  return static_cast<double>(n) - rank >= static_cast<double>(kTailSamples);
}

double mean(const std::vector<double>& sample) {
  if (sample.empty()) return 0.0;
  return std::accumulate(sample.begin(), sample.end(), 0.0) /
         static_cast<double>(sample.size());
}

std::uint64_t fingerprint(const void* data, std::size_t bytes, std::uint64_t seed) {
  const std::size_t h =
      std::hash<std::string_view>{}(std::string_view(static_cast<const char*>(data), bytes));
  return (seed ^ static_cast<std::uint64_t>(h)) * 0x9E3779B97F4A7C15ULL + bytes;
}

}  // namespace perfbench
