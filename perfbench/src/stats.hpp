// Sample statistics for the benchmark's reported timings.
//
// Percentiles are nearest-rank (svc::nearest_rank_percentile, the formula
// the service's own TenantStats use).  A high percentile is only reported
// when at least kTailSamples samples lie beyond it: with fewer, one stray
// sample decides the value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported high percentile.
inline constexpr std::size_t kTailSamples = 10;

/// Nearest-rank percentile of an unsorted sample (copied and sorted).
/// 0 for an empty sample.
double percentile(std::vector<double> sample, double q);

/// Median by nearest rank (the lower middle element of an even sample).
double median(std::vector<double> sample);

/// True iff at least kTailSamples of `n` samples lie beyond the
/// nearest-rank q-percentile, i.e. n - ceil(q·n) >= kTailSamples.
bool reportable(double q, std::size_t n);

double mean(const std::vector<double>& sample);

/// Fingerprint of a byte range (outputs, halt rounds): equal inputs give
/// equal fingerprints; used to compare every op's result to the first.
std::uint64_t fingerprint(const void* data, std::size_t bytes, std::uint64_t seed = 0);

}  // namespace perfbench
