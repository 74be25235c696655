// Sample statistics and seeded workload generation for the benchmark.
//
// The generators here deliberately do not use the library's own Rng: the
// benchmark's inputs must stay the same when the program under test
// changes, so they depend only on this file and the --seed argument.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64, fixed here so that a seed names the same inputs forever.
class SeedRng {
 public:
  explicit SeedRng(uint64_t seed) : state_(seed) {}
  uint64_t next();
  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform integer in [0, n); n > 0.
  size_t below(size_t n);

 private:
  uint64_t state_;
};

/// Linear-interpolation percentile (numpy's default) of `xs`, q in [0, 100].
/// 0 for an empty sample.
double percentile(std::vector<double> xs, double q);

/// Order statistics of one sample.
struct Summary {
  size_t n = 0;
  double mean = 0, min = 0, max = 0;
  double p25 = 0, p50 = 0, p75 = 0, p90 = 0, p99 = 0;
};
Summary summarize(const std::vector<double>& xs);

/// Geometric mean of positive values; 0 for an empty sample.
double geomean(const std::vector<double>& xs);

/// Zipf-distributed draw over `n` keys with exponent `s` (0 = uniform).
/// Which key gets which rank is itself a seeded permutation, so a seed
/// names both the skew and the hot keys.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s, uint64_t seed);
  size_t draw(SeedRng& rng) const;
  /// Key index holding rank r (0 = hottest).
  size_t key_of_rank(size_t r) const { return perm_[r]; }

 private:
  std::vector<double> cdf_;
  std::vector<size_t> perm_;
};

/// Arrival offsets (seconds from the start) of a Poisson process with
/// `rate` arrivals per second over [0, duration_s).
std::vector<double> poisson_arrivals(double rate, double duration_s,
                                     uint64_t seed);

/// A seeded permutation of 0..n-1 (Fisher-Yates).
std::vector<size_t> seeded_permutation(size_t n, uint64_t seed);

/// Derive an independent stream seed from the run seed and a label.
uint64_t derive_seed(uint64_t seed, const std::string& label);

}  // namespace perfbench
