#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

uint64_t SeedRng::next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double SeedRng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

size_t SeedRng::below(size_t n) {
  // Rejection keeps the draw exactly uniform for every n.
  const uint64_t span = n;
  const uint64_t tail = (0 - span) % span;
  uint64_t r = next();
  while (r < tail) r = next();
  return static_cast<size_t>(r % span);
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = std::clamp(q, 0.0, 100.0) / 100.0 *
                     static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

Summary summarize(const std::vector<double>& xs) {
  Summary s;
  s.n = xs.size();
  if (xs.empty()) return s;
  std::vector<double> v = xs;
  std::sort(v.begin(), v.end());
  s.min = v.front();
  s.max = v.back();
  s.mean = std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
  s.p25 = percentile(v, 25);
  s.p50 = percentile(v, 50);
  s.p75 = percentile(v, 75);
  s.p90 = percentile(v, 90);
  s.p99 = percentile(v, 99);
  return s;
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double logs = 0;
  for (double x : xs) logs += std::log(x);
  return std::exp(logs / static_cast<double>(xs.size()));
}

ZipfSampler::ZipfSampler(size_t n, double s, uint64_t seed)
    : perm_(seeded_permutation(n, seed)) {
  cdf_.reserve(n);
  double total = 0;
  for (size_t k = 1; k <= n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::draw(SeedRng& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const size_t rank =
      std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
  return perm_[rank];
}

std::vector<double> poisson_arrivals(double rate, double duration_s,
                                     uint64_t seed) {
  std::vector<double> out;
  if (rate <= 0 || duration_s <= 0) return out;
  SeedRng rng(seed);
  out.reserve(static_cast<size_t>(rate * duration_s * 1.1) + 16);
  double t = 0;
  for (;;) {
    t += -std::log1p(-rng.uniform()) / rate;
    if (t >= duration_s) break;
    out.push_back(t);
  }
  return out;
}

std::vector<size_t> seeded_permutation(size_t n, uint64_t seed) {
  std::vector<size_t> p(n);
  std::iota(p.begin(), p.end(), size_t{0});
  SeedRng rng(seed);
  for (size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.below(i)]);
  return p;
}

uint64_t derive_seed(uint64_t seed, const std::string& label) {
  // FNV-1a over the label, mixed into the seed through one splitmix step.
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : label) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  SeedRng r(seed ^ h);
  return r.next();
}

}  // namespace perfbench
