#include "src/autotune/autotune.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/autotune/journal.h"
#include "src/plan/plan.h"
#include "src/support/error.h"
#include "src/support/rng.h"
#include "src/support/trace.h"

namespace incflat {

namespace {

/// One threshold assignment over the search's slots: slot i is the i-th
/// searched threshold name.  An unset slot holds the default value, so keys
/// and costs never look at `set`; the flag only decides which names the
/// reported ThresholdEnv lists (a name the search never drew stays absent,
/// exactly as with a name-keyed map).
struct Candidate {
  std::vector<int64_t> value;
  std::vector<char> set;

  Candidate(size_t slots, int64_t default_value)
      : value(slots, default_value), set(slots, 0) {}

  void assign(size_t slot, int64_t v) {
    value[slot] = v;
    set[slot] = 1;
  }
};

ThresholdEnv to_env(const std::vector<std::string>& names, const Candidate& c,
                    int64_t default_value) {
  ThresholdEnv env;
  for (size_t i = 0; i < names.size(); ++i) {
    if (c.set[i]) env.values.emplace(names[i], c.value[i]);
  }
  env.default_threshold = default_value;
  return env;
}

// ---------------------------------------------------------------------------
// Fallible, noisy measurements with a crash-safe journal.
//
// When any robustness option is enabled, every memoizer cache miss routes
// through a MeasureSession: the true (simulated) cost is re-measured
// median-of-k under multiplicative noise, individual measurements can fail
// (discarded; all-k-failed marks the candidate infeasible), candidates
// beyond the per-candidate timeout are marked infeasible instead of
// aborting, and each final measured value is appended to the journal as a
// single flushed write.  A resumed search answers evaluations from the
// journal in order — advancing the measurement RNG by exactly the draws a
// live measurement consumes, so the continuation is bit-identical to an
// uninterrupted run.
// ---------------------------------------------------------------------------

struct Measurer {
  double noise = 0;
  double failure_rate = 0;
  bool active = false;
  int k = 1;
  Rng rng;

  explicit Measurer(const TunerOptions& opts)
      : noise(opts.noise),
        failure_rate(opts.failure_rate),
        active(opts.noise > 0 || opts.failure_rate > 0),
        k(active ? std::max(1, opts.measure_k) : 1),
        rng(opts.measure_seed) {}

  /// Median-of-k measurement of a candidate with true cost `t`.  Consumes
  /// exactly 2k draws (k failure tests + k noise factors) so replayed and
  /// live evaluations advance the stream identically.  All k failed ->
  /// +inf (infeasible).
  double measure(double t) {
    if (!active) return t;
    std::vector<double> ms;
    ms.reserve(static_cast<size_t>(k));
    for (int j = 0; j < k; ++j) {
      const double fail = rng.uniform();
      const double n = rng.uniform();
      if (fail < failure_rate) continue;
      ms.push_back(t * (1.0 + noise * (2.0 * n - 1.0)));
    }
    if (ms.empty()) return std::numeric_limits<double>::infinity();
    std::sort(ms.begin(), ms.end());
    const size_t m = ms.size();
    return m % 2 == 1 ? ms[m / 2] : 0.5 * (ms[m / 2 - 1] + ms[m / 2]);
  }

  /// Advance the stream as one measurement would, without measuring (used
  /// for journal-replayed and unpriceable evaluations).
  void skip_draws() {
    if (!active) return;
    for (int j = 0; j < 2 * k; ++j) rng.next();
  }
};

struct MeasureSession {
  Measurer meas;
  TuneJournal* journal = nullptr;
  std::vector<JournalEntry> replay;
  size_t replay_ix = 0;
  double timeout_us = 0;
  TuningReport* rep = nullptr;

  MeasureSession(const TunerOptions& opts, TuningReport* report)
      : meas(opts), timeout_us(opts.candidate_timeout_us), rep(report) {}

  /// Timed-out and failed-every-retry candidates get an infinite cost:
  /// counted infeasible, never adopted, never fatal.  The *journaled* value
  /// is post-finalize, so replayed evaluations count identically.
  double finalize(double c) {
    if (timeout_us > 0 && c > timeout_us) {
      c = std::numeric_limits<double>::infinity();
    }
    if (!(c < std::numeric_limits<double>::infinity())) ++rep->infeasible;
    return c;
  }

  /// Measure one evaluation: replay from the journal when entries remain,
  /// else measure live (a candidate whose pricing throws EvalError — e.g.
  /// unbound sizes — is infeasible, not fatal) and journal the result.
  double evaluate(uint64_t key_hash, const std::function<double()>& true_cost) {
    if (replay_ix < replay.size()) {
      const JournalEntry& e = replay[replay_ix];
      if (e.key_hash != key_hash) {
        throw IoError(
            "tuning journal is out of sync with the search (entry " +
            std::to_string(replay_ix) + " hash mismatch) — refusing resume");
      }
      ++replay_ix;
      meas.skip_draws();
      ++rep->journal_replayed;
      const double c = e.cost();
      if (!(c < std::numeric_limits<double>::infinity())) ++rep->infeasible;
      return c;
    }
    double c;
    try {
      c = meas.measure(true_cost());
    } catch (const EvalError&) {
      meas.skip_draws();
      c = std::numeric_limits<double>::infinity();
    }
    c = finalize(c);
    if (journal) journal->append(JournalEntry::of(key_hash, c));
    return c;
  }
};

uint64_t double_bits(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

/// Whether any robustness machinery is needed; when false, candidate costs
/// bypass the MeasureSession entirely and the search is bit-identical to
/// previous releases.
bool session_needed(const TunerOptions& opts) {
  return opts.noise > 0 || opts.failure_rate > 0 ||
         opts.candidate_timeout_us > 0 || !opts.journal.empty();
}

// ---------------------------------------------------------------------------
// Evaluation on the kernel plan, indexed by threshold slot.  Once per
// search: each dataset's sizes are swept through the cost arena, its guard
// operands (Par value, fit failure) are read off, and every guard is mapped
// to the slot of its threshold.  A candidate's dedup key is then a structural descent
// comparing int64 operands against int64 slot values, written into a
// caller-owned buffer: no name lookups, no ThresholdEnv, no allocation.
//
// The key layout is part of the journal format and must not change: per
// dataset, in order, the guard-path PathSig words (two bits per guard);
// journals hash exactly these bytes (tests/data/ pins one).  A dedup miss
// is priced through plan_cost under a ThresholdEnv, bit-identical to
// tuning_cost.
// ---------------------------------------------------------------------------

class PlanSearch {
 public:
  /// Warms one PlanDatasetCache per dataset, inline: a few arena sweeps,
  /// too little work to pay for starting threads.
  PlanSearch(const KernelPlan& plan, const DeviceProfile& dev,
             const std::vector<TuningDataset>& datasets,
             const std::vector<std::string>& names, int64_t default_value)
      : plan_(plan),
        datasets_(datasets),
        default_value_(default_value),
        guards_(plan.guards.size()),
        words_((2 * plan.guards.size() + 63) / 64) {
    trace::Span span("tune.plan_warm");
    caches_.reserve(datasets.size());
    for (const TuningDataset& d : datasets) {
      caches_.push_back(std::make_unique<PlanDatasetCache>(plan, dev, d.sizes));
    }

    std::map<std::string, int> slot_of;
    for (size_t i = 0; i < names.size(); ++i) {
      slot_of.emplace(names[i], static_cast<int>(i));
    }
    slot_.assign(guards_, -1);  // -1: not searched, always the default
    for (size_t g = 0; g < guards_; ++g) {
      const auto it = slot_of.find(plan.guards[g].threshold);
      if (it != slot_of.end()) slot_[g] = it->second;
    }
    obs_.reserve(caches_.size() * guards_);
    for (const auto& c : caches_) {
      for (size_t g = 0; g < guards_; ++g) {
        obs_.push_back(c->guard_obs(static_cast<int>(g)));
      }
    }
  }

  size_t key_words() const { return caches_.size() * words_; }
  int64_t default_value() const { return default_value_; }

  /// Dedup key of `c` into `out` (key_words() words): per dataset, the
  /// PathSig plan_cost records.
  void key(const Candidate& c, uint64_t* out) const {
    std::fill(out, out + key_words(), uint64_t{0});
    for (size_t d = 0; d < caches_.size(); ++d) {
      descend(plan_.root, obs_.data() + d * guards_, c.value.data(),
              out + d * words_);
    }
  }

  /// Weighted-sum cost; the same accumulation order as tuning_cost, and
  /// plan_cost is bit-identical to estimate_run().time_us, so this equals
  /// tuning_cost exactly.
  double cost(const ThresholdEnv& env) const {
    double total = 0;
    for (size_t i = 0; i < caches_.size(); ++i) {
      total += datasets_[i].weight * plan_cost(plan_, *caches_[i], env);
    }
    return total;
  }

 private:
  /// The guard-path descent over one dataset's guard operands: kernels
  /// are skipped, guards take the branch PlanDatasetCache::guard_taken
  /// would, both arms of a data-dependent branch count.
  void descend(int id, const PlanDatasetCache::GuardObs* obs,
               const int64_t* value, uint64_t* sig) const {
    const PlanNode& n = plan_.nodes[static_cast<size_t>(id)];
    switch (n.kind) {
      case PlanNode::Kind::Block:
        for (const PlanNode::Step& s : n.steps) {
          if (!s.is_kernel) descend(s.index, obs, value, sig);
        }
        return;
      case PlanNode::Kind::Guard: {
        const PlanDatasetCache::GuardObs& o = obs[n.guard];
        if (o.error) {
          throw EvalError(
              "plan: guard size expression uses an unbound variable");
        }
        const int slot = slot_[static_cast<size_t>(n.guard)];
        const int64_t t = slot < 0 ? default_value_ : value[slot];
        const bool taken = !o.fit_fail && o.par >= t;
        const size_t b = 2 * static_cast<size_t>(n.guard);
        sig[b / 64] |= (uint64_t{1} | uint64_t{taken} << 1) << (b % 64);
        descend(taken ? n.then_node : n.else_node, obs, value, sig);
        return;
      }
      case PlanNode::Kind::DataCond:
        descend(n.then_node, obs, value, sig);
        descend(n.else_node, obs, value, sig);
        return;
      case PlanNode::Kind::Scale:
        descend(n.child, obs, value, sig);
        return;
    }
  }

  const KernelPlan& plan_;
  const std::vector<TuningDataset>& datasets_;
  int64_t default_value_;
  size_t guards_;
  size_t words_;  // PathSig words per dataset
  std::vector<std::unique_ptr<PlanDatasetCache>> caches_;
  std::vector<int> slot_;                        // per guard
  std::vector<PlanDatasetCache::GuardObs> obs_;  // dataset-major
};

using PlanKey = std::vector<uint64_t>;

struct PlanMemoizer {
  const PlanSearch& ev;
  const std::vector<std::string>& names;
  MeasureSession* session = nullptr;
  std::map<PlanKey, double> cache;
  PlanKey key;  // reused by every candidate; copied only on a miss
  int evaluations = 0;
  int dedup_hits = 0;

  PlanMemoizer(const PlanSearch& e, const std::vector<std::string>& n,
               MeasureSession* s)
      : ev(e), names(n), session(s), key(e.key_words()) {}

  double cost(const Candidate& cand) {
    ev.key(cand, key.data());
    const auto it = cache.find(key);
    if (it != cache.end()) {
      ++dedup_hits;
      return it->second;
    }
    ++evaluations;
    const ThresholdEnv env = to_env(names, cand, ev.default_value());
    const auto true_cost = [&] { return ev.cost(env); };
    const double c =
        session ? session->evaluate(
                      journal_hash(key.data(), key.size() * sizeof(uint64_t)),
                      true_cost)
                : true_cost();
    cache.emplace(key, c);
    return c;
  }
};

// ---------------------------------------------------------------------------
// Search.
// ---------------------------------------------------------------------------

void stochastic_search(PlanMemoizer& memo,
                       const std::vector<std::string>& names,
                       const TunerOptions& opts, TuningReport& rep) {
  // The wall-clock budget is checked between trials: the search never
  // aborts mid-measurement, it stops gracefully and keeps the incumbent.
  const auto start = std::chrono::steady_clock::now();
  const auto over_budget = [&] {
    if (opts.budget_ms <= 0) return false;
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start);
    return static_cast<double>(elapsed.count()) / 1000.0 > opts.budget_ms;
  };

  const size_t slots = names.size();
  Candidate incumbent(slots, opts.default_threshold);  // all defaults
  double best = memo.cost(incumbent);
  rep.default_cost_us = best;
  rep.trials = 1;

  if (slots > 0) {
    Rng rng(opts.seed);
    const int64_t last_slot = static_cast<int64_t>(slots) - 1;
    const int64_t max_mut =
        static_cast<int64_t>(std::max<size_t>(slots / 2, 1));
    Candidate cand = incumbent;  // one buffer for every trial
    for (int t = 1; t < opts.max_trials; ++t) {
      if (over_budget()) {
        rep.early_stopped = true;
        break;
      }
      // Ensemble: half random exploration, half hill climbing on the
      // incumbent (OpenTuner's technique mixture, simplified).
      if (rng.flip(0.5)) {
        for (size_t i = 0; i < slots; ++i) {
          cand.assign(i, int64_t{1}
                             << rng.uniform_int(opts.log2_min, opts.log2_max));
        }
      } else {
        cand = incumbent;
        const int n_mut = static_cast<int>(rng.uniform_int(1, max_mut));
        for (int k = 0; k < n_mut; ++k) {
          const size_t i = static_cast<size_t>(rng.uniform_int(0, last_slot));
          int exp = 0;
          while ((int64_t{1} << exp) < cand.value[i] && exp < 62) ++exp;
          exp += static_cast<int>(rng.uniform_int(-4, 4));
          exp = std::clamp(exp, opts.log2_min, opts.log2_max);
          cand.assign(i, int64_t{1} << exp);
        }
      }
      ++rep.trials;
      const double c = memo.cost(cand);
      if (c < best) {
        best = c;
        std::swap(incumbent, cand);
      }
    }
  }

  rep.best = to_env(names, incumbent, opts.default_threshold);
  rep.best_cost_us = best;
  rep.evaluations = memo.evaluations;
  rep.dedup_hits = memo.dedup_hits;
}

/// One-shot trace counters for a finished search: the hot candidate loop
/// stays uninstrumented, the tallies it already keeps in the report are
/// published at the end.
void trace_report(const TuningReport& rep) {
  if (!trace::enabled()) return;
  trace::count("tuner.candidates", rep.trials);
  trace::count("tuner.evaluations", rep.evaluations);
  trace::count("tuner.dedup_hits", rep.dedup_hits);
}

}  // namespace

TuningReport autotune(const DeviceProfile& dev, const KernelPlan& plan,
                      const ThresholdRegistry& reg,
                      const std::vector<TuningDataset>& datasets,
                      const TunerOptions& opts) {
  trace::Span span("tune.stochastic");
  TuningReport rep;
  std::vector<std::string> names;
  for (const auto& ti : reg.all()) names.push_back(ti.name);

  // Profile seeding: drop cold thresholds from the search space and clamp
  // the value range to straddle the observed Par values.
  TunerOptions eff = opts;
  if (opts.profile) {
    const profile::ExecProfile& prof = *opts.profile;
    std::map<std::string, bool> reached;  // per threshold name: any guard hot
    int64_t par_hi = 0;
    bool any_par = false;
    for (const profile::GuardProfile& g : prof.guards) {
      auto [it, fresh] = reached.emplace(g.threshold, g.reached());
      if (!fresh) it->second = it->second || g.reached();
      if (g.par_seen) {
        any_par = true;
        par_hi = std::max(par_hi, g.par_hi);
      }
    }
    std::vector<std::string> kept;
    for (const std::string& n : names) {
      const auto it = reached.find(n);
      if (it != reached.end() && !it->second) {
        // Every guard over this threshold went unvisited: its code versions
        // are cold for this workload, tuning the value cannot matter.
        ++rep.cold_pruned;
        continue;
      }
      kept.push_back(n);
    }
    names = std::move(kept);
    if (any_par) {
      // Smallest exponent with 2^e > par_hi: keeps one "always off" value
      // in range, everything above it is redundant.
      int e = 0;
      while ((int64_t{1} << e) <= par_hi && e < 62) ++e;
      eff.log2_max = std::max(eff.log2_min, std::min(eff.log2_max, e));
    }
    rep.profile_seeded = true;
    trace::count("tuner.cold_pruned", rep.cold_pruned);
    if (trace::enabled()) trace::count("tuner.profile_seeded");
  }

  // Robust-measurement session (noise, failures, timeout, journal).
  std::unique_ptr<MeasureSession> session;
  std::unique_ptr<TuneJournal> journal;
  if (session_needed(opts)) {
    session = std::make_unique<MeasureSession>(opts, &rep);
    if (!opts.journal.empty()) {
      JournalMeta meta;
      meta.program = plan.program.name;
      meta.device = dev.name;
      meta.search_seed = opts.seed;
      meta.max_trials = opts.max_trials;
      meta.measure_seed = opts.measure_seed;
      meta.measure_k = opts.measure_k;
      meta.noise_bits = double_bits(opts.noise);
      journal = std::make_unique<TuneJournal>(
          TuneJournal::open(opts.journal, meta, opts.resume,
                            &session->replay));
      session->journal = journal.get();
    }
  }

  const PlanSearch ev(plan, dev, datasets, names, opts.default_threshold);
  PlanMemoizer memo(ev, names, session.get());
  stochastic_search(memo, names, eff, rep);
  trace_report(rep);
  return rep;
}

TuningReport autotune(const DeviceProfile& dev, const Program& p,
                      const ThresholdRegistry& reg,
                      const std::vector<TuningDataset>& datasets,
                      const TunerOptions& opts) {
  return autotune(dev, build_kernel_plan(p), reg, datasets, opts);
}

TuningReport exhaustive_tune(const DeviceProfile& dev, const KernelPlan& plan,
                             const ThresholdRegistry& reg,
                             const std::vector<TuningDataset>& datasets,
                             int64_t default_threshold) {
  trace::Span span("tune.exhaustive");
  TuningReport rep;

  // Candidate values per threshold: "always on", "always off", and every
  // boundary that separates the training datasets.
  std::vector<std::string> names;
  std::vector<std::vector<int64_t>> cands;
  for (const auto& ti : reg.all()) {
    std::set<int64_t> c{int64_t{1}, int64_t{1} << 62};
    for (const auto& d : datasets) {
      c.insert(ti.par.eval(d.sizes));
    }
    names.push_back(ti.name);
    cands.emplace_back(c.begin(), c.end());
  }

  const PlanSearch ev(plan, dev, datasets, names, default_threshold);
  PlanMemoizer memo(ev, names, nullptr);
  Candidate best_assign(names.size(), default_threshold);  // all defaults
  rep.default_cost_us = memo.cost(best_assign);
  double best = memo.cost(best_assign);

  // Every full assignment, enumerated in place (the last slot varies
  // fastest): `cur` steps through the product of the value lists like an
  // odometer, `ix` holding each slot's position.
  Candidate cur(names.size(), default_threshold);
  std::vector<size_t> ix(names.size(), 0);
  for (size_t i = 0; i < names.size(); ++i) cur.assign(i, cands[i][0]);
  for (;;) {
    ++rep.trials;
    const double c = memo.cost(cur);
    if (c < best) {
      best = c;
      best_assign = cur;
    }
    size_t i = names.size();
    while (i > 0 && ++ix[i - 1] == cands[i - 1].size()) {
      ix[i - 1] = 0;
      cur.assign(i - 1, cands[i - 1][0]);
      --i;
    }
    if (i == 0) break;
    cur.assign(i - 1, cands[i - 1][ix[i - 1]]);
  }
  rep.best = to_env(names, best_assign, default_threshold);
  rep.best_cost_us = best;
  rep.evaluations = memo.evaluations;
  rep.dedup_hits = memo.dedup_hits;
  trace_report(rep);
  return rep;
}

TuningReport exhaustive_tune(const DeviceProfile& dev, const Program& p,
                             const ThresholdRegistry& reg,
                             const std::vector<TuningDataset>& datasets,
                             int64_t default_threshold) {
  return exhaustive_tune(dev, build_kernel_plan(p), reg, datasets,
                         default_threshold);
}

double tuning_cost(const DeviceProfile& dev, const Program& p,
                   const std::vector<TuningDataset>& datasets,
                   const ThresholdEnv& thresholds) {
  double total = 0;
  for (const auto& d : datasets) {
    total += d.weight * estimate_run(dev, p, d.sizes, thresholds).time_us;
  }
  return total;
}

}  // namespace incflat
