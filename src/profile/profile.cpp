#include "src/profile/profile.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>

#include "src/support/error.h"
#include "src/support/table.h"
#include "src/support/trace.h"

namespace incflat {
namespace profile {

bool GuardProfile::operator==(const GuardProfile& o) const {
  return threshold == o.threshold && taken == o.taken &&
         not_taken == o.not_taken && fit_fails == o.fit_fails &&
         par_seen == o.par_seen && (!par_seen || par_lo == o.par_lo) &&
         (!par_seen || par_hi == o.par_hi) && streak == o.streak &&
         streak_taken == o.streak_taken && last_fit_fail == o.last_fit_fail;
}

bool ExecProfile::operator==(const ExecProfile& o) const {
  return program == o.program && device == o.device && runs == o.runs &&
         deopts == o.deopts && guards == o.guards;
}

ExecProfile make_profile(const KernelPlan& plan, const std::string& program,
                         const std::string& device) {
  ExecProfile p;
  p.program = program;
  p.device = device;
  p.guards.reserve(plan.guards.size());
  for (const GuardInfo& g : plan.guards) {
    GuardProfile gp;
    gp.threshold = g.threshold;
    p.guards.push_back(std::move(gp));
  }
  return p;
}

void check_profile(const ExecProfile& p, const KernelPlan& plan) {
  if (p.guards.size() != plan.guards.size()) {
    throw IoError("profile: guard count mismatch (profile has " +
                  std::to_string(p.guards.size()) + ", plan has " +
                  std::to_string(plan.guards.size()) +
                  " — stale profile from another program?)");
  }
  for (size_t g = 0; g < plan.guards.size(); ++g) {
    if (p.guards[g].threshold != plan.guards[g].threshold) {
      throw IoError("profile: guard " + std::to_string(g) +
                    " names threshold '" + p.guards[g].threshold +
                    "', plan has '" + plan.guards[g].threshold + "'");
    }
  }
}

void record_run(ExecProfile& p, const KernelPlan& plan,
                const PlanDatasetCache& cache,
                const ThresholdEnv& thresholds) {
  check_profile(p, plan);
  // Structural descent over the guards a PathSig records: Guard nodes
  // record their decision and descend the taken branch; DataCond evaluates
  // (and hence records) both arms, just like the estimate.
  const std::function<void(int)> walk = [&](int id) {
    const PlanNode& n = plan.nodes[static_cast<size_t>(id)];
    switch (n.kind) {
      case PlanNode::Kind::Block:
        for (const PlanNode::Step& s : n.steps) {
          if (!s.is_kernel) walk(s.index);
        }
        return;
      case PlanNode::Kind::Guard: {
        const GuardInfo& g = plan.guards[static_cast<size_t>(n.guard)];
        const bool taken =
            cache.guard_taken(n.guard, thresholds.get(g.threshold));
        const PlanDatasetCache::GuardObs obs = cache.guard_obs(n.guard);
        GuardProfile& gp = p.guards[static_cast<size_t>(n.guard)];
        if (taken) {
          ++gp.taken;
        } else {
          ++gp.not_taken;
          if (obs.fit_fail) ++gp.fit_fails;
          gp.last_fit_fail = obs.fit_fail;
        }
        // Par values are >= 1 when evaluated; 0 means the fit short-circuit
        // skipped the evaluation.
        if (obs.par >= 1) {
          gp.par_lo = gp.par_seen ? std::min(gp.par_lo, obs.par) : obs.par;
          gp.par_hi = gp.par_seen ? std::max(gp.par_hi, obs.par) : obs.par;
          gp.par_seen = true;
        }
        if (gp.streak > 0 && gp.streak_taken == taken) {
          ++gp.streak;
        } else {
          gp.streak = 1;
          gp.streak_taken = taken;
        }
        walk(taken ? n.then_node : n.else_node);
        return;
      }
      case PlanNode::Kind::DataCond:
        walk(n.then_node);
        walk(n.else_node);
        return;
      case PlanNode::Kind::Scale:
        walk(n.child);
        return;
    }
  };
  walk(plan.root);
  ++p.runs;
  trace::count("profile.runs_recorded");
}

void reset_streaks(ExecProfile& p) {
  for (GuardProfile& g : p.guards) {
    g.streak = 0;
    g.streak_taken = false;
  }
}

// ---------------------------------------------------------------------------
// JSON round trip.

namespace {

constexpr const char* kFormat = "incflat-profile";
constexpr int kVersion = 1;

int64_t get_int(const Json& j, const std::string& key) {
  const Json* v = j.find(key);
  if (!v || !v->is_number()) {
    throw IoError("profile: missing or non-numeric field '" + key + "'");
  }
  return static_cast<int64_t>(v->as_double());
}

bool get_bool(const Json& j, const std::string& key, bool dflt) {
  const Json* v = j.find(key);
  if (!v) return dflt;
  if (!v->is_bool()) {
    throw IoError("profile: field '" + key + "' is not a boolean");
  }
  return v->as_bool();
}

std::string get_str(const Json& j, const std::string& key) {
  const Json* v = j.find(key);
  if (!v || !v->is_string()) {
    throw IoError("profile: missing or non-string field '" + key + "'");
  }
  return v->as_string();
}

}  // namespace

Json ExecProfile::to_json() const {
  Json j = Json::object();
  j.set("format", kFormat)
      .set("version", kVersion)
      .set("program", program)
      .set("device", device)
      .set("runs", runs)
      .set("deopts", deopts);
  Json gs = Json::array();
  for (const GuardProfile& g : guards) {
    Json jg = Json::object();
    jg.set("threshold", g.threshold)
        .set("taken", g.taken)
        .set("not_taken", g.not_taken)
        .set("fit_fails", g.fit_fails)
        .set("streak", g.streak)
        .set("streak_taken", g.streak_taken)
        .set("last_fit_fail", g.last_fit_fail);
    if (g.par_seen) {
      jg.set("par_lo", g.par_lo).set("par_hi", g.par_hi);
    }
    gs.push(std::move(jg));
  }
  j.set("guards", std::move(gs));
  return j;
}

ExecProfile ExecProfile::from_json(const Json& j) {
  if (!j.is_object()) throw IoError("profile: document is not an object");
  if (get_str(j, "format") != kFormat) {
    throw IoError("profile: not an incflat profile (format '" +
                  get_str(j, "format") + "')");
  }
  if (get_int(j, "version") != kVersion) {
    throw IoError("profile: unsupported version " +
                  std::to_string(get_int(j, "version")));
  }
  ExecProfile p;
  p.program = get_str(j, "program");
  p.device = get_str(j, "device");
  p.runs = get_int(j, "runs");
  p.deopts = get_int(j, "deopts");
  const Json* gs = j.find("guards");
  if (!gs || !gs->is_array()) {
    throw IoError("profile: missing 'guards' array");
  }
  for (size_t i = 0; i < gs->size(); ++i) {
    const Json& jg = gs->at(i);
    GuardProfile g;
    g.threshold = get_str(jg, "threshold");
    g.taken = get_int(jg, "taken");
    g.not_taken = get_int(jg, "not_taken");
    g.fit_fails = get_int(jg, "fit_fails");
    g.streak = get_int(jg, "streak");
    g.streak_taken = get_bool(jg, "streak_taken", false);
    g.last_fit_fail = get_bool(jg, "last_fit_fail", false);
    if (const Json* lo = jg.find("par_lo")) {
      if (!lo->is_number() || !jg.find("par_hi") ||
          !jg.find("par_hi")->is_number()) {
        throw IoError("profile: guard " + std::to_string(i) +
                      ": par_lo/par_hi must be numbers");
      }
      g.par_seen = true;
      g.par_lo = static_cast<int64_t>(lo->as_double());
      g.par_hi = static_cast<int64_t>(jg.find("par_hi")->as_double());
      if (g.par_lo > g.par_hi) {
        throw IoError("profile: guard " + std::to_string(i) +
                      ": par_lo > par_hi");
      }
    }
    if (g.taken < 0 || g.not_taken < 0 || g.fit_fails < 0 || g.streak < 0) {
      throw IoError("profile: guard " + std::to_string(i) +
                    ": negative tally");
    }
    p.guards.push_back(std::move(g));
  }
  return p;
}

std::string ExecProfile::str() const {
  std::ostringstream os;
  os << "profile: " << program << " on " << device << ", " << runs
     << " run(s), " << deopts << " deopt(s)\n";
  Table t({"guard", "threshold", "taken", "not-taken", "fit-fails", "par",
           "streak"});
  for (size_t g = 0; g < guards.size(); ++g) {
    const GuardProfile& gp = guards[g];
    const std::string par =
        gp.par_seen ? (gp.par_lo == gp.par_hi
                           ? std::to_string(gp.par_lo)
                           : "[" + std::to_string(gp.par_lo) + ", " +
                                 std::to_string(gp.par_hi) + "]")
                    : "-";
    const std::string streak =
        gp.streak > 0
            ? std::to_string(gp.streak) + (gp.streak_taken ? "T" : "F")
            : "-";
    t.row({std::to_string(g), gp.threshold, std::to_string(gp.taken),
           std::to_string(gp.not_taken), std::to_string(gp.fit_fails), par,
           streak});
  }
  t.print(os);
  return os.str();
}

void save_profile(const std::string& path, const ExecProfile& p) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::out | std::ios::trunc);
    if (!f) throw IoError("cannot write profile file: " + tmp);
    f << p.to_json().str() << "\n";
    f.flush();
    if (!f) {
      f.close();
      std::remove(tmp.c_str());
      throw IoError("profile file write failed: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw IoError("cannot replace profile file: " + path);
  }
}

ExecProfile load_profile(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw IoError("cannot read profile file: " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  const std::string text = buf.str();
  Json j;
  try {
    j = Json::parse(text);
  } catch (const JsonParseError& e) {
    throw IoError("profile file " + path + " (" +
                  json_error_position(text, e.offset()) + "): " + e.what());
  }
  try {
    return ExecProfile::from_json(j);
  } catch (const IoError& e) {
    throw IoError("profile file " + path + ": " + e.what());
  }
}

}  // namespace profile
}  // namespace incflat
