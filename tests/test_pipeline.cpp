// The pass-manager pipeline (src/pass/pass.h) against its contract:
//
//  * golden output identity — for every benchsuite program and all three
//    modes, the canned flatten() pipeline, an explicitly composed pass
//    list, and exec::compile() produce the same pretty-printed target IR,
//    the same threshold tree, and bit-identical plan estimates;
//  * --verify-each equivalent: verification passes clean after every pass
//    on the whole suite (and is recorded in PipelineState::history);
//  * registry behaviour: mode_from_name round-trips, unknown pass/mode
//    names fail with messages listing the valid ones, an explicit pass list
//    gets plan-build appended when it omits it and is rejected when another
//    pass follows plan-build.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/benchsuite/benchmark.h"
#include "src/exec/exec.h"
#include "src/gpusim/device.h"
#include "src/ir/print.h"
#include "src/pass/pass.h"
#include "src/support/error.h"

namespace incflat {
namespace {

const std::vector<FlattenMode> kModes{
    FlattenMode::Moderate, FlattenMode::Incremental, FlattenMode::Full};

CompileOptions opts_for(const Benchmark& b, FlattenMode mode) {
  CompileOptions o;
  o.flatten.fuse = mode != FlattenMode::Moderate || b.fuse_moderate;
  return o;
}

TEST(Pipeline, CannedFlattenMatchesExplicitPassComposition) {
  // The refactor's golden identity: flatten() is nothing but the canned
  // pass sequence, so composing the same passes by name must reproduce its
  // output exactly, program for program, mode for mode.
  for (const auto& name : all_benchmark_names()) {
    const Benchmark b = get_benchmark(name);
    for (FlattenMode mode : kModes) {
      CompileOptions o = opts_for(b, mode);
      const FlattenResult canned = flatten(b.program, mode, o.flatten);

      o.passes = {"fusion", "normalize", "transform", "prune-segbinds",
                  "tiling"};
      const Compiled explicit_c = compile(b.program, mode, o);

      EXPECT_EQ(pretty(canned.program), pretty(explicit_c.flat.program))
          << name << " / " << mode_name(mode);
      EXPECT_EQ(canned.thresholds.tree_str(),
                explicit_c.flat.thresholds.tree_str())
          << name << " / " << mode_name(mode);
      EXPECT_NE(explicit_c.plan, nullptr);  // plan-build was appended
    }
  }
}

TEST(Pipeline, CompileEstimatesAreBitIdenticalAcrossCompositions) {
  // Plan estimates from the default compile() pipeline equal (double ==)
  // those from an explicitly composed pipeline and from the legacy IR
  // walker, for every benchmark dataset and device.
  for (const auto& name : all_benchmark_names()) {
    const Benchmark b = get_benchmark(name);
    for (FlattenMode mode : {FlattenMode::Moderate, FlattenMode::Incremental}) {
      CompileOptions o = opts_for(b, mode);
      const Compiled canned = compile(b.program, mode, o);
      o.passes = {"fusion", "normalize", "transform", "prune-segbinds",
                  "tiling", "plan-build"};
      const Compiled explicit_c = compile(b.program, mode, o);
      ASSERT_NE(canned.plan, nullptr);
      ASSERT_NE(explicit_c.plan, nullptr);
      for (const auto& dev : {device_k40(), device_vega64()}) {
        for (const auto& d : b.datasets) {
          const RunEstimate a = simulate(dev, canned, d.sizes);
          const RunEstimate c = simulate(dev, explicit_c, d.sizes);
          const RunEstimate w =
              estimate_run(dev, canned.flat.program, d.sizes, {});
          EXPECT_EQ(a.time_us, c.time_us) << name << "/" << d.name;
          EXPECT_EQ(a.time_us, w.time_us) << name << "/" << d.name;
          EXPECT_EQ(a.kernel_launches, w.kernel_launches)
              << name << "/" << d.name;
          EXPECT_EQ(a.total.gbytes, w.total.gbytes) << name << "/" << d.name;
        }
      }
    }
  }
}

TEST(Pipeline, VerifyEachPassesCleanOnWholeSuite) {
  for (const auto& name : all_benchmark_names()) {
    const Benchmark b = get_benchmark(name);
    for (FlattenMode mode : kModes) {
      CompileOptions o = opts_for(b, mode);
      o.verify_each = true;
      EXPECT_NO_THROW(compile(b.program, mode, o))
          << name << " / " << mode_name(mode);
    }
  }
}

TEST(Pipeline, HistoryRecordsPassesAndVerification) {
  const Benchmark b = get_benchmark("matmul");
  PipelineState st;
  st.program = b.program;
  st.mode = FlattenMode::Incremental;
  PassManagerOptions po;
  po.verify_each = true;
  flatten_pipeline(FlattenMode::Incremental).run(st, po);
  ASSERT_EQ(st.history.size(), 5u);
  const std::vector<std::string> expect{"fusion", "normalize", "incremental",
                                        "prune-segbinds", "tiling"};
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(st.history[i].name, expect[i]);
    EXPECT_TRUE(st.history[i].verified);
    EXPECT_GE(st.history[i].wall_us, 0.0);
  }
}

TEST(Pipeline, VerifyEachEnvironmentVariableForcesVerification) {
  ::setenv("INCFLAT_VERIFY_EACH", "1", 1);
  const Benchmark b = get_benchmark("matmul");
  PipelineState st;
  st.program = b.program;
  flatten_pipeline(FlattenMode::Moderate).run(st);
  ::unsetenv("INCFLAT_VERIFY_EACH");
  ASSERT_FALSE(st.history.empty());
  for (const auto& rec : st.history) EXPECT_TRUE(rec.verified);
}

TEST(Pipeline, AfterPassObserverSeesEveryPassInOrder) {
  const Benchmark b = get_benchmark("matmul");
  CompileOptions o;
  std::vector<std::string> seen;
  o.after_pass = [&seen](const std::string& pass, const Program&) {
    seen.push_back(pass);
  };
  compile(b.program, FlattenMode::Incremental, o);
  EXPECT_EQ(seen, (std::vector<std::string>{"fusion", "normalize",
                                            "incremental", "prune-segbinds",
                                            "tiling", "plan-build"}));
}

TEST(Pipeline, PlanBuildIsAppendedAndMustRunLast) {
  const Benchmark b = get_benchmark("matmul");
  const SizeEnv sizes = b.datasets.front().sizes;

  // Omitted: compile() appends plan-build, so the plan prices the program
  // the compile returns, bit for bit as the reference walker does.
  CompileOptions o;
  o.passes = {"fusion", "normalize", "transform", "prune-segbinds", "tiling"};
  std::vector<std::string> seen;
  o.after_pass = [&seen](const std::string& pass, const Program&) {
    seen.push_back(pass);
  };
  const Compiled c = compile(b.program, FlattenMode::Incremental, o);
  ASSERT_NE(c.plan, nullptr);
  EXPECT_EQ(seen.back(), "plan-build");
  const RunEstimate via_facade = simulate(device_k40(), c, sizes);
  const RunEstimate via_walker =
      estimate_run(device_k40(), c.flat.program, sizes, {});
  EXPECT_EQ(via_facade.time_us, via_walker.time_us);
  EXPECT_EQ(via_facade.kernel_launches, via_walker.kernel_launches);
  EXPECT_EQ(via_facade.total.gbytes, via_walker.total.gbytes);

  // Followed by another pass: the plan would price a program other than
  // Compiled::flat.program, so the list is rejected, naming that pass.
  o.passes = {"fusion", "normalize", "transform", "plan-build",
              "prune-segbinds", "tiling"};
  try {
    compile(b.program, FlattenMode::Incremental, o);
    FAIL() << "expected CompilerError";
  } catch (const CompilerError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("plan-build"), std::string::npos) << msg;
    EXPECT_NE(msg.find("prune-segbinds"), std::string::npos) << msg;
  }
}

TEST(Pipeline, ModeFromNameRoundTripsAndRejectsUnknown) {
  for (FlattenMode m : kModes) {
    EXPECT_EQ(mode_from_name(mode_name(m)), m);
  }
  try {
    mode_from_name("agressive");
    FAIL() << "expected CompilerError";
  } catch (const CompilerError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("moderate"), std::string::npos);
    EXPECT_NE(msg.find("incremental"), std::string::npos);
    EXPECT_NE(msg.find("full"), std::string::npos);
  }
}

TEST(Pipeline, UnknownPassNameListsRegistry) {
  try {
    make_pass("constant-folding");
    FAIL() << "expected CompilerError";
  } catch (const CompilerError& e) {
    const std::string msg = e.what();
    for (const auto& n : pass_names()) {
      EXPECT_NE(msg.find(n), std::string::npos) << n;
    }
  }
}

}  // namespace
}  // namespace incflat
