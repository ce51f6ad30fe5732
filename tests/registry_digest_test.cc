// Pins the result digest of every registry scenario — the fixed point any
// scheduler or engine change must keep. A digest moving here means the
// allocation stream changed; that is a behaviour change, never a speedup.
// Values are what `saath_sim --scenario=<name> [--scheduler=<s>] --digest`
// prints.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "reference/engine.h"
#include "reference/reference.h"
#include "replay/journal.h"
#include "runtime/testbed.h"
#include "sched/factory.h"
#include "sched/saath.h"
#include "trace/synth.h"
#include "workload/scenario.h"

namespace saath {
namespace {

std::string digest_of(const std::string& scenario,
                      const std::string& scheduler) {
  return replay::result_digest_hex(
      workload::run_scenario(scenario, {}, scheduler).result);
}

TEST(RegistryDigest, EveryScenarioUnderSaath) {
  const std::map<std::string, std::string> pinned = {
      {"failure-storm", "cb25e1d2bfd19814"},
      {"fb-replay", "ecb66aa036602501"},
      {"multi-tenant-merge", "f87eee827198da47"},
      {"osp-replay", "2c3d5c047a71a991"},
      {"pipeline-dag", "073b52f7dfba2bd9"},
      {"steady-churn", "8384c0a57d73e062"},
  };
  const auto registry = workload::known_scenarios();
  ASSERT_EQ(registry.size(), pinned.size())
      << "a scenario was added or removed: pin its digest here";
  for (const auto& info : registry) {
    const auto it = pinned.find(info.name);
    ASSERT_NE(it, pinned.end()) << info.name << " has no pinned digest";
    EXPECT_EQ(digest_of(info.name, "saath"), it->second) << info.name;
  }
}

TEST(RegistryDigest, SteadyChurnUnderTheBaselines) {
  EXPECT_EQ(digest_of("steady-churn", "aalo"), "ef81ed69e9b73775");
  EXPECT_EQ(digest_of("steady-churn", "uc-tcp"), "260b09f1f62af8f0");
}

// Aalo never promotes a CoFlow, even after a restart loses progress:
// failure-storm is the registry run where that rule decides the digest.
TEST(RegistryDigest, DynamicsAndMergedScenariosUnderAalo) {
  EXPECT_EQ(digest_of("failure-storm", "aalo"), "f99c28620d993b46");
  EXPECT_EQ(digest_of("multi-tenant-merge", "aalo"), "1904dda693ff0ba2");
  EXPECT_EQ(digest_of("pipeline-dag", "aalo"), "c380126491f0bc2f");
}

// The baselines re-rate most live flows every round, so these runs drive
// the completion heap hardest: each makes over a million heap pushes.
TEST(RegistryDigest, ReplayTracesUnderTheBaselines) {
  EXPECT_EQ(digest_of("fb-replay", "aalo"), "c3b552748967f415");
  EXPECT_EQ(digest_of("fb-replay", "uc-tcp"), "2bac3a9fe2874e8a");
  EXPECT_EQ(digest_of("osp-replay", "aalo"), "3a2b9fc5cf560b0c");
  EXPECT_EQ(digest_of("osp-replay", "uc-tcp"), "c28713c0c5c3681c");
}

// The from-scratch reference Saath (tests/reference/) on the reference
// engine reproduces the pins of EveryScenarioUnderSaath: they are Fig 7's
// schedule on the loop sim/engine.h describes, not an artefact of the
// incremental structures, the completion heap or the quiescent skip that
// produce them. One case per scenario, each its own ctest entry
// (CMakeLists.txt), so `ctest -j` runs them side by side.
void expect_reference_pipeline_pin(const std::string& scenario) {
  const std::map<std::string, std::string> pinned = {
      {"failure-storm", "cb25e1d2bfd19814"},
      {"fb-replay", "ecb66aa036602501"},
      {"multi-tenant-merge", "f87eee827198da47"},
      {"osp-replay", "2c3d5c047a71a991"},
      {"pipeline-dag", "073b52f7dfba2bd9"},
      {"steady-churn", "8384c0a57d73e062"},
  };
  ASSERT_EQ(pinned.size(), workload::known_scenarios().size())
      << "a scenario was added or removed: pin its digest here";
  const workload::ScenarioSetup setup = workload::make_scenario(scenario);
  reference::ReferenceSaath sched;
  reference::ReferenceEngine engine(setup.source, sched, setup.config);
  EXPECT_EQ(replay::result_digest_hex(engine.run()), pinned.at(scenario))
      << scenario;
}

TEST(RegistryDigestReference, FailureStorm) {
  expect_reference_pipeline_pin("failure-storm");
}
TEST(RegistryDigestReference, FbReplay) {
  expect_reference_pipeline_pin("fb-replay");
}
TEST(RegistryDigestReference, MultiTenantMerge) {
  expect_reference_pipeline_pin("multi-tenant-merge");
}
TEST(RegistryDigestReference, OspReplay) {
  expect_reference_pipeline_pin("osp-replay");
}
TEST(RegistryDigestReference, PipelineDag) {
  expect_reference_pipeline_pin("pipeline-dag");
}
TEST(RegistryDigestReference, SteadyChurn) {
  expect_reference_pipeline_pin("steady-churn");
}

// The reference Saath with every switch off is the reference Aalo: two
// independent readings of the baseline agree on the run where Aalo's
// never-promote rule decides the digest, and both hit the production pin.
TEST(RegistryDigest, AllOffReferenceSaathIsReferenceAalo) {
  const auto run = [](Scheduler& sched) {
    const workload::ScenarioSetup setup =
        workload::make_scenario("failure-storm");
    reference::ReferenceEngine engine(setup.source, sched, setup.config);
    return replay::result_digest_hex(engine.run());
  };
  reference::ReferenceSaath all_off(aalo_config());
  reference::ReferenceAalo aalo;
  const std::string digest = run(all_off);
  EXPECT_EQ(digest, run(aalo));
  EXPECT_EQ(digest, "f99c28620d993b46");
}

// The testbed's PipelinedScheduler drives Saath with no delta stream (every
// CoFlow a candidate every round) on a scratch fabric every epoch, which
// the registry runs never do.
TEST(RegistryDigest, TestbedRouteOnSyntheticFbTrace) {
  trace::SynthConfig cfg;
  cfg.num_ports = 40;
  cfg.num_coflows = 120;
  cfg.arrival_span = seconds(8);
  cfg.seed = 77;
  const auto t = trace::synth_fb_trace(cfg);
  const std::map<std::string, std::string> pinned = {
      {"saath", "1ce3c88b08fe8dea"},
      {"saath-an-pf-fifo", "00f68aca267a3808"},
      {"saath-an-fifo", "1489916e8a1ac051"},
      {"aalo", "8c7ff65681ddb292"},
  };
  for (const auto& [name, digest] : pinned) {
    auto sched = make_scheduler(name);
    const SimResult r = runtime::run_testbed(t, *sched);
    EXPECT_EQ(replay::result_digest_hex(r), digest) << name;
  }
}

}  // namespace
}  // namespace saath
