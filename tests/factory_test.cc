#include <gtest/gtest.h>

#include "sched/factory.h"
#include "sched/saath.h"
#include "sim/result.h"

namespace saath {
namespace {

TEST(Factory, KnownNamesConstruct) {
  for (const auto& name : known_schedulers()) {
    auto sched = make_scheduler(name);
    ASSERT_NE(sched, nullptr) << name;
    EXPECT_FALSE(sched->name().empty());
  }
}

TEST(Factory, UnknownNameThrows) {
  EXPECT_THROW(make_scheduler("varys2"), std::invalid_argument);
  EXPECT_THROW(make_scheduler(""), std::invalid_argument);
}

TEST(Factory, AblationFlagsWiredCorrectly) {
  auto an_fifo = make_scheduler("saath-an-fifo");
  auto* s1 = dynamic_cast<SaathScheduler*>(an_fifo.get());
  ASSERT_NE(s1, nullptr);
  EXPECT_TRUE(s1->config().all_or_none);
  EXPECT_FALSE(s1->config().per_flow_threshold);
  EXPECT_FALSE(s1->config().lcof);

  auto an_pf = make_scheduler("saath-an-pf-fifo");
  auto* s2 = dynamic_cast<SaathScheduler*>(an_pf.get());
  ASSERT_NE(s2, nullptr);
  EXPECT_TRUE(s2->config().per_flow_threshold);
  EXPECT_FALSE(s2->config().lcof);

  // Aalo is Saath with every mechanism switched off.
  SchedulerOptions opt;
  opt.queues.start_threshold = 123 * kMB;
  opt.deadline_factor = 7.0;  // Aalo has no deadlines: ignored
  auto aalo = make_scheduler("aalo", opt);
  auto* s3 = dynamic_cast<SaathScheduler*>(aalo.get());
  ASSERT_NE(s3, nullptr);
  EXPECT_EQ(s3->name(), "aalo");
  EXPECT_FALSE(s3->config().all_or_none);
  EXPECT_FALSE(s3->config().per_flow_threshold);
  EXPECT_FALSE(s3->config().lcof);
  EXPECT_FALSE(s3->config().work_conservation);
  EXPECT_DOUBLE_EQ(s3->config().deadline_factor, 0.0);
  EXPECT_FALSE(s3->config().dynamics_srtf);
  EXPECT_FALSE(s3->config().respect_data_availability);
  EXPECT_EQ(s3->config().queues.start_threshold, 123 * kMB);
}

TEST(Factory, OptionsPropagate) {
  SchedulerOptions opt;
  opt.queues.start_threshold = 123 * kMB;
  opt.deadline_factor = 7.0;
  auto sched = make_scheduler("saath", opt);
  auto* s = dynamic_cast<SaathScheduler*>(sched.get());
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->config().queues.start_threshold, 123 * kMB);
  EXPECT_DOUBLE_EQ(s->config().deadline_factor, 7.0);
}

TEST(SimResult, FindReturnsNullForUnknownId) {
  SimResult r;
  CoflowRecord rec;
  rec.id = CoflowId{3};
  r.coflows.push_back(rec);
  EXPECT_NE(r.find(CoflowId{3}), nullptr);
  EXPECT_EQ(r.find(CoflowId{4}), nullptr);
}

TEST(SimResult, CctSummaryMatchesRecords) {
  SimResult r;
  for (int i = 1; i <= 4; ++i) {
    CoflowRecord rec;
    rec.id = CoflowId{i};
    rec.arrival = 0;
    rec.finish = seconds(i);
    r.coflows.push_back(rec);
  }
  const auto s = r.cct_summary();
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
}

}  // namespace
}  // namespace saath
