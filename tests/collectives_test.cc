// Tests for the analytic ring-collective cost model (the NCCL stand-in),
// including a cross-check against ring steps driven through the fabric.
#include <gtest/gtest.h>

#include <functional>

#include "src/cluster/fabric.h"
#include "src/collectives/collectives.h"

namespace gemini {
namespace {

// ---------------------------------------------------------------------------
// Analytic cost model
// ---------------------------------------------------------------------------

TEST(RingCostModelTest, AllGatherFormula) {
  RingCostModel model;
  model.link_bandwidth = 1e9;
  model.alpha = Micros(10);
  // 8 ranks, 8 GB total: 7 steps of 1 GB each.
  const TimeNs t = model.AllGatherTime(8'000'000'000, 8);
  EXPECT_EQ(t, 7 * (Micros(10) + Seconds(1)));
}

TEST(RingCostModelTest, SingleRankIsFree) {
  RingCostModel model;
  model.link_bandwidth = 1e9;
  EXPECT_EQ(model.AllGatherTime(1'000'000, 1), 0);
}

TEST(RingCostModelTest, AllReduceIsTwiceAllGather) {
  RingCostModel model;
  model.link_bandwidth = 1e9;
  model.alpha = Micros(5);
  const Bytes bytes = 4'000'000'000;
  EXPECT_EQ(model.AllReduceTime(bytes, 4), 2 * model.AllGatherTime(bytes, 4));
}

TEST(RingCostModelTest, EfficiencyScalesBandwidthOnly) {
  RingCostModel full{1e9, 0, 1.0};
  RingCostModel half{1e9, 0, 0.5};
  EXPECT_EQ(half.AllGatherTime(8'000'000'000, 8), 2 * full.AllGatherTime(8'000'000'000, 8));
}

// ---------------------------------------------------------------------------
// Cross-check against the fabric
// ---------------------------------------------------------------------------

// Drives a ring all-gather's (world-1) synchronized steps as plain fabric
// transfers: in each step every member sends one shard to its successor, and
// the next step starts once all of them have landed.
TEST(RingFabricTest, AllGatherTimeMatchesCostModel) {
  Simulator sim;
  FabricConfig config;
  config.link_bandwidth = 4e3;
  config.alpha = Micros(10);
  constexpr int kWorld = 4;
  Fabric fabric(sim, kWorld, config);

  // 4 shards of 4 KB at 4 KB/s: 3 ring steps, 1 s + alpha each.
  constexpr Bytes kShardBytes = 4'000;
  int steps_done = 0;
  int pending = 0;
  TimeNs done_at = -1;
  std::function<void()> run_step = [&] {
    pending = kWorld;
    for (int member = 0; member < kWorld; ++member) {
      fabric.Transfer(member, (member + 1) % kWorld, kShardBytes, {}, [&](Status status) {
        ASSERT_TRUE(status.ok()) << status;
        if (--pending > 0) {
          return;
        }
        if (++steps_done < kWorld - 1) {
          run_step();
        } else {
          done_at = sim.now();
        }
      });
    }
  };
  run_step();
  sim.Run();
  ASSERT_EQ(steps_done, kWorld - 1);
  RingCostModel model{config.link_bandwidth, config.alpha, 1.0};
  EXPECT_EQ(done_at, model.AllGatherTime(kWorld * kShardBytes, kWorld));
}

}  // namespace
}  // namespace gemini
