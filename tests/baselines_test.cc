// Tests for the analytic checkpointing-system models (Strawman, HighFreq,
// GEMINI), cross-checked against the paper's reported numbers.
#include <gtest/gtest.h>

#include "src/baselines/related_work.h"
#include "src/baselines/system_model.h"
#include "src/common/calibration.h"
#include "src/gemini/gemini_system.h"
#include "src/policy/cost_model.h"
#include "src/training/model_config.h"

namespace gemini {
namespace {

// GPT-2 100B on 16x p4d.24xlarge: the paper's primary evaluation setting.
CheckpointWorkload PaperWorkload() {
  CheckpointWorkload workload;
  workload.iteration_time = Seconds(62);
  workload.checkpoint_bytes_per_machine = Gpt2_100B().CheckpointBytesPerMachine(16);
  workload.num_machines = 16;
  workload.num_replicas = 2;
  return workload;
}

TEST(SystemModelTest, StrawmanUsesThreeHourInterval) {
  const SystemModel model = BuildStrawman(PaperWorkload());
  EXPECT_EQ(model.checkpoint_interval, Hours(3));
  // One persistent checkpoint: ~80 s serialization + 480 s upload at
  // 20 Gb/s for the 1.2 TB of model states.
  EXPECT_NEAR(ToSeconds(model.checkpoint_time), 555.0, 15.0);
}

TEST(SystemModelTest, StrawmanWastedTimeDominatedByHalfInterval) {
  const SystemModel model = BuildStrawman(PaperWorkload());
  // Eq (1): t_ckpt + 1.5h + t_rtvl; roughly 1.77 h.
  const double minutes = ToSeconds(model.AverageWastedTime()) / 60.0;
  EXPECT_NEAR(minutes, 106.0, 6.0);
}

TEST(SystemModelTest, HighFreqIntervalIsAboutNineIterations) {
  // Section 7.3: HighFreq checkpoints every ~9 iterations (we land on 9-10
  // depending on whether serialization overlaps the upload).
  const SystemModel model = BuildHighFreq(PaperWorkload());
  const int64_t iterations = model.checkpoint_interval / Seconds(62);
  EXPECT_GE(iterations, 8);
  EXPECT_LE(iterations, 10);
}

TEST(SystemModelTest, HighFreqSerializationTaxMatchesPaper) {
  // Section 7.3: "Even without any failures, 14.5% time is spent on
  // checkpoint serialization" — ~81 s per checkpoint every ~9 iterations.
  const SystemModel model = BuildHighFreq(PaperWorkload());
  EXPECT_NEAR(ToSeconds(model.training_block_per_checkpoint), 81.0, 3.0);
  const double tax = 1.0 - model.EffectiveTrainingRatio(/*failures_per_day=*/0.0);
  EXPECT_NEAR(tax, 0.14, 0.02);
}

TEST(SystemModelTest, GeminiSoftwareFailureWastes1Point5Iterations) {
  // Section 7.2: with no machine replaced, the average wasted time is
  // 1.5x the iteration time.
  const SystemModel model = BuildGemini(PaperWorkload(), /*replaced_machines=*/0);
  EXPECT_EQ(model.AverageWastedTime(), Seconds(62) + Seconds(31));
  EXPECT_EQ(model.training_block_per_checkpoint, 0);
}

TEST(SystemModelTest, GeminiRetrievalFromPeerUnderThreeSeconds) {
  // Section 7.2: "the retrieval time is less than three seconds".
  const SystemModel model = BuildGemini(PaperWorkload(), /*replaced_machines=*/1);
  EXPECT_LT(ToSeconds(model.retrieval_time), 3.0);
  EXPECT_GT(model.retrieval_time, 0);
}

TEST(SystemModelTest, GeminiBeatsHighFreqByOver13x) {
  // The headline claim: >13x faster failure recovery.
  const CheckpointWorkload workload = PaperWorkload();
  const SystemModel gemini = BuildGemini(workload, /*replaced_machines=*/1);
  const SystemModel highfreq = BuildHighFreq(workload);
  const double speedup = static_cast<double>(highfreq.AverageWastedTime()) /
                         static_cast<double>(gemini.AverageWastedTime());
  EXPECT_GT(speedup, 13.0);
}

TEST(SystemModelTest, GeminiRecoveryOverheadsMatchFigure14) {
  const CheckpointWorkload workload = PaperWorkload();
  // Software failure: ~15 s detection + ~162 s serialization + warm-up
  // (>4 min) => ~7 minutes total.
  const SystemModel software = BuildGemini(workload, 0);
  EXPECT_NEAR(ToSeconds(software.overheads.checkpoint_serialization), 162.0, 8.0);
  EXPECT_NEAR(ToSeconds(software.overheads.total()) / 60.0, 7.0, 1.0);
  // Hardware failure adds the ASG replacement: ~12 minutes total.
  const SystemModel hardware = BuildGemini(workload, 1);
  EXPECT_NEAR(ToSeconds(hardware.overheads.total()) / 60.0, 12.5, 1.5);
  // Standby machines mostly remove the replacement wait.
  const SystemModel standby = BuildGemini(workload, 1, 0, /*standby_machines=*/true);
  EXPECT_LT(standby.overheads.total(), hardware.overheads.total() - Minutes(4));
}

TEST(SystemModelTest, SharesCalibrationWithTheFullSystem) {
  // The analytic models and GeminiSystem price the same anchors through the
  // same constants and cost functions, on the same GPT-2 100B x 16 shape.
  const CheckpointWorkload workload = PaperWorkload();
  GeminiConfig config;
  config.model = Gpt2_100B();
  config.instance = P4d24xlarge();
  config.num_machines = workload.num_machines;
  config.num_replicas = workload.num_replicas;
  config.payload_elements = 16;
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  ASSERT_EQ(system.replica_bytes(), workload.checkpoint_bytes_per_machine);

  // Recovery serialization: m replicas per machine through torch.save.
  const SystemModel standby = BuildGemini(workload, 1, 0, /*standby_machines=*/true);
  EXPECT_EQ(standby.overheads.checkpoint_serialization,
            system.policy().RecoverySerializationTime(system));
  // The baselines' per-checkpoint stall is one replica at the same rate.
  EXPECT_EQ(BuildStrawman(workload).training_block_per_checkpoint,
            SerializationStall(workload.checkpoint_bytes_per_machine, kSerializationBandwidth));
  // Machine replacement: the mean of the cloud operator's ASG delay range,
  // or its standby activation delay.
  EXPECT_EQ(BuildGemini(workload, 1).overheads.machine_replacement,
            (kProvisionDelayMin + kProvisionDelayMax) / 2);
  EXPECT_EQ(BuildGemini(workload, 1).overheads.machine_replacement, Minutes(5.5));
  EXPECT_EQ(standby.overheads.machine_replacement, kStandbyActivationDelay);
}

TEST(SystemModelTest, GeminiFallbackDegradesToStrawman) {
  const CheckpointWorkload workload = PaperWorkload();
  const SystemModel fallback = BuildGeminiPersistentFallback(workload);
  const SystemModel strawman = BuildStrawman(workload);
  EXPECT_EQ(fallback.AverageWastedTime(), strawman.AverageWastedTime());
}

TEST(SystemModelTest, CheckpointFrequencyRatiosMatchFigure12) {
  // Figure 12: GEMINI checkpoints every iteration — 8x more often than
  // HighFreq and >170x more often than Strawman.
  const CheckpointWorkload workload = PaperWorkload();
  const SystemModel gemini = BuildGemini(workload, 0);
  const SystemModel highfreq = BuildHighFreq(workload);
  const SystemModel strawman = BuildStrawman(workload);
  const double vs_highfreq = gemini.checkpoints_per_hour() / highfreq.checkpoints_per_hour();
  const double vs_strawman = gemini.checkpoints_per_hour() / strawman.checkpoints_per_hour();
  EXPECT_NEAR(vs_highfreq, 8.0, 2.0);
  EXPECT_GT(vs_strawman, 170.0);
}

TEST(SystemModelTest, EffectiveRatioDecreasesWithFailures) {
  const CheckpointWorkload workload = PaperWorkload();
  for (const SystemModel& model :
       {BuildGemini(workload, 0), BuildHighFreq(workload), BuildStrawman(workload)}) {
    double previous = 1.1;
    for (const double failures : {0.0, 2.0, 4.0, 8.0}) {
      const double ratio = model.EffectiveTrainingRatio(failures);
      EXPECT_LT(ratio, previous) << model.name;
      EXPECT_GE(ratio, 0.0);
      previous = ratio;
    }
  }
}

TEST(SystemModelTest, Figure15aShapes) {
  // At 8 failures/day GEMINI stays close to the no-failure baseline while
  // Strawman collapses and HighFreq sits in between.
  const CheckpointWorkload workload = PaperWorkload();
  const double gemini = BuildGemini(workload, 0).EffectiveTrainingRatio(8);
  const double highfreq = BuildHighFreq(workload).EffectiveTrainingRatio(8);
  const double strawman = BuildStrawman(workload).EffectiveTrainingRatio(8);
  EXPECT_GT(gemini, 0.92);
  EXPECT_LT(strawman, 0.55);
  EXPECT_GT(gemini, highfreq);
  EXPECT_GT(highfreq, strawman);
}

TEST(SystemModelTest, Figure15bThousandInstances) {
  // Section 7.3: with 1000 instances and OPT's 1.5%/day failure rate (15
  // failures/day), GEMINI's effective ratio stays around 91%, ~54% above
  // HighFreq's. The paper scales only the failure frequency, keeping the
  // 16-instance per-failure costs ("Based on the incurred overhead by one
  // failure, we can simulate...").
  const CheckpointWorkload workload = PaperWorkload();
  const double gemini = BuildGemini(workload, 0).EffectiveTrainingRatio(15);
  const double highfreq = BuildHighFreq(workload).EffectiveTrainingRatio(15);
  EXPECT_NEAR(gemini, 0.91, 0.03);
  EXPECT_NEAR(gemini / highfreq, 1.54, 0.20);
}

TEST(SystemModelTest, CheckpointTimeReductionGrowsWithClusterAndBandwidth) {
  // Figure 11: reduction vs N and NIC bandwidth; >250x at 16 machines and
  // 400 Gb/s, ~65x at 100 Gb/s.
  const Bytes total = Gpt2_100B().CheckpointBytesTotal();
  for (const auto& [gbps, expected_min] : std::vector<std::pair<double, double>>{
           {400.0, 200.0}, {200.0, 110.0}, {100.0, 55.0}}) {
    CheckpointWorkload workload = PaperWorkload();
    workload.nic_bandwidth = GbpsToBytesPerSecond(gbps);
    workload.checkpoint_bytes_per_machine = total / 16;
    const SystemModel gemini = BuildGemini(workload, 0);
    const SystemModel strawman = BuildStrawman(workload);
    const double reduction = static_cast<double>(strawman.checkpoint_time) /
                             static_cast<double>(gemini.checkpoint_time -
                                                 std::max<TimeNs>(0, gemini.checkpoint_time -
                                                                         workload.iteration_time));
    // checkpoint_time is clamped to >= iteration time for wasted-time math;
    // compare against the raw transmission estimate instead.
    const TimeNs raw = TransferTime(workload.checkpoint_bytes_per_machine,
                                    workload.nic_bandwidth) +
                       TransferTime(workload.checkpoint_bytes_per_machine,
                                    workload.nic_bandwidth) / 8;
    const double raw_reduction =
        static_cast<double>(strawman.checkpoint_time) / static_cast<double>(raw);
    EXPECT_GT(raw_reduction, expected_min) << gbps << " Gb/s";
    (void)reduction;
  }
}

TEST(SystemModelTest, MoreMachinesShrinkGeminiCheckpointTime) {
  // Figure 11's other axis: GEMINI's checkpoint time falls as machines are
  // added (aggregate NIC bandwidth grows) while the baselines stay flat.
  const Bytes total = Gpt2_100B().CheckpointBytesTotal();
  TimeNs previous = Hours(100);
  for (const int machines : {4, 8, 16}) {
    CheckpointWorkload workload = PaperWorkload();
    workload.num_machines = machines;
    workload.checkpoint_bytes_per_machine = total / machines;
    const TimeNs raw =
        TransferTime(workload.checkpoint_bytes_per_machine, workload.nic_bandwidth);
    EXPECT_LT(raw, previous);
    previous = raw;
    const SystemModel strawman = BuildStrawman(workload);
    // The upload term (480 s through the fixed 20 Gb/s store) never changes;
    // only the per-machine serialization share shrinks with more machines.
    EXPECT_GE(ToSeconds(strawman.checkpoint_time), 480.0) << machines;
    EXPECT_LE(ToSeconds(strawman.checkpoint_time), 900.0) << machines;
  }
}


// ---------------------------------------------------------------------------
// Related-work models (paper Section 8)
// ---------------------------------------------------------------------------

TEST(RelatedWorkTest, DeepFreezeRemovesTheStallButNotTheBottleneck) {
  const CheckpointWorkload workload = PaperWorkload();
  const SystemModel deepfreeze = BuildDeepFreeze(workload);
  const SystemModel highfreq = BuildHighFreq(workload);
  // Asynchronous serialization: an order of magnitude less stall per ckpt.
  EXPECT_LT(deepfreeze.training_block_per_checkpoint,
            highfreq.training_block_per_checkpoint / 10);
  // But the store-bound frequency and retrieval are unchanged.
  EXPECT_EQ(deepfreeze.checkpoint_interval, highfreq.checkpoint_interval);
  EXPECT_EQ(deepfreeze.retrieval_time, highfreq.retrieval_time);
}

TEST(RelatedWorkTest, CheckFreqRespectsOverheadBudget) {
  const CheckpointWorkload workload = PaperWorkload();
  const SystemModel model = BuildCheckFreq(workload);
  const double overhead = static_cast<double>(model.training_block_per_checkpoint) /
                          static_cast<double>(model.checkpoint_interval);
  EXPECT_LE(overhead, kCheckFreqOverheadBudget + 0.001);
  // Its frequency still cannot beat the store's drain rate.
  EXPECT_GE(model.checkpoint_interval, model.checkpoint_time - workload.iteration_time);
}

TEST(RelatedWorkTest, CheckNRunTradesAccuracyRiskForFrequency) {
  const CheckpointWorkload workload = PaperWorkload();
  const SystemModel compressed = BuildCheckNRun(workload);
  const SystemModel highfreq = BuildHighFreq(workload);
  // 4x fewer persisted bytes => roughly 3-4x shorter interval and retrieval.
  EXPECT_LT(compressed.checkpoint_interval, highfreq.checkpoint_interval / 2);
  EXPECT_LT(compressed.retrieval_time, highfreq.retrieval_time / 2);
}

TEST(RelatedWorkTest, NoneApproachesGeminiWastedTime) {
  const CheckpointWorkload workload = PaperWorkload();
  const SystemModel gemini = BuildGemini(workload, 1);
  for (const SystemModel& model :
       {BuildDeepFreeze(workload), BuildCheckFreq(workload), BuildCheckNRun(workload)}) {
    EXPECT_GT(static_cast<double>(model.AverageWastedTime()) /
                  static_cast<double>(gemini.AverageWastedTime()),
              3.0)
        << model.name;
  }
}

}  // namespace
}  // namespace gemini
