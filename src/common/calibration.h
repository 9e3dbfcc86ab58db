// Calibration constants for the simulated substrate: every fixed number the
// models and the full system price decisions with, defined once.
//
// The substrate does not try to predict performance from first principles;
// it is *calibrated* so the paper's measured anchor points come out of the
// model, then every experiment is derived from the calibrated model. The
// anchors and the fitted constants:
//
//  1. GPT-2 100B, 16x p4d.24xlarge: iteration time 62 s (paper Section 7.2)
//     and per-iteration network idle time ~12.5 s (Figure 8).
//     -> effective_flops_per_gpu(A100) = 52e12 (about 17% MFU, consistent
//        with ZeRO-3 at this scale), collective_efficiency(p4d) = 0.22 of
//        the 400 Gb/s line rate for training collectives.
//  2. GPT-2 40B, 16x p3dn.24xlarge: iteration time ~38 s (Figure 16
//     Baseline) and idle time ~4-6 s (Figure 13b).
//     -> effective_flops_per_gpu(V100) = 35e12,
//        collective_efficiency(p3dn) = 0.5 of the 100 Gb/s line rate.
//  3. Checkpoint point-to-point streams achieve full line rate; the paper
//     measured both EFA and the GPU->CPU copy path at ~400 Gb/s on p4d
//     (Section 5.2), reproduced by gpu_cpu_copy_bandwidth == NIC bandwidth.
//  4. torch.save serialization: 81 s per 75 GB machine replica (HighFreq,
//     Section 7.3), 162 s for two replicas at recovery -> kSerializationBandwidth.
//  5. FSx remote persistent storage: 20 Gb/s aggregate (Section 7.1); the
//     MT-NLG sanity check (Section 2.2) — 530B params, 12 B/param, 20 Gb/s
//     => 42 minutes — falls out of the same constant (kPersistentBandwidth).
//  6. Failure overheads (Figure 14): ~260 s restart warm-up, 4-7 min ASG
//     machine replacement, ~10 s with a standby machine.
//
// The policy and auditor constants further down are single points taken
// from the systems they model (CheckFreq, Checkmate, All is Not Lost;
// PAPERS.md), not values tuned per workload.
//
// FLOP accounting per GPU per iteration: forward 2*P*T, backward 4*P*T,
// full activation recomputation adds 2*P*T, where P is the parameter count
// and T the per-GPU tokens per iteration — 8*P*T total.
#ifndef SRC_COMMON_CALIBRATION_H_
#define SRC_COMMON_CALIBRATION_H_

#include "src/common/units.h"

namespace gemini {

// ---- Training compute -------------------------------------------------------

// FLOPs per parameter-token: forward.
inline constexpr double kForwardFlopsPerParamToken = 2.0;
// Backward is twice the forward cost.
inline constexpr double kBackwardFlopsPerParamToken = 4.0;
// Activation recomputation replays the forward pass during backward.
inline constexpr double kRecomputeFlopsPerParamToken = 2.0;

// Optimizer update is memory-bound: bytes touched per parameter (fp32 param,
// momentum, variance read+write plus fp16 write) over effective HBM rate.
inline constexpr double kUpdateBytesPerParam = 32.0;
inline constexpr BytesPerSecond kUpdateMemoryBandwidth = 400e9;

// ---- Serialization and persistent storage -----------------------------------

// torch.save is CPU-bound at ~1 GB/s per machine (anchor 4).
inline constexpr BytesPerSecond kSerializationBandwidth = 0.93e9;
// FSx aggregate bandwidth shared by every reader and writer (anchor 5).
inline constexpr BytesPerSecond kPersistentBandwidth = GbpsToBytesPerSecond(20);
// Per-request overhead of the persistent store.
inline constexpr TimeNs kPersistentRequestLatency = Millis(10);
// The persistent tier's retrieval cascade: per-shard attempt cap with capped
// exponential backoff between attempts.
inline constexpr int kPersistentRetrievalMaxAttempts = 4;
inline constexpr TimeNs kPersistentRetrievalBackoffBase = Millis(100);
inline constexpr TimeNs kPersistentRetrievalBackoffCap = Seconds(2);
// Peer retrieval during a hardware recovery backs off between attempts on
// the same schedule shape (the attempt cap is GeminiConfig's
// retrieval_max_attempts).
inline constexpr TimeNs kPeerRetrievalBackoffBase = Millis(200);
inline constexpr TimeNs kPeerRetrievalBackoffCap = Seconds(5);

// ---- Failure overheads (anchor 6) -------------------------------------------

// Restarting the training processes after any failure.
inline constexpr TimeNs kRestartWarmup = Seconds(260);
// Replacing a machine through the Auto Scaling Group takes a uniformly
// random delay in this range.
inline constexpr TimeNs kProvisionDelayMin = Minutes(4);
inline constexpr TimeNs kProvisionDelayMax = Minutes(7);
// Activating a pre-allocated standby machine.
inline constexpr TimeNs kStandbyActivationDelay = Seconds(10);

// ---- Interference auditor ---------------------------------------------------

// EWMA smoothing factor for per-span drift (higher = reacts faster).
inline constexpr double kAuditEwmaAlpha = 0.4;
// Normalized drift magnitude above which a span counts as drifted.
inline constexpr double kAuditDriftThreshold = 0.10;
// Consecutive drifted iterations before the drift hook fires (debounces
// one-off stragglers; the paper's profiler already tolerates ~5% jitter).
inline constexpr int kAuditConsecutiveIterations = 3;
// Upper bound on drift-hook firings per run; guards against oscillation.
inline constexpr int kAuditMaxReprofiles = 4;
// Sliding window over which detected failures become the observed failure
// rate (the Chameleon selector's primary signal).
inline constexpr TimeNs kFailureRateWindow = Hours(1);

// ---- Protection policies and related-work models ----------------------------

// CheckFreq's cap on the fraction of training time spent checkpointing
// (3.5% in its paper); TierCheck stretches its persistent cadence to it.
inline constexpr double kCheckFreqOverheadBudget = 0.035;
// CheckFreq's GPU-side snapshot bandwidth (device copy of the model states).
inline constexpr BytesPerSecond kCheckFreqSnapshotBandwidth = 100e9;
// DeepFreeze: fraction of serialization that still stalls training
// (pipelined copy-out).
inline constexpr double kDeepFreezeBlockingFraction = 0.05;
// Check-N-Run: lossy compression factor on the persisted bytes, and the
// compression throughput (which stalls training like serialization does).
inline constexpr double kCheckNRunCompressionRatio = 4.0;
inline constexpr BytesPerSecond kCheckNRunCompressionBandwidth = 2e9;

// TierCheck's requested persistent cadence (vs. GEMINI's hours-scale one).
inline constexpr TimeNs kTierCheckPersistentInterval = Minutes(30);

// Checkmate: gradient bytes per iteration relative to the model-state shard
// (gradients are one of the six mixed-precision state copies); per-iteration
// stall of logging them to peers (they ride the backward pass's all-reduce);
// cost of replaying one logged iteration relative to executing it.
inline constexpr double kCheckmateGradientBytesFraction = 1.0 / 6.0;
inline constexpr double kCheckmateStallFraction = 0.002;
inline constexpr double kCheckmateReplayCostFraction = 0.5;

// Recompute ("All is Not Lost"): iterations-worth of work to rebuild a lost
// shard from peer redundancy.
inline constexpr double kRecomputeIterations = 2.0;

// Chameleon selector: switch rules are evaluated every
// kChameleonDecisionIntervalIterations, at least
// kChameleonMinIterationsBetweenSwitches apart (hysteresis). Above the high
// failure-rate mark (failures/hour) it buys GEMINI's fast recovery, below the
// low mark it sheds overhead (Checkmate); redundancy degradation growth per
// decision window (seconds of system.redundancy.degraded_seconds) tips it to
// TierCheck, interference-inflation growth per window to Checkmate.
inline constexpr int64_t kChameleonDecisionIntervalIterations = 16;
inline constexpr int64_t kChameleonMinIterationsBetweenSwitches = 32;
inline constexpr double kChameleonHighFailureRatePerHour = 1.0;
inline constexpr double kChameleonLowFailureRatePerHour = 0.05;
inline constexpr double kChameleonDegradedSecondsThreshold = 60.0;
inline constexpr TimeNs kChameleonInterferenceInflationThreshold = Seconds(2);

}  // namespace gemini

#endif  // SRC_COMMON_CALIBRATION_H_
