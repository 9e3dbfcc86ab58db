// Related-work checkpointing systems (paper Section 8), modeled on the same
// workload/cost vocabulary as the primary baselines so they can share the
// Figure 10/12/15-style comparisons:
//
//  * DeepFreeze (Nicolae et al., CCGRID'20): asynchronous serialization +
//    upload to remote persistent storage. No per-checkpoint training stall,
//    but the frequency is still bottlenecked by the store's bandwidth, and
//    recovery still reads terabytes through it.
//  * CheckFreq (Mohan et al., FAST'21): fine-grained snapshots with a
//    dynamically tuned frequency that caps checkpoint overhead at a small
//    budget (3.5% in their paper). The snapshot itself is cheap (GPU-side
//    copy), but persistence and recovery go through the same remote store.
//  * Check-N-Run (Eisenman et al., NSDI'22): lossy compression shrinks the
//    persisted bytes by ~4x, buying frequency at the cost of compression
//    time and potential accuracy impact (which GEMINI avoids entirely).
//
// All three improve on Strawman/HighFreq along one axis while keeping the
// remote store on the recovery path — which is why none approaches GEMINI's
// wasted time. Their parameters are single points from each paper, defined
// in src/common/calibration.h.
#ifndef SRC_BASELINES_RELATED_WORK_H_
#define SRC_BASELINES_RELATED_WORK_H_

#include "src/baselines/system_model.h"

namespace gemini {

SystemModel BuildDeepFreeze(const CheckpointWorkload& workload);
SystemModel BuildCheckFreq(const CheckpointWorkload& workload);
SystemModel BuildCheckNRun(const CheckpointWorkload& workload);

}  // namespace gemini

#endif  // SRC_BASELINES_RELATED_WORK_H_
