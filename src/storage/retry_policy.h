// Shared retry schedule for checkpoint retrieval cascades.
//
// The CPU-memory peer-retrieval pass in GeminiSystem (from its config knobs)
// and the persistent tier's retrieval cascade (from the constants in
// src/common/calibration.h) each construct one `RetryPolicy`, so the
// capped-exponential-backoff curve cannot drift between them (attempt 0 is
// immediate; attempt n waits base * 2^(n-1), capped).
#ifndef SRC_STORAGE_RETRY_POLICY_H_
#define SRC_STORAGE_RETRY_POLICY_H_

#include <algorithm>

#include "src/common/units.h"

namespace gemini {

struct RetryPolicy {
  int max_attempts = 0;
  TimeNs backoff_base = 0;
  TimeNs backoff_cap = 0;

  // Delay before (1-based) `attempt`: 0 for attempt <= 0, then the base
  // doubling per attempt until the cap.
  TimeNs BackoffBefore(int attempt) const {
    if (attempt <= 0) {
      return 0;
    }
    TimeNs backoff = backoff_base;
    for (int i = 1; i < attempt && backoff < backoff_cap; ++i) {
      backoff *= 2;
    }
    return std::min(backoff, backoff_cap);
  }

  // True once `attempt` (0-based count of attempts already made) has
  // exhausted the cap.
  bool Exhausted(int attempts_made) const { return attempts_made >= max_attempts; }
};

}  // namespace gemini

#endif  // SRC_STORAGE_RETRY_POLICY_H_
