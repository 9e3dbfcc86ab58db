#include "src/collectives/collectives.h"

#include <cassert>
#include <utility>

namespace gemini {

// ---------------------------------------------------------------------------
// Analytic cost model
// ---------------------------------------------------------------------------

TimeNs RingCostModel::AllGatherTime(Bytes total_bytes, int world) const {
  assert(world >= 1);
  if (world == 1 || total_bytes == 0) {
    return 0;
  }
  const Bytes per_step = total_bytes / world;
  const TimeNs step = alpha + TransferTime(per_step, effective_bandwidth());
  return step * (world - 1);
}

TimeNs RingCostModel::ReduceScatterTime(Bytes total_bytes, int world) const {
  return AllGatherTime(total_bytes, world);
}

TimeNs RingCostModel::AllReduceTime(Bytes total_bytes, int world) const {
  return ReduceScatterTime(total_bytes, world) + AllGatherTime(total_bytes, world);
}

TimeNs RingCostModel::BroadcastTime(Bytes bytes, int group_size) const {
  assert(group_size >= 1);
  if (group_size == 1 || bytes == 0) {
    return 0;
  }
  return (group_size - 1) * (alpha + TransferTime(bytes, effective_bandwidth()));
}

// ---------------------------------------------------------------------------
// Data-plane collectives
// ---------------------------------------------------------------------------

namespace {

Bytes FloatBytes(size_t count) { return static_cast<Bytes>(count * sizeof(float)); }

}  // namespace

// Shared per-operation state. `slots[i]` is member i's working buffer; the
// meaning of a slot depends on the operation (all-gather chunk table or
// reduce-scatter accumulator chunks).
struct Communicator::RingState {
  int total_steps = 0;
  int pending_in_step = 0;
  bool failed = false;
  Status error;
  std::vector<std::vector<FloatVec>> slots;
  // Which chunk member i sends at step s.
  std::function<int(int member, int step)> chunk_to_send;
  // Applies the received chunk at the destination. For all-gather this is a
  // copy; for reduce-scatter an accumulate.
  std::function<void(int dst_member, int chunk, const FloatVec& data)> apply;
  std::function<void(RingState&)> finish;
  std::function<void(Status)> fail;
};

Communicator::Communicator(Fabric& fabric, std::vector<int> ranks, double efficiency)
    : fabric_(fabric), ranks_(std::move(ranks)), efficiency_(efficiency) {
  assert(!ranks_.empty());
  assert(efficiency_ > 0 && efficiency_ <= 1.0);
}

void Communicator::RunRingSteps(std::shared_ptr<RingState> state, int step) {
  if (step >= state->total_steps) {
    state->finish(*state);
    return;
  }
  const int n = size();
  state->pending_in_step = n;
  for (int i = 0; i < n; ++i) {
    const int dst = (i + 1) % n;
    const int chunk = state->chunk_to_send(i, step);
    // Snapshot the payload now; the destination applies it at arrival time.
    FloatVec payload = state->slots[static_cast<size_t>(i)][static_cast<size_t>(chunk)];
    const Bytes bytes = FloatBytes(payload.size());
    Fabric::TransferOptions options;
    options.bandwidth_efficiency = efficiency_;
    fabric_.Transfer(
        ranks_[static_cast<size_t>(i)], ranks_[static_cast<size_t>(dst)], bytes, options,
        [this, state, step, dst, chunk, payload = std::move(payload)](Status status) mutable {
          if (!status.ok()) {
            state->failed = true;
            state->error = status;
          } else if (!state->failed) {
            state->apply(dst, chunk, payload);
          }
          if (--state->pending_in_step == 0) {
            if (state->failed) {
              state->fail(state->error);
              return;
            }
            RunRingSteps(state, step + 1);
          }
        });
  }
}

void Communicator::AllGather(std::vector<FloatVec> shards,
                             std::function<void(StatusOr<FloatVec>)> done) {
  const int n = size();
  assert(static_cast<int>(shards.size()) == n);
  if (n == 1) {
    done(std::move(shards[0]));
    return;
  }
  auto state = std::make_shared<RingState>();
  state->total_steps = n - 1;
  state->slots.assign(static_cast<size_t>(n), std::vector<FloatVec>(static_cast<size_t>(n)));
  for (int i = 0; i < n; ++i) {
    state->slots[static_cast<size_t>(i)][static_cast<size_t>(i)] = shards[static_cast<size_t>(i)];
  }
  state->chunk_to_send = [n](int member, int step) { return ((member - step) % n + n) % n; };
  state->apply = [state_weak = std::weak_ptr<RingState>(state)](int dst, int chunk,
                                                                const FloatVec& data) {
    if (auto s = state_weak.lock()) {
      s->slots[static_cast<size_t>(dst)][static_cast<size_t>(chunk)] = data;
    }
  };
  state->fail = [done](Status status) { done(std::move(status)); };
  state->finish = [n, done](RingState& s) {
    // Every member now holds all chunks; return member 0's concatenation
    // (identical everywhere, which the tests assert).
    FloatVec out;
    for (int c = 0; c < n; ++c) {
      const FloatVec& chunk = s.slots[0][static_cast<size_t>(c)];
      out.insert(out.end(), chunk.begin(), chunk.end());
    }
    done(std::move(out));
  };
  RunRingSteps(state, 0);
}

void Communicator::ReduceScatter(std::vector<FloatVec> inputs,
                                 std::function<void(StatusOr<std::vector<FloatVec>>)> done) {
  const int n = size();
  assert(static_cast<int>(inputs.size()) == n);
  const size_t length = inputs[0].size();
  assert(length % static_cast<size_t>(n) == 0);
  for (const auto& input : inputs) {
    assert(input.size() == length);
    (void)input;
  }
  const size_t chunk_len = length / static_cast<size_t>(n);

  if (n == 1) {
    done(std::vector<FloatVec>{std::move(inputs[0])});
    return;
  }

  auto state = std::make_shared<RingState>();
  state->total_steps = n - 1;
  state->slots.assign(static_cast<size_t>(n), std::vector<FloatVec>(static_cast<size_t>(n)));
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < n; ++c) {
      const auto begin = inputs[static_cast<size_t>(i)].begin() +
                         static_cast<std::ptrdiff_t>(static_cast<size_t>(c) * chunk_len);
      state->slots[static_cast<size_t>(i)][static_cast<size_t>(c)] =
          FloatVec(begin, begin + static_cast<std::ptrdiff_t>(chunk_len));
    }
  }
  state->chunk_to_send = [n](int member, int step) { return ((member - step) % n + n) % n; };
  state->apply = [state_weak = std::weak_ptr<RingState>(state)](int dst, int chunk,
                                                                const FloatVec& data) {
    if (auto s = state_weak.lock()) {
      FloatVec& acc = s->slots[static_cast<size_t>(dst)][static_cast<size_t>(chunk)];
      assert(acc.size() == data.size());
      for (size_t k = 0; k < data.size(); ++k) {
        acc[k] += data[k];
      }
    }
  };
  state->fail = [done](Status status) { done(std::move(status)); };
  state->finish = [n, done](RingState& s) {
    // After n-1 steps member i holds the fully reduced chunk (i+1) mod n;
    // re-index so result[c] is reduced chunk c (pure relabeling, free in a
    // shared address space).
    std::vector<FloatVec> result(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      const int chunk = (i + 1) % n;
      result[static_cast<size_t>(chunk)] =
          std::move(s.slots[static_cast<size_t>(i)][static_cast<size_t>(chunk)]);
    }
    done(std::move(result));
  };
  RunRingSteps(state, 0);
}

void Communicator::AllReduce(std::vector<FloatVec> inputs,
                             std::function<void(StatusOr<FloatVec>)> done) {
  ReduceScatter(std::move(inputs), [this, done](StatusOr<std::vector<FloatVec>> reduced) {
    if (!reduced.ok()) {
      done(reduced.status());
      return;
    }
    AllGather(std::move(reduced).value(), std::move(done));
  });
}

void Communicator::Broadcast(int root_index, FloatVec data,
                             std::function<void(StatusOr<FloatVec>)> done) {
  const int n = size();
  assert(root_index >= 0 && root_index < n);
  if (n == 1) {
    done(std::move(data));
    return;
  }
  // Chain: root -> root+1 -> ... -> root+n-1 (mod n). The recursive step
  // captures itself weakly (each in-flight transfer callback holds the only
  // strong reference) so the function object is reclaimed once the chain
  // finishes instead of keeping itself alive through a shared_ptr cycle.
  auto payload = std::make_shared<FloatVec>(std::move(data));
  auto forward = std::make_shared<std::function<void(int)>>();
  const std::weak_ptr<std::function<void(int)>> weak_forward = forward;
  *forward = [this, n, root_index, payload, weak_forward, done](int hop) {
    if (hop == n - 1) {
      done(std::move(*payload));
      return;
    }
    const int src = (root_index + hop) % n;
    const int dst = (root_index + hop + 1) % n;
    Fabric::TransferOptions options;
    options.bandwidth_efficiency = efficiency_;
    const auto self = weak_forward.lock();
    fabric_.Transfer(ranks_[static_cast<size_t>(src)], ranks_[static_cast<size_t>(dst)],
                     FloatBytes(payload->size()), options,
                     [self, hop, done](Status status) {
                       if (!status.ok()) {
                         done(std::move(status));
                         return;
                       }
                       (*self)(hop + 1);
                     });
  };
  (*forward)(0);
}

}  // namespace gemini
