// Host-speed reference: a fixed kernel the benchmark owns (it calls no
// repository code), sampled throughout a run so that its timings can be
// restated at a nominal host speed.
//
// The machines this benchmark runs on are shared: co-tenants slow the whole
// host by up to ~1.6x for minutes at a time, which moves every wall-clock
// number by far more than the changes the benchmark exists to judge. The
// kernel mixes what the system's host work is made of (allocation churn,
// streaming copies larger than the last-level cache, cache-resident dependent
// loads), so it slows down with the host. Timings divided by the median
// kernel slowdown over the same stretch of time are what they would have
// been on a nominal host. A change to the system cannot move the kernel, so
// a gain or a regression cannot hide in the normalisation.
#ifndef PERFBENCH_HOST_SPEED_H_
#define PERFBENCH_HOST_SPEED_H_

#include <cstdint>
#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  HostSpeed();

  // The kernel's time on an uncontended host of the kind the benchmark was
  // written on (4-vCPU x86-64 VM).
  static constexpr double kNominalSeconds = 1.8e-3;

  // Runs the kernel once; records and returns its slowdown against nominal
  // (1.0 = nominal, 1.5 = running 50% slow) and adds its time to
  // kernel_seconds().
  double Sample();

  const std::vector<double>& slowdowns() const { return slowdowns_; }
  double kernel_seconds() const { return kernel_seconds_; }

 private:
  std::vector<uint64_t> stream_a_;
  std::vector<uint64_t> stream_b_;
  std::vector<uint32_t> chase_;
  uint64_t sink_ = 0;
  std::vector<double> slowdowns_;
  double kernel_seconds_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_SPEED_H_
