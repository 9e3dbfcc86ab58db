// GPU instance catalog (paper Table 1) plus the performance parameters the
// substrate needs: NIC bandwidth, GPU<->CPU copy bandwidth, and a calibrated
// effective per-GPU training throughput.
#ifndef SRC_CLUSTER_INSTANCE_SPEC_H_
#define SRC_CLUSTER_INSTANCE_SPEC_H_

#include <string>
#include <vector>

#include "src/common/units.h"

namespace gemini {

struct InstanceSpec {
  std::string name;
  std::string cloud;
  std::string gpu_model;
  int num_gpus = 0;
  Bytes gpu_memory_per_gpu = 0;
  Bytes cpu_memory = 0;
  // Inter-machine NIC bandwidth (e.g. 400 Gb/s EFA on p4d.24xlarge).
  BytesPerSecond network_bandwidth = 0;
  // Aggregate GPU<->CPU copy bandwidth per machine. The paper measured both
  // the EFA and the PCIe copy path at ~400 Gb/s on p4d.24xlarge (Section 5.2
  // footnote 2), which is exactly why pipelining is required.
  BytesPerSecond gpu_cpu_copy_bandwidth = 0;
  // Calibrated effective training throughput per GPU (FLOP/s), i.e. peak
  // times achieved MFU for ZeRO-3 at the paper's scale. See
  // src/common/calibration.h for how the values were fit.
  double effective_flops_per_gpu = 0;
  // Fraction of NIC line rate that synchronization-bound training collectives
  // achieve (checkpoint point-to-point streams run at full rate). Calibrated
  // per instance family; see src/common/calibration.h.
  double collective_efficiency = 0.3;

  Bytes total_gpu_memory() const { return gpu_memory_per_gpu * num_gpus; }
};

// The two instance types the paper evaluates on.
const InstanceSpec& P4d24xlarge();   // 8x A100 40GB, 1152 GB CPU, 400 Gb/s EFA
const InstanceSpec& P3dn24xlarge();  // 8x V100 32GB,  768 GB CPU, 100 Gb/s EFA

// AWS Trainium (trn1.32xlarge) — the accelerator the paper names as future
// work (Section 9). Not part of the paper's Table 1; `num_gpus` counts
// Trainium chips. Its CPU:accelerator memory ratio is only 1:1, so fewer
// in-memory replicas fit per host than on the GPU instances — the trade-off
// the extension tests quantify.
const InstanceSpec& Trn1_32xlarge();

// Full Table 1 catalog (AWS, Azure, GCP, NVIDIA DGX) for the table bench.
const std::vector<InstanceSpec>& InstanceCatalog();

// Looks up a catalog entry by name; returns nullptr when absent.
const InstanceSpec* FindInstanceSpec(const std::string& name);

}  // namespace gemini

#endif  // SRC_CLUSTER_INSTANCE_SPEC_H_
