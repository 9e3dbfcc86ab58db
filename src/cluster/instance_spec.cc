#include "src/cluster/instance_spec.h"

namespace gemini {
namespace {

std::vector<InstanceSpec> BuildCatalog() {
  // Memory columns reproduce paper Table 1. Bandwidths are the published
  // figures for each instance family; effective FLOP/s are calibrated so the
  // simulated iteration times of the Table 2 workloads land near the paper's
  // measurements (see src/common/calibration.h).
  std::vector<InstanceSpec> catalog;
  catalog.push_back(InstanceSpec{
      .name = "p3dn.24xlarge",
      .cloud = "AWS",
      .gpu_model = "V100",
      .num_gpus = 8,
      .gpu_memory_per_gpu = GiB(32),
      .cpu_memory = GiB(768),
      .network_bandwidth = GbpsToBytesPerSecond(100),
      .gpu_cpu_copy_bandwidth = GbpsToBytesPerSecond(100),
      .effective_flops_per_gpu = 40e12,
      .collective_efficiency = 0.5,
  });
  catalog.push_back(InstanceSpec{
      .name = "p4d.24xlarge",
      .cloud = "AWS",
      .gpu_model = "A100",
      .num_gpus = 8,
      .gpu_memory_per_gpu = GiB(40),
      .cpu_memory = GiB(1152),
      .network_bandwidth = GbpsToBytesPerSecond(400),
      .gpu_cpu_copy_bandwidth = GbpsToBytesPerSecond(400),
      .effective_flops_per_gpu = 56e12,
      .collective_efficiency = 0.23,
  });
  catalog.push_back(InstanceSpec{
      .name = "ND40rs_v2",
      .cloud = "Azure",
      .gpu_model = "V100",
      .num_gpus = 8,
      .gpu_memory_per_gpu = GiB(32),
      .cpu_memory = GiB(672),
      .network_bandwidth = GbpsToBytesPerSecond(100),
      .gpu_cpu_copy_bandwidth = GbpsToBytesPerSecond(128),
      .effective_flops_per_gpu = 38e12,
  });
  catalog.push_back(InstanceSpec{
      .name = "ND96asr_v4",
      .cloud = "Azure",
      .gpu_model = "A100",
      .num_gpus = 8,
      .gpu_memory_per_gpu = GiB(40),
      .cpu_memory = GiB(900),
      .network_bandwidth = GbpsToBytesPerSecond(200),
      .gpu_cpu_copy_bandwidth = GbpsToBytesPerSecond(256),
      .effective_flops_per_gpu = 56e12,
  });
  catalog.push_back(InstanceSpec{
      .name = "n1-8-v100",
      .cloud = "GCP",
      .gpu_model = "V100",
      .num_gpus = 8,
      .gpu_memory_per_gpu = GiB(32),
      .cpu_memory = GiB(624),
      .network_bandwidth = GbpsToBytesPerSecond(32),
      .gpu_cpu_copy_bandwidth = GbpsToBytesPerSecond(100),
      .effective_flops_per_gpu = 38e12,
  });
  catalog.push_back(InstanceSpec{
      .name = "a2-highgpu-8g",
      .cloud = "GCP",
      .gpu_model = "A100",
      .num_gpus = 8,
      .gpu_memory_per_gpu = GiB(40),
      .cpu_memory = GiB(640),
      .network_bandwidth = GbpsToBytesPerSecond(100),
      .gpu_cpu_copy_bandwidth = GbpsToBytesPerSecond(256),
      .effective_flops_per_gpu = 56e12,
  });
  catalog.push_back(InstanceSpec{
      .name = "DGX A100",
      .cloud = "NVIDIA",
      .gpu_model = "A100",
      .num_gpus = 8,
      .gpu_memory_per_gpu = GiB(80),
      .cpu_memory = GiB(2048),
      .network_bandwidth = GbpsToBytesPerSecond(200),
      .gpu_cpu_copy_bandwidth = GbpsToBytesPerSecond(400),
      .effective_flops_per_gpu = 56e12,
  });
  return catalog;
}

}  // namespace

const std::vector<InstanceSpec>& InstanceCatalog() {
  static const std::vector<InstanceSpec> catalog = BuildCatalog();
  return catalog;
}

const InstanceSpec* FindInstanceSpec(const std::string& name) {
  for (const auto& spec : InstanceCatalog()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

const InstanceSpec& P4d24xlarge() { return *FindInstanceSpec("p4d.24xlarge"); }

const InstanceSpec& Trn1_32xlarge() {
  static const InstanceSpec spec{
      .name = "trn1.32xlarge",
      .cloud = "AWS",
      .gpu_model = "Trainium",
      .num_gpus = 16,
      .gpu_memory_per_gpu = GiB(32),
      .cpu_memory = GiB(512),
      .network_bandwidth = GbpsToBytesPerSecond(800),
      .gpu_cpu_copy_bandwidth = GbpsToBytesPerSecond(800),
      .effective_flops_per_gpu = 48e12,
      .collective_efficiency = 0.25,
  };
  return spec;
}

const InstanceSpec& P3dn24xlarge() { return *FindInstanceSpec("p3dn.24xlarge"); }

}  // namespace gemini
