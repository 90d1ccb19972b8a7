// GPU and PCIe hardware descriptions. These are *specifications* consumed by
// the performance model and the simulator; they hold no state.
#ifndef SRC_HW_GPU_H_
#define SRC_HW_GPU_H_

#include <cstdint>
#include <string>

#include "src/util/time.h"

namespace deepplan {

// PCIe generation parameters (per-GPU x16 link, host -> device direction).
struct PcieSpec {
  std::string name;
  // Effective host->GPU bandwidth achievable with pinned-memory DMA
  // (bytes/second). PCIe 3.0 x16 is 15.75 GB/s theoretical; the paper measures
  // 10.9-11.5 GB/s effective (Table 2).
  double effective_bw_bytes_per_sec = 0.0;
  // Transaction payload (cache line) used for read-event accounting (Table 1).
  std::int64_t payload_bytes = 64;
  // One-way latency of a small read through the root complex. Direct-host-
  // access pays this on the critical path of dependent accesses.
  Nanos access_latency = 0;

  static PcieSpec Gen3();
  static PcieSpec Gen4();
};

// GPU compute/memory specification.
struct GpuSpec {
  std::string name;
  double fp32_tflops = 0.0;          // peak FP32 throughput
  double mem_bw_bytes_per_sec = 0.0;  // HBM/GDDR bandwidth
  std::int64_t mem_bytes = 0;         // total device memory
  // Fraction of peak FLOPs realizable by batch-1 inference kernels.
  double compute_efficiency = 0.5;
  // Fixed per-kernel launch + framework dispatch overhead.
  Nanos kernel_overhead = 0;

  static GpuSpec V100();
  static GpuSpec A5000();
};

// NVLink interconnect between a GPU pair (per-direction bandwidth).
struct NvlinkSpec {
  std::string name;
  double bw_bytes_per_sec = 0.0;
  Nanos transfer_latency = 0;  // per-transfer setup cost

  static NvlinkSpec V100Nvlink();   // NVLink 2.0 as in p3.8xlarge
  static NvlinkSpec A5000Bridge();  // NVLink bridge between two A5000s
};

}  // namespace deepplan

#endif  // SRC_HW_GPU_H_
