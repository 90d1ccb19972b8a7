#include "src/hw/gpu.h"

namespace deepplan {

namespace {
constexpr double kGB = 1e9;
constexpr std::int64_t kGiB = 1024LL * 1024 * 1024;
}  // namespace

PcieSpec PcieSpec::Gen3() {
  PcieSpec spec;
  spec.name = "PCIe 3.0 x16";
  // Calibrated so a BERT-Base (417 MiB) bulk load takes ~40 ms and Table 2's
  // 10.9-11.5 GB/s serial bandwidths emerge once per-layer overheads apply.
  spec.effective_bw_bytes_per_sec = 12.0 * kGB;
  spec.payload_bytes = 64;
  spec.access_latency = Micros(1.2);
  return spec;
}

PcieSpec PcieSpec::Gen4() {
  PcieSpec spec;
  spec.name = "PCIe 4.0 x16";
  spec.effective_bw_bytes_per_sec = 23.0 * kGB;
  spec.payload_bytes = 64;
  spec.access_latency = Micros(1.0);
  return spec;
}

GpuSpec GpuSpec::V100() {
  GpuSpec spec;
  spec.name = "V100-SXM2-16GB";
  spec.fp32_tflops = 15.7;
  spec.mem_bw_bytes_per_sec = 900.0 * kGB;
  spec.mem_bytes = 16 * kGiB;
  spec.compute_efficiency = 0.63;
  spec.kernel_overhead = Micros(9.0);
  return spec;
}

GpuSpec GpuSpec::A5000() {
  GpuSpec spec;
  spec.name = "RTX-A5000-24GB";
  spec.fp32_tflops = 27.8;
  spec.mem_bw_bytes_per_sec = 768.0 * kGB;
  spec.mem_bytes = 24 * kGiB;
  spec.compute_efficiency = 0.50;
  spec.kernel_overhead = Micros(8.0);
  return spec;
}

NvlinkSpec NvlinkSpec::V100Nvlink() {
  NvlinkSpec spec;
  spec.name = "NVLink2";
  spec.bw_bytes_per_sec = 45.0 * kGB;  // two links per pair on p3.8xlarge
  spec.transfer_latency = Micros(4.0);
  return spec;
}

NvlinkSpec NvlinkSpec::A5000Bridge() {
  NvlinkSpec spec;
  spec.name = "NVLink-Bridge";
  spec.bw_bytes_per_sec = 50.0 * kGB;
  spec.transfer_latency = Micros(4.0);
  return spec;
}

}  // namespace deepplan
