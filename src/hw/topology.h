// Server topology: GPUs, PCIe switches, NVLink connectivity. The transmission
// planner (Section 4.3.3 of the paper) consults this to pick GPUs that do not
// contend on the same PCIe switch uplink, and the fabric simulator uses it to
// route transfers through shared links.
#ifndef SRC_HW_TOPOLOGY_H_
#define SRC_HW_TOPOLOGY_H_

#include <string>
#include <vector>

#include "src/hw/gpu.h"

namespace deepplan {

using GpuId = int;

// A multi-GPU server. GPUs attach to PCIe switches; switches share a host
// uplink; NVLink edges connect GPU pairs directly.
class Topology {
 public:
  static Topology P3_8xlarge();  // 4x V100, 2 PCIe switches x 2 GPUs, NVLink mesh
  static Topology A5000Box();    // 2x A5000, separate PCIe 4.0 root ports, NV bridge
  static Topology Dgx1();        // 8x V100, 4 PCIe switches x 2 GPUs, NVLink mesh
  // Custom builder used by tests: `switch_of[g]` gives each GPU's switch;
  // `nvlink_pairs` lists connected GPU pairs.
  static Topology Custom(std::string name, GpuSpec gpu, PcieSpec pcie, NvlinkSpec nvlink,
                         std::vector<int> switch_of, double switch_uplink_bw,
                         std::vector<std::pair<GpuId, GpuId>> nvlink_pairs);

  // Copy of this topology with the PCIe effective bandwidth replaced (the
  // switch uplink keeps its 1.05x headroom over the new per-lane bandwidth;
  // access latency and every other spec stay put). Used by the what-if
  // validation harness to re-simulate "same box, different link speed" — e.g.
  // fig16's PCIe 4.0 system journaled at PCIe 3.0 bandwidth.
  Topology WithPcieBandwidth(double effective_bw_bytes_per_sec) const;

  const std::string& name() const { return name_; }
  int num_gpus() const { return static_cast<int>(switch_of_.size()); }
  int num_switches() const { return num_switches_; }

  const GpuSpec& gpu() const { return gpu_; }
  const PcieSpec& pcie() const { return pcie_; }
  const NvlinkSpec& nvlink() const { return nvlink_; }

  // PCIe switch the GPU hangs off.
  int switch_of(GpuId gpu) const;
  bool SameSwitch(GpuId a, GpuId b) const;
  bool HasNvlink(GpuId a, GpuId b) const;

  // Aggregate host->switch uplink bandwidth shared by all GPUs on one switch
  // (bytes/second). GPUs on the same switch contend for this (Table 2: 4-GPU
  // parallel load halves per-GPU bandwidth).
  double switch_uplink_bw() const { return switch_uplink_bw_; }

  // GPUs sorted best-first for joining a parallel transmission with `primary`:
  // prefer NVLink-connected GPUs on *other* switches; excludes the primary.
  // GPUs without NVLink to the primary are omitted (the paper disables PT
  // without NVLink).
  std::vector<GpuId> ParallelCandidates(GpuId primary) const;

  // Largest useful parallel-transmission degree for this server: 1 (primary)
  // + at most one GPU per other PCIe switch reachable via NVLink. On
  // p3.8xlarge this returns 2, matching the paper's guidance to use up to two
  // GPUs per model.
  int MaxParallelDegree(GpuId primary) const;

 private:
  std::string name_;
  GpuSpec gpu_;
  PcieSpec pcie_;
  NvlinkSpec nvlink_;
  std::vector<int> switch_of_;
  int num_switches_ = 0;
  double switch_uplink_bw_ = 0.0;
  std::vector<std::vector<bool>> nvlink_adj_;
};

}  // namespace deepplan

#endif  // SRC_HW_TOPOLOGY_H_
