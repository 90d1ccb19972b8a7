#include "src/hw/topology.h"

#include <algorithm>

#include "src/util/index.h"
#include "src/util/logging.h"

namespace deepplan {

Topology Topology::Custom(std::string name, GpuSpec gpu, PcieSpec pcie,
                          NvlinkSpec nvlink, std::vector<int> switch_of,
                          double switch_uplink_bw,
                          std::vector<std::pair<GpuId, GpuId>> nvlink_pairs) {
  Topology t;
  t.name_ = std::move(name);
  t.gpu_ = std::move(gpu);
  t.pcie_ = std::move(pcie);
  t.nvlink_ = std::move(nvlink);
  t.switch_of_ = std::move(switch_of);
  t.switch_uplink_bw_ = switch_uplink_bw;
  t.num_switches_ = t.switch_of_.empty()
                        ? 0
                        : *std::max_element(t.switch_of_.begin(), t.switch_of_.end()) + 1;
  const int n = t.num_gpus();
  t.nvlink_adj_.assign(Idx(n), std::vector<bool>(Idx(n), false));
  for (const auto& [a, b] : nvlink_pairs) {
    DP_CHECK(a >= 0 && a < n && b >= 0 && b < n && a != b);
    t.nvlink_adj_[Idx(a)][Idx(b)] = true;
    t.nvlink_adj_[Idx(b)][Idx(a)] = true;
  }
  return t;
}

Topology Topology::P3_8xlarge() {
  // 4x V100: GPUs {0,1} on switch 0, {2,3} on switch 1. NVLink connects every
  // pair (NVLink mesh on p3.8xlarge). The switch uplink carries slightly more
  // than one x16 link's worth of traffic, so two same-switch GPUs loading at
  // once see roughly half bandwidth each (Table 2's ~6 GB/s with 4 GPUs).
  const PcieSpec pcie = PcieSpec::Gen3();
  return Custom("p3.8xlarge", GpuSpec::V100(), pcie, NvlinkSpec::V100Nvlink(),
                {0, 0, 1, 1},
                /*switch_uplink_bw=*/pcie.effective_bw_bytes_per_sec * 1.05,
                {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
}

Topology Topology::A5000Box() {
  // 2x RTX A5000 on separate PCIe 4.0 root ports with an NVLink bridge.
  const PcieSpec pcie = PcieSpec::Gen4();
  return Custom("a5000_box", GpuSpec::A5000(), pcie, NvlinkSpec::A5000Bridge(), {0, 1},
                /*switch_uplink_bw=*/pcie.effective_bw_bytes_per_sec * 1.05, {{0, 1}});
}

Topology Dgx1Impl() {
  // DGX-1-style box: 8x V100, every two GPUs behind one PCIe switch ("in
  // modern multi-GPU servers, there are eight GPUs, and every two GPUs share
  // the same PCIe switch"), NVLink mesh. Supports parallel transmission of
  // degree 4 (one GPU per switch).
  const PcieSpec pcie = PcieSpec::Gen3();
  std::vector<std::pair<GpuId, GpuId>> pairs;
  for (GpuId a = 0; a < 8; ++a) {
    for (GpuId b = a + 1; b < 8; ++b) {
      pairs.push_back({a, b});
    }
  }
  return Topology::Custom("dgx1", GpuSpec::V100(), pcie, NvlinkSpec::V100Nvlink(),
                          {0, 0, 1, 1, 2, 2, 3, 3},
                          pcie.effective_bw_bytes_per_sec * 1.05, pairs);
}

Topology Topology::Dgx1() { return Dgx1Impl(); }

Topology Topology::WithPcieBandwidth(double effective_bw_bytes_per_sec) const {
  DP_CHECK(effective_bw_bytes_per_sec > 0);
  Topology t = *this;
  t.name_ += "_bw";
  t.pcie_.effective_bw_bytes_per_sec = effective_bw_bytes_per_sec;
  t.switch_uplink_bw_ = effective_bw_bytes_per_sec * 1.05;
  return t;
}

int Topology::switch_of(GpuId gpu) const {
  DP_CHECK(gpu >= 0 && gpu < num_gpus());
  return switch_of_[Idx(gpu)];
}

bool Topology::SameSwitch(GpuId a, GpuId b) const {
  return switch_of(a) == switch_of(b);
}

bool Topology::HasNvlink(GpuId a, GpuId b) const {
  DP_CHECK(a >= 0 && a < num_gpus() && b >= 0 && b < num_gpus());
  return nvlink_adj_[Idx(a)][Idx(b)];
}

std::vector<GpuId> Topology::ParallelCandidates(GpuId primary) const {
  DP_CHECK(primary >= 0 && primary < num_gpus());
  std::vector<GpuId> out;
  // Other-switch NVLink peers first (no uplink contention with the primary),
  // then same-switch peers (still usable, but contended).
  for (int pass = 0; pass < 2; ++pass) {
    for (GpuId g = 0; g < num_gpus(); ++g) {
      if (g == primary || !HasNvlink(primary, g)) {
        continue;
      }
      const bool other_switch = !SameSwitch(primary, g);
      if ((pass == 0) == other_switch) {
        out.push_back(g);
      }
    }
  }
  return out;
}

int Topology::MaxParallelDegree(GpuId primary) const {
  std::vector<bool> switch_used(Idx(num_switches_), false);
  switch_used[Idx(switch_of(primary))] = true;
  int degree = 1;
  for (GpuId g : ParallelCandidates(primary)) {
    const int s = switch_of(g);
    if (!switch_used[Idx(s)]) {
      switch_used[Idx(s)] = true;
      ++degree;
    }
  }
  return degree;
}

}  // namespace deepplan
