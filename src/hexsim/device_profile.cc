#include "src/hexsim/device_profile.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/base/math_util.h"

namespace hexsim {

const char* NpuArchName(NpuArch arch) {
  switch (arch) {
    case NpuArch::kV73:
      return "V73";
    case NpuArch::kV75:
      return "V75";
    case NpuArch::kV79:
      return "V79";
  }
  return "?";
}

namespace {

DeviceProfile MakeAce3() {
  DeviceProfile p;
  p.device_name = "OnePlus Ace3";
  p.soc_name = "Snapdragon 8 Gen 2";
  p.arch = NpuArch::kV73;
  p.hvx_threads = 4;
  p.hvx_freq_ghz = 1.15;
  p.hmx_freq_ghz = 1.25;
  p.hmx_tile_cycles = 8;  // ~10.2 TFLOPS peak
  p.native_ieee_fp16 = false;
  p.vgather_packets = 40;
  p.dma_read_gbps = 48.0;
  p.dma_write_gbps = 32.0;
  p.hvx_core_read_gbps = 21.0;
  // V73 NPU sessions top out below 2 GiB of mappable memory (system regions consume part of
  // the nominal window); the paper's 3B models do not fit (§7.2.1, §7.2.2 "2GiB limitation
  // of the virtual address space on older NPUs").
  p.npu_vaddr_limit_bytes = 1900ll << 20;
  p.cpu_gflops_per_core = 32.0;
  p.cpu_mem_gbps = 24.0;
  p.gpu_gflops = 1500.0;
  p.gpu_mem_gbps = 42.0;
  return p;
}

DeviceProfile MakeOnePlus12() {
  DeviceProfile p;
  p.device_name = "OnePlus 12";
  p.soc_name = "Snapdragon 8 Gen 3";
  p.arch = NpuArch::kV75;
  p.hvx_threads = 4;
  p.hvx_freq_ghz = 1.3;
  p.hmx_freq_ghz = 1.47;
  p.hmx_tile_cycles = 8;  // 12.04 TFLOPS peak — matches Table 2's 12032.54 GFLOPS
  p.native_ieee_fp16 = false;
  p.vgather_packets = 32;  // paper: 24-48 packets on V75
  p.dma_read_gbps = 60.0;  // Table 2
  p.dma_write_gbps = 40.0;
  p.hvx_core_read_gbps = 26.0;  // Table 2 ("below 30 GB/s")
  p.npu_vaddr_limit_bytes = 3800ll << 20;
  return p;
}

DeviceProfile MakeAce5Pro() {
  DeviceProfile p;
  p.device_name = "OnePlus Ace5 Pro";
  p.soc_name = "Snapdragon 8 Elite";
  p.arch = NpuArch::kV79;
  p.hvx_threads = 6;
  p.hvx_freq_ghz = 1.45;
  p.hmx_freq_ghz = 1.7;
  p.hmx_tile_cycles = 8;  // ~13.9 TFLOPS peak
  p.native_ieee_fp16 = true;  // §5.2.2: qfloat conversions unnecessary from V79 on
  p.vgather_packets = 26;
  p.dma_read_gbps = 72.0;
  p.dma_write_gbps = 48.0;
  p.hvx_core_read_gbps = 31.0;
  p.npu_vaddr_limit_bytes = 3800ll << 20;
  p.cpu_gflops_per_core = 48.0;
  p.cpu_mem_gbps = 34.0;
  p.gpu_gflops = 2300.0;
  p.gpu_mem_gbps = 58.0;
  return p;
}

}  // namespace

const DeviceProfile& OnePlusAce3() {
  static const DeviceProfile p = MakeAce3();
  return p;
}

const DeviceProfile& OnePlus12() {
  static const DeviceProfile p = MakeOnePlus12();
  return p;
}

const DeviceProfile& OnePlusAce5Pro() {
  static const DeviceProfile p = MakeAce5Pro();
  return p;
}

std::vector<const DeviceProfile*> AllDevices() {
  return {&OnePlusAce3(), &OnePlus12(), &OnePlusAce5Pro()};
}

const DeviceProfile& DeviceByArch(NpuArch arch) {
  switch (arch) {
    case NpuArch::kV73:
      return OnePlusAce3();
    case NpuArch::kV75:
      return OnePlus12();
    case NpuArch::kV79:
      return OnePlusAce5Pro();
  }
  HEXLLM_CHECK_MSG(false, "unknown NpuArch");
}

int SessionsForMappedBytes(const DeviceProfile& d, int64_t mapped_bytes) {
  return static_cast<int>(hexllm::CeilDiv(mapped_bytes, d.npu_vaddr_limit_bytes));
}

int MaxSessions(const DeviceProfile& d) { return d.arch == NpuArch::kV73 ? 1 : 2; }

DeviceProfile LittleVariant(const DeviceProfile& base) {
  DeviceProfile p = base;
  p.device_name = base.device_name + " (little)";
  // Efficiency bin: ~2/3 clocks, fewer HVX contexts and big cores, DRAM path intact.
  p.hvx_freq_ghz = base.hvx_freq_ghz * 0.65;
  p.hmx_freq_ghz = base.hmx_freq_ghz * 0.65;
  p.hvx_threads = std::max(2, base.hvx_threads - 2);
  p.cpu_big_cores = std::max(2, base.cpu_big_cores / 2);
  p.cpu_gflops_per_core = base.cpu_gflops_per_core * 0.7;
  // Lower clocks at lower voltage: the dynamic-power terms shrink superlinearly.
  p.p_base_w = base.p_base_w * 0.8;
  p.p_hmx_w = base.p_hmx_w * 0.55;
  p.p_hvx_thread_w = base.p_hvx_thread_w * 0.55;
  p.p_cpu_core_w = base.p_cpu_core_w * 0.6;
  return p;
}

}  // namespace hexsim
