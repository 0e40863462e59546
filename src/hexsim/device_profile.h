// Device profiles for the simulated Hexagon NPUs used in the paper's evaluation (Table 3):
//
//   OnePlus Ace3      — Snapdragon 8 Gen 2 — Hexagon V73
//   OnePlus 12        — Snapdragon 8 Gen 3 — Hexagon V75
//   OnePlus Ace5 Pro  — Snapdragon 8 Elite — Hexagon V79
//
// Each profile carries the microarchitectural parameters the timing model needs. The values
// are calibrated against the paper's own measurements (see DESIGN.md §5): HMX FP16 GEMM peak
// ~12 TFLOPS on V75 (Table 2), single HVX thread ~33 GFLOPS, DMA DDR read ~60 GB/s, HVX
// core-path read ~26 GB/s, vgather latency 24-48 packets (§5.2.1), and the qfloat-conversion
// overhead that disappears on V79 (§5.2.2).
#ifndef SRC_HEXSIM_DEVICE_PROFILE_H_
#define SRC_HEXSIM_DEVICE_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace hexsim {

enum class NpuArch : uint8_t {
  kV73,
  kV75,
  kV79,
};

const char* NpuArchName(NpuArch arch);

struct DeviceProfile {
  std::string device_name;  // e.g. "OnePlus 12"
  std::string soc_name;     // e.g. "Snapdragon 8 Gen 3"
  NpuArch arch = NpuArch::kV75;

  // --- NPU compute ---
  int hvx_threads = 4;            // usable HVX contexts for our workloads
  double hvx_freq_ghz = 1.3;      // vector/scalar clock
  double hmx_freq_ghz = 1.47;     // matrix unit clock
  int hmx_units = 1;              // number of HMX engines
  int hmx_tile_cycles = 8;        // cycles per 32x32x32 FP16 tile MAC op
  bool native_ieee_fp16 = false;  // V79+: HVX FP ops produce IEEE results directly (no qfloat)
  int vgather_packets = 32;       // latency of one 64x2B vgather, in instruction packets

  // --- NPU memory ---
  double dma_read_gbps = 60.0;      // DDR -> TCM/L2 via DMA, large regular blocks
  double dma_write_gbps = 40.0;     // TCM -> DDR
  double hvx_core_read_gbps = 26.0; // HVX loads through the core data path from DDR/L2
  double dma_descriptor_ns = 250.0; // fixed per-descriptor setup/completion cost
  int64_t tcm_bytes = 8ll << 20;    // software-managed on-chip memory
  int64_t l2_bytes = 1ll << 20;

  // 32-bit NPU virtual address space. On V73 the usable window is ~2 GiB (the paper cannot run
  // >=3B models on 8 Gen 2); newer parts expose closer to the full 4 GiB to a session.
  int64_t npu_vaddr_limit_bytes = 0;

  // --- host CPU (for lm_head fallback and the CPU portions of the runtime) ---
  int cpu_big_cores = 4;
  double cpu_gflops_per_core = 40.0;  // sustained FP16 NEON GEMM throughput per big core
  double cpu_mem_gbps = 28.0;         // per-socket effective stream bandwidth for GEMV weights

  // --- GPU (Adreno, for the llama.cpp OpenCL baseline model) ---
  double gpu_gflops = 1800.0;     // sustained FP16 ALU throughput
  double gpu_mem_gbps = 50.0;     // effective bandwidth of the Q4_0 GEMV kernels
  double gpu_batch_efficiency = 0.22;  // fraction of weight-reuse the OpenCL kernels achieve
                                       // when batch grows (paper: poor decode scaling)

  // --- power model (watts), calibrated to the 3.5-5 W envelope of §7.2.3 ---
  double p_base_w = 2.2;           // SoC + DRAM + rails floor in performance mode
  double p_hmx_w = 1.30;           // HMX at full utilization
  double p_hvx_thread_w = 0.33;    // each busy HVX thread
  double p_ddr_per_gbps_w = 0.018; // DDR interface per GB/s actually moved
  double p_cpu_core_w = 0.9;       // each busy big CPU core

  // Peak HMX FP16 throughput implied by the calibration, in GFLOPS.
  double HmxPeakGflops() const {
    const double flops_per_tile = 2.0 * 32 * 32 * 32;
    return flops_per_tile / hmx_tile_cycles * hmx_freq_ghz * hmx_units;
  }
};

// Returns the profile for one of the three evaluation devices.
const DeviceProfile& OnePlusAce3();    // 8 Gen 2 / V73
const DeviceProfile& OnePlus12();      // 8 Gen 3 / V75
const DeviceProfile& OnePlusAce5Pro(); // 8 Elite / V79

// All evaluation devices, in Table 3 order.
std::vector<const DeviceProfile*> AllDevices();

// Looks a device up by NPU arch.
const DeviceProfile& DeviceByArch(NpuArch arch);

// --- §6 system layer ---
// rpcmem shared buffers, one-way cache coherence and the polling shared-memory mailbox reach
// simulated time only through these two rules: the cost of one dispatch and the number of
// sessions a model's mapped bytes need.

// Simulated host-side cost of one NPU dispatch: the mailbox round trip (12 us submit + 12 us
// completion) plus cache maintenance of the shared activation buffers.
inline constexpr double kDispatchSeconds = 2 * 12e-6 + 30e-6;

// NPU sessions needed to map `mapped_bytes` into `d`'s 32-bit session windows (§7.2.1).
int SessionsForMappedBytes(const DeviceProfile& d, int64_t mapped_bytes);

// Sessions one model may span on `d`: V73-era parts support a single NPU session; newer parts
// can split a model across two to escape the 32-bit window (the §8 "multiple NPU sessions"
// mitigation).
int MaxSessions(const DeviceProfile& d);

// A derated "little" sibling of `base` for big/little fleet mixes (src/fleet): the same
// microarchitecture running on an efficiency-binned part — vector/matrix clocks and CPU
// throughput scaled down with a proportionally lower power envelope. Returned by value;
// callers (the fleet simulator) own the storage.
DeviceProfile LittleVariant(const DeviceProfile& base);

}  // namespace hexsim

#endif  // SRC_HEXSIM_DEVICE_PROFILE_H_
