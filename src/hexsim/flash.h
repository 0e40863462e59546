// First-order flash-storage model: the KV tier below DRAM (docs/long_context.md).
//
// Mobile UFS parts sustain a few GB/s sequential read and less write, with a per-operation
// latency far above DRAM — so the model mirrors the DmaEngine charging idiom:
// `bytes / bandwidth + per-op latency` per operation, read and write asymmetric. There is no
// descriptor machinery: KV offload moves whole blocks (hundreds of KB), so one op per block
// is the right granularity.
//
// Writes additionally accumulate a monotonic wear counter (ops + bytes) that survives
// ResetStats — flash endurance is the reason demotion policy matters on a phone, and the
// bench reports it so a sweep can show write-amplification of an eviction policy.
//
// Purely an accountant: the engine never owns payload bytes (hkv::KvOffloadEngine does).
#ifndef SRC_HEXSIM_FLASH_H_
#define SRC_HEXSIM_FLASH_H_

#include <cstdint>

namespace hexsim {

// Calibrated to a mid-range UFS 3.1/4.0 envelope; the bench sweeps read_gbps downward to
// show throughput degrading with offload bandwidth.
struct FlashSpec {
  double read_gbps = 3.5;
  double write_gbps = 1.5;
  double read_latency_us = 80.0;   // per-op setup/completion (command queue + NAND sense)
  double write_latency_us = 120.0;  // program latency exceeds read
};

struct FlashStats {
  int64_t read_ops = 0;
  int64_t write_ops = 0;
  int64_t read_bytes = 0;
  int64_t write_bytes = 0;
  double read_seconds = 0.0;
  double write_seconds = 0.0;
  // Endurance proxy: never reset (see FlashTier::ResetStats).
  int64_t wear_write_ops = 0;
  int64_t wear_write_bytes = 0;
};

class FlashTier {
 public:
  explicit FlashTier(const FlashSpec& spec = FlashSpec()) : spec_(spec) {}

  // Timing-only cost of one read/write op of `bytes`.
  double CostRead(int64_t bytes) const {
    return static_cast<double>(bytes) / (spec_.read_gbps * 1e9) + spec_.read_latency_us * 1e-6;
  }
  double CostWrite(int64_t bytes) const {
    return static_cast<double>(bytes) / (spec_.write_gbps * 1e9) +
           spec_.write_latency_us * 1e-6;
  }

  // Charges one op and returns its duration in seconds.
  double ChargeRead(int64_t bytes) {
    const double s = CostRead(bytes);
    ++stats_.read_ops;
    stats_.read_bytes += bytes;
    stats_.read_seconds += s;
    return s;
  }
  double ChargeWrite(int64_t bytes) {
    const double s = CostWrite(bytes);
    ++stats_.write_ops;
    stats_.write_bytes += bytes;
    stats_.write_seconds += s;
    ++stats_.wear_write_ops;
    stats_.wear_write_bytes += bytes;
    return s;
  }

  const FlashSpec& spec() const { return spec_; }
  const FlashStats& stats() const { return stats_; }

  // Clears the per-run accounting but keeps the wear counters: endurance is a device
  // lifetime property, not a run property.
  void ResetStats() {
    const int64_t wear_ops = stats_.wear_write_ops;
    const int64_t wear_bytes = stats_.wear_write_bytes;
    stats_ = FlashStats();
    stats_.wear_write_ops = wear_ops;
    stats_.wear_write_bytes = wear_bytes;
  }

 private:
  FlashSpec spec_;
  FlashStats stats_;
};

}  // namespace hexsim

#endif  // SRC_HEXSIM_FLASH_H_
