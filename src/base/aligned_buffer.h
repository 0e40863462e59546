// Owning, aligned, zero-initialized byte buffer backing the simulated TCM arena.
#ifndef SRC_BASE_ALIGNED_BUFFER_H_
#define SRC_BASE_ALIGNED_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <utility>

namespace hexllm {

// Alignment matches the HVX vector width (128 bytes) so emulated vector loads can assume
// aligned access.
class AlignedBuffer {
 public:
  static constexpr size_t kAlignment = 128;

  AlignedBuffer() = default;
  explicit AlignedBuffer(size_t bytes);

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

  AlignedBuffer(AlignedBuffer&& o) noexcept { *this = std::move(o); }
  AlignedBuffer& operator=(AlignedBuffer&& o) noexcept;
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;
  ~AlignedBuffer();

 private:
  uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace hexllm

#endif  // SRC_BASE_ALIGNED_BUFFER_H_
