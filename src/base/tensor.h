// Minimal dense tensor: row-major, 128-byte-aligned storage, explicit dtype.
//
// This is deliberately small — kernels in src/kernels operate on raw spans with explicit
// strides (as real NPU kernels do); Tensor exists so the model/runtime layers can pass shapes
// and storage around safely.
#ifndef SRC_BASE_TENSOR_H_
#define SRC_BASE_TENSOR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/base/check.h"
#include "src/base/fp16.h"

namespace hexllm {

enum class DType : uint8_t {
  kF32,
  kF16,
  kU8,
  kI32,
};

constexpr size_t DTypeSize(DType t) {
  switch (t) {
    case DType::kF32:
      return 4;
    case DType::kF16:
      return 2;
    case DType::kU8:
      return 1;
    case DType::kI32:
      return 4;
  }
  return 0;
}

const char* DTypeName(DType t);

// Owning, aligned, zero-initialized byte buffer. Alignment matches the HVX vector width
// (128 bytes) so emulated vector loads can assume aligned access.
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

class Tensor {
 public:
  Tensor() = default;
  Tensor(DType dtype, std::vector<int64_t> shape);

  DType dtype() const { return dtype_; }
  int rank() const { return static_cast<int>(shape_.size()); }
  int64_t dim(int i) const {
    HEXLLM_DCHECK(i >= 0 && i < rank());
    return shape_[static_cast<size_t>(i)];
  }
  const std::vector<int64_t>& shape() const { return shape_; }
  int64_t numel() const { return numel_; }
  size_t byte_size() const { return static_cast<size_t>(numel_) * DTypeSize(dtype_); }

  uint8_t* raw() { return storage_.data(); }
  const uint8_t* raw() const { return storage_.data(); }

  std::span<float> f32() {
    HEXLLM_DCHECK(dtype_ == DType::kF32);
    return {reinterpret_cast<float*>(raw()), static_cast<size_t>(numel_)};
  }
  std::span<const float> f32() const {
    HEXLLM_DCHECK(dtype_ == DType::kF32);
    return {reinterpret_cast<const float*>(raw()), static_cast<size_t>(numel_)};
  }
  std::span<F16> f16() {
    HEXLLM_DCHECK(dtype_ == DType::kF16);
    return {reinterpret_cast<F16*>(raw()), static_cast<size_t>(numel_)};
  }
  std::span<const F16> f16() const {
    HEXLLM_DCHECK(dtype_ == DType::kF16);
    return {reinterpret_cast<const F16*>(raw()), static_cast<size_t>(numel_)};
  }
  std::span<uint8_t> u8() {
    HEXLLM_DCHECK(dtype_ == DType::kU8);
    return {raw(), static_cast<size_t>(numel_)};
  }
  std::span<int32_t> i32() {
    HEXLLM_DCHECK(dtype_ == DType::kI32);
    return {reinterpret_cast<int32_t*>(raw()), static_cast<size_t>(numel_)};
  }

  // 2D accessors (row-major).
  float& At(int64_t r, int64_t c) {
    HEXLLM_DCHECK(rank() == 2 && dtype_ == DType::kF32);
    return reinterpret_cast<float*>(raw())[r * shape_[1] + c];
  }
  float At(int64_t r, int64_t c) const {
    HEXLLM_DCHECK(rank() == 2 && dtype_ == DType::kF32);
    return reinterpret_cast<const float*>(raw())[r * shape_[1] + c];
  }

  std::string ShapeString() const;

 private:
  DType dtype_ = DType::kF32;
  std::vector<int64_t> shape_;
  int64_t numel_ = 0;
  AlignedBuffer storage_;
};

}  // namespace hexllm

#endif  // SRC_BASE_TENSOR_H_
