#include "src/base/aligned_buffer.h"

#include <cstring>
#include <new>

namespace hexllm {

AlignedBuffer::AlignedBuffer(size_t bytes) : size_(bytes) {
  if (bytes == 0) {
    return;
  }
  const size_t padded = (bytes + kAlignment - 1) / kAlignment * kAlignment;
  data_ = static_cast<uint8_t*>(::operator new(padded, std::align_val_t(kAlignment)));
  std::memset(data_, 0, padded);
}

AlignedBuffer& AlignedBuffer::operator=(AlignedBuffer&& o) noexcept {
  if (this != &o) {
    this->~AlignedBuffer();
    data_ = o.data_;
    size_ = o.size_;
    o.data_ = nullptr;
    o.size_ = 0;
  }
  return *this;
}

AlignedBuffer::~AlignedBuffer() {
  if (data_ != nullptr) {
    ::operator delete(data_, std::align_val_t(kAlignment));
    data_ = nullptr;
  }
}

}  // namespace hexllm
