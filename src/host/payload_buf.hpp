// Per-socket payload buffer (PAYLOAD-BUF, paper §3 / Fig 2).
//
// Lives in host memory (1G hugepages in the real system); the NIC DMA
// stage reads TX payload from and writes RX payload into it directly at
// absolute positions. Positions are monotonically increasing 64-bit
// counters; modulo the buffer size gives the physical offset, so the
// protocol stage needs no head/tail coordination with the host.
//
// Storage is left uninitialised, as host memory is: the model only ever
// reads back bytes it wrote, so a zero-fill would cost page faults and
// nothing else.
//
// Lifetime: an owner holds the buffer through an Owner handle. An
// in-flight DMA holds a Pin, and a buffer whose Owner is gone lives until
// its last Pin is gone, so a DMA completion never touches freed memory
// however the connection was torn down. Pins are not atomic: a buffer,
// its owner and the NIC that DMAs into it share one domain.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <utility>

namespace flextoe::host {

class PayloadBuf {
 public:
  explicit PayloadBuf(std::size_t size)
      : buf_(std::make_unique_for_overwrite<std::uint8_t[]>(size)),
        size_(size) {}

  std::size_t size() const { return size_; }
  // DMA transactions in flight on this buffer.
  std::uint32_t pins() const { return pins_; }

  void write(std::uint64_t pos, std::span<const std::uint8_t> data) {
    std::size_t off = pos % size_;
    const std::size_t first = std::min(data.size(), size_ - off);
    std::memcpy(buf_.get() + off, data.data(), first);
    if (first < data.size()) {
      std::memcpy(buf_.get(), data.data() + first, data.size() - first);
    }
  }

  void read(std::uint64_t pos, std::span<std::uint8_t> out) const {
    std::size_t off = pos % size_;
    const std::size_t first = std::min(out.size(), size_ - off);
    std::memcpy(out.data(), buf_.get() + off, first);
    if (first < out.size()) {
      std::memcpy(out.data() + first, buf_.get(), out.size() - first);
    }
  }

  // Keeps a buffer alive across one DMA transaction. Move-only; a null
  // Pin (no buffer) is valid and reads as false.
  class Pin {
   public:
    explicit Pin(PayloadBuf* b) : b_(b) {
      if (b_ != nullptr) ++b_->pins_;
    }
    Pin(Pin&& o) noexcept : b_(std::exchange(o.b_, nullptr)) {}
    ~Pin() {
      if (b_ != nullptr && --b_->pins_ == 0 && b_->released_) delete b_;
    }
    PayloadBuf* operator->() const { return b_; }
    explicit operator bool() const { return b_ != nullptr; }

   private:
    PayloadBuf* b_;
  };

  // Owner's deleter: frees the buffer now, or when its last Pin goes if
  // a DMA is still in flight.
  struct Release {
    void operator()(PayloadBuf* b) const {
      if (b->pins_ > 0) {
        b->released_ = true;
      } else {
        delete b;
      }
    }
  };
  using Owner = std::unique_ptr<PayloadBuf, Release>;
  static Owner make(std::size_t size) { return Owner(new PayloadBuf(size)); }

 private:
  std::unique_ptr<std::uint8_t[]> buf_;
  std::size_t size_;
  std::uint32_t pins_ = 0;
  bool released_ = false;
};

}  // namespace flextoe::host
