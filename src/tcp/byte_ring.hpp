// Fixed-capacity circular byte buffer used for per-socket payload
// buffers (PAYLOAD-BUFs). Supports out-of-place writes at an offset
// beyond the valid region — this is how FlexTOE merges out-of-order
// segments directly in the host receive buffer (paper §3.1.3). Storage
// is left uninitialised: only bytes written through write()/write_at()
// are ever read back.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>

namespace flextoe::tcp {

class ByteRing {
 public:
  explicit ByteRing(std::size_t capacity)
      : buf_(std::make_unique_for_overwrite<std::uint8_t[]>(capacity)),
        cap_(capacity) {}

  std::size_t capacity() const { return cap_; }
  std::size_t used() const { return used_; }
  std::size_t free_space() const { return cap_ - used_; }
  bool empty() const { return used_ == 0; }

  // Appends data at the tail (valid region grows). Returns bytes written.
  std::size_t write(std::span<const std::uint8_t> data);

  // Copies data into the ring at `offset` bytes past the current tail
  // without growing the valid region (for OOO placement). The caller must
  // ensure offset + data.size() <= free_space().
  void write_at(std::size_t offset, std::span<const std::uint8_t> data);

  // Grows the valid region by n bytes (previously placed via write_at).
  void advance_tail(std::size_t n);

  // Consumes up to out.size() bytes from the head. Returns bytes read.
  std::size_t read(std::span<std::uint8_t> out);

  // Copies up to out.size() bytes starting `offset` past the head,
  // without consuming. Returns bytes copied.
  std::size_t peek(std::size_t offset, std::span<std::uint8_t> out) const;

  // Drops n bytes from the head (e.g. ACKed transmit data).
  void discard(std::size_t n);

  void clear() {
    head_ = 0;
    used_ = 0;
  }

 private:
  void copy_in(std::size_t pos, std::span<const std::uint8_t> data);
  void copy_out(std::size_t pos, std::span<std::uint8_t> out) const;

  std::unique_ptr<std::uint8_t[]> buf_;
  std::size_t cap_;
  std::size_t head_ = 0;  // index of first valid byte
  std::size_t used_ = 0;  // valid bytes
};

}  // namespace flextoe::tcp
