#include "tcp/byte_ring.hpp"

#include <algorithm>
#include <cassert>

namespace flextoe::tcp {

void ByteRing::copy_in(std::size_t pos, std::span<const std::uint8_t> data) {
  pos %= cap_;
  const std::size_t first = std::min(data.size(), cap_ - pos);
  std::memcpy(buf_.get() + pos, data.data(), first);
  if (first < data.size()) {
    std::memcpy(buf_.get(), data.data() + first, data.size() - first);
  }
}

void ByteRing::copy_out(std::size_t pos, std::span<std::uint8_t> out) const {
  pos %= cap_;
  const std::size_t first = std::min(out.size(), cap_ - pos);
  std::memcpy(out.data(), buf_.get() + pos, first);
  if (first < out.size()) {
    std::memcpy(out.data() + first, buf_.get(), out.size() - first);
  }
}

std::size_t ByteRing::write(std::span<const std::uint8_t> data) {
  const std::size_t n = std::min(data.size(), free_space());
  if (n == 0) return 0;
  copy_in(head_ + used_, data.first(n));
  used_ += n;
  return n;
}

void ByteRing::write_at(std::size_t offset,
                        std::span<const std::uint8_t> data) {
  assert(offset + data.size() <= free_space());
  copy_in(head_ + used_ + offset, data);
}

void ByteRing::advance_tail(std::size_t n) {
  assert(n <= free_space());
  used_ += n;
}

std::size_t ByteRing::read(std::span<std::uint8_t> out) {
  const std::size_t n = std::min(out.size(), used_);
  if (n == 0) return 0;
  copy_out(head_, out.first(n));
  head_ = (head_ + n) % cap_;
  used_ -= n;
  return n;
}

std::size_t ByteRing::peek(std::size_t offset,
                           std::span<std::uint8_t> out) const {
  if (offset >= used_) return 0;
  const std::size_t n = std::min(out.size(), used_ - offset);
  copy_out(head_ + offset, out.first(n));
  return n;
}

void ByteRing::discard(std::size_t n) {
  n = std::min(n, used_);
  head_ = (head_ + n) % cap_;
  used_ -= n;
}

}  // namespace flextoe::tcp
