#include "host/libtoe.hpp"

#include <algorithm>

#include "host/control_plane.hpp"

namespace flextoe::host {

using tcp::ConnId;

LibToe::LibToe(sim::Domain& ev, core::Datapath& dp, ControlPlane& cp,
               LibToeConfig cfg, sim::CpuPool* cpu)
    : ev_(ev), dp_(dp), cp_(cp), cfg_(cfg), cpu_(cpu) {}

LibToe::Sock* LibToe::sock(ConnId c) {
  if (c >= socks_.size()) return nullptr;
  return socks_[c].get();
}

const LibToe::Sock* LibToe::sock(ConnId c) const {
  if (c >= socks_.size()) return nullptr;
  return socks_[c].get();
}

void LibToe::charge_sockop() {
  if (cpu_ != nullptr) {
    cpu_->run(cfg_.sock_op_cycles, sim::CpuCat::Sockets, nullptr);
    cpu_->account(cfg_.other_op_cycles, sim::CpuCat::Other);
  }
}

void LibToe::post_hc(CtxDescType type, ConnId conn, std::uint32_t a) {
  CtxDesc d;
  d.type = type;
  d.conn = conn;
  d.a = a;
  dp_.hc_queue(cfg_.context_id).push(d);
  ++doorbells_;
  dp_.doorbell(cfg_.context_id);
}

// ------------------------------------------------------------- StackIface

void LibToe::listen(std::uint16_t port) { cp_.listen(port); }

ConnId LibToe::connect(net::Ipv4Addr remote_ip, std::uint16_t remote_port) {
  charge_sockop();
  return cp_.connect(remote_ip, remote_port);
}

std::size_t LibToe::send(ConnId c, std::span<const std::uint8_t> data) {
  Sock* s = sock(c);
  if (s == nullptr || !s->open) return 0;
  charge_sockop();
  const std::size_t n =
      std::min<std::size_t>(data.size(), s->tx_credits);
  if (n == 0) return 0;
  s->bufs.tx->write(s->tx_pos, data.first(n));
  s->tx_pos += n;
  s->tx_credits -= n;
  post_hc(CtxDescType::TxDoorbell, c, static_cast<std::uint32_t>(n));
  return n;
}

std::size_t LibToe::recv(ConnId c, std::span<std::uint8_t> out) {
  Sock* s = sock(c);
  // Released buffers: an RX DMA that completed after teardown may still
  // prompt the app to read a socket it already closed.
  if (s == nullptr || !s->bufs.rx) return 0;
  charge_sockop();
  const std::size_t n =
      std::min<std::size_t>(out.size(), s->rx_readable);
  if (n > 0) {
    s->bufs.rx->read(s->rx_pos, out.first(n));
    s->rx_pos += n;
    s->rx_readable -= n;
    s->freed_accum += static_cast<std::uint32_t>(n);
    // Return buffer space to the NIC (batched to amortize doorbells,
    // always when the buffer drains so the window reopens).
    if (s->freed_accum >= cfg_.rx_free_batch || s->rx_readable == 0) {
      post_hc(CtxDescType::RxFreed, c, s->freed_accum);
      s->freed_accum = 0;
    }
  }
  if (s->eof && s->rx_readable == 0 && !s->closed_notified) {
    s->closed_notified = true;
    if (cbs_.on_close) cbs_.on_close(c);
  }
  return n;
}

std::size_t LibToe::rx_available(ConnId c) const {
  const Sock* s = sock(c);
  return s == nullptr ? 0 : s->rx_readable;
}

std::size_t LibToe::tx_space(ConnId c) const {
  const Sock* s = sock(c);
  return s == nullptr ? 0 : s->tx_credits;
}

void LibToe::close(ConnId c) {
  Sock* s = sock(c);
  if (s == nullptr) return;
  s->app_closed = true;
  if (s->open) {
    charge_sockop();
    s->open = false;
    post_hc(CtxDescType::Fin, c, 0);
    cp_.app_close(c);
  }
  if (s->dead) release_bufs(*s);
}

net::Ipv4Addr LibToe::local_ip() const { return cp_.ip(); }

// ------------------------------------------------------ NIC notifications

void LibToe::on_notify(const CtxDesc& desc) {
  Sock* s = sock(desc.conn);
  if (s == nullptr) return;
  switch (desc.type) {
    case CtxDescType::RxNotify:
      s->rx_readable += desc.a;
      if (cbs_.on_data) cbs_.on_data(desc.conn);
      break;
    case CtxDescType::TxFreed:
      s->tx_credits += desc.a;
      if (cbs_.on_sendable) cbs_.on_sendable(desc.conn);
      break;
    case CtxDescType::RxEof:
      s->eof = true;
      if (s->rx_readable == 0 && !s->closed_notified) {
        s->closed_notified = true;
        if (cbs_.on_close) cbs_.on_close(desc.conn);
      } else if (cbs_.on_data && s->rx_readable > 0) {
        cbs_.on_data(desc.conn);  // prompt the app to drain
      }
      break;
    default:
      break;
  }
}

// -------------------------------------------------- control-plane events

LibToe::SockBufs* LibToe::alloc_bufs(ConnId conn) {
  if (socks_.size() <= conn) socks_.resize(conn + 1);
  if (!socks_[conn]) socks_[conn] = std::make_unique<Sock>();
  Sock& s = *socks_[conn];
  s.bufs.rx = PayloadBuf::make(cfg_.sockbuf_bytes);
  s.bufs.tx = PayloadBuf::make(cfg_.sockbuf_bytes);
  live_bufs_ += 2;
  allocated_bufs_ += 2;
  return bind_bufs(conn);
}

LibToe::SockBufs* LibToe::bind_bufs(ConnId conn) {
  Sock& s = *socks_[conn];
  SockBufs bufs = std::move(s.bufs);
  s = Sock{};
  s.bufs = std::move(bufs);
  s.tx_credits = cfg_.sockbuf_bytes;
  return &s.bufs;
}

void LibToe::release_bufs(Sock& s) {
  if (!s.bufs.rx) return;
  s.bufs = {};  // PayloadBuf::Release defers the free past in-flight DMA
  live_bufs_ -= 2;
}

void LibToe::on_accepted(ConnId conn) {
  Sock* s = sock(conn);
  if (s != nullptr) s->open = true;
  if (cbs_.on_accept) cbs_.on_accept(conn);
}

void LibToe::on_connected(ConnId conn, bool ok) {
  Sock* s = sock(conn);
  if (s != nullptr) {
    s->open = ok;
    // A failed connect never opened: the app has nothing to close.
    if (!ok) release_bufs(*s);
  }
  if (cbs_.on_connected) cbs_.on_connected(conn, ok);
}

void LibToe::on_closed(ConnId conn) {
  Sock* s = sock(conn);
  if (s == nullptr) return;
  if (!s->closed_notified) {
    s->closed_notified = true;
    if (cbs_.on_close) cbs_.on_close(conn);
  }
  s->open = false;
  s->dead = true;
  if (s->app_closed) release_bufs(*s);
}

void LibToe::on_aborted(ConnId conn) {
  if (Sock* s = sock(conn)) release_bufs(*s);
}

}  // namespace flextoe::host
