// libTOE (paper §3, Fig 2): the application library. Interposes on the
// POSIX socket API (here: tcp::StackIface), keeps per-socket payload
// buffers in host memory, and communicates with the offloaded data-path
// through context queues and MMIO doorbells — the host never touches TCP
// processing for established connections.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/datapath.hpp"
#include "host/ctx_queue.hpp"
#include "host/payload_buf.hpp"
#include "sim/cpu.hpp"
#include "sim/domain.hpp"
#include "tcp/stack_iface.hpp"

namespace flextoe::host {

class ControlPlane;

struct LibToeConfig {
  std::size_t sockbuf_bytes = 512 * 1024;
  std::uint16_t context_id = 1;  // context 0 belongs to the control plane
  // Host cycles per socket API call (Table 1, FlexTOE column: 0.74 kc
  // sockets + 0.04 kc other per request across two calls).
  std::uint32_t sock_op_cycles = 250;
  std::uint32_t other_op_cycles = 12;
  // RX buffer space is returned to the NIC in batches to amortize
  // doorbells; always returned when the buffer drains.
  std::uint32_t rx_free_batch = 8 * 1024;
};

class LibToe final : public tcp::StackIface {
 public:
  LibToe(sim::Domain& ev, core::Datapath& dp, ControlPlane& cp,
         LibToeConfig cfg, sim::CpuPool* cpu = nullptr);

  // ---- StackIface ----
  void set_callbacks(tcp::StackCallbacks cbs) override { cbs_ = std::move(cbs); }
  void listen(std::uint16_t port) override;
  tcp::ConnId connect(net::Ipv4Addr remote_ip,
                      std::uint16_t remote_port) override;
  std::size_t send(tcp::ConnId c, std::span<const std::uint8_t> data) override;
  std::size_t recv(tcp::ConnId c, std::span<std::uint8_t> out) override;
  std::size_t rx_available(tcp::ConnId c) const override;
  std::size_t tx_space(tcp::ConnId c) const override;
  void close(tcp::ConnId c) override;
  net::Ipv4Addr local_ip() const override;

  // ---- Data-path notifications (wired by FlexToeNic) ----
  void on_notify(const CtxDesc& desc);

  // ---- Control-plane callbacks ----
  //
  // Buffer lifecycle: a connection's pair is allocated once, when its
  // handshake starts (alloc_bufs), handed to the data path when the
  // handshake completes (bind_bufs), and released once the connection
  // is dead and the app has closed it (or never saw it open).
  struct SockBufs {
    PayloadBuf::Owner rx;
    PayloadBuf::Owner tx;
  };
  // Allocates socket buffers for a connection being established.
  SockBufs* alloc_bufs(tcp::ConnId conn);
  // Resets the socket state of a connection whose handshake completed
  // and returns the buffers alloc_bufs made for it.
  SockBufs* bind_bufs(tcp::ConnId conn);
  void on_accepted(tcp::ConnId conn);
  void on_connected(tcp::ConnId conn, bool ok);
  void on_closed(tcp::ConnId conn);
  // A passive open died before the app saw it.
  void on_aborted(tcp::ConnId conn);

  std::uint16_t context_id() const { return cfg_.context_id; }
  std::uint64_t doorbells() const { return doorbells_; }
  // Socket buffers held now, and allocated since construction.
  std::size_t live_bufs() const { return live_bufs_; }
  std::uint64_t allocated_bufs() const { return allocated_bufs_; }

 private:
  struct Sock {
    SockBufs bufs;
    // RX: absolute read position and readable byte count.
    std::uint64_t rx_pos = 0;
    std::uint64_t rx_readable = 0;
    std::uint32_t freed_accum = 0;
    // TX: absolute append position and free credits.
    std::uint64_t tx_pos = 0;
    std::uint64_t tx_credits = 0;
    bool open = false;
    bool eof = false;
    bool closed_notified = false;
    bool app_closed = false;  // close() was called
    bool dead = false;        // the control plane tore the connection down
  };

  Sock* sock(tcp::ConnId c);
  const Sock* sock(tcp::ConnId c) const;
  void release_bufs(Sock& s);
  void post_hc(CtxDescType type, tcp::ConnId conn, std::uint32_t a);
  void charge_sockop();

  sim::Domain& ev_;
  core::Datapath& dp_;
  ControlPlane& cp_;
  LibToeConfig cfg_;
  sim::CpuPool* cpu_;
  tcp::StackCallbacks cbs_;
  std::vector<std::unique_ptr<Sock>> socks_;
  std::uint64_t doorbells_ = 0;
  std::size_t live_bufs_ = 0;
  std::uint64_t allocated_bufs_ = 0;
};

}  // namespace flextoe::host
