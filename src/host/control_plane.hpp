// FlexTOE control plane (paper §3 and Appendix D).
//
// Handles everything that is not per-segment data-path work: connection
// control (handshake, teardown, data-path state installation), the
// congestion-control loop (reads per-flow stats from the data-path,
// programs flow-scheduler rates), and retransmission-timeout monitoring. Runs
// in its own protection domain on the host (or on SmartNIC control
// cores — modeled as a latency difference).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/datapath.hpp"
#include "sim/domain.hpp"
#include "sim/rng.hpp"
#include "tcp/cc.hpp"
#include "tcp/flow.hpp"
#include "tcp/rtt.hpp"

namespace flextoe::host {

class LibToe;

struct ControlPlaneConfig {
  std::string cc_algo = "dctcp";     // dctcp | timely
  bool cc_enabled = true;            // Table 4: control-plane CC on/off
  sim::TimePs cc_interval = sim::us(100);
  sim::TimePs min_rto = sim::ms(1);
  sim::TimePs max_rto = sim::ms(100);
  std::uint32_t mss = 1448;
  std::size_t sockbuf_bytes = 512 * 1024;
  std::uint32_t syn_retries = 6;
  sim::TimePs handshake_rto = sim::ms(5);
  sim::TimePs time_wait = sim::ms(1);
};

class ControlPlane {
 public:
  ControlPlane(sim::Domain& ev, core::Datapath& dp, sim::Rng rng,
               ControlPlaneConfig cfg);

  void set_libtoe(LibToe* lib) { lib_ = lib; }
  void set_identity(net::MacAddr mac, net::Ipv4Addr ip) {
    mac_ = mac;
    ip_ = ip;
  }
  net::Ipv4Addr ip() const { return ip_; }

  // ---- libTOE-facing ----
  void listen(std::uint16_t port);
  tcp::ConnId connect(net::Ipv4Addr remote_ip, std::uint16_t remote_port);
  void app_close(tcp::ConnId conn);

  // ---- Data-path-facing ----
  void on_control_segment(const net::PacketPtr& pkt);
  void on_peer_fin(tcp::ConnId conn);

  // ---- Introspection ----
  std::size_t established() const { return established_; }
  std::uint64_t rto_retransmits() const { return rto_retransmits_; }
  const ControlPlaneConfig& config() const { return cfg_; }
  void set_cc_enabled(bool on) { cfg_.cc_enabled = on; }

 private:
  enum class CState : std::uint8_t {
    SynSent,
    SynRcvd,
    Established,
    Closing,   // FIN exchange in progress
    TimeWait,
    Dead,
  };

  struct ConnCtl {
    CState state = CState::Dead;
    tcp::FlowTuple tuple;
    net::MacAddr peer_mac;
    tcp::SeqNum iss = 0;
    tcp::SeqNum irs = 0;
    std::uint32_t syn_tries = 0;
    std::uint64_t timer_gen = 0;
    std::unique_ptr<tcp::CongestionControl> cc;
    // RTO progress tracking.
    tcp::SeqNum last_una = 0;
    sim::TimePs last_progress = 0;
    std::uint32_t backoff = 1;
    std::uint32_t timeouts_pending = 0;  // reported to CC next iteration
    bool fin_requested = false;
    bool peer_fin = false;
  };

  tcp::ConnId alloc_conn();
  void send_syn(tcp::ConnId conn);
  void send_synack(tcp::ConnId conn);
  void install(tcp::ConnId conn, std::uint32_t remote_win);
  void handshake_timer(tcp::ConnId conn, std::uint64_t gen);
  void cc_tick();
  void maybe_teardown(tcp::ConnId conn);
  net::PacketPtr make_ctrl_packet(const ConnCtl& c, tcp::SeqNum seq,
                                  tcp::SeqNum ack, std::uint8_t flags);
  std::uint32_t now_us() const {
    return static_cast<std::uint32_t>(ev_.now() / sim::kPsPerUs);
  }

  sim::Domain& ev_;
  core::Datapath& dp_;
  sim::Rng rng_;
  ControlPlaneConfig cfg_;
  LibToe* lib_ = nullptr;
  net::MacAddr mac_{};
  net::Ipv4Addr ip_ = 0;

  std::vector<std::unique_ptr<ConnCtl>> conns_;
  std::unordered_map<tcp::FlowTuple, tcp::ConnId, tcp::FlowTupleHash>
      pending_;  // handshakes in flight (not yet in the data-path DB)
  std::vector<bool> listening_ = std::vector<bool>(65536, false);
  std::uint16_t next_ephemeral_ = 30000;
  std::size_t established_ = 0;
  std::uint64_t rto_retransmits_ = 0;
  bool cc_timer_running_ = false;
};

}  // namespace flextoe::host
