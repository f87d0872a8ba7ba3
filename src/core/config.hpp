// Data-path configuration: FPC topology, replication factors, stage
// costs, memory model — the knobs behind the paper's ablation (Table 3)
// and the x86/BlueField ports (Fig 14, Appendix E).
#pragma once

#include <cstddef>
#include <cstdint>

#include "nfp/dma.hpp"
#include "nfp/memory.hpp"
#include "sim/time.hpp"

namespace flextoe::core {

// Compute cycles per stage visit (FPC instruction-path costs; memory
// cycles are added by the cache model on top).
struct StageCosts {
  std::uint32_t seq = 30;        // sequencer / reorder FPCs
  std::uint32_t pre_rx = 260;    // Val + Id + Sum + Steer
  std::uint32_t pre_tx = 110;    // Alloc + Head + Steer
  std::uint32_t pre_hc = 70;     // Steer
  std::uint32_t proto_rx = 200;  // Win/ECN/ooo handling (atomic)
  std::uint32_t proto_tx = 120;  // Seq
  std::uint32_t proto_hc = 80;   // Win / Fin / Reset
  std::uint32_t post_rx = 300;   // Ack + Stamp + Stats + Pos
  std::uint32_t post_tx = 90;    // Pos + FS
  std::uint32_t post_hc = 70;    // FS + Free
  std::uint32_t dma_issue = 60;  // descriptor enqueue to PCIe block
  std::uint32_t ctx_op = 55;     // doorbell poll / notify
};

struct DatapathConfig {
  // --- Parallelism (Table 3 ablation knobs) ---
  // false: run the whole data-path to completion on a single FPC.
  bool pipelined = true;
  unsigned threads_per_fpc = 8;
  unsigned pre_replicas = 4;   // per flow-group island
  unsigned post_replicas = 4;  // per flow-group island
  unsigned flow_groups = 4;    // protocol islands
  unsigned proto_fpcs_per_group = 2;  // connections sharded within group
  unsigned dma_fpcs = 4;
  unsigned ctx_fpcs = 4;
  // Replicas per attached XDP stage node (paper §3.3 splicing): each
  // program in the chain becomes its own pipeline::Stage with this many
  // FPCs. Ignored until a program is attached — the default no-XDP
  // graph allocates nothing.
  unsigned xdp_replicas = 2;
  // false: reorder points pass through (no-reorder ablation) — parallel
  // stages may then reorder segments within a flow group.
  bool reorder = true;

  // --- Platform ---
  sim::ClockDomain clock = sim::kFpcClock;
  // true: NFP software-managed caches + CLS/EMEM hierarchy.
  // false: hardware cache hierarchy (x86/BlueField ports) — flat cost.
  bool nfp_memory = true;
  std::uint32_t flat_mem_cycles = 12;  // per state access when !nfp_memory
  nfp::MemLatencies mem;
  nfp::DmaParams dma;
  // x86/BlueField ports use shared memory, not PCIe (Appendix E).
  bool shared_memory_ctx = false;
  // Host notification latency (MSI-X interrupt -> eventfd wakeup), or the
  // polling delay when context queues are shared memory.
  sim::TimePs notify_latency = sim::us(1);
  // Software payload-copy cost charged on the DMA-stage core when context
  // queues are shared memory (x86/BlueField ports copy in software).
  std::uint32_t copy_cycles_per_kb = 400;

  // --- Stage costs ---
  StageCosts costs;

  // --- Protocol ---
  std::uint32_t mss = 1448;
  std::uint32_t max_conns = 64 * 1024;
  std::size_t fpc_queue_depth = 512;
  // Burst size for batched dispatch (FPC work-ring drain harvest and
  // datapath delivery bursts). 0 = use the process default (see
  // core/batch.hpp; the bench harness --batch flag sets it). Purely a
  // host-side dispatch detail — never changes simulated timing or
  // event order.
  unsigned batch_size = 0;

  // --- Extensions (Table 2) ---
  bool profiling = false;  // statistics & profiling extension enabled
  std::uint32_t profile_cycles = 35;  // extra cycles per stage when on

  double mac_gbps = 40.0;  // Agilio CX40 line rate
};

// Presets --------------------------------------------------------------

inline DatapathConfig agilio_cx40_config() { return DatapathConfig{}; }

// Table 3 ablation steps.
inline DatapathConfig ablation_baseline() {
  DatapathConfig c;
  c.pipelined = false;
  c.threads_per_fpc = 1;
  c.pre_replicas = 1;
  c.post_replicas = 1;
  c.flow_groups = 1;
  c.proto_fpcs_per_group = 1;
  c.dma_fpcs = 1;
  c.ctx_fpcs = 1;
  return c;
}

inline DatapathConfig ablation_pipelined() {
  DatapathConfig c = ablation_baseline();
  c.pipelined = true;
  return c;
}

inline DatapathConfig ablation_threads() {
  DatapathConfig c = ablation_pipelined();
  c.threads_per_fpc = 8;
  return c;
}

inline DatapathConfig ablation_replicated() {
  DatapathConfig c = ablation_threads();
  c.pre_replicas = 4;
  c.post_replicas = 4;
  c.dma_fpcs = 4;
  c.ctx_fpcs = 4;
  return c;
}

inline DatapathConfig ablation_flow_groups() {
  DatapathConfig c = ablation_replicated();
  c.flow_groups = 4;
  c.proto_fpcs_per_group = 2;
  return c;
}

// Full parallelism with pass-through reorder points: measures what the
// §3.2 sequencing machinery costs (and what unordered delivery breaks).
inline DatapathConfig ablation_no_reorder() {
  DatapathConfig c = ablation_flow_groups();
  c.reorder = false;
  return c;
}

// x86 port (Appendix E): 2.35 GHz cores, hardware caches, shared-memory
// context queues, one pipeline instance (no flow-group islands).
inline DatapathConfig x86_config(bool replicated = true) {
  DatapathConfig c;
  c.clock = sim::kX86Clock;
  c.nfp_memory = false;
  c.flat_mem_cycles = 10;
  c.shared_memory_ctx = true;
  c.flow_groups = 1;
  c.proto_fpcs_per_group = 1;
  c.pre_replicas = replicated ? 2 : 1;
  c.post_replicas = replicated ? 2 : 1;
  c.dma_fpcs = 1;  // payload copies in software
  c.ctx_fpcs = 1;
  c.threads_per_fpc = 1;  // one module instance per core
  c.fpc_queue_depth = 8192;  // software rings are deep (no NIC SRAM limit)
  c.mac_gbps = 100.0;
  c.notify_latency = sim::ns(300);  // shared-memory polling
  c.dma.gbps = 200.0;               // memory-bandwidth "DMA"
  c.dma.latency = sim::ns(80);
  c.dma.mmio_latency = sim::ns(60);
  return c;
}

// BlueField port: wimpy ARM A72 cores, hardware caches.
inline DatapathConfig bluefield_config(bool replicated = true) {
  DatapathConfig c = x86_config(replicated);
  c.clock = sim::kBlueFieldClock;
  c.flat_mem_cycles = 16;
  c.mac_gbps = 25.0;
  return c;
}

}  // namespace flextoe::core
