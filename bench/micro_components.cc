// Microbenchmarks for the hot substrate components: packet
// serialization/parsing, checksums, flow hashing, reorder buffers, OOO
// trackers, byte rings, and the timing-wheel flow scheduler. These guard
// simulator performance (host-side, wall-clock) rather than reproducing
// paper rows. One series; rows are components with ns/op statistics over
// `--repeats` timed runs (first run is warmup).
#include <chrono>
#include <cstdint>
#include <vector>

#include "pipeline/reorder.hpp"
#include "harness.hpp"
#include "net/checksum.hpp"
#include "net/packet.hpp"
#include "sched/timing_wheel.hpp"
#include "sim/domain.hpp"
#include "tcp/byte_ring.hpp"
#include "tcp/flow.hpp"
#include "tcp/ooo.hpp"

using namespace flextoe;
using namespace flextoe::benchx;

namespace {

// Keeps the optimizer from discarding a computed value (stand-in for
// benchmark::DoNotOptimize).
template <typename T>
inline void keep(T&& value) {
  asm volatile("" : : "g"(value) : "memory");
}

// Times `iters` iterations of `op(i)` and returns ns per operation.
template <typename Op>
double time_ns_per_op(std::uint64_t iters, Op&& op) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) op(i);
  const auto t1 = std::chrono::steady_clock::now();
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  return static_cast<double>(ns) / static_cast<double>(iters);
}

net::Packet make_packet(std::size_t payload) {
  net::Packet p;
  p.eth.src = net::MacAddr::from_u64(1);
  p.eth.dst = net::MacAddr::from_u64(2);
  p.ip.src = net::make_ip(10, 0, 0, 1);
  p.ip.dst = net::make_ip(10, 0, 0, 2);
  p.tcp.flags = net::tcpflag::kAck | net::tcpflag::kPsh;
  p.tcp.ts = net::TcpTsOpt{1, 2};
  p.payload.assign(payload, 0xAB);
  return p;
}

}  // namespace

BENCH_SCENARIO(micro, "host-side component costs (ns/op)") {
  const std::uint64_t iters = ctx.pick<std::uint64_t>(200000, 5000);
  // Micro timings are noisy: always repeat at least 3 times (beyond any
  // --repeats request) and warm up once.
  const int reps = ctx.opts().repeats > 3 ? ctx.opts().repeats : 3;
  auto& series = ctx.report().series("micro");

  auto record = [&](const char* name,
                    const std::function<double(int)>& run) {
    const RepeatStats st = run_repeated(reps, run, /*warmup=*/1);
    auto& row = series.row(name);
    row.set("ns_op", st.mean);
    row.set("p50", st.p50);
    row.set("p99", st.p99);
  };

  for (std::size_t payload : {std::size_t{64}, std::size_t{1448}}) {
    const std::string tag = "/" + std::to_string(payload);
    record(("packet_serialize" + tag).c_str(), [&](int) {
      net::Packet p = make_packet(payload);
      return time_ns_per_op(iters, [&](std::uint64_t) {
        keep(p.serialize());
      });
    });
    record(("packet_parse" + tag).c_str(), [&](int) {
      net::Packet p = make_packet(payload);
      p.tcp.ts = net::TcpTsOpt{1, 2};
      const auto bytes = p.serialize();
      return time_ns_per_op(iters, [&](std::uint64_t) {
        keep(net::Packet::parse(bytes));
      });
    });
    record(("internet_checksum" + tag).c_str(), [&](int) {
      std::vector<std::uint8_t> data(payload, 0x55);
      return time_ns_per_op(iters, [&](std::uint64_t) {
        keep(net::internet_checksum(data));
      });
    });
  }

  record("crc32_flow_hash", [&](int) {
    tcp::FlowTuple t{net::make_ip(10, 0, 0, 1), net::make_ip(10, 0, 0, 2),
                     12345, 80};
    return time_ns_per_op(iters, [&](std::uint64_t) {
      keep(t.hash());
      t.local_port++;
    });
  });

  record("single_interval_tracker", [&](int) {
    tcp::SingleIntervalTracker t;
    tcp::SeqNum rcv = 0;
    return time_ns_per_op(iters, [&](std::uint64_t) {
      auto r = t.on_segment(rcv, rcv, 1448, 1 << 20);
      rcv += r.advance;
    });
  });

  record("byte_ring_write_read_4k", [&](int) {
    tcp::ByteRing ring(1 << 20);
    std::vector<std::uint8_t> chunk(4096, 0xCD);
    std::vector<std::uint8_t> out(4096);
    return time_ns_per_op(iters, [&](std::uint64_t) {
      ring.write(chunk);
      ring.read(out);
    });
  });

  record("reorder_buffer_in_order", [&](int) {
    std::uint64_t released = 0;
    pipeline::ReorderBuffer<int> rob([&released](int) { ++released; });
    std::uint64_t seq = 0;
    const double ns = time_ns_per_op(iters, [&](std::uint64_t) {
      rob.push(seq++, 1);
    });
    keep(released);
    return ns;
  });

  record("wheel_trigger", [&](int) {
    sim::Domain ev;
    sched::TimingWheel whl(ev);
    std::uint64_t sent = 0;
    whl.set_trigger([&sent](std::uint32_t) -> std::uint32_t {
      ++sent;
      return 1448;
    });
    whl.set_rate(1, 0);
    whl.update_avail(1, 1ull << 40);
    const double ns = time_ns_per_op(iters, [&](std::uint64_t) {
      // Each step services pending scheduler events.
      if (!ev.step()) whl.kick(1);
    });
    keep(sent);
    return ns;
  });

  record("event_queue_churn", [&](int) {
    sim::Domain ev;
    int fired = 0;
    const double ns = time_ns_per_op(iters, [&](std::uint64_t) {
      ev.schedule_in(sim::ns(10), [&fired] { ++fired; });
      ev.step();
    });
    keep(fired);
    return ns;
  });

  ctx.report().note(
      "Wall-clock microbenchmarks of the simulator substrate; values are "
      "host-dependent and tracked for trend, not paper comparison.");
}
