#include "layer_trace.hpp"

#include <cstdio>
#include <memory>
#include <utility>

namespace perfbench {

const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kNetIngress:
      return "net.ingress";
    case SpanKind::kCoreDeliver:
      return "core.deliver";
    case SpanKind::kBaselineDeliver:
      return "baseline.deliver";
    case SpanKind::kHostSend:
      return "host.send";
    case SpanKind::kHostRecv:
      return "host.recv";
    case SpanKind::kHostConnect:
      return "host.connect";
    case SpanKind::kHostClose:
      return "host.close";
    case SpanKind::kHostOther:
      return "host.other";
    case SpanKind::kBaselineSend:
      return "baseline.send";
    case SpanKind::kBaselineRecv:
      return "baseline.recv";
    case SpanKind::kBaselineConnect:
      return "baseline.connect";
    case SpanKind::kBaselineClose:
      return "baseline.close";
    case SpanKind::kBaselineOther:
      return "baseline.other";
    case SpanKind::kAppOnData:
      return "app.on_data";
    case SpanKind::kAppOnOther:
      return "app.on_other";
    case SpanKind::kWorkloadOnData:
      return "workload.on_data";
    case SpanKind::kWorkloadOnOther:
      return "workload.on_other";
    case SpanKind::kCount:
      break;
  }
  return "?";
}

void SpanRecorder::start() {
  open_.clear();
  spans_.clear();
  spans_.reserve(max_kept_);
  dropped_ = 0;
  totals_ = {};
  origin_ = std::chrono::steady_clock::now();
  active_ = true;
}

void SpanRecorder::begin(SpanKind k, tcp::ConnId conn) {
  std::uint32_t index = kNoParent;
  if (spans_.size() < max_kept_) {
    index = static_cast<std::uint32_t>(spans_.size());
    Span s;
    s.parent = open_.empty() ? kNoParent : open_.back().index;
    s.conn = conn;
    s.kind = k;
    spans_.push_back(s);
  }
  open_.push_back(Frame{now_ns(), 0, index, k});
  if (index != kNoParent) spans_[index].start_ns = open_.back().start_ns;
}

void SpanRecorder::end() {
  const std::int64_t t = now_ns();
  const Frame f = open_.back();
  open_.pop_back();
  const std::int64_t dur = t - f.start_ns;
  Totals& tot = totals_[static_cast<std::size_t>(f.kind)];
  ++tot.calls;
  tot.self_ns += dur - f.child_ns;
  if (!open_.empty()) open_.back().child_ns += dur;
  if (f.index != kNoParent) {
    spans_[f.index].end_ns = t;
  } else {
    ++dropped_;
  }
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  std::fputs("{\"traceEvents\":[\n", f.get());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f.get(),
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%lld,\"conn\":%lld}}\n",
                 i ? "," : "", span_name(s.kind), double(s.start_ns) / 1e3,
                 double(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent == kNoParent ? -1LL : (long long)s.parent,
                 s.conn == tcp::kInvalidConn ? -1LL : (long long)s.conn);
  }
  std::fprintf(f.get(), "],\"otherData\":{\"spans_dropped\":%llu}}\n",
               (unsigned long long)dropped_);
  return std::ferror(f.get()) == 0;
}

// ---------------------------------------------------------------------

TracedStack::TracedStack(SpanRecorder& rec, tcp::StackIface& inner,
                         bool flextoe_node, bool app_server)
    : rec_(rec),
      inner_(inner),
      flextoe_node_(flextoe_node),
      app_server_(app_server) {}

namespace {

// Wraps one callback so it runs inside a span of `kind`, keyed by the
// connection it concerns.
template <typename... Args>
std::function<void(tcp::ConnId, Args...)> wrap(
    SpanRecorder& rec, SpanKind kind,
    std::function<void(tcp::ConnId, Args...)> fn) {
  if (!fn) return fn;
  return [&rec, kind, fn = std::move(fn)](tcp::ConnId c, Args... args) {
    ScopedSpan s(rec, kind, c);
    fn(c, args...);
  };
}

}  // namespace

void TracedStack::set_callbacks(tcp::StackCallbacks cbs) {
  const SpanKind data =
      app_server_ ? SpanKind::kAppOnData : SpanKind::kWorkloadOnData;
  const SpanKind other =
      app_server_ ? SpanKind::kAppOnOther : SpanKind::kWorkloadOnOther;
  tcp::StackCallbacks w;
  w.on_accept = wrap(rec_, other, std::move(cbs.on_accept));
  w.on_connected = wrap(rec_, other, std::move(cbs.on_connected));
  w.on_data = wrap(rec_, data, std::move(cbs.on_data));
  w.on_sendable = wrap(rec_, other, std::move(cbs.on_sendable));
  w.on_close = wrap(rec_, other, std::move(cbs.on_close));
  ScopedSpan s(rec_, op(SpanKind::kHostOther, SpanKind::kBaselineOther));
  inner_.set_callbacks(std::move(w));
}

void TracedStack::listen(std::uint16_t port) {
  ScopedSpan s(rec_, op(SpanKind::kHostOther, SpanKind::kBaselineOther));
  inner_.listen(port);
}

tcp::ConnId TracedStack::connect(net::Ipv4Addr ip, std::uint16_t port) {
  ScopedSpan s(rec_, op(SpanKind::kHostConnect, SpanKind::kBaselineConnect));
  return inner_.connect(ip, port);
}

std::size_t TracedStack::send(tcp::ConnId c,
                              std::span<const std::uint8_t> d) {
  ScopedSpan s(rec_, op(SpanKind::kHostSend, SpanKind::kBaselineSend), c);
  return inner_.send(c, d);
}

std::size_t TracedStack::recv(tcp::ConnId c, std::span<std::uint8_t> out) {
  ScopedSpan s(rec_, op(SpanKind::kHostRecv, SpanKind::kBaselineRecv), c);
  return inner_.recv(c, out);
}

std::size_t TracedStack::rx_available(tcp::ConnId c) const {
  ScopedSpan s(rec_, op(SpanKind::kHostOther, SpanKind::kBaselineOther), c);
  return inner_.rx_available(c);
}

std::size_t TracedStack::tx_space(tcp::ConnId c) const {
  ScopedSpan s(rec_, op(SpanKind::kHostOther, SpanKind::kBaselineOther), c);
  return inner_.tx_space(c);
}

void TracedStack::close(tcp::ConnId c) {
  ScopedSpan s(rec_, op(SpanKind::kHostClose, SpanKind::kBaselineClose), c);
  inner_.close(c);
}

}  // namespace perfbench
