#include "trace/trace.hpp"

#include <algorithm>

namespace flextoe::trace {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

Tracer::Tracer() {
  strings_.emplace_back();  // id 0 = ""
}

std::shared_ptr<Ring> Tracer::attach_ring(std::uint32_t domain_id) {
  std::lock_guard<std::mutex> lk(mu_);
  auto ring =
      std::make_shared<Ring>(domain_id, ++next_label_, ring_capacity_);
  rings_.push_back(ring);
  return ring;
}

std::uint16_t Tracer::intern(std::string_view s) {
  if (s.empty()) return 0;  // id 0 is pre-seeded as "" and not indexed
  std::lock_guard<std::mutex> lk(mu_);
  auto it = index_.find(std::string(s));
  if (it != index_.end()) return it->second;
  if (strings_.size() > 0xFFFF) return 0;  // table full: degrade to ""
  std::uint16_t id = static_cast<std::uint16_t>(strings_.size());
  strings_.emplace_back(s);
  index_.emplace(strings_.back(), id);
  return id;
}

std::string Tracer::string(std::uint16_t id) const {
  std::lock_guard<std::mutex> lk(mu_);
  return id < strings_.size() ? strings_[id] : std::string{};
}

std::vector<std::string> Tracer::strings() const {
  std::lock_guard<std::mutex> lk(mu_);
  return strings_;
}

std::uint64_t Tracer::next_actor_base() {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<std::uint64_t>(++next_label_) << Ring::kSeqBits;
}

void Tracer::set_ring_capacity(std::size_t events) {
  std::lock_guard<std::mutex> lk(mu_);
  ring_capacity_ = events < 8 ? 8 : events;
}

std::size_t Tracer::ring_capacity() const {
  std::lock_guard<std::mutex> lk(mu_);
  return ring_capacity_;
}

void Tracer::report_drop(const Ring& ring, std::uint64_t victim,
                         std::string_view reason, sim::TimePs t) {
  if (victim == 0) return;
  // Scan the (quiesced-for-us: we run on its writer thread) ring
  // backward for the last K events touching the victim. arg-matching
  // picks up actor-paired sites (DMA, flow scheduler) that stash the segment
  // id in the payload slot.
  std::vector<Event> hits;
  std::size_t k;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (pms_.size() >= pm_max_reports_) return;
    k = pm_depth_;
  }
  const std::size_t n = ring.size();
  for (std::size_t i = n; i-- > 0 && hits.size() < k;) {
    const Event& e = ring.at(i);
    if (e.cid == victim || e.arg == victim) hits.push_back(e);
  }
  std::reverse(hits.begin(), hits.end());  // oldest first
  PostMortem pm;
  pm.reason.assign(reason.data(), reason.size());
  pm.victim = victim;
  pm.t = t;
  pm.domain_id = ring.domain_id();
  pm.ring_label = ring.label();
  pm.events = std::move(hits);
  std::lock_guard<std::mutex> lk(mu_);
  if (pms_.size() >= pm_max_reports_) return;
  pms_.push_back(std::move(pm));
}

void Tracer::set_postmortem_depth(std::size_t k) {
  std::lock_guard<std::mutex> lk(mu_);
  pm_depth_ = k;
}

std::size_t Tracer::postmortem_depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return pm_depth_;
}

void Tracer::set_postmortem_max_reports(std::size_t n) {
  std::lock_guard<std::mutex> lk(mu_);
  pm_max_reports_ = n;
}

std::vector<Tracer::PostMortem> Tracer::postmortems() const {
  std::lock_guard<std::mutex> lk(mu_);
  return pms_;
}

std::vector<std::shared_ptr<Ring>> Tracer::rings() const {
  std::lock_guard<std::mutex> lk(mu_);
  return rings_;
}

void Tracer::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  rings_.clear();
  pms_.clear();
  next_label_ = 0;
  // A fresh capture starts from the default post-mortem policy; a cap
  // tuned for one run must not silently truncate the next.
  pm_depth_ = 16;
  pm_max_reports_ = 64;
}

}  // namespace flextoe::trace
