#include "mp/mailbox.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <string>

namespace psanim::mp {

namespace {

// Dormant streams above this keep their (empty) rings until a sweep; the
// bound matters because collective tags cycle through a 65536-wide range
// and would otherwise grow the map without limit.
constexpr std::size_t kMaxEmptyRings = 256;

constexpr bool sanitizer_build() {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  return true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

double env_timeout_scale() {
  if (const char* env = std::getenv("PSANIM_TIMEOUT_SCALE")) {
    char* end = nullptr;
    const double v = std::strtod(env, &end);
    if (end != env && v > 0.0) return v;
  }
  // Sanitizers slow wall-clock execution roughly an order of magnitude
  // while virtual time is unaffected; stretch deadlines to match.
  return sanitizer_build() ? 8.0 : 1.0;
}

// <= 0 means "not yet derived from the environment".
std::atomic<double> g_timeout_scale{-1.0};

}  // namespace

double timeout_scale() {
  double v = g_timeout_scale.load(std::memory_order_relaxed);
  if (v <= 0.0) {
    v = env_timeout_scale();
    g_timeout_scale.store(v, std::memory_order_relaxed);
  }
  return v;
}

void override_timeout_scale(double scale) {
  g_timeout_scale.store(scale, std::memory_order_relaxed);
}

void throw_recv_timeout(int src, int tag) {
  throw RecvTimeout("psanim::mp: receive timed out (src=" +
                    std::to_string(src) + ", tag=" + std::to_string(tag) +
                    ") — likely a missing end-of-transmission marker");
}

// --- Ring -----------------------------------------------------------------

namespace {
/// Within one ring src is constant; sort by (arrive_time, seq) with the
/// push ordinal as a stability tiebreak.
bool item_ring_less(double a_arrive, std::uint64_t a_seq, std::uint64_t a_ord,
                    double b_arrive, std::uint64_t b_seq,
                    std::uint64_t b_ord) {
  if (a_arrive != b_arrive) return a_arrive < b_arrive;
  if (a_seq != b_seq) return a_seq < b_seq;
  return a_ord < b_ord;
}
}  // namespace

void Mailbox::Ring::grow() {
  const std::size_t cap = buf_.empty() ? 8 : buf_.size() * 2;
  std::vector<Item> bigger(cap);
  for (std::size_t i = 0; i < count_; ++i) bigger[i] = std::move(at(i));
  buf_ = std::move(bigger);
  head_ = 0;
}

void Mailbox::Ring::insert_sorted(Item item) {
  if (count_ == buf_.size()) grow();
  const auto less = [](const Item& a, const Item& b) {
    return item_ring_less(a.m.arrive_time, a.m.seq, a.ord, b.m.arrive_time,
                          b.m.seq, b.ord);
  };
  // Fast path: the runtime pushes each stream in nondecreasing order, so
  // new items belong at the tail.
  if (count_ == 0 || !less(item, at(count_ - 1))) {
    at(count_) = std::move(item);
    ++count_;
    return;
  }
  // Out-of-order push (direct-push tests): binary search for the first
  // element greater than `item`, shift the tail right by one slot.
  std::size_t lo = 0;
  std::size_t hi = count_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (less(item, at(mid))) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  ++count_;
  for (std::size_t i = count_ - 1; i > lo; --i) at(i) = std::move(at(i - 1));
  at(lo) = std::move(item);
}

Mailbox::Item Mailbox::Ring::pop_front() {
  Item item = std::move(at(0));
  head_ = (head_ + 1) & (buf_.size() - 1);
  --count_;
  return item;
}

// --- Mailbox --------------------------------------------------------------

void Mailbox::push(Message m) {
  {
    const std::scoped_lock lock(mu_);
    const auto [it, created] = rings_.try_emplace(Key{m.src, m.tag});
    if (!created && it->second.empty() && empty_rings_ > 0) --empty_rings_;
    it->second.insert_sorted(Item{std::move(m), next_ord_++});
    ++total_;
  }
  cv_.notify_all();
  if (push_signal_) push_signal_();
}

void Mailbox::set_push_signal(std::function<void()> signal) {
  push_signal_ = std::move(signal);
}

const Mailbox::Ring* Mailbox::find_match(int src, int tag) const {
  const auto front_earlier = [](const Item& a, const Item& b) {
    if (a.m.arrive_time != b.m.arrive_time) {
      return a.m.arrive_time < b.m.arrive_time;
    }
    if (a.m.src != b.m.src) return a.m.src < b.m.src;
    if (a.m.seq != b.m.seq) return a.m.seq < b.m.seq;
    return a.ord < b.ord;
  };

  if (src != kAny && tag != kAny) {
    ++rings_examined_;
    const auto it = rings_.find(Key{src, tag});
    return (it != rings_.end() && !it->second.empty()) ? &it->second
                                                       : nullptr;
  }
  const Ring* best = nullptr;
  const auto consider = [&](const Ring& r) {
    ++rings_examined_;
    if (r.empty()) return;
    if (best == nullptr || front_earlier(r.front(), best->front())) {
      best = &r;
    }
  };
  if (src != kAny) {
    for (auto it =
             rings_.lower_bound(Key{src, std::numeric_limits<int>::min()});
         it != rings_.end() && it->first.first == src; ++it) {
      consider(it->second);
    }
  } else {
    for (const auto& [key, ring] : rings_) {
      if (tag != kAny && key.second != tag) continue;
      consider(ring);
    }
  }
  return best;
}

Mailbox::Ring* Mailbox::find_match(int src, int tag) {
  return const_cast<Ring*>(
      static_cast<const Mailbox*>(this)->find_match(src, tag));
}

Message Mailbox::pop_from(Ring& ring) {
  Item item = ring.pop_front();
  if (ring.empty()) ++empty_rings_;
  --total_;
  gc_empty_rings();
  return std::move(item.m);
}

void Mailbox::gc_empty_rings() {
  if (empty_rings_ <= kMaxEmptyRings) return;
  for (auto it = rings_.begin(); it != rings_.end();) {
    if (it->second.empty()) {
      it = rings_.erase(it);
    } else {
      ++it;
    }
  }
  empty_rings_ = 0;
}

Message Mailbox::pop_match(int src, int tag, double timeout_s) {
  std::unique_lock lock(mu_);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::duration<double>(
                                timeout_s * timeout_scale()));
  Ring* ring = nullptr;
  const bool ok = cv_.wait_until(lock, deadline, [&] {
    ring = find_match(src, tag);
    return ring != nullptr;
  });
  if (!ok) throw_recv_timeout(src, tag);
  return pop_from(*ring);
}

std::optional<Message> Mailbox::try_pop_match(int src, int tag) {
  const std::scoped_lock lock(mu_);
  Ring* ring = find_match(src, tag);
  if (ring == nullptr) return std::nullopt;
  return pop_from(*ring);
}

bool Mailbox::probe(int src, int tag) const {
  const std::scoped_lock lock(mu_);
  return find_match(src, tag) != nullptr;
}

std::size_t Mailbox::size() const {
  const std::scoped_lock lock(mu_);
  return total_;
}

std::uint64_t Mailbox::rings_examined() const {
  const std::scoped_lock lock(mu_);
  return rings_examined_;
}

}  // namespace psanim::mp
