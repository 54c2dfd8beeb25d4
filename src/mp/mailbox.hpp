#pragma once

// Per-rank inbox with blocking, filtered receives.
//
// Matching is deterministic in *virtual* time: among the queued messages
// that match a (src, tag) filter, `pop_match` returns the one with the
// smallest (arrive_time, src, seq) triple, not the one that happened to be
// pushed first in wall-clock order. Combined with the protocol's
// known-sender receive loops this makes simulated makespans reproducible
// run-to-run even under arbitrary thread scheduling.
//
// Storage is indexed by (src, tag): each stream gets its own ring queue
// kept sorted by (arrive_time, seq, push order). The protocol's exact
// (src, tag) receives — the hot path — pop the front of one ring in
// O(log #streams) for the map lookup and O(1) for the pop, instead of the
// former O(n) scan over a flat deque. Wildcard receives compare the ring
// fronts, which is O(#streams), still far below O(#messages). Pushes from
// the runtime arrive per-stream in nondecreasing (arrive_time, seq) order
// (MPI non-overtaking + a monotone sender-side seq), so the sorted insert
// degenerates to an O(1) append; the general insert path exists for
// direct-push tests and keeps correctness independent of that property.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "mp/message.hpp"

namespace psanim::mp {

/// Thrown when a blocking receive exceeds its deadline — a protocol
/// deadlock (e.g. a missing end-of-transmission marker, which the paper
/// calls out as a failure mode) surfaces as this error instead of a hang.
class RecvTimeout : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Multiplier applied to every blocking-receive timeout, read once from
/// PSANIM_TIMEOUT_SCALE. Defaults to 1, or higher under sanitizer builds
/// (TSan/ASan slow wall-clock execution 5-20x while virtual time is
/// unaffected, so unscaled deadlines fire spuriously in chaos tests).
double timeout_scale();

/// Test-only override of the cached scale (pass a value <= 0 to restore
/// the environment-derived default).
void override_timeout_scale(double scale);

/// Throw the canonical receive-timeout error for a (src, tag) filter.
/// Shared by the wall-clock expiry path (Mailbox::pop_match) and the
/// fiber scheduler's protocol-deadlock detection, so both execution modes
/// fail with the identical message.
[[noreturn]] void throw_recv_timeout(int src, int tag);

class Mailbox {
 public:
  /// Enqueue a message (called from the sender's thread).
  void push(Message m);

  /// Block until a message matching (src, tag) is present, then remove and
  /// return the match with the smallest (arrive_time, src, seq).
  /// `src`/`tag` may be kAny. Throws RecvTimeout after `timeout_s` of
  /// wall-clock waiting (scaled by timeout_scale()).
  Message pop_match(int src, int tag, double timeout_s);

  /// Non-blocking variant; nullopt when no match is queued.
  std::optional<Message> try_pop_match(int src, int tag);

  /// True when a matching message is queued (MPI_Iprobe analogue).
  bool probe(int src, int tag) const;

  /// Number of queued messages (any filter).
  std::size_t size() const;

  /// Rings the matcher has examined so far: one per exact (src, tag)
  /// lookup, one per candidate stream a wildcard compares. A complexity
  /// witness for tests; the runtime never reads it.
  std::uint64_t rings_examined() const;

  /// Fiber-runtime integration: called (outside the internal lock) after
  /// every push, so a cooperative scheduler can wake the owning rank's
  /// suspended fiber instead of relying on the condition variable. Set
  /// before the run's first send and cleared after the last rank returns;
  /// an empty function restores pure condition-variable wakeups.
  void set_push_signal(std::function<void()> signal);

 private:
  struct Item {
    Message m;
    std::uint64_t ord = 0;  ///< mailbox-wide push ordinal (stability tiebreak)
  };

  /// Growable ring of Items sorted by (arrive_time, seq, ord). Steady
  /// state is push_back/pop_front with zero allocation.
  class Ring {
   public:
    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }
    const Item& front() const { return at(0); }
    void insert_sorted(Item item);
    Item pop_front();

   private:
    Item& at(std::size_t i) { return buf_[(head_ + i) & (buf_.size() - 1)]; }
    const Item& at(std::size_t i) const {
      return buf_[(head_ + i) & (buf_.size() - 1)];
    }
    void grow();

    std::vector<Item> buf_;  // capacity is a power of two (mask indexing)
    std::size_t head_ = 0;
    std::size_t count_ = 0;
  };

  using Key = std::pair<int, int>;  // (src, tag)

  // Pointer to the ring holding the best match, or nullptr. Caller holds
  // mu_. The map is ordered, so scans visit streams by (src, tag) — the
  // winner is decided purely by the (arrive_time, src, seq, ord) compare.
  Ring* find_match(int src, int tag);
  const Ring* find_match(int src, int tag) const;
  Message pop_from(Ring& ring);
  void gc_empty_rings();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::function<void()> push_signal_;  ///< immutable while ranks are live
  std::map<Key, Ring> rings_;
  std::size_t empty_rings_ = 0;
  std::size_t total_ = 0;
  std::uint64_t next_ord_ = 0;
  mutable std::uint64_t rings_examined_ = 0;
};

}  // namespace psanim::mp
