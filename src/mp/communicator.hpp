#pragma once

// Endpoint: one model process's handle into the message-passing runtime.
//
// Provides MPI-flavored blocking point-to-point operations plus virtual
// time accounting. Determinism note: wildcard receives (`src = kAny`) pick
// the queued match with the smallest virtual arrival time, but a message
// that has not been *pushed* yet cannot be picked — so protocol code whose
// timing matters receives from known sender sets (`recv_each`,
// per-source loops), which is how the Fig. 2 protocol is specified anyway
// (every phase knows exactly who talks to whom).

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "mp/mailbox.hpp"
#include "mp/message.hpp"
#include "mp/virtual_clock.hpp"

namespace psanim::mp {

/// Cost of moving one message, as modeled by the cluster layer.
struct MsgCost {
  double send_cpu_s = 0.0;  ///< CPU time charged to the sender
  double wire_s = 0.0;      ///< latency + bytes/bandwidth on the link
  double recv_cpu_s = 0.0;  ///< CPU time charged to the receiver
};

/// Maps (src rank, dst rank, wire bytes) to a message cost. Supplied by
/// the cluster model; tests may use zero_cost_fn().
using LinkCostFn = std::function<MsgCost(int, int, std::size_t)>;

/// A cost function that charges nothing (pure functional testing).
LinkCostFn zero_cost_fn();

/// Per-endpoint traffic counters, used by the exchange-volume experiments
/// (§5.1 / §5.2 report KB exchanged per frame).
struct TrafficStats {
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;  ///< wire bytes including envelope
  std::uint64_t msgs_recv = 0;
  std::uint64_t bytes_recv = 0;

  TrafficStats& operator+=(const TrafficStats& o) {
    msgs_sent += o.msgs_sent;
    bytes_sent += o.bytes_sent;
    msgs_recv += o.msgs_recv;
    bytes_recv += o.bytes_recv;
    return *this;
  }
};

class Runtime;

class Endpoint {
 public:
  Endpoint(Runtime& rt, int rank);

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  int rank() const { return rank_; }
  int world_size() const;

  /// Blocking-send semantics: the payload is enqueued at the destination
  /// with a virtual arrival stamp; the sender is charged the send CPU
  /// overhead. (Buffered-send semantics, like MPI_Send on small/medium
  /// messages over an eager protocol.)
  void send(int dst, int tag, std::vector<std::byte> payload);
  void send(int dst, int tag, Writer&& w) { send(dst, tag, w.take()); }
  /// Zero-payload message (markers like end-of-transmission).
  void send_empty(int dst, int tag) {
    send(dst, tag, std::vector<std::byte>{});
  }

  /// Blocking receive; src/tag may be kAny. Advances the clock to the
  /// message's arrival and charges receive overhead.
  Message recv(int src = kAny, int tag = kAny);

  /// recv with a per-call wall-clock deadline; `timeout_s <= 0` inherits
  /// RuntimeOptions::recv_timeout_s. Protocol phases use this so a wedged
  /// peer fails the phase in seconds.
  Message recv_within(int src, int tag, double timeout_s);

  /// Receive exactly one message from every rank in `sources`, in the
  /// deterministic order given. Clock ends at
  /// max(arrivals) + sum(recv overheads) regardless of wall-clock order.
  std::vector<Message> recv_each(std::span<const int> sources, int tag);

  /// Non-blocking probe for a queued matching message.
  bool probe(int src = kAny, int tag = kAny) const;

  /// Virtual-time access.
  VirtualClock& clock() { return clock_; }
  const VirtualClock& clock() const { return clock_; }
  /// Convenience: charge modeled computation. A fault hook may scale the
  /// charge (per-rank compute slowdown).
  void charge(double seconds);

  /// Charge modeled storage I/O (checkpoint vault store/fetch under a
  /// platform disk model). Lands in the comm bucket and is deliberately
  /// not scaled by fault compute factors — a slow CPU does not slow DMA.
  void charge_io(double seconds) { clock_.charge_comm(seconds); }

  /// Frame number stamped onto fault-hook callbacks so injected faults
  /// land on the span stream against the right frame.
  void set_trace_frame(std::uint32_t frame) { trace_frame_ = frame; }
  std::uint32_t trace_frame() const { return trace_frame_; }

  const TrafficStats& traffic() const { return traffic_; }
  void reset_traffic() { traffic_ = TrafficStats{}; }

  /// Rank respawn bookkeeping: a role that dies and is re-seeded from a
  /// checkpoint on this endpoint's thread records it here; surfaced in
  /// ProcessResult::restarts.
  void note_restart() { ++restarts_; }
  std::uint32_t restarts() const { return restarts_; }

  /// Sequence number for collective operations; must advance identically
  /// on all ranks (collectives are called in the same order everywhere).
  int next_collective_tag();

 private:
  Runtime& rt_;
  int rank_;
  VirtualClock clock_;
  TrafficStats traffic_;
  int collective_seq_ = 0;
  std::uint32_t trace_frame_ = 0;
  std::uint32_t restarts_ = 0;
};

}  // namespace psanim::mp
