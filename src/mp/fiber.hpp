#pragma once

// Stackful fibers and the cooperative scheduler behind
// RuntimeOptions::ExecMode::kFibers.
//
// One model rank = one suspended fiber, not one OS thread. A fiber is a
// guard-paged stack plus a saved stack pointer; on x86-64 a hand-written
// switch (mp/fiber_switch_x86_64.S) moves between fibers by saving the
// callee-saved registers and the floating-point control state on the
// outgoing stack — no syscall per switch. Other targets fall back to
// ucontext (swapcontext), whose signal-mask save costs a syscall each way.
//
// A small pool of workers (default: hardware concurrency) drives the
// fibers. The thread that calls run() is worker 0; only workers - 1
// threads are spawned, so a one-worker run starts no thread at all. A
// worker pops the ready fiber with the smallest (virtual_time, rank, seq)
// key, switches into it, and runs it until it either finishes or blocks
// in a receive with no matching message queued. Blocking points that used
// to park a thread on the mailbox's condition variable become yield
// points into the scheduler; a matching push re-inserts the blocked fiber
// into the ready queue.
//
// Stacks come from a process-wide cache: a finished run returns its
// stacks (at most kFiberStackCacheCap of them, guard pages still armed)
// and the next run of the same stack size takes them back instead of
// mapping new ones. fiber_stack_stats() counts maps and reuses.
//
// Determinism: simulated results never depended on wall-clock scheduling
// in the first place — every observable quantity is a function of virtual
// arrival stamps and the mailbox's (arrive_time, src, seq) matching order,
// which are untouched here. The fiber core is therefore bit-identical to
// the thread-per-rank core for any worker count, including 1; the ordered
// ready queue additionally makes the *execution* order itself reproducible
// for a single worker, which the differential corpus test exploits.
//
// Deadlock detection: the per-receive wall-clock deadline of the threaded
// core is replaced by the scheduler's idle check. When every live fiber is
// suspended in a receive and the ready queue is empty, no message can ever
// arrive again — the scheduler times out the blocked fiber with the
// earliest virtual deadline (block-time virtual clock + its receive
// timeout, rank as tiebreak), which throws the same RecvTimeout the
// threaded core would have thrown, unwinding that fiber's stack. Repeated
// idles time out the remaining fibers one by one, so a wedged protocol
// fails loudly on every affected rank, exactly like wall-clock expiry did.
//
// Sanitizers: stacks are mmap'd with a PROT_NONE guard page, and every
// context switch carries the TSan fiber annotations
// (__tsan_create_fiber/__tsan_switch_to_fiber) and the ASan stack-switch
// annotations, so sanitizer builds stay green. A released stack is
// unpoisoned before it is reused or unmapped.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>

#include "mp/message.hpp"

namespace psanim::mp {

class Mailbox;

struct FiberSchedulerOptions {
  int workers = 0;  ///< workers, caller included; <= 0: hardware concurrency
  std::size_t stack_bytes = 0;  ///< per-fiber stack; 0 picks the default
};

/// Default per-fiber stack size (larger under sanitizer builds, whose
/// instrumented frames and redzones are fatter).
std::size_t default_fiber_stack_bytes();

/// Most stacks the process-wide cache keeps between runs; a run that
/// returns more unmaps the rest. 64 covers several concurrent farm jobs'
/// worlds while bounding what an idle process keeps resident.
inline constexpr std::size_t kFiberStackCacheCap = 64;

/// Process-wide fiber stack counters (shared by every scheduler, so read
/// them around your own window).
struct FiberStackStats {
  std::uint64_t maps = 0;    ///< stacks mmap'd (cache misses)
  std::uint64_t reuses = 0;  ///< stacks taken back from the cache
  std::size_t cached = 0;    ///< stacks parked in the cache right now
};
FiberStackStats fiber_stack_stats();

class FiberScheduler {
 public:
  FiberScheduler(int world_size, FiberSchedulerOptions options);
  ~FiberScheduler();

  FiberScheduler(const FiberScheduler&) = delete;
  FiberScheduler& operator=(const FiberScheduler&) = delete;

  /// Drive `rank_main(rank)` for every rank to completion on the worker
  /// pool, the calling thread being worker 0. `rank_main` must not throw
  /// (the runtime's wrapper captures body exceptions per rank). Callable
  /// exactly once.
  void run(const std::function<void(int)>& rank_main);

  /// Blocking receive for the calling fiber: pop the best match from
  /// `mbox`, yielding to the scheduler while no match is queued. Throws
  /// RecvTimeout (same text as Mailbox::pop_match) when the scheduler's
  /// idle check elects this fiber as the deadlock victim. `vnow` is the
  /// caller's virtual clock, used to order the ready queue and to pick
  /// deadlock victims deterministically.
  Message pop_match(Mailbox& mbox, int src, int tag, double timeout_s,
                    double vnow);

  /// Mailbox push notification (rank's inbox got a message): make the
  /// fiber ready if it is blocked, or leave a sticky wake token so an
  /// in-flight suspension re-checks its mailbox instead of parking.
  void notify_push(int rank);

  /// True when the calling thread is executing inside one of this
  /// scheduler's fibers (used to route Endpoint blocking).
  static bool on_fiber();

  int workers() const { return workers_count_; }

  struct Impl;  // implementation detail, defined in fiber.cpp

 private:
  Impl* impl_;
  int workers_count_ = 0;
};

}  // namespace psanim::mp
