#include "mp/fiber.hpp"

#include <unistd.h>

#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <iterator>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <vector>

#include "mp/mailbox.hpp"

// --- sanitizer fiber annotations -------------------------------------------

#if defined(__SANITIZE_THREAD__)
#define PSANIM_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PSANIM_TSAN_FIBERS 1
#endif
#endif

#if defined(__SANITIZE_ADDRESS__)
#define PSANIM_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PSANIM_ASAN_FIBERS 1
#endif
#endif

#if defined(PSANIM_TSAN_FIBERS)
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

#if defined(PSANIM_ASAN_FIBERS)
#include <pthread.h>
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save,
                                    const void* bottom, std::size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old,
                                     std::size_t* size_old);
void __asan_unpoison_memory_region(void const volatile* addr,
                                   std::size_t size);
}
#endif

// --- context switch ---------------------------------------------------------
//
// x86-64 uses the hand-written switch in fiber_switch_x86_64.S; every other
// target keeps ucontext. The choice is made here, at compile time.

#if defined(__x86_64__)
#define PSANIM_ASM_FIBER_SWITCH 1
extern "C" {
void psanim_fiber_switch(void** save_sp, void* load_sp);
void psanim_fiber_entry();
std::uint64_t psanim_fiber_fp_control();
}
#else
#include <ucontext.h>
#endif

namespace psanim::mp {

namespace {

constexpr bool sanitizer_build() {
#if defined(PSANIM_TSAN_FIBERS) || defined(PSANIM_ASAN_FIBERS)
  return true;
#else
  return false;
#endif
}

std::size_t page_size() {
  static const std::size_t ps =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return ps;
}

std::size_t round_up_pages(std::size_t bytes) {
  const std::size_t ps = page_size();
  return (bytes + ps - 1) / ps * ps;
}

/// A suspended execution context: where to switch to, to resume it.
struct Context {
#if defined(PSANIM_ASM_FIBER_SWITCH)
  void* sp = nullptr;
#else
  ucontext_t uc{};
#endif
};

/// Save the running context into `from` and resume `to`.
inline void jump(Context& from, Context& to) {
#if defined(PSANIM_ASM_FIBER_SWITCH)
  psanim_fiber_switch(&from.sp, to.sp);
#else
  ::swapcontext(&from.uc, &to.uc);
#endif
}

/// One guard-paged stack mapping: [guard page][usable stack...].
struct Stack {
  std::byte* map_base = nullptr;
  std::size_t map_bytes = 0;

  std::byte* lo() const { return map_base + page_size(); }
  std::size_t usable() const { return map_bytes - page_size(); }
};

/// The process-wide free list of fiber stacks, keyed by size. Mapping a
/// stack costs mmap + mprotect and its first touches fault pages in; a
/// farm launching thousands of small worlds pays that once per cached
/// stack instead of once per rank per launch.
class StackCache {
 public:
  StackCache() = default;
  StackCache(const StackCache&) = delete;
  StackCache& operator=(const StackCache&) = delete;
  ~StackCache() {
    for (const Stack& s : free_) ::munmap(s.map_base, s.map_bytes);
  }

  Stack acquire(std::size_t usable_bytes) {
    const std::size_t map_bytes = page_size() + usable_bytes;
    {
      const std::scoped_lock lock(mu_);
      // Newest first: its pages are the likeliest to still be warm.
      for (auto it = free_.rbegin(); it != free_.rend(); ++it) {
        if (it->map_bytes != map_bytes) continue;
        const Stack s = *it;
        free_.erase(std::next(it).base());
        ++stats_.reuses;
        return s;
      }
    }
    const Stack s = map(map_bytes);
    const std::scoped_lock lock(mu_);
    ++stats_.maps;
    return s;
  }

  void release(const Stack& s) {
    // A fiber never returns from its last switch, so its frames' ASan
    // redzones stay poisoned. Clear them before the stack is reused, or
    // unmapped: a later mapping at the same address would inherit them.
#if defined(PSANIM_ASAN_FIBERS)
    __asan_unpoison_memory_region(s.lo(), s.usable());
#endif
    {
      const std::scoped_lock lock(mu_);
      if (free_.size() < kFiberStackCacheCap) {
        free_.push_back(s);
        return;
      }
    }
    ::munmap(s.map_base, s.map_bytes);
  }

  FiberStackStats stats() {
    const std::scoped_lock lock(mu_);
    FiberStackStats out = stats_;
    out.cached = free_.size();
    return out;
  }

 private:
  static Stack map(std::size_t map_bytes) {
#if defined(MAP_STACK)
    constexpr int extra_flags = MAP_STACK;
#else
    constexpr int extra_flags = 0;
#endif
    void* base = ::mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | extra_flags, -1, 0);
    if (base == MAP_FAILED) {
      throw std::system_error(errno, std::generic_category(),
                              "FiberScheduler: mmap of a fiber stack failed "
                              "(lower RuntimeOptions::fiber_stack_bytes or "
                              "the world size)");
    }
    // Guard page at the low end: stack overflow faults loudly instead of
    // silently corrupting the neighboring fiber's stack. It stays armed
    // while the stack sits in the cache.
    if (::mprotect(base, page_size(), PROT_NONE) != 0) {
      const int err = errno;
      ::munmap(base, map_bytes);
      throw std::system_error(err, std::generic_category(),
                              "FiberScheduler: mprotect of a fiber stack "
                              "guard page failed");
    }
    return Stack{static_cast<std::byte*>(base), map_bytes};
  }

  std::mutex mu_;
  std::vector<Stack> free_;
  FiberStackStats stats_;
};

StackCache& stack_cache() {
  static StackCache cache;
  return cache;
}

}  // namespace

std::size_t default_fiber_stack_bytes() {
  // 256 KiB holds the deepest role frames (Calculator + render splat path)
  // with an order of magnitude to spare; instrumented builds get double
  // for redzones and fatter frames. Stacks are lazily committed anonymous
  // pages, so a 1000-rank world reserves virtual space only.
  return sanitizer_build() ? 512u * 1024u : 256u * 1024u;
}

FiberStackStats fiber_stack_stats() { return stack_cache().stats(); }

/// One rank's execution context: a guard-paged stack plus the context it
/// is suspended in.
struct Fiber {
  enum class State : std::uint8_t {
    kReady,     ///< in the ready queue (or being handed to a worker)
    kRunning,   ///< executing on some worker right now
    kBlocked,   ///< suspended in pop_match, waiting for a mailbox push
    kFinished,  ///< rank_main returned; never scheduled again
  };

  int rank = 0;
  State state = State::kReady;  // guarded by the scheduler mutex
  Context ctx;

  // Block metadata, written by the fiber right before it suspends and
  // published to other threads by the worker's post-switch bookkeeping
  // (same OS thread) under the scheduler mutex.
  int blk_src = kAny;
  int blk_tag = kAny;
  double blk_timeout_s = 0.0;
  double blk_vtime = 0.0;
  bool want_block = false;  ///< fiber asked to suspend (vs finished)
  bool timed_out = false;   ///< set by the deadlock victim pick
  /// Sticky wake token: a push arrived while the fiber was not (yet)
  /// parked; the next suspension attempt re-checks the mailbox instead.
  bool wake_pending = false;

  Stack stack;  ///< from the stack cache; map_base null when not held

  const std::function<void(int)>* entry = nullptr;
  FiberScheduler::Impl* sched = nullptr;

#if defined(PSANIM_TSAN_FIBERS)
  void* tsan_fiber = nullptr;
#endif
#if defined(PSANIM_ASAN_FIBERS)
  void* asan_fake_stack = nullptr;
#endif
};

namespace {

/// The fiber currently executing on this worker thread (null outside the
/// scheduler). Set around every context switch into a fiber.
thread_local Fiber* tl_current_fiber = nullptr;

struct ReadyKey {
  double vtime = 0.0;
  int rank = 0;
  std::uint64_t seq = 0;

  bool operator<(const ReadyKey& o) const {
    if (vtime != o.vtime) return vtime < o.vtime;
    if (rank != o.rank) return rank < o.rank;
    return seq < o.seq;
  }
};

struct ReadyEntry {
  ReadyKey key;
  Fiber* fiber = nullptr;
};

struct ReadyLater {
  // priority_queue pops the *largest*; invert to get the smallest key.
  bool operator()(const ReadyEntry& a, const ReadyEntry& b) const {
    return b.key < a.key;
  }
};

}  // namespace

struct FiberScheduler::Impl {
  const int world;
  const std::size_t stack_bytes;
  int workers = 1;

  std::mutex mu;
  std::condition_variable cv;
  std::priority_queue<ReadyEntry, std::vector<ReadyEntry>, ReadyLater> ready;
  std::uint64_t ready_seq = 0;  ///< monotone enqueue ordinal (guarded by mu)
  int running = 0;   ///< popped from ready, not yet re-parked/finished
  int finished = 0;  ///< fibers whose rank_main returned

  std::vector<Fiber> fibers;

  explicit Impl(int world_size, std::size_t stack)
      : world(world_size), stack_bytes(round_up_pages(stack)) {}

  // --- stack + context plumbing --------------------------------------------

  void release(Fiber& f) {
    if (f.stack.map_base != nullptr) {
      stack_cache().release(f.stack);
      f.stack = Stack{};
    }
#if defined(PSANIM_TSAN_FIBERS)
    if (f.tsan_fiber != nullptr) {
      __tsan_destroy_fiber(f.tsan_fiber);
      f.tsan_fiber = nullptr;
    }
#endif
  }

  static void trampoline(Fiber* f);

  void prepare(Fiber& f, const std::function<void(int)>& rank_main) {
    f.stack = stack_cache().acquire(stack_bytes);
    f.entry = &rank_main;
    f.sched = this;
#if defined(PSANIM_TSAN_FIBERS)
    f.tsan_fiber = __tsan_create_fiber(0);
#endif
#if defined(PSANIM_ASM_FIBER_SWITCH)
    // The first switch into the fiber pops this frame (see the layout in
    // fiber_switch_x86_64.S) and "returns" into psanim_fiber_entry, which
    // calls r13(r12) = trampoline(&f). The frame sits 16 bytes below the
    // 16-aligned top so that call lands with the ABI's stack alignment;
    // rbp = 0 ends frame-pointer walks.
    const auto top = reinterpret_cast<std::uintptr_t>(f.stack.lo() +
                                                      f.stack.usable()) &
                     ~std::uintptr_t{15};
    auto* frame = reinterpret_cast<std::uint64_t*>(top) - 2 - 8;
    frame[0] = psanim_fiber_fp_control();  // creator's rounding modes
    frame[1] = 0;                          // r15
    frame[2] = 0;                          // r14
    frame[3] = reinterpret_cast<std::uint64_t>(&trampoline);  // r13
    frame[4] = reinterpret_cast<std::uint64_t>(&f);           // r12
    frame[5] = 0;                                              // rbx
    frame[6] = 0;                                              // rbp
    frame[7] = reinterpret_cast<std::uint64_t>(&psanim_fiber_entry);
    f.ctx.sp = frame;
#else
    if (::getcontext(&f.ctx.uc) != 0) {
      throw std::system_error(errno, std::generic_category(),
                              "FiberScheduler: getcontext failed");
    }
    f.ctx.uc.uc_stack.ss_sp = f.stack.lo();
    f.ctx.uc.uc_stack.ss_size = f.stack.usable();
    // No uc_link: a fiber may finish on a different worker thread than the
    // one that created it, so the return context is always the *current*
    // worker's, reached explicitly through switch_out_of_fiber.
    f.ctx.uc.uc_link = nullptr;
    const auto p = reinterpret_cast<std::uintptr_t>(&f);
    // makecontext's int-args contract: smuggle the Fiber* as two unsigned
    // halves (the void* hop silences -Wcast-function-type).
    ::makecontext(&f.ctx.uc,
                  reinterpret_cast<void (*)()>(
                      reinterpret_cast<void*>(&ucontext_entry)),
                  2, static_cast<unsigned>(p >> 32),
                  static_cast<unsigned>(p & 0xffffffffu));
#endif
  }

#if !defined(PSANIM_ASM_FIBER_SWITCH)
  static void ucontext_entry(unsigned hi, unsigned lo) {
    trampoline(reinterpret_cast<Fiber*>(
        (static_cast<std::uintptr_t>(hi) << 32) |
        static_cast<std::uintptr_t>(lo)));
  }
#endif

  // Per-worker return context (the worker's own stack). tl lifetime spans
  // the worker's whole loop, so fibers can always switch back to it.
  struct WorkerCtx {
    Context ctx;
#if defined(PSANIM_TSAN_FIBERS)
    void* tsan_fiber = nullptr;
#endif
#if defined(PSANIM_ASAN_FIBERS)
    const void* stack_bottom = nullptr;
    std::size_t stack_size = 0;
    void* fake_stack = nullptr;
#endif
  };
  static thread_local WorkerCtx* tl_worker;

  /// Worker side: run `f` until it suspends or finishes.
  void switch_into(Fiber* f, WorkerCtx& w) {
    tl_current_fiber = f;
#if defined(PSANIM_ASAN_FIBERS)
    __sanitizer_start_switch_fiber(&w.fake_stack, f->stack.lo(),
                                   f->stack.usable());
#endif
#if defined(PSANIM_TSAN_FIBERS)
    __tsan_switch_to_fiber(f->tsan_fiber, 0);
#endif
    jump(w.ctx, f->ctx);
#if defined(PSANIM_ASAN_FIBERS)
    __sanitizer_finish_switch_fiber(w.fake_stack, nullptr, nullptr);
#endif
    tl_current_fiber = nullptr;
  }

  /// Fiber side: suspend back to the owning worker. `dying` frees the
  /// ASan fake stack (the fiber never runs again).
  static void switch_out_of_fiber(Fiber* f, bool dying) {
    WorkerCtx& w = *tl_worker;
#if defined(PSANIM_ASAN_FIBERS)
    __sanitizer_start_switch_fiber(dying ? nullptr : &f->asan_fake_stack,
                                   w.stack_bottom, w.stack_size);
#else
    (void)dying;
#endif
#if defined(PSANIM_TSAN_FIBERS)
    __tsan_switch_to_fiber(w.tsan_fiber, 0);
#endif
    jump(f->ctx, w.ctx);
    // Resumed (possibly on a different worker thread).
#if defined(PSANIM_ASAN_FIBERS)
    __sanitizer_finish_switch_fiber(f->asan_fake_stack, nullptr, nullptr);
#endif
  }

  // --- scheduling ----------------------------------------------------------

  /// Caller holds mu.
  void make_ready(Fiber* f, double vtime) {
    f->state = Fiber::State::kReady;
    ready.push(ReadyEntry{ReadyKey{vtime, f->rank, ready_seq++}, f});
    cv.notify_one();
  }

  /// All live fibers are suspended and nothing is ready: no push can ever
  /// arrive, so the protocol is deadlocked. Elect the blocked fiber with
  /// the earliest virtual deadline (block-time clock + receive timeout,
  /// rank as tiebreak) and resume it with the timeout flag set — it
  /// throws the same RecvTimeout wall-clock expiry used to. Caller holds
  /// mu. Repeated idles drain the remaining victims one by one.
  void time_out_victim() {
    Fiber* victim = nullptr;
    for (auto& f : fibers) {
      if (f.state != Fiber::State::kBlocked) continue;
      if (victim == nullptr) {
        victim = &f;
        continue;
      }
      const double fd = f.blk_vtime + f.blk_timeout_s;
      const double vd = victim->blk_vtime + victim->blk_timeout_s;
      if (fd < vd || (fd == vd && f.rank < victim->rank)) victim = &f;
    }
    // Invariant: running == 0 && ready.empty() && finished < world implies
    // at least one blocked fiber exists (kReady fibers are always in the
    // queue). A null victim would mean scheduler state corruption.
    if (victim == nullptr) std::abort();
    victim->timed_out = true;
    make_ready(victim, victim->blk_vtime);
  }

  /// Post-switch bookkeeping for a fiber that just yielded back. Caller
  /// holds mu. The fiber has fully switched off its stack by now, so it is
  /// safe for another worker to resume it the moment it turns kReady.
  void park_or_finish(Fiber* f) {
    if (!f->want_block) {
      f->state = Fiber::State::kFinished;
      ++finished;
      if (finished == world) cv.notify_all();
      return;
    }
    f->want_block = false;
    if (f->wake_pending) {
      // A push raced the suspension: don't park, re-run the mailbox check.
      f->wake_pending = false;
      make_ready(f, f->blk_vtime);
      return;
    }
    f->state = Fiber::State::kBlocked;
  }

  void worker_main() {
    // The calling thread of run() is a worker too, and may itself be a
    // fiber of an enclosing scheduler (a runtime started from a rank
    // body): put its thread-locals back when this loop ends.
    struct RestoreThreadLocals {
      WorkerCtx* worker = tl_worker;
      Fiber* fiber = tl_current_fiber;
      ~RestoreThreadLocals() {
        tl_worker = worker;
        tl_current_fiber = fiber;
      }
    } restore;

    WorkerCtx w;
#if defined(PSANIM_TSAN_FIBERS)
    w.tsan_fiber = __tsan_get_current_fiber();
#endif
#if defined(PSANIM_ASAN_FIBERS)
    // ASan needs the worker's real stack bounds to switch back onto it:
    // the enclosing fiber's stack, or the thread's own.
    if (restore.fiber != nullptr) {
      w.stack_bottom = restore.fiber->stack.lo();
      w.stack_size = restore.fiber->stack.usable();
    } else {
      pthread_attr_t attr;
      if (pthread_getattr_np(pthread_self(), &attr) == 0) {
        void* base = nullptr;
        std::size_t size = 0;
        pthread_attr_getstack(&attr, &base, &size);
        w.stack_bottom = base;
        w.stack_size = size;
        pthread_attr_destroy(&attr);
      }
    }
#endif
    tl_worker = &w;

    std::unique_lock lock(mu);
    for (;;) {
      cv.wait(lock, [&] {
        return !ready.empty() || running == 0 || finished == world;
      });
      if (!ready.empty()) {
        Fiber* f = ready.top().fiber;
        ready.pop();
        f->state = Fiber::State::kRunning;
        ++running;
        lock.unlock();
        switch_into(f, w);
        lock.lock();
        --running;
        park_or_finish(f);
        continue;
      }
      if (finished == world) return;
      // ready empty, running == 0, fibers remain: protocol deadlock.
      time_out_victim();
    }
  }

  void run(const std::function<void(int)>& rank_main) {
    fibers.resize(static_cast<std::size_t>(world));
    try {
      for (int r = 0; r < world; ++r) {
        Fiber& f = fibers[static_cast<std::size_t>(r)];
        f.rank = r;
        prepare(f, rank_main);
      }
    } catch (...) {
      for (auto& f : fibers) release(f);
      throw;
    }
    {
      const std::scoped_lock lock(mu);
      for (auto& f : fibers) make_ready(&f, 0.0);
    }
    {
      // The caller is worker 0; only the others get threads.
      std::vector<std::jthread> pool;
      pool.reserve(static_cast<std::size_t>(workers - 1));
      for (int i = 1; i < workers; ++i) {
        pool.emplace_back([this] { worker_main(); });
      }
      worker_main();
    }
    for (auto& f : fibers) release(f);
  }

  Message pop_match(Mailbox& mbox, int src, int tag, double timeout_s,
                    double vnow) {
    Fiber* f = tl_current_fiber;
    for (;;) {
      if (auto m = mbox.try_pop_match(src, tag)) return std::move(*m);
      f->blk_src = src;
      f->blk_tag = tag;
      f->blk_timeout_s = timeout_s;
      f->blk_vtime = vnow;
      f->want_block = true;
      switch_out_of_fiber(f, /*dying=*/false);
      if (f->timed_out) {
        f->timed_out = false;
        throw_recv_timeout(src, tag);
      }
    }
  }

  void notify_push(int rank) {
    const std::scoped_lock lock(mu);
    Fiber& f = fibers[static_cast<std::size_t>(rank)];
    if (f.state == Fiber::State::kBlocked) {
      // Resume at its block-time virtual clock: the ready queue stays
      // ordered by how far each rank's own timeline has advanced.
      make_ready(&f, f.blk_vtime);
    } else if (f.state != Fiber::State::kFinished) {
      f.wake_pending = true;
    }
  }
};

thread_local FiberScheduler::Impl::WorkerCtx* FiberScheduler::Impl::tl_worker =
    nullptr;

void FiberScheduler::Impl::trampoline(Fiber* f) {
#if defined(PSANIM_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
  (*f->entry)(f->rank);
  // Suspend for the last time; park_or_finish sees want_block == false and
  // retires the fiber. Never returns.
  f->want_block = false;
  switch_out_of_fiber(f, /*dying=*/true);
  std::abort();  // unreachable: finished fibers are never rescheduled
}

FiberScheduler::FiberScheduler(int world_size, FiberSchedulerOptions options)
    : impl_(nullptr) {
  if (world_size <= 0) {
    throw std::invalid_argument("FiberScheduler: world_size must be positive");
  }
  const std::size_t stack =
      options.stack_bytes > 0 ? options.stack_bytes
                              : default_fiber_stack_bytes();
  impl_ = new Impl(world_size, stack);
  int w = options.workers;
  if (w <= 0) {
    w = static_cast<int>(std::thread::hardware_concurrency());
    if (w <= 0) w = 1;
  }
  // More workers than ranks just park on the condition variable.
  impl_->workers = std::clamp(w, 1, world_size);
  workers_count_ = impl_->workers;
}

FiberScheduler::~FiberScheduler() { delete impl_; }

void FiberScheduler::run(const std::function<void(int)>& rank_main) {
  impl_->run(rank_main);
}

Message FiberScheduler::pop_match(Mailbox& mbox, int src, int tag,
                                  double timeout_s, double vnow) {
  return impl_->pop_match(mbox, src, tag, timeout_s, vnow);
}

void FiberScheduler::notify_push(int rank) { impl_->notify_push(rank); }

bool FiberScheduler::on_fiber() { return tl_current_fiber != nullptr; }

}  // namespace psanim::mp
