// Tests for the message-passing runtime: serialization, mailbox matching,
// virtual-time semantics (including MPI-style non-overtaking), collectives
// and determinism of simulated makespans under real thread scheduling.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cfenv>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>

#include "core/wire.hpp"
#include "mp/buffer_pool.hpp"
#include "mp/collectives.hpp"
#include "mp/communicator.hpp"
#include "mp/fiber.hpp"
#include "mp/mailbox.hpp"
#include "mp/message.hpp"
#include "mp/runtime.hpp"
#include "mp/virtual_clock.hpp"

namespace psanim::mp {
namespace {

// --- serialization ---

TEST(WriterReader, PodRoundTrip) {
  Writer w;
  w.put<std::int32_t>(-7);
  w.put<double>(3.25);
  w.put<float>(1.5f);
  Reader r{std::span<const std::byte>(w.bytes())};
  EXPECT_EQ(r.get<std::int32_t>(), -7);
  EXPECT_DOUBLE_EQ(r.get<double>(), 3.25);
  EXPECT_FLOAT_EQ(r.get<float>(), 1.5f);
  EXPECT_TRUE(r.done());
}

TEST(WriterReader, VectorRoundTrip) {
  Writer w;
  const std::vector<std::uint16_t> v{1, 2, 3, 65535};
  w.put_vector(v);
  Reader r{std::span<const std::byte>(w.bytes())};
  EXPECT_EQ(r.get_vector<std::uint16_t>(), v);
}

TEST(WriterReader, EmptyVectorRoundTrip) {
  Writer w;
  w.put_vector(std::vector<double>{});
  Reader r{std::span<const std::byte>(w.bytes())};
  EXPECT_TRUE(r.get_vector<double>().empty());
  EXPECT_TRUE(r.done());
}

TEST(Reader, ThrowsOnShortPayload) {
  Writer w;
  w.put<std::uint16_t>(1);
  Reader r{std::span<const std::byte>(w.bytes())};
  EXPECT_THROW(r.get<std::uint64_t>(), DecodeError);
}

TEST(Reader, ThrowsOnOverlongVectorLength) {
  Writer w;
  w.put<std::uint64_t>(1'000'000);  // claims a million entries, has none
  Reader r{std::span<const std::byte>(w.bytes())};
  EXPECT_THROW(r.get_vector<std::uint32_t>(), DecodeError);
}

// --- virtual clock ---

TEST(VirtualClock, ChargesAccumulate) {
  VirtualClock c;
  c.charge_compute(1.0);
  c.charge_comm(0.25);
  EXPECT_DOUBLE_EQ(c.now(), 1.25);
  EXPECT_DOUBLE_EQ(c.compute_seconds(), 1.0);
  EXPECT_DOUBLE_EQ(c.comm_seconds(), 0.25);
}

TEST(VirtualClock, AdvanceNeverGoesBackwards) {
  VirtualClock c;
  c.charge_compute(2.0);
  c.advance_to(1.0);  // in the past: no-op
  EXPECT_DOUBLE_EQ(c.now(), 2.0);
  EXPECT_DOUBLE_EQ(c.wait_seconds(), 0.0);
  c.advance_to(5.0);
  EXPECT_DOUBLE_EQ(c.now(), 5.0);
  EXPECT_DOUBLE_EQ(c.wait_seconds(), 3.0);
}

// --- mailbox ---

Message make_msg(int src, int tag, double arrive, std::uint64_t seq = 0) {
  Message m;
  m.src = src;
  m.tag = tag;
  m.arrive_time = arrive;
  m.seq = seq;
  return m;
}

TEST(Mailbox, MatchesBySrcAndTag) {
  Mailbox box;
  box.push(make_msg(1, 10, 0.0));
  box.push(make_msg(2, 20, 0.0));
  EXPECT_EQ(box.pop_match(2, kAny, 1.0).tag, 20);
  EXPECT_EQ(box.pop_match(kAny, 10, 1.0).src, 1);
}

TEST(Mailbox, PicksEarliestVirtualArrival) {
  Mailbox box;
  box.push(make_msg(1, 5, /*arrive=*/3.0, 0));
  box.push(make_msg(2, 5, /*arrive=*/1.0, 1));
  box.push(make_msg(3, 5, /*arrive=*/2.0, 2));
  EXPECT_EQ(box.pop_match(kAny, 5, 1.0).src, 2);
  EXPECT_EQ(box.pop_match(kAny, 5, 1.0).src, 3);
  EXPECT_EQ(box.pop_match(kAny, 5, 1.0).src, 1);
}

TEST(Mailbox, TieBreaksBySrcThenSeq) {
  Mailbox box;
  box.push(make_msg(4, 5, 1.0, 9));
  box.push(make_msg(2, 5, 1.0, 8));
  box.push(make_msg(2, 5, 1.0, 3));
  EXPECT_EQ(box.pop_match(kAny, 5, 1.0).seq, 3u);
  EXPECT_EQ(box.pop_match(kAny, 5, 1.0).seq, 8u);
  EXPECT_EQ(box.pop_match(kAny, 5, 1.0).src, 4);
}

TEST(Mailbox, TimeoutThrows) {
  Mailbox box;
  box.push(make_msg(1, 7, 0.0));
  EXPECT_THROW(box.pop_match(1, 99, 0.05), RecvTimeout);
  EXPECT_EQ(box.size(), 1u);  // non-matching message untouched
}

TEST(Mailbox, ProbeAndTryPop) {
  Mailbox box;
  EXPECT_FALSE(box.probe(kAny, kAny));
  EXPECT_EQ(box.try_pop_match(kAny, kAny), std::nullopt);
  box.push(make_msg(1, 7, 0.0));
  EXPECT_TRUE(box.probe(1, 7));
  EXPECT_FALSE(box.probe(1, 8));
  auto m = box.try_pop_match(1, 7);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(box.size(), 0u);
}

TEST(Mailbox, OutOfOrderArrivalsStillPopSorted) {
  // Direct pushes with shuffled arrive times exercise the general
  // binary-search insert (the runtime's non-overtaking pushes only hit
  // the append fast path).
  std::vector<double> arrivals;
  for (int i = 0; i < 64; ++i) arrivals.push_back(0.125 * ((i * 37) % 64));
  Mailbox box;
  for (int i = 0; i < 64; ++i) {
    box.push(make_msg(/*src=*/i % 3, /*tag=*/5, arrivals[i],
                      static_cast<std::uint64_t>(i)));
  }
  double prev = -1.0;
  for (int i = 0; i < 64; ++i) {
    const Message m = box.pop_match(kAny, kAny, 1.0);
    EXPECT_GE(m.arrive_time, prev);
    prev = m.arrive_time;
  }
  EXPECT_EQ(box.size(), 0u);
}

TEST(Mailbox, ExactReceivesExamineOneRingWhateverElseIsQueued) {
  // The protocol's known-sender receives must not pay for the depth of
  // the inbox: with 512 other streams queued, every exact (src, tag) pop
  // looks at exactly one ring. Counted, not timed, so the gate holds on
  // any host.
  constexpr int kSrcs = 64;
  constexpr int kTags = 8;
  constexpr int kPerStream = 4;
  Mailbox box;
  std::uint64_t seq = 0;
  for (int k = 0; k < kPerStream; ++k) {
    for (int src = 0; src < kSrcs; ++src) {
      for (int tag = 0; tag < kTags; ++tag) {
        box.push(make_msg(src, 200 + tag, 1e-6 * static_cast<double>(seq),
                          seq));
        ++seq;
      }
    }
  }
  const std::uint64_t before = box.rings_examined();
  for (int k = 0; k < kPerStream; ++k) {
    for (int src = kSrcs - 1; src >= 0; --src) {
      for (int tag = 0; tag < kTags; ++tag) {
        ASSERT_TRUE(box.try_pop_match(src, 200 + tag).has_value());
      }
    }
  }
  EXPECT_EQ(box.rings_examined() - before, seq);
  EXPECT_EQ(box.size(), 0u);

  // The witness sees scans: a full wildcard compares every stream.
  for (int src = 0; src < kSrcs; ++src) {
    for (int tag = 0; tag < kTags; ++tag) {
      box.push(make_msg(src, 200 + tag, 1.0, seq++));
    }
  }
  const std::uint64_t scan_from = box.rings_examined();
  ASSERT_TRUE(box.try_pop_match(kAny, kAny).has_value());
  EXPECT_EQ(box.rings_examined() - scan_from,
            static_cast<std::uint64_t>(kSrcs * kTags));
}

TEST(Mailbox, ThreadedPushesAlwaysPopInVirtualOrder) {
  // Property: however the OS schedules the pushing threads, draining the
  // mailbox always yields the global (arrive_time, src, seq) order. Each
  // thread's arrive times are nondecreasing (the runtime's non-overtaking
  // property) and quantized so cross-thread ties are common.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  for (int round = 0; round < 5; ++round) {
    Mailbox box;
    std::vector<std::thread> pushers;
    for (int t = 0; t < kThreads; ++t) {
      pushers.emplace_back([&box, t, round] {
        std::mt19937 gen(static_cast<unsigned>(100 * round + t));
        std::uniform_int_distribution<int> step(0, 3);
        double at = 0.0;
        for (int i = 0; i < kPerThread; ++i) {
          at += 0.25 * step(gen);
          Message m = make_msg(t, 50 + (i % 3), at,
                               static_cast<std::uint64_t>(i));
          box.push(std::move(m));
        }
      });
    }
    for (auto& th : pushers) th.join();

    auto prev = std::make_tuple(-1.0, -1, std::uint64_t{0});
    for (int i = 0; i < kThreads * kPerThread; ++i) {
      const Message m = box.pop_match(kAny, kAny, 1.0);
      const auto cur = std::make_tuple(m.arrive_time, m.src, m.seq);
      EXPECT_LT(prev, cur) << "pop " << i << " out of order in round "
                           << round;
      prev = cur;
    }
    EXPECT_EQ(box.size(), 0u);

    // Exact-match receives (the protocol's hot path) drain each (src, tag)
    // stream in its own (arrive_time, seq) order.
    std::vector<std::thread> refill;
    for (int t = 0; t < kThreads; ++t) {
      refill.emplace_back([&box, t, round] {
        std::mt19937 gen(static_cast<unsigned>(100 * round + t));
        std::uniform_int_distribution<int> step(0, 3);
        double at = 0.0;
        for (int i = 0; i < kPerThread; ++i) {
          at += 0.25 * step(gen);
          box.push(make_msg(t, 50 + (i % 3), at,
                            static_cast<std::uint64_t>(i)));
        }
      });
    }
    for (auto& th : refill) th.join();
    for (int t = 0; t < kThreads; ++t) {
      for (int tag = 50; tag < 53; ++tag) {
        auto sprev = std::make_pair(-1.0, std::uint64_t{0});
        while (auto m = box.try_pop_match(t, tag)) {
          EXPECT_EQ(m->src, t);
          EXPECT_EQ(m->tag, tag);
          const auto cur = std::make_pair(m->arrive_time, m->seq);
          EXPECT_LT(sprev, cur);
          sprev = cur;
        }
      }
    }
    EXPECT_EQ(box.size(), 0u);
  }
}

TEST(Mailbox, TimeoutScaleOverrideAndDefault) {
  override_timeout_scale(3.5);
  EXPECT_DOUBLE_EQ(timeout_scale(), 3.5);
  override_timeout_scale(0.0);  // back to the environment-derived default
  EXPECT_GE(timeout_scale(), 1.0);
}

TEST(Mailbox, TimeoutScaleStretchesOrShrinksDeadline) {
  // With a tiny scale a nominally long timeout fires almost immediately —
  // observable without waiting out a long deadline.
  override_timeout_scale(0.01);
  Mailbox box;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(box.pop_match(0, 0, 5.0), RecvTimeout);  // 50 ms scaled
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  override_timeout_scale(0.0);
  EXPECT_LT(waited, 2.5);
}

// --- buffer pool ---

TEST(BufferPool, RecyclesBuffersBySizeClass) {
  BufferPool pool;  // local instance: independent of the global pool
  auto a = pool.acquire(100);
  EXPECT_GE(a.capacity(), 100u);
  EXPECT_EQ(pool.stats().misses, 1u);
  pool.release(std::move(a));
  auto b = pool.acquire(100);  // same size class: served from cache
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().acquires, 2u);
  pool.release(std::move(b));
  EXPECT_EQ(pool.cached_buffers(), 1u);
  pool.trim();
  EXPECT_EQ(pool.cached_buffers(), 0u);
}

TEST(BufferPool, GrowPreservesContents) {
  BufferPool pool;
  std::vector<std::byte> buf = pool.acquire(64);
  buf.push_back(std::byte{0xAB});
  buf.push_back(std::byte{0xCD});
  pool.grow(buf, 1 << 12);
  ASSERT_GE(buf.capacity(), std::size_t{1} << 12);
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf[0], std::byte{0xAB});
  EXPECT_EQ(buf[1], std::byte{0xCD});
  pool.release(std::move(buf));
}

TEST(BufferPool, DisabledModeBypassesCaching) {
  BufferPool pool;
  pool.set_enabled(false);
  auto a = pool.acquire(64);
  pool.release(std::move(a));
  EXPECT_EQ(pool.cached_buffers(), 0u);
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().dropped, 1u);
  pool.set_enabled(true);
  auto b = pool.acquire(64);
  pool.release(std::move(b));
  EXPECT_EQ(pool.cached_buffers(), 1u);
}

TEST(BufferPool, OversizeRequestsBypassThePool) {
  BufferPool pool;
  auto big = pool.acquire((std::size_t{1} << 24) + 1);
  pool.release(std::move(big));
  EXPECT_EQ(pool.cached_buffers(), 0u);
  EXPECT_EQ(pool.stats().dropped, 1u);
}

TEST(BufferPool, SteadyStateMessagePathAllocatesZero) {
  // A strict ping-pong keeps at most one payload live per direction, so
  // the second run's buffer demand is identical to the first's — every
  // acquire must be served from the pool, and every buffer must come back
  // (no leaks out of the recycle loop).
  auto& pool = BufferPool::global();
  const bool was_enabled = pool.enabled();
  pool.set_enabled(true);
  pool.trim();

  auto ping_pong = [] {
    Runtime rt(2, zero_cost_fn());
    rt.run([](Endpoint& ep) {
      std::vector<std::uint8_t> blob(1024, 7);
      for (int i = 0; i < 20; ++i) {
        if (ep.rank() == 0) {
          Writer w;
          w.put_vector(blob);
          ep.send(1, 40, std::move(w));
          (void)ep.recv(1, 41);
        } else {
          (void)ep.recv(0, 40);
          Writer w;
          w.put_vector(blob);
          ep.send(0, 41, std::move(w));
        }
      }
    });
  };

  ping_pong();  // warm the pool
  pool.reset_stats();
  ping_pong();  // steady state: zero heap allocations on the message path
  const BufferPool::Stats s = pool.stats();
  EXPECT_GT(s.acquires, 0u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.releases, s.acquires);  // every buffer returned to the pool

  // The crosser exchange's codec round trip (encode_batches -> payload ->
  // decode_batches): warm, it allocates nothing with the pool on, and the
  // same traffic with the pool off pays one heap allocation per acquire.
  std::vector<core::SystemBatch> batches(1);
  batches[0].particles.resize(4096);
  for (std::size_t i = 0; i < batches[0].particles.size(); ++i) {
    batches[0].particles[i].pos = {static_cast<float>(i), 1.0f, 2.0f};
  }
  auto round_trips = [&] {
    for (int rep = 0; rep < 5; ++rep) {
      Message m;
      m.payload = core::encode_batches(3, batches).take();
      ASSERT_EQ(core::decode_batches(m, 3).size(), 1u);
    }
  };
  round_trips();  // warm the pool
  pool.reset_stats();
  round_trips();
  const BufferPool::Stats pooled = pool.stats();
  pool.set_enabled(false);
  pool.reset_stats();
  round_trips();
  const BufferPool::Stats unpooled = pool.stats();
  EXPECT_GT(pooled.acquires, 0u);
  EXPECT_EQ(pooled.misses, 0u);
  EXPECT_GT(unpooled.misses, 0u);
  EXPECT_EQ(unpooled.misses, unpooled.acquires);  // every acquire allocates
  EXPECT_LE(2 * pooled.misses, unpooled.misses);
  pool.set_enabled(was_enabled);
}

// --- runtime / endpoint ---

TEST(Runtime, RejectsBadArguments) {
  EXPECT_THROW(Runtime(0, zero_cost_fn()), std::invalid_argument);
  EXPECT_THROW(Runtime(2, LinkCostFn{}), std::invalid_argument);
}

TEST(Runtime, PingPongDeliversPayload) {
  Runtime rt(2, zero_cost_fn());
  rt.run([](Endpoint& ep) {
    if (ep.rank() == 0) {
      Writer w;
      w.put<std::int32_t>(42);
      ep.send(1, 7, std::move(w));
      const Message reply = ep.recv(1, 8);
      Reader r(reply);
      EXPECT_EQ(r.get<std::int32_t>(), 43);
    } else {
      const Message m = ep.recv(0, 7);
      Reader r(m);
      Writer w;
      w.put<std::int32_t>(r.get<std::int32_t>() + 1);
      ep.send(0, 8, std::move(w));
    }
  });
}

TEST(Runtime, ExceptionInBodyPropagates) {
  Runtime rt(2, zero_cost_fn());
  EXPECT_THROW(rt.run([](Endpoint& ep) {
                 if (ep.rank() == 1) throw std::runtime_error("boom");
               }),
               std::runtime_error);
}

TEST(Runtime, RecvTimesOutOnMissingMessage) {
  Runtime rt(1, zero_cost_fn(), RuntimeOptions{.recv_timeout_s = 0.05});
  EXPECT_THROW(rt.run([](Endpoint& ep) { ep.recv(0, 1); }), RecvTimeout);
}

TEST(Endpoint, MessageCostsAdvanceClocks) {
  // 1 ms send CPU, 10 ms wire, 2 ms recv CPU.
  auto cost = [](int, int, std::size_t) {
    return MsgCost{.send_cpu_s = 1e-3, .wire_s = 10e-3, .recv_cpu_s = 2e-3};
  };
  Runtime rt(2, cost);
  const auto results = rt.run([](Endpoint& ep) {
    if (ep.rank() == 0) {
      ep.send_empty(1, 1);
    } else {
      ep.recv(0, 1);
    }
  });
  EXPECT_DOUBLE_EQ(results[0].finish_time, 1e-3);            // send overhead
  EXPECT_DOUBLE_EQ(results[1].finish_time, 1e-3 + 12e-3);    // arrival
  EXPECT_DOUBLE_EQ(results[1].wait_s, 13e-3);
}

TEST(Endpoint, NonOvertakingPerPair) {
  // A big slow message followed by a tiny fast one: FIFO order per
  // (src, dst) must hold, so the small message cannot arrive earlier.
  auto cost = [](int, int, std::size_t bytes) {
    return MsgCost{.send_cpu_s = 0.0,
                   .wire_s = static_cast<double>(bytes) * 1e-6,
                   .recv_cpu_s = 0.0};
  };
  Runtime rt(2, cost);
  rt.run([](Endpoint& ep) {
    if (ep.rank() == 0) {
      ep.send(1, 1, std::vector<std::byte>(10'000));  // arrives at 10 ms
      ep.send_empty(1, 2);                            // tiny, same pair
    } else {
      const Message big = ep.recv(0, 1);
      const Message small = ep.recv(0, 2);
      EXPECT_GE(small.arrive_time, big.arrive_time);
    }
  });
}

TEST(Endpoint, TrafficCountersTrackBytes) {
  Runtime rt(2, zero_cost_fn());
  const auto results = rt.run([](Endpoint& ep) {
    if (ep.rank() == 0) {
      ep.send(1, 1, std::vector<std::byte>(100));
    } else {
      ep.recv(0, 1);
    }
  });
  EXPECT_EQ(results[0].traffic.msgs_sent, 1u);
  EXPECT_EQ(results[0].traffic.bytes_sent, 100 + kEnvelopeBytes);
  EXPECT_EQ(results[1].traffic.msgs_recv, 1u);
  EXPECT_EQ(results[1].traffic.bytes_recv, 100 + kEnvelopeBytes);
}

TEST(Endpoint, RecvEachCollectsInOrder) {
  Runtime rt(4, zero_cost_fn());
  rt.run([](Endpoint& ep) {
    if (ep.rank() == 0) {
      const int sources[] = {1, 2, 3};
      const auto msgs = ep.recv_each(sources, 5);
      ASSERT_EQ(msgs.size(), 3u);
      EXPECT_EQ(msgs[0].src, 1);
      EXPECT_EQ(msgs[1].src, 2);
      EXPECT_EQ(msgs[2].src, 3);
    } else {
      ep.send_empty(0, 5);
    }
  });
}

// --- virtual-time determinism ---

TEST(Runtime, MakespanIsDeterministicAcrossRuns) {
  // A little protocol with compute charges and cross traffic; wall-clock
  // scheduling varies between repetitions, virtual time must not.
  auto cost = [](int src, int dst, std::size_t bytes) {
    return MsgCost{.send_cpu_s = 1e-6 * (src + 1),
                   .wire_s = 1e-5 + static_cast<double>(bytes) * 1e-8,
                   .recv_cpu_s = 2e-6 * (dst + 1)};
  };
  auto run_once = [&] {
    Runtime rt(4, cost);
    return rt.run([](Endpoint& ep) {
      for (int round = 0; round < 20; ++round) {
        ep.charge(1e-5 * (ep.rank() + 1));
        for (int dst = 0; dst < ep.world_size(); ++dst) {
          if (dst != ep.rank()) {
            ep.send(dst, round, std::vector<std::byte>(64));
          }
        }
        for (int src = 0; src < ep.world_size(); ++src) {
          if (src != ep.rank()) ep.recv(src, round);
        }
      }
    });
  };
  const auto a = run_once();
  const auto b = run_once();
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_DOUBLE_EQ(a[r].finish_time, b[r].finish_time) << "rank " << r;
    EXPECT_DOUBLE_EQ(a[r].wait_s, b[r].wait_s) << "rank " << r;
  }
}

// --- cross-runtime BufferPool safety ---

TEST(BufferPool, ConcurrentRuntimesShareThePoolSafely) {
  // The pool is process-global by design (one mutex-guarded free list per
  // size class — see src/mp/buffer_pool.cpp), and the farm runs whole
  // runtimes side by side, so several worlds hammer it here at once. Under
  // -DPSANIM_SANITIZE=thread this is the data-race proof; in a normal
  // build it still checks that sharing the pool never leaks into virtual
  // time and that the stats ledger stays consistent.
  auto& pool = BufferPool::global();
  const auto before = pool.stats();
  const auto body = [](Endpoint& ep) {
    for (int round = 0; round < 50; ++round) {
      const std::size_t words = std::size_t{8} << (round % 6);
      for (int dst = 0; dst < ep.world_size(); ++dst) {
        if (dst != ep.rank()) {
          Writer w;  // Writer buffers come from (and return to) the pool
          for (std::size_t i = 0; i < words; ++i) {
            w.put<std::uint64_t>(i);
          }
          ep.send(dst, round, std::move(w));
        }
      }
      for (int src = 0; src < ep.world_size(); ++src) {
        if (src != ep.rank()) ep.recv(src, round);
      }
    }
  };
  const auto run_world = [&body] {
    Runtime rt(3, zero_cost_fn());
    const auto res = rt.run(body);
    double makespan = 0.0;
    for (const auto& r : res) makespan = std::max(makespan, r.finish_time);
    return makespan;
  };
  const double solo = run_world();  // baseline: the process to ourselves
  std::atomic<int> mismatches{0};
  std::vector<std::thread> drivers;
  for (int i = 0; i < 4; ++i) {
    drivers.emplace_back([&] {
      if (run_world() != solo) mismatches.fetch_add(1);
    });
  }
  for (auto& t : drivers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const auto after = pool.stats();
  EXPECT_GT(after.acquires, before.acquires);
  EXPECT_EQ(after.acquires - before.acquires,
            (after.hits - before.hits) + (after.misses - before.misses));
}

// --- collectives ---

class CollectivesTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectivesTest, BarrierSynchronizesClocks) {
  const int n = GetParam();
  auto cost = [](int, int, std::size_t) {
    return MsgCost{.send_cpu_s = 0, .wire_s = 1e-4, .recv_cpu_s = 0};
  };
  Runtime rt(n, cost);
  const auto results = rt.run([](Endpoint& ep) {
    ep.charge(1e-3 * (ep.rank() + 1));  // ranks arrive at different times
    barrier(ep);
  });
  // After the barrier every clock is at least the slowest arrival.
  for (const auto& r : results) {
    EXPECT_GE(r.finish_time, 1e-3 * n);
  }
}

TEST_P(CollectivesTest, BcastDeliversRootPayload) {
  const int n = GetParam();
  Runtime rt(n, zero_cost_fn());
  rt.run([](Endpoint& ep) {
    Writer w;
    if (ep.rank() == 0) w.put<std::uint64_t>(1234);
    const auto bytes = bcast(ep, 0, w.take());
    Reader r{std::span<const std::byte>(bytes)};
    EXPECT_EQ(r.get<std::uint64_t>(), 1234u);
  });
}

TEST_P(CollectivesTest, GatherOrdersByRank) {
  const int n = GetParam();
  Runtime rt(n, zero_cost_fn());
  rt.run([](Endpoint& ep) {
    Writer w;
    w.put<std::int32_t>(ep.rank() * 10);
    const auto parts = gather(ep, 0, w.take());
    if (ep.rank() == 0) {
      ASSERT_EQ(static_cast<int>(parts.size()), ep.world_size());
      for (int i = 0; i < ep.world_size(); ++i) {
        Reader r{std::span<const std::byte>(parts[static_cast<std::size_t>(i)])};
        EXPECT_EQ(r.get<std::int32_t>(), i * 10);
      }
    } else {
      EXPECT_TRUE(parts.empty());
    }
  });
}

TEST_P(CollectivesTest, AllgatherGivesEveryoneEverything) {
  const int n = GetParam();
  Runtime rt(n, zero_cost_fn());
  rt.run([](Endpoint& ep) {
    Writer w;
    w.put<std::int32_t>(ep.rank());
    const auto parts = allgather(ep, w.take());
    ASSERT_EQ(static_cast<int>(parts.size()), ep.world_size());
    for (int i = 0; i < ep.world_size(); ++i) {
      Reader r{std::span<const std::byte>(parts[static_cast<std::size_t>(i)])};
      EXPECT_EQ(r.get<std::int32_t>(), i);
    }
  });
}

TEST_P(CollectivesTest, AllreduceMaxAndSum) {
  const int n = GetParam();
  Runtime rt(n, zero_cost_fn());
  rt.run([n](Endpoint& ep) {
    const double mx = allreduce_max(ep, static_cast<double>(ep.rank()));
    EXPECT_DOUBLE_EQ(mx, n - 1);
    const double sum = allreduce_sum(ep, 1.0);
    EXPECT_DOUBLE_EQ(sum, n);
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CollectivesTest,
                         ::testing::Values(1, 2, 3, 5, 8));

// --- fiber scheduler at scale ---
//
// These pin ExecMode::kFibers explicitly: they must pass even when CI's
// differential leg exports PSANIM_EXEC_MODE=threads, and a 1000-rank
// world is exactly what the threaded core refuses.

// Every observable field of a ProcessResult, exact-compare. Doubles are
// compared bitwise on purpose: the whole point is that scheduling cannot
// perturb virtual-time arithmetic even in the last ulp.
void expect_identical_results(const std::vector<ProcessResult>& a,
                              const std::vector<ProcessResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].rank, b[i].rank);
    EXPECT_EQ(a[i].finish_time, b[i].finish_time) << "rank " << a[i].rank;
    EXPECT_EQ(a[i].compute_s, b[i].compute_s) << "rank " << a[i].rank;
    EXPECT_EQ(a[i].comm_s, b[i].comm_s) << "rank " << a[i].rank;
    EXPECT_EQ(a[i].wait_s, b[i].wait_s) << "rank " << a[i].rank;
    EXPECT_EQ(a[i].restarts, b[i].restarts) << "rank " << a[i].rank;
    EXPECT_EQ(a[i].traffic.msgs_sent, b[i].traffic.msgs_sent);
    EXPECT_EQ(a[i].traffic.bytes_sent, b[i].traffic.bytes_sent);
    EXPECT_EQ(a[i].traffic.msgs_recv, b[i].traffic.msgs_recv);
    EXPECT_EQ(a[i].traffic.bytes_recv, b[i].traffic.bytes_recv);
  }
}

// A 1000-rank ring with real per-hop costs: each rank passes an
// accumulating token to its right neighbor, twice around. Exercises long
// blocked-fiber chains (at any instant almost every fiber is suspended in
// recv) and the cross-rank wake path.
std::vector<ProcessResult> run_ping_ring(int n, int workers) {
  auto cost = [](int, int, std::size_t bytes) {
    return MsgCost{.send_cpu_s = 1e-6,
                   .wire_s = 1e-5 + static_cast<double>(bytes) * 1e-9,
                   .recv_cpu_s = 2e-6};
  };
  Runtime rt(n, cost,
             RuntimeOptions{.exec_mode = ExecMode::kFibers,
                            .workers = workers});
  return rt.run([n](Endpoint& ep) {
    const int rank = ep.rank();
    const int right = (rank + 1) % n;
    const int left = (rank + n - 1) % n;
    constexpr int kLaps = 2;
    if (rank == 0) {
      std::uint64_t token = 1;
      for (int lap = 0; lap < kLaps; ++lap) {
        Writer w;
        w.put<std::uint64_t>(token);
        ep.send(right, 100, std::move(w));
        const Message m = ep.recv(left, 100);
        Reader r(m);
        token = r.get<std::uint64_t>();
      }
      EXPECT_EQ(token,
                1u + static_cast<std::uint64_t>(kLaps) *
                         static_cast<std::uint64_t>(n - 1));
    } else {
      for (int lap = 0; lap < kLaps; ++lap) {
        const Message m = ep.recv(left, 100);
        Reader r(m);
        Writer w;
        w.put<std::uint64_t>(r.get<std::uint64_t>() + 1);
        ep.send(right, 100, std::move(w));
      }
    }
  });
}

TEST(FiberScale, ThousandRankRingIdenticalAcrossWorkerCounts) {
  constexpr int kWorld = 1000;
  const auto one = run_ping_ring(kWorld, 1);
  ASSERT_EQ(one.size(), static_cast<std::size_t>(kWorld));
  // Ring makespan: the token crosses every hop, so nobody finishes at 0.
  EXPECT_GT(one.back().finish_time, 0.0);
  for (const int workers : {2, 8}) {
    expect_identical_results(one, run_ping_ring(kWorld, workers));
  }
}

TEST(FiberScale, ThreadPerRankRefusesThousandRanks) {
  Runtime rt(1000, zero_cost_fn(),
             RuntimeOptions{.exec_mode = ExecMode::kThreads});
  EXPECT_THROW(rt.run([](Endpoint&) {}), std::invalid_argument);
  // ...and the same world is fine one line later under fibers.
  Runtime ok(1000, zero_cost_fn(),
             RuntimeOptions{.exec_mode = ExecMode::kFibers});
  const auto results = ok.run([](Endpoint&) {});
  EXPECT_EQ(results.size(), 1000u);
}

TEST(FiberScale, BodyExceptionUnwindsFiberStacksLowestRankWins) {
  // Several ranks throw; stack objects on the fiber stacks must be
  // destroyed during capture, and the caller sees rank 3's message.
  static std::atomic<int> destroyed{0};
  struct OnStack {
    ~OnStack() { destroyed.fetch_add(1); }
  };
  destroyed = 0;
  Runtime rt(64, zero_cost_fn(),
             RuntimeOptions{.exec_mode = ExecMode::kFibers, .workers = 4});
  try {
    rt.run([](Endpoint& ep) {
      OnStack guard;
      if (ep.rank() >= 3 && ep.rank() % 2 == 1) {
        throw std::runtime_error("rank " + std::to_string(ep.rank()));
      }
    });
    FAIL() << "expected the lowest-rank exception to be rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 3");
  }
  EXPECT_EQ(destroyed.load(), 64);
}

TEST(FiberScale, DeadlockVictimMatchesThreadedTimeoutText) {
  // A wedged 100-rank protocol (everyone receives, nobody sends) must
  // fail with the same RecvTimeout text the threaded core produces —
  // without waiting out a wall-clock deadline.
  Runtime rt(100, zero_cost_fn(),
             RuntimeOptions{.recv_timeout_s = 30.0,
                            .exec_mode = ExecMode::kFibers});
  try {
    rt.run([](Endpoint& ep) { ep.recv((ep.rank() + 1) % 100, 5); });
    FAIL() << "expected RecvTimeout";
  } catch (const RecvTimeout& e) {
    // Lowest rank's exception wins; rank 0 was blocked on src 1, tag 5.
    EXPECT_STREQ(e.what(),
                 "psanim::mp: receive timed out (src=1, tag=5) — likely a "
                 "missing end-of-transmission marker");
  }
}

// --- the fiber switch ---
//
// What a context switch must carry: the callee-saved registers (live
// locals) and the floating-point control state, per fiber.

/// 1/3 in the calling context's rounding mode (volatile: computed at run
/// time, in SSE, not folded by the compiler).
double one_third() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return one / three;
}

TEST(FiberSwitch, LiveLocalsAndRoundingModeSurviveABlockingRecv) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const double nearest = one_third();
  std::fesetround(FE_UPWARD);
  const double upward = one_third();
  std::fesetround(FE_TONEAREST);
  ASSERT_NE(nearest, upward);

  // One worker: rank 0 blocks, rank 1 runs on the same worker in between,
  // then rank 0 resumes.
  Runtime rt(2, zero_cost_fn(),
             RuntimeOptions{.exec_mode = ExecMode::kFibers, .workers = 1});
  std::atomic<int> rank1_mode{-1};
  std::atomic<bool> rank1_nearest{false};
  rt.run([&](Endpoint& ep) {
    if (ep.rank() == 1) {
      rank1_mode = std::fegetround();
      rank1_nearest = one_third() == nearest;
      ep.send(0, 9, Writer{});
      return;
    }
    // Many locals live across the switch: more than the callee-saved
    // registers hold, so some sit in registers and some on the stack.
    std::array<std::uint64_t, 24> spilled{};
    for (std::size_t i = 0; i < spilled.size(); ++i) {
      spilled[i] = 0x9E3779B97F4A7C15ull * (i + 1);
    }
    const std::uint64_t seed = spilled[3] ^ static_cast<std::uint64_t>(ep.rank());
    std::uint64_t l0 = seed * 3, l1 = seed * 5, l2 = seed * 7, l3 = seed * 11;
    std::uint64_t l4 = seed * 13, l5 = seed * 17, l6 = seed * 19;
    std::uint64_t l7 = seed * 23;
    double d0 = static_cast<double>(seed % 1000) * 0.5;
    double d1 = d0 * 1.25;
    std::fesetround(FE_UPWARD);
    ep.recv(1, 9);
    EXPECT_EQ(std::fegetround(), FE_UPWARD);
    EXPECT_EQ(one_third(), upward);
    std::fesetround(FE_TONEAREST);
    EXPECT_EQ(l0, seed * 3);
    EXPECT_EQ(l1, seed * 5);
    EXPECT_EQ(l2, seed * 7);
    EXPECT_EQ(l3, seed * 11);
    EXPECT_EQ(l4, seed * 13);
    EXPECT_EQ(l5, seed * 17);
    EXPECT_EQ(l6, seed * 19);
    EXPECT_EQ(l7, seed * 23);
    EXPECT_EQ(d0, static_cast<double>(seed % 1000) * 0.5);
    EXPECT_EQ(d1, d0 * 1.25);
    for (std::size_t i = 0; i < spilled.size(); ++i) {
      EXPECT_EQ(spilled[i], 0x9E3779B97F4A7C15ull * (i + 1)) << i;
    }
  });
  EXPECT_EQ(rank1_mode.load(), FE_TONEAREST);
  EXPECT_TRUE(rank1_nearest.load());
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

TEST(FiberSwitch, CallerKeepsItsRoundingModeWhateverFibersSet) {
  // The worker's own control state is saved on the way into a fiber and
  // restored on the way out, so a fiber that leaves FE_DOWNWARD set does
  // not leak it into the thread that called run().
  Runtime rt(3, zero_cost_fn(),
             RuntimeOptions{.exec_mode = ExecMode::kFibers, .workers = 1});
  rt.run([](Endpoint&) { std::fesetround(FE_DOWNWARD); });
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

[[gnu::noinline]] int throw_from_depth(int depth, int rank) {
  volatile char pad[128];
  pad[0] = static_cast<char>(depth);
  if (depth == 0) throw std::runtime_error("deep " + std::to_string(rank));
  return throw_from_depth(depth - 1, rank) + pad[0];
}

TEST(FiberSwitch, ExceptionFromDeepInAReusedStackIsCaughtByTheRankWrapper) {
  const RuntimeOptions opts{.exec_mode = ExecMode::kFibers, .workers = 2};
  Runtime(8, zero_cost_fn(), opts).run([](Endpoint&) {});  // warm the cache
  const auto before = fiber_stack_stats();
  static std::atomic<int> destroyed{0};
  struct OnStack {
    ~OnStack() { destroyed.fetch_add(1); }
  };
  destroyed = 0;
  Runtime rt(8, zero_cost_fn(), opts);
  try {
    rt.run([](Endpoint& ep) {
      OnStack guard;
      if (ep.rank() >= 2) throw_from_depth(200, ep.rank());
    });
    FAIL() << "expected the lowest-rank exception to be rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "deep 2");
  }
  EXPECT_EQ(destroyed.load(), 8);
  EXPECT_EQ(fiber_stack_stats().reuses - before.reuses, 8u);
}

TEST(FiberSwitch, OneWorkerRunsRankBodiesOnTheCallersThread) {
  const auto caller = std::this_thread::get_id();
  Runtime rt(16, zero_cost_fn(),
             RuntimeOptions{.exec_mode = ExecMode::kFibers, .workers = 1});
  std::atomic<int> elsewhere{0};
  rt.run([&](Endpoint& ep) {
    if (std::this_thread::get_id() != caller) elsewhere.fetch_add(1);
    barrier(ep);  // every rank blocks and resumes at least once
    if (std::this_thread::get_id() != caller) elsewhere.fetch_add(1);
  });
  EXPECT_EQ(elsewhere.load(), 0);
}

TEST(FiberSwitch, RuntimeStartedFromARankBodyRestoresItsFiber) {
  // A rank body that runs a whole inner world inline (its thread becomes
  // the inner scheduler's worker 0) must come back as the outer fiber:
  // its own blocking receives still yield to the outer scheduler.
  Runtime outer(2, zero_cost_fn(),
                RuntimeOptions{.exec_mode = ExecMode::kFibers, .workers = 1});
  std::atomic<int> inner_ranks{0};
  outer.run([&](Endpoint& ep) {
    if (ep.rank() == 0) {
      Runtime inner(4, zero_cost_fn(),
                    RuntimeOptions{.exec_mode = ExecMode::kFibers,
                                   .workers = 1});
      inner.run([&](Endpoint& iep) {
        barrier(iep);
        inner_ranks.fetch_add(1);
      });
      ep.recv(1, 3);
    } else {
      ep.send(0, 3, Writer{});
    }
  });
  EXPECT_EQ(inner_ranks.load(), 4);
}

// --- the fiber stack cache ---

TEST(FiberStacks, SecondRuntimeOfTheSameSizeMapsNoNewStack) {
  const RuntimeOptions opts{.exec_mode = ExecMode::kFibers, .workers = 2};
  Runtime(16, zero_cost_fn(), opts).run([](Endpoint& ep) { barrier(ep); });
  const auto before = fiber_stack_stats();
  EXPECT_GE(before.cached, 16u);
  Runtime(16, zero_cost_fn(), opts).run([](Endpoint& ep) { barrier(ep); });
  const auto after = fiber_stack_stats();
  EXPECT_EQ(after.maps, before.maps);
  EXPECT_EQ(after.reuses - before.reuses, 16u);
}

TEST(FiberStacks, CacheHoldsNoMoreThanItsCapAfterAThousandRankWorld) {
  const auto before = fiber_stack_stats();
  Runtime(1000, zero_cost_fn(),
          RuntimeOptions{.exec_mode = ExecMode::kFibers, .workers = 2})
      .run([](Endpoint&) {});
  const auto after = fiber_stack_stats();
  EXPECT_EQ((after.maps - before.maps) + (after.reuses - before.reuses),
            1000u);
  EXPECT_EQ(after.cached, kFiberStackCacheCap);
}

/// Recurse until this frame lies below `floor`, writing every frame.
[[gnu::noinline]] std::uintptr_t dig(std::uintptr_t floor) {
  volatile char pad[256];
  for (auto& c : pad) c = 1;
  const auto here = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  if (here <= floor) return here;
  return dig(floor) + static_cast<std::uintptr_t>(pad[0]);
}

TEST(FiberStacksDeathTest, OverflowingAReusedStackFaultsOnItsGuardPage) {
  // The body digs exactly one stack size below its own frame: a few
  // hundred bytes past the stack's low end, inside the guard page. An
  // armed guard faults there; a disarmed one would let dig return.
  constexpr std::size_t kStack = 64 * 1024;
  const auto run_one = [](const std::function<void(int)>& body) {
    FiberScheduler sched(
        1, FiberSchedulerOptions{.workers = 1, .stack_bytes = kStack});
    sched.run(body);
  };
  EXPECT_DEATH(
      {
        run_one([](int) {});  // leaves a stack of this size in the cache
        const auto before = fiber_stack_stats();
        run_one([&](int) {
          // Not a reused stack: exit cleanly, which fails the death test.
          if (fiber_stack_stats().reuses == before.reuses) std::_Exit(0);
          const auto top =
              reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
          dig(top - kStack);
        });
      },
      "");
}

}  // namespace
}  // namespace psanim::mp
