// Randomized property tests over the model's core invariants. Each case
// draws many random instances (seeded — fully reproducible) and checks an
// invariant that must hold for ALL of them, complementing the
// example-based suites.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>

#include "core/decomposition.hpp"
#include "core/exchange.hpp"
#include "core/wire.hpp"
#include "fault/fault_plan.hpp"
#include "lb/dynamic_pairwise_lb.hpp"
#include "mp/runtime.hpp"
#include "lb/metrics.hpp"
#include "math/rng.hpp"
#include "math/stats.hpp"
#include "psys/store.hpp"

namespace psanim {
namespace {

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeededProperty, OwnershipPartitionsTheAxis) {
  // For a decomposition with randomly moved edges, every coordinate has
  // exactly one owner, and that owner's [domain_lo, domain_hi) interval
  // contains it.
  Rng rng(GetParam());
  const int n = 2 + static_cast<int>(rng.next_below(14));
  core::Decomposition d(0, -50, 50, n);
  for (int i = 0; i + 1 < n; ++i) {
    d.set_edge(i, rng.uniform(-60, 60));  // set_edge clamps into order
  }
  // Edges stay sorted no matter what we fed in.
  EXPECT_TRUE(std::is_sorted(d.edges().begin(), d.edges().end()));
  for (int k = 0; k < 200; ++k) {
    const float key = rng.uniform(-80, 80);
    const int owner = d.owner_of(key);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, n);
    EXPECT_GE(key, d.domain_lo(owner));
    EXPECT_LT(key, d.domain_hi(owner) == d.domain_lo(owner)
                       ? d.domain_hi(owner) + 1e-6f
                       : d.domain_hi(owner));
  }
}

TEST_P(SeededProperty, StoreNeverLosesParticles) {
  // Random inserts, random in-place motion, extraction, donation: the
  // total particle count is conserved through every operation.
  Rng rng(GetParam());
  const int axis = static_cast<int>(rng.next_below(3));
  psys::SlicedStore store(axis, -10, 10,
                          1 + rng.next_below(16));
  std::size_t total = 0;
  for (int round = 0; round < 5; ++round) {
    const std::size_t add = rng.next_below(300);
    for (std::size_t i = 0; i < add; ++i) {
      psys::Particle p;
      p.pos = rng.in_box({-9, -9, -9}, {9, 9, 9});
      store.insert(p);
    }
    total += add;
    // Scatter particles, some out of range.
    std::vector<psys::Particle> out;
    store.sweep(
        [&](std::span<psys::Particle> ps) {
          for (auto& p : ps) {
            p.pos.axis_ref(axis) += rng.uniform(-8, 8);
          }
        },
        out);
    const auto donated = store.donate_low(rng.next_below(50));
    EXPECT_EQ(store.size() + out.size() + donated.particles.size(), total);
    total = store.size();
    for (const auto& p : out) {
      const float k = p.pos.axis(axis);
      EXPECT_TRUE(k < -10 || k >= 10);
    }
  }
}

TEST_P(SeededProperty, ParticlesSurviveTheWireBitwise) {
  Rng rng(GetParam());
  std::vector<core::SystemBatch> batches(1 + rng.next_below(4));
  for (std::size_t s = 0; s < batches.size(); ++s) {
    batches[s].system = static_cast<psys::SystemId>(s);
    const std::size_t n = rng.next_below(100);
    for (std::size_t i = 0; i < n; ++i) {
      psys::Particle p;
      p.pos = rng.in_box({-100, -100, -100}, {100, 100, 100});
      p.vel = rng.in_unit_ball() * 50.0f;
      p.age = rng.next_float() * 10;
      p.lifetime = rng.next_float() * 20;
      p.color = {rng.next_float(), rng.next_float(), rng.next_float()};
      batches[s].particles.push_back(p);
    }
  }
  mp::Message m;
  const std::uint32_t frame = static_cast<std::uint32_t>(rng.next_below(1000));
  m.payload = core::encode_batches(frame, batches).take();
  const auto back = core::decode_batches(m, frame);
  ASSERT_EQ(back.size(), batches.size());
  for (std::size_t s = 0; s < batches.size(); ++s) {
    ASSERT_EQ(back[s].particles.size(), batches[s].particles.size());
    for (std::size_t i = 0; i < batches[s].particles.size(); ++i) {
      EXPECT_EQ(0, std::memcmp(&back[s].particles[i],
                               &batches[s].particles[i],
                               sizeof(psys::Particle)));
    }
  }
}

TEST_P(SeededProperty, BalancerOrdersAreAlwaysLegalAndHelpful) {
  // For random load vectors, the pairwise policy's orders (a) obey the
  // paper's rules and (b) never increase the time imbalance when applied.
  Rng rng(GetParam());
  lb::DynamicPairwiseConfig cfg;
  cfg.min_transfer = 1;
  cfg.min_transfer_fraction = 0.0;
  lb::DynamicPairwiseLB policy(cfg);
  for (int round = 0; round < 20; ++round) {
    const int n = 2 + static_cast<int>(rng.next_below(10));
    std::vector<lb::CalcLoad> loads;
    for (int c = 0; c < n; ++c) {
      const auto particles = rng.next_below(5000);
      const double power = 0.5 + rng.next_double() * 1.5;
      loads.push_back(lb::CalcLoad{
          .calc = c,
          .particles = particles,
          .time_s = static_cast<double>(particles) / power,
          .power = power,
      });
    }
    const auto orders = policy.evaluate(loads);
    const std::string err = lb::validate_orders(loads, orders);
    EXPECT_TRUE(err.empty()) << err;

    // The pairwise policy guarantees PAIR-local improvement (global
    // imbalance can transiently rise — a pair rebalances toward its own
    // optimum, not the cluster's): after applying the orders, every
    // balanced pair's time difference must have shrunk.
    const auto after = lb::apply_orders(loads, orders);
    auto true_time = [](const lb::CalcLoad& l) {
      return static_cast<double>(l.particles) / l.power;
    };
    for (const auto& o : orders) {
      if (o.op != lb::BalanceOp::kSend) continue;
      const auto lo = static_cast<std::size_t>(std::min(o.calc, o.partner));
      const auto hi = static_cast<std::size_t>(std::max(o.calc, o.partner));
      const double before =
          rel_diff(true_time(loads[lo]), true_time(loads[hi]));
      const double now =
          rel_diff(true_time(after[lo]), true_time(after[hi]));
      EXPECT_LT(now, before) << "pair (" << lo << ", " << hi << ")";
    }
  }
}

TEST_P(SeededProperty, DonationEdgeSeparatesDonatedFromKept) {
  Rng rng(GetParam());
  psys::SlicedStore store(0, -10, 10, 1 + rng.next_below(12));
  const std::size_t n = 50 + rng.next_below(500);
  for (std::size_t i = 0; i < n; ++i) {
    psys::Particle p;
    p.pos = {rng.uniform(-10, 10), 0, 0};
    store.insert(p);
  }
  const bool low = rng.bernoulli(0.5);
  const std::size_t count = rng.next_below(n);
  const psys::Donation d =
      low ? store.donate_low(count) : store.donate_high(count);
  for (const auto& p : store.snapshot()) {
    if (low) {
      EXPECT_GE(p.pos.x, d.new_edge);
    } else {
      EXPECT_LT(p.pos.x, d.new_edge);
    }
  }
}

TEST_P(SeededProperty, ExchangeConservesParticlesAcrossRounds) {
  // Random populations shuffled through several full exchange rounds
  // against fresh random decompositions: the cluster-wide particle count
  // never changes (the engine moves particles, never makes or loses one).
  Rng seed_rng(GetParam());
  const int ncalc = 2 + static_cast<int>(seed_rng.next_below(4));
  std::vector<std::size_t> created(static_cast<std::size_t>(ncalc), 0);
  std::vector<std::size_t> kept(static_cast<std::size_t>(ncalc), 0);

  mp::Runtime rt(core::world_size_for(ncalc), mp::zero_cost_fn(),
                 {.recv_timeout_s = 10.0});
  rt.run([&](mp::Endpoint& ep) {
    if (ep.rank() < core::kFirstCalcRank) return;
    const int self = core::calc_index(ep.rank());
    const auto slot = static_cast<std::size_t>(self);
    Rng rng(mix_keys(GetParam(), 0xca1c,
                     static_cast<std::uint64_t>(self)));
    std::vector<psys::Particle> mine;
    const std::size_t n = 50 + rng.next_below(150);
    for (std::size_t i = 0; i < n; ++i) {
      psys::Particle p;
      p.pos = rng.in_box({-60, -60, -60}, {60, 60, 60});
      mine.push_back(p);
    }
    created[slot] = n;  // each thread only writes its own slot

    for (std::uint32_t round = 0; round < 3; ++round) {
      // The round's decomposition is derived from (suite seed, round)
      // only, so every calculator reconstructs the identical domain map.
      Rng drng(mix_keys(GetParam(), 0xd0, round));
      core::Decomposition d(0, -50, 50, ncalc);
      for (int e = 0; e + 1 < ncalc; ++e) {
        d.set_edge(e, drng.uniform(-60, 60));
      }
      core::Outboxes outboxes(static_cast<std::size_t>(ncalc));
      std::vector<psys::Particle> keep;
      core::route_crossers(d, /*system=*/0, self, std::move(mine),
                           outboxes, keep);
      mine = std::move(keep);
      core::exchange_crossers(
          ep, round, ncalc, self, std::move(outboxes),
          [&](psys::SystemId, std::vector<psys::Particle>&& ps) {
            mine.insert(mine.end(), ps.begin(), ps.end());
          });
      // Scatter for the next round so crossers keep flowing.
      for (auto& p : mine) p.pos.x += rng.uniform(-30, 30);
    }
    kept[slot] = mine.size();
  });

  const auto total = [](const std::vector<std::size_t>& v) {
    return std::accumulate(v.begin(), v.end(), std::size_t{0});
  };
  EXPECT_EQ(total(kept), total(created));
}

TEST_P(SeededProperty, MergedDecompositionsStillPartitionTheAxis) {
  // Kill calculators one by one, merging each domain into the survivor
  // fault recovery would pick. After every merge the edges stay sorted,
  // the dead domain has zero width, and every coordinate is owned by
  // exactly one LIVING calculator whose interval contains it.
  Rng rng(GetParam());
  const int n = 3 + static_cast<int>(rng.next_below(10));
  core::Decomposition d(0, -50, 50, n);
  for (int i = 0; i + 1 < n; ++i) {
    d.set_edge(i, rng.uniform(-60, 60));
  }
  std::vector<char> alive(static_cast<std::size_t>(n), 1);
  int nalive = n;
  while (nalive > 1) {
    int dead;
    do {
      dead = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    } while (!alive[static_cast<std::size_t>(dead)]);
    alive[static_cast<std::size_t>(dead)] = 0;
    --nalive;
    const int into = fault::merge_target(alive, dead);
    ASSERT_GE(into, 0);
    d.merge_domain(dead, into);

    EXPECT_TRUE(std::is_sorted(d.edges().begin(), d.edges().end()));
    EXPECT_EQ(d.domain_lo(dead), d.domain_hi(dead));
    for (int k = 0; k < 100; ++k) {
      const float key = rng.uniform(-80, 80);
      const int owner = d.owner_of(key);
      ASSERT_GE(owner, 0);
      ASSERT_LT(owner, n);
      EXPECT_TRUE(alive[static_cast<std::size_t>(owner)])
          << "key " << key << " owned by dead calculator " << owner;
      EXPECT_GE(key, d.domain_lo(owner));
      EXPECT_LT(key, d.domain_hi(owner) == d.domain_lo(owner)
                         ? d.domain_hi(owner) + 1e-6f
                         : d.domain_hi(owner));
    }
  }
}

TEST_P(SeededProperty, ControlMessagesSurviveTheWireBitwise) {
  // Load reports, balance orders and edge announcements round-trip
  // field-exact through their codecs (floats and doubles compared with
  // ==: a copy through the wire must be the same bits).
  Rng rng(GetParam());
  const auto frame = static_cast<std::uint32_t>(rng.next_below(1000));

  std::vector<core::LoadEntry> loads(rng.next_below(20));
  for (auto& e : loads) {
    e.system = static_cast<std::uint32_t>(rng.next_below(8));
    e.particles = rng.next_below(1'000'000);
    e.time_s = rng.next_double() * 10;
  }
  mp::Message lm;
  lm.payload = core::encode_load_report(frame, loads).take();
  const auto loads2 = core::decode_load_report(lm, frame);
  ASSERT_EQ(loads2.size(), loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    EXPECT_EQ(loads2[i].system, loads[i].system);
    EXPECT_EQ(loads2[i].particles, loads[i].particles);
    EXPECT_EQ(loads2[i].time_s, loads[i].time_s);
  }

  std::vector<core::OrderEntry> orders(rng.next_below(12));
  for (auto& o : orders) {
    o.system = static_cast<std::uint32_t>(rng.next_below(8));
    o.is_send = rng.bernoulli(0.5) ? 1 : 0;
    o.partner = static_cast<std::int32_t>(rng.next_below(16));
    o.count = rng.next_below(100'000);
  }
  mp::Message om;
  om.payload = core::encode_orders(frame, orders).take();
  const auto orders2 = core::decode_orders(om, frame);
  ASSERT_EQ(orders2.size(), orders.size());
  for (std::size_t i = 0; i < orders.size(); ++i) {
    EXPECT_EQ(orders2[i].system, orders[i].system);
    EXPECT_EQ(orders2[i].is_send, orders[i].is_send);
    EXPECT_EQ(orders2[i].partner, orders[i].partner);
    EXPECT_EQ(orders2[i].count, orders[i].count);
  }

  std::vector<core::EdgeEntry> edges(rng.next_below(12));
  for (auto& e : edges) {
    e.system = static_cast<std::uint32_t>(rng.next_below(8));
    e.edge_index = static_cast<std::int32_t>(rng.next_below(16));
    e.value = rng.uniform(-100, 100);
  }
  mp::Message em;
  em.payload = core::encode_edges(frame, edges).take();
  const auto edges2 = core::decode_edges(em, frame);
  ASSERT_EQ(edges2.size(), edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(edges2[i].system, edges[i].system);
    EXPECT_EQ(edges2[i].edge_index, edges[i].edge_index);
    EXPECT_EQ(edges2[i].value, edges[i].value);
  }

  // A codec must reject a stale frame number loudly.
  EXPECT_THROW(core::decode_edges(em, frame + 1), core::ProtocolError);
}

TEST_P(SeededProperty, PackedVertexQuantizationIsIdempotent) {
  // The gather stream's 8-bit quantization is lossy once, then a fixed
  // point: pack(unpack(p)) == p byte-for-byte, so re-shipping a frame
  // never drifts.
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    core::RenderVertex v;
    v.pos = rng.in_box({-100, -100, -100}, {100, 100, 100});
    v.color = {rng.next_float(), rng.next_float(), rng.next_float()};
    v.alpha = rng.next_float();
    v.size = rng.next_float() * core::kMaxSplatSize * 1.5f;  // may clamp
    const core::PackedVertex p1 = core::pack_vertex(v);
    const core::PackedVertex p2 =
        core::pack_vertex(core::unpack_vertex(p1));
    EXPECT_EQ(0, std::memcmp(&p1, &p2, sizeof(core::PackedVertex)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull,
                                           13ull, 21ull, 34ull));

}  // namespace
}  // namespace psanim
