// Platform-description parser fuzz: seeded mutations over platform::parse
// in all three description forms — presets, the DSL with a `;disk:`
// clause, and the canonical JSON Platform::describe() emits — asserting
// the loader's contract everywhere: a mutant either throws
// std::invalid_argument with the "platform:" prefix, or yields a platform
// within the size budget whose describe() round-trips through parse().
// Nothing crashes, no other exception escapes, and no absurd size or
// count reaches an allocation. Mutants are truncations at every length,
// every single-bit flip, token splices, absurd numbers substituted for
// every numeric literal, and pathological nesting. The corpus is generated
// in-process from fixed seeds (splitmix64), so the suite is deterministic
// and nothing binary is committed.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "platform/parse.hpp"
#include "platform/platform.hpp"

namespace psanim {
namespace {

using platform::Platform;

struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/// Node count every mutant is parsed for (JSON bases are built for it too).
constexpr std::size_t kNodes = 9;

std::vector<std::string> dsl_bases() {
  std::vector<std::string> out = platform::preset_names();
  out.insert(out.end(),
             {"crossbar:link=myrinet,latency=1e-5,backplane=5e7;disk:nfs",
              "fattree:hosts_per_edge=2,uplinks=1,bw=5e7,up_bw=2e8,"
              "up_latency=7e-5;disk:scratch",
              "dragonfly:groups=3,routers=2,hosts_per_router=2,"
              "global_bw=1e8;disk:pfs4",
              "disk:read=1e8,write=5e7,seek=1e-3;wan:sites=3,wan_bw=2.5e6,"
              "wan_latency=30e-3,link=gigabit-ethernet"});
  return out;
}

/// Every base: the preset and DSL forms plus each one's describe() JSON.
std::vector<std::string> bases() {
  std::vector<std::string> out = dsl_bases();
  for (const std::string& d : dsl_bases()) {
    out.push_back(platform::parse(d, kNodes).describe());
  }
  return out;
}

/// Parse `desc` and hold the result to the loader's contract.
void expect_contract(const std::string& desc, const std::string& what) {
  Platform p;
  try {
    p = platform::parse(desc, kNodes);
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("platform: ", 0), 0u)
        << what << ": " << e.what();
    return;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": parse threw a non-invalid_argument: "
                  << e.what();
    return;
  }
  EXPECT_GE(p.node_count(), kNodes) << what;
  EXPECT_LE(p.node_count(), platform::kMaxNodes) << what;
  EXPECT_LE(p.link_count(), platform::kMaxLinks) << what;
  try {
    const std::string json = p.describe();
    EXPECT_EQ(platform::parse(json, p.node_count()).describe(), json)
        << what << ": describe() does not round-trip";
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": a parsed platform failed to round-trip: "
                  << e.what();
  }
}

TEST(PlatformParseFuzz, BaseDescriptionsRoundTrip) {
  for (const std::string& b : bases()) {
    const Platform p = platform::parse(b, kNodes);
    EXPECT_EQ(p.node_count(), kNodes) << b;
    expect_contract(b, b);
  }
}

TEST(PlatformParseFuzz, TruncationAtEveryLengthHoldsTheContract) {
  for (const std::string& b : bases()) {
    for (std::size_t len = 0; len < b.size(); ++len) {
      expect_contract(b.substr(0, len),
                      "'" + b + "' truncated to " + std::to_string(len));
    }
  }
}

TEST(PlatformParseFuzz, EverySingleBitFlipHoldsTheContract) {
  for (const std::string& b : bases()) {
    for (std::size_t i = 0; i < b.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string m = b;
        m[i] = static_cast<char>(static_cast<unsigned char>(m[i]) ^
                                 (1u << bit));
        expect_contract(m, "'" + b + "' byte " + std::to_string(i) +
                               " bit " + std::to_string(bit));
      }
    }
  }
}

TEST(PlatformParseFuzz, SplicedTokensHoldTheContract) {
  const std::vector<std::string> tokens = {
      ",", ";", ":", "=", "{", "}", "[", "]", "\"", "disk:", "pfs",
      "0", "-1", "1e308", "nan", "inf", " ", "true", "\"wan\"",
      "\"dragonfly\"", "\"sites\":[]", "groups=1", "uplinks=0", "\\"};
  Rng rng{0x5eed0001};
  const auto all = bases();
  for (int n = 0; n < 4000; ++n) {
    const std::string& b = all[rng.below(all.size())];
    std::string m = b;
    const int edits = 1 + static_cast<int>(rng.below(3));
    for (int e = 0; e < edits; ++e) {
      const std::size_t at = rng.below(m.size() + 1);
      const std::size_t cut = rng.below(4);
      m.replace(at, cut, tokens[rng.below(tokens.size())]);
    }
    expect_contract(m, "splice #" + std::to_string(n) + " of '" + b + "'");
  }
}

/// Byte ranges of the numeric literals in `s` (digits with an optional
/// leading sign, fraction and exponent).
std::vector<std::pair<std::size_t, std::size_t>> numbers_in(
    const std::string& s) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t i = 0;
  while (i < s.size()) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) {
      ++i;
      continue;
    }
    std::size_t start = i;
    if (start > 0 && s[start - 1] == '-') --start;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '.' ||
            s[i] == 'e' || s[i] == 'E' ||
            ((s[i] == '-' || s[i] == '+') && (s[i - 1] == 'e')))) {
      ++i;
    }
    out.emplace_back(start, i - start);
  }
  return out;
}

TEST(PlatformParseFuzz, AbsurdSizesAndCountsAreRejectedOrBounded) {
  const std::vector<std::string> absurd = {
      "0",     "-1",      "-0",          "0.5",        "1e300",
      "1e400", "nan",     "-inf",        "4294967296", "18446744073709551615",
      "65537", "1048577", "1e-320",      "1000000",    "3e9"};
  for (const std::string& b : bases()) {
    for (const auto& [at, len] : numbers_in(b)) {
      for (const std::string& v : absurd) {
        std::string m = b;
        m.replace(at, len, v);
        expect_contract(m, "'" + b + "' number at " + std::to_string(at) +
                               " -> " + v);
      }
    }
  }
}

TEST(PlatformParseFuzz, PathologicalShapesFailCleanly) {
  // Unbounded JSON nesting used to recurse until the stack overflowed.
  expect_contract("{\"zone\":" + std::string(100000, '['),
                  "deep array nesting");
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  expect_contract("{\"zone\":" + objects, "deep object nesting");
  expect_contract("{\"name\":\"" + std::string(1 << 20, 'x') + "\"}",
                  "megabyte name without a zone");
  expect_contract("crossbar:" + std::string(1 << 16, ','), "empty DSL items");
  expect_contract(std::string(1 << 16, ';'), "only separators");
}

// Defects the corpus (and reading the parser for it) turned up, pinned
// by name.

TEST(PlatformParseFuzz, NonFiniteNumbersAreRejectedNotUnwritable) {
  // describe() prints "nan"/"inf", which the JSON reader cannot take back.
  for (const char* d : {"crossbar:bw=nan", "crossbar:latency=inf",
                        "crossbar;disk:read=nan", "crossbar:backplane=1e999"}) {
    EXPECT_THROW((void)platform::parse(d, 4), std::invalid_argument) << d;
  }
}

TEST(PlatformParseFuzz, OneGroupDragonflyIsRejectedNotUndescribable) {
  // One group builds no global link, so describe() had none to print.
  EXPECT_THROW(
      (void)platform::parse("dragonfly:groups=1,routers=4,hosts_per_router=4",
                            9),
      std::invalid_argument);
}

TEST(PlatformParseFuzz, AbsurdCountsAreRejectedBeforeAllocating) {
  for (const char* d :
       {"fattree:uplinks=1e15", "fattree:hosts_per_edge=1e300",
        "dragonfly:groups=100000,routers=1,hosts_per_router=1",
        "crossbar;disk:pfs99999999999"}) {
    EXPECT_THROW((void)platform::parse(d, 4), std::invalid_argument) << d;
  }
  std::string json = platform::parse("crossbar", 2).describe();
  json.replace(json.find("\"nodes\":2"), 9, "\"nodes\":1e12");
  EXPECT_THROW((void)platform::parse(json, 2), std::invalid_argument);
  EXPECT_THROW((void)platform::parse("crossbar", platform::kMaxNodes + 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace psanim
