#include "farm/journal.hpp"

#include <bit>
#include <iterator>
#include <map>
#include <span>
#include <stdexcept>

#include "ckpt/format.hpp"

namespace psanim::farm {

std::string to_string(JournalType t) {
  constexpr const char* kNames[] = {"submit", "launch", "preempt", "restore",
                                    "finish"};
  const auto i = static_cast<std::size_t>(t);
  return i < std::size(kNames) ? kNames[i] : "?";
}

namespace {

/// Little-endian integer append, whatever the host order.
template <typename T>
void put_le(std::string& out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<char>((static_cast<std::uint64_t>(v) >> (8 * i)) &
                                    0xFF));
  }
}

void put_str(std::string& out, const std::string& s) {
  put_le(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Bounds-checked little-endian cursor; `ok` goes false instead of
/// throwing so a torn tail reads as a clean end-of-journal.
struct Cursor {
  const std::string& buf;
  std::size_t pos = 0;
  bool ok = true;

  bool fits(std::size_t n) {
    ok = ok && pos + n <= buf.size();
    return ok;
  }
  template <typename T>
  T le() {
    std::uint64_t v = 0;
    if (!fits(sizeof(T))) return 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= std::uint64_t{static_cast<std::uint8_t>(buf[pos++])} << (8 * i);
    }
    return static_cast<T>(v);
  }
  std::string str() {
    const auto n = le<std::uint32_t>();
    if (!fits(n)) return {};
    std::string s(buf, pos, n);
    pos += n;
    return s;
  }
};

std::string encode(const JournalRecord& rec) {
  std::string p;
  put_le(p, static_cast<std::uint8_t>(rec.type));
  put_le(p, static_cast<std::uint32_t>(rec.seq));
  put_le(p, std::bit_cast<std::uint64_t>(rec.time_s));
  put_le(p, rec.frame);
  put_le(p, static_cast<std::uint8_t>(rec.state));
  put_le(p, rec.fb_hash);
  put_str(p, rec.name);
  put_str(p, rec.tenant);
  return p;
}

std::uint32_t payload_crc(const std::string& p) {
  return ckpt::crc32(
      std::span(reinterpret_cast<const std::byte*>(p.data()), p.size()));
}

}  // namespace

JournalWriter::JournalWriter(const std::string& path) : path_(path) {
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) {
    throw std::runtime_error("JournalWriter: cannot create '" + path + "'");
  }
  std::string hdr;
  put_le(hdr, kJournalMagic);
  put_le(hdr, kJournalVersion);
  out_.write(hdr.data(), static_cast<std::streamsize>(hdr.size()));
  out_.flush();
}

void JournalWriter::append(const JournalRecord& rec) {
  const std::string p = encode(rec);
  std::string frame;
  put_le(frame, static_cast<std::uint32_t>(p.size()));
  put_le(frame, payload_crc(p));
  frame.append(p);
  const std::scoped_lock lock(mu_);
  out_.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  out_.flush();
  if (!out_) {
    throw std::runtime_error("JournalWriter: write to '" + path_ +
                             "' failed");
  }
}

std::vector<JournalRecord> read_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("read_journal: cannot open '" + path + "'");
  }
  std::string buf((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  Cursor c{buf};
  const auto magic = c.le<std::uint32_t>();
  const auto version = c.le<std::uint16_t>();
  if (!c.ok) {
    throw std::runtime_error("read_journal: '" + path +
                             "' is too short to hold a journal header");
  }
  if (magic != kJournalMagic) {
    throw std::runtime_error("read_journal: '" + path +
                             "' is not a farm journal (bad magic)");
  }
  if (version != kJournalVersion) {
    throw std::runtime_error(
        "read_journal: '" + path + "' has journal version " +
        std::to_string(version) + ", this build reads version " +
        std::to_string(kJournalVersion));
  }

  std::vector<JournalRecord> out;
  for (;;) {
    const auto len = c.le<std::uint32_t>();
    const auto crc = c.le<std::uint32_t>();
    if (!c.ok || c.pos + len > buf.size()) break;  // torn tail: clean end
    const std::string payload(buf, c.pos, len);
    if (payload_crc(payload) != crc) {
      // The frame is *complete* — every byte the length field claims is
      // present — yet the checksum disagrees. That is corruption (a torn
      // tail is always short), and silently dropping the rest of the
      // journal would turn data loss into a clean-looking recovery.
      throw std::runtime_error(
          "read_journal: '" + path + "' record " +
          std::to_string(out.size()) +
          " has a CRC mismatch on a complete frame — the journal is "
          "corrupt past this point, not torn");
    }
    c.pos += len;
    Cursor pc{payload};
    JournalRecord rec;
    rec.type = static_cast<JournalType>(pc.le<std::uint8_t>());
    rec.seq = static_cast<int>(pc.le<std::uint32_t>());
    rec.time_s = std::bit_cast<double>(pc.le<std::uint64_t>());
    rec.frame = pc.le<std::uint32_t>();
    rec.state = static_cast<JobState>(pc.le<std::uint8_t>());
    rec.fb_hash = pc.le<std::uint64_t>();
    rec.name = pc.str();
    rec.tenant = pc.str();
    if (!pc.ok) {
      // CRC passed but the payload doesn't decode: a framing/layout bug,
      // not a torn tail — fail as loudly as a version skew would.
      throw std::runtime_error(
          "read_journal: '" + path + "' record " +
          std::to_string(out.size()) +
          " passed its CRC but does not decode as a version " +
          std::to_string(kJournalVersion) + " record");
    }
    out.push_back(std::move(rec));
  }
  return out;
}

JournalRecovery recover_journal(const std::string& path) {
  JournalRecovery rc;
  rc.records = read_journal(path);
  std::map<int, JournalRecovery::PendingJob> pending;
  for (const auto& r : rc.records) {
    switch (r.type) {
      case JournalType::kSubmit: {
        auto& p = pending[r.seq];
        p.seq = r.seq;
        p.name = r.name;
        p.tenant = r.tenant;
        break;
      }
      case JournalType::kPreempt: {
        auto it = pending.find(r.seq);
        if (it != pending.end()) it->second.resume_frame = r.frame;
        break;
      }
      case JournalType::kFinish:
        pending.erase(r.seq);
        break;
      case JournalType::kLaunch:
      case JournalType::kRestore:
        break;
    }
  }
  rc.pending.reserve(pending.size());
  for (auto& [seq, p] : pending) rc.pending.push_back(std::move(p));
  return rc;
}

}  // namespace psanim::farm
