// Epoch snapshot text codec.
//
// Token-oriented grammar (whitespace separated, one record per line for
// readability; the parser only cares about token order):
//
//   ageo-serve-snapshot v1
//   epoch <u64>
//   eta <eta> <r_squared> <n_proxies> <ci_low> <ci_high>
//   entries <count>
//   entry <id> <last_solve_epoch> <probe_failures> <tunnel_drops> <jseq>
//         <tunnel_rtt_ms> <continent> <pool_cursor> <refresh_cursor>
//         <needs_full> <queued>
//   history <count> <verdict>...
//   obs <count>
//   <landmark_id> <one_way_delay_ms>      (count lines)
//   pending <count> <id>...
//   end
//
// Doubles are written with obs::format_double (shortest string that
// strtod parses back to the same bits), so snapshot -> text -> parse ->
// snapshot is lossless and a restored service replays bit-identically.
//
// The text is untrusted: integers are plain decimal digits within their
// field's range, flags are 0 or 1, and no count reserves more slots
// than the remaining text could fill.
#include "serve/snapshot.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace ageo::serve {

namespace {

/// Sequential whitespace tokenizer over the snapshot text.
class Tokens {
 public:
  explicit Tokens(std::string_view text) : text_(text) {}

  std::string_view next() {
    while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
    detail::require(pos_ < text_.size(),
                    "parse_snapshot_text: truncated snapshot");
    const std::size_t start = pos_;
    while (pos_ < text_.size() && !is_space(text_[pos_])) ++pos_;
    return text_.substr(start, pos_ - start);
  }

  /// Decimal digits only (no sign), at most `max`.
  std::uint64_t next_u64(
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
    return next_int<std::uint64_t>(max);
  }

  /// Optional leading '-', then decimal digits.
  std::int64_t next_i64() {
    return next_int<std::int64_t>(std::numeric_limits<std::int64_t>::max());
  }

  bool next_flag() { return next_u64(1) != 0; }

  /// Upper bound on the items left: each takes at least one character
  /// and a separator. Caps every reserve() on a parsed count.
  std::uint64_t max_items() const noexcept {
    return (text_.size() - pos_) / 2 + 1;
  }

  double next_double() {
    const std::string tok(next());
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    detail::require(end != nullptr && *end == '\0',
                    "parse_snapshot_text: bad number");
    return v;
  }

  void expect(std::string_view word) {
    detail::require(next() == word,
                    "parse_snapshot_text: unexpected token");
  }

 private:
  template <typename T>
  T next_int(T max) {
    const std::string_view tok = next();
    const char* end = tok.data() + tok.size();
    T v{};
    const auto [p, ec] = std::from_chars(tok.data(), end, v);
    detail::require(ec == std::errc() && p == end && v <= max,
                    "parse_snapshot_text: bad integer");
    return v;
  }

  static bool is_space(char c) noexcept {
    return c == ' ' || c == '\n' || c == '\r' || c == '\t';
  }
  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string snapshot_to_text(const EpochSnapshot& s) {
  std::string out;
  out.reserve(64 + s.entries.size() * 256);
  out += "ageo-serve-snapshot v1\n";
  out += "epoch " + std::to_string(s.epoch) + "\n";
  out += "eta " + obs::format_double(s.eta.eta) + ' ' +
         obs::format_double(s.eta.r_squared) + ' ' +
         std::to_string(s.eta.n_proxies) + ' ' +
         obs::format_double(s.eta.eta_ci_low) + ' ' +
         obs::format_double(s.eta.eta_ci_high) + "\n";
  out += "entries " + std::to_string(s.entries.size()) + "\n";
  for (const EntrySnapshot& e : s.entries) {
    out += "entry " + std::to_string(e.id) + ' ' +
           std::to_string(e.last_solve_epoch) + ' ' +
           std::to_string(e.probe_failures) + ' ' +
           std::to_string(e.tunnel_drops) + ' ' + std::to_string(e.jseq) +
           ' ' + obs::format_double(e.tunnel_rtt_ms) + ' ' +
           std::to_string(e.continent) + ' ' +
           std::to_string(e.pool_cursor) + ' ' +
           std::to_string(e.refresh_cursor) + ' ' +
           (e.needs_full ? "1" : "0") + ' ' + (e.queued ? "1" : "0") + "\n";
    out += "history " + std::to_string(e.history.size());
    for (std::uint8_t v : e.history) out += ' ' + std::to_string(v);
    out += "\n";
    out += "obs " + std::to_string(e.observations.size()) + "\n";
    for (const ObservationSnapshot& ob : e.observations)
      out += std::to_string(ob.landmark_id) + ' ' +
             obs::format_double(ob.one_way_delay_ms) + "\n";
  }
  out += "pending " + std::to_string(s.pending.size());
  for (std::size_t id : s.pending) out += ' ' + std::to_string(id);
  out += "\nend\n";
  return out;
}

EpochSnapshot parse_snapshot_text(std::string_view text) {
  constexpr std::uint64_t kU8 = std::numeric_limits<std::uint8_t>::max();
  constexpr std::uint64_t kU32 = std::numeric_limits<std::uint32_t>::max();
  constexpr std::uint64_t kSize = std::numeric_limits<std::size_t>::max();
  Tokens t(text);
  t.expect("ageo-serve-snapshot");
  t.expect("v1");
  EpochSnapshot s;
  t.expect("epoch");
  s.epoch = t.next_u64();
  t.expect("eta");
  s.eta.eta = t.next_double();
  s.eta.r_squared = t.next_double();
  s.eta.n_proxies = static_cast<std::size_t>(t.next_u64(kSize));
  s.eta.eta_ci_low = t.next_double();
  s.eta.eta_ci_high = t.next_double();
  t.expect("entries");
  const std::uint64_t n = t.next_u64();
  s.entries.reserve(std::min(n, t.max_items()));
  for (std::uint64_t i = 0; i < n; ++i) {
    t.expect("entry");
    EntrySnapshot e;
    e.id = static_cast<std::size_t>(t.next_u64(kSize));
    e.last_solve_epoch = t.next_i64();
    e.probe_failures = static_cast<std::uint32_t>(t.next_u64(kU32));
    e.tunnel_drops = static_cast<std::uint32_t>(t.next_u64(kU32));
    e.jseq = static_cast<std::uint32_t>(t.next_u64(kU32));
    e.tunnel_rtt_ms = t.next_double();
    e.continent = static_cast<std::uint8_t>(t.next_u64(kU8));
    e.pool_cursor = static_cast<std::size_t>(t.next_u64(kSize));
    e.refresh_cursor = static_cast<std::size_t>(t.next_u64(kSize));
    e.needs_full = t.next_flag();
    e.queued = t.next_flag();
    t.expect("history");
    const std::uint64_t nh = t.next_u64();
    e.history.reserve(std::min(nh, t.max_items()));
    for (std::uint64_t h = 0; h < nh; ++h)
      e.history.push_back(static_cast<std::uint8_t>(t.next_u64(kU8)));
    t.expect("obs");
    const std::uint64_t no = t.next_u64();
    e.observations.reserve(std::min(no, t.max_items()));
    for (std::uint64_t o = 0; o < no; ++o) {
      ObservationSnapshot ob;
      ob.landmark_id = static_cast<std::size_t>(t.next_u64(kSize));
      ob.one_way_delay_ms = t.next_double();
      e.observations.push_back(ob);
    }
    s.entries.push_back(std::move(e));
  }
  t.expect("pending");
  const std::uint64_t np = t.next_u64();
  s.pending.reserve(std::min(np, t.max_items()));
  for (std::uint64_t p = 0; p < np; ++p)
    s.pending.push_back(static_cast<std::size_t>(t.next_u64(kSize)));
  t.expect("end");
  return s;
}

}  // namespace ageo::serve
