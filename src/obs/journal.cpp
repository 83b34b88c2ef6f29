#include "obs/journal.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <system_error>

#include "obs/metrics.hpp"  // format_double

namespace ageo::obs {

namespace {

std::atomic<bool> g_journal_enabled{false};

// Journals are denser than traces (one event per constraint), so the
// per-thread ring is larger. A full-scale audit can still wrap it; the
// dump records how many events were lost.
constexpr std::size_t kJournalRingCapacity = 1 << 16;  // 65536 / thread

struct RingBuffer {
  std::mutex mu;
  std::vector<JournalEvent> events;  // ring storage, capacity-fixed
  std::size_t next = 0;              // ring write cursor
  std::uint64_t total = 0;           // events ever written

  void push(JournalEvent&& e) {
    std::lock_guard lock(mu);
    if (events.size() < kJournalRingCapacity) {
      events.push_back(std::move(e));
    } else {
      events[next] = std::move(e);
      next = (next + 1) % kJournalRingCapacity;
    }
    ++total;
  }
};

struct JournalState {
  std::mutex mu;
  std::vector<std::unique_ptr<RingBuffer>> buffers;
  std::vector<RingBuffer*> free_buffers;
};

JournalState& state() {
  static JournalState* s = new JournalState();  // leaked: TLS-dtor-safe
  return *s;
}

struct TlsBufferRef {
  RingBuffer* buf = nullptr;
  ~TlsBufferRef() {
    if (!buf) return;
    JournalState& s = state();
    std::lock_guard lock(s.mu);
    s.free_buffers.push_back(buf);
  }
};
thread_local TlsBufferRef t_buf;

RingBuffer& my_buffer() {
  if (t_buf.buf) return *t_buf.buf;
  JournalState& s = state();
  std::lock_guard lock(s.mu);
  if (!s.free_buffers.empty()) {
    t_buf.buf = s.free_buffers.back();
    s.free_buffers.pop_back();
  } else {
    s.buffers.push_back(std::make_unique<RingBuffer>());
    t_buf.buf = s.buffers.back().get();
  }
  return *t_buf.buf;
}

void append_escaped(std::string& out, std::string_view v) {
  for (char c : v) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

bool journal_enabled() noexcept {
  return g_journal_enabled.load(std::memory_order_relaxed);
}

void set_journal_enabled(bool on) noexcept {
  g_journal_enabled.store(on, std::memory_order_relaxed);
}

std::string_view scope_name(Scope s) noexcept {
  switch (s) {
    case Scope::kVerdict:
      return "verdict";
    case Scope::kSchedule:
      return "schedule";
    case Scope::kWall:
      return "wall";
  }
  return "?";
}

Event::Event(std::uint64_t proxy, std::uint32_t seq, Scope scope,
             std::string_view kind) {
  ev_.proxy = proxy;
  ev_.seq = seq;
  ev_.scope = scope;
  ev_.kind = std::string(kind);
}

Event& Event::num(std::string_view key, std::uint64_t v) {
  ev_.fields += ",\"";
  ev_.fields += key;
  ev_.fields += "\":" + std::to_string(v);
  return *this;
}

Event& Event::inum(std::string_view key, std::int64_t v) {
  ev_.fields += ",\"";
  ev_.fields += key;
  ev_.fields += "\":" + std::to_string(v);
  return *this;
}

Event& Event::real(std::string_view key, double v) {
  ev_.fields += ",\"";
  ev_.fields += key;
  ev_.fields += "\":";
  // NaN/Inf are not JSON; format_double renders them as bare words, so
  // quote those to keep every line parseable.
  const std::string s = format_double(v);
  if (!s.empty() && (s[0] == 'N' || s[0] == '+' || s[0] == '-') &&
      !(s[0] == '-' && s.size() > 1 && (s[1] >= '0' && s[1] <= '9'))) {
    ev_.fields += '"' + s + '"';
  } else {
    ev_.fields += s;
  }
  return *this;
}

Event& Event::flag(std::string_view key, bool v) {
  ev_.fields += ",\"";
  ev_.fields += key;
  ev_.fields += v ? "\":true" : "\":false";
  return *this;
}

Event& Event::text(std::string_view key, std::string_view v) {
  ev_.fields += ",\"";
  ev_.fields += key;
  ev_.fields += "\":\"";
  append_escaped(ev_.fields, v);
  ev_.fields += '"';
  return *this;
}

void Event::emit() {
  if (!journal_enabled()) return;
  my_buffer().push(std::move(ev_));
}

JournalDump collect_journal() {
  JournalDump dump;
  JournalState& s = state();
  std::lock_guard lock(s.mu);
  for (const auto& b : s.buffers) {
    std::lock_guard buf_lock(b->mu);
    dump.events.insert(dump.events.end(), b->events.begin(), b->events.end());
    dump.dropped += b->total - b->events.size();
  }
  std::sort(dump.events.begin(), dump.events.end(),
            [](const JournalEvent& a, const JournalEvent& b) {
              if (a.proxy != b.proxy) return a.proxy < b.proxy;
              return a.seq < b.seq;
            });
  return dump;
}

void reset_journal() {
  JournalState& s = state();
  std::lock_guard lock(s.mu);
  for (const auto& b : s.buffers) {
    std::lock_guard buf_lock(b->mu);
    b->events.clear();
    b->next = 0;
    b->total = 0;
  }
}

std::string journal_to_jsonl(const JournalDump& dump, Scope max_scope) {
  std::string out;
  for (const JournalEvent& e : dump.events) {
    if (e.scope > max_scope) continue;
    out += "{\"proxy\":";
    out += e.proxy == kRunEvent ? "\"run\"" : std::to_string(e.proxy);
    out += ",\"kind\":\"";
    out += e.kind;
    out += "\",\"scope\":\"";
    out += scope_name(e.scope);
    out += '"';
    out += e.fields;
    out += "}\n";
  }
  return out;
}

namespace {

bool consume(std::string_view& s, std::string_view lit) {
  if (s.substr(0, lit.size()) != lit) return false;
  s.remove_prefix(lit.size());
  return true;
}

/// Read up to the next unescaped '"'; the raw (still-escaped) text.
bool take_string(std::string_view& s, std::string_view& out) {
  std::size_t i = 0;
  while (i < s.size() && s[i] != '"') i += (s[i] == '\\') ? 2 : 1;
  if (i > s.size()) return false;  // dangling backslash
  if (i == s.size()) return false;
  out = s.substr(0, i);
  s.remove_prefix(i + 1);
  return true;
}

std::string unescape(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] != '\\' || i + 1 >= v.size()) {
      out += v[i];
      continue;
    }
    switch (v[++i]) {
      case 'n':
        out += '\n';
        break;
      case 't':
        out += '\t';
        break;
      case 'u':
        if (i + 4 < v.size()) {
          out += static_cast<char>(
              std::strtol(std::string(v.substr(i + 1, 4)).c_str(), nullptr,
                          16));
          i += 4;
        }
        break;
      default:
        out += v[i];
    }
  }
  return out;
}

}  // namespace

JournalDump parse_journal_jsonl(std::string_view text) {
  JournalDump dump;
  std::uint32_t line_no = 0;
  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    std::string_view line =
        nl == std::string_view::npos ? text : text.substr(0, nl);
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
    if (line.empty()) continue;

    JournalEvent ev;
    ev.seq = line_no++;
    if (!consume(line, "{\"proxy\":")) continue;
    if (consume(line, "\"run\"")) {
      ev.proxy = kRunEvent;
    } else {
      // An id that overflows, or spells the run sentinel, is hostile:
      // skip the line rather than file it under some other proxy.
      std::uint64_t p = 0;
      const char* end = line.data() + line.size();
      const auto [next, ec] = std::from_chars(line.data(), end, p);
      if (ec != std::errc() || p == kRunEvent) continue;
      line.remove_prefix(static_cast<std::size_t>(next - line.data()));
      ev.proxy = p;
    }
    if (!consume(line, ",\"kind\":\"")) continue;
    std::string_view kind;
    if (!take_string(line, kind)) continue;
    ev.kind = unescape(kind);
    if (!consume(line, ",\"scope\":\"")) continue;
    std::string_view scope;
    if (!take_string(line, scope)) continue;
    if (scope == "verdict") {
      ev.scope = Scope::kVerdict;
    } else if (scope == "schedule") {
      ev.scope = Scope::kSchedule;
    } else if (scope == "wall") {
      ev.scope = Scope::kWall;
    } else {
      continue;
    }
    if (line.empty() || line.back() != '}') continue;
    line.remove_suffix(1);
    ev.fields = std::string(line);
    dump.events.push_back(std::move(ev));
  }
  return dump;
}

std::optional<std::string> journal_field(const JournalEvent& ev,
                                         std::string_view key) {
  std::string needle;
  needle.reserve(key.size() + 3);
  needle += '"';
  needle += key;
  needle += "\":";
  std::string_view f(ev.fields);
  // Keys are code-chosen identifiers; a value never contains `"key":`
  // unless a text field embeds it, in which case the first (real) key
  // still wins because search runs left to right.
  const std::size_t pos = f.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  f.remove_prefix(pos + needle.size());
  if (!f.empty() && f[0] == '"') {
    f.remove_prefix(1);
    std::string_view raw;
    if (!take_string(f, raw)) return std::nullopt;
    return unescape(raw);
  }
  const std::size_t end = f.find(',');
  return std::string(f.substr(0, end));
}

// ---- environment hookup ----

namespace {

struct JournalEnv {
  std::string path;

  JournalEnv() {
    const char* e = std::getenv("AGEO_JOURNAL");
    if (!e || !*e || std::string_view(e) == "0") return;
    path = e;
    set_journal_enabled(true);
  }

  // Written from the destructor, not an atexit callback, for the same
  // dangling-path reason as MetricsEnv/TraceEnv; the journal state is a
  // leaked singleton, so collect_journal() is still safe here.
  ~JournalEnv() {
    if (path.empty()) return;
    const std::string text = journal_to_jsonl(collect_journal());
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "obs: cannot write journal to %s\n", path.c_str());
    }
  }
};

JournalEnv g_journal_env;

}  // namespace

}  // namespace ageo::obs
