#include "core/telemetry_stream.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>

#include "core/export/writer_util.hpp"
#include "simrt/thread.hpp"
#include "support/error.hpp"

namespace numaprof::core {
namespace {

using support::HotCounter;
using support::TelemetryCounter;
using support::TelemetryEvent;
using support::TelemetryEventKind;
using support::TelemetrySnapshot;
using support::ThreadTelemetry;

constexpr std::size_t kCounterCount = support::kTelemetryCounterCount;
using CounterBlock = std::array<std::uint64_t, kCounterCount>;

std::string percent(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
  return buf;
}

/// The JSONL name of every counter, in enum order.
const std::array<std::string_view, kCounterCount>& counter_names() {
  static const auto names = [] {
    std::array<std::string_view, kCounterCount> out;
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      out[i] = to_string(static_cast<TelemetryCounter>(i));
    }
    return out;
  }();
  return names;
}

// ---------------------------------------------------------------------
// The writer: each snapshot line and its event lines are formatted into
// one buffer and handed to the stream in a single write.

void put_u64(std::string& out, std::uint64_t value) {
  char buf[20];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

void put_string(std::string& out, std::string_view s) {
  out += '"';
  export_detail::append_json_escaped(out, s);
  out += '"';
}

void put_counters(std::string& out, const CounterBlock& c) {
  out += '{';
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    if (i) out += ',';
    put_string(out, counter_names()[i]);
    out += ':';
    put_u64(out, c[i]);
  }
  out += '}';
}

void put_u64_array(std::string& out, const std::vector<std::uint64_t>& v) {
  out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    put_u64(out, v[i]);
  }
  out += ']';
}

void put_hot_array(std::string& out, const std::vector<HotCounter>& rows) {
  out += '[';
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const HotCounter& row = rows[i];
    if (i) out += ',';
    out += "{\"key\":";
    put_u64(out, row.key);
    out += ",\"domain\":";
    put_u64(out, row.domain);
    out += ",\"count\":";
    put_u64(out, row.count);
    out += ",\"mismatch\":";
    put_u64(out, row.mismatch);
    out += ",\"label\":";
    put_string(out, row.label);
    out += '}';
  }
  out += ']';
}

void write_snapshot_jsonl_impl(const TelemetrySnapshot& snapshot,
                               const pmu::Mechanism* mechanism,
                               std::ostream& os) {
  // Reused across calls so steady-state streaming does not allocate.
  thread_local std::string out;
  out.clear();
  out += "{\"type\":\"snapshot\",\"v\":2,\"seq\":";
  put_u64(out, snapshot.sequence);
  out += ",\"t\":";
  put_u64(out, snapshot.time);
  if (mechanism != nullptr) {
    out += ",\"mechanism\":";
    put_string(out, pmu::to_string(*mechanism));
  }
  out += ",\"totals\":";
  put_counters(out, snapshot.totals);
  out += ",\"domain-match\":";
  put_u64_array(out, snapshot.domain_match);
  out += ",\"domain-mismatch\":";
  put_u64_array(out, snapshot.domain_mismatch);
  out += ",\"hot-pages\":";
  put_hot_array(out, snapshot.hot_pages);
  out += ",\"hot-vars\":";
  put_hot_array(out, snapshot.hot_vars);
  out += ",\"threads\":[";
  for (std::size_t i = 0; i < snapshot.threads.size(); ++i) {
    const ThreadTelemetry& thread = snapshot.threads[i];
    if (i) out += ',';
    out += "{\"tid\":";
    put_u64(out, thread.tid);
    out += ",\"counters\":";
    put_counters(out, thread.counters);
    out += ",\"domain-match\":";
    put_u64_array(out, thread.domain_match);
    out += ",\"domain-mismatch\":";
    put_u64_array(out, thread.domain_mismatch);
    out += ",\"hot-paths\":";
    put_hot_array(out, thread.hot_paths);
    out += '}';
  }
  out += "]}\n";
  for (const TelemetryEvent& event : snapshot.events) {
    out += "{\"type\":\"event\",\"t\":";
    put_u64(out, event.time);
    out += ",\"tid\":";
    put_u64(out, event.tid);
    out += ",\"kind\":";
    put_string(out, to_string(event.kind));
    out += ",\"value\":";
    put_u64(out, event.value);
    out += ",\"detail\":";
    put_string(out, event.detail_view());
    out += "}\n";
  }
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

// ---------------------------------------------------------------------
// The reader: one pass per JSONL line, decoding straight into the
// snapshot / event it describes. Keys and escape-free strings are views
// into the line, integers are parsed exactly, and the values of unknown
// keys are skipped but must still be well-formed JSON. Errors carry the
// 1-based line.

[[noreturn]] void trace_error(const std::string& file, std::size_t line,
                              const std::string& message) {
  throw Error(ErrorKind::kTelemetry, file, "telemetry", line,
              "telemetry trace parse error (line " + std::to_string(line) +
                  "): " + message);
}

class LineReader {
 public:
  LineReader(std::string_view text, const std::string& file, std::size_t line)
      : text_(text), file_(file), line_(line) {}

  [[noreturn]] void fail(const std::string& message) const {
    trace_error(file_, line_, message);
  }

  std::size_t pos() const noexcept { return pos_; }
  void seek(std::size_t pos) noexcept { pos_ = pos; }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of line");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', found '" + text_[pos_] + "'");
    }
    ++pos_;
  }

  /// Only whitespace may follow the line's value.
  void finish() {
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
  }

  /// A string value. Escape-free strings are views into the line; others
  /// are decoded into a buffer the next string() call reuses.
  std::string_view string() {
    expect('"');
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
      ++pos_;
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    if (text_[pos_] == '"') return text_.substr(start, pos_++ - start);
    decoded_.assign(text_.substr(start, pos_ - start));
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return decoded_;
      if (c != '\\') {
        decoded_.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      switch (text_[pos_++]) {
        case '"': decoded_.push_back('"'); break;
        case '\\': decoded_.push_back('\\'); break;
        case '/': decoded_.push_back('/'); break;
        case 'n': decoded_.push_back('\n'); break;
        case 't': decoded_.push_back('\t'); break;
        case 'r': decoded_.push_back('\r'); break;
        case 'u': decoded_.push_back(unicode_escape()); break;
        default: fail("unknown escape");
      }
    }
  }

  /// An unsigned integer value, exact over the whole u64 range. Negative,
  /// fractional and non-numeric values are rejected.
  std::uint64_t u64(std::string_view what) {
    const char* first = text_.data() + pos_;
    const char* last = text_.data() + text_.size();
    std::uint64_t value = 0;
    const auto [end, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() ||
        (end != last && (*end == '.' || *end == 'e' || *end == 'E'))) {
      fail(std::string(what) + " must be a non-negative number");
    }
    pos_ += static_cast<std::size_t>(end - first);
    return value;
  }

  /// Calls `on_key(key)` for every member of an object; `on_key` must
  /// consume the member's value. A key view may dangle once the value
  /// has been read.
  template <typename OnKey>
  void object(OnKey&& on_key) {
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    while (true) {
      skip_ws();
      const std::string_view key = string();
      skip_ws();
      expect(':');
      skip_ws();
      on_key(key);
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return;
      }
      expect(',');
    }
  }

  /// Calls `on_element()` for every element of an array; it must consume
  /// the element.
  template <typename OnElement>
  void array(OnElement&& on_element) {
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    while (true) {
      skip_ws();
      on_element();
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return;
      }
      expect(',');
    }
  }

  /// Skips one well-formed value of any type.
  void skip_value() {
    switch (peek()) {
      case '{': object([this](std::string_view) { skip_value(); }); return;
      case '[': array([this] { skip_value(); }); return;
      case '"': string(); return;
      case 't': literal("true"); return;
      case 'f': literal("false"); return;
      case 'n': literal("null"); return;
      default: number(); return;
    }
  }

 private:
  /// The four hex digits after `\u`. The writer only emits \u00xx for
  /// control bytes, so the code unit's low byte is the decoded byte.
  char unicode_escape() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else fail("malformed \\u escape");
    }
    return static_cast<char>(code & 0xFF);
  }

  void literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) fail("malformed literal");
    pos_ += word.size();
  }

  /// A JSON number: -?digits(.digits)?([eE][+-]?digits)?
  void number() {
    const auto digits = [this] {
      const std::size_t start = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      return pos_ > start;
    };
    const std::size_t start = pos_;
    if (text_[pos_] == '-') ++pos_;
    if (!digits()) fail(pos_ == start ? "expected a number" : "malformed number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) fail("malformed number");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digits()) fail("malformed number");
    }
  }

  std::string_view text_;
  const std::string& file_;
  std::size_t line_;
  std::size_t pos_ = 0;
  std::string decoded_;
};

/// Which known keys an object has shown so far: the first occurrence of a
/// key wins and later duplicates are skipped unread.
class FirstKeys {
 public:
  bool claim(std::string_view key, std::string_view name, unsigned bit) {
    if (key != name || (seen_ & (1u << bit)) != 0) return false;
    seen_ |= 1u << bit;
    return true;
  }

 private:
  unsigned seen_ = 0;
};

std::size_t counter_index(std::string_view name, std::size_t guess) {
  const auto& names = counter_names();
  if (guess < kCounterCount && names[guess] == name) return guess;
  return static_cast<std::size_t>(
      std::find(names.begin(), names.end(), name) - names.begin());
}

/// A counter block. Every entry is read, so a duplicated counter keeps its
/// last value; unknown counters are skipped so newer traces load in older
/// readers.
void read_counters(LineReader& in, CounterBlock& out) {
  if (in.peek() != '{') in.fail("counter block must be an object");
  std::size_t next = 0;  // the writer emits counters in enum order
  in.object([&](std::string_view key) {
    const std::size_t c = counter_index(key, next);
    if (c == kCounterCount) {
      in.skip_value();
      return;
    }
    out[c] = in.u64(counter_names()[c]);
    next = c + 1;
  });
}

void read_u64_array(LineReader& in, std::vector<std::uint64_t>& out,
                    std::string_view what) {
  if (in.peek() != '[') in.fail(std::string(what) + " must be an array");
  in.array([&] { out.push_back(in.u64(what)); });
}

void read_hot_array(LineReader& in, std::vector<HotCounter>& out,
                    std::string_view what) {
  if (in.peek() != '[') in.fail(std::string(what) + " must be an array");
  in.array([&] {
    if (in.peek() != '{') {
      in.fail(std::string(what) + " entries must be objects");
    }
    HotCounter& row = out.emplace_back();
    FirstKeys keys;
    in.object([&](std::string_view key) {
      if (keys.claim(key, "key", 0)) {
        row.key = in.u64("key");
      } else if (keys.claim(key, "domain", 1)) {
        row.domain = static_cast<std::uint32_t>(in.u64("domain"));
      } else if (keys.claim(key, "count", 2)) {
        row.count = in.u64("count");
      } else if (keys.claim(key, "mismatch", 3)) {
        row.mismatch = in.u64("mismatch");
      } else if (keys.claim(key, "label", 4)) {
        if (in.peek() != '"') {
          in.fail(std::string(what) + " labels must be strings");
        }
        row.label = in.string();
      } else {
        in.skip_value();
      }
    });
  });
}

void read_thread(LineReader& in, ThreadTelemetry& thread,
                 std::size_t domains) {
  // Thread rows carry the snapshot's domain width: size the columns once.
  thread.domain_match.reserve(domains);
  thread.domain_mismatch.reserve(domains);
  FirstKeys keys;
  in.object([&](std::string_view key) {
    if (keys.claim(key, "tid", 0)) {
      thread.tid = static_cast<std::uint32_t>(in.u64("tid"));
    } else if (keys.claim(key, "counters", 1)) {
      read_counters(in, thread.counters);
    } else if (keys.claim(key, "domain-match", 2)) {
      read_u64_array(in, thread.domain_match, "domain-match");
    } else if (keys.claim(key, "domain-mismatch", 3)) {
      read_u64_array(in, thread.domain_mismatch, "domain-mismatch");
    } else if (keys.claim(key, "hot-paths", 4)) {
      read_hot_array(in, thread.hot_paths, "hot-paths");
    } else {
      in.skip_value();
    }
  });
}

bool mechanism_from_string(std::string_view name, pmu::Mechanism& out) {
  for (int i = 0; i < pmu::kMechanismCount; ++i) {
    const auto m = static_cast<pmu::Mechanism>(i);
    if (pmu::to_string(m) == name) {
      out = m;
      return true;
    }
  }
  return false;
}

bool event_kind_from_string(std::string_view name, TelemetryEventKind& out) {
  for (std::size_t i = 0; i < support::kTelemetryEventKindCount; ++i) {
    const auto k = static_cast<TelemetryEventKind>(i);
    if (to_string(k) == name) {
      out = k;
      return true;
    }
  }
  return false;
}

/// A snapshot line; a "mechanism" key lands in `mechanism`.
void read_snapshot(LineReader& in, TelemetrySnapshot& snap,
                   std::optional<pmu::Mechanism>& mechanism) {
  FirstKeys keys;
  in.object([&](std::string_view key) {
    if (keys.claim(key, "seq", 0)) {
      snap.sequence = in.u64("seq");
    } else if (keys.claim(key, "t", 1)) {
      snap.time = in.u64("t");
    } else if (keys.claim(key, "mechanism", 2)) {
      pmu::Mechanism m{};
      if (in.peek() != '"' || !mechanism_from_string(in.string(), m)) {
        in.fail("unknown mechanism");
      }
      mechanism = m;
    } else if (keys.claim(key, "totals", 3)) {
      read_counters(in, snap.totals);
    } else if (keys.claim(key, "domain-match", 4)) {
      read_u64_array(in, snap.domain_match, "domain-match");
    } else if (keys.claim(key, "domain-mismatch", 5)) {
      read_u64_array(in, snap.domain_mismatch, "domain-mismatch");
    } else if (keys.claim(key, "hot-pages", 6)) {
      read_hot_array(in, snap.hot_pages, "hot-pages");
    } else if (keys.claim(key, "hot-vars", 7)) {
      read_hot_array(in, snap.hot_vars, "hot-vars");
    } else if (keys.claim(key, "threads", 8)) {
      if (in.peek() != '[') in.fail("threads must be an array");
      in.array([&] {
        if (in.peek() != '{') in.fail("thread rows must be objects");
        read_thread(in, snap.threads.emplace_back(), snap.domain_match.size());
      });
    } else {
      in.skip_value();
    }
  });
}

TelemetryEvent read_event(LineReader& in) {
  TelemetryEvent event;
  bool has_kind = false;
  FirstKeys keys;
  in.object([&](std::string_view key) {
    if (keys.claim(key, "kind", 0)) {
      if (in.peek() != '"') in.fail("event lines require a string \"kind\"");
      const std::string_view kind = in.string();
      if (!event_kind_from_string(kind, event.kind)) {
        in.fail("unknown event kind \"" + std::string(kind) + "\"");
      }
      has_kind = true;
    } else if (keys.claim(key, "t", 1)) {
      event.time = in.u64("t");
    } else if (keys.claim(key, "tid", 2)) {
      event.tid = static_cast<std::uint32_t>(in.u64("tid"));
    } else if (keys.claim(key, "value", 3)) {
      event.value = in.u64("value");
    } else if (keys.claim(key, "detail", 4)) {
      if (in.peek() != '"') in.fail("detail must be a string");
      event.set_detail(in.string());
    } else {
      in.skip_value();
    }
  });
  if (!has_kind) in.fail("event lines require a string \"kind\"");
  return event;
}

enum class LineType : std::uint8_t { kSnapshot, kEvent, kOther };

/// The line's "type" (its first occurrence), leaving the reader where it
/// started. The writer puts "type" first, so only lines from other
/// producers need the scan of the whole object.
LineType line_type(LineReader& in) {
  const std::size_t start = in.pos();
  std::optional<LineType> type;
  const auto claim = [&](std::string_view key) {
    if (type || key != "type") return false;
    if (in.peek() != '"') in.fail("trace lines require a string \"type\"");
    const std::string_view name = in.string();
    type = name == "snapshot" ? LineType::kSnapshot
           : name == "event"  ? LineType::kEvent
                              : LineType::kOther;
    return true;
  };
  in.expect('{');
  in.skip_ws();
  if (in.peek() == '"') {
    const std::string_view key = in.string();
    in.skip_ws();
    in.expect(':');
    in.skip_ws();
    claim(key);
  }
  if (!type) {
    in.seek(start);
    in.object([&](std::string_view key) {
      if (!claim(key)) in.skip_value();
    });
  }
  in.seek(start);
  if (!type) in.fail("trace lines require a string \"type\"");
  return *type;
}

}  // namespace

const support::TelemetrySnapshot& TelemetryTrace::final_snapshot() const {
  static const TelemetrySnapshot kEmpty{};
  return snapshots.empty() ? kEmpty : snapshots.back();
}

std::string format_status_line(const TelemetrySnapshot& snapshot,
                               pmu::Mechanism mechanism) {
  return format_status_line(snapshot, mechanism, nullptr);
}

std::string format_status_line(const TelemetrySnapshot& snapshot,
                               pmu::Mechanism mechanism,
                               const TelemetrySnapshot* previous) {
  // Interval delta + per-kilocycle rate for one cumulative counter. The
  // elapsed-cycles guard is load-bearing: a flush right after a periodic
  // emit produces two snapshots with the SAME timestamp, and dividing by
  // that zero interval used to print inf/nan rates.
  const auto delta_suffix = [&](TelemetryCounter c, bool with_rate) {
    if (previous == nullptr) return std::string();
    const std::uint64_t cur = snapshot.total(c);
    const std::uint64_t prev = previous->total(c);
    const std::uint64_t delta = cur >= prev ? cur - prev : 0;
    std::string out = " (+" + std::to_string(delta);
    if (with_rate && snapshot.time > previous->time) {
      const auto elapsed =
          static_cast<double>(snapshot.time - previous->time);
      char buf[32];
      std::snprintf(buf, sizeof(buf), " %.1f/kc",
                    static_cast<double>(delta) * 1000.0 / elapsed);
      out += buf;
    }
    return out + ")";
  };
  std::ostringstream os;
  os << "[telemetry #" << snapshot.sequence << " t=" << snapshot.time << "] "
     << pmu::to_string(mechanism)
     << " threads=" << snapshot.threads.size()
     << " samples=" << snapshot.total(TelemetryCounter::kSamples)
     << delta_suffix(TelemetryCounter::kSamples, true)
     << " mem=" << snapshot.total(TelemetryCounter::kMemorySamples)
     << delta_suffix(TelemetryCounter::kMemorySamples, false)
     << " drop=" << percent(snapshot.drop_fraction())
     << " traps=" << snapshot.total(TelemetryCounter::kFirstTouchTraps)
     << " heap=" << snapshot.total(TelemetryCounter::kHeapRegistrations);
  const std::uint64_t match = snapshot.total(TelemetryCounter::kMatchSamples);
  const std::uint64_t mismatch =
      snapshot.total(TelemetryCounter::kMismatchSamples);
  os << " M_l/M_r=" << match << "/" << mismatch;
  if (!snapshot.events.empty()) os << " events=" << snapshot.events.size();
  return os.str();
}

std::vector<std::string> format_event_lines(
    const std::vector<TelemetryEvent>& events) {
  // Identical repeated events collapse into one row with a repeat count.
  std::vector<std::pair<const TelemetryEvent*, std::size_t>> event_rows;
  for (const TelemetryEvent& event : events) {
    const auto same = [&event](const auto& row) {
      const TelemetryEvent& seen = *row.first;
      return seen.kind == event.kind && seen.time == event.time &&
             seen.tid == event.tid && seen.value == event.value &&
             seen.detail_view() == event.detail_view();
    };
    if (auto it = std::find_if(event_rows.begin(), event_rows.end(), same);
        it != event_rows.end()) {
      ++it->second;
    } else {
      event_rows.emplace_back(&event, 1);
    }
  }
  std::vector<std::string> lines;
  lines.reserve(event_rows.size());
  for (const auto& [event, repeats] : event_rows) {
    std::ostringstream os;
    os << "  [" << to_string(event->kind) << "] t=" << event->time
       << " tid=" << event->tid;
    if (event->value != 0) os << " (" << event->value << ")";
    if (!event->detail_view().empty()) os << ": " << event->detail_view();
    if (repeats > 1) os << " (x" << repeats << ")";
    lines.push_back(std::move(os).str());
  }
  return lines;
}

void write_snapshot_jsonl(const TelemetrySnapshot& snapshot,
                          pmu::Mechanism mechanism, std::ostream& os) {
  write_snapshot_jsonl_impl(snapshot, &mechanism, os);
}

void write_snapshot_jsonl(const TelemetrySnapshot& snapshot,
                          std::ostream& os) {
  write_snapshot_jsonl_impl(snapshot, nullptr, os);
}

bool append_trace_line(TelemetryTrace& trace, std::string_view line,
                       std::size_t lineno, const std::string& file) {
  if (line.empty()) return false;
  LineReader in(line, file, lineno);
  in.skip_ws();
  if (in.peek() != '{') {
    in.skip_value();
    in.finish();
    in.fail("every trace line must be a JSON object");
  }
  switch (line_type(in)) {
    case LineType::kSnapshot: {
      // Decoded in place; a line that fails leaves the trace untouched.
      // Successive snapshots of a run usually have as many threads.
      const std::size_t threads =
          trace.snapshots.empty() ? 0 : trace.snapshots.back().threads.size();
      TelemetrySnapshot& snap = trace.snapshots.emplace_back();
      snap.threads.reserve(threads);
      std::optional<pmu::Mechanism> mechanism;
      try {
        read_snapshot(in, snap, mechanism);
        in.finish();
      } catch (...) {
        trace.snapshots.pop_back();
        throw;
      }
      if (mechanism) {
        trace.mechanism = *mechanism;
        trace.has_mechanism = true;
      }
      return true;
    }
    case LineType::kEvent: {
      const TelemetryEvent event = read_event(in);
      in.finish();
      trace.events.push_back(event);
      return false;
    }
    case LineType::kOther:
      // Unknown line types are skipped (forward compatibility).
      in.skip_value();
      in.finish();
      return false;
  }
  return false;
}

TelemetryTrace load_telemetry_trace(std::istream& is) {
  TelemetryTrace trace;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    append_trace_line(trace, line, lineno);
  }
  return trace;
}

TelemetryTrace load_telemetry_trace_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw Error(ErrorKind::kTelemetry, path, "telemetry", 0,
                "cannot open telemetry trace: " + path);
  }
  try {
    return load_telemetry_trace(is);
  } catch (const Error& e) {
    if (!e.file().empty()) throw;
    throw Error(e.kind(), path, e.field(), e.line(),
                std::string(e.what()) + " [" + path + "]");
  }
}

namespace {

/// DegradationKinds that the live telemetry layer also observes, paired
/// with the TelemetryEventKind(s) that report them. kSampleFaults and
/// kProfileFileSkipped have no event-kind counterpart (the former is a
/// counter, the latter happens offline) and are cross-checked separately.
struct CrossCheckRow {
  const char* label;
  TelemetryEventKind event_kind;
  std::vector<DegradationKind> profile_kinds;
};

const std::vector<CrossCheckRow>& cross_check_rows() {
  static const std::vector<CrossCheckRow> rows = {
      {"mechanism-unavailable", TelemetryEventKind::kMechanismUnavailable,
       {DegradationKind::kMechanismUnavailable}},
      {"mechanism-fallback", TelemetryEventKind::kMechanismFallback,
       {DegradationKind::kMechanismFallback}},
      {"period-retune", TelemetryEventKind::kPeriodRetune,
       {DegradationKind::kPeriodRetuneStarvation,
        DegradationKind::kPeriodRetuneOverhead}},
  };
  return rows;
}

}  // namespace

std::string render_health_pane(const TelemetryTrace& trace,
                               const SessionData* profile) {
  std::ostringstream os;
  const TelemetrySnapshot& last = trace.final_snapshot();
  os << "-- measurement health --\n";
  if (trace.has_mechanism) {
    os << "mechanism: " << pmu::to_string(trace.mechanism) << "\n";
  }
  os << "snapshots: " << trace.snapshots.size() << " (final t=" << last.time
     << ")\n";
  os << "threads observed: " << last.threads.size() << "\n";
  os << "samples: " << last.total(TelemetryCounter::kSamples) << " (memory "
     << last.total(TelemetryCounter::kMemorySamples) << ", dropped "
     << last.total(TelemetryCounter::kDroppedSamples) << " ["
     << percent(last.drop_fraction()) << "], corrupted "
     << last.total(TelemetryCounter::kCorruptedSamples) << ")\n";
  os << "first-touch traps: "
     << last.total(TelemetryCounter::kFirstTouchTraps) << "\n";
  os << "heap tracker: " << last.total(TelemetryCounter::kHeapRegistrations)
     << " registered, " << last.total(TelemetryCounter::kHeapFrees)
     << " freed\n";
  os << "instructions: " << last.total(TelemetryCounter::kInstructions)
     << "\n";
  const std::uint64_t match = last.total(TelemetryCounter::kMatchSamples);
  const std::uint64_t mismatch =
      last.total(TelemetryCounter::kMismatchSamples);
  os << "sampled accesses: M_l " << match << ", M_r " << mismatch;
  if (match + mismatch > 0) {
    os << " (remote "
       << percent(static_cast<double>(mismatch) /
                  static_cast<double>(match + mismatch))
       << ")";
  }
  os << "\n";
  const std::size_t domains =
      std::max(last.domain_match.size(), last.domain_mismatch.size());
  for (std::size_t d = 0; d < domains; ++d) {
    const std::uint64_t dm =
        d < last.domain_match.size() ? last.domain_match[d] : 0;
    const std::uint64_t dr =
        d < last.domain_mismatch.size() ? last.domain_mismatch[d] : 0;
    os << "  domain " << d << ": M_l " << dm << ", M_r " << dr << "\n";
  }
  os << "telemetry events dropped: "
     << last.total(TelemetryCounter::kEventsDropped) << "\n";

  // Identical repeated events collapse into one "(xN)" row — the same
  // format_event_lines the live status-line sink prints through (the raw
  // total in the heading and the cross-check below still count every
  // occurrence).
  os << "events (" << trace.events.size() << "):\n";
  for (const std::string& line : format_event_lines(trace.events)) {
    os << line << "\n";
  }

  if (profile != nullptr) {
    os << "degradation cross-check:\n";
    std::array<std::size_t, support::kTelemetryEventKindCount> streamed{};
    for (const TelemetryEvent& event : trace.events) {
      ++streamed[static_cast<std::size_t>(event.kind)];
    }
    std::array<std::size_t, static_cast<std::size_t>(kDegradationKindCount)>
        recorded{};
    for (const DegradationEvent& event : profile->degradations) {
      ++recorded[static_cast<std::size_t>(event.kind)];
    }
    bool all_ok = true;
    for (const CrossCheckRow& row : cross_check_rows()) {
      const std::size_t from_stream =
          streamed[static_cast<std::size_t>(row.event_kind)];
      std::size_t from_profile = 0;
      for (const DegradationKind kind : row.profile_kinds) {
        from_profile += recorded[static_cast<std::size_t>(kind)];
      }
      const bool ok = from_stream == from_profile;
      all_ok = all_ok && ok;
      os << "  " << row.label << ": telemetry " << from_stream
         << ", profile " << from_profile << (ok ? " [ok]" : " [!]") << "\n";
    }
    const std::uint64_t faulted =
        last.total(TelemetryCounter::kDroppedSamples) +
        last.total(TelemetryCounter::kCorruptedSamples);
    const std::size_t fault_events = recorded[static_cast<std::size_t>(
        DegradationKind::kSampleFaults)];
    const bool faults_ok = (faulted > 0) == (fault_events > 0);
    all_ok = all_ok && faults_ok;
    os << "  sample-faults: telemetry counters " << faulted
       << ", profile events " << fault_events
       << (faults_ok ? " [ok]" : " [!]") << "\n";
    os << "  verdict: "
       << (all_ok ? "telemetry stream and profile degradations agree"
                  : "MISMATCH between telemetry stream and profile (see [!])")
       << "\n";
  }
  return os.str();
}

void TelemetryStreamer::on_exec(const simrt::SimThread& thread,
                                std::uint64_t count) {
  since_emit_ += count;
  last_time_ = std::max(last_time_, static_cast<std::uint64_t>(thread.now()));
  if (config_.interval_instructions > 0 &&
      since_emit_ >= config_.interval_instructions) {
    emit(last_time_);
  }
}

void TelemetryStreamer::on_access(const simrt::SimThread& thread,
                                  const simrt::AccessEvent& /*event*/) {
  since_emit_ += 1;
  last_time_ = std::max(last_time_, static_cast<std::uint64_t>(thread.now()));
  if (config_.interval_instructions > 0 &&
      since_emit_ >= config_.interval_instructions) {
    emit(last_time_);
  }
}

void TelemetryStreamer::flush(std::uint64_t time) {
  // The final partial interval is emitted exactly once: with nothing
  // accumulated since the last emit (second flush in a row, or a flush
  // landing exactly on an interval boundary) there is no partial interval
  // to report, so the flush is a no-op.
  if (emitted_ > 0 && since_emit_ == 0) return;
  emit(std::max(time, last_time_));
}

void TelemetryStreamer::emit(std::uint64_t time) {
  since_emit_ = 0;
  TelemetrySnapshot snapshot = hub_->snapshot(time);
  ++emitted_;
  if (config_.status != nullptr) {
    *config_.status << format_status_line(snapshot, config_.mechanism,
                                          has_previous_ ? &previous_
                                                        : nullptr)
                    << "\n";
    // Event echo below the status line, with identical repeats collapsed
    // into "(xN)" exactly like the health pane — a stalled client
    // re-publishing one event cannot scroll the terminal.
    for (const std::string& line : format_event_lines(snapshot.events)) {
      *config_.status << line << "\n";
    }
  }
  if (config_.jsonl != nullptr) {
    write_snapshot_jsonl(snapshot, config_.mechanism, *config_.jsonl);
  }
  previous_ = std::move(snapshot);
  has_previous_ = true;
}

}  // namespace numaprof::core
