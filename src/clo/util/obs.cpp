#include "clo/util/obs.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "clo/util/log.hpp"
#include "clo/util/numeric.hpp"

namespace clo::obs {

using util::format_double;
using util::parse_double;

namespace {

std::atomic<bool> g_enabled{false};

// ---------------------------------------------------------------------------
// Metrics storage: one shard per thread, merged on snapshot.
// ---------------------------------------------------------------------------

struct HistogramCells {
  std::shared_ptr<const std::vector<double>> bounds;
  std::vector<std::uint64_t> buckets;  // bounds->size() + 1
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

struct Shard {
  std::mutex mu;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistogramCells> histograms;
};

struct MetricsState {
  std::mutex mu;  // guards shards list, gauges, and bucket definitions
  std::vector<std::shared_ptr<Shard>> shards;
  std::map<std::string, double> gauges;
  std::map<std::string, std::shared_ptr<const std::vector<double>>> bounds;
};

MetricsState& metrics_state() {
  static MetricsState* state = new MetricsState();
  return *state;
}

/// 3 log-spaced buckets per decade over 1e-6..1e3 seconds.
std::shared_ptr<const std::vector<double>> default_bounds() {
  static const auto kBounds = [] {
    auto b = std::make_shared<std::vector<double>>();
    for (int decade = -6; decade <= 2; ++decade) {
      for (double mantissa : {1.0, 2.1544346900318838, 4.6415888336127775}) {
        b->push_back(mantissa * std::pow(10.0, decade));
      }
    }
    b->push_back(1e3);
    return std::shared_ptr<const std::vector<double>>(b);
  }();
  return kBounds;
}

Shard& local_shard() {
  thread_local std::shared_ptr<Shard> shard = [] {
    auto s = std::make_shared<Shard>();
    MetricsState& state = metrics_state();
    std::lock_guard<std::mutex> lock(state.mu);
    state.shards.push_back(s);
    return s;
  }();
  return *shard;
}

std::shared_ptr<const std::vector<double>> bounds_for(const std::string& name) {
  MetricsState& state = metrics_state();
  std::lock_guard<std::mutex> lock(state.mu);
  auto it = state.bounds.find(name);
  return it == state.bounds.end() ? default_bounds() : it->second;
}

// ---------------------------------------------------------------------------
// Trace storage: one append-only event buffer per thread.
// ---------------------------------------------------------------------------

struct TraceEvent {
  const char* label;
  std::uint64_t ts_ns;  // since trace epoch
  char phase;           // 'B' or 'E'
  /// Begin events only: the span path this thread's outermost spans nest
  /// under (a pool task's poster), or nullptr.
  const std::string* parent = nullptr;
};

struct TraceBuffer {
  std::mutex mu;
  int tid = 0;
  std::vector<TraceEvent> events;
};

struct TraceState {
  std::mutex mu;
  std::vector<std::shared_ptr<TraceBuffer>> buffers;
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
};

TraceState& trace_state() {
  static TraceState* state = new TraceState();
  return *state;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - trace_state().epoch)
          .count());
}

TraceBuffer& local_trace_buffer() {
  thread_local std::shared_ptr<TraceBuffer> buffer = [] {
    auto b = std::make_shared<TraceBuffer>();
    TraceState& state = trace_state();
    std::lock_guard<std::mutex> lock(state.mu);
    b->tid = static_cast<int>(state.buffers.size());
    state.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

void record_event(const char* label, char phase,
                  const std::string* parent = nullptr) {
  TraceBuffer& buf = local_trace_buffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.events.push_back({label, now_ns(), phase, parent});
}

// ---------------------------------------------------------------------------
// Span paths across threads: each thread tracks the labels of its open
// (recorded) spans and the path its outermost spans inherit, so a pool
// task's spans nest under the span that posted it.
// ---------------------------------------------------------------------------

/// Interned span paths: stable addresses for the life of the process, so
/// trace events and queued tasks can hold them by pointer. The set only
/// grows by the distinct paths a run opens pool tasks under.
const std::string* intern_path(std::string path) {
  static std::mutex mu;
  static std::set<std::string>* paths = new std::set<std::string>();
  std::lock_guard<std::mutex> lock(mu);
  return &*paths->insert(std::move(path)).first;
}

struct SpanStack {
  std::vector<const char*> open;            ///< labels, outermost first
  const std::string* inherited = nullptr;   ///< see SpanParent
  const std::string* path = nullptr;        ///< interned; null = stale
};

thread_local SpanStack t_spans;

void push_span(const char* label) {
  t_spans.open.push_back(label);
  t_spans.path = nullptr;
}

void pop_span(const char* label) {
  auto& open = t_spans.open;
  // Spans end in LIFO order unless one was heap-allocated; drop the
  // innermost open span with this label either way.
  for (auto it = open.rbegin(); it != open.rend(); ++it) {
    if (*it == label) {
      open.erase(std::next(it).base());
      break;
    }
  }
  t_spans.path = nullptr;
}

// ---------------------------------------------------------------------------
// JSON helpers.
// ---------------------------------------------------------------------------

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof hex, "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    out += buf;
    return;
  }
  // format_double (std::to_chars) is locale-independent — snprintf %g
  // writes "4,5" under a comma-decimal locale, which is not JSON — and
  // emits the shortest form that parses back to the same bits (>= the old
  // fixed %.17g in fidelity, usually much shorter).
  out += format_double(std::isfinite(v) ? v : 0.0);
}

struct Parser {
  const std::string& text;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos) + ": " + what);
  }
  void skip_ws() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' ||
                                 text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }
  char peek() {
    if (pos >= text.size()) fail("unexpected end of input");
    return text[pos];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos;
  }
  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text.compare(pos, n, lit) != 0) return false;
    pos += n;
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos >= text.size()) fail("unterminated string");
      char c = text[pos++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) fail("bad escape");
      char e = text[pos++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos + 4 > text.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Encode the BMP code point as UTF-8 (surrogate pairs unneeded
          // for anything this codebase writes).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  Json parse_value() {
    skip_ws();
    char c = peek();
    if (c == '{') {
      ++pos;
      Json obj = Json::object();
      skip_ws();
      if (peek() == '}') {
        ++pos;
        return obj;
      }
      while (true) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        obj[key] = parse_value();
        skip_ws();
        if (peek() == ',') {
          ++pos;
          continue;
        }
        expect('}');
        return obj;
      }
    }
    if (c == '[') {
      ++pos;
      Json arr = Json::array();
      skip_ws();
      if (peek() == ']') {
        ++pos;
        return arr;
      }
      while (true) {
        arr.push_back(parse_value());
        skip_ws();
        if (peek() == ',') {
          ++pos;
          continue;
        }
        expect(']');
        return arr;
      }
    }
    if (c == '"') return Json(parse_string());
    if (consume_literal("true")) return Json(true);
    if (consume_literal("false")) return Json(false);
    if (consume_literal("null")) return Json();
    // Number.
    const std::size_t start = pos;
    if (peek() == '-') ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '+' || text[pos] == '-')) {
      ++pos;
    }
    if (pos == start) fail("unexpected character");
    // parse_double (std::from_chars) rather than stod: the latter honors
    // the global C locale and would reject "4.5" under de_DE.
    double value = 0.0;
    if (!parse_double(std::string_view(text).substr(start, pos - start),
                      &value)) {
      fail("bad number");
    }
    return Json(value);
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Runtime switch.
// ---------------------------------------------------------------------------

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

// ---------------------------------------------------------------------------
// Json.
// ---------------------------------------------------------------------------

Json& Json::operator[](const std::string& key) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  if (kind_ != Kind::kObject) {
    throw std::logic_error("Json::operator[]: not an object");
  }
  for (auto& [k, v] : obj_) {
    if (k == key) return v;
  }
  obj_.emplace_back(key, Json());
  return obj_.back().second;
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Json::push_back(Json v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  if (kind_ != Kind::kArray) {
    throw std::logic_error("Json::push_back: not an array");
  }
  arr_.push_back(std::move(v));
}

std::size_t Json::size() const {
  if (kind_ == Kind::kArray) return arr_.size();
  if (kind_ == Kind::kObject) return obj_.size();
  return 0;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline_pad = [&](int d) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent) * d, ' ');
  };
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: append_number(out, num_); break;
    case Kind::kString: append_escaped(out, str_); break;
    case Kind::kArray: {
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i) out += ',';
        newline_pad(depth + 1);
        arr_[i].dump_to(out, indent, depth + 1);
      }
      if (!arr_.empty()) newline_pad(depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i) out += ',';
        newline_pad(depth + 1);
        append_escaped(out, obj_[i].first);
        out += indent > 0 ? ": " : ":";
        obj_[i].second.dump_to(out, indent, depth + 1);
      }
      if (!obj_.empty()) newline_pad(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

Json Json::parse(const std::string& text) {
  Parser parser{text};
  Json value = parser.parse_value();
  parser.skip_ws();
  if (parser.pos != text.size()) parser.fail("trailing content");
  return value;
}

bool write_json_file(const std::string& path, const Json& value) {
  // Atomic tmp + rename: readers (and a killed process) only ever see the
  // previous complete file or the new complete file, never a torn one —
  // run reports double as machine-readable crash artifacts.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp);
    if (!f) {
      CLO_LOG_ERROR << "cannot write " << tmp;
      return false;
    }
    f << value.dump(2) << "\n";
    f.flush();
    if (!f) {
      std::remove(tmp.c_str());
      CLO_LOG_ERROR << "cannot write " << tmp;
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    CLO_LOG_ERROR << "cannot rename " << tmp << " to " << path;
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Metrics registry.
// ---------------------------------------------------------------------------

double HistogramSummary::percentile(double p) const {
  if (count == 0) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(count);
  // The exact extremes anchor the ends; in between, interpolate within the
  // bucket containing the rank (the observed min doubles as the first
  // occupied bucket's lower edge, the observed max as the overflow
  // bucket's upper edge — Prometheus-style approximation).
  if (rank <= 0.0) return min;
  if (rank >= static_cast<double>(count)) return max;
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += buckets[b];
    if (rank > static_cast<double>(cumulative)) continue;
    double lower = b == 0 ? min : bounds[b - 1];
    double upper = b < bounds.size() ? bounds[b] : max;
    // Tighten the interpolation edges with the observed extremes: the
    // FIRST occupied bucket's samples cannot sit below min even when that
    // bucket is not bucket 0 (every histogram whose samples share one
    // bucket hits this), and the LAST occupied bucket's cannot exceed max
    // even when it is not the overflow bucket. Without the clamps a
    // boundary-rank percentile could report values outside [min, max].
    if (before == 0.0) lower = std::max(lower, min);
    if (cumulative == count) upper = std::min(upper, max);
    if (upper < lower) upper = lower;
    const double frac = (rank - before) / static_cast<double>(buckets[b]);
    return std::min(std::max(lower + (upper - lower) * frac, min), max);
  }
  return max;
}

Registry& Registry::instance() {
  static Registry* registry = new Registry();
  return *registry;
}

void Registry::add_counter(const std::string& name, std::uint64_t delta) {
  Shard& shard = local_shard();
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.counters[name] += delta;
}

void Registry::set_gauge(const std::string& name, double value) {
  MetricsState& state = metrics_state();
  std::lock_guard<std::mutex> lock(state.mu);
  state.gauges[name] = value;
}

void Registry::define_histogram(const std::string& name,
                                std::vector<double> bounds) {
  MetricsState& state = metrics_state();
  std::lock_guard<std::mutex> lock(state.mu);
  state.bounds[name] =
      std::make_shared<const std::vector<double>>(std::move(bounds));
}

void Registry::observe(const std::string& name, double value) {
  Shard& shard = local_shard();
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.histograms.find(name);
  if (it == shard.histograms.end()) {
    HistogramCells cells;
    cells.bounds = bounds_for(name);
    cells.buckets.assign(cells.bounds->size() + 1, 0);
    it = shard.histograms.emplace(name, std::move(cells)).first;
  }
  HistogramCells& h = it->second;
  std::size_t b = 0;
  while (b < h.bounds->size() && value > (*h.bounds)[b]) ++b;
  ++h.buckets[b];
  if (h.count == 0 || value < h.min) h.min = value;
  if (h.count == 0 || value > h.max) h.max = value;
  h.sum += value;
  ++h.count;
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  MetricsState& state = metrics_state();
  std::vector<std::shared_ptr<Shard>> shards;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    shards = state.shards;
    snap.gauges = state.gauges;
  }
  for (const auto& shard : shards) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [name, value] : shard->counters) {
      snap.counters[name] += value;
    }
    for (const auto& [name, cells] : shard->histograms) {
      if (cells.count == 0) continue;
      HistogramSummary& merged = snap.histograms[name];
      if (merged.bounds.empty()) {
        merged.bounds = *cells.bounds;
        merged.buckets.assign(merged.bounds.size() + 1, 0);
      }
      for (std::size_t b = 0; b < cells.buckets.size(); ++b) {
        merged.buckets[b] += cells.buckets[b];
      }
      merged.min = merged.count == 0 ? cells.min : std::min(merged.min, cells.min);
      merged.max = merged.count == 0 ? cells.max : std::max(merged.max, cells.max);
      merged.sum += cells.sum;
      merged.count += cells.count;
    }
  }
  return snap;
}

void Registry::reset() {
  MetricsState& state = metrics_state();
  std::vector<std::shared_ptr<Shard>> shards;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    shards = state.shards;
    state.gauges.clear();
  }
  for (const auto& shard : shards) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->counters.clear();
    shard->histograms.clear();
  }
}

Json MetricsSnapshot::to_json() const {
  Json root = Json::object();
  Json& counter_obj = root["counters"];
  counter_obj = Json::object();
  for (const auto& [name, value] : counters) counter_obj[name] = Json(value);
  Json& gauge_obj = root["gauges"];
  gauge_obj = Json::object();
  for (const auto& [name, value] : gauges) gauge_obj[name] = Json(value);
  Json& hist_obj = root["histograms"];
  hist_obj = Json::object();
  for (const auto& [name, h] : histograms) {
    Json entry = Json::object();
    entry["count"] = Json(h.count);
    entry["sum"] = Json(h.sum);
    entry["mean"] = Json(h.mean());
    entry["min"] = Json(h.min);
    entry["max"] = Json(h.max);
    entry["p50"] = Json(h.percentile(50));
    entry["p90"] = Json(h.percentile(90));
    entry["p99"] = Json(h.percentile(99));
    hist_obj[name] = std::move(entry);
  }
  return root;
}

std::string MetricsSnapshot::format_table() const {
  std::ostringstream os;
  os << "-- counters --\n";
  for (const auto& [name, value] : counters) {
    os << "  " << name << " = " << value << "\n";
  }
  os << "-- gauges --\n";
  for (const auto& [name, value] : gauges) {
    os << "  " << name << " = " << value << "\n";
  }
  os << "-- histograms (count mean p50 p90 p99 max) --\n";
  for (const auto& [name, h] : histograms) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "  %s: n=%llu mean=%.6g p50=%.6g p90=%.6g p99=%.6g "
                  "max=%.6g\n",
                  name.c_str(), static_cast<unsigned long long>(h.count),
                  h.mean(), h.percentile(50), h.percentile(90),
                  h.percentile(99), h.max);
    os << line;
  }
  return os.str();
}

std::string prometheus_name(const std::string& name) {
  std::string out = "clo_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string prometheus_escape_label(const std::string& value) {
  std::string out;
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string MetricsSnapshot::to_prometheus() const {
  std::string out;
  const auto value_str = [](double v) {
    if (!std::isfinite(v)) return std::string(v > 0 ? "+Inf" : "-Inf");
    return format_double(v);
  };
  for (const auto& [name, value] : counters) {
    const std::string pn = prometheus_name(name) + "_total";
    out += "# TYPE " + pn + " counter\n";
    out += pn + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges) {
    const std::string pn = prometheus_name(name);
    out += "# TYPE " + pn + " gauge\n";
    out += pn + " " + value_str(value) + "\n";
  }
  for (const auto& [name, h] : histograms) {
    const std::string pn = prometheus_name(name);
    out += "# TYPE " + pn + " summary\n";
    for (const auto& [label, p] :
         {std::pair<const char*, double>{"0.5", 50.0},
          {"0.9", 90.0},
          {"0.99", 99.0}}) {
      out += pn + "{quantile=\"" + label + "\"} " +
             value_str(h.percentile(p)) + "\n";
    }
    out += pn + "_sum " + value_str(h.sum) + "\n";
    out += pn + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Progress gauges.
// ---------------------------------------------------------------------------

Progress::Progress(const char* phase, std::uint64_t total)
    : phase_(phase),
      total_(total),
      active_(enabled() && total > 0),
      start_(std::chrono::steady_clock::now()) {
  if (active_) {
    Registry::instance().set_gauge(std::string("progress.") + phase_ +
                                       ".total",
                                   static_cast<double>(total_));
    publish(0);
  }
}

void Progress::tick(std::uint64_t delta) {
  if (!active_) return;
  const std::uint64_t done =
      done_.fetch_add(delta, std::memory_order_relaxed) + delta;
  // Only publish when progress crosses the next 1/512 of the total (or
  // completes), so tight loops do not serialize on the registry mutex.
  const std::uint64_t bucket = done >= total_ ? 512 : done * 512 / total_;
  std::uint64_t prev = bucket_.load(std::memory_order_relaxed);
  if (bucket <= prev ||
      !bucket_.compare_exchange_strong(prev, bucket,
                                       std::memory_order_relaxed)) {
    return;
  }
  publish(done);
}

void Progress::publish(std::uint64_t done) {
  const double fraction =
      std::min(1.0, static_cast<double>(done) / static_cast<double>(total_));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  const double eta =
      done == 0 ? 0.0
                : elapsed * static_cast<double>(total_ - std::min(done, total_)) /
                      static_cast<double>(done);
  auto& reg = Registry::instance();
  const std::string prefix = std::string("progress.") + phase_;
  reg.set_gauge(prefix + ".fraction", fraction);
  reg.set_gauge(prefix + ".eta_seconds", eta);
  reg.set_gauge(prefix + ".done", static_cast<double>(done));
}

// ---------------------------------------------------------------------------
// Span-derived self-profiler.
// ---------------------------------------------------------------------------

namespace {

struct ProfileAccumulator {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::vector<std::uint64_t> durations_ns;
};

/// Exact nearest-rank percentile over a sorted sample.
double exact_percentile(const std::vector<std::uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size());
  std::size_t idx = rank <= 1.0
                        ? 0
                        : static_cast<std::size_t>(std::ceil(rank)) - 1;
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return static_cast<double>(sorted[idx]) * 1e-9;
}

}  // namespace

Profile build_profile() {
  TraceState& state = trace_state();
  std::vector<std::shared_ptr<TraceBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    buffers = state.buffers;
  }
  std::map<std::string, ProfileAccumulator> paths;
  struct Frame {
    const char* label;
    std::uint64_t begin_ns;
    std::uint64_t child_ns = 0;
    std::string path;
  };
  for (const auto& buffer : buffers) {
    std::vector<TraceEvent> events;
    {
      std::lock_guard<std::mutex> lock(buffer->mu);
      events = buffer->events;
    }
    std::vector<Frame> stack;
    for (const auto& event : events) {
      if (event.phase == 'B') {
        Frame frame;
        frame.label = event.label;
        frame.begin_ns = event.ts_ns;
        if (!stack.empty()) {
          frame.path = stack.back().path + "/" + event.label;
        } else if (event.parent != nullptr) {
          frame.path = *event.parent + "/" + event.label;
        } else {
          frame.path = event.label;
        }
        stack.push_back(std::move(frame));
        continue;
      }
      // ScopedSpan guarantees balanced pairs per thread, but tolerate
      // arbitrary streams: an end with no matching begin is dropped.
      if (stack.empty() || std::string_view(stack.back().label) !=
                               std::string_view(event.label)) {
        continue;
      }
      Frame frame = std::move(stack.back());
      stack.pop_back();
      const std::uint64_t duration =
          event.ts_ns >= frame.begin_ns ? event.ts_ns - frame.begin_ns : 0;
      ProfileAccumulator& acc = paths[frame.path];
      ++acc.count;
      acc.total_ns += duration;
      acc.self_ns +=
          duration >= frame.child_ns ? duration - frame.child_ns : 0;
      acc.durations_ns.push_back(duration);
      if (!stack.empty()) stack.back().child_ns += duration;
    }
    // Open frames (still-running spans) are intentionally dropped.
  }
  Profile profile;
  profile.nodes.reserve(paths.size());
  for (auto& [path, acc] : paths) {
    std::sort(acc.durations_ns.begin(), acc.durations_ns.end());
    ProfileNode node;
    node.path = path;
    node.count = acc.count;
    node.total_s = static_cast<double>(acc.total_ns) * 1e-9;
    node.self_s = static_cast<double>(acc.self_ns) * 1e-9;
    node.p50_s = exact_percentile(acc.durations_ns, 50.0);
    node.p99_s = exact_percentile(acc.durations_ns, 99.0);
    profile.nodes.push_back(std::move(node));
  }
  return profile;
}

Json Profile::to_json() const {
  Json root = Json::object();
  root["schema"] = "clo.profile.v1";
  root["run"] = run_id();
  Json& node_arr = root["nodes"];
  node_arr = Json::array();
  for (const auto& node : nodes) {
    Json entry = Json::object();
    entry["path"] = node.path;
    entry["count"] = Json(node.count);
    entry["total_s"] = Json(node.total_s);
    entry["self_s"] = Json(node.self_s);
    entry["p50_s"] = Json(node.p50_s);
    entry["p99_s"] = Json(node.p99_s);
    node_arr.push_back(std::move(entry));
  }
  return root;
}

std::string Profile::format_table() const {
  std::vector<const ProfileNode*> by_total;
  by_total.reserve(nodes.size());
  for (const auto& node : nodes) by_total.push_back(&node);
  std::sort(by_total.begin(), by_total.end(),
            [](const ProfileNode* a, const ProfileNode* b) {
              if (a->total_s != b->total_s) return a->total_s > b->total_s;
              return a->path < b->path;
            });
  std::ostringstream os;
  os << "-- profile (total self count p50 p99) --\n";
  for (const ProfileNode* node : by_total) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "  %-40s total=%.6gs self=%.6gs n=%llu p50=%.6gs "
                  "p99=%.6gs\n",
                  node->path.c_str(), node->total_s, node->self_s,
                  static_cast<unsigned long long>(node->count), node->p50_s,
                  node->p99_s);
    os << line;
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Tracing.
// ---------------------------------------------------------------------------

ScopedSpan::ScopedSpan(const char* label)
    : label_(label), active_(enabled()) {
  if (!active_) return;
  record_event(label_, 'B', t_spans.inherited);
  push_span(label_);
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  pop_span(label_);
  record_event(label_, 'E');
}

const std::string* current_span_path() {
  if (!enabled()) return nullptr;
  SpanStack& spans = t_spans;
  if (spans.open.empty()) return spans.inherited;
  if (spans.path == nullptr) {
    std::string path = spans.inherited ? *spans.inherited : std::string();
    for (const char* label : spans.open) {
      if (!path.empty()) path += '/';
      path += label;
    }
    spans.path = intern_path(std::move(path));
  }
  return spans.path;
}

SpanParent::SpanParent(const std::string* path) : saved_(t_spans.inherited) {
  t_spans.inherited = path;
  t_spans.path = nullptr;
}

SpanParent::~SpanParent() {
  t_spans.inherited = saved_;
  t_spans.path = nullptr;
}

void write_trace(std::ostream& os) {
  Json root = Json::object();
  root["displayTimeUnit"] = "ms";
  Json& events = root["traceEvents"];
  events = Json::array();
  TraceState& state = trace_state();
  std::vector<std::shared_ptr<TraceBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    buffers = state.buffers;
  }
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    for (const auto& event : buffer->events) {
      Json e = Json::object();
      e["name"] = event.label;
      e["cat"] = "clo";
      e["ph"] = std::string(1, event.phase);
      e["ts"] = Json(static_cast<double>(event.ts_ns) / 1000.0);
      e["pid"] = 1;
      e["tid"] = buffer->tid;
      events.push_back(std::move(e));
    }
  }
  os << root.dump(1) << "\n";
}

bool write_trace_file(const std::string& path) {
  std::ofstream f(path);
  if (!f) {
    CLO_LOG_ERROR << "cannot write " << path;
    return false;
  }
  write_trace(f);
  return static_cast<bool>(f);
}

void reset_trace() {
  TraceState& state = trace_state();
  std::vector<std::shared_ptr<TraceBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    buffers = state.buffers;
  }
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    buffer->events.clear();
  }
}

std::size_t trace_event_count() {
  TraceState& state = trace_state();
  std::vector<std::shared_ptr<TraceBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    buffers = state.buffers;
  }
  std::size_t n = 0;
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    n += buffer->events.size();
  }
  return n;
}

}  // namespace clo::obs
