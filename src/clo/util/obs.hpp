#pragma once
// clo::obs — the observability layer: a thread-safe metrics registry
// (named counters, gauges, and fixed-bucket histograms with percentile
// queries), a scoped tracing API that serializes to Chrome trace-event
// JSON (loadable in chrome://tracing / Perfetto), and a minimal JSON value
// type (build + parse) used for machine-readable run reports.
//
// Cost model: everything is off by default. Each instrumentation macro
// first checks one relaxed atomic (obs::enabled()); when that is false no
// clock is read and no allocation happens. Defining CLO_OBS_DISABLE at
// compile time removes the instrumentation sites entirely (the library
// functions below stay available so callers always link). Counters and
// histograms are sharded per thread and merged on snapshot — the same
// pattern as QorEvaluator's sharded cache — so worker threads never
// contend on a global lock. Instrumentation only reads clocks and bumps
// thread-local state; it never touches an Rng or the computation, so the
// bit-identical cross-thread determinism contract of the parallel
// substrate is unaffected.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace clo::obs {

// ---------------------------------------------------------------------------
// Runtime switch (the compile-time guard is the CLO_OBS_* macro layer).
// ---------------------------------------------------------------------------

/// Whether instrumentation records anything (default false).
bool enabled();
void set_enabled(bool on);

// ---------------------------------------------------------------------------
// Minimal JSON value: enough to build reports and parse them back in tests.
// Objects preserve insertion order; numbers are doubles (integral values
// round-trip as integers up to 2^53).
// ---------------------------------------------------------------------------

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  Json(bool v) : kind_(Kind::kBool), bool_(v) {}  // NOLINT(runtime/explicit)
  Json(double v) : kind_(Kind::kNumber), num_(v) {}
  Json(int v) : kind_(Kind::kNumber), num_(v) {}
  Json(std::uint64_t v) : kind_(Kind::kNumber), num_(static_cast<double>(v)) {}
  Json(const char* v) : kind_(Kind::kString), str_(v) {}
  Json(std::string v) : kind_(Kind::kString), str_(std::move(v)) {}

  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }

  /// Object access; creates the key (and coerces a null value to an
  /// object) like nlohmann/json does.
  Json& operator[](const std::string& key);
  /// Object lookup without insertion; nullptr when absent or not an object.
  const Json* find(const std::string& key) const;

  /// Array append (coerces a null value to an array).
  void push_back(Json v);

  double as_double() const { return num_; }
  bool as_bool() const { return bool_; }
  const std::string& as_string() const { return str_; }
  std::size_t size() const;
  const Json& at(std::size_t i) const { return arr_[i]; }
  const std::vector<std::pair<std::string, Json>>& items() const {
    return obj_;
  }

  /// Serialize; indent 0 = compact single line.
  std::string dump(int indent = 0) const;

  /// Parse a JSON document. Throws std::runtime_error on malformed input.
  static Json parse(const std::string& text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

/// Write a JSON value to a file (2-space pretty printed, trailing newline).
/// Returns false (and logs) on I/O failure.
bool write_json_file(const std::string& path, const Json& value);

// ---------------------------------------------------------------------------
// Metrics registry.
// ---------------------------------------------------------------------------

/// Merged view of one histogram: exact count/sum/min/max plus fixed-bucket
/// counts supporting approximate percentile queries.
struct HistogramSummary {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<double> bounds;          ///< bucket upper bounds, ascending
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 (last = overflow)

  double mean() const { return count == 0 ? 0.0 : sum / count; }
  /// Approximate percentile (p in [0, 100]) by linear interpolation inside
  /// the bucket containing the rank; the exact min/max anchor the two ends.
  double percentile(double p) const;
};

struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSummary> histograms;

  Json to_json() const;
  /// Human-readable fixed-width table (the `metrics` shell command and the
  /// --metrics exit dump). Rows are sorted by metric name (the maps above
  /// are ordered), so the output is deterministic for a given snapshot.
  std::string format_table() const;
  /// Prometheus text-exposition rendering (version 0.0.4): counters as
  /// `clo_<name>_total`, gauges as `clo_<name>`, histograms as summaries
  /// with quantile labels. Served by the exporter's --metrics-port
  /// listener.
  std::string to_prometheus() const;
};

/// Sanitize an internal dotted metric name into a legal Prometheus metric
/// name: "clo_" prefix, every character outside [a-zA-Z0-9_:] becomes '_'.
std::string prometheus_name(const std::string& name);
/// Escape a Prometheus label value (backslash, double-quote, newline).
std::string prometheus_escape_label(const std::string& value);

class Registry {
 public:
  /// The process-wide registry every instrumentation site reports to.
  static Registry& instance();

  /// Monotonic named counter (thread-local shard, exact on merge).
  void add_counter(const std::string& name, std::uint64_t delta = 1);
  /// Last-write-wins named value (global map under a mutex; set rarely).
  void set_gauge(const std::string& name, double value);
  /// Record one histogram observation. Bounds come from define_histogram()
  /// or default to log-spaced buckets covering 1e-6..1e3 (tuned for
  /// seconds-scale durations).
  void observe(const std::string& name, double value);
  /// Install explicit bucket upper bounds (ascending). Must be called
  /// before the first observe() of `name`.
  void define_histogram(const std::string& name, std::vector<double> bounds);

  /// Merge every thread's shard into one consistent snapshot.
  MetricsSnapshot snapshot() const;
  /// Zero all counters/gauges/histogram contents (bucket definitions and
  /// thread shards survive). Used between bench repetitions.
  void reset();

 private:
  Registry() = default;
};

// ---------------------------------------------------------------------------
// Progress gauges.
// ---------------------------------------------------------------------------

/// Progress reporter for a long phase with a known step count. Publishes
/// four gauges under "progress.<phase>." — fraction (0..1, monotone
/// non-decreasing within the phase), eta_seconds, done, and total — so the
/// exporter stream shows where a multi-minute run is and how long is left.
///
/// tick() is thread-safe (workers share one Progress through a pointer)
/// and cheap in tight loops: it bumps one relaxed atomic and only touches
/// the registry when progress crosses the next 1/512 of the total, so the
/// registry mutex is taken at most ~512 times per phase regardless of the
/// step count. Inert when observability is off or total == 0.
class Progress {
 public:
  /// `phase` must be a string literal (stored by pointer).
  Progress(const char* phase, std::uint64_t total);
  Progress(const Progress&) = delete;
  Progress& operator=(const Progress&) = delete;

  void tick(std::uint64_t delta = 1);
  bool active() const { return active_; }

 private:
  void publish(std::uint64_t done);

  const char* phase_;
  std::uint64_t total_ = 0;
  bool active_ = false;
  std::atomic<std::uint64_t> done_{0};
  std::atomic<std::uint64_t> bucket_{0};  ///< last published done*512/total
  std::chrono::steady_clock::time_point start_;
};

// ---------------------------------------------------------------------------
// Span-derived self-profiler.
// ---------------------------------------------------------------------------

/// One aggregated call path in the profile. `path` joins the span labels
/// from the root with '/' (a top-level span's path is its label), so the
/// same label reached through different parents stays distinct.
struct ProfileNode {
  std::string path;
  std::uint64_t count = 0;  ///< completed spans on this path
  double total_s = 0.0;     ///< wall time including children
  double self_s = 0.0;      ///< wall time excluding child spans
  double p50_s = 0.0;       ///< exact (nearest-rank) median span duration
  double p99_s = 0.0;
};

struct Profile {
  std::vector<ProfileNode> nodes;  ///< sorted by path

  /// clo.profile.v1: {"schema", "run", "nodes": [{path, count, total_s,
  /// self_s, p50_s, p99_s}, ...]}.
  Json to_json() const;
  /// Human-readable table sorted by total time descending (the `profile`
  /// shell command).
  std::string format_table() const;
};

/// Aggregate the recorded span stream into a hierarchical profile: walk
/// each thread's begin/end events with a stack, accumulate per-path count,
/// total and self time, and exact p50/p99 over span durations, then merge
/// the per-thread results by path. A thread's outermost spans take the
/// path they inherited (see SpanParent) as their parent, so pool workers'
/// spans nest under the span that posted their task; a parent's self time
/// covers only its own thread. Spans still open (or truncated by a
/// mid-span trace toggle) are skipped, never mispaired.
Profile build_profile();

// ---------------------------------------------------------------------------
// Tracing.
// ---------------------------------------------------------------------------

/// RAII span: records a begin event at construction and the matching end
/// event at destruction into a per-thread buffer (appends take only the
/// buffer's own uncontended mutex). Balanced by construction — if tracing
/// is toggled mid-span the end event is recorded iff the begin was. Labels
/// must be string literals (stored by pointer).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* label);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* label_;
  bool active_;
};

/// The calling thread's open-span path ("a/b/c", under any path it
/// inherited through a SpanParent), interned for the life of the process;
/// nullptr when tracing is off or no span is open. ThreadPool captures it
/// when a task is queued.
const std::string* current_span_path();

/// RAII: while alive, spans the calling thread opens with no open parent
/// of its own nest under `path` (nullptr = at the profile root) in
/// build_profile. ThreadPool workers hold one around each task, set to
/// the posting thread's current_span_path(), so a worker's spans land
/// under the span that fanned the work out.
class SpanParent {
 public:
  explicit SpanParent(const std::string* path);
  ~SpanParent();
  SpanParent(const SpanParent&) = delete;
  SpanParent& operator=(const SpanParent&) = delete;

 private:
  const std::string* saved_;
};

/// Serialize every recorded span as Chrome trace-event JSON
/// ({"traceEvents": [{"ph": "B"/"E", ...}]}).
void write_trace(std::ostream& os);
/// write_trace to a file; returns false (and logs) on I/O failure.
bool write_trace_file(const std::string& path);
/// Drop all recorded events (buffers stay registered).
void reset_trace();
/// Number of events currently recorded (tests / sanity checks).
std::size_t trace_event_count();

}  // namespace clo::obs

// ---------------------------------------------------------------------------
// Instrumentation macros — the only layer call sites use. Compile away
// entirely under CLO_OBS_DISABLE; otherwise each expands to one relaxed
// atomic check before doing any work.
// ---------------------------------------------------------------------------

#if !defined(CLO_OBS_DISABLE)

#define CLO_OBS_CONCAT_INNER(a, b) a##b
#define CLO_OBS_CONCAT(a, b) CLO_OBS_CONCAT_INNER(a, b)

/// True when instrumentation should record; usable in `if` conditions
/// around code that e.g. reads clocks. Constant-folds to false when
/// observability is compiled out.
#define CLO_OBS_RUNTIME_ENABLED() (::clo::obs::enabled())

#define CLO_TRACE_SPAN(label) \
  ::clo::obs::ScopedSpan CLO_OBS_CONCAT(clo_obs_span_, __LINE__)(label)

#define CLO_OBS_COUNT(name, delta)                              \
  do {                                                          \
    if (::clo::obs::enabled())                                  \
      ::clo::obs::Registry::instance().add_counter(name, delta); \
  } while (0)

#define CLO_OBS_GAUGE(name, value)                              \
  do {                                                          \
    if (::clo::obs::enabled())                                  \
      ::clo::obs::Registry::instance().set_gauge(name, value);  \
  } while (0)

#define CLO_OBS_OBSERVE(name, value)                            \
  do {                                                          \
    if (::clo::obs::enabled())                                  \
      ::clo::obs::Registry::instance().observe(name, value);    \
  } while (0)

#else  // CLO_OBS_DISABLE

#define CLO_OBS_RUNTIME_ENABLED() (false)
#define CLO_TRACE_SPAN(label) \
  do {                        \
  } while (0)
#define CLO_OBS_COUNT(name, delta) \
  do {                             \
  } while (0)
#define CLO_OBS_GAUGE(name, value) \
  do {                             \
  } while (0)
#define CLO_OBS_OBSERVE(name, value) \
  do {                               \
  } while (0)

#endif  // CLO_OBS_DISABLE
