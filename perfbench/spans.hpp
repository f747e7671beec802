#pragma once
// In-memory span recorder for the traced run. Spans are recorded only in
// the benchmark's own code, around its calls into the library's public
// functions; nothing inside the library is instrumented. A span has a
// name, a start and end time, the span that caused it (its parent) and a
// request id shared by every span of one unit of work. Recording is off
// unless enabled, so the untraced run pays one branch per span site.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";  ///< string literal; never owned
    std::uint64_t request = 0;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
  };

  /// Per-name aggregate. Self time is a span's duration minus the part of
  /// its interval covered by its children.
  struct Summary {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    double mean_ms() const { return count == 0 ? 0.0 : 1e3 * total_s / count; }
  };

  static Tracer& instance();

  void set_enabled(bool on);
  bool enabled() const { return enabled_; }

  /// Open a span; returns its id (-1 when disabled). `parent == kAuto`
  /// takes the innermost span open on the calling thread.
  static constexpr int kAuto = -2;
  int begin(const char* name, std::uint64_t request, int parent = kAuto);
  void end(int id);

  /// Aggregate every closed span by name.
  std::map<std::string, Summary> summarize() const;

  /// Write every span as JSON lines (one object per span).
  bool write(const std::string& path) const;

 private:
  Tracer();
  static std::int64_t now_ns();

  bool enabled_ = false;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint64_t request,
             int parent = Tracer::kAuto)
      : id_(Tracer::instance().begin(name, request, parent)) {}
  ~ScopedSpan() { Tracer::instance().end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  int id_;
};

}  // namespace perfbench
