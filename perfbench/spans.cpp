#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {
namespace {

// Innermost open spans of the calling thread (parent for kAuto). A fixed
// array, so opening a span never allocates inside an allocation-counting
// window.
constexpr int kMaxDepth = 32;
thread_local int t_open[kMaxDepth];
thread_local int t_depth = 0;

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
}

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - instance().epoch_)
      .count();
}

void Tracer::set_enabled(bool on) { enabled_ = on; }

int Tracer::begin(const char* name, std::uint64_t request, int parent) {
  if (!enabled_) return -1;
  if (parent == kAuto) parent = t_depth > 0 ? t_open[t_depth - 1] : -1;
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    spans_.push_back({name, request, parent, now_ns(), -1});
  }
  if (t_depth < kMaxDepth) t_open[t_depth] = id;
  ++t_depth;
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  const std::int64_t t = now_ns();
  --t_depth;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::map<std::string, Tracer::Summary> Tracer::summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children intervals per parent, merged to get each span's covered time.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
    }
  }
  std::map<std::string, Summary> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, lo = 0, hi = -1;
    for (auto [a, b] : iv) {
      a = std::max(a, s.start_ns);
      b = std::min(b, s.end_ns);
      if (b <= a) continue;
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    const std::int64_t dur = s.end_ns - s.start_ns;
    Summary& sum = out[s.name];
    ++sum.count;
    sum.total_s += 1e-9 * static_cast<double>(dur);
    sum.self_s += 1e-9 * static_cast<double>(dur - covered);
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"parent\":%d,\"name\":\"%s\",\"request\":%llu,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   i, s.parent, s.name,
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
