// perfbench: the repository's end-to-end benchmark.
//
//   clo_perfbench --workload <tune_label|tune_train|query_warm> --seed <n>
//                 --seconds <s> --trace <0|1> [--smoke] [--out-dir <dir>]
//
// Drives the library from outside, through public functions only, at
// threads = min(4, host cores). With --trace 0 it measures the end-to-end
// metrics; with --trace 1 it alternates untraced and traced units, records
// spans around its own calls into the library, replays a seeded sample of
// the same work one level down, and reports the per-layer metrics. Every
// run checks its answers outside the timed region. The last stdout line is
// {"correct", "attempted", "failed", "metrics"}; the lines before it carry
// the run context and one row per circuit or query. See README.md.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_count.hpp"
#include "clo/circuits/generators.hpp"
#include "clo/core/evaluator.hpp"
#include "clo/core/optimizer.hpp"
#include "clo/core/pipeline.hpp"
#include "clo/models/diffusion.hpp"
#include "clo/models/embedding.hpp"
#include "clo/nn/kernel.hpp"
#include "clo/nn/ops.hpp"
#include "clo/nn/optim.hpp"
#include "clo/nn/tensor.hpp"
#include "clo/opt/transform.hpp"
#include "clo/sat/cec.hpp"
#include "clo/techmap/cell_library.hpp"
#include "clo/techmap/tech_map.hpp"
#include "clo/util/rng.hpp"
#include "clo/util/thread_pool.hpp"
#include "spans.hpp"

namespace {

using namespace clo;
using perfbench::ScopedSpan;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// Shortest decimal that reads back to the same double.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  for (int prec = 1; prec < 17; ++prec) {
    char tmp[32];
    std::snprintf(tmp, sizeof tmp, "%.*g", prec, v);
    if (std::strtod(tmp, nullptr) == v) return tmp;
  }
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string bits_hex(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ULL;
  }
  void add(double v) { add(&v, sizeof v); }
};

/// Peak resident set size of the process (ru_maxrss is in KiB on Linux).
double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Command line and workload specs

struct Args {
  std::string program;  ///< argv[0]: this executable
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".";
};

bool parse_args(int argc, char** argv, Args* args) {
  args->program = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args->workload = value;
      } else if (flag == "--seed") {
        args->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args->seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        args->trace = value == "1";
      } else if (flag == "--out-dir") {
        args->out_dir = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

struct Spec {
  std::vector<std::string> circuits;
  /// Cold-tune config (tune workloads) or pretraining config (query_warm).
  core::PipelineConfig config;
  bool query = false;
  int query_restarts = 0;
  /// Queries per run: one round over a fixed grid of area weightings.
  int query_round = 0;
  /// Seconds of warm CloPipeline::optimize() repeats after each pass.
  double warm_seconds = 0.0;
  /// Set-up repetitions; setup_s is their median.
  int setup_reps = 1;
  /// One-level-down replay sizes (traced run only).
  int replay_labels_per_circuit = 4;
  int replay_train_iters = 8;
  int replay_denoise_steps = 8;
  int replay_rows = 30;
};

bool make_spec(const Args& args, int threads, Spec* spec) {
  core::PipelineConfig& c = spec->config;
  c.threads = threads;
  c.seed = 1;  // the program's own seed is fixed: answers are reproducible
  const bool smoke = args.smoke;
  if (args.workload == "tune_label") {
    // Labels dominate: few denoiser iterations, large circuits.
    spec->circuits = {"ctrl", "router", "c432"};
    c.dataset_size = smoke ? 2 : 4;
    c.restarts = 2;
    c.diffusion_steps = smoke ? 10 : 60;
    c.diffusion_iters = smoke ? 2 : 20;
    if (smoke) c.surrogate_train.epochs = 2;
    spec->warm_seconds = smoke ? 0.0 : 8.0;
    spec->setup_reps = smoke ? 3 : 21;
  } else if (args.workload == "tune_train") {
    // The shell `tune` defaults on a 6-AND circuit: training dominates.
    spec->circuits = {"c17"};
    c.dataset_size = smoke ? 8 : 80;
    c.restarts = 2;
    c.diffusion_steps = smoke ? 10 : 60;
    c.diffusion_iters = smoke ? 4 : 600;
    if (smoke) c.surrogate_train.epochs = 2;
    spec->warm_seconds = smoke ? 0.0 : 4.0;
    spec->setup_reps = smoke ? 3 : 51;
  } else if (args.workload == "query_warm") {
    // Paper-scale queries (T = 500, 30 restarts) against a model
    // pretrained in set-up and resumed from its checkpoint by one pipeline
    // per weighting.
    spec->circuits = {"ctrl"};
    spec->query = true;
    // Trained enough that the restarts retrieve distinct sequences, so
    // validation synthesizes (with fewer iterations they collapse onto one).
    c.dataset_size = smoke ? 4 : 12;
    c.diffusion_steps = smoke ? 20 : 500;
    c.diffusion_iters = smoke ? 2 : 100;
    if (smoke) c.surrogate_train.epochs = 2;
    spec->query_restarts = smoke ? 4 : 30;
    spec->query_round = smoke ? 2 : 6;
    spec->setup_reps = smoke ? 1 : 3;
  } else {
    return false;
  }
  if (smoke) {
    spec->replay_labels_per_circuit = 1;
    spec->replay_train_iters = 2;
    spec->replay_denoise_steps = 2;
    spec->replay_rows = 4;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Accounting

/// Operations attempted and failed, and whether every correctness check
/// passed. Operations are tunes, optimizer restarts, validations and
/// checks.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void ops(std::uint64_t n, std::uint64_t n_failed) {
    attempted += n;
    failed += n_failed;
  }
  void check(bool ok, const std::string& what) {
    ops(1, ok ? 0 : 1);
    if (!ok) {
      correct = false;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }
};

/// One answer: the result of a cold tune on one circuit, or of one query.
struct Answer {
  std::size_t circuit = 0;
  double weight_area = 0.5;
  opt::Sequence best_sequence;
  core::Qor original, best;
  double wall_s = 0.0;
  /// Fig. 5 buckets of this answer. A query's pretraining buckets are the
  /// set-up's, resumed from its checkpoint; its own are optimize and
  /// validate.
  double dataset_s = 0.0, surrogate_s = 0.0, diffusion_s = 0.0;
  double optimize_s = 0.0, validate_s = 0.0;
  /// Warm query time and its optimize part: medians over the warm
  /// CloPipeline::optimize() repeats after a cold tune; a query's own.
  double warm_query_s = 0.0, warm_optimize_s = 0.0;
  core::EvaluatorStats stats;
  bool ok = false;

  double area_ratio() const { return best.area_um2 / original.area_um2; }
  double delay_ratio() const { return best.delay_ps / original.delay_ps; }
  std::string digest() const {
    return opt::sequence_to_string(best_sequence) + "|" +
           bits_hex(area_ratio()) + "|" + bits_hex(delay_ratio());
  }
};

/// Answers of one unit of work: a cold-tune pass over the workload's
/// circuits, or one warm query.
struct Unit {
  std::vector<Answer> answers;
  double wall_s = 0.0;
  bool traced = false;
  double sum(double Answer::*field) const {
    double s = 0.0;
    for (const auto& a : answers) s += a.*field;
    return s;
  }
};

// ---------------------------------------------------------------------------
// The workloads

/// The evaluator and pipeline of one cold tune, kept for the warm queries
/// that follow the pass.
struct Tuned {
  std::unique_ptr<core::QorEvaluator> evaluator;
  std::unique_ptr<core::CloPipeline> pipeline;
};

/// Copies a pipeline result into `a` and counts its restarts and
/// validations (two operations per restart) in the tally.
void record(const core::PipelineResult& r, Answer* a, Tally& tally) {
  a->ok = true;
  a->best_sequence = r.best_sequence;
  a->original = r.original;
  a->best = r.best;
  a->dataset_s = r.dataset_seconds;
  a->surrogate_s = r.surrogate_train_seconds;
  a->diffusion_s = r.diffusion_train_seconds;
  a->optimize_s = r.optimize_seconds;
  a->validate_s = r.validate_seconds;
  tally.ops(2 * r.restarts.size(),
            r.optimize_quarantined.size() + r.validate_quarantined.size());
}

Answer cold_tune(const Spec& spec, const aig::Aig& circuit, std::size_t index,
                 util::ThreadPool& pool, std::uint64_t request, Tally& tally,
                 Tuned* tuned) {
  Answer a;
  a.circuit = index;
  {
    ScopedSpan span("core.CloPipeline::run", request);
    const auto t0 = Clock::now();
    tuned->evaluator = std::make_unique<core::QorEvaluator>(circuit);
    tuned->pipeline = std::make_unique<core::CloPipeline>(spec.config);
    tuned->pipeline->set_external_pool(&pool);
    try {
      const core::PipelineResult r = tuned->pipeline->run(*tuned->evaluator);
      a.wall_s = seconds_since(t0);
      record(r, &a, tally);
    } catch (const std::exception& e) {
      a.wall_s = seconds_since(t0);
      std::fprintf(stderr, "perfbench: tune of %s threw: %s\n",
                   circuit.name().c_str(), e.what());
    }
  }
  tally.ops(1, a.ok ? 0 : 1);
  a.stats = tuned->evaluator->snapshot();
  return a;
}

/// Warm queries against a pass's tuned models, outside the tunes' wall
/// time: CloPipeline::optimize round-robin over the circuits for
/// `warm_seconds`, at least once each. Spreading them over seconds averages
/// out the host's speed swings. Each replays its cold run's optimize phase,
/// so its answer must be byte-identical to the cold one.
void warm_queries(const Spec& spec, std::vector<Tuned>& tuned, Unit* unit,
                  std::uint64_t request, Tally& tally) {
  const std::size_t n = tuned.size();
  std::vector<std::vector<double>> query_s(n), optimize_s(n);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n || seconds_since(t0) < spec.warm_seconds;
       ++i) {
    Answer& a = unit->answers[i % n];
    if (!a.ok) {
      if (i >= n) break;  // never loop on circuits that have no answer
      continue;
    }
    Tuned& t = tuned[i % n];
    ScopedSpan warm("core.CloPipeline::optimize", request);
    const auto q0 = Clock::now();
    const core::PipelineResult r = t.pipeline->optimize(*t.evaluator);
    query_s[i % n].push_back(seconds_since(q0));
    optimize_s[i % n].push_back(r.optimize_seconds);
    tally.check(r.best_sequence == a.best_sequence &&
                    r.best.area_um2 == a.best.area_um2 &&
                    r.best.delay_ps == a.best.delay_ps,
                t.evaluator->circuit().name() +
                    ": warm answer differs from the cold tune");
  }
  for (std::size_t c = 0; c < n; ++c) {
    unit->answers[c].warm_query_s = median(query_s[c]);
    unit->answers[c].warm_optimize_s = median(optimize_s[c]);
  }
}

/// The config of the query pipeline for one area weighting: the pretraining
/// config (so it resumes the set-up's checkpoint, whose key ignores the
/// restart count and the weighting) at `query_restarts` restarts.
core::PipelineConfig query_config(const Spec& spec, double weight_area,
                                  const std::string& checkpoint_dir) {
  core::PipelineConfig c = spec.config;
  c.restarts = spec.query_restarts;
  c.optimize.weight_area = weight_area;
  c.optimize.weight_delay = 1.0 - weight_area;
  c.checkpoint_dir = checkpoint_dir;
  c.resume = true;
  return c;
}

/// One warm query: CloPipeline::optimize of the weighting's pipeline, an
/// Eq. 13 latent optimization over `query_restarts` restarts, then
/// validation of the retrieved sequences through the shared memoising
/// evaluator.
Answer warm_query(core::CloPipeline& pipeline, core::QorEvaluator& evaluator,
                  std::uint64_t request, Tally& tally) {
  Answer a;
  a.weight_area = pipeline.config().optimize.weight_area;
  const core::EvaluatorStats before = evaluator.snapshot();
  {
    ScopedSpan span("core.CloPipeline::optimize", request);
    const auto t0 = Clock::now();
    try {
      record(pipeline.optimize(evaluator), &a, tally);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: query threw: %s\n", e.what());
    }
    a.wall_s = seconds_since(t0);
  }
  tally.ops(1, a.ok ? 0 : 1);
  a.warm_query_s = a.wall_s;
  a.warm_optimize_s = a.optimize_s;
  const core::EvaluatorStats after = evaluator.snapshot();
  a.stats.queries = after.queries - before.queries;
  a.stats.unique_runs = after.unique_runs - before.unique_runs;
  return a;
}

/// Runs exactly `round` units when `round > 0`; otherwise runs units until
/// the measuring budget is spent: another unit starts only while the median
/// unit so far would still end inside it (at least one, two when traced).
/// In the traced run units alternate untraced / traced, starting untraced.
template <typename Fn>
std::vector<Unit> run_units(const Args& args, int round, Fn&& unit_fn) {
  const int min_units = round > 0 ? round : args.trace ? 2 : 1;
  std::vector<Unit> units;
  std::vector<double> walls;
  const auto t0 = Clock::now();
  for (int k = 0;; ++k) {
    const bool traced = args.trace && k % 2 == 1;
    Tracer::instance().set_enabled(traced);
    const auto u0 = Clock::now();
    Unit u = unit_fn(static_cast<std::uint64_t>(k));
    u.wall_s = seconds_since(u0);
    u.traced = traced;
    Tracer::instance().set_enabled(false);
    walls.push_back(u.wall_s);
    units.push_back(std::move(u));
    if (k + 1 >= min_units &&
        (round > 0 || seconds_since(t0) + median(walls) > args.seconds)) {
      break;
    }
  }
  return units;
}

// ---------------------------------------------------------------------------
// Correctness checks (outside the timed region)

/// Replays the answer's sequence on the original circuit transform by
/// transform and proves the result equivalent; re-evaluates the sequence on
/// a fresh evaluator and requires the reported QoR, and the original QoR
/// computed in set-up, bit for bit.
void check_answer(const aig::Aig& circuit, const core::Qor& original,
                  const Answer& a, const std::string& label, Tally& tally,
                  std::vector<double>* cec_ms) {
  if (!a.ok) return;  // already counted as a failed operation
  aig::Aig replayed = circuit;
  for (opt::Transform t : a.best_sequence) opt::apply_transform(replayed, t);
  const auto t0 = Clock::now();
  const sat::CecOutcome outcome = sat::check_equivalence(circuit, replayed);
  cec_ms->push_back(1e3 * seconds_since(t0));
  tally.check(outcome.equivalent(),
              label + ": best sequence is not proven equivalent (" +
                  sat::cec_verdict_name(outcome.verdict) + ")");
  core::QorEvaluator fresh(circuit);
  const core::Qor best = fresh.evaluate(a.best_sequence);
  tally.check(original.area_um2 == a.original.area_um2 &&
                  original.delay_ps == a.original.delay_ps &&
                  best.area_um2 == a.best.area_um2 &&
                  best.delay_ps == a.best.delay_ps,
              label + ": re-evaluation does not reproduce the reported QoR");
}

std::uint64_t file_hash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  Fnv h;
  h.add(bytes.data(), bytes.size());
  return h.h;
}

/// Compares `digest` with the one an earlier run of the same binary and
/// workload left in `out_dir` (records it when there is none), so drift
/// between runs of one set is caught even though each run is its own
/// process.
void check_against_earlier_runs(const Args& args, const std::string& digest,
                                Tally& tally) {
  char name[96];
  std::snprintf(name, sizeof name, "/perfbench-digest-%s%s-%016llx.txt",
                args.workload.c_str(), args.smoke ? "-smoke" : "",
                static_cast<unsigned long long>(file_hash(args.program)));
  const std::string path = args.out_dir + name;
  std::ifstream in(path);
  if (in) {
    std::stringstream earlier;
    earlier << in.rdbuf();
    tally.check(earlier.str() == digest,
                "answers differ from an earlier run of this binary (" + path +
                    ")");
    return;
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    out << digest;
  }
  std::rename(tmp.c_str(), path.c_str());
}

/// Hash of everything pretraining produced: dataset labels and the weights
/// of both models.
std::string pretrain_digest(core::CloPipeline& p) {
  Fnv h;
  for (const auto& q : p.dataset().qor) {
    h.add(q.area_um2);
    h.add(q.delay_ps);
  }
  auto add_params = [&h](std::vector<nn::Tensor> params) {
    for (const auto& t : params) {
      h.add(t.data().data(), t.data().size() * sizeof(float));
    }
  };
  add_params(p.surrogate()->parameters());
  add_params(p.diffusion()->unet().parameters());
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h.h));
  return buf;
}

// ---------------------------------------------------------------------------
// One level down (traced run only)

const char* transform_span(opt::Transform t) {
  static const char* const kNames[opt::kNumTransforms] = {
      "opt.rw", "opt.rwz", "opt.rf", "opt.rfz", "opt.rs", "opt.rsz", "opt.b"};
  return kNames[static_cast<int>(t)];
}

struct SynthesisReplay {
  double allocs_per_label = 0.0;
  double ands_ratio = 0.0;  ///< ANDs after the sequence over before, mean
  double ands_after = 0.0;  ///< mean per label
};

/// Labels seeded random sequences on every circuit the way the evaluator
/// does — the transforms through opt::apply_transform, then an area- and a
/// delay-oriented techmap::tech_map — fanned out over the pool like the
/// dataset phase, with a span around each call.
SynthesisReplay replay_synthesis(const Spec& spec,
                                 const std::vector<aig::Aig>& circuits,
                                 std::uint64_t seed, util::ThreadPool& pool) {
  const techmap::CellLibrary lib = techmap::CellLibrary::asap7();
  clo::Rng rng(seed ^ 0x5e9e11ab1eULL);
  struct Job {
    std::size_t circuit;
    opt::Sequence seq;
    std::size_t ands_after = 0;
  };
  std::vector<Job> jobs;
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    for (int i = 0; i < spec.replay_labels_per_circuit; ++i) {
      jobs.push_back({c, opt::random_sequence(spec.config.seq_len, rng)});
    }
  }
  SynthesisReplay out;
  std::uint64_t allocs = 0;
  // One wave per circuit, so concurrent labels share a circuit as in the
  // dataset phase.
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    std::vector<Job*> wave;
    for (auto& j : jobs) {
      if (j.circuit == c) wave.push_back(&j);
    }
    const std::uint64_t a0 = perfbench::alloc::total();
    perfbench::alloc::set_counting(true);
    util::parallel_for(&pool, wave.size(), [&](std::size_t i) {
      Job& job = *wave[i];
      ScopedSpan label("replay.label", i, -1);
      aig::Aig g = circuits[c];
      for (opt::Transform t : job.seq) {
        ScopedSpan span(transform_span(t), i);
        opt::apply_transform(g, t);
      }
      techmap::MapParams area;
      area.objective = techmap::MapParams::Objective::kArea;
      techmap::MapParams delay;
      delay.objective = techmap::MapParams::Objective::kDelay;
      {
        ScopedSpan span("techmap.tech_map", i);
        techmap::tech_map(g, lib, area);
      }
      {
        ScopedSpan span("techmap.tech_map", i);
        techmap::tech_map(g, lib, delay);
      }
      job.ands_after = g.num_ands();
    });
    perfbench::alloc::set_counting(false);
    allocs += perfbench::alloc::total() - a0;
  }
  for (const auto& j : jobs) {
    out.ands_ratio += static_cast<double>(j.ands_after) /
                      static_cast<double>(circuits[j.circuit].num_ands());
    out.ands_after += static_cast<double>(j.ands_after);
  }
  const double n = static_cast<double>(jobs.size());
  out.ands_ratio /= n;
  out.ands_after /= n;
  out.allocs_per_label = static_cast<double>(allocs) / n;
  return out;
}

/// Denoiser training iterations at the workload's config (batch 16), on a
/// fresh model and seeded random sequences, with spans around the U-Net
/// forward, nn::backward and nn::Adam::step. Returns allocations per
/// iteration.
double replay_training(const Spec& spec, std::uint64_t seed,
                       util::ThreadPool& pool) {
  const core::PipelineConfig& c = spec.config;
  const int L = c.seq_len, d = c.embed_dim, B = c.diffusion_batch;
  models::DiffusionConfig dcfg;
  dcfg.seq_len = L;
  dcfg.embed_dim = d;
  dcfg.num_steps = c.diffusion_steps;
  clo::Rng rng(seed ^ 0xd1ff7a1bULL);
  models::TransformEmbedding embedding(d, rng);
  std::vector<std::vector<float>> data;
  for (int i = 0; i < 32; ++i) {
    data.push_back(embedding.embed(opt::random_sequence(L, rng)));
  }
  models::DiffusionModel model(dcfg, rng);
  nn::Adam adam(model.unet().parameters(), c.diffusion_lr);
  nn::kernel::PoolGuard kernel_pool(&pool);
  const auto& sched = model.schedule();
  std::uint64_t allocs = 0;
  for (int it = 0; it < spec.replay_train_iters; ++it) {
    const std::uint64_t a0 = perfbench::alloc::total();
    perfbench::alloc::set_counting(true);
    {
      ScopedSpan iter("replay.train_iter", static_cast<std::uint64_t>(it));
      nn::Tensor x = nn::Tensor::zeros({B, d, L});
      nn::Tensor eps = nn::Tensor::zeros({B, d, L});
      std::vector<int> ts(B);
      for (int b = 0; b < B; ++b) {
        const auto& x0 = data[rng.next_below(data.size())];
        ts[b] = static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(sched.num_steps())));
        const float sa = std::sqrt(sched.alpha_bar(ts[b]));
        const float sb = std::sqrt(1.0f - sched.alpha_bar(ts[b]));
        const auto chan = models::to_channel_layout(x0, L, d);
        for (int i = 0; i < d * L; ++i) {
          const float e = static_cast<float>(rng.next_gaussian());
          eps.data()[b * d * L + i] = e;
          x.data()[b * d * L + i] = sa * chan[i] + sb * e;
        }
      }
      nn::Tensor pred;
      {
        ScopedSpan s("models.DiffusionUNet::forward", 0);
        pred = model.unet().forward(x, ts);
      }
      nn::Tensor loss = nn::mse_loss(pred, eps);
      {
        ScopedSpan s("nn.backward", 0);
        nn::backward(loss);
      }
      {
        ScopedSpan s("nn.Adam::step", 0);
        adam.step();
      }
    }
    perfbench::alloc::set_counting(false);
    allocs += perfbench::alloc::total() - a0;
  }
  return static_cast<double>(allocs) / spec.replay_train_iters;
}

/// Denoising steps at `replay_rows` rows on the trained models: one batched
/// U-Net inference and one batched surrogate objective + input gradient
/// per step, weights grad-frozen as during optimization.
void replay_denoising(const Spec& spec, core::CloPipeline& p,
                      std::uint64_t seed, util::ThreadPool& pool) {
  const int n = spec.config.seq_len * spec.config.embed_dim;
  clo::Rng rng(seed ^ 0x0b1ec71eULL);
  std::vector<std::vector<float>> xs(spec.replay_rows, std::vector<float>(n));
  for (auto& x : xs) {
    for (auto& v : x) v = static_cast<float>(rng.next_gaussian());
  }
  core::ContinuousOptimizer optimizer(*p.surrogate(), *p.diffusion(),
                                      *p.embedding(), spec.config.optimize);
  auto frozen = p.surrogate()->parameters();
  const auto unet = p.diffusion()->unet().parameters();
  frozen.insert(frozen.end(), unet.begin(), unet.end());
  nn::GradFreeze freeze(frozen);
  nn::kernel::PoolGuard kernel_pool(&pool);
  const int T = p.diffusion()->schedule().num_steps();
  std::vector<std::vector<float>> grads;
  for (int s = 0; s < spec.replay_denoise_steps; ++s) {
    const int t = T - 1 - (s * T) / spec.replay_denoise_steps;
    ScopedSpan step("replay.denoise_step", static_cast<std::uint64_t>(s));
    {
      ScopedSpan span("models.predict_noise_batch", 0);
      p.diffusion()->predict_noise_batch(xs, t);
    }
    {
      ScopedSpan span("core.objective_grad_batch", 0);
      optimizer.objective_and_grad_batch(xs, &grads);
    }
  }
}

// ---------------------------------------------------------------------------
// Output

struct Metrics {
  std::vector<std::pair<std::string, std::string>> items;  // name, json
  void add(const std::string& name, double value, const std::string& unit) {
    items.emplace_back(name, "{\"value\": " + num(value) +
                                 ", \"unit\": " + quoted(unit) + "}");
  }
};

struct Context {
  std::string workload;
  std::uint64_t seed = 0;
  int threads = 0;
  unsigned host_cores = 0;
  std::string kernel_target;
  bool smoke = false;
  bool trace = false;

  /// The fields recorded beside every result row.
  std::string fields() const {
    return "\"workload\": " + quoted(workload) +
           ", \"seed\": " + std::to_string(seed) +
           ", \"threads\": " + std::to_string(threads) +
           ", \"host_cores\": " + std::to_string(host_cores) +
           ", \"kernel_target\": " + quoted(kernel_target) +
           ", \"trace\": " + (trace ? "1" : "0") +
           ", \"smoke\": " + (smoke ? "true" : "false");
  }
};

void print_row(const Context& ctx, const std::string& kind,
               const std::string& body) {
  std::printf("{\"perfbench\": %s, %s, %s}\n", quoted(kind).c_str(),
              ctx.fields().c_str(), body.c_str());
}

int run(const Args& args) {
  const unsigned host_cores =
      std::max(1u, std::thread::hardware_concurrency());
  const int threads = static_cast<int>(std::min(4u, host_cores));
  Spec spec;
  if (!make_spec(args, threads, &spec)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  Context ctx{args.workload, args.seed,
              threads,       host_cores,
              nn::kernel::active_target(), args.smoke,
              args.trace};
  Tally tally;
  std::vector<double> cec_ms;

  // The query workload's round: an evenly spaced grid of area weightings
  // in [0.1, 0.9], in an order drawn from the workload seed. The set of
  // sequences a round synthesizes is the same for every order; the order
  // decides which queries pay for them.
  std::vector<double> weightings;
  for (int i = 0; i < spec.query_round; ++i) {
    const int n = spec.query_round;
    weightings.push_back(n == 1 ? 0.5 : 0.1 + 0.8 * i / (n - 1));
  }
  clo::Rng weighting_rng(args.seed);
  weighting_rng.shuffle(weightings);

  // ---- Set-up (timed as setup_s; median of setup_reps) -------------------
  // Circuit generation and each circuit's reference QoR (which the checks
  // hold the answers to). On the query workload also pretraining, which
  // writes a checkpoint, and one pipeline per weighting that resumes it.
  // Every repetition builds the same state; the first one's is kept.
  std::vector<aig::Aig> circuits;
  std::vector<core::Qor> reference;
  std::vector<double> setup_times, pretrain_times;
  util::ThreadPool pool(static_cast<std::size_t>(threads));
  std::unique_ptr<core::QorEvaluator> shared_evaluator;
  std::vector<std::unique_ptr<core::CloPipeline>> query_pipelines;
  const std::string checkpoint_dir = args.out_dir + "/perfbench-checkpoint-" +
                                     args.workload +
                                     (args.smoke ? "-smoke" : "");
  std::string first_pretrain;
  auto set_up = [&](int rep) {
    const auto t0 = Clock::now();
    std::vector<aig::Aig> generated;
    std::vector<core::Qor> originals;
    for (const auto& name : spec.circuits) {
      generated.push_back(circuits::make_benchmark(name));
      originals.push_back(core::QorEvaluator(generated.back()).original());
    }
    std::unique_ptr<core::QorEvaluator> evaluator;
    std::vector<std::unique_ptr<core::CloPipeline>> pipelines;
    if (spec.query) {
      const auto p0 = Clock::now();
      evaluator = std::make_unique<core::QorEvaluator>(generated[0]);
      core::PipelineConfig config = spec.config;
      config.checkpoint_dir = checkpoint_dir;
      core::CloPipeline pretraining(config);
      pretraining.set_external_pool(&pool);
      pretraining.pretrain(*evaluator);
      pretrain_times.push_back(seconds_since(p0));
      const std::string digest = pretrain_digest(pretraining);
      if (rep == 0) first_pretrain = digest;
      tally.check(digest == first_pretrain,
                  "pretraining differs between set-up repetitions");
      for (double w : weightings) {
        pipelines.push_back(std::make_unique<core::CloPipeline>(
            query_config(spec, w, checkpoint_dir)));
        core::CloPipeline& p = *pipelines.back();
        p.set_external_pool(&pool);
        p.pretrain(*evaluator);
        tally.check(p.resumed_phases() == 3 && pretrain_digest(p) == digest,
                    "a query pipeline did not resume the pretrained models");
      }
    }
    setup_times.push_back(seconds_since(t0));
    if (rep == 0) {
      circuits = std::move(generated);
      reference = std::move(originals);
      shared_evaluator = std::move(evaluator);
      query_pipelines = std::move(pipelines);
    }
  };
  // The host's speed switches between states that last seconds, so the
  // tune workloads, whose set-up takes milliseconds, run half their
  // repetitions here and half after the measured units: setup_s then
  // samples two moments of the run instead of one. The query workload's
  // repetitions take seconds each and build the state its units use.
  const int reps_before =
      spec.query ? spec.setup_reps : (spec.setup_reps + 1) / 2;
  for (int rep = 0; rep < reps_before; ++rep) set_up(rep);

  // ---- Measured units ---------------------------------------------------
  std::unique_ptr<core::CloPipeline> kept;  // trained models for replay
  std::vector<Unit> units;
  if (!spec.query) {
    units = run_units(args, 0, [&](std::uint64_t k) {
      Unit u;
      std::vector<Tuned> tuned(circuits.size());
      for (std::size_t c = 0; c < circuits.size(); ++c) {
        u.answers.push_back(
            cold_tune(spec, circuits[c], c, pool, k, tally, &tuned[c]));
      }
      warm_queries(spec, tuned, &u, k, tally);
      if (Tracer::instance().enabled()) kept = std::move(tuned.back().pipeline);
      return u;
    });
  } else {
    shared_evaluator->reset_stats();
    units = run_units(args, spec.query_round, [&](std::uint64_t k) {
      Unit u;
      u.answers.push_back(
          warm_query(*query_pipelines[k], *shared_evaluator, k, tally));
      return u;
    });
  }

  // ---- Correctness checks (untimed) ---------------------------------------
  if (!spec.query) {
    std::string digest;
    for (const auto& a : units[0].answers) digest += a.digest() + "\n";
    for (const auto& a : units[0].answers) {
      check_answer(circuits[a.circuit], reference[a.circuit], a,
                   spec.circuits[a.circuit], tally, &cec_ms);
    }
    for (std::size_t k = 1; k < units.size(); ++k) {
      std::string dk;
      for (const auto& a : units[k].answers) dk += a.digest() + "\n";
      tally.check(dk == digest, "tune pass " + std::to_string(k) +
                                    " differs from pass 0");
    }
    check_against_earlier_runs(args, digest, tally);
  } else {
    for (std::size_t k = 0; k < units.size(); ++k) {
      check_answer(circuits[0], reference[0], units[k].answers[0],
                   "query " + std::to_string(k), tally, &cec_ms);
    }
    Tally repeat_tally;
    const Answer again =
        warm_query(*query_pipelines[0], *shared_evaluator, 0, repeat_tally);
    tally.check(again.digest() == units[0].answers[0].digest(),
                "repeating query 0 gives a different answer");
    // An answer is a function of its weighting alone, so the round's
    // answers in weighting order are the same for every seed.
    std::map<double, std::string> by_weighting;
    for (const auto& u : units) {
      by_weighting[u.answers[0].weight_area] = u.answers[0].digest();
    }
    std::string round = first_pretrain + "\n";
    for (const auto& [w, d] : by_weighting) round += num(w) + " " + d + "\n";
    check_against_earlier_runs(args, round, tally);
  }
  for (int rep = reps_before; rep < spec.setup_reps; ++rep) set_up(rep);

  // ---- Rows ---------------------------------------------------------------
  print_row(ctx, "context",
            "\"units\": " + std::to_string(units.size()) +
                ", \"setup_reps\": " + std::to_string(spec.setup_reps));
  std::vector<double> area_ratios, delay_ratios;
  if (!spec.query) {
    for (std::size_t c = 0; c < circuits.size(); ++c) {
      std::vector<double> walls;
      for (const auto& u : units) walls.push_back(u.answers[c].wall_s);
      const Answer& a = units[0].answers[c];
      area_ratios.push_back(a.area_ratio());
      delay_ratios.push_back(a.delay_ratio());
      print_row(ctx, "circuit",
                "\"circuit\": " + quoted(spec.circuits[c]) +
                    ", \"ands\": " + std::to_string(circuits[c].num_ands()) +
                    ", \"tune_s\": " + num(median(walls)) +
                    ", \"qor_area_ratio\": " + num(a.area_ratio()) +
                    ", \"qor_delay_ratio\": " + num(a.delay_ratio()) +
                    ", \"best_sequence\": " +
                    quoted(opt::sequence_to_string(a.best_sequence)));
    }
  } else {
    for (const auto& u : units) {
      const Answer& a = u.answers[0];
      area_ratios.push_back(a.area_ratio());
      delay_ratios.push_back(a.delay_ratio());
      print_row(ctx, "query",
                "\"weight_area\": " + num(a.weight_area) +
                    ", \"traced\": " + (u.traced ? "true" : "false") +
                    ", \"query_s\": " + num(a.wall_s) +
                    ", \"optimize_s\": " + num(a.optimize_s) +
                    ", \"validate_s\": " + num(a.validate_s) +
                    ", \"unique_runs\": " +
                    std::to_string(a.stats.unique_runs) +
                    ", \"qor_area_ratio\": " + num(a.area_ratio()) +
                    ", \"qor_delay_ratio\": " + num(a.delay_ratio()) +
                    ", \"best_sequence\": " +
                    quoted(opt::sequence_to_string(a.best_sequence)));
    }
  }

  // Per-unit values over the units of one kind (untraced or traced), and
  // their median.
  auto values = [&units](bool traced, auto&& fn) {
    std::vector<double> v;
    for (const auto& u : units) {
      if (u.traced == traced) v.push_back(fn(u));
    }
    return v;
  };
  auto series = [&values](bool traced, auto&& fn) {
    return median(values(traced, fn));
  };
  // A unit's wall time: the cold tunes (without the warm repeats that
  // follow them), or the query.
  auto unit_wall = [](const Unit& u) { return u.sum(&Answer::wall_s); };

  Metrics m;
  if (!args.trace) {
    // A query round is summarized by its mean, which does not depend on
    // the query order; cold-tune passes by their median.
    auto summary = [&](double Answer::*field) {
      const auto v = values(false, [field](const Unit& u) {
        return u.sum(field);
      });
      return spec.query ? mean(v) : median(v);
    };
    const double query_s = summary(&Answer::warm_query_s);
    const double tune_s =
        spec.query ? median(pretrain_times) + query_s
                   : series(false, unit_wall);
    m.add("tune_s", tune_s, "s");
    m.add("query_s", query_s, "s");
    m.add("query_optimize_s", summary(&Answer::warm_optimize_s), "s");
    m.add("qor_area_ratio", geomean(area_ratios), "ratio");
    m.add("qor_delay_ratio", geomean(delay_ratios), "ratio");
    m.add("setup_s", median(setup_times), "s");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
    m.add("ok_frac",
          static_cast<double>(tally.attempted - tally.failed) /
              static_cast<double>(tally.attempted),
          "frac");
  } else {
    // ---- One level down, traced ------------------------------------------
    Tracer::instance().set_enabled(true);
    const SynthesisReplay synth =
        replay_synthesis(spec, circuits, args.seed, pool);
    const double allocs_per_iter = replay_training(spec, args.seed, pool);
    replay_denoising(spec, spec.query ? *query_pipelines[0] : *kept,
                     args.seed, pool);
    Tracer::instance().set_enabled(false);
    const auto spans = Tracer::instance().summarize();
    auto mean_ms = [&spans](const char* name) {
      auto it = spans.find(name);
      return it == spans.end() ? 0.0 : it->second.mean_ms();
    };
    // The Fig. 5 buckets of the traced units. On query_warm the three
    // pretraining buckets are the set-up's, which every query pipeline
    // resumed from the checkpoint.
    auto traced_sum = [&series](double Answer::*field) {
      return series(true, [field](const Unit& u) { return u.sum(field); });
    };
    const double n_circuits = static_cast<double>(circuits.size());
    const double dataset_s = traced_sum(&Answer::dataset_s);
    const double surrogate_s = traced_sum(&Answer::surrogate_s);
    const double diffusion_s = traced_sum(&Answer::diffusion_s);
    const double optimize_s = traced_sum(&Answer::optimize_s);
    const double validate_s = traced_sum(&Answer::validate_s);
    // Evaluator counts over every unit: the cache does not depend on
    // tracing. A query round by its mean per query, tune passes by their
    // median.
    auto all_units = [&](auto&& fn) {
      std::vector<double> v;
      for (const auto& u : units) v.push_back(fn(u));
      return spec.query ? mean(v) : median(v);
    };
    auto evaluator_count = [&](std::size_t core::EvaluatorStats::*field) {
      return all_units([field](const Unit& u) {
        double s = 0.0;
        for (const auto& a : u.answers) {
          s += static_cast<double>(a.stats.*field);
        }
        return s;
      });
    };
    const double unique_runs =
        evaluator_count(&core::EvaluatorStats::unique_runs);

    m.add("core.dataset_s", dataset_s, "s");
    m.add("core.labels_per_s",
          spec.config.dataset_size * n_circuits / dataset_s, "1/s");
    m.add("core.evaluator.unique_runs", unique_runs, "count");
    m.add("core.evaluator.miss_rate",
          unique_runs / evaluator_count(&core::EvaluatorStats::queries),
          "ratio");
    for (opt::Transform t : opt::all_transforms()) {
      m.add(std::string(transform_span(t)) + "_ms", mean_ms(transform_span(t)),
            "ms");
    }
    m.add("opt.ands_ratio", synth.ands_ratio, "ratio");
    m.add("opt.allocs_per_label", synth.allocs_per_label, "count");
    m.add("techmap.map_ms", mean_ms("techmap.tech_map"), "ms");
    m.add("aig.ands_after", synth.ands_after, "count");
    m.add("core.validate_s", validate_s, "s");
    m.add("core.diffusion_train_s", diffusion_s, "s");
    m.add("models.unet_fwd_ms", mean_ms("models.DiffusionUNet::forward"),
          "ms");
    m.add("nn.backward_ms", mean_ms("nn.backward"), "ms");
    m.add("nn.adam_ms", mean_ms("nn.Adam::step"), "ms");
    m.add("nn.allocs_per_iter", allocs_per_iter, "count");
    m.add("core.surrogate_train_s", surrogate_s, "s");
    m.add("core.surrogate_epoch_ms",
          1e3 * surrogate_s /
              (spec.config.surrogate_train.epochs * n_circuits),
          "ms");
    m.add("core.optimize_s", optimize_s, "s");
    m.add("models.predict_noise_batch_ms",
          mean_ms("models.predict_noise_batch"), "ms");
    m.add("core.objective_grad_batch_ms", mean_ms("core.objective_grad_batch"),
          "ms");
    m.add("sat.cec_ms", median(cec_ms), "ms");
    // Traced over untraced units of the same work: whole cold tunes, or
    // the optimize part of queries (their validation depends on the cache).
    auto optimize_time = [](const Unit& u) {
      return u.sum(&Answer::optimize_s);
    };
    const double overhead =
        spec.query ? series(true, optimize_time) / series(false, optimize_time)
                   : series(true, unit_wall) / series(false, unit_wall);
    m.add("bench.trace_overhead_ratio", overhead, "ratio");

    // What each workload was chosen to stress, and the self-check that the
    // Fig. 5 buckets account for the wall time: each a share of a unit's
    // own wall time, median over the untraced units, so host speed drift
    // between units does not enter. On the tune workloads all five buckets
    // must cover tune_s within 10%; a query's buckets are its optimize and
    // validate phases.
    auto share = [&](auto&& part) {
      return series(false, [&part, &unit_wall](const Unit& u) {
        return part(u) / unit_wall(u);
      });
    };
    auto sum_of = [](std::initializer_list<double Answer::*> fields) {
      return [fields](const Unit& u) {
        double s = 0.0;
        for (auto f : fields) s += u.sum(f);
        return s;
      };
    };
    if (spec.query) {
      print_row(ctx, "shares",
                "\"optimize_validate_of_query\": " +
                    num(share(sum_of({&Answer::optimize_s,
                                      &Answer::validate_s}))));
    } else {
      const double cover = share(sum_of(
          {&Answer::dataset_s, &Answer::surrogate_s, &Answer::diffusion_s,
           &Answer::optimize_s, &Answer::validate_s}));
      const bool covered = std::fabs(cover - 1.0) <= 0.10;
      tally.check(covered, "Fig. 5 buckets sum to " + num(cover) +
                               " of tune_s (expected within 10%)");
      print_row(ctx, "shares",
                "\"dataset_of_tune\": " +
                    num(share(sum_of({&Answer::dataset_s}))) +
                    ", \"training_of_tune\": " +
                    num(share(sum_of(
                        {&Answer::surrogate_s, &Answer::diffusion_s}))) +
                    ", \"buckets_of_tune\": " + num(cover) +
                    ", \"buckets_within_10pct\": " +
                    (covered ? "true" : "false"));
    }
    // Where each layer's time went: per span name, total and self time
    // (duration minus the part covered by child spans).
    for (const auto& [name, sum] : spans) {
      print_row(ctx, "span",
                "\"name\": " + quoted(name) +
                    ", \"count\": " + std::to_string(sum.count) +
                    ", \"total_s\": " + num(sum.total_s) +
                    ", \"self_s\": " + num(sum.self_s));
    }
    char path[64];
    std::snprintf(path, sizeof path, "/perfbench-trace-%s-%llu.jsonl",
                  args.workload.c_str(),
                  static_cast<unsigned long long>(args.seed));
    if (!Tracer::instance().write(args.out_dir + path)) {
      std::fprintf(stderr, "perfbench: could not write %s%s\n",
                   args.out_dir.c_str(), path);
    }
  }

  std::string body;
  for (const auto& [name, json] : m.items) {
    body += (body.empty() ? "" : ", ") + quoted(name) + ": " + json;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              tally.correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), body.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: clo_perfbench --workload <tune_label|tune_train|"
                 "query_warm> --seed <n> --seconds <s> --trace <0|1> "
                 "[--smoke] [--out-dir <dir>]\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
