#include "clo/core/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "clo/util/crc32.hpp"
#include "clo/util/fault.hpp"

namespace clo::core {
namespace {

constexpr char kMagic[8] = {'C', 'L', 'O', 'C', 'K', 'P', 'T', '1'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kPhaseDataset = 1;
constexpr std::uint32_t kPhaseSurrogate = 2;
constexpr std::uint32_t kPhaseDiffusion = 3;

// Sanity caps for payload decoding: a CRC-valid file can still have been
// produced by a buggy writer, and no count read from disk may size an
// allocation unchecked.
constexpr std::uint64_t kMaxCount = 1ULL << 26;
constexpr std::uint64_t kMaxBlob = 1ULL << 31;

// ---- payload primitives (little-endian POD, length-prefixed blobs) -----

template <typename T>
void put_pod(std::string& out, const T& v) {
  const char* p = reinterpret_cast<const char*>(&v);
  out.append(p, sizeof(T));
}

void put_bytes(std::string& out, const std::string& bytes) {
  put_pod(out, static_cast<std::uint64_t>(bytes.size()));
  out.append(bytes);
}

/// Bounds-checked cursor over a decoded payload. Every getter throws on
/// short reads; CheckpointManager::load_* turns that into `false`.
struct Reader {
  const std::string& buf;
  std::size_t pos = 0;

  template <typename T>
  T get() {
    if (buf.size() - pos < sizeof(T)) {
      throw std::runtime_error("checkpoint payload truncated");
    }
    T v;
    std::memcpy(&v, buf.data() + pos, sizeof(T));
    pos += sizeof(T);
    return v;
  }

  std::uint64_t get_count(std::uint64_t cap) {
    const auto n = get<std::uint64_t>();
    if (n > cap) throw std::runtime_error("checkpoint payload count too big");
    return n;
  }

  std::string get_bytes() {
    const auto n = get_count(kMaxBlob);
    if (buf.size() - pos < n) {
      throw std::runtime_error("checkpoint payload truncated");
    }
    std::string out = buf.substr(pos, n);
    pos += n;
    return out;
  }
};

void put_rng(std::string& out, const clo::Rng::State& s) {
  for (int i = 0; i < 4; ++i) put_pod(out, s.s[i]);
  put_pod(out, s.cached_gaussian);
  put_pod(out, static_cast<std::uint8_t>(s.has_cached_gaussian ? 1 : 0));
}

clo::Rng::State get_rng(Reader& r) {
  clo::Rng::State s;
  for (int i = 0; i < 4; ++i) s.s[i] = r.get<std::uint64_t>();
  s.cached_gaussian = r.get<double>();
  s.has_cached_gaussian = r.get<std::uint8_t>() != 0;
  if ((s.s[0] | s.s[1] | s.s[2] | s.s[3]) == 0) {
    // xoshiro never leaves the all-zero state: every draw would be 0 and
    // next_gaussian's rejection loop would spin forever.
    throw std::runtime_error("checkpoint: all-zero rng state");
  }
  return s;
}

void put_doubles(std::string& out, const std::vector<double>& v) {
  put_pod(out, static_cast<std::uint64_t>(v.size()));
  for (double x : v) put_pod(out, x);
}

std::vector<double> get_doubles(Reader& r) {
  const auto n = r.get_count(kMaxCount);
  std::vector<double> v(n);
  for (auto& x : v) x = r.get<double>();
  return v;
}

}  // namespace

ConfigHasher& ConfigHasher::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffULL;
    h_ *= 0x100000001b3ULL;
  }
  return *this;
}

ConfigHasher& ConfigHasher::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return add(bits);
}

ConfigHasher& ConfigHasher::add(const std::string& s) {
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
  return add(static_cast<std::uint64_t>(s.size()));
}

CheckpointManager::CheckpointManager(std::string dir,
                                     std::uint64_t config_hash)
    : dir_(std::move(dir)), config_hash_(config_hash) {}

std::string CheckpointManager::path_for(const std::string& phase) const {
  return dir_ + "/" + phase + ".ckpt";
}

bool CheckpointManager::write_file(const std::string& phase,
                                   std::uint32_t phase_id,
                                   const std::string& payload) {
  try {
    CLO_FAULT_POINT("checkpoint.write");
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    // Envelope: magic, version, phase, config hash, payload, CRC32 of the
    // payload. Assembled fully in memory and written to a temp file that
    // is renamed into place — a kill at any point leaves either the old
    // checkpoint or none, never a torn file under the final name.
    std::string file;
    file.append(kMagic, sizeof(kMagic));
    put_pod(file, kVersion);
    put_pod(file, phase_id);
    put_pod(file, config_hash_);
    put_bytes(file, payload);
    put_pod(file, util::crc32(payload.data(), payload.size()));

    const std::string path = path_for(phase);
    const std::string tmp = path + ".tmp";
    // Durable atomic publish: write + fsync the temp file BEFORE the
    // rename (so the final name can never point at bytes the kernel has
    // not persisted — without this, a power loss shortly after the rename
    // can leave a zero-length "committed" checkpoint), then fsync the
    // directory AFTER the rename (so the name change itself survives the
    // same crash). A kill at any point leaves the previous checkpoint or
    // none, never a torn or empty file under the final name.
    {
      const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd < 0) return false;
      std::size_t written = 0;
      while (written < file.size()) {
        const ssize_t n = ::write(fd, file.data() + written,
                                  file.size() - written);
        if (n < 0) {
          if (errno == EINTR) continue;
          ::close(fd);
          std::remove(tmp.c_str());
          return false;
        }
        written += static_cast<std::size_t>(n);
      }
      if (::fsync(fd) != 0) {
        ::close(fd);
        std::remove(tmp.c_str());
        return false;
      }
      ::close(fd);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::remove(tmp.c_str());
      return false;
    }
    {
      const int dir_fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
      if (dir_fd >= 0) {
        // Directory fsync failures (e.g. filesystems that reject it) are
        // not fatal: the data itself is already durable, only the rename's
        // durability window widens back to the kernel's writeback horizon.
        (void)::fsync(dir_fd);
        ::close(dir_fd);
      }
    }
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

bool CheckpointManager::read_file(const std::string& phase,
                                  std::uint32_t phase_id,
                                  std::string* payload) {
  try {
    CLO_FAULT_POINT("checkpoint.read");
    std::ifstream is(path_for(phase), std::ios::binary);
    if (!is) return false;
    std::ostringstream ss;
    ss << is.rdbuf();
    const std::string file = ss.str();

    Reader r{file};
    char magic[sizeof(kMagic)];
    if (file.size() < sizeof(kMagic)) return false;
    std::memcpy(magic, file.data(), sizeof(kMagic));
    r.pos = sizeof(kMagic);
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) return false;
    if (r.get<std::uint32_t>() != kVersion) return false;
    if (r.get<std::uint32_t>() != phase_id) return false;
    if (r.get<std::uint64_t>() != config_hash_) return false;
    *payload = r.get_bytes();
    const auto crc = r.get<std::uint32_t>();
    if (crc != util::crc32(payload->data(), payload->size())) return false;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

bool CheckpointManager::save_dataset(const DatasetCheckpoint& c) {
  std::string p;
  put_pod(p, c.original.area_um2);
  put_pod(p, c.original.delay_ps);
  put_pod(p, static_cast<std::uint64_t>(c.embedding_table.size()));
  for (const auto& row : c.embedding_table) {
    put_pod(p, static_cast<std::uint64_t>(row.size()));
    for (float v : row) put_pod(p, v);
  }
  put_pod(p, static_cast<std::uint64_t>(c.dataset.size()));
  for (std::size_t i = 0; i < c.dataset.size(); ++i) {
    const auto& seq = c.dataset.sequences[i];
    put_pod(p, static_cast<std::uint64_t>(seq.size()));
    for (auto t : seq) put_pod(p, static_cast<std::uint8_t>(t));
    put_pod(p, c.dataset.qor[i].area_um2);
    put_pod(p, c.dataset.qor[i].delay_ps);
  }
  put_pod(p, c.dataset.area_mean);
  put_pod(p, c.dataset.area_std);
  put_pod(p, c.dataset.delay_mean);
  put_pod(p, c.dataset.delay_std);
  put_pod(p, c.seconds);
  put_rng(p, c.rng);
  return write_file("dataset", kPhaseDataset, p);
}

bool CheckpointManager::load_dataset(DatasetCheckpoint* c) {
  std::string p;
  if (!read_file("dataset", kPhaseDataset, &p)) return false;
  try {
    Reader r{p};
    DatasetCheckpoint out;
    out.original.area_um2 = r.get<double>();
    out.original.delay_ps = r.get<double>();
    const auto rows = r.get_count(kMaxCount);
    out.embedding_table.resize(rows);
    for (auto& row : out.embedding_table) {
      row.resize(r.get_count(kMaxCount));
      for (auto& v : row) v = r.get<float>();
    }
    const auto n = r.get_count(kMaxCount);
    out.dataset.sequences.resize(n);
    out.dataset.qor.resize(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      auto& seq = out.dataset.sequences[i];
      seq.resize(r.get_count(kMaxCount));
      for (auto& t : seq) {
        const auto v = r.get<std::uint8_t>();
        if (v >= opt::kNumTransforms) {
          throw std::runtime_error("checkpoint: bad transform id");
        }
        t = static_cast<opt::Transform>(v);
      }
      out.dataset.qor[i].area_um2 = r.get<double>();
      out.dataset.qor[i].delay_ps = r.get<double>();
    }
    out.dataset.area_mean = r.get<double>();
    out.dataset.area_std = r.get<double>();
    out.dataset.delay_mean = r.get<double>();
    out.dataset.delay_std = r.get<double>();
    out.seconds = r.get<double>();
    out.rng = get_rng(r);
    *c = std::move(out);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

namespace {

std::string model_payload(const std::string& weights, double seconds,
                          const clo::Rng::State& rng,
                          const std::string& report_blob) {
  std::string p;
  put_bytes(p, weights);
  put_pod(p, seconds);
  put_rng(p, rng);
  put_bytes(p, report_blob);
  return p;
}

}  // namespace

bool CheckpointManager::save_surrogate(const SurrogateCheckpoint& c) {
  std::string rep;
  put_pod(rep, c.report.train_mse);
  put_pod(rep, c.report.holdout_mse);
  put_pod(rep, c.report.spearman_area);
  put_pod(rep, c.report.spearman_delay);
  put_pod(rep, c.report.seconds);
  put_doubles(rep, c.report.epoch_loss);
  put_pod(rep, static_cast<std::int32_t>(c.report.lr_backoffs));
  return write_file("surrogate", kPhaseSurrogate,
                    model_payload(c.weights, c.seconds, c.rng, rep));
}

bool CheckpointManager::load_surrogate(SurrogateCheckpoint* c) {
  std::string p;
  if (!read_file("surrogate", kPhaseSurrogate, &p)) return false;
  try {
    Reader r{p};
    SurrogateCheckpoint out;
    out.weights = r.get_bytes();
    out.seconds = r.get<double>();
    out.rng = get_rng(r);
    const std::string rep = r.get_bytes();
    Reader rr{rep};
    out.report.train_mse = rr.get<double>();
    out.report.holdout_mse = rr.get<double>();
    out.report.spearman_area = rr.get<double>();
    out.report.spearman_delay = rr.get<double>();
    out.report.seconds = rr.get<double>();
    out.report.epoch_loss = get_doubles(rr);
    out.report.lr_backoffs = rr.get<std::int32_t>();
    *c = std::move(out);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

bool CheckpointManager::save_diffusion(const DiffusionCheckpoint& c) {
  std::string rep;
  put_pod(rep, static_cast<std::int32_t>(c.stats.iterations));
  put_pod(rep, c.stats.final_loss);
  put_doubles(rep, c.stats.loss_curve);
  put_pod(rep, static_cast<std::int32_t>(c.stats.lr_backoffs));
  return write_file("diffusion", kPhaseDiffusion,
                    model_payload(c.weights, c.seconds, c.rng, rep));
}

bool CheckpointManager::load_diffusion(DiffusionCheckpoint* c) {
  std::string p;
  if (!read_file("diffusion", kPhaseDiffusion, &p)) return false;
  try {
    Reader r{p};
    DiffusionCheckpoint out;
    out.weights = r.get_bytes();
    out.seconds = r.get<double>();
    out.rng = get_rng(r);
    const std::string rep = r.get_bytes();
    Reader rr{rep};
    out.stats.iterations = rr.get<std::int32_t>();
    out.stats.final_loss = rr.get<double>();
    out.stats.loss_curve = get_doubles(rr);
    out.stats.lr_backoffs = rr.get<std::int32_t>();
    *c = std::move(out);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace clo::core
