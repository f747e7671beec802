#include "clo/models/surrogate.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace clo::models {

using nn::Tensor;

// ---------------------------------------------------------------------------
// AigEncoder
// ---------------------------------------------------------------------------

AigEncoder::AigEncoder(const aig::Aig& g, int hidden, int max_nodes,
                       clo::Rng& rng) {
  // Collect up to max_nodes live nodes (const + PIs + a stride-sampled
  // subset of ANDs) with structural features. Large circuits are
  // subsampled: the encoder needs a circuit fingerprint, not exact logic.
  const auto order = g.topo_order();
  const auto levels = g.levels();
  const int depth = std::max(1, g.depth());

  std::vector<std::uint32_t> selected;
  selected.push_back(0);
  for (std::size_t i = 0; i < g.num_pis(); ++i) selected.push_back(g.pi_node(i));
  const std::size_t budget =
      max_nodes > static_cast<int>(selected.size())
          ? static_cast<std::size_t>(max_nodes) - selected.size()
          : 0;
  const std::size_t stride =
      budget == 0 ? order.size() + 1
                  : std::max<std::size_t>(1, order.size() / std::max<std::size_t>(budget, 1));
  std::vector<int> index_of(g.num_slots(), -1);
  for (std::size_t i = 0; i < order.size(); i += stride) selected.push_back(order[i]);
  for (std::size_t i = 0; i < selected.size(); ++i) {
    index_of[selected[i]] = static_cast<int>(i);
  }

  const int f = 6;
  features_ = Tensor::zeros({static_cast<int>(selected.size()), f});
  fanin0_.resize(selected.size(), 0);
  fanin1_.resize(selected.size(), 0);
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const std::uint32_t n = selected[i];
    float* row = features_.data().data() + i * f;
    row[0] = g.is_pi(n) ? 1.0f : 0.0f;
    row[1] = g.is_and(n) ? 1.0f : 0.0f;
    row[2] = static_cast<float>(levels[n]) / static_cast<float>(depth);
    row[3] = std::min(1.0f, static_cast<float>(g.nrefs(n)) / 8.0f);
    if (g.is_and(n)) {
      row[4] = aig::lit_is_compl(g.fanin0(n)) ? 1.0f : 0.0f;
      row[5] = aig::lit_is_compl(g.fanin1(n)) ? 1.0f : 0.0f;
      // Fanin pointers: nearest selected ancestor fallback = const row 0.
      const int i0 = index_of[aig::lit_node(g.fanin0(n))];
      const int i1 = index_of[aig::lit_node(g.fanin1(n))];
      fanin0_[i] = i0 >= 0 ? i0 : 0;
      fanin1_[i] = i1 >= 0 ? i1 : 0;
    }
  }
  self1_ = std::make_unique<nn::Linear>(f, hidden, rng);
  in1_ = std::make_unique<nn::Linear>(f, hidden, rng);
  self2_ = std::make_unique<nn::Linear>(hidden, hidden, rng);
  in2_ = std::make_unique<nn::Linear>(hidden, hidden, rng);
}

Tensor AigEncoder::forward() {
  // Layer 1: h = relu(W_self x + W_in mean(fanin x))
  Tensor msg0 = nn::gather_rows(features_, fanin0_);
  Tensor msg1 = nn::gather_rows(features_, fanin1_);
  Tensor msg = nn::scale(nn::add(msg0, msg1), 0.5f);
  Tensor h = nn::relu(nn::add(self1_->forward(features_), in1_->forward(msg)));
  // Layer 2 over h.
  Tensor m0 = nn::gather_rows(h, fanin0_);
  Tensor m1 = nn::gather_rows(h, fanin1_);
  Tensor m = nn::scale(nn::add(m0, m1), 0.5f);
  Tensor h2 = nn::relu(nn::add(self2_->forward(h), in2_->forward(m)));
  return nn::mean_rows(h2);  // [1, hidden]
}

std::vector<Tensor> AigEncoder::parameters() {
  std::vector<Tensor> p;
  for (auto* m : {self1_.get(), in1_.get(), self2_.get(), in2_.get()}) {
    auto q = m->parameters();
    p.insert(p.end(), q.begin(), q.end());
  }
  return p;
}

namespace {

/// Split a [B, L*d] batch into L step tensors of [B, d].
std::vector<Tensor> split_steps(const Tensor& x, int L, int d) {
  std::vector<Tensor> steps;
  steps.reserve(L);
  for (int t = 0; t < L; ++t) {
    steps.push_back(nn::slice_cols(x, t * d, (t + 1) * d));
  }
  return steps;
}

// ---------------------------------------------------------------------------
// MTL (ASAP [22]): GNN + LSTM + two attention heads.
// ---------------------------------------------------------------------------

class MtlSurrogate final : public SurrogateModel {
 public:
  MtlSurrogate(const aig::Aig& g, const SurrogateConfig& cfg, clo::Rng& rng)
      : SurrogateModel(cfg),
        name_("mtl"),
        encoder_(g, cfg.circuit_hidden, cfg.max_gnn_nodes, rng),
        lstm_(cfg.embed_dim, cfg.hidden, rng),
        attn_area_(cfg.hidden, cfg.hidden, rng),
        attn_delay_(cfg.hidden, cfg.hidden, rng),
        head_area_(cfg.hidden + cfg.circuit_hidden, cfg.hidden, 1, rng),
        head_delay_(cfg.hidden + cfg.circuit_hidden, cfg.hidden, 1, rng) {}

  Output forward(const Tensor& x) override {
    const int B = x.dim(0);
    auto steps = split_steps(x, config_.seq_len, config_.embed_dim);
    auto hs = lstm_.forward(steps);
    Tensor circ = nn::repeat_rows(encoder_.forward(), B);
    Tensor fa = nn::concat_cols({attn_area_.forward(hs), circ});
    Tensor fd = nn::concat_cols({attn_delay_.forward(hs), circ});
    return Output{head_area_.forward(fa), head_delay_.forward(fd)};
  }

  const std::string& name() const override { return name_; }

  std::vector<Tensor> parameters() override {
    std::vector<Tensor> p;
    for (nn::Module* m :
         std::initializer_list<nn::Module*>{&encoder_, &lstm_, &attn_area_,
                                            &attn_delay_, &head_area_,
                                            &head_delay_}) {
      auto q = m->parameters();
      p.insert(p.end(), q.begin(), q.end());
    }
    return p;
  }

 private:
  std::string name_;
  AigEncoder encoder_;
  nn::Lstm lstm_;
  nn::AttentionPool attn_area_, attn_delay_;
  nn::Mlp head_area_, head_delay_;
};

// ---------------------------------------------------------------------------
// LOSTIN [21]: GNN + LSTM final state, MLP heads.
// ---------------------------------------------------------------------------

class LostinSurrogate final : public SurrogateModel {
 public:
  LostinSurrogate(const aig::Aig& g, const SurrogateConfig& cfg, clo::Rng& rng)
      : SurrogateModel(cfg),
        name_("lostin"),
        encoder_(g, cfg.circuit_hidden, cfg.max_gnn_nodes, rng),
        lstm_(cfg.embed_dim, cfg.hidden, rng),
        head_area_(cfg.hidden + cfg.circuit_hidden, cfg.hidden, 1, rng),
        head_delay_(cfg.hidden + cfg.circuit_hidden, cfg.hidden, 1, rng) {}

  Output forward(const Tensor& x) override {
    const int B = x.dim(0);
    auto steps = split_steps(x, config_.seq_len, config_.embed_dim);
    auto hs = lstm_.forward(steps);
    Tensor circ = nn::repeat_rows(encoder_.forward(), B);
    Tensor feat = nn::concat_cols({hs.back(), circ});
    return Output{head_area_.forward(feat), head_delay_.forward(feat)};
  }

  const std::string& name() const override { return name_; }

  std::vector<Tensor> parameters() override {
    std::vector<Tensor> p;
    for (nn::Module* m : std::initializer_list<nn::Module*>{
             &encoder_, &lstm_, &head_area_, &head_delay_}) {
      auto q = m->parameters();
      p.insert(p.end(), q.begin(), q.end());
    }
    return p;
  }

 private:
  std::string name_;
  AigEncoder encoder_;
  nn::Lstm lstm_;
  nn::Mlp head_area_, head_delay_;
};

// ---------------------------------------------------------------------------
// CNN [4]: 1-D convolutions over the embedded sequence.
// ---------------------------------------------------------------------------

class CnnSurrogate final : public SurrogateModel {
 public:
  CnnSurrogate(const aig::Aig& /*g*/, const SurrogateConfig& cfg, clo::Rng& rng)
      : SurrogateModel(cfg),
        name_("cnn"),
        conv1_(cfg.embed_dim, cfg.hidden, 3, rng),
        conv2_(cfg.hidden, cfg.hidden, 3, rng),
        head_area_(cfg.hidden, cfg.hidden, 1, rng),
        head_delay_(cfg.hidden, cfg.hidden, 1, rng) {}

  Output forward(const Tensor& x) override {
    const int B = x.dim(0);
    const int L = config_.seq_len, d = config_.embed_dim;
    // [B, L*d] -> [B, d, L]: embedding dimensions become conv channels,
    // sequence positions the length axis. Built differentiably by slicing
    // strided columns and stacking them as channels.
    Tensor chans;  // [B, d, L]
    std::vector<Tensor> taps(L);
    for (int c = 0; c < d; ++c) {
      // [B, L] = columns c, c+d, c+2d, ...
      for (int t = 0; t < L; ++t) {
        taps[t] = nn::slice_cols(x, t * d + c, t * d + c + 1);
      }
      Tensor as3d = nn::reshape(nn::concat_cols(taps), {B, 1, L});
      chans = chans.defined() ? nn::concat_channels(chans, as3d) : as3d;
    }
    Tensor h = nn::relu(conv1_.forward(chans));
    h = nn::avg_pool1d(h);  // L -> L/2
    h = nn::relu(conv2_.forward(h));
    // Global average pooling over the length axis (keeps the head small
    // enough to generalize from a few hundred labeled sequences).
    Tensor rows = nn::reshape(h, {B * config_.hidden, L / 2});
    Tensor ones = Tensor::full({L / 2, 1}, 2.0f / static_cast<float>(L));
    Tensor pooled = nn::reshape(nn::matmul(rows, ones), {B, config_.hidden});
    return Output{head_area_.forward(pooled), head_delay_.forward(pooled)};
  }

  const std::string& name() const override { return name_; }

  std::vector<Tensor> parameters() override {
    std::vector<Tensor> p;
    for (nn::Module* m : std::initializer_list<nn::Module*>{
             &conv1_, &conv2_, &head_area_, &head_delay_}) {
      auto q = m->parameters();
      p.insert(p.end(), q.begin(), q.end());
    }
    return p;
  }

 private:
  std::string name_;
  nn::Conv1dLayer conv1_, conv2_;
  nn::Mlp head_area_, head_delay_;
};

}  // namespace

std::unique_ptr<SurrogateModel> make_mtl_surrogate(const aig::Aig& g,
                                                   const SurrogateConfig& cfg,
                                                   clo::Rng& rng) {
  return std::make_unique<MtlSurrogate>(g, cfg, rng);
}

std::unique_ptr<SurrogateModel> make_lostin_surrogate(
    const aig::Aig& g, const SurrogateConfig& cfg, clo::Rng& rng) {
  return std::make_unique<LostinSurrogate>(g, cfg, rng);
}

std::unique_ptr<SurrogateModel> make_cnn_surrogate(const aig::Aig& g,
                                                   const SurrogateConfig& cfg,
                                                   clo::Rng& rng) {
  return std::make_unique<CnnSurrogate>(g, cfg, rng);
}

std::unique_ptr<SurrogateModel> make_surrogate(const std::string& kind,
                                               const aig::Aig& g,
                                               const SurrogateConfig& cfg,
                                               clo::Rng& rng) {
  if (kind == "mtl") return make_mtl_surrogate(g, cfg, rng);
  if (kind == "lostin") return make_lostin_surrogate(g, cfg, rng);
  if (kind == "cnn") return make_cnn_surrogate(g, cfg, rng);
  throw std::invalid_argument("unknown surrogate kind: " + kind);
}

}  // namespace clo::models
