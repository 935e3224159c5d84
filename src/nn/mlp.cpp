#include "nn/mlp.hpp"

#include <cassert>

#include "util/serialize.hpp"

namespace capes::nn {

namespace {
constexpr std::uint32_t kMagic = 0x4341504eu;  // "CAPN"
constexpr std::uint32_t kVersion = 1;
}  // namespace

Mlp::Mlp(const std::vector<std::size_t>& sizes, util::Rng& rng,
         Activation activation)
    : Mlp(sizes, activation, RawTag{}) {
  for (auto& d : dense_) d.init_xavier(rng);
}

Mlp::Mlp(const std::vector<std::size_t>& sizes, Activation activation, RawTag)
    : sizes_(sizes), activation_(activation) {
  assert(sizes_.size() >= 2);
  dense_.reserve(sizes_.size() - 1);
  for (std::size_t i = 0; i + 1 < sizes_.size(); ++i) {
    dense_.emplace_back(sizes_[i], sizes_[i + 1],
                        "layer" + std::to_string(i));
  }
  const std::size_t hidden = dense_.size() - 1;
  tanh_.resize(hidden);
  relu_.resize(hidden);
}

const Matrix& Mlp::forward(const Matrix& x, util::ThreadPool* pool) {
  const Matrix* cur = &x;
  for (std::size_t i = 0; i < dense_.size(); ++i) {
    cur = &dense_[i].forward(*cur, pool);
    if (i + 1 < dense_.size()) {
      cur = activation_ == Activation::kTanh ? &tanh_[i].forward(*cur)
                                             : &relu_[i].forward(*cur);
    }
  }
  return *cur;
}

void Mlp::backward(const Matrix& grad_out, util::ThreadPool* pool) {
  const Matrix* grad = &grad_out;
  for (std::size_t i = dense_.size(); i-- > 0;) {
    if (i + 1 < dense_.size()) {
      grad = activation_ == Activation::kTanh ? &tanh_[i].backward(*grad)
                                              : &relu_[i].backward(*grad);
    }
    if (i > 0) {
      grad = &dense_[i].backward(*grad, pool);
    } else {
      // Nothing reads the gradient wrt the network input; skip computing it.
      dense_[i].backward_params(*grad, pool);
    }
  }
}

void Mlp::zero_grad() {
  for (auto& d : dense_) d.zero_grad();
}

std::vector<Parameter*> Mlp::parameters() {
  std::vector<Parameter*> params;
  for (auto& d : dense_) {
    params.push_back(&d.weights());
    params.push_back(&d.bias());
  }
  return params;
}

std::vector<const Parameter*> Mlp::parameters() const {
  std::vector<const Parameter*> params;
  for (const auto& d : dense_) {
    params.push_back(&d.weights());
    params.push_back(&d.bias());
  }
  return params;
}

std::size_t Mlp::parameter_count() const {
  std::size_t n = 0;
  for (const auto* p : parameters()) n += p->value.size();
  return n;
}

std::size_t Mlp::memory_bytes() const {
  std::size_t n = 0;
  for (const auto* p : parameters()) {
    n += (p->value.size() + p->grad.size()) * sizeof(float);
  }
  return n;
}

void Mlp::copy_weights_from(const Mlp& other) {
  auto dst = parameters();
  auto src = other.parameters();
  assert(dst.size() == src.size());
  for (std::size_t i = 0; i < dst.size(); ++i) {
    assert(dst[i]->value.size() == src[i]->value.size());
    dst[i]->value = src[i]->value;
  }
}

std::unique_ptr<Mlp> Mlp::clone() const {
  auto copy = std::unique_ptr<Mlp>(new Mlp(sizes_, activation_, RawTag{}));
  copy->copy_weights_from(*this);
  auto dst = copy->parameters();
  auto src = parameters();
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i]->name = src[i]->name;
  return copy;
}

void Mlp::soft_update_from(const Mlp& other, float alpha) {
  // Walks the layers directly (no parameters() vector) — this runs every
  // train step and must stay off the heap.
  assert(dense_.size() == other.dense_.size());
  const auto blend = [alpha](std::vector<float>& d, const std::vector<float>& s) {
    assert(d.size() == s.size());
    for (std::size_t j = 0; j < d.size(); ++j) {
      d[j] = (1.0f - alpha) * d[j] + alpha * s[j];
    }
  };
  for (std::size_t i = 0; i < dense_.size(); ++i) {
    blend(dense_[i].weights().value, other.dense_[i].weights().value);
    blend(dense_[i].bias().value, other.dense_[i].bias().value);
  }
}

std::vector<std::uint8_t> Mlp::serialize() const {
  util::BinaryWriter w;
  w.put_u32(kMagic);
  w.put_u32(kVersion);
  w.put_u8(activation_ == Activation::kTanh ? 0 : 1);
  w.put_u32(static_cast<std::uint32_t>(sizes_.size()));
  for (std::size_t s : sizes_) w.put_u64(s);
  for (const auto* p : parameters()) {
    w.put_string(p->name);
    w.put_f32_vector(p->value);
  }
  return w.take();
}

std::unique_ptr<Mlp> Mlp::deserialize(const std::vector<std::uint8_t>& data) {
  util::BinaryReader r(data);
  auto magic = r.get_u32();
  auto version = r.get_u32();
  if (!magic || *magic != kMagic || !version || *version != kVersion) {
    return nullptr;
  }
  auto act = r.get_u8();
  auto nsizes = r.get_u32();
  if (!act || !nsizes || *nsizes < 2) return nullptr;
  std::vector<std::size_t> sizes;
  for (std::uint32_t i = 0; i < *nsizes; ++i) {
    auto s = r.get_u64();
    if (!s || *s == 0) return nullptr;
    sizes.push_back(static_cast<std::size_t>(*s));
  }
  auto mlp = std::unique_ptr<Mlp>(new Mlp(
      sizes, *act == 0 ? Activation::kTanh : Activation::kRelu, RawTag{}));
  for (auto* p : mlp->parameters()) {
    auto name = r.get_string();
    auto values = r.get_f32_vector();
    if (!name || !values || values->size() != p->value.size()) return nullptr;
    p->name = *name;
    p->value = std::move(*values);
  }
  return mlp;
}

bool Mlp::save_checkpoint(const std::string& path) const {
  return util::write_file(path, serialize());
}

std::unique_ptr<Mlp> Mlp::load_checkpoint(const std::string& path) {
  auto data = util::read_file(path);
  if (!data) return nullptr;
  return deserialize(*data);
}

}  // namespace capes::nn
