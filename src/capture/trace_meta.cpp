#include "capture/trace_meta.hpp"

#include <tuple>
#include <type_traits>

#include "util/serialize.hpp"

namespace capes::capture {

namespace {

constexpr std::uint32_t kMetaMagic = 0x4d545043u;  // "CPTM"
constexpr std::uint32_t kMetaVersion = 1;

/// Every serialized field in wire order: encode() and decode() walk this
/// one list, so they cannot disagree.
template <class Meta, class Visit>
void for_each_field(Meta& m, Visit visit) {
  std::apply([&](auto&... field) { (visit(field), ...); },
             std::tie(m.num_domains, m.num_nodes, m.pis_per_node,
                      m.num_actions, m.sampling_tick_s, m.engine_seed,
                      m.dqn_seed, m.use_double_dqn, m.use_target_network,
                      m.loss_kind, m.activation, m.num_hidden_layers,
                      m.hidden_size, m.gamma, m.learning_rate,
                      m.target_update_alpha, m.minibatch_size,
                      m.train_steps_per_tick, m.eval_epsilon,
                      m.epsilon_initial, m.epsilon_final,
                      m.epsilon_anneal_ticks, m.epsilon_bump_value,
                      m.epsilon_bump_ticks, m.ticks_per_observation,
                      m.missing_tolerance, m.max_ticks_retained,
                      m.initial_weights_fingerprint));
}

}  // namespace

bool TraceMeta::check(std::string* error) const {
  if (num_nodes == 0 || pis_per_node == 0 || num_actions == 0) {
    *error = "describes an empty topology";
    return false;
  }
  // An upper-bound estimate in 64-bit arithmetic; any overflow counts as
  // over the ceiling rather than wrapping back under it.
  bool overflow = false;
  auto mul = [&overflow](std::uint64_t a, std::uint64_t b) {
    std::uint64_t r = 0;
    overflow |= __builtin_mul_overflow(a, b, &r);
    return r;
  };
  auto add = [&overflow](std::uint64_t a, std::uint64_t b) {
    std::uint64_t r = 0;
    overflow |= __builtin_add_overflow(a, b, &r);
    return r;
  };
  const std::uint64_t in =
      mul(mul(num_nodes, pis_per_node), ticks_per_observation);
  const std::uint64_t width = hidden_size == 0 ? in : hidden_size;
  // Weights + biases of in -> width (x num_hidden_layers) -> actions.
  const std::uint64_t params =
      add(add(mul(add(in, 1), width),
              mul(num_hidden_layers, mul(add(width, 1), width))),
          mul(add(width, 1), num_actions));
  const std::uint64_t activations = mul(
      minibatch_size, add(add(in, mul(num_hidden_layers, width)), num_actions));
  const std::uint64_t floats = add(mul(5, params), mul(4, activations));
  if (overflow || floats > kMaxBrainFloats) {
    *error = "sizes a brain above the limit of " +
             std::to_string(kMaxBrainFloats) + " floats";
    return false;
  }
  return true;
}

std::vector<std::uint8_t> TraceMeta::encode() const {
  util::BinaryWriter w;
  w.put_u32(kMetaMagic);
  w.put_u32(kMetaVersion);
  for_each_field(*this, [&w](const auto& v) {
    using T = std::remove_cvref_t<decltype(v)>;
    if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, std::uint8_t>) {
      w.put_u8(static_cast<std::uint8_t>(v));
    } else if constexpr (std::is_same_v<T, std::uint32_t>) {
      w.put_u32(v);
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      w.put_u64(v);
    } else if constexpr (std::is_same_v<T, std::int64_t>) {
      w.put_i64(v);
    } else if constexpr (std::is_same_v<T, float>) {
      w.put_f32(v);
    } else {
      w.put_f64(v);
    }
  });
  return w.take();
}

std::optional<TraceMeta> TraceMeta::decode(
    const std::vector<std::uint8_t>& blob) {
  util::BinaryReader r(blob);
  const auto magic = r.get_u32();
  const auto version = r.get_u32();
  if (!magic || *magic != kMetaMagic || !version || *version != kMetaVersion) {
    return std::nullopt;
  }
  TraceMeta m;
  bool ok = true;
  for_each_field(m, [&](auto& v) {
    using T = std::remove_reference_t<decltype(v)>;
    const auto got = [&r] {
      if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, std::uint8_t>) {
        return r.get_u8();
      } else if constexpr (std::is_same_v<T, std::uint32_t>) {
        return r.get_u32();
      } else if constexpr (std::is_same_v<T, std::uint64_t>) {
        return r.get_u64();
      } else if constexpr (std::is_same_v<T, std::int64_t>) {
        return r.get_i64();
      } else if constexpr (std::is_same_v<T, float>) {
        return r.get_f32();
      } else {
        return r.get_f64();
      }
    }();
    if (got) v = static_cast<T>(*got);
    ok = ok && got.has_value();
  });
  if (!ok) return std::nullopt;
  return m;
}

}  // namespace capes::capture
