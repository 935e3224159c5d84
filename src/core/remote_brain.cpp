#include "core/remote_brain.hpp"

#include <cstdio>

#include "capture/wire_log_writer.hpp"
#include "core/control_agent.hpp"
#include "core/interface_daemon.hpp"
#include "net/socket.hpp"
#include "util/frame.hpp"
#include "util/serialize.hpp"

namespace capes::core {

std::vector<std::uint8_t> encode_hello(const HelloPayload& hello) {
  util::BinaryWriter w;
  w.put_u32(kWireProtoVersion);
  const std::vector<std::uint8_t> meta = hello.meta.encode();
  w.put_u32(static_cast<std::uint32_t>(meta.size()));
  w.put_raw(meta.data(), meta.size());
  w.put_u32(static_cast<std::uint32_t>(hello.domains.size()));
  for (const ShardLayout& d : hello.domains) {
    w.put_u64(d.action_offset);
    w.put_u32(static_cast<std::uint32_t>(d.params.size()));
    for (const rl::TunableParameter& p : d.params) {
      w.put_string(p.name);
      w.put_f64(p.min_value);
      w.put_f64(p.max_value);
      w.put_f64(p.step);
      w.put_f64(p.initial_value);
    }
  }
  return w.take();
}

std::optional<HelloPayload> decode_hello(const std::vector<std::uint8_t>& blob) {
  util::BinaryReader r(blob);
  const auto version = r.get_u32();
  if (!version || *version != kWireProtoVersion) return std::nullopt;
  const auto meta_len = r.get_u32();
  if (!meta_len || *meta_len > r.remaining()) return std::nullopt;
  std::vector<std::uint8_t> meta_blob(*meta_len);
  if (!r.get_raw(meta_blob.data(), meta_blob.size())) return std::nullopt;
  const auto meta = capture::TraceMeta::decode(meta_blob);
  if (!meta) return std::nullopt;
  HelloPayload hello;
  hello.meta = *meta;
  // Element counts are wire data: each is checked against the bytes left
  // (a domain takes at least 12, a parameter at least 36) before anything
  // is sized from it, so a forged count fails the decode instead of
  // attempting a huge allocation.
  const auto num_domains = r.get_u32();
  if (!num_domains || *num_domains == 0 || *num_domains > r.remaining() / 12) {
    return std::nullopt;
  }
  hello.domains.reserve(*num_domains);
  for (std::uint32_t d = 0; d < *num_domains; ++d) {
    ShardLayout domain;
    const auto offset = r.get_u64();
    const auto num_params = r.get_u32();
    if (!offset || !num_params || *num_params > r.remaining() / 36) {
      return std::nullopt;
    }
    domain.action_offset = *offset;
    domain.params.reserve(*num_params);
    for (std::uint32_t p = 0; p < *num_params; ++p) {
      rl::TunableParameter param;
      auto name = r.get_string();
      const auto min_value = r.get_f64();
      const auto max_value = r.get_f64();
      const auto step = r.get_f64();
      const auto initial = r.get_f64();
      if (!name || !min_value || !max_value || !step || !initial) {
        return std::nullopt;
      }
      param.name = std::move(*name);
      param.min_value = *min_value;
      param.max_value = *max_value;
      param.step = *step;
      param.initial_value = *initial;
      domain.params.push_back(std::move(param));
    }
    hello.domains.push_back(std::move(domain));
  }
  return hello;
}

BrainClient::BrainClient(bus::Transport& transport, bus::TransportOptions opts,
                         net::EndpointOptions endpoint_opts)
    : opts_(std::move(opts)),
      endpoint_opts_(endpoint_opts),
      // Unbounded like the daemon's inbox: capacity drops would
      // desynchronize the differential PI codec. The tcp shed point is
      // the endpoint's outbound ring, where absolute framing and the
      // replay DB's missing-entry tolerance absorb the loss.
      inbox_(transport, kStatusTopic) {}

BrainClient::~BrainClient() {
  if (endpoint_ == nullptr) return;
  send_frame(kFrameBye, last_tick_, 0, 0, nullptr, 0);
  endpoint_->close();  // lingers briefly so the Bye flushes
}

bool BrainClient::connect(const capture::TraceMeta& meta,
                          std::vector<ControlDomain*> domains,
                          std::string* error) {
  domains_ = std::move(domains);
  for (const ControlDomain* domain : domains_) {
    slice_offsets_.push_back(domain->action_offset());
  }
  std::string sock_error;
  const int fd =
      net::tcp_connect(opts_.tcp_host, static_cast<std::uint16_t>(opts_.tcp_port),
                       opts_.connect_timeout_ms, &sock_error);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "cannot reach capes_daemond at " + opts_.tcp_host + ":" +
               std::to_string(opts_.tcp_port) + ": " + sock_error;
    }
    return false;
  }
  endpoint_ = std::make_unique<net::Endpoint>(fd, endpoint_opts_);

  HelloPayload hello;
  hello.meta = meta;
  hello.domains.reserve(domains_.size());
  for (const ControlDomain* domain : domains_) {
    hello.domains.push_back(
        ShardLayout{domain->action_offset(), domain->space().parameters()});
  }
  const std::vector<std::uint8_t> blob = encode_hello(hello);
  if (!endpoint_->send(kFrameHello, 0, 0, 0, blob.data(), blob.size())) {
    if (error != nullptr) *error = "handshake send failed (link dead)";
    return false;
  }
  for (;;) {
    net::InSlot* slot = endpoint_->recv();
    if (slot == nullptr) {
      if (error != nullptr) {
        *error = "capes_daemond closed the connection during the handshake "
                 "(protocol-version mismatch or rejected Hello?)";
      }
      return false;
    }
    const net::Frame& f = slot->frame;
    if (f.type != kFrameHelloAck) {
      endpoint_->recycle(slot);
      continue;  // tolerate strays; the ack is next
    }
    if (f.payload.size() < 8 ||
        util::get_le32(f.payload.data()) != kWireProtoVersion) {
      endpoint_->recycle(slot);
      if (error != nullptr) {
        *error = "capes_daemond speaks a different protocol version";
      }
      return false;
    }
    fingerprint_ = util::get_le32(f.payload.data() + 4);
    endpoint_->recycle(slot);
    return true;
  }
}

void BrainClient::set_payload_recycler(PayloadRecycler recycler) {
  payload_recycler_ = std::move(recycler);
}

bool BrainClient::send_frame(std::uint8_t type, std::int64_t tick,
                             std::uint64_t topic, std::uint64_t sender,
                             const std::uint8_t* payload,
                             std::size_t payload_size) {
  last_tick_ = tick;
  if (endpoint_ == nullptr) {
    ++dead_drops_;
    return false;
  }
  return endpoint_->send(type, tick, topic, sender, payload, payload_size);
}

std::size_t BrainClient::flush_status(std::int64_t t) {
  return inbox_.drain(t, [this, t](bus::Message<std::vector<std::uint8_t>>& msg) {
    // Capture before the send, mirroring the daemon's drain: the record
    // carries the raw wire bytes under the same topic/sender/tick.
    if (capture_ != nullptr) {
      capture_->record(capture::RecordType::kStatus, t, kStatusTopic,
                       msg.sender, msg.payload.data(), msg.payload.size());
    }
    send_frame(frame_type(capture::RecordType::kStatus), t, kStatusTopic,
               msg.sender, msg.payload.data(), msg.payload.size());
    if (payload_recycler_) {
      payload_recycler_(msg.sender, std::move(msg.payload));
    }
  });
}

void BrainClient::on_reward(std::int64_t t, double reward,
                            double throughput_sum, double latency_mean) {
  std::uint8_t payload[24];
  util::put_le_f64(payload, reward);
  util::put_le_f64(payload + 8, throughput_sum);
  util::put_le_f64(payload + 16, latency_mean);
  send_frame(frame_type(capture::RecordType::kReward), t, 0, 0, payload,
             sizeof(payload));
}

void BrainClient::stash_broadcast(const net::Frame& frame) {
  const std::size_t domain =
      frame.topic >= kActionTopicBase
          ? static_cast<std::size_t>(frame.topic - kActionTopicBase)
          : domains_.size();
  if (domain >= domains_.size()) return;  // garbled topic: drop
  if (stash_count_ == stash_.size()) stash_.emplace_back();
  PendingBroadcast& pending = stash_[stash_count_++];
  pending.domain = domain;
  const std::size_t n = frame.payload.size() / 8;
  pending.values.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    pending.values[i] = util::get_le_f64(frame.payload.data() + 8 * i);
  }
}

std::size_t BrainClient::drain_actions(std::int64_t t) {
  const std::size_t applied = stash_count_;
  for (std::size_t i = 0; i < stash_count_; ++i) {
    PendingBroadcast& pending = stash_[i];
    ControlDomain* domain = domains_[pending.domain];
    if (capture_ != nullptr) {
      capture_->record_f64s(capture::RecordType::kBroadcast, t,
                            kActionTopicBase + domain->index(),
                            domain->index(), pending.values.data(),
                            pending.values.size());
    }
    domain->param_values().assign(pending.values.begin(),
                                  pending.values.end());
    // Applying parameters runs the target system's setters, which may
    // schedule simulator events — bind the owning domain's shard, as
    // the daemon's drain_actions does.
    const auto binding = domain->bind_sim_shard();
    for (const auto& agent : domain->control_agents()) {
      agent->on_action_message(domain->param_values());
    }
  }
  stash_count_ = 0;
  return applied;
}

TickOutcome BrainClient::end_tick(std::int64_t t, std::uint8_t mode,
                                  util::ThreadPool*) {
  TickOutcome out;
  send_frame(kFrameTickDone, t, 0, 0, &mode, 1);
  if (endpoint_ == nullptr) return out;
  stash_count_ = 0;
  for (;;) {
    net::InSlot* slot = endpoint_->recv();
    if (slot == nullptr) {
      // The daemon vanished mid-tick: finish the tick with no action and
      // surface the loss through stats().dropped — never hang the loop.
      stash_count_ = 0;
      ++dead_drops_;
      return out;
    }
    const net::Frame& f = slot->frame;
    if (f.type == frame_type(capture::RecordType::kBroadcast)) {
      stash_broadcast(f);
      endpoint_->recycle(slot);
      continue;
    }
    if (f.type == kFrameActionsDone && f.payload.size() >= 20) {
      out.suggested = util::get_le32(f.payload.data());
      out.recorded = util::get_le32(f.payload.data() + 4);
      out.train_steps = util::get_le32(f.payload.data() + 8);
      out.total_train_steps =
          static_cast<std::size_t>(util::get_le64(f.payload.data() + 12));
      endpoint_->recycle(slot);
      break;
    }
    endpoint_->recycle(slot);  // stray: ignore
  }
  total_train_steps_ = out.total_train_steps;
  if (capture_ != nullptr) {
    // Mirror the daemon's kAction record, under the shard its routing
    // gave the suggestion.
    const std::size_t shard = shard_of_action(slice_offsets_, out.suggested);
    std::uint8_t payload[8];
    util::put_le32(payload, static_cast<std::uint32_t>(out.suggested));
    util::put_le32(payload + 4, static_cast<std::uint32_t>(out.recorded));
    capture_->record(capture::RecordType::kAction, t, kActionTopicBase + shard,
                     shard, payload, sizeof(payload));
  }
  return out;
}

void BrainClient::begin_phase(std::int64_t t, std::uint8_t phase) {
  send_frame(frame_type(capture::RecordType::kPhaseBegin), t, 0, 0, &phase, 1);
}

void BrainClient::end_phase(std::int64_t t, std::uint8_t phase) {
  send_frame(frame_type(capture::RecordType::kPhaseEnd), t, 0, 0, &phase, 1);
  if (endpoint_ == nullptr) return;
  for (;;) {
    net::InSlot* slot = endpoint_->recv();
    if (slot == nullptr) return;
    const net::Frame& f = slot->frame;
    if (f.type == kFramePhaseEndAck && f.payload.size() >= 12) {
      fingerprint_ = util::get_le32(f.payload.data());
      total_train_steps_ =
          static_cast<std::size_t>(util::get_le64(f.payload.data() + 4));
      endpoint_->recycle(slot);
      return;
    }
    endpoint_->recycle(slot);
  }
}

void BrainClient::reset_params(std::int64_t t) {
  send_frame(kFrameParamsReset, t, 0, 0, nullptr, 0);
}

void BrainClient::workload_change(std::int64_t t) {
  send_frame(frame_type(capture::RecordType::kWorkloadChange), t, 0, 0,
             nullptr, 0);
}

bus::ChannelStats BrainClient::stats() const {
  bus::ChannelStats stats = inbox_.stats();
  if (endpoint_ != nullptr) stats.dropped += endpoint_->send_dropped();
  stats.dropped += dead_drops_;
  return stats;
}

}  // namespace capes::core
