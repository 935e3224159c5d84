#include "core/brain_service.hpp"

#include <memory>
#include <vector>

#include "core/brain.hpp"
#include "core/remote_brain.hpp"
#include "util/frame.hpp"
#include "util/logging.hpp"

namespace capes::core {

namespace {

/// A Hello the Brain can be built from: a meta that passes
/// TraceMeta::check, and domain action slices that tile the composite
/// action space contiguously from 1 — the layout CapesSystem builds — so
/// every suggestion routes in-slice.
bool validate_hello(const HelloPayload& hello, std::string* error) {
  const capture::TraceMeta& meta = hello.meta;
  if (!meta.check(error)) {
    *error = "Hello meta " + *error;
    return false;
  }
  if (hello.domains.empty()) {
    *error = "Hello describes no domains";
    return false;
  }
  std::uint64_t next_offset = 1;
  for (const ShardLayout& d : hello.domains) {
    if (d.action_offset != next_offset) {
      *error = "Hello action slices are not contiguous from 1";
      return false;
    }
    next_offset += 2 * static_cast<std::uint64_t>(d.params.size());
  }
  if (next_offset != meta.num_actions) {
    *error = "Hello action-space layout disagrees with its meta";
    return false;
  }
  return true;
}

}  // namespace

BrainServiceReport BrainService::serve(net::Endpoint& endpoint) {
  BrainServiceReport report;
  std::vector<std::uint8_t> broadcast_scratch;  // outlives the brain's sink
  std::unique_ptr<Brain> brain;
  bool stop = false;
  while (!stop) {
    net::InSlot* slot = endpoint.recv();
    if (slot == nullptr) break;  // EOF / error / idle timeout: client gone
    const net::Frame& frame = slot->frame;
    switch (frame.type) {
      case kFrameHello: {
        auto hello = decode_hello(frame.payload);
        if (!hello) {
          report.error =
              "undecodable Hello (protocol-version mismatch or garbled "
              "payload)";
          stop = true;
          break;
        }
        if (!validate_hello(*hello, &report.error)) {
          stop = true;
          break;
        }
        report.num_domains = hello->domains.size();
        brain = std::make_unique<Brain>(hello->meta, std::move(hello->domains));
        // The daemon's checked broadcasts go back over the wire.
        brain->daemon().set_broadcast_sink(
            [&endpoint, &broadcast_scratch](std::int64_t t, std::size_t shard,
                                            const std::vector<double>& values) {
              broadcast_scratch.resize(values.size() * 8);
              for (std::size_t i = 0; i < values.size(); ++i) {
                util::put_le_f64(broadcast_scratch.data() + 8 * i, values[i]);
              }
              endpoint.send(frame_type(capture::RecordType::kBroadcast), t,
                            kActionTopicBase + shard, shard,
                            broadcast_scratch.data(), broadcast_scratch.size());
            });
        report.hello_ok = true;
        std::uint8_t ack[8];
        util::put_le32(ack, kWireProtoVersion);
        util::put_le32(ack + 4, brain->weights_fingerprint());
        endpoint.send(kFrameHelloAck, 0, 0, 0, ack, sizeof(ack));
        break;
      }
      case kFrameTickDone:
        if (brain != nullptr && !frame.payload.empty()) {
          const TickOutcome outcome =
              brain->end_tick(frame.tick, frame.payload[0], nullptr);
          report.train_steps += outcome.train_steps;
          ++report.ticks;
          std::uint8_t done[20];
          util::put_le32(done, static_cast<std::uint32_t>(outcome.suggested));
          util::put_le32(done + 4, static_cast<std::uint32_t>(outcome.recorded));
          util::put_le32(done + 8, static_cast<std::uint32_t>(outcome.train_steps));
          util::put_le64(done + 12, outcome.total_train_steps);
          endpoint.send(kFrameActionsDone, frame.tick, 0, 0, done, sizeof(done));
        }
        break;
      case kFrameParamsReset:
        if (brain != nullptr) brain->reset_params(frame.tick);
        break;
      case kFrameBye:
        report.clean_shutdown = true;
        stop = true;
        break;
      default:
        if (brain == nullptr) break;
        if (frame.type == frame_type(capture::RecordType::kStatus)) {
          ++report.status_records;
          brain->daemon().on_status_message(frame.payload);
        } else if (frame.type == frame_type(capture::RecordType::kReward)) {
          if (frame.payload.size() >= 8) {
            ++report.reward_records;
            brain->daemon().on_reward(frame.tick,
                                      util::get_le_f64(frame.payload.data()));
          }
        } else if (frame.type ==
                   frame_type(capture::RecordType::kWorkloadChange)) {
          brain->workload_change(frame.tick);
        } else if (frame.type == frame_type(capture::RecordType::kPhaseEnd)) {
          // The remote drain_learner(): everything the phase trained is
          // visible in the fingerprint the ack carries.
          brain->engine().drain_learner();
          std::uint8_t ack[12];
          util::put_le32(ack, brain->weights_fingerprint());
          util::put_le64(ack + 4, report.train_steps);
          endpoint.send(kFramePhaseEndAck, frame.tick, 0, 0, ack, sizeof(ack));
        }
        // kPhaseBegin and unknown types: no service-side state to touch.
        break;
    }
    endpoint.recycle(slot);
  }
  if (brain != nullptr) {
    report.fingerprint = brain->weights_fingerprint();
    report.decode_errors = brain->daemon().decode_errors();
    report.actions_broadcast = brain->daemon().actions_broadcast();
    report.actions_vetoed = brain->daemon().actions_vetoed();
  }
  if (!report.error.empty()) {
    CAPES_LOG_WARN("braind") << "session aborted: " << report.error;
  }
  return report;
}

}  // namespace capes::core
