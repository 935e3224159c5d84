#include "workload/seq_write.hpp"

#include <memory>

#include "workload/registry.hpp"

namespace capes::workload {

SeqWrite::SeqWrite(lustre::Cluster& cluster, SeqWriteOptions opts)
    : cluster_(cluster), opts_(opts) {}

void SeqWrite::start() {
  for (std::size_t c = 0; c < cluster_.num_clients(); ++c) {
    for (std::size_t s = 0; s < opts_.streams_per_client; ++s) {
      stream_loop(c, make_file_id(c, 0x100000 + s), 0);
    }
  }
}

void SeqWrite::stream_loop(std::size_t client, std::uint64_t file_id,
                           std::uint64_t offset) {
  if (!running_) return;
  cluster_.client(client).write(
      file_id, offset, opts_.write_size,
      [this, client, file_id, offset] {
        ++ops_;
        cluster_.simulator().schedule_in(
            opts_.op_overhead_us, [this, client, file_id, offset] {
              stream_loop(client, file_id, offset + opts_.write_size);
            });
      });
}

void register_seq_write(Registry& registry) {
  registry.add(
      "seqwrite",
      "seqwrite[:streams=N][,seed=N] — concurrent sequential append "
      "streams (HPC checkpoint / surveillance, §4.3)",
      [](lustre::Cluster& cluster, util::SpecOptions options,
         std::string* error) -> std::unique_ptr<Workload> {
        SeqWriteOptions opts;
        if (!util::parse_spec_options(
                options,
                {{"streams", "N", "",
                  util::store_int(&opts.streams_per_client, 1)},
                 {"seed", "N", "", util::store_seed(&opts.seed)}},
                "seqwrite", error)) {
          return nullptr;
        }
        return std::make_unique<SeqWrite>(cluster, opts);
      });
}

}  // namespace capes::workload
