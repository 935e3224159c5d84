#include "workload/random_rw.hpp"

#include <memory>
#include <sstream>

#include "workload/registry.hpp"

namespace capes::workload {

RandomRw::RandomRw(lustre::Cluster& cluster, RandomRwOptions opts)
    : cluster_(cluster), opts_(opts), rng_(opts.seed) {}

std::string RandomRw::name() const {
  std::ostringstream ss;
  ss << "random_rw(r=" << opts_.read_fraction << ")";
  return ss.str();
}

void RandomRw::start() {
  for (std::size_t c = 0; c < cluster_.num_clients(); ++c) {
    for (std::size_t t = 0; t < opts_.threads_per_client; ++t) {
      thread_loop(c, make_file_id(c, t), rng_.split());
    }
  }
}

void RandomRw::thread_loop(std::size_t client, std::uint64_t file_id,
                           util::Rng rng) {
  if (!running_) return;
  // Uniform random offset, aligned to the I/O size.
  const std::uint64_t slots = opts_.file_size / opts_.io_size;
  const std::uint64_t offset = rng.uniform_u64(slots) * opts_.io_size;
  const bool is_read = rng.chance(opts_.read_fraction);

  auto next = [this, client, file_id, rng]() mutable {
    ++ops_;
    cluster_.simulator().schedule_in(
        opts_.op_overhead_us,
        [this, client, file_id, rng] { thread_loop(client, file_id, rng); });
  };
  if (is_read) {
    cluster_.client(client).read(file_id, offset, opts_.io_size, next);
  } else {
    cluster_.client(client).write(file_id, offset, opts_.io_size, next);
  }
}

void register_random_rw(Registry& registry) {
  registry.add(
      "random",
      "random[:<read_frac>][,seed=N][,threads=N] — fixed-ratio random R/W "
      "mix (§4.3, Fig. 2); read_frac in [0, 1]",
      [](lustre::Cluster& cluster, util::SpecOptions options,
         std::string* error) -> std::unique_ptr<Workload> {
        RandomRwOptions opts;
        if (!util::parse_spec_options(
                options,
                {{"", "read_frac", "",
                  util::store_double(&opts.read_fraction, 0.0, 1.0)},
                 {"seed", "N", "", util::store_seed(&opts.seed)},
                 {"threads", "N", "",
                  util::store_int(&opts.threads_per_client, 1)}},
                "random", error)) {
          return nullptr;
        }
        return std::make_unique<RandomRw>(cluster, opts);
      });
}

}  // namespace capes::workload
