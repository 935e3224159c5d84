#include "workload/registry.hpp"

#include "workload/file_server.hpp"
#include "workload/random_rw.hpp"
#include "workload/seq_write.hpp"

namespace capes::workload {

Registry& Registry::instance() {
  // The bundled workloads live in this static library; a pure
  // static-initializer registration in their translation units would be
  // dropped by the linker whenever a binary only talks to the registry,
  // so the built-ins are registered explicitly on first use. Workloads in
  // executables can rely on CAPES_REGISTER_WORKLOAD alone.
  static Registry* registry = [] {
    auto* r = new Registry();
    register_random_rw(*r);
    register_file_server(*r);
    register_seq_write(*r);
    return r;
  }();
  return *registry;
}

bool Registry::add(std::string name, std::string spec_help, Factory factory) {
  if (name.empty() || !factory) return false;
  return entries_.emplace(std::move(name),
                          Entry{std::move(spec_help), std::move(factory)})
      .second;
}

std::unique_ptr<Workload> Registry::create(const std::string& spec,
                                           lustre::Cluster& cluster,
                                           std::string* error) const {
  const util::SpecParts parts = util::split_spec(spec);
  const auto it = entries_.find(std::string(parts.name));
  std::string why = "unknown workload '" + std::string(parts.name) + "'";
  std::unique_ptr<Workload> workload;
  if (it != entries_.end()) {
    why = "invalid options";  // a factory that fails without saying why
    workload = it->second.factory(cluster, parts.options, &why);
  }
  if (!workload && error) {
    *error = "invalid workload spec '" + spec + "': " + why;
  }
  return workload;
}

bool Registry::contains(const std::string& name) const {
  return entries_.count(name) != 0;
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;  // std::map iteration is already sorted
}

std::string Registry::spec_help(const std::string& name) const {
  const auto it = entries_.find(name);
  return it == entries_.end() ? std::string() : it->second.help;
}

}  // namespace capes::workload
