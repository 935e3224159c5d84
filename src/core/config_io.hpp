#pragma once
// Bridge between util::Config (the conf.py analogue) and the typed option
// structs. One table of conf keys (config_io.cpp) drives both directions:
// apply_config() overlays a conf file onto options, config_from_options()
// writes options back as a conf, and conf_keys() lists the table for the
// docs/CONFIG.md drift check. Every key is optional; absent keys keep the
// base options, so a conf file only needs to list overrides.

#include <string>
#include <vector>

#include "core/capes_system.hpp"
#include "lustre/types.hpp"
#include "util/config.hpp"

namespace capes::core {

/// Overlay every key in `cfg` onto *capes (capes.*, drl.*, replay.*) and
/// *cluster (lustre.*, disk.*, network.*) through the strict util::parse_*
/// parsers; numbers then clamp into their documented ranges. False, with
/// an *error naming the key, on an unknown key, an unparsable or
/// non-finite value or an unknown enum spelling (the options may then be
/// partially updated).
bool apply_config(const util::Config& cfg, CapesOptions* capes,
                  lustre::ClusterOptions* cluster, std::string* error);

/// Write the options back as a conf that apply_config() turns into the
/// same run: every key, except that the transport and fault seeds appear
/// only when explicit, capes.sim.faults.* only while a fault plan is
/// active, and capes.transport.tcp.* only under the tcp transport.
util::Config config_from_options(const CapesOptions& capes,
                                 const lustre::ClusterOptions& cluster);

/// Every conf key, in table order.
std::vector<std::string> conf_keys();

}  // namespace capes::core
