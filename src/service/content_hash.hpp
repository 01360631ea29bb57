#pragma once
/// \file content_hash.hpp
/// \brief Content-addressed keys for (netlist, testbench) pairs, as the
/// service layer names them.
///
/// The service caches one fault::CampaignEngine per *content* of a
/// design-plus-workload pair, not per object. The key is defined in the
/// simulation layer (sim/testbench.hpp: canonical_testbench, content_keys,
/// content_hash) and is each engine's own
/// fault::CampaignEngine::content_hash(), so the registry and every campaign
/// partial share one key. This header re-exports those names into
/// ffr::service.

#include "netlist/content_key.hpp"
#include "sim/testbench.hpp"

namespace ffr::service {

/// A 128-bit content hash (defined by the netlist layer, which keys
/// netlists with it).
using ContentHash = netlist::ContentHash;

using sim::canonical_testbench;
using sim::content_hash;
using sim::content_keys;
using sim::ContentKeys;

}  // namespace ffr::service
