// Umbrella header: the public API of the cloudsync library.
//
// cloudsync reproduces "Towards Network-level Efficiency for Cloud Storage
// Services" (IMC 2014): a deterministic simulation framework for studying
// the Traffic Usage Efficiency (TUE) of cloud-storage data synchronisation.
//
// Typical usage (see examples/quickstart.cpp):
//
//   cloudsync::experiment_config cfg{cloudsync::dropbox()};
//   auto traffic = cloudsync::measure_creation_traffic(cfg, 1 * cloudsync::MiB);
//   double efficiency = cloudsync::tue(traffic, 1 * cloudsync::MiB);
#pragma once

#include "cache/block_cache.hpp"
#include "cache/eviction_policy.hpp"
#include "chunking/cdc.hpp"
#include "chunking/fixed_chunker.hpp"
#include "chunking/rsync.hpp"
#include "client/access_method.hpp"
#include "client/defer_policy.hpp"
#include "client/hardware.hpp"
#include "client/protocol_cost.hpp"
#include "client/service_profile.hpp"
#include "client/sync_protocol.hpp"
#include "client/sync_engine.hpp"
#include "client/sync_journal.hpp"
#include "compress/compressor.hpp"
#include "compress/huffman.hpp"
#include "compress/lzss.hpp"
#include "core/cost_model.hpp"
#include "core/dedup_probe.hpp"
#include "core/experiment.hpp"
#include "core/fleet.hpp"
#include "core/invariants.hpp"
#include "core/service_probe.hpp"
#include "core/tue.hpp"
#include "dedup/dedup_engine.hpp"
#include "fs/file_ops.hpp"
#include "fs/memfs.hpp"
#include "fs/watcher.hpp"
#include "net/fault_injector.hpp"
#include "net/link.hpp"
#include "net/sim_clock.hpp"
#include "net/tcp_model.hpp"
#include "net/traffic_meter.hpp"
#include "storage/chunk_backend.hpp"
#include "storage/cloud.hpp"
#include "trace/analysis.hpp"
#include "trace/generator.hpp"
#include "trace/serialize.hpp"
#include "util/content_cache.hpp"
#include "util/md5.hpp"
#include "util/parallel_runner.hpp"
#include "util/rng.hpp"
#include "util/sha1.hpp"
#include "util/sha256.hpp"
#include "util/stats.hpp"
#include "util/text_table.hpp"
#include "util/units.hpp"
