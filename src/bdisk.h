/// \file bdisk.h
/// \brief Umbrella header: the full public API of the pinwheel-bdisk
/// library.
///
/// Include this for applications; include individual headers for faster
/// builds. See README.md for a tour and docs/ARCHITECTURE.md for the
/// layer dependency graph and error-handling conventions.

#ifndef BDISK_BDISK_H_
#define BDISK_BDISK_H_

// Foundations.
#include "common/crc32c.h"    // IWYU pragma: export
#include "common/random.h"    // IWYU pragma: export
#include "common/stats.h"     // IWYU pragma: export
#include "common/status.h"    // IWYU pragma: export
#include "common/zipf.h"      // IWYU pragma: export

// Information dispersal (Rabin's IDA + Bestavros' AIDA).
#include "gf/gf256.h"         // IWYU pragma: export
#include "gf/gf_bulk.h"       // IWYU pragma: export
#include "gf/matrix.h"        // IWYU pragma: export
#include "ida/aida.h"         // IWYU pragma: export
#include "ida/block.h"        // IWYU pragma: export
#include "ida/dispersal.h"    // IWYU pragma: export

// Pinwheel scheduling.
#include "pinwheel/chain_schedulers.h"     // IWYU pragma: export
#include "pinwheel/composite_scheduler.h"  // IWYU pragma: export
#include "pinwheel/exact_scheduler.h"      // IWYU pragma: export
#include "pinwheel/greedy_scheduler.h"     // IWYU pragma: export
#include "pinwheel/schedule.h"             // IWYU pragma: export
#include "pinwheel/task.h"                 // IWYU pragma: export
#include "pinwheel/verifier.h"             // IWYU pragma: export

// The pinwheel algebra (rules R0-R5, TR1/TR2, nice-conjunct conversion).
#include "algebra/condition.h"  // IWYU pragma: export
#include "algebra/optimizer.h"  // IWYU pragma: export
#include "algebra/rules.h"      // IWYU pragma: export

// Fault injection: erasure-channel models and the channel-spec grammar.
#include "faults/channel_model.h"  // IWYU pragma: export
#include "faults/channel_spec.h"   // IWYU pragma: export

// Broadcast disks.
#include "bdisk/bandwidth.h"        // IWYU pragma: export
#include "bdisk/block_size.h"       // IWYU pragma: export
#include "bdisk/delay_analysis.h"   // IWYU pragma: export
#include "bdisk/file_spec.h"        // IWYU pragma: export
#include "bdisk/flat_builder.h"     // IWYU pragma: export
#include "bdisk/indexing.h"         // IWYU pragma: export
#include "bdisk/multi_disk.h"       // IWYU pragma: export
#include "bdisk/pinwheel_builder.h" // IWYU pragma: export
#include "bdisk/program.h"          // IWYU pragma: export
#include "bdisk/spec_parser.h"      // IWYU pragma: export

// Simulation and the byte-level data plane.
#include "sim/cache.h"        // IWYU pragma: export
#include "sim/client.h"       // IWYU pragma: export
#include "sim/epoch.h"        // IWYU pragma: export
#include "sim/metrics.h"      // IWYU pragma: export
#include "sim/server.h"       // IWYU pragma: export
#include "sim/simulation.h"   // IWYU pragma: export
#include "sim/versioned.h"    // IWYU pragma: export

// Online adaptation: demand estimation, incremental re-optimization,
// hot-swap program transitions.
#include "adaptive/adaptive_loop.h"      // IWYU pragma: export
#include "adaptive/demand_estimator.h"   // IWYU pragma: export
#include "adaptive/hot_swap.h"           // IWYU pragma: export
#include "adaptive/program_optimizer.h"  // IWYU pragma: export

#endif  // BDISK_BDISK_H_
