// Umbrella header: the whole radiocast public API in one include.
//
//   #include "radiocast.h"
//
// Fine-grained headers remain available for compile-time-conscious users;
// this header exists for examples, experiments, and quick starts.
#pragma once

#include "adversary/jamming.h"            // IWYU pragma: export
#include "adversary/lower_bound_builder.h"  // IWYU pragma: export
#include "adversary/selective_family.h"   // IWYU pragma: export
#include "core/complete_layered.h"        // IWYU pragma: export
#include "core/decay.h"                   // IWYU pragma: export
#include "core/dfs_known.h"               // IWYU pragma: export
#include "core/echo.h"                    // IWYU pragma: export
#include "core/interleaved.h"             // IWYU pragma: export
#include "core/kp_randomized.h"           // IWYU pragma: export
#include "core/round_robin.h"             // IWYU pragma: export
#include "core/runner.h"                  // IWYU pragma: export
#include "core/select_and_send.h"         // IWYU pragma: export
#include "core/selective_broadcast.h"     // IWYU pragma: export
#include "core/universal_sequence.h"      // IWYU pragma: export
#include "fault/churn.h"                  // IWYU pragma: export
#include "fault/crash.h"                  // IWYU pragma: export
#include "fault/fault_model.h"            // IWYU pragma: export
#include "fault/jammer.h"                 // IWYU pragma: export
#include "fault/loss.h"                   // IWYU pragma: export
#include "graph/analysis.h"               // IWYU pragma: export
#include "graph/generators.h"             // IWYU pragma: export
#include "graph/graph.h"                  // IWYU pragma: export
#include "sim/message.h"                  // IWYU pragma: export
#include "sim/protocol.h"                 // IWYU pragma: export
#include "sim/simulator.h"                // IWYU pragma: export
#include "sim/soa_engine.h"               // IWYU pragma: export
#include "sim/trace.h"                    // IWYU pragma: export
#include "util/assert.h"                  // IWYU pragma: export
#include "util/cli.h"                     // IWYU pragma: export
#include "util/fit.h"                     // IWYU pragma: export
#include "util/math.h"                    // IWYU pragma: export
#include "util/rng.h"                     // IWYU pragma: export
#include "util/stats.h"                   // IWYU pragma: export
#include "util/table.h"                   // IWYU pragma: export
