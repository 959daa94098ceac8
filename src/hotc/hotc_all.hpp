// Umbrella header: everything a typical embedder needs.
//
//   #include "hotc/hotc_all.hpp"
//
// pulls in the controller, the simulated engine, the parsers, workload
// generators, the experiment platform and the real-execution backend.
// Prefer the individual headers in translation units that only need one
// subsystem — this exists for quick starts and example code.
#pragma once

#include "cluster/cluster.hpp"       // multi-host extension
#include "engine/app.hpp"            // application models
#include "engine/engine.hpp"         // simulated container engine
#include "engine/monitor.hpp"        // resource sampling
#include "faas/platform.hpp"         // gateway + policies + experiment driver
#include "hotc/controller.hpp"       // the HotC middleware (Algorithms 1-3)
#include "obs/export.hpp"            // Prometheus text + span exports
#include "predict/baselines.hpp"     // predictor zoo
#include "predict/holt.hpp"
#include "predict/hybrid.hpp"
#include "predict/meta.hpp"
#include "predict/seasonal.hpp"
#include "runtime/real_hotc.hpp"     // wall-clock execution backend
#include "scenario/scenario.hpp"     // JSON-described experiments
#include "spec/runspec.hpp"          // docker-run / Dockerfile parsing
#include "workload/mix.hpp"          // config mixes
#include "workload/patterns.hpp"     // arrival generators
#include "workload/population.hpp"   // multi-tenant populations
#include "workload/trace.hpp"        // the Fig. 11 day trace
