// crowdrank.hpp — the single public entry point of the crowdrank library.
//
// External consumers (examples, benches, downstream tools) include this
// umbrella header and nothing else; the lint gate (tools/crowdrank_lint.py)
// rejects direct sub-module includes outside src/ and tests/. The header
// re-exports every subsystem and adds the stable `crowdrank::api` facade:
// a Request/Response pair that wraps the configure-harden-infer sequence
// behind one call, so callers depend on a narrow surface that survives
// internal pipeline refactors.
//
//     crowdrank::api::Request request;
//     request.votes = ...;            // raw (possibly messy) vote batch
//     request.object_count = n;
//     crowdrank::api::Response response = crowdrank::api::rank(request);
//     if (response.ok()) use(response.ranking.order);
//
// `rank` never throws on malformed input: repairs and degradations are
// reported structurally (Response::outcome, Response::hardening), the same
// contract the batch service (service/service.hpp) gives each job.
#pragma once

// util: primitives every layer shares
#include "util/build_info.hpp"
#include "util/error.hpp"
#include "util/json_string.hpp"
#include "util/logging.hpp"
#include "util/math.hpp"
#include "util/matrix.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

// obs: the live telemetry plane (flight recorder, snapshot exporter,
// postmortems) consumed by `crowdrank serve --telemetry` / `crowdrank top`
#include "obs/exposition.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"

// graph: preference graphs, closures, Hamiltonian search
#include "graph/hamiltonian.hpp"
#include "graph/preference_graph.hpp"
#include "graph/scc.hpp"
#include "graph/task_graph.hpp"
#include "graph/transitive_closure.hpp"
#include "graph/types.hpp"

// metrics: ranking representation and quality measures
#include "metrics/kendall.hpp"
#include "metrics/ranking.hpp"
#include "metrics/spearman.hpp"
#include "metrics/topk.hpp"

// crowd: votes, workers, HITs, budgets, simulators, AMT data
#include "crowd/amt_dataset.hpp"
#include "crowd/behaviors.hpp"
#include "crowd/budget.hpp"
#include "crowd/hit.hpp"
#include "crowd/interactive.hpp"
#include "crowd/simulator.hpp"
#include "crowd/vote.hpp"
#include "crowd/worker.hpp"

// analysis: invariant validators
#include "analysis/invariants.hpp"

// core: the four-step inference pipeline and planners
#include "core/checkpoint.hpp"
#include "core/confidence.hpp"
#include "core/diagnostics.hpp"
#include "core/pipeline.hpp"
#include "core/planning.hpp"
#include "core/two_round.hpp"

// baselines: comparison aggregators
#include "baselines/bradley_terry.hpp"
#include "baselines/crowd_bt.hpp"
#include "baselines/local_kemeny.hpp"
#include "baselines/majority_vote.hpp"
#include "baselines/quicksort_rank.hpp"
#include "baselines/repeat_choice.hpp"

// service: the fault-tolerant batch ranking service, the persistent
// artifact format + content-addressed result cache, and the crowdrank::api
// facade (declared in service/api.hpp, implemented on the same shared
// entry point the service's executors run)
#include "service/api.hpp"
#include "service/artifact.hpp"
#include "service/hardening.hpp"
#include "service/job.hpp"
#include "service/rank_entry.hpp"
#include "service/result_cache.hpp"
#include "service/service.hpp"
