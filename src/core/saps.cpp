#include "core/saps.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "core/saps_kernel.hpp"
#include "graph/hamiltonian.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"

namespace crowdrank {

void saps_rotate(Path& path, std::size_t first, std::size_t middle,
                 std::size_t last) {
  CR_EXPECTS(first <= middle && middle <= last && last < path.size(),
             "rotate indices must satisfy first <= middle <= last < n");
  std::rotate(path.begin() + static_cast<std::ptrdiff_t>(first),
              path.begin() + static_cast<std::ptrdiff_t>(middle),
              path.begin() + static_cast<std::ptrdiff_t>(last) + 1);
}

void saps_reverse(Path& path, std::size_t first, std::size_t last) {
  CR_EXPECTS(first <= last && last < path.size(),
             "reverse indices must satisfy first <= last < n");
  std::reverse(path.begin() + static_cast<std::ptrdiff_t>(first),
               path.begin() + static_cast<std::ptrdiff_t>(last) + 1);
}

void saps_swap(Path& path, std::size_t a, std::size_t b) {
  CR_EXPECTS(a < path.size() && b < path.size(),
             "swap indices must be < n");
  std::swap(path[a], path[b]);
}

namespace {

/// Everything one restart chain produces; restarts write disjoint slots of
/// an outcome vector, and the winner is selected by a deterministic
/// min-reduction afterwards.
struct RestartOutcome {
  Path best_path;
  double log_cost = std::numeric_limits<double>::infinity();
  std::uint64_t moves_proposed = 0;
  std::uint64_t moves_accepted = 0;
};

/// Trace handles resolved once on the calling thread; the sharded metrics
/// registry is safe to push from pool workers.
struct SapsTraceHandles {
  metrics::Series* temperature = nullptr;
  metrics::Series* acceptance = nullptr;
  metrics::Series* best = nullptr;
  std::size_t stride = 1;
};

/// One annealing chain (Algorithm 2 lines 3-11 + Algorithm 3 acceptance),
/// self-contained: it reads only the immutable cost cache, the search's
/// shared start order and its own Rng stream, so chains run concurrently
/// without sharing any mutable state.
RestartOutcome run_restart(const SapsCostCache& cache, const Path& order,
                           const SapsConfig& config, std::size_t restart,
                           Rng& rng, const SapsTraceHandles& handles) {
  const std::size_t n = cache.size();
  trace::Span restart_span("saps_restart");
  if (restart_span.active()) {
    restart_span.set_attr("restart", restart);
  }

  // Algorithm 3: Metropolis acceptance on d = sum log(1/w), one uniform
  // draw per worse move.
  const auto accept = [&](double d_cur, double d_next, double temp) {
    if (d_next < d_cur) return true;
    if (temp <= 0.0) return false;
    return saps_metropolis_accept(rng.uniform(), -(d_next - d_cur) / temp);
  };

  RestartOutcome out;
  const VertexId anchor = static_cast<VertexId>(restart % n);
  Path current = saps_initial_path(cache, order, anchor, config.init_mode,
                                   /*force_anchor=*/restart > 0, rng);
  double d_cur = path_log_cost(cache, current);
  out.log_cost = d_cur;
  out.best_path = current;

  // Windowed acceptance bookkeeping for the trace samples below. The
  // best-cost series tracks this restart's own best (chains no longer see
  // each other's progress mid-flight).
  std::uint64_t window_proposed = 0;
  std::uint64_t window_accepted = 0;
  const double iter_base =
      static_cast<double>(restart) * static_cast<double>(config.iterations);

  double temp = config.initial_temperature;
  for (std::size_t iter = 0; iter < config.iterations; ++iter) {
    // Algorithm 2 lines 5-11: propose each enabled move in turn. Each
    // proposal is scored by its incremental delta (O(1) for rotate and
    // swap, O(segment) for reverse) and applied only on acceptance.
    for (int move = 0; move < 3; ++move) {
      if (move == 0 && !config.use_rotate) continue;
      if (move == 1 && !config.use_reverse) continue;
      if (move == 2 && !config.use_swap) continue;

      double delta = 0.0;
      std::size_t p0 = 0;
      std::size_t p1 = 0;
      std::size_t p2 = 0;
      if (move == 0) {
        // Rotate a random range about a random interior pivot.
        p0 = rng.uniform_index(n);
        p2 = rng.uniform_index(n);
        if (p0 > p2) std::swap(p0, p2);
        p1 = p0 + static_cast<std::size_t>(rng.uniform_index(p2 - p0 + 1));
        delta = saps_rotate_delta(cache, current, p0, p1, p2);
      } else if (move == 1) {
        p0 = rng.uniform_index(n);
        p1 = rng.uniform_index(n);
        if (p0 > p1) std::swap(p0, p1);
        delta = saps_reverse_delta(cache, current, p0, p1);
      } else {
        p0 = rng.uniform_index(n);
        p1 = rng.uniform_index(n - 1);
        if (p1 >= p0) ++p1;
        delta = saps_swap_delta(cache, current, p0, p1);
      }

      ++out.moves_proposed;
      ++window_proposed;
      if (accept(d_cur, d_cur + delta, temp)) {
        if (move == 0) {
          saps_rotate(current, p0, p1, p2);
        } else if (move == 1) {
          saps_reverse(current, p0, p1);
        } else {
          saps_swap(current, p0, p1);
        }
        d_cur += delta;
        ++out.moves_accepted;
        ++window_accepted;
        if (d_cur < out.log_cost) {
          out.log_cost = d_cur;
          out.best_path = current;
        }
      }
    }
    temp *= config.cooling_rate;

    if (handles.temperature != nullptr &&
        (iter + 1) % handles.stride == 0) {
      const double t = iter_base + static_cast<double>(iter + 1);
      trace::push_series(handles.temperature, t, temp);
      trace::push_series(
          handles.acceptance, t,
          window_proposed > 0 ? static_cast<double>(window_accepted) /
                                    static_cast<double>(window_proposed)
                              : 0.0);
      trace::push_series(handles.best, t, out.log_cost);
      window_proposed = 0;
      window_accepted = 0;
    }
  }
  if (restart_span.active()) {
    restart_span.set_attr("best_log_cost", out.log_cost);
  }
  return out;
}

}  // namespace

SapsResult saps_search(const Matrix& closure, const SapsConfig& config,
                       Rng& rng) {
  return saps_search(Matrix(closure), config, rng);
}

SapsResult saps_search(Matrix&& closure, const SapsConfig& config, Rng& rng) {
  CR_EXPECTS(closure.is_square(), "closure matrix must be square");
  const std::size_t n = closure.rows();
  CR_EXPECTS(n >= 2, "need at least two objects");
  CR_EXPECTS(config.iterations >= 1, "need at least one iteration");
  CR_EXPECTS(config.initial_temperature > 0.0,
             "initial temperature must be positive");
  CR_EXPECTS(config.cooling_rate > 0.0 && config.cooling_rate <= 1.0,
             "cooling rate must be in (0, 1]");
  CR_EXPECTS(config.restarts >= 1 || config.paper_mode,
             "need at least one restart");
  CR_EXPECTS(config.use_rotate || config.use_reverse || config.use_swap,
             "at least one move type must be enabled");

  const std::size_t restarts = config.paper_mode
                                   ? n
                                   : std::min(config.restarts, n);

  // The weight-difference start is the same for every restart up to its
  // anchor, so it is ranked once here, from the weights, and each restart
  // copies it. Then the -log w cost matrix is written over the closure's
  // storage; every delta evaluation below is a handful of loads instead of
  // std::log calls.
  const Path order =
      config.init_mode == SapsInitMode::WeightDifferenceRanking
          ? weight_difference_order(closure)
          : Path{};
  const SapsCostCache cache(std::move(closure));

  // One draw from the caller's stream seeds every restart chain: restart r
  // runs on Rng(task_stream_seed(base, r)). The derivation depends only on
  // (caller seed state, restart index) — never on the thread count or the
  // execution schedule — and the caller's Rng advances by exactly one step
  // regardless of how many restarts run, so results are bitwise-identical
  // at 1 vs N threads and across repeated runs.
  const std::uint64_t stream_base = rng();

  // Annealing-schedule trace, sampled every `stride` iterations so even
  // million-iteration runs stay at ~128 points per restart. The stride is
  // derived from the config alone (never the clock), and all observations
  // are reads of existing state — the anneal itself is untouched.
  SapsTraceHandles handles;
  handles.temperature = trace::series("saps.temperature");
  handles.acceptance = trace::series("saps.acceptance_rate");
  handles.best = trace::series("saps.best_log_cost");
  handles.stride = config.iterations > 128 ? config.iterations / 128 : 1;

  // Restart chains fan out across the pool as independent tasks; each
  // writes only its own outcome slot. Inside a nested region (or with
  // CROWDRANK_THREADS=1) this degenerates to the serial restart loop.
  // Tiny searches skip the fan-out entirely: below ~2e6 proposed-move
  // evaluations the pool's wake/park round trip costs more than the work
  // (the per-restart RNG streams make the serial loop bit-identical to
  // the parallel one, so this is a pure scheduling decision).
  constexpr std::uint64_t kSerialMoveLimit = 2'000'000;
  const std::uint64_t total_moves = static_cast<std::uint64_t>(restarts) *
                                    config.iterations * n;
  std::vector<RestartOutcome> outcomes(restarts);
  const auto run_one = [&](std::size_t restart) {
    Rng restart_rng(task_stream_seed(stream_base, restart));
    outcomes[restart] =
        run_restart(cache, order, config, restart, restart_rng, handles);
  };
  if (total_moves < kSerialMoveLimit) {
    for (std::size_t restart = 0; restart < restarts; ++restart) {
      run_one(restart);
    }
  } else {
    ThreadPool::instance().run(restarts, run_one);
  }

  // Deterministic winner: min-reduction in ascending restart order keyed on
  // (log_cost, restart_index) — strict < keeps the earliest restart on
  // exact ties, independent of which thread finished first.
  SapsResult result;
  std::size_t winner = 0;
  for (std::size_t r = 0; r < restarts; ++r) {
    if (outcomes[r].log_cost < outcomes[winner].log_cost) {
      winner = r;
    }
    result.moves_proposed += outcomes[r].moves_proposed;
    result.moves_accepted += outcomes[r].moves_accepted;
    ++result.restarts_run;
  }
  result.best_path = std::move(outcomes[winner].best_path);

  // One sink snapshot for all three (see trace::counter).
  if (trace::TraceSink* sink = trace::sink()) {
    sink->metrics().counter("saps.moves_proposed").add(result.moves_proposed);
    sink->metrics().counter("saps.moves_accepted").add(result.moves_accepted);
    sink->metrics().counter("saps.restarts").add(result.restarts_run);
  }

  // Re-derive the exact cost of the winner: accumulated deltas can drift
  // by float rounding over millions of accepted moves.
  result.log_cost = path_log_cost(cache, result.best_path);
  result.probability = std::exp(-result.log_cost);
  CR_ENSURES(is_permutation_path(result.best_path, n),
             "SAPS produced a non-Hamiltonian path");
  return result;
}

}  // namespace crowdrank
