#include "core/task_assignment.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/math.hpp"

namespace crowdrank {

double io_node_probability(std::size_t degree) {
  return 2.0 / std::pow(3.0, static_cast<double>(degree));
}

double hp_likelihood_lower_bound(std::size_t n, std::size_t d_min,
                                 std::size_t d_max) {
  CR_EXPECTS(n >= 2, "need at least two objects");
  CR_EXPECTS(d_min >= 1 && d_min <= d_max, "need 1 <= d_min <= d_max");
  const double nn = static_cast<double>(n);
  const double pow_min = std::pow(3.0, static_cast<double>(d_min));
  const double pow_max = std::pow(3.0, static_cast<double>(d_max));
  const double base = std::pow(1.0 - 2.0 / pow_min, nn);
  const double denom = pow_max - 2.0;
  const double bracket =
      1.0 + 2.0 * nn / denom + nn * (nn - 1.0) / (2.0 * denom * denom);
  return base * bracket;
}

namespace {

TaskAssignmentStats make_stats(const TaskGraph& g,
                               std::size_t repair_operations) {
  TaskAssignmentStats stats;
  stats.edge_count = g.edge_count();
  stats.min_degree = g.min_degree();
  stats.max_degree = g.max_degree();
  stats.strictly_regular = stats.min_degree == stats.max_degree;
  stats.fair = stats.max_degree - stats.min_degree <= 1;
  stats.hp_likelihood_lower_bound = hp_likelihood_lower_bound(
      g.vertex_count(), std::max<std::size_t>(stats.min_degree, 1),
      std::max<std::size_t>(stats.max_degree, 1));
  stats.repair_operations = repair_operations;
  return stats;
}

/// Degree targets summing to 2l: base = floor(2l/n) everywhere, +1 for a
/// random subset of (2l mod n) vertices.
std::vector<std::size_t> degree_targets(std::size_t n, std::size_t num_edges,
                                        Rng& rng) {
  const std::size_t total = 2 * num_edges;
  const std::size_t base = total / n;
  const std::size_t surplus = total % n;
  std::vector<std::size_t> targets(n, base);
  const auto bumped = rng.sample_without_replacement(n, surplus);
  for (const std::size_t v : bumped) {
    targets[v] += 1;
  }
  return targets;
}

}  // namespace

TaskAssignment generate_task_assignment(std::size_t n, std::size_t num_edges,
                                        Rng& rng) {
  CR_EXPECTS(n >= 2, "need at least two objects");
  CR_EXPECTS(num_edges >= n - 1,
             "budget below n-1 comparisons cannot connect all objects");
  CR_EXPECTS(num_edges <= math::pair_count(n),
             "budget exceeds the number of distinct pairs");

  TaskGraph graph(n);
  std::size_t repairs = 0;

  // Line 4: a random Hamiltonian path seeds connectivity (and is itself an
  // HP of the task graph, the necessary condition of Thm 4.2).
  const auto hp = rng.permutation(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    graph.add_edge(hp[i], hp[i + 1]);
  }

  // Degree targets approximating d = 2l/n for every vertex. The random HP
  // already gives interior vertices degree 2 and endpoints degree 1; when a
  // target falls below a vertex's current degree (only possible for the
  // sparse l ~ n-1 regime) the surplus is absorbed by the swap repair below
  // being unnecessary — we simply never add more edges at that vertex.
  auto targets = degree_targets(n, num_edges, rng);
  // Ensure no target is below the HP-seeded degree: shift deficit from
  // over-seeded vertices to others so the target sum stays 2l.
  for (std::size_t rounds = 0; rounds < n; ++rounds) {
    bool moved = false;
    for (VertexId v = 0; v < n; ++v) {
      while (targets[v] < graph.degree(v)) {
        // find a vertex with slack (target above current degree) and take
        // one unit from... rather give one unit to v taken from a vertex
        // whose target exceeds its HP degree by the most.
        VertexId donor = n;
        std::size_t best_slack = 0;
        for (VertexId u = 0; u < n; ++u) {
          if (u == v) continue;
          const std::size_t deg = graph.degree(u);
          const std::size_t slack = targets[u] > deg ? targets[u] - deg : 0;
          if (slack > best_slack) {
            best_slack = slack;
            donor = u;
          }
        }
        CR_ENSURES(donor < n, "cannot balance degree targets");
        targets[donor] -= 1;
        targets[v] += 1;
        moved = true;
      }
    }
    if (!moved) break;
  }

  // Lines 5-8: top every vertex up to its target by pairing deficient
  // vertices at random. PS (the set of saturated vertices) is implicit:
  // a vertex leaves the candidate pool, in place and keeping the order of
  // the rest, as soon as an added edge brings it to deg == target.
  std::vector<VertexId> deficient;
  for (VertexId v = 0; v < n; ++v) {
    if (graph.degree(v) < targets[v]) deficient.push_back(v);
  }
  const auto retire_if_saturated = [&](VertexId x) {
    if (graph.degree(x) >= targets[x]) {
      deficient.erase(std::find(deficient.begin(), deficient.end(), x));
    }
  };
  const auto add_task = [&](VertexId a, VertexId b) {
    graph.add_edge(a, b);
    retire_if_saturated(a);
    retire_if_saturated(b);
  };

  // Seed-HP membership in O(1): on_path_after[hp[i]] = hp[i + 1].
  std::vector<VertexId> on_path_after(n, n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    on_path_after[hp[i]] = hp[i + 1];
  }

  std::size_t guard = 0;
  const std::size_t guard_limit = 20 * num_edges + 1000;
  while (graph.edge_count() < num_edges) {
    CR_ENSURES(++guard < guard_limit, "task generation failed to converge");

    // Try a uniformly random deficient pair that is not yet adjacent.
    bool added = false;
    if (deficient.size() >= 2) {
      for (int attempt = 0; attempt < 32 && !added; ++attempt) {
        const auto a_idx = rng.uniform_index(deficient.size());
        auto b_idx = rng.uniform_index(deficient.size() - 1);
        if (b_idx >= a_idx) ++b_idx;
        const VertexId a = deficient[a_idx];
        const VertexId b = deficient[b_idx];
        if (!graph.has_edge(a, b)) {
          add_task(a, b);
          added = true;
        }
      }
      if (!added) {
        // Exhaustive scan before falling back to repair.
        for (std::size_t ai = 0; ai < deficient.size() && !added; ++ai) {
          for (std::size_t bi = ai + 1; bi < deficient.size(); ++bi) {
            if (!graph.has_edge(deficient[ai], deficient[bi])) {
              add_task(deficient[ai], deficient[bi]);
              added = true;
              break;
            }
          }
        }
      }
    }
    if (added) continue;

    // Greedy dead end: remaining deficient vertices form a clique (or a
    // single vertex with deficit 2). Swap repair: remove an existing edge
    // (a, b) disjoint from two deficient endpoints u, v and add (a, u),
    // (b, v) — degrees of a and b unchanged, u and v each gain one.
    CR_ENSURES(!deficient.empty(), "edge deficit without deficient vertices");
    const VertexId u = deficient[0];
    // Pair the two first deficient vertices; when only one vertex remains
    // deficient its deficit is >= 2 (total deficit is even), so u == v and
    // the repair gives it both new endpoints.
    const VertexId v = deficient.size() >= 2 ? deficient[1] : deficient[0];
    bool repaired = false;
    // Random starting offset so repairs do not always cannibalize the same
    // (earliest) edges.
    const std::size_t edge_total = graph.edge_count();
    const std::size_t offset = rng.uniform_index(edge_total);
    for (std::size_t step = 0; step < edge_total && !repaired; ++step) {
      const Edge e = graph.edges()[(offset + step) % edge_total];
      const VertexId a = e.first;
      const VertexId b = e.second;
      if (a == u || a == v || b == u || b == v) continue;
      if (graph.has_edge(a, u) || graph.has_edge(b, v)) continue;
      // Never remove a seed-HP edge: connectivity must survive.
      if (on_path_after[a] == b || on_path_after[b] == a) continue;
      // a and b keep their degree, so only u and v can saturate.
      graph.remove_edge(a, b);
      graph.add_edge(a, u);
      graph.add_edge(b, v);
      retire_if_saturated(u);
      if (v != u) retire_if_saturated(v);
      repaired = true;
      ++repairs;
    }
    CR_ENSURES(repaired, "task generation could not repair a dead end");
  }

  CR_ENSURES(graph.edge_count() == num_edges,
             "generated graph has the wrong edge count");
  CR_ENSURES(graph.is_connected(), "generated task graph is disconnected");
  auto stats = make_stats(graph, repairs);
  return TaskAssignment{std::move(graph), stats};
}

TaskAssignment generate_random_assignment(std::size_t n,
                                          std::size_t num_edges, Rng& rng) {
  CR_EXPECTS(n >= 2, "need at least two objects");
  CR_EXPECTS(num_edges >= 1 && num_edges <= math::pair_count(n),
             "edge count out of range");
  // Sample edge indices without replacement from the C(n,2) pair universe.
  const auto picked =
      rng.sample_without_replacement(math::pair_count(n), num_edges);
  TaskGraph graph(n);
  for (const std::size_t flat : picked) {
    // Unrank the flat index into a pair (i, j), i < j, row-major over the
    // strictly-upper triangle.
    std::size_t i = 0;
    std::size_t remaining = flat;
    std::size_t row_len = n - 1;
    while (remaining >= row_len) {
      remaining -= row_len;
      ++i;
      --row_len;
    }
    const std::size_t j = i + 1 + remaining;
    graph.add_edge(i, j);
  }
  auto stats = make_stats(graph, 0);
  return TaskAssignment{std::move(graph), stats};
}

TaskAssignment generate_all_pairs_assignment(std::size_t n) {
  CR_EXPECTS(n >= 2, "need at least two objects");
  TaskGraph graph(n);
  for (VertexId i = 0; i < n; ++i) {
    for (VertexId j = i + 1; j < n; ++j) {
      graph.add_edge(i, j);
    }
  }
  auto stats = make_stats(graph, 0);
  return TaskAssignment{std::move(graph), stats};
}

}  // namespace crowdrank
