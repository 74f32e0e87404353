#include "net/routing.h"

#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/thread_pool.h"

namespace cold {

namespace {

// Builds ws.length_cache when the sweep will run the heap solver against a
// matrix-free provider (the only case where relaxations would otherwise
// recompute a hypot per scanned edge); returns the cache to pass to the
// solvers, or nullptr when it isn't worth building (dense providers serve
// one load already). Cached entries are the exact doubles lengths()
// returns, so results are bit-identical with or without it.
const SpLengthCache* maybe_length_cache(const Topology& g,
                                        const DistanceProvider& lengths,
                                        SpAlgorithm algo,
                                        RoutingWorkspace& ws) {
  if (algo != SpAlgorithm::kSparse || lengths.has_dense()) return nullptr;
  ws.length_cache.build(g, lengths);
  return &ws.length_cache;
}

}  // namespace

void EdgeLoads::build(const Topology& g) {
  n = g.num_nodes();
  off.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    off[v + 1] = off[v] + g.neighbors(v).size();
  }
  adj.resize(off[n]);
  eid.resize(off[n]);
  std::uint32_t next = 0;
  for (NodeId u = 0; u < n; ++u) {
    std::size_t slot = off[u];
    for (const NodeId v : g.neighbors(u)) {
      adj[slot] = v;
      if (u < v) {
        // First (lexicographic) visit of the undirected edge: assign the
        // next id. Edges are therefore numbered in Topology::edges() order.
        eid[slot] = next++;
      } else {
        // Mirror slot: v < u, so v's row was fully numbered already.
        const std::size_t lo = off[v];
        const std::size_t hi = off[v + 1];
        const auto it =
            std::lower_bound(adj.begin() + static_cast<std::ptrdiff_t>(lo),
                             adj.begin() + static_cast<std::ptrdiff_t>(hi), u);
        assert(it != adj.begin() + static_cast<std::ptrdiff_t>(hi) && *it == u);
        eid[slot] = eid[static_cast<std::size_t>(it - adj.begin())];
      }
      ++slot;
    }
  }
  assert(next == g.num_edges());
  value.assign(next, 0.0);
}

void EdgeLoads::scatter(Matrix<double>& out) const {
  if (out.rows() != n || out.cols() != n) {
    out = Matrix<double>::square(n, 0.0);
  } else {
    out.fill(0.0);
  }
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t s = off[u]; s < off[u + 1]; ++s) {
      out(u, adj[s]) = value[eid[s]];
    }
  }
}

bool sweep_sources(const Topology& g, const DistanceProvider& lengths,
                   RoutingWorkspace& ws, SpAlgorithm algo, ThreadPool* pool,
                   std::vector<ShortestPathTree>* retained,
                   const SourceVisitor& visit) {
  const std::size_t n = g.num_nodes();
  if (retained != nullptr) retained->resize(n);
  // Resolve the auto-selection (and dense availability) once per sweep.
  algo = resolve_sp_algorithm(g, lengths, algo);
  const SpLengthCache* cache = maybe_length_cache(g, lengths, algo, ws);
  const std::size_t bw = ws.block_width(n);

  // Trees of one block of sources [first, first + count), count <= bw, in
  // lockstep (shared cache-resident frontier state). The block width only
  // changes the batching, never the trees.
  const auto compute = [&](NodeId first, std::size_t count,
                           ShortestPathTree* trees) {
    NodeId sources[kSpSourceBlock];
    for (std::size_t b = 0; b < count; ++b) sources[b] = first + b;
    shortest_path_tree_batch(g, lengths, sources, count, trees, algo, cache);
  };
  // Visits in increasing source order — the order fixes every
  // floating-point sum the visitor makes, so it is the exactness contract.
  const auto visit_range = [&](NodeId first, std::size_t count,
                               const ShortestPathTree* trees) {
    for (std::size_t i = 0; i < count; ++i) {
      if (trees[i].order.size() != n) return false;  // disconnected
      visit(first + i, trees[i]);
    }
    return true;
  };

  if (pool == nullptr || pool->size() == 1 || n == 0) {
    if (retained == nullptr) ws.block.resize(bw);
    for (NodeId base = 0; base < n; base += bw) {
      const std::size_t width = std::min(bw, n - base);
      ShortestPathTree* trees =
          retained != nullptr ? &(*retained)[base] : ws.block.data();
      compute(base, width, trees);
      if (!visit_range(base, width, trees)) return false;
    }
    return true;
  }

  // Pooled: step k runs one parallel_for whose item 0 visits window k - 1
  // while the other items compute window k, so the in-order visit overlaps
  // the next window's trees. An item is one lockstep block for the dense
  // kernel but a single source for the heap solver, which gains nothing
  // from blocks — small items keep every thread busy on a small window.
  // Transient trees alternate between two window buffers. Each slot's
  // labels are sized by the thread that first computes into it: pool
  // threads draw on their allocator arenas, which already hold the memory
  // the GA's scoring scratch freed, so the window adds little to the
  // process's peak footprint.
  const std::size_t item = algo == SpAlgorithm::kDense ? bw : 1;
  const std::size_t width =
      std::min(ws.window_width(n, 2 * pool->size() * item), n);
  const std::size_t windows = (n + width - 1) / width;
  std::vector<ShortestPathTree> buffer;
  if (retained == nullptr) buffer.resize(windows > 1 ? 2 * width : width);
  const auto window_trees = [&](std::size_t k) {
    return retained != nullptr ? &(*retained)[k * width]
                               : &buffer[(k % 2) * width];
  };
  const auto window_size = [&](std::size_t k) {
    return std::min(width, n - k * width);
  };
  bool spanning = true;
  for (std::size_t k = 0; k <= windows; ++k) {
    const std::size_t visits = k > 0 ? 1 : 0;
    const std::size_t items =
        k < windows ? (window_size(k) + item - 1) / item : 0;
    pool->parallel_for(0, visits + items, [&](std::size_t i, std::size_t) {
      if (i < visits) {
        spanning = visit_range((k - 1) * width, window_size(k - 1),
                               window_trees(k - 1));
        return;
      }
      const std::size_t first = (i - visits) * item;
      compute(k * width + first, std::min(item, window_size(k) - first),
              window_trees(k) + first);
    });
    if (!spanning) return false;
  }
  return true;
}

namespace {

// route_loads and route_loads_retained: one sweep pushing each source's
// traffic row down its tree.
bool single_path_sweep(const char* who, const Topology& g,
                       const DistanceProvider& lengths,
                       const CompressedTraffic& traffic, EdgeLoads& loads,
                       std::vector<ShortestPathTree>* retained,
                       RoutingWorkspace& ws, SpAlgorithm algo,
                       ThreadPool* pool) {
  const std::size_t n = g.num_nodes();
  if (traffic.rows() != n || traffic.cols() != n) {
    throw std::invalid_argument(std::string(who) + ": traffic shape mismatch");
  }
  loads.build(g);
  return sweep_sources(g, lengths, ws, algo, pool, retained,
                       [&](NodeId s, const ShortestPathTree& tree) {
                         accumulate_tree_loads(tree, traffic, s, loads,
                                               ws.aggregate);
                       });
}

}  // namespace

bool route_loads(const Topology& g, const DistanceProvider& lengths,
                 const CompressedTraffic& traffic, EdgeLoads& loads,
                 RoutingWorkspace& ws, SpAlgorithm algo, ThreadPool* pool) {
  return single_path_sweep("route_loads", g, lengths, traffic, loads, nullptr,
                           ws, algo, pool);
}

void accumulate_tree_loads(const ShortestPathTree& tree,
                           const CompressedTraffic& traffic, NodeId s,
                           EdgeLoads& loads, std::vector<double>& aggregate) {
  // Push demands down the shortest-path tree: walking nodes in
  // decreasing-distance order, each node hands its subtree demand to its
  // parent edge. O(n + row nnz) per source. The zero-fill + CSR row scatter
  // seeds exactly the doubles a dense row copy would (absent pairs are
  // exact zeros), and the dense form's two symmetric writes collapse into
  // the edge's single accumulator, which receives the exact same ordered
  // sequence of adds — bit-identical per canonical cell.
  const std::size_t n = tree.dist.size();
  aggregate.assign(n, 0.0);
  const CompressedTraffic::RowSpan row = traffic.row_span(s);
  for (std::size_t k = 0; k < row.len; ++k) {
    aggregate[row.col[k]] = row.val[k];
  }
  for (std::size_t i = n; i-- > 1;) {  // skip the source (order[0])
    const NodeId t = tree.order[i];
    const NodeId p = tree.parent[t];
    loads.value[loads.index_of(p, t)] += aggregate[t];
    aggregate[p] += aggregate[t];
  }
}

bool route_loads_retained(const Topology& g, const DistanceProvider& lengths,
                          const CompressedTraffic& traffic, EdgeLoads& loads,
                          std::vector<ShortestPathTree>& trees,
                          RoutingWorkspace& ws, SpAlgorithm algo,
                          ThreadPool* pool) {
  return single_path_sweep("route_loads_retained", g, lengths, traffic, loads,
                           &trees, ws, algo, pool);
}

double total_demand_weighted_length(const Topology& g,
                                    const DistanceProvider& lengths,
                                    const CompressedTraffic& traffic,
                                    RoutingWorkspace& ws, SpAlgorithm algo) {
  double total = 0.0;
  const bool connected = sweep_sources(
      g, lengths, ws, algo, nullptr, nullptr,
      [&](NodeId s, const ShortestPathTree& tree) {
        // CSR row walk: zero demands contribute exact +0.0 addends in the
        // dense loop, so skipping them is bit-neutral.
        const CompressedTraffic::RowSpan row = traffic.row_span(s);
        for (std::size_t k = 0; k < row.len; ++k) {
          total += row.val[k] * tree.dist[row.col[k]];
        }
      });
  return connected ? total : std::numeric_limits<double>::infinity();
}

double total_demand_weighted_length(const Topology& g,
                                    const DistanceProvider& lengths,
                                    const CompressedTraffic& traffic) {
  RoutingWorkspace ws;
  return total_demand_weighted_length(g, lengths, traffic, ws);
}

Matrix<NodeId> routing_matrix(const Topology& g,
                              const DistanceProvider& lengths,
                              RoutingWorkspace& ws, SpAlgorithm algo,
                              ThreadPool* pool) {
  Matrix<NodeId> next_hop = Matrix<NodeId>::square(g.num_nodes(), 0);
  const bool connected = sweep_sources(
      g, lengths, ws, algo, pool, nullptr,
      [&](NodeId s, const ShortestPathTree& tree) {
        next_hop(s, s) = s;
        // Nodes settle in increasing-distance order, so a node's parent has
        // already had its next hop assigned.
        for (std::size_t i = 1; i < tree.order.size(); ++i) {
          const NodeId t = tree.order[i];
          const NodeId p = tree.parent[t];
          next_hop(s, t) = (p == s) ? t : next_hop(s, p);
        }
      });
  if (!connected) {
    throw std::invalid_argument("routing_matrix: graph is disconnected");
  }
  return next_hop;
}

Matrix<NodeId> routing_matrix(const Topology& g,
                              const DistanceProvider& lengths) {
  RoutingWorkspace ws;
  return routing_matrix(g, lengths, ws);
}

std::vector<NodeId> route_path(const Matrix<NodeId>& next_hop, NodeId s,
                               NodeId t) {
  const std::size_t n = next_hop.rows();
  if (s >= n || t >= n) throw std::out_of_range("route_path: node out of range");
  std::vector<NodeId> path{s};
  NodeId v = s;
  while (v != t) {
    v = next_hop(v, t);
    path.push_back(v);
    if (path.size() > n) throw std::logic_error("route_path: routing loop");
  }
  return path;
}

}  // namespace cold
