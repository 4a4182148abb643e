#include "graph/edge_list.h"

#include <algorithm>

#include "util/status.h"

namespace gstore::graph {

EdgeList::EdgeList(std::vector<Edge> edges, vid_t vertex_count, GraphKind kind)
    : edges_(std::move(edges)), vertex_count_(vertex_count), kind_(kind) {
  for (const Edge& e : edges_)
    GS_CHECK_MSG(e.src < vertex_count_ && e.dst < vertex_count_,
                 "edge endpoint out of range");
}

EdgeList EdgeList::from_edges(std::vector<Edge> edges, GraphKind kind) {
  vid_t n = 0;
  for (const Edge& e : edges) n = std::max({n, e.src + 1, e.dst + 1});
  return EdgeList(std::move(edges), n, kind);
}

std::uint64_t EdgeList::storage_bytes() const noexcept {
  const std::uint64_t tuples =
      kind_ == GraphKind::kUndirected ? 2 * edge_count() : edge_count();
  return tuples * sizeof(Edge);
}

std::uint64_t EdgeList::normalize() {
  const std::size_t before = edges_.size();
  // Drop self loops.
  std::erase_if(edges_, [](const Edge& e) { return e.src == e.dst; });
  if (kind_ == GraphKind::kUndirected) {
    // Canonicalize orientation, then dedupe.
    for (Edge& e : edges_)
      if (e.src > e.dst) std::swap(e.src, e.dst);
  }
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  return before - edges_.size();
}

std::vector<degree_t> EdgeList::degrees() const {
  std::vector<degree_t> deg(vertex_count_, 0);
  for (const Edge& e : edges_) {
    if (e.src == e.dst) continue;
    ++deg[e.src];
    if (kind_ == GraphKind::kUndirected) ++deg[e.dst];
  }
  return deg;
}

std::vector<degree_t> EdgeList::in_degrees() const {
  if (kind_ == GraphKind::kUndirected) return degrees();
  std::vector<degree_t> deg(vertex_count_, 0);
  for (const Edge& e : edges_)
    if (e.src != e.dst) ++deg[e.dst];
  return deg;
}

void EdgeList::set_vertex_count(vid_t n) {
  for (const Edge& e : edges_)
    GS_CHECK_MSG(e.src < n && e.dst < n, "vertex_count below max endpoint");
  vertex_count_ = n;
}

}  // namespace gstore::graph
