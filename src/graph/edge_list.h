// In-memory edge list: the raw interchange format all converters start from.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.h"

namespace gstore::graph {

class EdgeList {
 public:
  EdgeList() = default;
  EdgeList(std::vector<Edge> edges, vid_t vertex_count, GraphKind kind);

  static EdgeList from_edges(std::vector<Edge> edges, GraphKind kind);

  const std::vector<Edge>& edges() const noexcept { return edges_; }
  std::vector<Edge>& mutable_edges() noexcept { return edges_; }
  std::span<const Edge> span() const noexcept { return edges_; }

  vid_t vertex_count() const noexcept { return vertex_count_; }
  std::uint64_t edge_count() const noexcept { return edges_.size(); }
  GraphKind kind() const noexcept { return kind_; }

  // Bytes the plain edge-list representation occupies on disk (paper
  // Table II column "Edge List Size"). Undirected graphs are charged for
  // both directions, matching how X-Stream stores them.
  std::uint64_t storage_bytes() const noexcept;

  // Removes self loops and (for undirected graphs) duplicate edges in
  // either orientation. Returns number of removed edges.
  std::uint64_t normalize();

  // Out-degree (directed) or total degree (undirected) per vertex. A self
  // loop adds no degree: the converter drops loops, and the .deg file,
  // the ingest path and the references all count degree without them.
  std::vector<degree_t> degrees() const;
  std::vector<degree_t> in_degrees() const;

  void set_vertex_count(vid_t n);

 private:
  std::vector<Edge> edges_;
  vid_t vertex_count_ = 0;
  GraphKind kind_ = GraphKind::kUndirected;
};

}  // namespace gstore::graph
