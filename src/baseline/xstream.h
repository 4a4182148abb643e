// X-Stream-like baseline: fully-external, edge-centric scatter–gather–apply
// (Roy et al., SOSP'13; the paper's §VII-B comparison engine).
//
// Faithful to the architecture the paper measures against:
//  * the graph lives on disk as a flat tuple list (8B tuples for <2^32
//    vertices, 16B otherwise — Fig 2a compares the two);
//  * undirected graphs store BOTH directions (no symmetry saving — this is
//    the 2-4× storage gap Table II reports);
//  * every iteration streams the full edge list (scatter), writes updates to
//    an on-disk update file, then streams the updates back (gather/apply);
//  * vertex state is partitioned into streaming partitions so the state
//    touched while applying one partition's updates stays cache-resident.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/edge_list.h"
#include "graph/types.h"
#include "io/device.h"

namespace gstore::baseline {

struct XStreamConfig {
  std::size_t tuple_bytes = 8;          // 8 or 16 (Fig 2a)
  std::size_t chunk_bytes = 4ull << 20;  // streaming read granularity
  std::uint32_t partitions = 1;          // streaming partitions
  io::DeviceConfig device;               // bandwidth emulation for Fig 15
};

struct XStreamStats {
  std::uint32_t iterations = 0;
  std::uint64_t edge_bytes_read = 0;
  std::uint64_t update_bytes_written = 0;
  std::uint64_t update_bytes_read = 0;
  double elapsed_seconds = 0;
};

// Writes the on-disk tuple list X-Stream streams. Undirected graphs write
// each edge in both orientations; self loops are dropped. Returns bytes
// written.
std::uint64_t write_xstream_edges(const std::string& path,
                                  const graph::EdgeList& el,
                                  std::size_t tuple_bytes);

// Analytic size of the X-Stream representation (Table II "Edge List Size").
std::uint64_t xstream_storage_bytes(std::uint64_t vertex_count,
                                    std::uint64_t edge_count, bool undirected);

class XStreamEngine {
 public:
  // `edge_path` must have been produced by write_xstream_edges with the same
  // tuple size; `workdir` holds the per-iteration update files.
  XStreamEngine(std::string edge_path, std::string workdir,
                graph::vid_t vertex_count, std::uint64_t tuple_count,
                XStreamConfig config = {});

  XStreamStats run_bfs(graph::vid_t root, std::vector<std::int32_t>& depth_out);
  XStreamStats run_pagerank(std::uint32_t iterations, double damping,
                            const std::vector<graph::degree_t>& degrees,
                            std::vector<float>& rank_out);
  XStreamStats run_wcc(std::vector<graph::vid_t>& label_out);

 private:
  // One (target, payload) update record emitted by the scatter phase.
  struct Update {
    graph::vid_t target = 0;
    std::uint32_t payload = 0;
  };

  // Streams every edge tuple from disk and invokes fn(src, dst).
  void for_each_edge(
      const std::function<void(graph::vid_t, graph::vid_t)>& fn);

  std::uint32_t partition_of(graph::vid_t v) const {
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(v) * config_.partitions) / vertex_count_);
  }

  // Scatter-side buffered appends to the per-partition update files.
  void emit(std::uint32_t part, Update u);
  void flush_updates();
  // Gather side: streams partition `part`'s update file through fn.
  void for_each_update(std::uint32_t part,
                       const std::function<void(Update)>& fn);
  void reset_update_files();

  std::string edge_path_;
  std::string workdir_;
  graph::vid_t vertex_count_;
  std::uint64_t tuple_count_;
  XStreamConfig config_;
  io::Device edges_;
  XStreamStats stats_;

  std::vector<std::vector<Update>> update_buf_;  // per-partition append buffer
  std::vector<io::File> update_files_;
  std::vector<std::uint64_t> update_counts_;
};

}  // namespace gstore::baseline
