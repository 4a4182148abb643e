// In-memory delta of ingested edges, grouped by tile and SNB-encoded.
//
// This is the overlay half of the online ingestion design (GraphChi-DB's
// log-structured in-memory buffer adapted to G-Store's tile layout): edges
// acknowledged through the WAL live here, bucketed by destination tile in
// the store's own canonical orientation and SNB encoding, so the SCR
// engine's overlay read path can splice them into tile scans with zero
// translation. Degree deltas are tracked alongside so load_degrees() stays
// consistent with what tile scans deliver.
//
// Concurrency contract: one writer (the ingestor), readers only between
// writes. Engine runs read the overlay from multiple threads, which is safe
// because they never overlap with add()/clear() — the same contract the
// TileStore itself has ("thread-compatible").
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/types.h"
#include "tile/grid.h"
#include "tile/overlay.h"
#include "tile/tile_file.h"

namespace gstore::ingest {

class DeltaBuffer final : public tile::TileOverlay {
 public:
  // Copies the grid/meta so the buffer stays valid across store re-opens
  // (the ingestor re-creates it per generation anyway). `budget_bytes` is
  // the MemoryBudget-style allocation: full() turns true once the estimated
  // footprint reaches it, which is the ingestor's compaction trigger.
  DeltaBuffer(const tile::Grid& grid, const tile::TileStoreMeta& meta,
              std::uint64_t budget_bytes);

  // Canonicalizes and buffers one edge given in original (src, dst)
  // orientation: symmetric stores get the upper-triangle tuple, full-matrix
  // undirected stores both orientations, in-edge stores the swapped tuple —
  // exactly the converter's rules. Self loops are dropped, as the converter
  // drops them (returns false); endpoints outside the store's vertex range
  // throw InvalidArgument (the vertex set is fixed at conversion time — see
  // docs/INGEST.md).
  bool add(graph::Edge e);
  // Returns the number of edges accepted (self loops skipped).
  std::uint64_t add_batch(std::span<const graph::Edge> edges);

  void clear();

  std::uint64_t memory_bytes() const noexcept { return memory_bytes_; }
  std::uint64_t budget_bytes() const noexcept { return budget_bytes_; }
  bool full() const noexcept { return memory_bytes_ >= budget_bytes_; }
  // Logical edges accepted (one per add(), regardless of how many tuples
  // the store format needs for it).
  std::uint64_t ingested_edges() const noexcept { return ingested_; }

  // Incremental-recompute hook (ScrEngine::resume): the layout indices of
  // tiles touched by add()/add_batch() since the last take, sorted
  // ascending, clearing the set. A follow-up analytics pass re-activates
  // exactly these tiles instead of rerunning from scratch.
  std::vector<std::uint64_t> take_dirty_tiles();

  // ---- tile::TileOverlay ----
  std::span<const tile::SnbEdge> tile_edges(
      std::uint64_t layout_idx) const override;
  std::vector<std::uint64_t> nonempty_tiles() const override;
  std::uint64_t edge_count() const override { return tuple_count_; }
  void apply_degree_deltas(std::span<graph::degree_t> deg) const override;

 private:
  void push_tuple(graph::vid_t src, graph::vid_t dst);

  tile::Grid grid_;
  bool symmetric_ = false;
  bool directed_ = false;
  bool in_edges_ = false;
  graph::vid_t n_ = 0;
  std::uint64_t budget_bytes_ = 0;
  std::uint64_t memory_bytes_ = 0;
  std::uint64_t tuple_count_ = 0;
  std::uint64_t ingested_ = 0;
  std::unordered_map<std::uint64_t, std::vector<tile::SnbEdge>> tiles_;
  std::unordered_map<graph::vid_t, graph::degree_t> degree_delta_;
  std::unordered_set<std::uint64_t> dirty_tiles_;  // touched since last take
};

}  // namespace gstore::ingest
