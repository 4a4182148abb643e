// Shared helpers for the gstore test suite.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "graph/edge_list.h"
#include "io/file.h"
#include "store/algorithm.h"
#include "store/scr_engine.h"
#include "store/segment.h"
#include "tile/convert.h"
#include "tile/edge_block.h"
#include "tile/tile_file.h"

namespace gstore::testing {

// Converts an edge list into a tile store inside `dir` and opens it.
inline tile::TileStore make_store(const io::TempDir& dir,
                                  const graph::EdgeList& el,
                                  tile::ConvertOptions opts = {},
                                  io::DeviceConfig dev = {},
                                  const std::string& name = "g") {
  const std::string base = dir.file(name);
  tile::convert_to_tiles(el, base, opts);
  return tile::TileStore::open(base, dev);
}

// Pins an owning copy of `bytes`: how tests put data into a CachePool,
// whose only way in is insert_pinned.
inline store::BufferPin pin_copy(const std::vector<std::uint8_t>& bytes) {
  const auto owner = std::make_shared<const std::vector<std::uint8_t>>(bytes);
  return store::BufferPin(owner, owner->data());
}

// Decodes every edge of every tile back to global coordinates.
inline std::vector<graph::Edge> decode_all_edges(tile::TileStore& store) {
  std::vector<graph::Edge> out;
  std::vector<std::uint8_t> buf;
  for (std::uint64_t k = 0; k < store.grid().tile_count(); ++k) {
    const std::uint64_t bytes = store.tile_bytes(k);
    if (bytes == 0) continue;
    buf.resize(bytes);
    store.read_range(k, k + 1, buf.data());
    const tile::TileView v = store.view(k, buf.data());
    tile::visit_edges(
        v, [&](graph::vid_t a, graph::vid_t b) { out.push_back({a, b}); });
  }
  return out;
}

// The first process_tile of iteration 1 is a cached tile (REWIND comes before
// any fetched tile is processed). It waits, up to 2 s, for the device to read
// past its end-of-iteration-0 byte count: that only happens if the SLIDE
// reads were submitted before REWIND started. Optionally it then throws.
class OverlapProbeAlgo final : public store::TileAlgorithm {
 public:
  OverlapProbeAlgo(tile::TileStore& store, bool throw_on_probe)
      : store_(store), throw_(throw_on_probe) {}
  std::string name() const override { return "overlap-probe"; }
  void init(const tile::TileStore&) override {}
  void begin_iteration(std::uint32_t iter) override { iter_ = iter; }
  void process_tile(const tile::TileView&) override {
    if (iter_ == 0 || probed_.exchange(true)) return;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (!device_moved() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    overlapped_ = device_moved();
    if (throw_) throw std::runtime_error("probe failure");
  }
  bool end_iteration(std::uint32_t iter) override {
    if (iter == 0) bytes_after_iter0_ = store_.device().stats().bytes_read;
    return iter + 1 < 2;
  }
  bool overlapped() const { return overlapped_; }

 private:
  bool device_moved() {
    return store_.device().stats().bytes_read > bytes_after_iter0_;
  }
  tile::TileStore& store_;
  const bool throw_;
  std::uint32_t iter_ = 0;
  std::uint64_t bytes_after_iter0_ = 0;
  std::atomic<bool> probed_{false};
  std::atomic<bool> overlapped_{false};
};

// Half the graph fits the pool, so iteration 1 has cached tiles to REWIND
// and others to SLIDE. Config is store::EngineConfig or serve's
// SchedulerConfig: both carry the same two memory fields.
template <typename Config = store::EngineConfig>
Config half_cached(const tile::TileStore& store) {
  const std::uint64_t total =
      store.bytes_of_range(0, store.grid().tile_count());
  Config c;
  c.segment_bytes = total / 8;
  c.stream_memory_bytes = 2 * c.segment_bytes + total / 2;
  return c;
}

}  // namespace gstore::testing
