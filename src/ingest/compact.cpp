#include "ingest/compact.h"

#include <chrono>
#include <utility>
#include <vector>

#include "graph/edge_list.h"
#include "ingest/wal.h"
#include "io/file.h"
#include "tile/convert.h"
#include "tile/edge_block.h"
#include "tile/tile_file.h"

namespace gstore::ingest {

namespace {

// Reads every tile of `store` and decodes the tuples back to the original
// (src, dst) edge orientation the converter expects as input:
//   symmetric upper-triangle  → tuples already canonical, keep as-is;
//   full-matrix undirected    → both orientations stored, keep only src < dst
//                               or the converter would double them again;
//   directed in-edge store    → tuples are (dst, src), swap back;
//   directed out-edge store   → keep as-is.
std::vector<graph::Edge> decode_base_edges(tile::TileStore& store) {
  const tile::TileStoreMeta& meta = store.meta();
  std::vector<graph::Edge> out;
  out.reserve(meta.symmetric() || meta.directed() ? meta.edge_count
                                                  : meta.edge_count / 2);
  const bool full_matrix = !meta.directed() && !meta.symmetric();
  const bool swap_back = meta.directed() && meta.in_edges();
  std::vector<std::uint8_t> buf;
  for (std::uint64_t idx = 0; idx < meta.tile_count; ++idx) {
    const std::uint64_t bytes = store.tile_bytes(idx);
    if (bytes == 0) continue;
    buf.resize(bytes);
    store.read_range(idx, idx + 1, buf.data());
    const tile::TileView v = store.view(idx, buf.data());
    tile::visit_edges(v, [&](graph::vid_t s, graph::vid_t d) {
      if (full_matrix && s >= d) return;
      if (swap_back) out.push_back({d, s});
      else out.push_back({s, d});
    });
  }
  return out;
}

void fsync_file(const std::string& path) {
  io::File f(path, io::OpenMode::kRead);
  f.sync();
}

}  // namespace

void remove_generation_files(const std::string& gen_base) noexcept {
  for (const std::string& p : {tile::TileStore::tiles_path(gen_base),
                               tile::TileStore::sei_path(gen_base),
                               tile::TileStore::deg_path(gen_base)}) {
    try {
      io::File::remove(p);
    } catch (const IoError&) {
      // Best effort: a generation file we cannot unlink only wastes disk;
      // the manifest already points elsewhere.
    }
  }
}

CompactStats compact_store(const std::string& base, CompactOptions opts) {
  const auto t0 = std::chrono::steady_clock::now();
  CompactStats stats;

  // 1. Merge: old generation's edges + WAL edges, original orientation.
  std::vector<graph::Edge> merged;
  tile::TileStoreMeta meta;
  {
    tile::TileStore store = tile::TileStore::open(base);
    meta = store.meta();
    merged = decode_base_edges(store);
  }
  stats.old_generation = meta.generation;
  stats.new_generation = meta.generation + 1;
  stats.base_edges = merged.size();

  const WalReplay wal = EdgeWal::replay(EdgeWal::path_for(base));
  if (wal.exists && wal.generation == meta.generation) {
    stats.wal_edges = wal.edges.size();
    merged.insert(merged.end(), wal.edges.begin(), wal.edges.end());
  }
  stats.merged_edges = merged.size();

  graph::EdgeList el(std::move(merged),
                     static_cast<graph::vid_t>(meta.vertex_count),
                     meta.directed() ? graph::GraphKind::kDirected
                                     : graph::GraphKind::kUndirected);

  // 2. Re-convert into the next generation's file set and make it durable.
  tile::ConvertOptions copts;
  copts.tile_bits = meta.tile_bits;
  copts.group_side = meta.group_side;
  copts.out_edges = !meta.in_edges();
  copts.snb = !meta.fat_tuples();
  copts.symmetry = meta.symmetric();
  // Compaction always re-encodes SNB stores with the current (v3) codec
  // format — folding a WAL is the natural upgrade point for v1/v2 stores.
  copts.compress = copts.snb;
  copts.generation = stats.new_generation;
  const std::string new_base =
      tile::TileStore::generation_base(base, stats.new_generation);
  const tile::ConvertStats cs = tile::convert_to_tiles(el, new_base, copts);
  stats.bytes_written = cs.bytes_written;
  fsync_file(tile::TileStore::tiles_path(new_base));
  fsync_file(tile::TileStore::sei_path(new_base));
  fsync_file(tile::TileStore::deg_path(new_base));
  io::fsync_dir(io::parent_dir(tile::TileStore::tiles_path(new_base)));
  if (opts.crash == CrashPoint::kAfterNewGeneration)
    throw CrashInjected("after writing new generation files");

  // 3. Publish: temp manifest, fsync, atomic rename, parent-dir fsync.
  const std::string manifest = tile::TileStore::current_path(base);
  const std::string manifest_tmp = manifest + ".tmp";
  {
    io::File f(manifest_tmp, io::OpenMode::kWrite);
    const std::string text = std::to_string(stats.new_generation) + "\n";
    f.pwrite_full(text.data(), text.size(), 0);
    f.sync();
  }
  if (opts.crash == CrashPoint::kAfterManifestTemp)
    throw CrashInjected("after writing manifest temp");
  io::atomic_publish(manifest_tmp, manifest);
  if (opts.crash == CrashPoint::kAfterPublish)
    throw CrashInjected("after publishing manifest");

  // 4. The WAL's edges are now in the tiles: reset it under the new
  //    generation so they can never be replayed twice.
  EdgeWal(EdgeWal::path_for(base), stats.new_generation);

  // 5. Old generation files are garbage now; readers holding fds are fine.
  if (opts.remove_old_generation)
    remove_generation_files(
        tile::TileStore::generation_base(base, stats.old_generation));

  stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return stats;
}

}  // namespace gstore::ingest
