#include "tile/convert.h"

#include <algorithm>
#include <numeric>

#include "graph/csr.h"
#include "io/file.h"
#include "tile/grid.h"
#include "tile/snb.h"
#include "tile/tile_file.h"
#include "util/status.h"
#include "util/timer.h"

namespace gstore::tile {

namespace {
struct TilesFileHeader {
  std::uint64_t magic = kTileFileMagic;
  std::uint32_t version = kTileStoreVersionCurrent;
  std::uint32_t pad = 0;
  std::uint64_t edge_count = 0;
  std::uint64_t reserved[5] = {0, 0, 0, 0, 0};
};
static_assert(sizeof(TilesFileHeader) == 64);
}  // namespace

ConvertStats convert_to_tiles(const graph::EdgeList& el, const std::string& base_path,
                              ConvertOptions options) {
  GS_CHECK_MSG(el.vertex_count() > 0, "cannot convert empty graph");
  Timer total;
  ConvertStats stats;

  const bool undirected = el.kind() == graph::GraphKind::kUndirected;
  const bool symmetric = undirected && options.symmetry;
  const Grid grid(el.vertex_count(), symmetric, options.tile_bits,
                  options.group_side);

  // Enumerates the tuples that will be stored, already oriented for their
  // tile: upper-triangle canonical (symmetric), both orientations (full
  // matrix), or the chosen direction (directed).
  auto for_each_stored = [&](auto&& fn) {
    for (graph::Edge e : el.edges()) {
      if (e.src == e.dst) continue;
      if (undirected) {
        if (options.symmetry) {
          if (e.src > e.dst) std::swap(e.src, e.dst);
          fn(e);
        } else {
          fn(e);
          fn(graph::Edge{e.dst, e.src});
        }
      } else {
        if (!options.out_edges) std::swap(e.src, e.dst);
        fn(e);
      }
    }
  };

  // ---- Pass 1: per-tile edge counts → start-edge array (like beg-pos). ----
  Timer t1;
  std::vector<std::uint64_t> start(grid.tile_count() + 1, 0);
  for_each_stored([&](graph::Edge e) {
    const TileCoord c = grid.tile_of(e.src, e.dst);
    ++start[grid.layout_index(c.i, c.j) + 1];
  });
  std::partial_sum(start.begin(), start.end(), start.begin());
  stats.stored_edges = start.back();
  stats.tile_count = grid.tile_count();
  stats.pass1_seconds = t1.seconds();

  // ---- Pass 2: scatter tuples to their layout slots and write. ----
  Timer t2;
  std::vector<SnbEdge> snb_data;
  std::vector<graph::Edge> fat_data;
  {
    std::vector<std::uint64_t> cursor(start.begin(), start.end() - 1);
    if (options.snb) {
      snb_data.resize(stats.stored_edges);
      for_each_stored([&](graph::Edge e) {
        const TileCoord c = grid.tile_of(e.src, e.dst);
        const std::uint64_t k = grid.layout_index(c.i, c.j);
        snb_data[cursor[k]++] = snb_encode(e.src, e.dst, grid.tile_base(c.i),
                                           grid.tile_base(c.j));
      });
    } else {
      fat_data.resize(stats.stored_edges);
      for_each_stored([&](graph::Edge e) {
        const TileCoord c = grid.tile_of(e.src, e.dst);
        fat_data[cursor[grid.layout_index(c.i, c.j)]++] = e;
      });
    }
  }

  // v3 (per-tile codecs) only exists for the SNB format; the fat-tuple
  // ablation and the compress=false baseline keep writing the v2 layout
  // bit-identically to older gstores.
  const bool v3 = options.snb && options.compress;
  const std::uint32_t version = v3 ? 3 : 2;
  std::vector<std::uint64_t> start_byte;
  const std::size_t tuple_bytes = options.snb ? sizeof(SnbEdge) : sizeof(graph::Edge);
  {
    io::File tiles(TileStore::tiles_path(base_path), io::OpenMode::kWrite);
    TilesFileHeader th;
    th.version = version;
    th.edge_count = stats.stored_edges;
    tiles.append(&th, sizeof(th));
    if (v3) {
      // Sort each tile slice (order inside a tile is not semantic, sorted
      // rows are what the run/delta codecs exploit), encode it with the
      // smallest codec, and record the payload byte offsets.
      start_byte.assign(grid.tile_count() + 1, 0);
      std::vector<std::uint8_t> buf;
      for (std::uint64_t k = 0; k < grid.tile_count(); ++k) {
        const std::uint64_t lo = start[k], hi = start[k + 1];
        start_byte[k] = stats.payload_bytes;
        if (lo == hi) continue;
        std::sort(snb_data.begin() + lo, snb_data.begin() + hi);
        const std::vector<std::uint8_t> payload = compress_tile(
            std::span<const SnbEdge>(snb_data.data() + lo, hi - lo));
        ++stats.codec_tiles[payload[0]];
        stats.payload_bytes += payload.size();
        buf.insert(buf.end(), payload.begin(), payload.end());
        if (buf.size() >= (4u << 20)) {
          tiles.append(buf.data(), buf.size());
          buf.clear();
        }
      }
      start_byte.back() = stats.payload_bytes;
      if (!buf.empty()) tiles.append(buf.data(), buf.size());
      stats.bytes_written += sizeof(th) + stats.payload_bytes;
    } else {
      if (options.snb) {
        if (!snb_data.empty())
          tiles.append(snb_data.data(), snb_data.size() * sizeof(SnbEdge));
      } else if (!fat_data.empty()) {
        tiles.append(fat_data.data(), fat_data.size() * sizeof(graph::Edge));
      }
      stats.bytes_written += sizeof(th) + stats.stored_edges * tuple_bytes;
    }
    tiles.sync();
  }
  {
    io::File sei(TileStore::sei_path(base_path), io::OpenMode::kWrite);
    TileStoreMeta meta;
    meta.version = version;
    const bool directed = el.kind() == graph::GraphKind::kDirected;
    meta.flags = (symmetric ? 1u : 0u) | (directed ? 2u : 0u) |
                 (directed && !options.out_edges ? 4u : 0u) |
                 (options.snb ? 0u : 8u);
    meta.vertex_count = el.vertex_count();
    meta.edge_count = stats.stored_edges;
    meta.tile_bits = options.tile_bits;
    meta.group_side = grid.group_side();
    meta.tile_count = grid.tile_count();
    meta.generation = options.generation;
    sei.append(&meta, sizeof(meta));
    sei.append(start.data(), start.size() * sizeof(std::uint64_t));
    if (v3)
      sei.append(start_byte.data(), start_byte.size() * sizeof(std::uint64_t));
    sei.sync();
    stats.bytes_written += sizeof(meta) +
                           (v3 ? 2 : 1) * start.size() * sizeof(std::uint64_t);
  }
  {
    const std::vector<graph::degree_t> deg = el.degrees();
    io::File f(TileStore::deg_path(base_path), io::OpenMode::kWrite);
    if (!deg.empty()) f.append(deg.data(), deg.size() * sizeof(graph::degree_t));
    f.sync();
  }
  stats.pass2_seconds = t2.seconds();
  stats.total_seconds = total.seconds();
  return stats;
}

CsrFileStats convert_to_csr_file(const graph::EdgeList& el,
                                 const std::string& base_path) {
  Timer total;
  CsrFileStats stats;
  const graph::Csr csr = graph::Csr::build(el);
  {
    io::File beg(base_path + ".beg", io::OpenMode::kWrite);
    beg.append(csr.beg_pos().data(),
               csr.beg_pos().size() * sizeof(std::uint64_t));
    beg.sync();
    stats.bytes_written += csr.beg_pos().size() * sizeof(std::uint64_t);
  }
  {
    io::File adj(base_path + ".adj", io::OpenMode::kWrite);
    if (!csr.adj_list().empty())
      adj.append(csr.adj_list().data(),
                 csr.adj_list().size() * sizeof(graph::vid_t));
    adj.sync();
    stats.bytes_written += csr.adj_list().size() * sizeof(graph::vid_t);
  }
  stats.total_seconds = total.seconds();
  return stats;
}

}  // namespace gstore::tile
