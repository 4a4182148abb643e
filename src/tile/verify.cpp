#include "tile/verify.h"

#include <optional>
#include <vector>

#include <numeric>

#include "graph/degree.h"
#include "ingest/wal.h"
#include "io/file.h"
#include "tile/edge_block.h"
#include "tile/tile_file.h"
#include "util/status.h"

namespace gstore::tile {

VerifyReport verify_store(const std::string& base_path,
                          std::size_t max_problems) {
  VerifyReport report;

  std::optional<TileStore> opened;
  try {
    opened.emplace(TileStore::open(base_path));
  } catch (const Error& e) {
    report.fail(std::string("open failed: ") + e.what());
    return report;
  }
  TileStore& store = *opened;

  const Grid& grid = store.grid();
  const graph::vid_t n = store.vertex_count();
  const bool symmetric = store.meta().symmetric();
  std::vector<graph::degree_t> recomputed(n, 0);

  std::vector<std::uint8_t> buf;
  for (std::uint64_t k = 0; k < grid.tile_count(); ++k) {
    if (!report.ok && report.problems.size() >= max_problems) break;
    const std::uint64_t bytes = store.tile_bytes(k);
    ++report.tiles_checked;
    if (bytes == 0) continue;
    buf.resize(bytes);
    store.read_range(k, k + 1, buf.data());
    const TileCoord c = grid.coord_at(k);
    const graph::vid_t src_lo = grid.tile_base(c.i);
    const graph::vid_t dst_lo = grid.tile_base(c.j);
    const std::uint64_t width = grid.tile_width();

    // v3 payload cross-check with the independent decoder: codec byte and
    // width header valid, declared count == .sei count, body decodes to
    // exactly that many edges, every local id inside the tile width. The
    // block path (visit_edges below, through decode_blocks) is then compared
    // edge-for-edge.
    std::vector<SnbEdge> oracle;
    if (store.packed_payloads()) {
      try {
        oracle = decompress_tile(
            std::span<const std::uint8_t>(buf.data(), bytes));
        if (oracle.size() != store.tile_edge_count(k))
          report.fail("tile (" + std::to_string(c.i) + "," +
                      std::to_string(c.j) + "): payload declares " +
                      std::to_string(oracle.size()) +
                      " edges, start-edge index requires " +
                      std::to_string(store.tile_edge_count(k)));
        for (const SnbEdge& e : oracle) {
          if (e.src16 >= width || e.dst16 >= width) {
            report.fail("tile (" + std::to_string(c.i) + "," +
                        std::to_string(c.j) + "): local id (" +
                        std::to_string(e.src16) + "," +
                        std::to_string(e.dst16) +
                        ") outside the tile width " + std::to_string(width));
            break;
          }
        }
        ++report.payloads_checked;
      } catch (const Error& e) {
        report.fail("tile (" + std::to_string(c.i) + "," + std::to_string(c.j) +
                    "): payload rejected: " + e.what());
        continue;
      }
      if (!report.ok && report.problems.size() >= max_problems) break;
    }

    TileView view;
    try {
      view = store.view(k, buf.data());
    } catch (const Error& e) {
      report.fail("tile (" + std::to_string(c.i) + "," + std::to_string(c.j) +
                  "): view rejected: " + e.what());
      continue;
    }

    std::size_t at = 0;
    try {
    visit_edges(view, [&](graph::vid_t a, graph::vid_t b) {
      ++report.edges_checked;
      if (report.problems.size() >= max_problems) return;
      if (a < src_lo || a >= src_lo + width || b < dst_lo ||
          b >= dst_lo + width)
        report.fail("tile (" + std::to_string(c.i) + "," + std::to_string(c.j) +
                    "): edge (" + std::to_string(a) + "," + std::to_string(b) +
                    ") outside tile vertex ranges");
      if (a >= n || b >= n)
        report.fail("edge endpoint beyond vertex count: (" +
                    std::to_string(a) + "," + std::to_string(b) + ")");
      if (symmetric && a > b)
        report.fail("lower-triangle tuple in symmetric store: (" +
                    std::to_string(a) + "," + std::to_string(b) + ")");
      if (!oracle.empty() && at < oracle.size() &&
          (a != src_lo + oracle[at].src16 || b != dst_lo + oracle[at].dst16))
        report.fail("tile (" + std::to_string(c.i) + "," + std::to_string(c.j) +
                    "): streaming decoder disagrees with the payload oracle "
                    "at edge " + std::to_string(at));
      ++at;
      if (a < n && b < n) {
        ++recomputed[a];
        if (symmetric && a != b) ++recomputed[b];
      }
    });
    } catch (const Error& e) {
      report.fail("tile (" + std::to_string(c.i) + "," + std::to_string(c.j) +
                  "): streaming decode failed: " + e.what());
    }
  }

  // Counting symmetry: every stored tuple bumps the recomputed degrees a
  // fixed number of times (twice in upper-triangle stores — each tuple is
  // both directions — once everywhere else), so their sum must reproduce the
  // header's edge count exactly. A diagonal tuple in a symmetric store, a
  // lost tuple, or a header miscount all break this identity.
  if (report.ok) {
    const std::uint64_t sum = std::accumulate(
        recomputed.begin(), recomputed.end(), std::uint64_t{0},
        [](std::uint64_t acc, graph::degree_t d) { return acc + d; });
    const std::uint64_t expect =
        symmetric ? 2 * store.edge_count() : store.edge_count();
    if (sum != expect)
      report.fail("counting symmetry broken: tuple-derived degree sum is " +
                  std::to_string(sum) + ", header edge count requires " +
                  std::to_string(expect));
  }

  // Degree cross-check (optional file). The .deg file records edge-list
  // degrees. Neither it nor the tiles count self loops today, but stores
  // written before EdgeList::degrees skipped them counted them in .deg, so
  // tile-derived degrees are checked as a lower bound. In-edge stores record
  // out-degrees while the tiles yield in-degrees — no comparison is possible
  // there.
  const std::string live_base = TileStore::resolve(base_path);
  if (report.ok && io::File::exists(TileStore::deg_path(live_base))) {
    const std::uint64_t deg_bytes =
        io::File::file_size(TileStore::deg_path(live_base));
    if (deg_bytes != n * sizeof(graph::degree_t)) {
      report.fail("degree file holds " + std::to_string(deg_bytes) +
                  " bytes; " + std::to_string(n) + " vertices require " +
                  std::to_string(n * sizeof(graph::degree_t)));
    } else {
      const bool comparable =
          symmetric || (store.meta().directed() && !store.meta().in_edges());
      if (comparable) {
        const graph::CompressedDegrees deg = store.load_degrees();
        for (graph::vid_t v = 0; v < n; ++v) {
          if (deg[v] < recomputed[v]) {
            report.fail("degree mismatch at vertex " + std::to_string(v) +
                        ": file says " + std::to_string(deg[v]) +
                        ", tiles require at least " +
                        std::to_string(recomputed[v]));
            if (report.problems.size() >= max_problems) break;
          }
        }
      }
    }
  }

  // WAL cross-check (optional file, lives at the *logical* base — it spans
  // generations). Torn tails are a legal crash artifact, but a fully present
  // frame failing its CRC is corruption, as is a replayed edge outside the
  // store's vertex range.
  const std::string wal_path = ingest::EdgeWal::path_for(base_path);
  if (io::File::exists(wal_path)) {
    try {
      const ingest::WalReplay wal = ingest::EdgeWal::replay(wal_path);
      report.wal_frames_checked = wal.frames;
      report.wal_edges_checked = wal.edges.size();
      if (wal.tail == ingest::WalTail::kCorrupt)
        report.fail("WAL " + wal_path + " holds a corrupt frame after " +
                    std::to_string(wal.frames) + " intact frames");
      if (wal.exists && wal.generation == store.meta().generation) {
        for (const graph::Edge& e : wal.edges) {
          if (e.src >= n || e.dst >= n) {
            report.fail("WAL edge (" + std::to_string(e.src) + "," +
                        std::to_string(e.dst) + ") outside vertex range");
            break;
          }
        }
      }
    } catch (const Error& e) {
      report.fail(std::string("WAL replay failed: ") + e.what());
    }
  }
  return report;
}

}  // namespace gstore::tile
