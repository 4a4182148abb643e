// Figure 5 — edge counts and sizes of tiles for the Twitter(-like) graph,
// tile ids sorted by edge count. The paper reports: 40% of tiles empty, 82%
// under 1,000 edges, 0.2% over 100,000 edges, largest tile 36M edges.
// Thresholds scale with graph size; the distribution *shape* (mass
// concentrated in a tiny fraction of tiles) is the reproduction target.
// Also prints the contrast with the scrambled Kron graph (98% of tiles under
// 1,000 edges, small maximum) the paper calls out.
#include <algorithm>

#include "bench_common.h"
#include "tile/grouping.h"

namespace gstore {
namespace {

void distribution_for(const std::string& label, const graph::EdgeList& el,
                      unsigned tile_bits) {
  io::TempDir dir("fig5");
  tile::ConvertOptions copt;
  copt.tile_bits = tile_bits;
  copt.group_side = 16;
  auto store = bench::open_store(dir, el, copt);

  auto counts = tile::tile_edge_counts(store);
  std::sort(counts.begin(), counts.end());
  const double n = static_cast<double>(counts.size());

  const auto frac_below = [&](std::uint64_t bound) {
    return 100.0 *
           (std::lower_bound(counts.begin(), counts.end(), bound) -
            counts.begin()) /
           n;
  };
  const std::uint64_t avg = store.edge_count() / counts.size();

  std::printf("\n%s: %llu tiles over %llu edges (avg %llu edges/tile)\n",
              label.c_str(),
              static_cast<unsigned long long>(counts.size()),
              static_cast<unsigned long long>(store.edge_count()),
              static_cast<unsigned long long>(avg));
  std::printf("  empty tiles:            %5.1f%%   (paper Twitter: 40%%)\n",
              frac_below(1));
  std::printf("  tiles < 16x avg:        %5.1f%%   (paper: 82%% under 1,000)\n",
              frac_below(16 * std::max<std::uint64_t>(avg, 1)));
  std::printf("  tiles > 1600x avg:      %5.2f%%   (paper: 0.2%% over 100,000)\n",
              100.0 - frac_below(1600 * std::max<std::uint64_t>(avg, 1)));
  std::printf("  largest tile:           %llu edges (%s)\n",
              static_cast<unsigned long long>(counts.back()),
              bench::fmt_bytes(counts.back() * store.meta().tuple_bytes()).c_str());

  // The sorted curve the figure plots, sampled at percentiles.
  std::printf("  sorted edge-count curve (percentile: edges):");
  for (const int pct : {10, 25, 50, 75, 90, 99, 100}) {
    const std::size_t idx =
        std::min(counts.size() - 1,
                 static_cast<std::size_t>(pct / 100.0 * counts.size()));
    std::printf(" p%d:%llu", pct,
                static_cast<unsigned long long>(counts[idx]));
  }
  std::printf("\n");
}

}  // namespace
}  // namespace gstore

int main() {
  using namespace gstore;
  bench::banner("Fig 5: tile edge-count distribution",
                "paper Fig 5 — Twitter tile occupancy is extremely skewed");
  const unsigned s = bench::scale();
  // tile_bits sized so the tile grid has hundreds of tiles per side, like
  // the paper's 2^16-wide tiles over 52M+ vertices.
  const unsigned tb = s > 10 ? s - 8 : 2;
  distribution_for("Twitter-like (directed)",
                   bench::make_twitterish(s, bench::edge_factor(),
                                          graph::GraphKind::kDirected)
                       .el,
                   tb);
  distribution_for("Kron (scrambled, undirected)",
                   bench::make_kron(s, bench::edge_factor(),
                                    graph::GraphKind::kUndirected)
                       .el,
                   tb);
  return 0;
}
