// Tiered storage (paper §IX future work implemented): run the engine with
// part of the graph on an emulated SSD and the rest on an emulated HDD,
// sweeping the SSD share. Placement matters: putting the *largest* tiles on
// the SSD (where the power-law edge mass lives) beats a naive prefix
// placement at the same SSD capacity.
#include "algo/pagerank.h"
#include "bench_common.h"

namespace gstore {
namespace {

double run_pr(tile::TileStore& store) {
  store::EngineConfig cfg = bench::engine_config_fraction(store, 0.2);
  // No pool, so nothing is cached: isolate raw tier bandwidth.
  cfg.stream_memory_bytes = 2 * cfg.segment_bytes;
  algo::TilePageRank pr(algo::PageRankOptions{0.85, 3, 0.0});
  Timer t;
  store::ScrEngine(store, cfg).run(pr);
  return t.seconds();
}

}  // namespace
}  // namespace gstore

int main() {
  using namespace gstore;
  bench::banner("Extension: tiered storage (SSD + HDD)",
                "paper §IX future work — hot tiles on SSD, bulk on HDD");

  auto g = bench::make_twitterish(bench::scale(), bench::edge_factor(),
                                  graph::GraphKind::kDirected);
  io::TempDir dir("tiered");
  tile::convert_to_tiles(g.el, dir.file("g"), bench::default_tile_opts());

  io::DeviceConfig dev;
  dev.devices = 1;
  dev.per_device_bw = 256ull << 20;  // SSD tier
  dev.slow_tier_bw = 32ull << 20;    // HDD tier (sequential-ish)
  dev.burst_bytes = 64 << 10;

  bench::Table t({"SSD share", "placement", "PR time (s)", "vs all-HDD"});
  double hdd_base = 0;
  for (const double frac : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    for (const tile::TierPolicy policy :
         {tile::TierPolicy::kLargestTiles, tile::TierPolicy::kHotPrefix}) {
      auto store = tile::TileStore::open_tiered(dir.file("g"), dev, frac, policy);
      const double secs = run_pr(store);
      if (hdd_base == 0) hdd_base = secs;
      t.row({bench::fmt(100 * frac, 0) + "%",
             policy == tile::TierPolicy::kLargestTiles ? "largest-tiles"
                                                       : "prefix",
             bench::fmt(secs), bench::fmt(hdd_base / secs) + "x"});
      if (frac == 0.0 || frac == 1.0) break;  // placement irrelevant at ends
    }
  }
  t.print();
  std::printf("\n(largest-tiles placement concentrates the skewed edge mass "
              "on the fast tier,\n so mid-range SSD shares recover most of "
              "the all-SSD performance)\n");
  return 0;
}
