// Figure 13 — speedup of the slide-cache-rewind policy over the base policy
// (two big segments, no cache pool, no rewind) for BFS / PageRank / WCC.
// The paper measures >60% for BFS and >35% for PageRank and WCC with 8GB of
// memory on Kron-28-16; here the memory budget is the same fraction of the
// graph (8GB / 16GB = 50%).
#include "algo/bfs.h"
#include "algo/cc.h"
#include "algo/pagerank.h"
#include "bench_common.h"

namespace gstore {
namespace {

template <typename MakeAlgo>
void compare(const char* name, tile::TileStore& store, MakeAlgo&& make,
             bench::Table& t) {
  const std::uint64_t memory = store.data_bytes() / 2;  // paper's 8GB/16GB

  store::EngineConfig base;
  base.stream_memory_bytes = memory;
  base.segment_bytes = memory / 2;  // two big segments, nothing else
  base.policy = store::CachePolicyKind::kNone;
  base.rewind = false;

  store::EngineConfig scr;
  scr.stream_memory_bytes = memory;
  scr.segment_bytes = std::max<std::uint64_t>(memory / 32, 64 << 10);
  scr.policy = store::CachePolicyKind::kProactive;
  scr.rewind = true;

  auto a1 = make();
  Timer tb;
  const auto sb = store::ScrEngine(store, base).run(*a1);
  const double base_secs = tb.seconds();

  auto a2 = make();
  Timer ts;
  const auto ss = store::ScrEngine(store, scr).run(*a2);
  const double scr_secs = ts.seconds();

  t.row({name, bench::fmt(base_secs), bench::fmt(scr_secs),
         bench::fmt(base_secs / scr_secs) + "x",
         bench::fmt_bytes(sb.bytes_read), bench::fmt_bytes(ss.bytes_read)});
}

}  // namespace
}  // namespace gstore

int main() {
  using namespace gstore;
  bench::banner("Fig 13: slide-cache-rewind vs base policy",
                "paper Fig 13 — BFS +60%, PageRank/WCC +35%");

  auto g = bench::make_kron(bench::scale(), bench::edge_factor(),
                            graph::GraphKind::kUndirected);
  io::TempDir dir("fig13");
  auto store = bench::open_store(dir, g.el, bench::default_tile_opts(), bench::one_ssd());

  bench::Table t({"algorithm", "base (s)", "SCR (s)", "speedup", "base I/O",
                  "SCR I/O"});
  compare("BFS", store,
          [] { return std::make_unique<algo::TileBfs>(1); }, t);
  compare("PageRank", store,
          [] {
            return std::make_unique<algo::TilePageRank>(
                algo::PageRankOptions{0.85, 5, 0.0});
          },
          t);
  compare("WCC", store, [] { return std::make_unique<algo::TileWcc>(); }, t);
  t.print();
  return 0;
}
