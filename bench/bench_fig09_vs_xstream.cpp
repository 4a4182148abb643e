// §VII-B text numbers — G-Store speedup over the X-Stream-like fully
// external engine: the paper reports 17x/21x/32x (BFS/PR/CC) on Kron-28-16
// and 12x/9x/17x on Twitter. The X-Stream architecture pays for (1) 2-4x
// bigger edge tuples, (2) streaming the full edge list every iteration with
// no selective fetch, and (3) writing+re-reading an update file.
#include "algo/bfs.h"
#include "algo/cc.h"
#include "algo/pagerank.h"
#include "baseline/xstream.h"
#include "bench_common.h"

namespace gstore {
namespace {

constexpr std::uint32_t kPrIters = 5;

void run_graph(const bench::NamedGraph& named, bench::Table& t) {
  const auto& el = named.el;
  io::TempDir dir("fig9xs");
  auto store = bench::open_store(dir, el, bench::default_tile_opts(), bench::one_ssd());
  store::EngineConfig cfg = bench::engine_config_fraction(store, 0.25);

  const std::size_t tuple = 8;
  const std::uint64_t xbytes =
      baseline::write_xstream_edges(dir.file("xs"), el, tuple);
  baseline::XStreamConfig xcfg;
  xcfg.tuple_bytes = tuple;
  xcfg.device = bench::one_ssd();
  xcfg.partitions = 4;

  const graph::vid_t root = bench::hub_root(el);

  auto xs_engine = [&] {
    return baseline::XStreamEngine(dir.file("xs"), dir.path(),
                                   el.vertex_count(), xbytes / tuple, xcfg);
  };

  // Each engine's time is the faster of two runs (bench::faster_of_two),
  // each run on a fresh engine.
  auto time_gstore = [&](store::TileAlgorithm& algo) {
    return bench::faster_of_two([&] {
      Timer timer;
      store::ScrEngine(store, cfg).run(algo);
      return timer.seconds();
    });
  };
  auto time_xstream = [&](auto&& run) {
    return bench::faster_of_two([&] {
      auto xs = xs_engine();
      Timer timer;
      run(xs);
      return timer.seconds();
    });
  };
  auto add_row = [&](const char* algorithm, double gs, double xs) {
    t.row({named.name, algorithm, bench::fmt(gs), bench::fmt(xs),
           bench::fmt(xs / gs, 1) + "x"});
  };

  {
    algo::TileBfs bfs(root);
    std::vector<std::int32_t> depth;
    const double gs = time_gstore(bfs);
    add_row("BFS", gs,
            time_xstream([&](baseline::XStreamEngine& xs) {
              xs.run_bfs(root, depth);
            }));
  }
  {
    algo::TilePageRank pr(algo::PageRankOptions{0.85, kPrIters, 0.0});
    std::vector<float> rank;
    const double gs = time_gstore(pr);
    add_row("PageRank", gs,
            time_xstream([&](baseline::XStreamEngine& xs) {
              xs.run_pagerank(kPrIters, 0.85, el.degrees(), rank);
            }));
  }
  {
    algo::TileWcc wcc;
    std::vector<graph::vid_t> label;
    const double gs = time_gstore(wcc);
    add_row("CC", gs,
            time_xstream([&](baseline::XStreamEngine& xs) {
              xs.run_wcc(label);
            }));
  }
}

}  // namespace
}  // namespace gstore

int main() {
  using namespace gstore;
  bench::banner("§VII-B: G-Store vs X-Stream-like engine",
                "paper text — 17-32x on Kron, 9-17x on Twitter");

  bench::Table t({"graph", "algorithm", "G-Store (s)", "X-Stream (s)",
                  "speedup"});
  auto kron = bench::make_kron(bench::scale(), bench::edge_factor(),
                               graph::GraphKind::kUndirected);
  kron.el.normalize();
  run_graph(kron, t);
  auto tw = bench::make_twitterish(bench::scale(), bench::edge_factor(),
                                   graph::GraphKind::kUndirected);
  tw.el.normalize();
  tw.name = "Twitter-like";
  run_graph(tw, t);
  t.print();
  return 0;
}
