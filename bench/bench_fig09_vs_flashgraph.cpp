// Figure 9 — G-Store speedup over the FlashGraph-like semi-external CSR
// engine for BFS / PageRank / CC on undirected (-u) and directed (-d)
// graphs. The paper reports ~2x (PageRank), ~1.5x (CC), ~1.4x (BFS
// undirected), and a slight FlashGraph win on directed BFS where G-Store has
// no space advantage.
#include "algo/bfs.h"
#include "algo/cc.h"
#include "algo/pagerank.h"
#include "baseline/flashgraph.h"
#include "bench_common.h"

namespace gstore {
namespace {

constexpr std::uint32_t kPrIters = 5;

struct Workload {
  std::string name;
  graph::GraphKind kind;
  bench::NamedGraph (*make)(unsigned, unsigned, graph::GraphKind);
};

void run_workload(const Workload& w, bench::Table& t) {
  auto g = w.make(bench::scale(), bench::edge_factor(), w.kind);
  g.el.normalize();
  const std::string label =
      g.name + (w.kind == graph::GraphKind::kUndirected ? "-u" : "-d");

  io::TempDir dir("fig9");
  auto store = bench::open_store(dir, g.el, bench::default_tile_opts(), bench::one_ssd());
  tile::convert_to_csr_file(g.el, dir.file("csr"));

  store::EngineConfig cfg = bench::engine_config_fraction(store, 0.25);
  baseline::FlashGraphConfig fcfg;
  fcfg.cache_bytes = cfg.stream_memory_bytes;  // equal memory budgets
  fcfg.device = bench::one_ssd();

  const graph::vid_t root = bench::hub_root(g.el);

  // Each engine's time is the faster of two runs (bench::faster_of_two),
  // each run on a fresh engine, so FlashGraph's page cache starts cold
  // every time, as the SCR cache pool does.
  auto time_gstore = [&](store::TileAlgorithm& algo) {
    return bench::faster_of_two([&] {
      Timer timer;
      store::ScrEngine(store, cfg).run(algo);
      return timer.seconds();
    });
  };
  auto time_flashgraph = [&](auto&& run) {
    return bench::faster_of_two([&] {
      baseline::FlashGraphEngine fg(dir.file("csr"), fcfg);
      Timer timer;
      run(fg);
      return timer.seconds();
    });
  };
  auto add_row = [&](const char* algorithm, double gs, double fgs) {
    t.row({label, algorithm, bench::fmt(gs), bench::fmt(fgs),
           bench::fmt(fgs / gs) + "x"});
  };

  // BFS
  {
    algo::TileBfs bfs(root);
    std::vector<std::int32_t> depth;
    const double gs = time_gstore(bfs);
    add_row("BFS", gs,
            time_flashgraph([&](baseline::FlashGraphEngine& fg) {
              fg.run_bfs(root, depth);
            }));
  }
  // PageRank
  {
    algo::TilePageRank pr(algo::PageRankOptions{0.85, kPrIters, 0.0});
    std::vector<float> rank;
    const double gs = time_gstore(pr);
    add_row("PageRank", gs,
            time_flashgraph([&](baseline::FlashGraphEngine& fg) {
              fg.run_pagerank(kPrIters, 0.85, rank);
            }));
  }
  // CC / WCC
  {
    algo::TileWcc wcc;
    std::vector<graph::vid_t> label_out;
    const double gs = time_gstore(wcc);
    add_row("CC/WCC", gs,
            time_flashgraph([&](baseline::FlashGraphEngine& fg) {
              fg.run_wcc(label_out);
            }));
  }
}

}  // namespace
}  // namespace gstore

int main() {
  using namespace gstore;
  bench::banner("Fig 9: G-Store vs FlashGraph-like engine",
                "paper Fig 9 — ~2x PR, ~1.5x CC, ~1.4x BFS-u; BFS-d about even");

  bench::Table t({"graph", "algorithm", "G-Store (s)", "FlashGraph (s)",
                  "speedup"});
  const Workload workloads[] = {
      {"Kron", graph::GraphKind::kUndirected, bench::make_kron},
      {"Twitter-like", graph::GraphKind::kUndirected, bench::make_twitterish},
      {"Twitter-like", graph::GraphKind::kDirected, bench::make_twitterish},
      {"Friendster-like", graph::GraphKind::kUndirected, bench::make_friendsterish},
  };
  for (const auto& w : workloads) run_workload(w, t);
  t.print();
  return 0;
}
