// Figure 2 — the three motivating observations.
//  (a) PageRank speedup when the streamed edge tuple shrinks 16B → 8B
//      (X-Stream-like engine; the paper measures ~2×).
//  (b) In-memory PageRank vs number of 2D partitions (metadata access
//      localization; the paper peaks around 128–256 partitions).
//  (c) PageRank vs streaming memory size (flat: more streaming memory alone
//      does not help a disk-bound run).
#include <numeric>

#include "algo/pagerank.h"
#include "baseline/xstream.h"
#include "bench_common.h"
#include "graph/csr.h"

namespace gstore {
namespace {

using bench::Table;
using bench::fmt;

void part_a() {
  bench::banner("Fig 2(a): PageRank vs edge-tuple size (X-Stream-like engine)",
                "paper Fig 2(a) — halving tuple size ≈ doubles performance");
  auto g = bench::make_kron(bench::scale(), bench::edge_factor(),
                            graph::GraphKind::kUndirected);
  const auto deg = g.el.degrees();

  Table t({"tuple size", "PR time (s)", "edge bytes read", "speedup vs 16B"});
  double t16 = 0;
  for (const std::size_t tuple : {std::size_t{16}, std::size_t{8}}) {
    io::TempDir dir("fig2a");
    const std::uint64_t bytes =
        baseline::write_xstream_edges(dir.file("e"), g.el, tuple);
    baseline::XStreamConfig cfg;
    cfg.tuple_bytes = tuple;
    cfg.device = bench::one_ssd();
    baseline::XStreamEngine eng(dir.file("e"), dir.path(), g.el.vertex_count(),
                                bytes / tuple, cfg);
    std::vector<float> rank;
    Timer timer;
    const auto stats = eng.run_pagerank(3, 0.85, deg, rank);
    const double secs = timer.seconds();
    if (tuple == 16) t16 = secs;
    t.row({std::to_string(tuple) + "B", fmt(secs), bench::fmt_bytes(stats.edge_bytes_read),
           fmt(t16 / secs) + "x"});
  }
  t.print();
}

void part_b() {
  bench::banner("Fig 2(b): in-memory PageRank vs partition count",
                "paper Fig 2(b) — localization peaks around 128-256 partitions");
  // 2D-partitioned in-memory PageRank: edges bucketed into k x k partitions;
  // processing partition-by-partition localizes rank-array accesses.
  auto g = bench::make_kron(bench::scale(), bench::edge_factor(),
                            graph::GraphKind::kUndirected);
  const graph::vid_t n = g.el.vertex_count();
  const auto deg = g.el.degrees();

  Table t({"partitions (k x k)", "PR iter time (s)", "speedup vs k=1"});
  double t1 = 0;
  for (const unsigned k : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    // Bucket edges by (src_part, dst_part), partitions in row-major order.
    const graph::vid_t span = (n + k - 1) / k;
    std::vector<std::vector<graph::Edge>> parts(std::size_t{k} * k);
    for (const graph::Edge& e : g.el.edges()) {
      if (e.src == e.dst) continue;
      parts[std::size_t{e.src / span} * k + e.dst / span].push_back(e);
    }
    std::vector<float> rank(n, 1.0f / n), incoming(n, 0.0f), contrib(n);
    Timer timer;
    for (int iter = 0; iter < 3; ++iter) {
      for (graph::vid_t v = 0; v < n; ++v)
        contrib[v] = deg[v] ? rank[v] / deg[v] : 0.0f;
      std::fill(incoming.begin(), incoming.end(), 0.0f);
      for (const auto& part : parts)
        for (const graph::Edge& e : part) {
          incoming[e.dst] += contrib[e.src];
          incoming[e.src] += contrib[e.dst];
        }
      for (graph::vid_t v = 0; v < n; ++v)
        rank[v] = 0.15f / n + 0.85f * incoming[v];
    }
    const double secs = timer.seconds() / 3;
    if (k == 1) t1 = secs;
    t.row({std::to_string(k) + "x" + std::to_string(k), fmt(secs, 4),
           fmt(t1 / secs) + "x"});
  }
  t.print();
}

void part_c() {
  bench::banner("Fig 2(c): PageRank vs streaming memory size",
                "paper Fig 2(c) — streaming memory alone has little effect");
  io::TempDir dir("fig2c");
  auto g = bench::make_kron(bench::scale(), bench::edge_factor(),
                            graph::GraphKind::kUndirected);
  auto store = bench::open_store(dir, g.el, bench::default_tile_opts(), bench::one_ssd());

  Table t({"stream memory", "PR time (s)", "relative"});
  double base = 0;
  for (const std::uint64_t mem_mb : {2u, 4u, 8u, 16u, 32u}) {
    store::EngineConfig cfg;
    cfg.stream_memory_bytes = mem_mb << 20;
    cfg.segment_bytes = cfg.stream_memory_bytes / 2;  // no pool: streaming
    algo::TilePageRank pr(algo::PageRankOptions{0.85, 3, 0.0});
    Timer timer;
    store::ScrEngine(store, cfg).run(pr);
    const double secs = timer.seconds();
    if (base == 0) base = secs;
    t.row({std::to_string(mem_mb) + "MB", fmt(secs), fmt(secs / base) + "x"});
  }
  t.print();
}

}  // namespace
}  // namespace gstore

int main() {
  gstore::part_a();
  gstore::part_b();
  gstore::part_c();
  return 0;
}
