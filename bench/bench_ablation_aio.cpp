// I/O-path ablation (paper §V-B: batched Linux AIO instead of "direct and
// synchronous POSIX I/O", overlapped with compute via the two-segment
// slide). Three configurations on the same store and algorithm, each
// reading a segment's coalesced requests through the one per-request
// retry routine:
//   sync          — the kSync backend reads the requests one after another
//                   inside submit(), on the compute thread (the POSIX
//                   baseline)
//   async         — the I/O workers read them concurrently, but compute
//                   waits for each segment
//   async+overlap — the G-Store design: next segment loads while this one
//                   computes
// Also reports the syscall batching the paper highlights: read requests per
// submit call.
#include "algo/bfs.h"
#include "algo/pagerank.h"
#include "bench_common.h"

namespace gstore {
namespace {

struct Mode {
  const char* name;
  io::Backend backend;
  bool overlap;
};

constexpr Mode kModes[] = {
    {"sync POSIX", io::Backend::kSync, false},
    {"async batched", io::Backend::kThreadPool, false},
    {"async + overlap", io::Backend::kThreadPool, true},
};

template <typename RunFn>
void sweep(const char* title, const graph::EdgeList& el, RunFn&& run) {
  bench::Table t({"I/O mode", "time (s)", "speedup", "io-wait (s)",
                  "reqs/submit"});
  double base = 0;
  for (const auto& m : kModes) {
    io::TempDir dir("aio");
    // Overlap matters when storage keeps pace with compute (the paper's
    // 8-SSD array feeding 56 threads): emulate a fast NVMe-class device so
    // the I/O and compute phases are comparable on this machine.
    io::DeviceConfig dev = bench::one_ssd();
    dev.per_device_bw = static_cast<std::uint64_t>(
        env_int("GSTORE_BENCH_FAST_MBPS", 512)) << 20;
    dev.backend = m.backend;
    auto store = bench::open_store(dir, el, bench::default_tile_opts(), dev);
    store::EngineConfig cfg = bench::engine_config_fraction(store, 0.25);
    cfg.overlap_io = m.overlap;
    cfg.policy = store::CachePolicyKind::kNone;  // isolate the I/O path
    cfg.rewind = false;

    Timer timer;
    const store::EngineStats stats = run(store, cfg);
    const double secs = timer.seconds();
    if (base == 0) base = secs;
    const auto dstats = store.device().stats();
    t.row({m.name, bench::fmt(secs), bench::fmt(base / secs) + "x",
           bench::fmt(stats.io_wait_seconds),
           dstats.submit_calls
               ? bench::fmt(double(dstats.read_ops) / dstats.submit_calls, 1)
               : "-"});
  }
  std::printf("\n%s\n", title);
  t.print();
}

}  // namespace
}  // namespace gstore

int main() {
  using namespace gstore;
  bench::banner("Ablation: asynchronous batched I/O and overlap",
                "paper §V-B — AIO batching + I/O/compute pipelining");

  auto g = bench::make_kron(bench::scale(), bench::edge_factor(),
                            graph::GraphKind::kUndirected);

  sweep("PageRank (streaming: contiguous reads, overlap dominates)", g.el,
        [](tile::TileStore& store, const store::EngineConfig& cfg) {
          algo::TilePageRank pr(algo::PageRankOptions{0.85, 5, 0.0});
          return store::ScrEngine(store, cfg).run(pr);
        });
  const graph::vid_t root = bench::hub_root(g.el);
  sweep("BFS (selective: fragmented reads, batching merges them per submit)",
        g.el, [root](tile::TileStore& store, const store::EngineConfig& cfg) {
          algo::TileBfs bfs(root);
          return store::ScrEngine(store, cfg).run(bfs);
        });
  return 0;
}
