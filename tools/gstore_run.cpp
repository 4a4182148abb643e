// gstore_run — run a graph algorithm on a converted tile store.
//
//   gstore_run --store=/data/kron20 --algo=bfs --root=1
//   gstore_run --store=/data/kron20 --algo=pagerank --iterations=20
//   gstore_run --store=/data/kron20 --algo=wcc --memory-mb=256
//   gstore_run --store=/data/kron20 --algo=kcore --k=8
//   gstore_run --store=/data/kron20 --algo=sssp --schedule=priority
//   gstore_run --store=/data/kron20 --algo=sssp --follow-wal --incremental
//
// Prints run statistics (iterations, bytes read, cache hits, timings) and an
// algorithm-specific summary. --schedule=priority drives the priority
// scheduler (docs/SCHEDULING.md); --incremental runs cold without the
// overlay first, then resumes over only the WAL delta's tiles.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_set>

#include "algo/bfs.h"
#include "ingest/delta.h"
#include "ingest/wal.h"
#include "algo/bfs_async.h"
#include "algo/cc.h"
#include "algo/kcore.h"
#include "algo/pagerank.h"
#include "algo/pagerank_delta.h"
#include "algo/scc.h"
#include "algo/sssp.h"
#include "io/fault.h"
#include "store/scr_engine.h"
#include "tile/tile_file.h"
#include "util/crc32.h"
#include "util/options.h"
#include "util/status.h"
#include "util/timer.h"

namespace {

bool g_trace = false;

void print_stats(const gstore::store::EngineStats& s, double secs) {
  // Priority rounds record their bucket; grid sweeps record kNoBucket.
  using gstore::store::IterationStats;
  const bool priority = !s.per_iteration.empty() &&
                        s.per_iteration[0].bucket != IterationStats::kNoBucket;
  if (g_trace) {
    if (priority)
      std::printf(
          "round bucket  disk-tiles  cache-tiles  fetched-kb  edges        "
          "sec\n");
    else
      std::printf("iter  disk-tiles  cache-tiles  skipped  edges        sec\n");
    for (std::size_t k = 0; k < s.per_iteration.size(); ++k) {
      const auto& it = s.per_iteration[k];
      if (priority)
        std::printf("%-5zu %-7u %-11llu %-12llu %-11llu %-12llu %.4f\n", k,
                    it.bucket,
                    static_cast<unsigned long long>(it.tiles_from_disk),
                    static_cast<unsigned long long>(it.tiles_from_cache),
                    static_cast<unsigned long long>(it.bytes_fetched >> 10),
                    static_cast<unsigned long long>(it.edges_processed),
                    it.seconds);
      else
        std::printf("%-5zu %-11llu %-12llu %-8llu %-12llu %.4f\n", k,
                    static_cast<unsigned long long>(it.tiles_from_disk),
                    static_cast<unsigned long long>(it.tiles_from_cache),
                    static_cast<unsigned long long>(it.tiles_skipped),
                    static_cast<unsigned long long>(it.edges_processed),
                    it.seconds);
    }
  }
  if (priority)
    std::printf(
        "run: %.3fs | %u rounds (max bucket %u) | %.1f MiB read in %llu "
        "batches | %llu tiles from disk, %llu from cache\n",
        secs, s.iterations, s.max_bucket,
        s.bytes_read / double(1 << 20),
        static_cast<unsigned long long>(s.io_batches),
        static_cast<unsigned long long>(s.tiles_from_disk),
        static_cast<unsigned long long>(s.tiles_from_cache));
  else
    std::printf(
        "run: %.3fs | %u iterations | %.1f MiB read in %llu batches | "
        "%llu tiles from disk, %llu from cache, %llu skipped\n",
        secs, s.iterations, s.bytes_read / double(1 << 20),
        static_cast<unsigned long long>(s.io_batches),
        static_cast<unsigned long long>(s.tiles_from_disk),
        static_cast<unsigned long long>(s.tiles_from_cache),
        static_cast<unsigned long long>(s.tiles_skipped));
  std::printf("     io-wait %.3fs | compute %.3fs | %llu edges processed\n",
              s.io_wait_seconds, s.compute_seconds,
              static_cast<unsigned long long>(s.edges_processed));
  if (s.wasted_fetch_bytes)
    std::printf("     wasted fetches: %.1f MiB read in rounds with zero "
                "updates\n",
                s.wasted_fetch_bytes / double(1 << 20));
  if (s.retries || s.short_reads || s.failed_reads || s.tile_resubmits)
    std::printf("     recovery: %llu retries, %llu short reads, %llu failed "
                "reads, %llu tile resubmits, %.3fs backoff\n",
                static_cast<unsigned long long>(s.retries),
                static_cast<unsigned long long>(s.short_reads),
                static_cast<unsigned long long>(s.failed_reads),
                static_cast<unsigned long long>(s.tile_resubmits),
                s.backoff_seconds);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gstore;
  Options opts;
  opts.add("store", "", "tile-store base path (from gstore_convert)");
  opts.add("algo", "bfs",
           "bfs | bfs-async | pagerank | pagerank-delta | wcc | sssp | kcore | "
           "scc");
  opts.add("in-store", "",
           "scc: base path of the matching in-edge store (convert with "
           "--in-edges)");
  opts.add("root", "0", "root vertex for bfs/sssp");
  opts.add("iterations", "20", "pagerank iteration cap");
  opts.add("tolerance", "1e-6", "pagerank convergence tolerance (0 = fixed)");
  opts.add("k", "4", "k for kcore");
  opts.add("memory-mb", "64",
           "streaming+caching memory (MiB); 2 x segment-mb caches nothing");
  opts.add("segment-mb", "8", "segment size (MiB)");
  opts.add("policy", "proactive", "caching policy: proactive | lru");
  opts.add("devices", "0", "emulate N SSDs (0 = native speed)");
  opts.add("stripe", "0", "read .tiles from a striped set of N members");
  opts.add("fault-spec", "",
           "inject I/O faults, e.g. seed=7,eio=0.01,short=0.05,"
           "eintr=0.1,latency=0.01:5,torn-tail=64 (see io/fault.h)");
  opts.add_flag("follow-wal",
                "overlay un-compacted edges from <store>.wal onto the run");
  opts.add("schedule", "grid",
           "tile schedule: grid (row-order slide) | priority (bucketed "
           "rounds, highest-priority tiles first)");
  opts.add_flag("incremental",
                "with --follow-wal: run cold without the overlay, then attach "
                "it and resume over only the delta's tiles (bfs/sssp/"
                "pagerank-delta/wcc)");
  opts.add_flag("trace", "print per-iteration engine statistics");

  try {
    opts.parse(argc, argv);
    if (opts.help_requested() || opts.get("store").empty()) {
      std::fputs(opts.usage("gstore_run").c_str(), stdout);
      return opts.help_requested() ? 0 : 2;
    }

    io::DeviceConfig dev;
    dev.devices = static_cast<unsigned>(opts.get_int("devices"));
    dev.stripe_files = static_cast<unsigned>(opts.get_int("stripe"));
    dev.fault_spec = opts.get("fault-spec");
    if (!dev.fault_spec.empty())
      std::printf("fault injection: %s\n",
                  io::FaultSpec::parse(dev.fault_spec).to_string().c_str());
    auto store = tile::TileStore::open(opts.get("store"), dev);

    // --follow-wal: replay un-compacted edges into a read-only overlay so
    // the run observes them without waiting for a compaction. With
    // --incremental the attach is deferred: the cold run sees the base store
    // only, then resume() re-activates just the delta's tiles.
    const bool incremental =
        opts.get_bool("incremental") && opts.get_bool("follow-wal");
    std::unique_ptr<ingest::DeltaBuffer> overlay;
    if (opts.get_bool("follow-wal")) {
      const auto wal =
          ingest::EdgeWal::replay(ingest::EdgeWal::path_for(opts.get("store")));
      overlay = std::make_unique<ingest::DeltaBuffer>(
          store.grid(), store.meta(), ~std::uint64_t{0});
      if (wal.exists && wal.generation == store.meta().generation)
        overlay->add_batch(wal.edges);
      if (!incremental) store.attach_overlay(overlay.get());
      std::printf("wal: generation %u, %llu edges %s\n", wal.generation,
                  static_cast<unsigned long long>(overlay->ingested_edges()),
                  incremental ? "pending (incremental resume)" : "overlaid");
    }

    std::printf("store: %u vertices, %llu stored edges, %llu tiles, "
                "generation %u, %s%s%s\n",
                store.vertex_count(),
                static_cast<unsigned long long>(store.edge_count()),
                static_cast<unsigned long long>(store.grid().tile_count()),
                store.meta().generation,
                store.meta().symmetric() ? "symmetric" : "full",
                store.meta().directed() ? ", directed" : ", undirected",
                store.meta().fat_tuples() ? ", 8B tuples" : ", SNB");

    store::EngineConfig cfg;
    cfg.stream_memory_bytes =
        static_cast<std::uint64_t>(opts.get_int("memory-mb")) << 20;
    cfg.segment_bytes =
        static_cast<std::uint64_t>(opts.get_int("segment-mb")) << 20;
    const std::string policy = opts.get("policy");
    if (policy == "lru")
      cfg.policy = store::CachePolicyKind::kLru;
    else if (policy != "proactive")
      throw InvalidArgument("unknown policy: " + policy);
    const std::string schedule = opts.get("schedule");
    if (schedule == "priority")
      cfg.schedule = store::ScheduleMode::kPriority;
    else if (schedule != "grid")
      throw InvalidArgument("unknown schedule: " + schedule);

    g_trace = opts.get_bool("trace");
    store::ScrEngine engine(store, cfg);
    const std::string algo = opts.get("algo");
    const auto root = static_cast<graph::vid_t>(opts.get_int("root"));

    // --incremental epilogue: attach the deferred overlay and re-run over
    // only the tiles the WAL delta touched. Algorithms that cannot resume
    // from prior state (see docs/SCHEDULING.md) fall back to a cold rerun
    // inside resume().
    auto resume_delta = [&](store::TileAlgorithm& a) {
      if (!incremental || !overlay) return;
      store.attach_overlay(overlay.get());
      const auto delta = overlay->nonempty_tiles();
      std::printf("incremental: resuming over %zu delta tiles\n", delta.size());
      Timer rt;
      const auto rs = engine.resume(a, delta);
      print_stats(rs, rt.seconds());
    };
    Timer t;

    if (algo == "bfs") {
      algo::TileBfs bfs(root);
      const auto s = engine.run(bfs);
      print_stats(s, t.seconds());
      resume_delta(bfs);
      std::printf("bfs: visited %llu vertices, max depth %d\n",
                  static_cast<unsigned long long>(bfs.visited_count()),
                  bfs.max_depth());
    } else if (algo == "bfs-async") {
      algo::TileBfsAsync bfs(root);
      const auto s = engine.run(bfs);
      print_stats(s, t.seconds());
      // The pass count is the run: line's iteration count, which can depend
      // on thread timing; the depths cannot.
      const auto d = bfs.depths();
      std::printf("bfs-async: reached %lld vertices, max depth %d\n",
                  static_cast<long long>(std::count_if(
                      d.begin(), d.end(), [](int x) { return x >= 0; })),
                  *std::max_element(d.begin(), d.end()));
    } else if (algo == "pagerank") {
      algo::PageRankOptions popt;
      popt.max_iterations = static_cast<std::uint32_t>(opts.get_int("iterations"));
      popt.tolerance = opts.get_double("tolerance");
      algo::TilePageRank pr(popt);
      const auto s = engine.run(pr);
      print_stats(s, t.seconds());
      const auto& ranks = pr.ranks();
      const auto it = std::max_element(ranks.begin(), ranks.end());
      // The ranks are bit-identical on every path, so their CRC-32 is a
      // fingerprint two runs can compare.
      std::printf("pagerank: %u iterations, final delta %.2e, top vertex %lld "
                  "(rank %.3e), crc32 %08x\n",
                  pr.iterations_run(), pr.last_delta(),
                  static_cast<long long>(it - ranks.begin()), *it,
                  crc32(ranks.data(), ranks.size() * sizeof(float)));
    } else if (algo == "pagerank-delta") {
      algo::PageRankDeltaOptions popt;
      popt.tolerance = opts.get_double("tolerance");
      algo::TilePageRankDelta pr(popt);
      const auto s = engine.run(pr);
      print_stats(s, t.seconds());
      resume_delta(pr);
      const auto ranks = pr.ranks();
      const auto it = std::max_element(ranks.begin(), ranks.end());
      std::printf("pagerank-delta: %u rounds, residual mass %.2e, top vertex "
                  "%lld (rank %.3e)\n",
                  pr.rounds_run(), pr.residual_mass(),
                  static_cast<long long>(it - ranks.begin()), *it);
    } else if (algo == "wcc") {
      algo::TileWcc wcc;
      const auto s = engine.run(wcc);
      print_stats(s, t.seconds());
      resume_delta(wcc);
      std::printf("wcc: %llu components\n",
                  static_cast<unsigned long long>(wcc.component_count()));
    } else if (algo == "sssp") {
      algo::TileSssp sssp(root);
      const auto s = engine.run(sssp);
      print_stats(s, t.seconds());
      resume_delta(sssp);
      std::uint64_t reached = 0;
      for (float d : sssp.distances())
        if (d != algo::TileSssp::kInf) ++reached;
      std::printf("sssp: reached %llu vertices\n",
                  static_cast<unsigned long long>(reached));
    } else if (algo == "kcore") {
      algo::TileKCore kcore(static_cast<graph::degree_t>(opts.get_int("k")));
      const auto s = engine.run(kcore);
      print_stats(s, t.seconds());
      std::printf("kcore: %llu vertices in the %lld-core\n",
                  static_cast<unsigned long long>(kcore.core_size()),
                  static_cast<long long>(opts.get_int("k")));
    } else if (algo == "scc") {
      if (opts.get("in-store").empty())
        throw InvalidArgument("scc needs --in-store=<base> (in-edge store)");
      auto in_store = tile::TileStore::open(opts.get("in-store"), dev);
      const auto labels = algo::tile_scc(store, in_store, algo::SccOptions{cfg});
      std::unordered_set<graph::vid_t> comps(labels.begin(), labels.end());
      std::printf("scc: %zu strongly connected components (%.3fs)\n",
                  comps.size(), t.seconds());
    } else {
      throw InvalidArgument("unknown algorithm: " + algo);
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (...) {
    std::fputs("error: unknown exception\n", stderr);
    return 1;
  }
}
