// bench_gstore — G-Store's end-to-end benchmark (perfbench/README.md).
//
// One process runs one workload. It generates its input from --seed, sets
// the store up several times (setup_s is the median), runs one untimed
// warm-up, then a timed phase of about --seconds, checking every answer
// against algo/reference.h. The last line of stdout is one JSON object:
// every metric with its unit and sample count, the attempted/failed tally,
// and workload details.
//
// --trace-out=FILE turns on the per-layer run: spans around every call the
// benchmark makes into the store's modules, probes that time the io, tile
// and algo layers in isolation, and the ingest/serve (or engine) probes that
// give every workload the same per-layer metric set. The spans are written
// to FILE as Chrome trace-event JSON. The layers are measured only from
// outside: by timing calls to public functions and reading the stats those
// calls return (EngineStats, DeviceStats via completions, JobStats,
// ServerStats, CompactStats).
//
//   bench_gstore --workload=kron-ooc --seed=1 --seconds=10 [--trace-out=F]
//                [--work-dir=DIR] [--smoke]
#include <malloc.h>
#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <numeric>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "algo/bfs.h"
#include "algo/cc.h"
#include "algo/pagerank.h"
#include "algo/reference.h"
#include "algo/sssp.h"
#include "bench_common.h"
#include "graph/edge_list.h"
#include "graph/generator.h"
#include "harness.h"
#include "ingest/delta.h"
#include "ingest/ingestor.h"
#include "io/device.h"
#include "io/file.h"
#include "serve/server.h"
#include "store/scr_engine.h"
#include "tile/convert.h"
#include "tile/edge_block.h"
#include "tile/tile_file.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace gstore::perfbench {
namespace {

using graph::vid_t;
using serve::Json;
using serve::JobKind;
using store::ScheduleMode;

constexpr int kSetupReps = 7;
// Each workload's graph is a fixed dataset, generated from this seed; the
// --seed argument draws what runs on it (new edges, ingest batches, the job
// mix and its roots). Structure-driven iteration counts (WCC needing 3 or 4
// sweeps) would otherwise make seeds differ by whole sweeps.
constexpr std::uint64_t kDatasetSeed = 1;
// Delta-stepping bucket width for every SSSP run, grid or priority: weights
// are in [1, 16], so 256 keeps the round count near the sweep count.
constexpr float kSsspDelta = 256.0f;
// New edges spliced in before each incremental SSSP resume. How much a
// resume does depends on where its few edges land, so passes rotate through
// kDeltas seeded deltas and update_ms averages the per-delta medians.
constexpr std::size_t kDeltaEdges = 24;
constexpr std::size_t kDeltas = 8;

// ---- workloads -------------------------------------------------------------

// Closed loop, one client: each pass runs the five operations below in
// order and the next pass starts when the last one returns. The timed phase
// runs whole rotations of kDeltas passes.
struct ClosedSpec {
  const char* name;
  bool band;  // band-limited skewed R-MAT (else Graph500 Kronecker)
  unsigned scale;
  unsigned edge_factor;
  unsigned tile_bits;
  double memory_fraction;  // engine stream memory / data_bytes()
  bool ssd;                // emulated 128 MB/s SSD (else the native file)
  ScheduleMode mode;
  std::uint32_t pagerank_iterations;
};

// Open loop: jobs arrive at fixed rates in three phases (low, mid, high)
// while a writer ingests edge batches and compacts once per phase.
struct ServeSpec {
  const char* name;
  unsigned scale;
  unsigned edge_factor;
  unsigned tile_bits;
  double memory_fraction;  // gang stream memory / data_bytes()
  // Fixed arrival rates, jobs/s: about 1/4, 1/3 and 3/2 of the mixed-job
  // capacity the high phase measures on a 4-vCPU x86 VM (about 98 jobs/s,
  // README.md). They are part of the benchmark's definition: never retune
  // them.
  double rates[3];
  double shares[3];  // of --seconds: low, mid, high
  double warmup_s;
  double batch_hz;
  std::size_t batch_edges;
  std::uint32_t pagerank_iterations;
  std::size_t max_gang;
};

constexpr ClosedSpec kClosed[] = {
    {"kron-ooc", false, 18, 16, 12, 0.25, true, ScheduleMode::kGrid, 10},
    {"kron-incore", false, 18, 16, 12, 2.0, false, ScheduleMode::kGrid, 20},
    {"band-rounds", true, 17, 16, 11, 0.20, true, ScheduleMode::kPriority, 10},
};
constexpr ServeSpec kServe = {"serve-mixed", 16, 8, 10, 0.5,
                              {25.0, 33.0, 150.0}, {0.4, 0.4, 0.2},
                              1.0, 10.0, 256, 5, 32};

// --smoke: tiny inputs, one rotation of passes, every check and the trace
// round trip.
constexpr ClosedSpec kClosedSmoke[] = {
    {"kron-ooc", false, 11, 8, 6, 0.25, true, ScheduleMode::kGrid, 10},
    {"kron-incore", false, 11, 8, 6, 2.0, false, ScheduleMode::kGrid, 20},
    {"band-rounds", true, 11, 8, 6, 0.20, true, ScheduleMode::kPriority, 10},
};
constexpr ServeSpec kServeSmoke = {"serve-mixed", 10, 8, 6, 0.5,
                                   {40.0, 60.0, 120.0}, {0.34, 0.33, 0.33},
                                   0.2, 20.0, 64, 5, 32};

// The mixed-job deck, 50% BFS, 20% SSSP, 10% each of WCC, PageRank and
// neighbours: each run of ten jobs is a seeded shuffle of it, so every phase
// holds the kinds in exact proportion.
constexpr JobKind kDeck[] = {JobKind::kBfs,  JobKind::kBfs,      JobKind::kBfs,
                             JobKind::kBfs,  JobKind::kBfs,      JobKind::kSssp,
                             JobKind::kSssp, JobKind::kWcc,      JobKind::kPageRank,
                             JobKind::kNeighbors};
constexpr std::size_t kDeckSize = sizeof(kDeck) / sizeof(kDeck[0]);

// Closed-loop operations, in pass order.
enum Op { kBfs, kPageRank, kWcc, kSssp, kUpdate, kOpCount };
constexpr const char* kOpName[kOpCount] = {"bfs", "pagerank", "wcc", "sssp",
                                           "update"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string trace_out;
  std::string work_dir = ".";
  bool smoke = false;
};

// ---- input graphs ----------------------------------------------------------

graph::EdgeList kron_graph(unsigned scale, unsigned ef, std::uint64_t seed) {
  graph::EdgeList el =
      graph::kronecker(scale, ef, graph::GraphKind::kUndirected, seed);
  el.normalize();
  return el;
}

// Unscrambled, heavily diagonal R-MAT with every edge folded into a band
// |u-v| <= n/32 around the diagonal, plus a backbone chain: skewed tiles and
// a real diameter, the regime priority scheduling targets. This is
// bench/bench_priority.cpp's inline builder with the seed and scale as
// parameters; keep the two in step.
graph::EdgeList band_graph(unsigned scale, unsigned ef, std::uint64_t seed) {
  graph::EdgeList skew =
      graph::rmat(scale, ef, graph::GraphKind::kUndirected,
                  graph::RmatParams{0.65, 0.15, 0.15}, seed, /*scramble=*/false);
  const vid_t n = skew.vertex_count();
  const vid_t band = n >> 5;
  std::vector<graph::Edge> edges;
  edges.reserve(skew.edge_count() + n);
  for (const graph::Edge& e : skew.edges()) {
    const vid_t span = e.src > e.dst ? e.src - e.dst : e.dst - e.src;
    graph::Edge f = e;
    if (span > band) f.dst = e.src ^ std::max<vid_t>(span & (band - 1), 1);
    edges.push_back(f);
  }
  for (vid_t u = 0; u + 1 < n; ++u) edges.push_back({u, u + 1});
  graph::EdgeList el(std::move(edges), n, graph::GraphKind::kUndirected);
  el.normalize();
  return el;
}

std::vector<vid_t> linked_vertices(const std::vector<graph::degree_t>& deg) {
  std::vector<vid_t> out;
  for (vid_t v = 0; v < deg.size(); ++v)
    if (deg[v] > 0) out.push_back(v);
  return out;
}

// Draws edges the graph does not have yet (no self loops, no duplicates),
// between vertices that already have neighbours, so every new edge can
// shorten paths and merge nothing it should not.
class FreshEdges {
 public:
  FreshEdges(const graph::EdgeList& el, std::uint64_t seed)
      : pool_(linked_vertices(el.degrees())), rng_(seed) {
    keys_.reserve(el.edge_count());
    for (const graph::Edge& e : el.edges()) keys_.push_back(key(e.src, e.dst));
    std::sort(keys_.begin(), keys_.end());
  }
  std::vector<graph::Edge> draw(std::size_t count) {
    std::vector<graph::Edge> out;
    while (out.size() < count) {
      const vid_t u = pool_[rng_.next_below(pool_.size())];
      const vid_t v = pool_[rng_.next_below(pool_.size())];
      const std::uint64_t k = key(u, v);
      if (u == v || std::binary_search(keys_.begin(), keys_.end(), k) ||
          !added_.insert(k).second)
        continue;
      out.push_back({u, v});
    }
    return out;
  }

 private:
  static std::uint64_t key(vid_t u, vid_t v) {
    return (static_cast<std::uint64_t>(std::min(u, v)) << 32) | std::max(u, v);
  }
  std::vector<vid_t> pool_;
  Xoshiro256 rng_;
  std::vector<std::uint64_t> keys_;
  std::unordered_set<std::uint64_t> added_;
};

graph::EdgeList with_edges(const graph::EdgeList& base,
                           std::span<const graph::Edge> extra) {
  std::vector<graph::Edge> edges = base.edges();
  edges.insert(edges.end(), extra.begin(), extra.end());
  return graph::EdgeList(std::move(edges), base.vertex_count(),
                         graph::GraphKind::kUndirected);
}

// ---- configuration ---------------------------------------------------------

// The emulated SSD: bench::one_ssd()'s 128 MB/s and small token bucket,
// restated because one_ssd() lets GSTORE_BENCH_SSD_MBPS change the rate and
// this benchmark takes no settings from the environment.
io::DeviceConfig device_config(bool ssd) {
  io::DeviceConfig d;
  if (ssd) {
    d.devices = 1;
    d.per_device_bw = 128ull << 20;
    d.burst_bytes = 64 << 10;
  }
  return d;
}

tile::ConvertOptions convert_options(unsigned tile_bits) {
  tile::ConvertOptions o;
  o.tile_bits = tile_bits;
  o.group_side = 8;
  return o;
}

store::EngineConfig engine_config(const tile::TileStore& s, double fraction,
                                  ScheduleMode mode) {
  store::EngineConfig cfg = bench::engine_config_fraction(s, fraction);
  cfg.schedule = mode;
  return cfg;
}

// ---- process memory --------------------------------------------------------

// Resets VmHWM to the current RSS (Linux clear_refs 5); best effort.
void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  std::fclose(f);
  return kib / 1024.0;
}

// Memory over the timed phase, two ways. RSS (VmHWM, reset at the start)
// is what the OS charges, but it includes freed buffers glibc keeps
// resident, which varies by a third between runs of one input. The sampler
// reads the allocator's in-use bytes (arena chunks plus mmapped blocks)
// every 2 ms: memory the program actually holds. mem_mb is the median
// sample; a spike of a few ms is caught or missed by chance, so the maximum
// is reported only as a per-layer metric.
class MemoryWatch {
 public:
  MemoryWatch() {
    reset_peak_rss();
    sampler_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) {
        const struct mallinfo2 mi = ::mallinfo2();
        samples_.push_back({seconds_between(start_, Clock::now()),
                            static_cast<double>(mi.uordblks + mi.hblkhd) / (1 << 20)});
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }
  ~MemoryWatch() { finish(); }
  MemoryWatch(const MemoryWatch&) = delete;
  MemoryWatch& operator=(const MemoryWatch&) = delete;

  void finish() {
    if (!sampler_.joinable()) return;
    stop_.store(true, std::memory_order_relaxed);
    sampler_.join();
    peak_rss_ = peak_rss_mib();
  }
  // Quantile q of the in-use MiB sampled in [from_s, to_s) after the start;
  // call after finish().
  double live_mib(double q, double from_s = 0, double to_s = 1e300) const {
    std::vector<double> v;
    for (const auto& [t, mib] : samples_)
      if (t >= from_s && t < to_s) v.push_back(mib);
    return v.empty() ? 0 : quantile(v, q);
  }
  double rss_mib() const { return peak_rss_; }

 private:
  const Clock::time_point start_ = Clock::now();
  std::atomic<bool> stop_{false};
  // Written by the sampler only, read after join.
  std::vector<std::pair<double, double>> samples_;
  double peak_rss_ = 0;
  std::thread sampler_;
};

// ---- setup -----------------------------------------------------------------

struct SetupTimes {
  std::vector<double> total_s, convert_s, open_s;
  void add(double convert, double open) {
    convert_s.push_back(convert);
    open_s.push_back(open);
    total_s.push_back(convert + open);
  }
};

// Converts `el` kSetupReps times into fresh bases and opens each with
// `open(base)`; keeps the last one opened. Graph generation is bench input
// and is not part of set-up.
template <typename Handle, typename OpenFn>
Handle set_up(Trace& trace, std::uint64_t parent, const io::TempDir& dir,
              const graph::EdgeList& el, unsigned tile_bits,
              SetupTimes& times, std::string& base_out, const OpenFn& open) {
  std::optional<Handle> handle;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    handle.reset();
    const std::string base = dir.file(std::string("g").append(std::to_string(rep)));
    Scope s(trace, "setup", "tile", parent);
    const Clock::time_point t0 = Clock::now();
    {
      Scope c(trace, "convert", "tile", s.id());
      tile::convert_to_tiles(el, base, convert_options(tile_bits));
    }
    const Clock::time_point t1 = Clock::now();
    {
      Scope o(trace, "open", "tile", s.id());
      handle.emplace(open(base));
    }
    times.add(seconds_between(t0, t1), seconds_between(t1, Clock::now()));
    base_out = base;
  }
  return std::move(*handle);
}

// ---- answers ---------------------------------------------------------------

struct Refs {
  vid_t root = 0;
  std::uint32_t pagerank_iterations = 10;
  std::vector<std::int32_t> depth;
  std::vector<double> rank;
  std::vector<vid_t> label;
  std::vector<float> dist;  // base graph
  // The update op's new edges, one set per pass in rotation, and the
  // distances over base + each.
  std::vector<std::vector<graph::Edge>> deltas;
  std::vector<std::vector<float>> dist_updated;
};

Refs make_refs(const graph::EdgeList& el, vid_t root, std::uint32_t pr_iters,
               std::vector<std::vector<graph::Edge>> deltas) {
  Refs r;
  r.root = root;
  r.pagerank_iterations = pr_iters;
  r.depth = algo::ref_bfs(el, root);
  r.rank = algo::ref_pagerank(el, pr_iters);
  r.label = algo::ref_wcc(el);
  r.dist = algo::ref_sssp(el, root);
  for (const std::vector<graph::Edge>& d : deltas)
    r.dist_updated.push_back(algo::ref_sssp(with_edges(el, d), root));
  r.deltas = std::move(deltas);
  return r;
}

// PageRank: float engine vs double reference, relative tolerance.
bool ranks_close(const std::vector<float>& got, const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t v = 0; v < got.size(); ++v)
    if (std::fabs(got[v] - want[v]) > 1e-3 * want[v] + 1e-9) return false;
  return true;
}

// SSSP: the tests' tolerance against Dijkstra.
bool dists_close(const std::vector<float>& got, const std::vector<float>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t v = 0; v < got.size(); ++v) {
    if (std::isinf(want[v]) != std::isinf(got[v])) return false;
    if (!std::isinf(want[v]) && std::fabs(got[v] - want[v]) > 1e-3) return false;
  }
  return true;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// ---- closed-loop passes ----------------------------------------------------

struct OpRun {
  double seconds = 0;
  store::EngineStats stats;
};

std::string stats_args(const store::EngineStats& s) {
  return "\"bytes_read\": " + std::to_string(s.bytes_read) +
         ", \"sweeps\": " + std::to_string(s.iterations) +
         ", \"io_wait_s\": " + num(s.io_wait_seconds) +
         ", \"compute_s\": " + num(s.compute_seconds) +
         ", \"elapsed_s\": " + num(s.elapsed_seconds) +
         ", \"tiles_from_disk\": " + std::to_string(s.tiles_from_disk) +
         ", \"tiles_from_cache\": " + std::to_string(s.tiles_from_cache) +
         ", \"tiles_skipped\": " + std::to_string(s.tiles_skipped) +
         ", \"edges\": " + std::to_string(s.edges_processed) +
         ", \"io_batches\": " + std::to_string(s.io_batches) +
         ", \"wasted_fetch_bytes\": " + std::to_string(s.wasted_fetch_bytes) +
         ", \"segment_refreshes\": " + std::to_string(s.segment_refreshes);
}

// Per-operation samples gathered over passes.
struct OpSamples {
  std::vector<double> ms, mib, io_wait_ms, compute_ms, other_ms, sweeps,
      hit_ratio;
};

struct PassLog {
  OpSamples op[kOpCount];
  std::map<std::size_t, std::vector<double>> update_ms;  // by delta
  double edges = 0, op_seconds = 0;
  std::uint64_t skipped = 0, considered = 0, refreshes = 0, wasted = 0,
                bytes = 0;
  std::size_t ops = 0;

  void add(Op o, const OpRun& r) {
    const store::EngineStats& s = r.stats;
    OpSamples& x = op[o];
    x.ms.push_back(r.seconds * 1e3);
    x.mib.push_back(static_cast<double>(s.bytes_read) / (1 << 20));
    x.io_wait_ms.push_back(s.io_wait_seconds * 1e3);
    x.compute_ms.push_back(s.compute_seconds * 1e3);
    x.other_ms.push_back(
        std::max(0.0, s.elapsed_seconds - s.io_wait_seconds - s.compute_seconds) *
        1e3);
    x.sweeps.push_back(s.iterations);
    const double tiles =
        static_cast<double>(s.tiles_from_cache + s.tiles_from_disk);
    x.hit_ratio.push_back(tiles > 0 ? s.tiles_from_cache / tiles : 0.0);
    edges += static_cast<double>(s.edges_processed);
    op_seconds += r.seconds;
    skipped += s.tiles_skipped;
    considered += s.tiles_skipped + s.tiles_from_cache + s.tiles_from_disk;
    refreshes += s.segment_refreshes;
    wasted += s.wasted_fetch_bytes;
    bytes += s.bytes_read;
    ++ops;
  }
};

class PassRunner {
 public:
  PassRunner(tile::TileStore& store, store::EngineConfig cfg, const Refs& refs,
             Trace& trace, Tally& tally)
      : store_(store), cfg_(cfg), refs_(refs), trace_(trace), tally_(tally) {}

  // Runs bfs, pagerank, wcc, sssp and update once, checking each answer.
  // The first pass fixes the SSSP bit patterns every later pass must repeat
  // (per delta for update) and checks them across grid and priority
  // scheduling and against a cold run over the updated graph.
  void pass(std::uint64_t parent, PassLog* log) {
    Scope p(trace_, "pass", "bench", parent);
    algo::TileBfs bfs(refs_.root);
    run(kBfs, bfs, p.id(), log);
    expect(bfs.depth() == refs_.depth, "bfs depths differ from ref_bfs");

    algo::TilePageRank pr(
        algo::PageRankOptions{0.85, refs_.pagerank_iterations, 0.0});
    run(kPageRank, pr, p.id(), log);
    expect(ranks_close(pr.ranks(), refs_.rank), "pagerank differs from ref");

    algo::TileWcc wcc;
    run(kWcc, wcc, p.id(), log);
    expect(wcc.labels() == refs_.label, "wcc labels differ from ref_wcc");

    algo::TileSssp sssp = make_sssp();
    run(kSssp, sssp, p.id(), log);
    check_sssp(sssp.distances(), refs_.dist, golden_, "sssp");

    const std::size_t d = passes_++ % refs_.deltas.size();
    if (update(sssp, refs_.deltas[d], p.id(), log) && log != nullptr)
      log->update_ms[d].push_back(log->op[kUpdate].ms.back());
    check_sssp(sssp.distances(), refs_.dist_updated[d], golden_updated_[d],
               "update");

    if (!cross_checked_) cross_check(p.id());
  }

  const store::EngineConfig& config() const noexcept { return cfg_; }

 private:
  algo::TileSssp make_sssp() const {
    algo::TileSssp s(refs_.root);
    s.set_delta(kSsspDelta);
    return s;
  }

  void expect(bool ok, const std::string& what) { tally_.check(ok, what); }

  // Engine-level invariants: no failed read, no retry, zero copies.
  void expect_clean(const store::EngineStats& s, const char* op) {
    if (s.failed_reads != 0 || s.retries != 0 || s.tile_resubmits != 0)
      tally_.fail(std::string(op) + ": io retries or failed reads");
    if (s.bytes_copied_to_pool != 0)
      tally_.fail(std::string(op) + ": bytes copied into the cache pool");
  }

  void check_sssp(const std::vector<float>& got, const std::vector<float>& ref,
                  std::vector<float>& golden, const char* op) {
    if (golden.empty()) {
      expect(dists_close(got, ref), std::string(op) + " differs from ref_sssp");
      golden = got;
    } else {
      expect(same_bits(got, golden),
             std::string(op) + " not bit-identical to the first pass");
    }
  }

  // Times one engine call; returns false (having counted a failure) when
  // it threw.
  bool timed_run(Op o, const std::function<store::EngineStats()>& body,
                 std::uint64_t parent, PassLog* log) {
    Scope s(trace_, kOpName[o], "store", parent);
    OpRun r;
    const Clock::time_point t0 = Clock::now();
    try {
      r.stats = body();
    } catch (const std::exception& e) {
      tally_.fail(std::string(kOpName[o]) + " threw: " + e.what());
      return false;
    }
    r.seconds = seconds_between(t0, Clock::now());
    s.set_args(stats_args(r.stats));
    expect_clean(r.stats, kOpName[o]);
    if (log != nullptr) log->add(o, r);
    return true;
  }

  void run(Op o, store::TileAlgorithm& algo, std::uint64_t parent,
           PassLog* log) {
    store::ScrEngine engine(store_, cfg_);
    timed_run(o, [&] { return engine.run(algo); }, parent, log);
  }

  // Splices the fixed new edges in as a delta overlay and resumes the
  // converged SSSP over only the tiles they touch.
  bool update(algo::TileSssp& sssp, std::span<const graph::Edge> edges,
              std::uint64_t parent, PassLog* log) {
    store::ScrEngine engine(store_, cfg_);
    return timed_run(
        kUpdate,
        [&] {
          ingest::DeltaBuffer delta(store_.grid(), store_.meta(), 1 << 20);
          delta.add_batch(edges);
          const std::vector<std::uint64_t> dirty = delta.take_dirty_tiles();
          store_.attach_overlay(&delta);
          struct Detach {
            tile::TileStore& s;
            ~Detach() { s.attach_overlay(nullptr); }
          } detach{store_};
          return engine.resume(sssp, dirty);
        },
        parent, log);
  }

  // SSSP must be bit-identical under the other schedule, and the resumed
  // answer bit-identical to a cold priority run over base + delta.
  void cross_check(std::uint64_t parent) {
    cross_checked_ = true;
    Scope s(trace_, "cross-check", "bench", parent);
    store::EngineConfig other = cfg_;
    other.schedule = cfg_.schedule == ScheduleMode::kGrid ? ScheduleMode::kPriority
                                                          : ScheduleMode::kGrid;
    algo::TileSssp a = make_sssp();
    store::ScrEngine(store_, other).run(a);
    expect(same_bits(a.distances(), golden_),
           "sssp differs between grid and priority scheduling");

    ingest::DeltaBuffer delta(store_.grid(), store_.meta(), 1 << 20);
    delta.add_batch(refs_.deltas[0]);
    store_.attach_overlay(&delta);
    algo::TileSssp cold = make_sssp();
    store::EngineConfig prio = cfg_;
    prio.schedule = ScheduleMode::kPriority;
    store::ScrEngine(store_, prio).run(cold);
    store_.attach_overlay(nullptr);
    expect(same_bits(cold.distances(), golden_updated_[0]),
           "resumed sssp differs from a cold run over the same delta");
  }

  tile::TileStore& store_;
  const store::EngineConfig cfg_;
  const Refs& refs_;
  Trace& trace_;
  Tally& tally_;
  std::vector<float> golden_;
  std::vector<std::vector<float>> golden_updated_ =
      std::vector<std::vector<float>>(refs_.deltas.size());
  std::size_t passes_ = 0;
  bool cross_checked_ = false;
};

// Per-operation per-layer metrics plus the store-wide ratios of a pass log.
void report_store_layers(const PassLog& log, Report& rep) {
  for (int o = 0; o < kOpCount; ++o) {
    const OpSamples& x = log.op[o];
    const std::string a = kOpName[o];
    rep.add_median("io.mib." + a, "MiB", x.mib);
    rep.add_median("io.wait_ms." + a, "ms", x.io_wait_ms);
    rep.add_median("store.compute_ms." + a, "ms", x.compute_ms);
    rep.add_median("store.other_ms." + a, "ms", x.other_ms);
    rep.add_median("store.sweeps." + a, "count", x.sweeps);
    rep.add_median("store.cache_hit_ratio." + a, "ratio", x.hit_ratio);
  }
  const double passes = std::max<double>(1.0, static_cast<double>(log.op[0].ms.size()));
  rep.add("store.skip_ratio", "ratio",
          log.considered ? static_cast<double>(log.skipped) / log.considered : 0.0,
          log.ops);
  rep.add("store.segment_refreshes", "count",
          static_cast<double>(log.refreshes) / passes, log.ops);
  rep.add("store.wasted_fetch_ratio", "ratio",
          log.bytes ? static_cast<double>(log.wasted) / log.bytes : 0.0, log.ops);
}

// ---- layer probes (traced run only) ----------------------------------------

// Every tile read once through Device::submit/poll with the store's own
// queue depth and throttle.
void probe_io(tile::TileStore& store, Trace& trace, std::uint64_t parent,
              Report& rep, Tally& tally) {
  Scope s(trace, "io.read", "io", parent);
  const std::uint64_t tiles = store.meta().tile_count;
  std::vector<std::uint8_t> buf(store.bytes_of_range(0, tiles));
  const std::uint64_t base = store.tile_offset(0);
  io::Device& dev = store.device();
  const std::size_t depth = std::max<std::size_t>(dev.config().queue_depth, 16);
  std::vector<Clock::time_point> issued(tiles);
  std::vector<double> latency_ms;
  std::vector<io::Completion> done;
  std::uint64_t next = 0, in_flight = 0, bytes = 0;
  const Clock::time_point t0 = Clock::now();
  while (next < tiles || in_flight > 0) {
    std::vector<io::ReadRequest> batch;
    while (next < tiles && in_flight + batch.size() < depth && batch.size() < 16) {
      const std::uint64_t len = store.tile_bytes(next);
      if (len > 0) {
        io::ReadRequest r;
        r.offset = store.tile_offset(next);
        r.length = len;
        r.buffer = buf.data() + (r.offset - base);
        r.tag = next;
        batch.push_back(r);
        issued[next] = Clock::now();
      }
      ++next;
    }
    if (!batch.empty()) {
      in_flight += batch.size();
      dev.submit(std::move(batch));
    }
    if (in_flight == 0) continue;
    done.clear();
    dev.poll(1, 64, done);
    const Clock::time_point now = Clock::now();
    for (const io::Completion& c : done) {
      --in_flight;
      const bool ok = c.ok && c.bytes == store.tile_bytes(c.tag);
      if (!ok) tally.fail("io probe: tile " + std::to_string(c.tag) + " read failed");
      bytes += c.bytes;
      latency_ms.push_back(seconds_between(issued[c.tag], now) * 1e3);
    }
  }
  const double secs = seconds_between(t0, Clock::now());
  rep.add("io.read_mb_s", "MB/s", static_cast<double>(bytes) / 1e6 / secs,
          latency_ms.size());
  if (!latency_ms.empty()) {
    rep.add("io.read_ms_p50", "ms", quantile(latency_ms, 0.5), latency_ms.size());
    rep.add("io.read_ms_p99", "ms", quantile(latency_ms, 0.99), latency_ms.size());
  }
  s.set_args("\"bytes\": " + std::to_string(bytes));
}

// The whole store resident in memory, one view per tile.
struct Resident {
  std::vector<std::uint8_t> bytes;
  std::vector<tile::TileView> views;
  std::uint64_t edges = 0;
};

Resident load_resident(tile::TileStore& store) {
  Resident r;
  const std::uint64_t tiles = store.meta().tile_count;
  r.bytes.resize(store.bytes_of_range(0, tiles));
  store.read_range(0, tiles, r.bytes.data());
  const std::uint64_t base = store.tile_offset(0);
  for (std::uint64_t i = 0; i < tiles; ++i) {
    r.views.push_back(store.view(i, r.bytes.data() + (store.tile_offset(i) - base)));
    r.edges += r.views.back().edge_count();
  }
  return r;
}

// v3 decode alone: view + for_each_block into a checksum sink.
void probe_decode(const Resident& res, Trace& trace, std::uint64_t parent,
                  Report& rep) {
  std::vector<double> ns;
  std::uint64_t sink = 0;
  for (int rep_k = 0; rep_k < 3; ++rep_k) {
    Scope s(trace, "tile.decode", "tile", parent);
    const Clock::time_point t0 = Clock::now();
    for (const tile::TileView& v : res.views)
      tile::for_each_block(v, [&](const tile::EdgeBlock& b) {
        for (std::uint32_t k = 0; k < b.size; ++k) sink += b.src[k] ^ b.dst[k];
      });
    ns.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                 static_cast<double>(std::max<std::uint64_t>(res.edges, 1)));
    s.set_args("\"checksum\": " + std::to_string(sink));
  }
  rep.add_median("tile.decode_ns_per_edge", "ns", ns);
}

// One algorithm run single-threaded over resident views: process_tile cost
// per edge, decode included (tile.decode_ns_per_edge is that share).
void probe_kernel(const char* name, store::TileAlgorithm& algo,
                  const tile::TileStore& store, const Resident& res,
                  Trace& trace, std::uint64_t parent, Report& rep) {
  Scope s(trace, std::string("algo.") + name, "algo", parent);
  algo.init(store);
  std::uint64_t edges = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::uint32_t it = 0; it < 10000; ++it) {
    algo.begin_iteration(it);
    for (const tile::TileView& v : res.views) {
      if (v.edge_count() == 0 || !algo.tile_needed(v.coord.i, v.coord.j)) continue;
      algo.process_tile(v);
      edges += v.edge_count();
    }
    if (!algo.end_iteration(it)) break;
  }
  const double secs = seconds_between(t0, Clock::now());
  rep.add(std::string("algo.") + name + "_ns_per_edge", "ns",
          secs * 1e9 / static_cast<double>(std::max<std::uint64_t>(edges, 1)),
          edges);
  s.set_args("\"edges\": " + std::to_string(edges));
}

void probe_memory_layers(tile::TileStore& store, vid_t root,
                         std::uint32_t pr_iters, Trace& trace,
                         std::uint64_t parent, Report& rep, Tally& tally) {
  probe_io(store, trace, parent, rep, tally);
  const Resident res = load_resident(store);
  probe_decode(res, trace, parent, rep);
  algo::TileBfs bfs(root);
  probe_kernel("bfs", bfs, store, res, trace, parent, rep);
  algo::TilePageRank pr(algo::PageRankOptions{0.85, pr_iters, 0.0});
  probe_kernel("pagerank", pr, store, res, trace, parent, rep);
  algo::TileWcc wcc;
  probe_kernel("wcc", wcc, store, res, trace, parent, rep);
  algo::TileSssp sssp(root);
  probe_kernel("sssp", sssp, store, res, trace, parent, rep);
}

// ---- serving ---------------------------------------------------------------

Json job_json(JobKind kind, vid_t vertex, std::uint32_t pr_iters) {
  Json j = Json::object();
  j.set("algo", Json(serve::to_string(kind)));
  switch (kind) {
    case JobKind::kBfs:
    case JobKind::kSssp:
      j.set("root", Json(static_cast<std::uint64_t>(vertex)));
      break;
    case JobKind::kNeighbors:
      j.set("vertex", Json(static_cast<std::uint64_t>(vertex)));
      break;
    case JobKind::kPageRank:
      j.set("iterations", Json(static_cast<std::uint64_t>(pr_iters)));
      break;
    case JobKind::kWcc:
      break;
  }
  return j;
}

struct Job {
  JobKind kind = JobKind::kBfs;
  vid_t vertex = 0;
  int phase = 0;
  double due_s = 0;  // seconds after the timed phase (or warm-up) starts
  // Filled in as the job runs.
  std::uint64_t id = 0;
  bool rejected = false;
  bool finished = false;
  std::string state;
  double lag_s = 0;      // submit time - due time
  double latency_s = 0;  // terminal state seen - due time
  double run_s = 0;      // JobStats.seconds
  std::uint32_t iterations = 0;
  std::uint64_t edges = 0;
  std::uint32_t generation = 0;
  std::uint64_t delta_edges = 0;
  Clock::time_point due, done;
};

// Phase p runs from start[p] for len[p] seconds at rates[p] jobs/s.
std::vector<Job> plan_jobs(const double* rates, const double* start,
                           const double* len, int phases,
                           const std::vector<vid_t>& pool, Xoshiro256& rng) {
  std::vector<Job> jobs;
  for (int p = 0; p < phases; ++p) {
    const auto n = static_cast<std::size_t>(std::llround(rates[p] * len[p]));
    JobKind deck[kDeckSize];
    for (std::size_t k = 0; k < n; ++k) {
      if (k % kDeckSize == 0) {
        std::copy(std::begin(kDeck), std::end(kDeck), deck);
        for (std::size_t i = kDeckSize - 1; i > 0; --i)
          std::swap(deck[i], deck[rng.next_below(i + 1)]);
      }
      Job j;
      j.kind = deck[k % kDeckSize];
      j.vertex = pool[rng.next_below(pool.size())];
      j.phase = p;
      j.due_s = start[p] + static_cast<double>(k) / rates[p];
      jobs.push_back(j);
    }
  }
  return jobs;
}

bool terminal(const std::string& state) {
  return state == "done" || state == "failed" || state == "cancelled";
}

// Submits `jobs` at their due times (relative to `t0`) and records when each
// reaches a terminal state, from a poller thread that checks status() every
// millisecond. Each sweep checks the kPollWindow oldest outstanding jobs —
// the running gang and the head of the queue — so a deep backlog does not
// turn the poller into a load on the manager's lock. Returns once every job
// finished or `deadline` passed.
constexpr std::size_t kPollWindow = 64;
void drive_jobs(serve::JobManager& mgr, std::vector<Job>& jobs,
                Clock::time_point t0, Clock::time_point deadline,
                std::uint32_t pr_iters, Trace& trace, std::uint64_t parent) {
  struct Shared {
    Mutex mu{"drive_jobs::mu"};
    std::vector<std::size_t> outstanding GSTORE_GUARDED_BY(mu);
    std::size_t finished GSTORE_GUARDED_BY(mu) = 0;
    bool stop GSTORE_GUARDED_BY(mu) = false;
  } sh;

  std::thread poller([&] {
    std::vector<std::size_t> mine;
    for (;;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      {
        MutexLock lock(sh.mu);
        mine.insert(mine.end(), sh.outstanding.begin(), sh.outstanding.end());
        sh.outstanding.clear();
        if (sh.stop) return;
      }
      std::size_t newly = 0;
      std::vector<std::size_t> still;
      for (std::size_t k = 0; k < mine.size(); ++k) {
        Job& j = jobs[mine[k]];
        if (k >= kPollWindow) {
          still.push_back(mine[k]);
          continue;
        }
        const Json st = mgr.status(j.id);
        const std::string& state = st.at("state").as_string();
        if (!terminal(state)) {
          still.push_back(mine[k]);
          continue;
        }
        j.done = Clock::now();
        j.finished = true;
        j.state = state;
        j.latency_s = seconds_between(j.due, j.done);
        if (const Json* s = st.find("stats")) {
          j.run_s = s->at("seconds").as_number();
          j.iterations = static_cast<std::uint32_t>(s->at("iterations").as_uint());
          j.edges = s->at("edges_processed").as_uint();
        }
        j.generation = static_cast<std::uint32_t>(st.at("generation").as_uint());
        j.delta_edges = st.at("delta_edges").as_uint();
        ++newly;
      }
      mine.swap(still);
      MutexLock lock(sh.mu);
      sh.finished += newly;
    }
  });

  for (std::size_t k = 0; k < jobs.size(); ++k) {
    Job& j = jobs[k];
    j.due = t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(j.due_s));
    std::this_thread::sleep_until(j.due);
    try {
      j.id = mgr.submit(job_json(j.kind, j.vertex, pr_iters));
    } catch (const std::exception&) {
      j.rejected = true;
    }
    j.lag_s = seconds_between(j.due, Clock::now());
    MutexLock lock(sh.mu);
    if (j.rejected)
      ++sh.finished;
    else
      sh.outstanding.push_back(k);
  }
  for (;;) {
    {
      MutexLock lock(sh.mu);
      if (sh.finished == jobs.size() || Clock::now() >= deadline) {
        sh.stop = true;
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  poller.join();

  for (const Job& j : jobs) {
    if (!j.finished) continue;
    const std::uint32_t tid = 1000 + static_cast<std::uint32_t>(j.id % 4096);
    const auto run_start =
        j.done - std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(std::min(j.run_s, j.latency_s)));
    const std::uint64_t span = trace.add(
        std::string("job.") + serve::to_string(j.kind), "serve", parent, j.due,
        j.done,
        "\"job\": " + std::to_string(j.id) + ", \"state\": \"" + j.state +
            "\", \"iterations\": " + std::to_string(j.iterations) +
            ", \"edges\": " + std::to_string(j.edges) +
            ", \"generation\": " + std::to_string(j.generation) +
            ", \"delta_edges\": " + std::to_string(j.delta_edges),
        tid);
    trace.add("queue", "serve", span, j.due, run_start, {}, tid);
    trace.add("run", "serve", span, run_start, j.done, {}, tid);
  }
}

struct ServerDelta {
  double jobs_done = 0, gangs = 0, bytes = 0, fetched = 0, cached = 0,
         dispatches = 0;
};

ServerDelta server_delta(const Json& before, const Json& after) {
  auto d = [&](const char* k) {
    return static_cast<double>(after.at(k).as_uint() - before.at(k).as_uint());
  };
  return {d("jobs_done"), d("gangs"), d("bytes_read"), d("tiles_fetched"),
          d("tiles_from_cache"), d("tile_dispatches")};
}

// Serve-layer metrics over a set of finished jobs.
void report_serve_layers(const std::vector<Job>& jobs, const ServerDelta& sd,
                         double jobs_per_s, Report& rep) {
  std::vector<double> queue_ms, run_ms;
  for (const Job& j : jobs) {
    if (!j.finished || j.state != "done") continue;
    queue_ms.push_back(std::max(0.0, j.latency_s - j.run_s) * 1e3);
    run_ms.push_back(j.run_s * 1e3);
  }
  if (!queue_ms.empty()) {
    rep.add("serve.queue_ms_p50", "ms", quantile(queue_ms, 0.5), queue_ms.size());
    rep.add("serve.queue_ms_p95", "ms", quantile(queue_ms, 0.95), queue_ms.size());
    rep.add("serve.run_ms_p50", "ms", quantile(run_ms, 0.5), run_ms.size());
    rep.add("serve.run_ms_p95", "ms", quantile(run_ms, 0.95), run_ms.size());
  }
  const auto jobs_n = static_cast<std::size_t>(sd.jobs_done);
  rep.add("serve.gang_width_mean", "jobs", sd.jobs_done / std::max(sd.gangs, 1.0),
          jobs_n);
  rep.add("serve.dedup", "ratio",
          sd.dispatches / std::max(sd.fetched + sd.cached, 1.0), jobs_n);
  rep.add("serve.mib_per_job", "MiB",
          sd.bytes / (1 << 20) / std::max(sd.jobs_done, 1.0), jobs_n);
  rep.add("serve.jobs_per_s", "1/s", jobs_per_s, jobs_n);
}

struct IngestLog {
  std::vector<double> ingest_ms, wal_bytes_per_edge, compact_s, compact_mib;
};

void report_ingest_layers(const IngestLog& log, Report& rep) {
  if (!log.ingest_ms.empty()) {
    rep.add("ingest.append_ms_p50", "ms", quantile(log.ingest_ms, 0.5),
            log.ingest_ms.size());
    rep.add("ingest.append_ms_p95", "ms", quantile(log.ingest_ms, 0.95),
            log.ingest_ms.size());
  }
  rep.add_median("ingest.wal_bytes_per_edge", "B/edge", log.wal_bytes_per_edge);
  rep.add_median("ingest.compact_s", "s", log.compact_s);
  rep.add_median("ingest.compact_mib_written", "MiB", log.compact_mib);
}

// One timed ingest through the job manager (WAL append + fsync + overlay).
bool timed_ingest(serve::JobManager& mgr, ingest::EdgeIngestor& ingestor,
                  std::span<const graph::Edge> batch, IngestLog& log,
                  Trace& trace, std::uint64_t parent, std::uint32_t tid) {
  const std::uint64_t wal0 = ingestor.wal_bytes();
  const Clock::time_point t0 = Clock::now();
  const std::uint64_t accepted = mgr.ingest(batch);
  const Clock::time_point t1 = Clock::now();
  log.ingest_ms.push_back(seconds_between(t0, t1) * 1e3);
  log.wal_bytes_per_edge.push_back(
      static_cast<double>(ingestor.wal_bytes() - wal0) /
      static_cast<double>(std::max<std::size_t>(batch.size(), 1)));
  trace.add("ingest", "ingest", parent, t0, t1,
            "\"edges\": " + std::to_string(accepted), tid);
  return accepted == batch.size();
}

void timed_compact(serve::JobManager& mgr, IngestLog& log, Trace& trace,
                   std::uint64_t parent, std::uint32_t tid) {
  const Clock::time_point t0 = Clock::now();
  const Json cs = mgr.compact();
  const Clock::time_point t1 = Clock::now();
  log.compact_s.push_back(cs.at("seconds").as_number());
  log.compact_mib.push_back(static_cast<double>(cs.at("bytes_written").as_uint()) /
                            (1 << 20));
  trace.add("compact", "ingest", parent, t0, t1,
            "\"generation\": " + std::to_string(cs.at("new_generation").as_uint()),
            tid);
}

serve::ManagerOptions manager_options(const tile::TileStore& s, double fraction,
                                      std::size_t max_gang,
                                      io::DeviceConfig dev) {
  serve::ManagerOptions mo;
  mo.max_gang = max_gang;
  const store::EngineConfig cfg = bench::engine_config_fraction(s, fraction);
  mo.scheduler.stream_memory_bytes = cfg.stream_memory_bytes;
  mo.scheduler.segment_bytes = cfg.segment_bytes;
  mo.snapshot_device = dev;
  return mo;
}

// Closed-loop workloads have no writer or tenants of their own; their traced
// run measures the ingest and serve layers on the same store and budget:
// timed ingests of the given batches, one compaction, then one burst of 16
// mixed jobs submitted together.
void probe_write_and_serve(const std::string& base, const ClosedSpec& spec,
                           const std::vector<std::vector<graph::Edge>>& batches,
                           vid_t root, Trace& trace, std::uint64_t parent,
                           Report& rep, Tally& tally) {
  ingest::IngestorOptions io_opts;
  io_opts.device = device_config(spec.ssd);
  ingest::EdgeIngestor ingestor(base, io_opts);
  serve::JobManager mgr(ingestor,
                        manager_options(ingestor.store(), spec.memory_fraction,
                                        32, device_config(spec.ssd)));
  IngestLog log;
  for (const std::vector<graph::Edge>& batch : batches)
    tally.check(timed_ingest(mgr, ingestor, batch, log, trace, parent, 2),
                "ingest probe: batch not fully accepted");
  timed_compact(mgr, log, trace, parent, 2);
  report_ingest_layers(log, rep);

  const JobKind kinds[] = {JobKind::kBfs,  JobKind::kBfs,      JobKind::kSssp,
                           JobKind::kWcc,  JobKind::kPageRank, JobKind::kNeighbors};
  std::vector<Job> jobs(16);
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    jobs[k].kind = kinds[k % 6];
    jobs[k].vertex = root;
  }
  const Json before = mgr.stats();
  mgr.start();
  const Clock::time_point t0 = Clock::now();
  drive_jobs(mgr, jobs, t0, t0 + std::chrono::seconds(60),
             spec.pagerank_iterations, trace, parent);
  Clock::time_point last = t0;
  for (const Job& j : jobs) {
    tally.check(j.finished && j.state == "done", "serve probe: job not done");
    if (j.finished) last = std::max(last, j.done);
  }
  mgr.stop(true);
  report_serve_layers(jobs, server_delta(before, mgr.stats()),
                      static_cast<double>(jobs.size()) /
                          std::max(seconds_between(t0, last), 1e-9),
                      rep);
}

// ---- closed-loop workload --------------------------------------------------

void run_closed(const ClosedSpec& spec, const Args& args, Trace& trace,
                Report& rep, Tally& tally, std::string& details) {
  const std::uint64_t root_span = trace.begin(spec.name, "bench", 0);
  io::TempDir dir("perfbench");
  graph::EdgeList el = spec.band
                           ? band_graph(spec.scale, spec.edge_factor, kDatasetSeed)
                           : kron_graph(spec.scale, spec.edge_factor, kDatasetSeed);
  const vid_t root = bench::hub_root(el);
  std::vector<std::vector<graph::Edge>> deltas;
  std::vector<std::vector<graph::Edge>> probe_batches;
  {
    FreshEdges fresh(el, args.seed ^ 0x5eed);
    for (std::size_t k = 0; k < kDeltas; ++k) deltas.push_back(fresh.draw(kDeltaEdges));
    if (trace.on())
      for (int k = 0; k < 40; ++k) probe_batches.push_back(fresh.draw(256));
  }

  SetupTimes setup;
  std::string base;
  tile::TileStore store = set_up<tile::TileStore>(
      trace, root_span, dir, el, spec.tile_bits, setup, base,
      [&](const std::string& b) {
        return tile::TileStore::open(b, device_config(spec.ssd));
      });
  const double bytes_per_edge = static_cast<double>(store.storage_bytes()) /
                                static_cast<double>(store.edge_count());

  const Refs refs = [&] {
    Scope s(trace, "reference", "bench", root_span);
    return make_refs(el, root, spec.pagerank_iterations, std::move(deltas));
  }();
  el = graph::EdgeList();  // bench-only input: kept out of mem_mb

  PassRunner runner(store, engine_config(store, spec.memory_fraction, spec.mode),
                    refs, trace, tally);
  {
    Scope w(trace, "warmup", "bench", root_span);
    runner.pass(w.id(), nullptr);
  }

  MemoryWatch mem;
  PassLog log;
  const Clock::time_point t0 = Clock::now();
  {
    // Whole rotations through the deltas only, so that update_ms averages
    // the same kDeltas deltas however many passes fit in --seconds.
    Scope timed(trace, "timed", "bench", root_span);
    for (std::size_t passes = 1;; ++passes) {
      runner.pass(timed.id(), &log);
      if (passes % kDeltas == 0 &&
          (seconds_between(t0, Clock::now()) >= args.seconds || args.smoke))
        break;
    }
  }
  mem.finish();

  rep.add_median("setup_s", "s", setup.total_s);
  const char* e2e[kUpdate] = {"bfs_ms", "pagerank_ms", "wcc_ms", "sssp_ms"};
  for (int o = 0; o < kUpdate; ++o)
    if (!rep.add_median(e2e[o], "ms", log.op[o].ms))
      tally.fail(std::string("no timed sample for ") + kOpName[o]);
  std::vector<double> per_delta;
  for (const auto& [d, ms] : log.update_ms) per_delta.push_back(median(ms));
  if (per_delta.size() != kDeltas)
    tally.fail("update: some delta has no timed sample");
  else
    rep.add("update_ms", "ms",
            std::accumulate(per_delta.begin(), per_delta.end(), 0.0) /
                static_cast<double>(per_delta.size()),
            log.op[kUpdate].ms.size());
  rep.add("medges_per_s", "Medges/s", log.edges / 1e6 / std::max(log.op_seconds, 1e-9),
          log.ops);
  rep.add("store_bytes_per_edge", "B/edge", bytes_per_edge);
  rep.add("mem_mb", "MiB", mem.live_mib(0.5));

  details = "\"passes\": " + std::to_string(log.op[0].ms.size()) +
            ", \"vertices\": " + std::to_string(store.vertex_count()) +
            ", \"stored_edges\": " + std::to_string(store.edge_count()) +
            ", \"tiles\": " + std::to_string(store.meta().tile_count) +
            ", \"stream_memory_bytes\": " +
            std::to_string(runner.config().stream_memory_bytes) +
            ", \"root\": " + std::to_string(root);

  if (trace.on()) {
    rep.add("mem.peak_rss_mb", "MiB", mem.rss_mib());
    rep.add("mem.live_max_mb", "MiB", mem.live_mib(1.0));
    rep.add_median("tile.convert_s", "s", setup.convert_s);
    rep.add_median("tile.open_s", "s", setup.open_s);
    report_store_layers(log, rep);
    Scope p(trace, "probes", "bench", root_span);
    probe_memory_layers(store, root, spec.pagerank_iterations, trace, p.id(), rep,
                        tally);
    probe_write_and_serve(base, spec, probe_batches, root, trace, p.id(), rep,
                          tally);
  }
  trace.end(root_span);
}

// ---- serve workload --------------------------------------------------------

struct WriterPlan {
  std::vector<std::vector<graph::Edge>> batches;  // batch k is due at k / hz
  std::vector<double> compact_at_s;
  double end_s = 0;
};

struct WriterLog {
  IngestLog ingest;
  std::vector<graph::Edge> ingested;  // in ingest order
  // folded[g]: edges ingested before generation g was published; a job's
  // snapshot (g, d) is the base graph plus the first folded[g] + d of them.
  std::vector<std::uint64_t> folded = {0};
  std::vector<std::string> errors;
};

void run_writer(serve::JobManager& mgr, ingest::EdgeIngestor& ingestor,
                const WriterPlan& plan, double hz, Clock::time_point t0,
                WriterLog& log, Trace& trace, std::uint64_t parent) {
  std::size_t k = 0, c = 0;
  for (;;) {
    const double batch_s = static_cast<double>(k) / hz;
    const double compact_s =
        c < plan.compact_at_s.size() ? plan.compact_at_s[c] : 1e300;
    const double at = std::min(batch_s, compact_s);
    if (at >= plan.end_s || (k >= plan.batches.size() && c >= plan.compact_at_s.size()))
      return;
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(at)));
    try {
      if (compact_s <= batch_s) {
        ++c;
        timed_compact(mgr, log.ingest, trace, parent, 2);
        log.folded.push_back(log.ingested.size());
      } else {
        const std::vector<graph::Edge>& batch = plan.batches[k++];
        if (!timed_ingest(mgr, ingestor, batch, log.ingest, trace, parent, 2))
          log.errors.push_back("ingest: batch not fully accepted");
        log.ingested.insert(log.ingested.end(), batch.begin(), batch.end());
      }
    } catch (const std::exception& e) {
      log.errors.push_back(std::string("writer: ") + e.what());
    }
  }
}

// BFS/WCC digests of a fixed sample of jobs against references rebuilt over
// each job's own snapshot.
void verify_snapshots(serve::JobManager& mgr, const std::vector<Job>& jobs,
                      const graph::EdgeList& base, const WriterLog& wlog,
                      Tally& tally) {
  std::size_t seen = 0, checked = 0;
  for (const Job& j : jobs) {
    if (j.kind != JobKind::kBfs && j.kind != JobKind::kWcc) continue;
    if (seen++ % 4 != 0 || checked >= 12) continue;
    if (!j.finished || j.state != "done") continue;  // counted elsewhere
    ++checked;
    const std::uint64_t prefix =
        (j.generation < wlog.folded.size() ? wlog.folded[j.generation] : ~0ull) +
        j.delta_edges;
    if (prefix > wlog.ingested.size()) {
      tally.fail("job " + std::to_string(j.id) + ": snapshot beyond the write log");
      continue;
    }
    const graph::EdgeList snap = with_edges(
        base, std::span<const graph::Edge>(wlog.ingested.data(), prefix));
    std::uint32_t want = 0;
    if (j.kind == JobKind::kBfs) {
      const auto d = algo::ref_bfs(snap, j.vertex);
      want = crc32(d.data(), d.size() * sizeof(d[0]));
    } else {
      const auto l = algo::ref_wcc(snap);
      want = crc32(l.data(), l.size() * sizeof(l[0]));
    }
    const Json r = mgr.result(j.id);
    const auto got = r.at("result").at("digest").as_uint();
    tally.check(got == want, "job " + std::to_string(j.id) + " (" +
                                 serve::to_string(j.kind) +
                                 ") digest differs from its snapshot's reference");
  }
  if (checked == 0) tally.fail("serve: no job sampled for digest checks");
}

std::string phase_name(int p) {
  static const char* names[] = {"low", "mid", "high"};
  return names[p];
}

void run_serve(const ServeSpec& spec, const Args& args, Trace& trace,
               Report& rep, Tally& tally, std::string& details) {
  const std::uint64_t root_span = trace.begin(spec.name, "bench", 0);
  io::TempDir dir("perfbench");
  double start[4] = {0, 0, 0, 0}, len[3];
  for (int p = 0; p < 3; ++p) {
    len[p] = spec.shares[p] * args.seconds;
    start[p + 1] = start[p] + len[p];
  }
  const double end_s = start[3];
  const io::DeviceConfig dev = device_config(false);
  Xoshiro256 rng(args.seed * 0x9e3779b97f4a7c15ULL + 17);

  // Inputs: the jobs and the new-edge batches, drawn from the seed before
  // anything is timed.
  graph::EdgeList el = kron_graph(spec.scale, spec.edge_factor, kDatasetSeed);
  const vid_t root = bench::hub_root(el);
  // Job roots come from the hub's component: a root in a two-vertex tree
  // finishes in one sweep, and mixing both kinds makes medians bimodal.
  std::vector<vid_t> pool;
  {
    const std::vector<vid_t> label = algo::ref_wcc(el);
    for (vid_t v = 0; v < label.size(); ++v)
      if (label[v] == label[root]) pool.push_back(v);
  }
  std::vector<Job> warm = plan_jobs(spec.rates, start, &spec.warmup_s, 1, pool, rng);
  std::vector<Job> jobs = plan_jobs(spec.rates, start, len, 3, pool, rng);
  WriterPlan wplan;
  wplan.end_s = end_s;
  for (int p = 0; p < 3; ++p) wplan.compact_at_s.push_back(start[p] + len[p] / 2);
  {
    FreshEdges fresh(el, args.seed ^ 0x5eed);
    const auto n = static_cast<std::size_t>(std::ceil(wplan.end_s * spec.batch_hz));
    for (std::size_t k = 0; k < n; ++k)
      wplan.batches.push_back(fresh.draw(spec.batch_edges));
  }

  SetupTimes setup;
  std::string base;
  ingest::IngestorOptions io_opts;
  io_opts.device = dev;
  auto ingestor = set_up<std::unique_ptr<ingest::EdgeIngestor>>(
      trace, root_span, dir, el, spec.tile_bits, setup, base,
      [&](const std::string& b) {
        return std::make_unique<ingest::EdgeIngestor>(b, io_opts);
      });
  const tile::TileStore& store0 = ingestor->store();
  const double bytes_per_edge = static_cast<double>(store0.storage_bytes()) /
                                static_cast<double>(store0.edge_count());
  const std::string sizes = "\"vertices\": " + std::to_string(store0.vertex_count()) +
                            ", \"stored_edges\": " + std::to_string(store0.edge_count()) +
                            ", \"tiles\": " + std::to_string(store0.meta().tile_count);
  el = graph::EdgeList();  // kept out of mem_mb; regenerated for the checks

  serve::JobManager mgr(*ingestor, manager_options(store0, spec.memory_fraction,
                                                   spec.max_gang, dev));
  mgr.start();
  {
    Scope w(trace, "warmup", "bench", root_span);
    const Clock::time_point t0 = Clock::now();
    drive_jobs(mgr, warm, t0, t0 + std::chrono::seconds(60),
               spec.pagerank_iterations, trace, w.id());
  }

  MemoryWatch mem;
  const Json before = mgr.stats();
  WriterLog wlog;
  const std::uint64_t timed = trace.begin("timed", "bench", root_span);
  const Clock::time_point t0 = Clock::now();
  std::thread writer([&] {
    run_writer(mgr, *ingestor, wplan, spec.batch_hz, t0, wlog, trace, timed);
  });
  drive_jobs(mgr, jobs, t0, t0 + std::chrono::seconds(static_cast<int>(end_s) + 60),
             spec.pagerank_iterations, trace, timed);
  writer.join();
  const auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  std::this_thread::sleep_until(at(end_s));  // the phases always run out
  const Clock::time_point t_end = Clock::now();
  for (int p = 0; p < 3; ++p)
    trace.add("phase." + phase_name(p), "bench", timed, at(start[p]),
              at(start[p + 1]));
  trace.add("drain", "bench", timed, at(end_s), t_end);
  trace.end(timed);
  mem.finish();
  const Json after = mgr.stats();

  // Latency per kind below capacity (low and mid rates); capacity from the
  // high-rate phase and its drain.
  std::map<JobKind, std::vector<double>> under_ms;
  std::vector<double> phase_ms[3];
  double high_edges = 0;
  std::size_t high_jobs = 0;
  Clock::time_point high_last = t0;
  double lag_max = 0;
  std::size_t backlog[3] = {0, 0, 0};
  for (const Job& j : jobs) {
    lag_max = std::max(lag_max, j.lag_s);
    const double phase_end = start[j.phase + 1];
    if (j.due_s < phase_end && (!j.finished || seconds_between(t0, j.done) > phase_end))
      ++backlog[j.phase];
    if (j.rejected) {
      tally.fail("job rejected (queue full)");
      continue;
    }
    if (!j.finished) {
      tally.fail("job " + std::to_string(j.id) + " unfinished at the deadline");
      continue;
    }
    if (j.state != "done") {
      tally.fail("job " + std::to_string(j.id) + " " + j.state);
      continue;
    }
    tally.ok();
    phase_ms[j.phase].push_back(j.latency_s * 1e3);
    if (j.phase < 2) under_ms[j.kind].push_back(j.latency_s * 1e3);
    if (j.phase == 2) {
      high_edges += static_cast<double>(j.edges);
      ++high_jobs;
      high_last = std::max(high_last, j.done);
    }
  }
  // Each ingest and compaction is one attempt; the writer logged failures.
  const std::size_t writes =
      wlog.ingest.ingest_ms.size() + wlog.ingest.compact_s.size();
  for (std::size_t k = wlog.errors.size(); k < writes; ++k) tally.ok();
  for (const std::string& e : wlog.errors) tally.fail(e);

  const double high_s = std::max(seconds_between(t0, high_last) - start[2], 1e-9);
  rep.add_median("setup_s", "s", setup.total_s);
  const std::pair<const char*, JobKind> kinds[] = {{"bfs_ms", JobKind::kBfs},
                                                   {"pagerank_ms", JobKind::kPageRank},
                                                   {"wcc_ms", JobKind::kWcc},
                                                   {"sssp_ms", JobKind::kSssp}};
  for (const auto& [name, kind] : kinds)
    if (!rep.add_median(name, "ms", under_ms[kind]))
      tally.fail(std::string("no sample below capacity for ") + name);
  if (!rep.add_median("update_ms", "ms", wlog.ingest.ingest_ms))
    tally.fail("no ingest sample");
  rep.add("medges_per_s", "Medges/s", high_edges / 1e6 / high_s, high_jobs);
  rep.add("store_bytes_per_edge", "B/edge", bytes_per_edge);
  rep.add("mem_mb", "MiB", mem.live_mib(0.5, 0, start[2]));

  double rate_ok = 0;
  std::string per_phase;
  for (int p = 0; p < 3; ++p) {
    const double p95 = phase_ms[p].empty() ? 0 : quantile(phase_ms[p], 0.95);
    const double p50 = phase_ms[p].empty() ? 0 : quantile(phase_ms[p], 0.5);
    if (!phase_ms[p].empty() && p95 <= 2000 && backlog[p] <= spec.rates[p])
      rate_ok = std::max(rate_ok, spec.rates[p]);
    per_phase += (p ? ", \"" : "\"") + phase_name(p) + "\": {\"rate\": " +
                 num(spec.rates[p]) + ", \"jobs\": " +
                 std::to_string(phase_ms[p].size()) + ", \"p50_ms\": " + num(p50) +
                 ", \"p95_ms\": " + num(p95) +
                 ", \"backlog_end\": " + std::to_string(backlog[p]) + "}";
  }
  details = sizes + ", \"phases\": {" + per_phase + "}" +
            ", \"rate_ok_jobs_per_s\": " + num(rate_ok) +
            ", \"capacity_jobs_per_s\": " + num(high_jobs / high_s) +
            ", \"gen_lag_ms_max\": " + num(lag_max * 1e3) +
            ", \"compactions\": " + std::to_string(wlog.ingest.compact_s.size());

  const graph::EdgeList base_el =
      kron_graph(spec.scale, spec.edge_factor, kDatasetSeed);
  {
    Scope v(trace, "verify", "bench", root_span);
    verify_snapshots(mgr, jobs, base_el, wlog, tally);
    mgr.stop(true);
  }

  if (trace.on()) {
    rep.add("mem.peak_rss_mb", "MiB", mem.rss_mib());
    rep.add("mem.live_max_mb", "MiB", mem.live_mib(1.0, 0, start[2]));
    rep.add_median("tile.convert_s", "s", setup.convert_s);
    rep.add_median("tile.open_s", "s", setup.open_s);
    std::vector<Job> served;
    for (const Job& j : jobs)
      if (j.phase < 2) served.push_back(j);
    report_serve_layers(served, server_delta(before, after), high_jobs / high_s,
                        rep);
    report_ingest_layers(wlog.ingest, rep);

    // The gang path exposes no per-phase split, so the engine layers are
    // measured by one closed-loop pass over the final graph at the same
    // budget: the same five operations the other workloads time.
    Scope p(trace, "probes", "bench", root_span);
    mgr.compact();
    tile::TileStore final_store = tile::TileStore::open(base, dev);
    const graph::EdgeList final_el = with_edges(base_el, wlog.ingested);
    FreshEdges final_fresh(final_el, args.seed ^ 0xfeed);
    const Refs refs = make_refs(final_el, root, spec.pagerank_iterations,
                                {final_fresh.draw(kDeltaEdges)});
    PassRunner runner(final_store,
                      engine_config(final_store, spec.memory_fraction,
                                    ScheduleMode::kGrid),
                      refs, trace, tally);
    PassLog log;
    runner.pass(p.id(), &log);
    report_store_layers(log, rep);
    probe_memory_layers(final_store, root, spec.pagerank_iterations, trace,
                        p.id(), rep, tally);
  }
  trace.end(root_span);
}

// ---- main ------------------------------------------------------------------

bool parse_args(int argc, char** argv, Args& a) {
  for (int k = 1; k < argc; ++k) {
    std::string arg = argv[k];
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (arg != "--smoke" && k + 1 < argc) {
      value = argv[++k];
    }
    if (arg == "--workload") a.workload = value;
    else if (arg == "--seed") a.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--seconds") a.seconds = std::atof(value.c_str());
    else if (arg == "--trace-out") a.trace_out = value;
    else if (arg == "--work-dir") a.work_dir = value;
    else if (arg == "--smoke") a.smoke = true;
    else return false;
  }
  return !a.workload.empty() && a.seconds > 0;
}

int omp_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

int run(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: bench_gstore --workload=NAME --seed=N --seconds=S "
                 "[--trace-out=FILE] [--work-dir=DIR] [--smoke]\n"
                 "workloads: kron-ooc kron-incore band-rounds serve-mixed\n");
    return 2;
  }
  // Store files live under the work directory, never in the system temp dir.
  ::setenv("TMPDIR", args.work_dir.c_str(), 1);

  Trace trace(!args.trace_out.empty());
  Report rep;
  Tally tally;
  std::string details;
  const ClosedSpec* closed = nullptr;
  for (const ClosedSpec& s : args.smoke ? kClosedSmoke : kClosed)
    if (args.workload == s.name) closed = &s;
  const ServeSpec& serve_spec = args.smoke ? kServeSmoke : kServe;
  if (closed == nullptr && args.workload != serve_spec.name) {
    std::fprintf(stderr, "bench_gstore: unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  const Clock::time_point t0 = Clock::now();
  try {
    if (closed != nullptr)
      run_closed(*closed, args, trace, rep, tally, details);
    else
      run_serve(serve_spec, args, trace, rep, tally, details);
  } catch (const std::exception& e) {
    tally.fail(std::string("workload aborted: ") + e.what());
  }
  if (trace.on() && !trace.write(args.trace_out))
    tally.fail("cannot write trace " + args.trace_out);

  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"correct\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"wall_s\": %s, "
      "\"omp_threads\": %d, \"metrics\": %s, \"details\": {%s}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      tally.failed() == 0 ? "true" : "false",
      static_cast<unsigned long long>(tally.attempted()),
      static_cast<unsigned long long>(tally.failed()),
      num(seconds_between(t0, Clock::now())).c_str(), omp_threads(),
      rep.json().c_str(), details.c_str());
  std::fflush(stdout);
  return tally.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace gstore::perfbench

int main(int argc, char** argv) { return gstore::perfbench::run(argc, argv); }
