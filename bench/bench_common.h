// Shared infrastructure for the per-table/per-figure benchmark binaries.
//
// Every binary prints the same rows/series its paper counterpart reports,
// at a machine-appropriate scale. Scale knobs:
//   GSTORE_BENCH_SCALE  — log2 vertex count for comparative runs (default 18)
//   GSTORE_BENCH_EF     — edge factor (default 16)
//   GSTORE_BENCH_BIG_SCALE — scale for the Table III large-graph run (default 20)
// Absolute seconds differ from the paper's 56-thread/8-SSD testbed; the
// reproduction target is each experiment's *shape* (see EXPERIMENTS.md).
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "graph/edge_list.h"
#include "graph/generator.h"
#include "io/device.h"
#include "io/file.h"
#include "store/scr_engine.h"
#include "tile/convert.h"
#include "tile/tile_file.h"
#include "util/options.h"
#include "util/timer.h"

namespace gstore::bench {

inline unsigned scale() {
  return static_cast<unsigned>(env_int("GSTORE_BENCH_SCALE", 18));
}
inline unsigned edge_factor() {
  return static_cast<unsigned>(env_int("GSTORE_BENCH_EF", 16));
}
inline unsigned big_scale() {
  return static_cast<unsigned>(env_int("GSTORE_BENCH_BIG_SCALE", 20));
}

// Emulated SSD-array profile used by I/O-bound comparisons so that results
// reflect the paper's disk-bound regime rather than this container's page
// cache. 256 MB/s ≈ one SATA SSD streaming tiles.
inline io::DeviceConfig one_ssd() {
  io::DeviceConfig d;
  d.devices = 1;
  d.per_device_bw = static_cast<std::uint64_t>(
      env_int("GSTORE_BENCH_SSD_MBPS", 128)) << 20;
  // Small bucket: a real disk cannot bank bandwidth while the CPU computes,
  // so idle credit must stay well below one segment's worth of bytes.
  d.burst_bytes = 64 << 10;
  return d;
}

// Tile geometry for comparative runs: sized so the grid has thousands of
// tiles (like the paper's 2^16-wide tiles over 10^8-10^9 vertices), which
// the SCR cache pool needs for useful granularity.
inline tile::ConvertOptions default_tile_opts() {
  tile::ConvertOptions o;
  const unsigned s = scale();
  o.tile_bits = s > 8 ? std::min(16u, s - 6) : 2;
  o.group_side = 8;
  return o;
}

// Root with the largest degree — BFS comparisons from a degenerate root
// (scrambled Kronecker leaves many zero-degree vertices) measure nothing.
inline graph::vid_t hub_root(const graph::EdgeList& el) {
  const auto deg = el.degrees();
  graph::vid_t best = 0;
  for (graph::vid_t v = 1; v < el.vertex_count(); ++v)
    if (deg[v] > deg[best]) best = v;
  return best;
}

struct NamedGraph {
  std::string name;
  graph::EdgeList el;
};

// The paper's graph collection mapped to offline stand-ins (DESIGN.md §3).
inline NamedGraph make_kron(unsigned s, unsigned ef, graph::GraphKind kind) {
  return {"Kron-" + std::to_string(s) + "-" + std::to_string(ef),
          graph::kronecker(s, ef, kind)};
}
inline NamedGraph make_twitterish(unsigned s, unsigned ef, graph::GraphKind kind) {
  return {"Twitter-like", graph::twitter_like(s, ef, kind)};
}
inline NamedGraph make_friendsterish(unsigned s, unsigned ef,
                                     graph::GraphKind kind) {
  // Friendster: social graph, flatter degree distribution than Twitter —
  // scrambled R-MAT at Graph500 parameters.
  return {"Friendster-like",
          graph::rmat(s, ef, kind, graph::RmatParams{0.57, 0.19, 0.19}, 99,
                      /*scramble=*/true)};
}
inline NamedGraph make_subdomainish(unsigned s, unsigned ef,
                                    graph::GraphKind kind) {
  // Subdomain web graph: strong id locality (pages of one site are numbered
  // together) — unscrambled, heavily diagonal R-MAT.
  return {"Subdomain-like",
          graph::rmat(s, ef, kind, graph::RmatParams{0.65, 0.15, 0.15}, 7,
                      /*scramble=*/false)};
}

// Converts into `dir` and opens with the given device profile.
inline tile::TileStore open_store(const io::TempDir& dir, const graph::EdgeList& el,
                                  tile::ConvertOptions copt = {},
                                  io::DeviceConfig dev = {},
                                  const std::string& name = "g") {
  tile::convert_to_tiles(el, dir.file(name), copt);
  return tile::TileStore::open(dir.file(name), dev);
}

// Engine config scaled to a fraction of the on-disk graph size.
inline store::EngineConfig engine_config_fraction(const tile::TileStore& store,
                                                  double fraction) {
  store::EngineConfig cfg;
  cfg.stream_memory_bytes = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(store.data_bytes() * fraction), 64 << 10);
  cfg.segment_bytes = std::max<std::uint64_t>(cfg.stream_memory_bytes / 8, 8 << 10);
  return cfg;
}

// The faster of two runs, in seconds: `timed_run` does its own setup, then
// times one run and returns the seconds. On a shared host an OpenMP worker
// can be left off the CPU for about the first second of a process's
// parallel regions, so each region waits whole 4 ms scheduler ticks instead
// of microseconds. A bare OpenMP program with no G-Store code stalled that
// way in 2 of 22 processes, and in bench_fig09_vs_xstream (scale 16) the
// first Kron BFS then took 1.0-1.15 s instead of 0.035 s, a 0.5x speed-up
// where the true figure is about 17x. A stall is the host's cost, not the
// engine's, so the comparative benches time each engine this way. It does
// not always hide the stall, which can reach into the second run.
// perfbench does not call this: its metrics are medians over many
// processes, and its timing changes only with the benchmark.
template <typename TimedRun>
double faster_of_two(TimedRun&& timed_run) {
  const double first = timed_run();
  return std::min(first, timed_run());
}

// ---- tiny fixed-width table printer ---------------------------------------

class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  Table& row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
    return *this;
  }

  void print() const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
    for (const auto& r : rows_)
      for (std::size_t c = 0; c < r.size() && c < width.size(); ++c)
        width[c] = std::max(width[c], r[c].size());
    auto print_row = [&](const std::vector<std::string>& r) {
      for (std::size_t c = 0; c < r.size(); ++c)
        std::printf("%-*s  ", static_cast<int>(width[c]), r[c].c_str());
      std::printf("\n");
    };
    print_row(headers_);
    for (const auto& r : rows_) print_row(r);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int decimals = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}
inline std::string fmt_bytes(std::uint64_t bytes) {
  char buf[64];
  if (bytes >= (1ull << 40))
    std::snprintf(buf, sizeof(buf), "%.2fTB", bytes / double(1ull << 40));
  else if (bytes >= (1ull << 30))
    std::snprintf(buf, sizeof(buf), "%.2fGB", bytes / double(1ull << 30));
  else if (bytes >= (1ull << 20))
    std::snprintf(buf, sizeof(buf), "%.2fMB", bytes / double(1ull << 20));
  else
    std::snprintf(buf, sizeof(buf), "%.1fKB", bytes / 1024.0);
  return buf;
}

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

}  // namespace gstore::bench
