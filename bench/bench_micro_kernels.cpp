// Microbenchmarks (google-benchmark) for the hot kernels underneath the
// per-figure harnesses: SNB encode/decode, tile edge visitation in both
// tuple formats, the intra-tile compression codec (the paper's future-work
// extension), the cache model, and the degree-array representations.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "cachesim/cache_model.h"
#include "graph/degree.h"
#include "graph/generator.h"
#include "ingest/delta.h"
#include "tile/compress.h"
#include "tile/edge_block.h"
#include "tile/grid.h"
#include "tile/snb.h"
#include "tile/tile_file.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace gstore {
namespace {

std::vector<tile::SnbEdge> random_tile(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<tile::SnbEdge> edges(n);
  for (auto& e : edges) {
    e.src16 = static_cast<std::uint16_t>(rng.next_below(1 << 16));
    e.dst16 = static_cast<std::uint16_t>(rng.next_below(1 << 16));
  }
  return edges;
}

// Hub-shaped tile (few sources, sorted destinations) — the compressible case.
std::vector<tile::SnbEdge> hub_tile(std::size_t n) {
  std::vector<tile::SnbEdge> edges(n);
  for (std::size_t i = 0; i < n; ++i) {
    edges[i].src16 = static_cast<std::uint16_t>(i / 1024);
    edges[i].dst16 = static_cast<std::uint16_t>((i % 1024) * 7);
  }
  return edges;
}

void BM_SnbDecode(benchmark::State& state) {
  const auto edges = random_tile(static_cast<std::size_t>(state.range(0)), 1);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (const auto& e : edges) {
      const graph::Edge g = tile::snb_decode(e, 1 << 16, 2 << 16);
      sink += g.src + g.dst;
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * edges.size());
}
BENCHMARK(BM_SnbDecode)->Arg(1 << 12)->Arg(1 << 16);

void BM_VisitEdgesSnb(benchmark::State& state) {
  const auto edges = random_tile(static_cast<std::size_t>(state.range(0)), 2);
  tile::TileView v;
  v.src_base = 0;
  v.dst_base = 0;
  v.edges = edges;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    tile::visit_edges(v, [&](graph::vid_t a, graph::vid_t b) { sink += a + b; });
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * edges.size());
}
BENCHMARK(BM_VisitEdgesSnb)->Arg(1 << 16);

void BM_VisitEdgesFat(benchmark::State& state) {
  std::vector<graph::Edge> edges(static_cast<std::size_t>(state.range(0)));
  Xoshiro256 rng(3);
  for (auto& e : edges) {
    e.src = static_cast<graph::vid_t>(rng.next_below(1 << 20));
    e.dst = static_cast<graph::vid_t>(rng.next_below(1 << 20));
  }
  tile::TileView v;
  v.fat = true;
  v.fat_edges = edges;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    tile::visit_edges(v, [&](graph::vid_t a, graph::vid_t b) { sink += a + b; });
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * edges.size());
}
BENCHMARK(BM_VisitEdgesFat)->Arg(1 << 16);

// Pure SoA decode throughput: SNB tuples → widened vid_t arrays, no kernel.
// The contrast with BM_SnbDecode (scalar, interleaved) is the widening loop
// the compiler can vectorize.
void BM_EdgeBlockDecode(benchmark::State& state) {
  const auto edges = random_tile(static_cast<std::size_t>(state.range(0)), 7);
  tile::TileView v;
  v.src_base = 1 << 16;
  v.dst_base = 2 << 16;
  v.edges = edges;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    tile::for_each_block(v, [&](const tile::EdgeBlock& b) {
      sink += b.src[0] + b.dst[b.size - 1];
    });
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * edges.size());
}
BENCHMARK(BM_EdgeBlockDecode)->Arg(1 << 12)->Arg(1 << 16);

// v3 codec decode into the same EdgeBlock SoA path, one benchmark per
// codec. packed/random is the fair comparison against BM_EdgeBlockDecode:
// an incompressible tile forces 16-bit planes, so the decoder runs its
// widest (memcpy-like) unpacking — the acceptance bar is staying within
// 10% of the raw block path above. The hub-tile variants show what decode
// costs when a codec actually wins on size; hybrid_sparse is the Kron row
// shape.
struct CodecView {
  std::vector<std::uint8_t> payload;
  tile::TileView v;

  CodecView(tile::TileCodec codec, std::vector<tile::SnbEdge> edges) {
    std::sort(edges.begin(), edges.end());  // what the v3 writer does
    payload = tile::encode_tile_as(codec, edges);
    v.src_base = 1 << 16;
    v.dst_base = 2 << 16;
    v.set_payload(tile::parse_tile_payload(payload));
  }
};

// Kron-shaped tile: rows of 1-8 edges, about half of them single-edge, with
// 12-bit dsts. Real Kron tiles decode rows of 3.4 edges on average, so the
// per-row header chain, not the per-edge unpack, sets their decode cost.
std::vector<tile::SnbEdge> sparse_rows_tile(std::size_t n) {
  Xoshiro256 rng(11);
  std::vector<tile::SnbEdge> edges;
  edges.reserve(n);
  for (std::uint32_t src = 0; edges.size() < n; ++src) {
    const std::size_t len = rng.next_below(2) == 0 ? 1 : 2 + rng.next_below(7);
    for (std::size_t k = 0; k < len && edges.size() < n; ++k)
      edges.push_back({static_cast<std::uint16_t>(src),
                       static_cast<std::uint16_t>(rng.next_below(1 << 12))});
  }
  return edges;
}

enum class TileShape { kRandom, kHub, kSparseRows };

void BM_CodecBlockDecode(benchmark::State& state, tile::TileCodec codec,
                         TileShape shape) {
  const std::size_t n = 1 << 14;
  const CodecView cv(codec, shape == TileShape::kHub ? hub_tile(n)
                            : shape == TileShape::kSparseRows
                                ? sparse_rows_tile(n)
                                : random_tile(n, 7));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    tile::for_each_block(cv.v, [&](const tile::EdgeBlock& b) {
      sink += b.src[0] + b.dst[b.size - 1];
    });
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.counters["payload_bytes"] =
      static_cast<double>(cv.payload.size());
}
BENCHMARK_CAPTURE(BM_CodecBlockDecode, raw_random, tile::TileCodec::kRaw,
                  TileShape::kRandom);
BENCHMARK_CAPTURE(BM_CodecBlockDecode, packed_random, tile::TileCodec::kPacked,
                  TileShape::kRandom);
BENCHMARK_CAPTURE(BM_CodecBlockDecode, delta_hub, tile::TileCodec::kDelta,
                  TileShape::kHub);
BENCHMARK_CAPTURE(BM_CodecBlockDecode, packed_hub, tile::TileCodec::kPacked,
                  TileShape::kHub);
BENCHMARK_CAPTURE(BM_CodecBlockDecode, hybrid_hub, tile::TileCodec::kHybrid,
                  TileShape::kHub);
BENCHMARK_CAPTURE(BM_CodecBlockDecode, hybrid_sparse, tile::TileCodec::kHybrid,
                  TileShape::kSparseRows);

// The migration this path exists for: a per-vertex metadata gather (the shape
// of BFS depth checks / PageRank contribution reads) over tiles whose bases
// scatter across a working set far larger than the LLC. The per-edge variant
// interleaves decode + gather one edge at a time; the block variant decodes
// SoA, prefetches every gather address, then runs the flat kernel.
struct GatherFixture {
  static constexpr std::size_t kVertices = 1 << 26;  // 256 MiB of metadata
  static constexpr std::size_t kTiles = 256;
  static constexpr std::size_t kEdgesPerTile = 1 << 13;
  std::vector<std::uint32_t> meta;
  std::vector<std::vector<tile::SnbEdge>> tiles;
  std::vector<tile::TileView> views;

  GatherFixture() : meta(kVertices, 1) {
    Xoshiro256 rng(8);
    tiles.reserve(kTiles);
    views.reserve(kTiles);
    for (std::size_t t = 0; t < kTiles; ++t) {
      tiles.push_back(random_tile(kEdgesPerTile, 100 + t));
      tile::TileView v;
      v.src_base = static_cast<graph::vid_t>(
          rng.next_below(kVertices - (1ull << 16)));
      v.dst_base = static_cast<graph::vid_t>(
          rng.next_below(kVertices - (1ull << 16)));
      v.edges = tiles.back();
      views.push_back(v);
    }
  }
  std::size_t edges_total() const { return kTiles * kEdgesPerTile; }
};

void BM_VisitEdges_vs_ProcessBlock(benchmark::State& state, bool block) {
  static const GatherFixture fx;  // shared: 64 MiB built once
  const std::uint32_t* meta = fx.meta.data();
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (const tile::TileView& v : fx.views) {
      if (block) {
        tile::for_each_block(v, [&](const tile::EdgeBlock& b) {
          b.prefetch_src(meta);
          b.prefetch_dst(meta);
          for (std::uint32_t k = 0; k < b.size; ++k)
            sink += meta[b.src[k]] + meta[b.dst[k]];
        });
      } else {
        tile::visit_edges(v, [&](graph::vid_t a, graph::vid_t b) {
          sink += meta[a] + meta[b];
        });
      }
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.edges_total()));
}
BENCHMARK_CAPTURE(BM_VisitEdges_vs_ProcessBlock, per_edge, false);
BENCHMARK_CAPTURE(BM_VisitEdges_vs_ProcessBlock, block, true);

void BM_CompressHubTile(benchmark::State& state) {
  const auto edges = hub_tile(static_cast<std::size_t>(state.range(0)));
  std::size_t compressed = 0;
  for (auto _ : state) {
    auto payload = tile::compress_tile(edges);
    compressed = payload.size();
    benchmark::DoNotOptimize(payload);
  }
  state.SetItemsProcessed(state.iterations() * edges.size());
  state.counters["ratio"] =
      double(edges.size() * sizeof(tile::SnbEdge)) / double(compressed);
}
BENCHMARK(BM_CompressHubTile)->Arg(1 << 14);

void BM_DecompressHubTile(benchmark::State& state) {
  const auto payload =
      tile::compress_tile(hub_tile(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    auto edges = tile::decompress_tile(payload);
    benchmark::DoNotOptimize(edges);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecompressHubTile)->Arg(1 << 14);

void BM_CacheModelAccess(benchmark::State& state) {
  cachesim::CacheHierarchy cache(256 << 10, 16 << 20);
  Xoshiro256 rng(4);
  for (auto _ : state) {
    cache.access(rng.next_below(64ull << 20));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheModelAccess);

void BM_CompressedDegreeLookup(benchmark::State& state) {
  std::vector<graph::degree_t> deg(1 << 20, 9);
  for (int i = 0; i < 1000; ++i) deg[i * 1000] = 100000;
  const auto cd = graph::CompressedDegrees::build(deg);
  Xoshiro256 rng(5);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sink += cd[static_cast<graph::vid_t>(rng.next_below(deg.size()))];
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompressedDegreeLookup);

void BM_KroneckerGeneration(benchmark::State& state) {
  for (auto _ : state) {
    auto el = graph::kronecker(static_cast<unsigned>(state.range(0)), 8,
                               graph::GraphKind::kUndirected);
    benchmark::DoNotOptimize(el);
  }
  state.SetItemsProcessed(state.iterations() * (8ll << state.range(0)));
}
BENCHMARK(BM_KroneckerGeneration)->Arg(14)->Unit(benchmark::kMillisecond);

// WAL framing cost: every ingest batch is CRC'd before the fsync.
void BM_Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(state.range(0)));
  std::iota(buf.begin(), buf.end(), std::uint8_t{0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(1 << 12)->Arg(1 << 20);

// Delta-buffer insertion: tile lookup + SNB encode + degree bump per edge.
void BM_DeltaBufferAdd(benchmark::State& state) {
  constexpr graph::vid_t kN = 1 << 20;
  tile::TileStoreMeta meta;
  meta.flags = 1;  // symmetric, undirected
  meta.vertex_count = kN;
  meta.tile_bits = 12;
  const tile::Grid grid(kN, /*symmetric=*/true, 12, 8);
  Xoshiro256 rng(6);
  std::vector<graph::Edge> edges(1 << 14);
  for (auto& e : edges) {
    e.src = static_cast<graph::vid_t>(rng.next_below(kN));
    e.dst = static_cast<graph::vid_t>(rng.next_below(kN));
    if (e.src == e.dst) e.dst = (e.dst + 1) % kN;
  }
  for (auto _ : state) {
    ingest::DeltaBuffer delta(grid, meta, ~std::uint64_t{0});
    delta.add_batch(edges);
    benchmark::DoNotOptimize(delta.edge_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(edges.size()));
}
BENCHMARK(BM_DeltaBufferAdd)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gstore

// Custom main: default to machine-readable JSON next to the binary, so CI
// and scripts get BENCH_micro_kernels.json without extra flags. Any explicit
// --benchmark_out on the command line wins.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  std::string out_flag = "--benchmark_out=BENCH_micro_kernels.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
