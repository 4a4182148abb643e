// Randomized property tests: engine-configuration invariance, format
// round-trips, and data-structure invariants under random operation
// sequences. Seeds are fixed — failures reproduce deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "algo/bfs.h"
#include "algo/cc.h"
#include "algo/pagerank.h"
#include "algo/reference.h"
#include "graph/degree.h"
#include "graph/generator.h"
#include "ingest/delta.h"
#include "io/tiering.h"
#include "store/cache_pool.h"
#include "store/scr_engine.h"
#include "test_util.h"
#include "tile/compress.h"
#include "tile/edge_block.h"
#include "tile/grid.h"
#include "tile/snb.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace gstore {
namespace {

using graph::EdgeList;
using graph::GraphKind;
using graph::vid_t;

// ---- engine-config invariance ----------------------------------------------
//
// Whatever the memory budget, segment size, policy, overlap mode, or device
// emulation, results must be identical. One graph, many random configs.

class RandomConfigTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomConfigTest, ResultsInvariantToEngineConfig) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);

  auto el = graph::kronecker(9, 5, GraphKind::kUndirected,
                             1000 + GetParam());
  el.normalize();
  io::TempDir dir;
  tile::ConvertOptions copt;
  copt.tile_bits = static_cast<unsigned>(4 + rng.next_below(5));  // 4..8
  copt.group_side = static_cast<std::uint32_t>(1 + rng.next_below(6));
  auto store = gstore::testing::make_store(dir, el, copt);

  const auto want_bfs = algo::ref_bfs(el, 0);
  const auto want_pr = algo::ref_pagerank(el, 3);

  for (int trial = 0; trial < 4; ++trial) {
    store::EngineConfig cfg;
    cfg.stream_memory_bytes = 4096 + rng.next_below(512 << 10);
    cfg.segment_bytes = 512 + rng.next_below(64 << 10);
    cfg.policy = static_cast<store::CachePolicyKind>(rng.next_below(3));
    cfg.rewind = rng.next_below(2) == 0;
    cfg.overlap_io = rng.next_below(2) == 0;

    algo::TileBfs bfs(0);
    store::ScrEngine(store, cfg).run(bfs);
    for (vid_t v = 0; v < el.vertex_count(); ++v)
      ASSERT_EQ(bfs.depth()[v], want_bfs[v])
          << "trial " << trial << " mem=" << cfg.stream_memory_bytes
          << " seg=" << cfg.segment_bytes;

    algo::TilePageRank pr(algo::PageRankOptions{0.85, 3, 0.0});
    store::ScrEngine(store, cfg).run(pr);
    for (vid_t v = 0; v < el.vertex_count(); ++v)
      ASSERT_NEAR(pr.ranks()[v], want_pr[v], 1e-4) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomConfigTest, ::testing::Range(0, 6));

// ---- block decode equals per-edge decode ------------------------------------
//
// for_each_block() is the hot path; visit_edges() is the oracle. Whatever the
// tile geometry, tuple format, or overlay splicing, both must visit the same
// edge multiset — and the block metadata (view/first/size) must tile the view
// exactly.

using EdgeMultiset = std::multiset<std::pair<vid_t, vid_t>>;

EdgeMultiset per_edge_multiset(const tile::TileView& v) {
  EdgeMultiset out;
  tile::visit_edges(v, [&](vid_t a, vid_t b) { out.insert({a, b}); });
  return out;
}

EdgeMultiset block_multiset(const tile::TileView& v) {
  EdgeMultiset out;
  std::size_t covered = 0;
  tile::for_each_block(v, [&](const tile::EdgeBlock& b) {
    EXPECT_EQ(b.view, &v);
    EXPECT_EQ(b.first, covered);
    EXPECT_GT(b.size, 0u);
    EXPECT_LE(b.size, tile::EdgeBlock::kMaxEdges);
    covered += b.size;
    for (std::uint32_t k = 0; k < b.size; ++k) out.insert({b.src[k], b.dst[k]});
  });
  EXPECT_EQ(covered, v.edge_count());
  return out;
}

TEST(PropertyEdgeBlock, BlockAndPerEdgeVisitIdenticalMultisets) {
  for (unsigned tb = 4; tb <= 16; ++tb) {
    const vid_t n = static_cast<vid_t>((3u << tb) + 17);  // ragged tile rows
    const std::uint64_t m = std::min<std::uint64_t>(2 * n, 60'000);
    auto el = graph::uniform_random(n, m, GraphKind::kDirected, 600 + tb);
    io::TempDir dir;
    tile::ConvertOptions o;
    o.tile_bits = tb;
    o.snb = tb % 3 != 0;  // exercise the fat-tuple branch too
    auto store = gstore::testing::make_store(dir, el, o);

    // Overlay splicing only exists for SNB stores.
    std::unique_ptr<ingest::DeltaBuffer> delta;
    if (o.snb) {
      delta = std::make_unique<ingest::DeltaBuffer>(store.grid(), store.meta(),
                                                    1 << 20);
      auto extra = graph::uniform_random(n, 500, GraphKind::kDirected, 900 + tb);
      delta->add_batch(extra.edges());
      store.attach_overlay(delta.get());
    }

    std::vector<std::uint8_t> buf;
    for (std::uint64_t k = 0; k < store.grid().tile_count(); ++k) {
      const std::uint64_t bytes = store.tile_bytes(k);
      if (bytes > 0) {
        buf.resize(bytes);
        store.read_range(k, k + 1, buf.data());
      }
      const tile::TileView v = store.view(k, bytes > 0 ? buf.data() : nullptr);
      // Base tile, no overlay splicing.
      ASSERT_EQ(block_multiset(v), per_edge_multiset(v))
          << "tile_bits " << tb << " tile " << k;
      // Spliced overlay view, the way the engine builds it in process_one.
      if (delta != nullptr) {
        const std::span<const tile::SnbEdge> extra = delta->tile_edges(k);
        if (extra.empty()) continue;
        const tile::TileView ov = tile::splice_view(v, extra);
        ASSERT_EQ(block_multiset(ov), per_edge_multiset(ov))
            << "overlay tile_bits " << tb << " tile " << k;
      }
    }
  }
}

// Kron-like tile rows: 1-5 edges per source, about half of them single-edge,
// with scattered dsts, so kHybrid packs nearly every row at the tile's full
// width. Once the tile passes 512 edges, the row starting at edge 508 holds 5
// edges and so crosses the first 512-edge block. The last row is short, so
// it starts within 8 bytes of the body end, where the 8-byte short-row
// window does not fit.
std::vector<tile::SnbEdge> kron_rows(Xoshiro256& rng, unsigned tb) {
  const std::uint32_t width = 1u << tb;
  const std::uint32_t rows = std::min<std::uint32_t>(width, 400);
  const std::uint32_t stride = width / rows;
  std::vector<tile::SnbEdge> edges;
  for (std::uint32_t r = 0; r < rows; ++r) {
    std::size_t len = rng.next_below(2) == 0 ? 1 : 2 + rng.next_below(4);
    if (edges.size() < 508 && edges.size() + len > 508)
      len = 508 - edges.size();
    if (edges.size() == 508) len = 5;
    if (r + 1 == rows) len = 1 + rng.next_below(2);
    const auto src =
        static_cast<std::uint16_t>(r * stride + rng.next_below(stride));
    std::set<std::uint16_t> dsts;
    if (r == 0) dsts.insert(static_cast<std::uint16_t>(width - 1));
    while (dsts.size() < len)
      dsts.insert(static_cast<std::uint16_t>(rng.next_below(width)));
    for (const std::uint16_t d : dsts) edges.push_back({src, d});
  }
  return edges;
}

// Every codec — forced, not just whatever compress_tile picked — must push
// the same edge multiset through the block path, the per-edge path, and an
// overlay splice, at every tile width the grid supports, for two shapes:
// uniform scatter and Kron-like short rows.
TEST(PropertyEdgeBlock, EveryCodecMatchesRawBlocksAcrossTileBits) {
  Xoshiro256 rng(2026);
  Xoshiro256 kron_rng(2027);
  for (unsigned tb = 4; tb <= 16; ++tb) {
    const std::uint64_t width = std::uint64_t{1} << tb;
    std::vector<tile::SnbEdge> scatter(1 + rng.next_below(700));
    for (auto& e : scatter) {
      e.src16 = static_cast<std::uint16_t>(rng.next_below(width));
      e.dst16 = static_cast<std::uint16_t>(rng.next_below(width));
    }
    const std::vector<tile::SnbEdge> kron = kron_rows(kron_rng, tb);
    if (tb >= 9) {  // the planted 5-edge row spans edges 508..512
      ASSERT_GT(kron.size(), 512u) << "tile_bits " << tb;
      ASSERT_NE(kron[507].src16, kron[508].src16) << "tile_bits " << tb;
      ASSERT_EQ(kron[508].src16, kron[512].src16) << "tile_bits " << tb;
    }
    for (std::vector<tile::SnbEdge> edges : {scatter, kron}) {
      std::sort(edges.begin(), edges.end());
      const vid_t src_base = static_cast<vid_t>(width * (1 + tb % 3));
      const vid_t dst_base = static_cast<vid_t>(width * (2 + tb % 5));
      EdgeMultiset want;
      for (const auto& e : edges)
        want.insert({src_base + e.src16, dst_base + e.dst16});
      std::vector<tile::SnbEdge> extra(edges.begin(),
                                       edges.begin() + edges.size() / 2);
      EdgeMultiset overlay_want;
      for (const auto& e : extra)
        overlay_want.insert({src_base + e.src16, dst_base + e.dst16});

      for (unsigned c = 0; c < tile::kTileCodecCount; ++c) {
        const auto codec = static_cast<tile::TileCodec>(c);
        const auto payload = tile::encode_tile_as(codec, edges);
        const tile::TileCodecInfo info = tile::parse_tile_payload(payload);
        ASSERT_EQ(info.codec, codec);
        ASSERT_EQ(info.edge_count, edges.size());

        tile::TileView v;
        v.src_base = src_base;
        v.dst_base = dst_base;
        v.set_payload(info);

        ASSERT_EQ(block_multiset(v), want) << "codec " << c << " tile_bits "
                                           << tb << " edges " << edges.size();
        ASSERT_EQ(per_edge_multiset(v), want) << "codec " << c << " tile_bits "
                                              << tb << " edges "
                                              << edges.size();
        if (!extra.empty()) {
          const tile::TileView ov = tile::splice_view(v, extra);
          ASSERT_EQ(block_multiset(ov), overlay_want)
              << "overlay codec " << c << " tile_bits " << tb;
        }
      }
    }
  }
}

// The v3 store and an uncompressed v2 store of the same graph must be
// indistinguishable through the block path — with and without an attached
// overlay — at every tile width.
TEST(PropertyEdgeBlock, CompressedStoreMatchesRawStoreWithOverlay) {
  for (unsigned tb = 4; tb <= 16; tb += 3) {
    const vid_t n = static_cast<vid_t>((3u << tb) + 17);
    const std::uint64_t m = std::min<std::uint64_t>(2 * n, 60'000);
    auto el = graph::uniform_random(n, m, GraphKind::kDirected, 1300 + tb);
    io::TempDir dir;
    tile::ConvertOptions o;
    o.tile_bits = tb;
    auto coded = gstore::testing::make_store(dir, el, o, {}, "coded");
    tile::ConvertOptions rawo = o;
    rawo.compress = false;
    auto raw = gstore::testing::make_store(dir, el, rawo, {}, "raw");
    ASSERT_EQ(coded.meta().version, 3u);
    ASSERT_TRUE(coded.packed_payloads());
    ASSERT_EQ(raw.meta().version, 2u);
    ASSERT_FALSE(raw.packed_payloads());

    auto extra = graph::uniform_random(n, 500, GraphKind::kDirected, 1700 + tb);
    ingest::DeltaBuffer dc(coded.grid(), coded.meta(), 1 << 20);
    dc.add_batch(extra.edges());
    coded.attach_overlay(&dc);
    ingest::DeltaBuffer dr(raw.grid(), raw.meta(), 1 << 20);
    dr.add_batch(extra.edges());
    raw.attach_overlay(&dr);

    ASSERT_EQ(coded.grid().tile_count(), raw.grid().tile_count());
    std::vector<std::uint8_t> cbuf, rbuf;
    for (std::uint64_t k = 0; k < coded.grid().tile_count(); ++k) {
      ASSERT_EQ(coded.tile_edge_count(k), raw.tile_edge_count(k));
      const std::uint64_t cb = coded.tile_bytes(k);
      const std::uint64_t rb = raw.tile_bytes(k);
      if (cb > 0) {
        cbuf.resize(cb);
        coded.read_range(k, k + 1, cbuf.data());
      }
      if (rb > 0) {
        rbuf.resize(rb);
        raw.read_range(k, k + 1, rbuf.data());
      }
      const tile::TileView cv = coded.view(k, cb > 0 ? cbuf.data() : nullptr);
      const tile::TileView rv = raw.view(k, rb > 0 ? rbuf.data() : nullptr);
      ASSERT_EQ(block_multiset(cv), block_multiset(rv))
          << "tile_bits " << tb << " tile " << k;
      const std::span<const tile::SnbEdge> ce = dc.tile_edges(k);
      const std::span<const tile::SnbEdge> re = dr.tile_edges(k);
      ASSERT_EQ(ce.size(), re.size());
      if (!ce.empty()) {
        ASSERT_EQ(block_multiset(tile::splice_view(cv, ce)),
                  block_multiset(tile::splice_view(rv, re)))
            << "overlay tile_bits " << tb << " tile " << k;
      }
    }
  }
}

// Backward compat: stores written under the v1/v2 formats (single start-edge
// index, raw SNB payloads) still open and decode the same multiset the v3
// writer produces for the same graph.
TEST(PropertyFormatCompat, LegacyStoresDecodeIdenticallyToV3) {
  auto el = graph::uniform_random(900, 4'000, GraphKind::kDirected, 77);
  io::TempDir dir;
  tile::ConvertOptions o;
  o.tile_bits = 8;
  auto v3 = gstore::testing::make_store(dir, el, o, {}, "v3");
  tile::ConvertOptions rawo = o;
  rawo.compress = false;
  auto v2 = gstore::testing::make_store(dir, el, rawo, {}, "v2");
  // A v1 store is a v2 store whose headers predate the generation field:
  // version byte 1, generation bytes zero (they were reserved zeros).
  tile::convert_to_tiles(el, dir.file("v1"), rawo);
  auto patch32 = [](const std::string& path, std::uint64_t off,
                    std::uint32_t val) {
    io::File f(path, io::OpenMode::kReadWrite);
    f.pwrite_full(&val, sizeof(val), off);
  };
  patch32(tile::TileStore::sei_path(dir.file("v1")), 8, 1);
  patch32(tile::TileStore::sei_path(dir.file("v1")), 48, 0);
  patch32(tile::TileStore::tiles_path(dir.file("v1")), 8, 1);
  auto v1 = tile::TileStore::open(dir.file("v1"));

  ASSERT_EQ(v3.meta().version, 3u);
  ASSERT_EQ(v2.meta().version, 2u);
  ASSERT_EQ(v1.meta().version, 1u);

  auto edges_of = [](tile::TileStore& s) {
    auto v = gstore::testing::decode_all_edges(s);
    std::sort(v.begin(), v.end(), [](const graph::Edge& a,
                                     const graph::Edge& b) {
      return a.src != b.src ? a.src < b.src : a.dst < b.dst;
    });
    return v;
  };
  const auto want = edges_of(v3);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(edges_of(v2), want);
  EXPECT_EQ(edges_of(v1), want);
}

// ---- conversion round-trip over random graphs -------------------------------

TEST(PropertyConvert, RandomGraphsSurviveRoundTrip) {
  Xoshiro256 rng(424242);
  for (int trial = 0; trial < 12; ++trial) {
    const vid_t n = static_cast<vid_t>(2 + rng.next_below(400));
    const std::uint64_t m = rng.next_below(4 * n + 1);
    const GraphKind kind =
        rng.next_below(2) ? GraphKind::kUndirected : GraphKind::kDirected;
    auto el = graph::uniform_random(n, m, kind, 99 + trial);

    io::TempDir dir;
    tile::ConvertOptions o;
    o.tile_bits = static_cast<unsigned>(1 + rng.next_below(8));
    o.group_side = static_cast<std::uint32_t>(1 + rng.next_below(5));
    o.snb = rng.next_below(2) == 0;
    auto store = gstore::testing::make_store(dir, el, o);

    // The decoded multiset must equal the canonicalized input multiset.
    std::multiset<std::pair<vid_t, vid_t>> want;
    for (graph::Edge e : el.edges()) {
      if (e.src == e.dst) continue;
      if (kind == GraphKind::kUndirected && e.src > e.dst)
        std::swap(e.src, e.dst);
      want.insert({e.src, e.dst});
    }
    std::multiset<std::pair<vid_t, vid_t>> have;
    for (const graph::Edge& e : gstore::testing::decode_all_edges(store))
      have.insert({e.src, e.dst});
    ASSERT_EQ(have, want) << "trial " << trial << " n=" << n << " m=" << m;
  }
}

// ---- WCC equals reference on random sparse graphs ---------------------------

TEST(PropertyWcc, RandomSparseGraphs) {
  for (int trial = 0; trial < 8; ++trial) {
    auto el = graph::uniform_random(300, 200 + 40u * trial,
                                    GraphKind::kUndirected, 5 + trial);
    io::TempDir dir;
    tile::ConvertOptions o;
    o.tile_bits = 5;
    auto store = gstore::testing::make_store(dir, el, o);
    algo::TileWcc wcc;
    store::ScrEngine(store).run(wcc);
    const auto want = algo::ref_wcc(el);
    for (vid_t v = 0; v < el.vertex_count(); ++v)
      ASSERT_EQ(wcc.labels()[v], want[v]) << "trial " << trial;
  }
}

// ---- compression codec fuzz -------------------------------------------------

TEST(PropertyCompress, RoundTripsArbitraryTiles) {
  Xoshiro256 rng(777);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<tile::SnbEdge> edges(rng.next_below(300));
    // Mix of shapes: clustered rows, duplicates, extremes.
    const std::uint32_t row_spread = 1 + static_cast<std::uint32_t>(
                                             rng.next_below(1 << 16));
    for (auto& e : edges) {
      e.src16 = static_cast<std::uint16_t>(rng.next_below(row_spread));
      e.dst16 = static_cast<std::uint16_t>(rng.next_below(1 << 16));
    }
    if (!edges.empty() && trial % 3 == 0) {
      edges.push_back(edges.front());  // duplicates
      edges.push_back({0xffff, 0xffff});
      edges.push_back({0, 0});
    }
    auto payload = tile::compress_tile(edges);
    auto back = tile::decompress_tile(payload);
    // Order-preserving round trip: compress_tile never reorders.
    ASSERT_EQ(back, edges) << "trial " << trial;
  }
}

// ---- cache pool invariants under random operations ---------------------------

TEST(PropertyCachePool, InvariantsHoldUnderRandomOps) {
  Xoshiro256 rng(31337);
  store::CachePool pool(10'000);
  std::map<std::uint64_t, std::size_t> shadow;  // idx -> size
  const store::BufferPin blob =
      gstore::testing::pin_copy(std::vector<std::uint8_t>(2'000, 0x5c));

  for (int op = 0; op < 3000; ++op) {
    const std::uint64_t idx = rng.next_below(40);
    switch (rng.next_below(4)) {
      case 0: {  // insert
        const std::size_t sz = rng.next_below(1'500);
        const std::size_t old = shadow.count(idx) ? shadow[idx] : 0;
        const std::uint64_t used_without = pool.used() - old;
        const bool fits = used_without + sz <= pool.budget();
        const bool ok = pool.insert_pinned(idx, blob, sz);
        ASSERT_EQ(ok, fits) << "op " << op;
        if (ok) {
          shadow[idx] = sz;
        } else {
          shadow.erase(idx);  // failed insert erases the old entry
        }
        break;
      }
      case 1:  // erase
        pool.erase(idx);
        shadow.erase(idx);
        break;
      case 2:  // touch
        pool.touch(idx);
        break;
      case 3: {  // evict
        const std::uint64_t need = rng.next_below(4'000);
        pool.evict_lru(need);
        // Rebuild the shadow from the pool (eviction picks by recency,
        // which the shadow does not model).
        std::map<std::uint64_t, std::size_t> rebuilt;
        pool.for_each_entry([&](const store::CachePool::Entry& e) {
          rebuilt[e.layout_idx] = e.bytes;
        });
        shadow = std::move(rebuilt);
        ASSERT_GE(pool.free_bytes() + 0, 0u);
        break;
      }
    }
    // Invariants after every operation.
    ASSERT_LE(pool.used(), pool.budget()) << "op " << op;
    std::uint64_t sum = 0;
    std::uint64_t prev = 0;
    bool first = true;
    pool.for_each_entry([&](const store::CachePool::Entry& e) {
      sum += e.bytes;
      if (!first) {
        EXPECT_GT(e.layout_idx, prev) << "entries must be sorted";
      }
      prev = e.layout_idx;
      first = false;
    });
    ASSERT_FALSE(::testing::Test::HasFailure()) << "op " << op;
    ASSERT_EQ(sum, pool.used()) << "op " << op;
    ASSERT_EQ(pool.tile_count(), shadow.size()) << "op " << op;
  }
}

// ---- tier map vs naive per-byte reference ------------------------------------

TEST(PropertyTierMap, MatchesNaiveReference) {
  Xoshiro256 rng(2718);
  for (int trial = 0; trial < 25; ++trial) {
    io::TierMap map;
    std::vector<unsigned> byte_tier(2'000, 0);  // default fast
    std::uint64_t pos = rng.next_below(50);
    while (pos < byte_tier.size()) {
      const std::uint64_t len = 1 + rng.next_below(200);
      const std::uint64_t end = std::min<std::uint64_t>(pos + len,
                                                        byte_tier.size());
      const unsigned tier = static_cast<unsigned>(rng.next_below(2));
      map.add_range(pos, end, tier);
      for (std::uint64_t b = pos; b < end; ++b) byte_tier[b] = tier;
      pos = end + rng.next_below(100);
    }
    for (int probe = 0; probe < 50; ++probe) {
      const std::uint64_t a = rng.next_below(byte_tier.size());
      const std::uint64_t b = a + rng.next_below(byte_tier.size() - a + 1);
      std::uint64_t slow = 0;
      for (std::uint64_t k = a; k < b; ++k) slow += byte_tier[k] == 1;
      const auto [got_fast, got_slow] = map.split(a, b);
      ASSERT_EQ(got_slow, slow) << "trial " << trial;
      ASSERT_EQ(got_fast, (b - a) - slow) << "trial " << trial;
    }
  }
}

// ---- histogram vs naive -------------------------------------------------------

TEST(PropertyHistogram, CountsMatchNaive) {
  Xoshiro256 rng(1618);
  LogHistogram h(10);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.next_below(1'000'000);
    h.add(v);
    values.push_back(v);
  }
  ASSERT_EQ(h.total(), values.size());
  for (const std::uint64_t bound : {0u, 1u, 10u, 999u, 123456u, 2000000u}) {
    const auto naive = static_cast<std::uint64_t>(
        std::count_if(values.begin(), values.end(),
                      [&](std::uint64_t v) { return v < bound; }));
    ASSERT_EQ(h.count_below(bound), naive) << "bound " << bound;
  }
  std::uint64_t bucket_sum = 0;
  for (const auto& b : h.buckets()) bucket_sum += b.count;
  ASSERT_EQ(bucket_sum, h.total());
}

// ---- SNB encode/decode at tile boundaries ------------------------------------
//
// The 4-byte SNB tuple drops all high bits; corruption shows up exactly at
// tile edges, so the boundary ids are tested explicitly on top of the
// random sweep.

TEST(PropertySnb, RoundTripsAtTileBoundaries) {
  for (const unsigned tile_bits : {4u, 8u, 16u}) {
    const vid_t width = vid_t{1} << tile_bits;
    const vid_t vertex_count = width * 7;  // 7×7 tile grid
    tile::Grid grid(vertex_count, /*symmetric=*/false, tile_bits);
    ASSERT_EQ(grid.p(), 7u);

    const std::uint32_t last = grid.p() - 1;
    const std::vector<std::uint32_t> tiles = {0, 1, last};
    for (const std::uint32_t i : tiles) {
      for (const std::uint32_t j : tiles) {
        const vid_t sb = grid.tile_base(i);
        const vid_t db = grid.tile_base(j);
        // First, last, and one interior local id of each tile row/column.
        const std::vector<vid_t> src_ids = {sb, sb + width - 1, sb + width / 2};
        const std::vector<vid_t> dst_ids = {db, db + width - 1, db + width / 2};
        for (const vid_t s : src_ids) {
          for (const vid_t d : dst_ids) {
            const tile::SnbEdge e = tile::snb_encode(s, d, sb, db);
            const graph::Edge back = tile::snb_decode(e, sb, db);
            ASSERT_EQ(back.src, s) << "tile_bits=" << tile_bits;
            ASSERT_EQ(back.dst, d) << "tile_bits=" << tile_bits;
          }
        }
      }
    }

    // Random sweep inside random tiles.
    Xoshiro256 rng(tile_bits * 271 + 9);
    for (int trial = 0; trial < 2000; ++trial) {
      const auto i = static_cast<std::uint32_t>(rng.next_below(grid.p()));
      const auto j = static_cast<std::uint32_t>(rng.next_below(grid.p()));
      const vid_t s = grid.tile_base(i) + rng.next_below(width);
      const vid_t d = grid.tile_base(j) + rng.next_below(width);
      const graph::Edge back = tile::snb_decode(
          tile::snb_encode(s, d, grid.tile_base(i), grid.tile_base(j)),
          grid.tile_base(i), grid.tile_base(j));
      ASSERT_EQ(back.src, s);
      ASSERT_EQ(back.dst, d);
    }
  }
}

// ---- compressed degrees: MSB overflow flagging ------------------------------

TEST(PropertyDegrees, OverflowFlagRoundTrips) {
  using graph::CompressedDegrees;
  using graph::degree_t;
  Xoshiro256 rng(4242);

  std::vector<degree_t> degrees(20'000);
  std::size_t want_overflow = 0;
  for (auto& d : degrees) {
    if (rng.next_below(50) == 0) {
      // Power-law tail: exceeds the 15-bit inline range, must take the
      // overflow path (MSB set, low bits index the 4-byte table).
      d = CompressedDegrees::kInlineMax + 1 +
          static_cast<degree_t>(rng.next_below(1'000'000));
      ++want_overflow;
    } else {
      d = static_cast<degree_t>(rng.next_below(CompressedDegrees::kInlineMax + 1));
    }
  }
  // Pin the boundary values explicitly.
  degrees[0] = 0;
  degrees[1] = CompressedDegrees::kInlineMax;       // largest inline
  degrees[2] = CompressedDegrees::kInlineMax + 1;   // smallest overflow
  want_overflow = static_cast<std::size_t>(
      std::count_if(degrees.begin(), degrees.end(), [](degree_t d) {
        return d > CompressedDegrees::kInlineMax;
      }));

  const auto cd = CompressedDegrees::build(degrees);
  ASSERT_TRUE(cd.compressed());
  ASSERT_EQ(cd.size(), degrees.size());
  ASSERT_EQ(cd.overflow_count(), want_overflow);
  for (vid_t v = 0; v < cd.size(); ++v)
    ASSERT_EQ(cd[v], degrees[v]) << "vertex " << v;
  // 2-byte inline entries + 4-byte overflow table beats the plain array.
  ASSERT_LT(cd.storage_bytes(), degrees.size() * sizeof(degree_t));

  // Too many heavy vertices → format falls back, still lossless.
  std::vector<degree_t> heavy(CompressedDegrees::kMaxOverflow + 1,
                              CompressedDegrees::kInlineMax + 7);
  const auto fallback = CompressedDegrees::build(heavy);
  ASSERT_FALSE(fallback.compressed());
  for (vid_t v = 0; v < fallback.size(); ++v) ASSERT_EQ(fallback[v], heavy[v]);
}

}  // namespace
}  // namespace gstore
// Appended: priority-schedule equivalence (ISSUE 10).
//
// The worklist scheduler changes WHICH tiles are fetched WHEN — never what
// the algorithms compute. BFS and SSSP converge to order-independent
// fixpoints, so priority mode must be bit-identical to grid order at every
// tile width, with and without an overlay, on v2 and v3 stores. PageRank-
// delta's fixed-point truncation lands at different drain times across
// schedules, so it agrees to within the tolerance instead.
#include "algo/pagerank_delta.h"
#include "algo/sssp.h"

namespace gstore {
namespace {

store::EngineConfig schedule_cfg(store::ScheduleMode mode) {
  store::EngineConfig cfg;
  cfg.stream_memory_bytes = 96 << 10;  // several slide phases per round
  cfg.segment_bytes = 8 << 10;
  cfg.schedule = mode;
  return cfg;
}

void expect_bfs_sssp_schedule_identical(tile::TileStore& store,
                                        const std::string& label) {
  const auto grid = schedule_cfg(store::ScheduleMode::kGrid);
  const auto prio = schedule_cfg(store::ScheduleMode::kPriority);
  {
    algo::TileBfs a(0), b(0);
    store::ScrEngine(store, grid).run(a);
    const auto stats = store::ScrEngine(store, prio).run(b);
    ASSERT_EQ(a.depth(), b.depth()) << label;
    EXPECT_GT(stats.rounds, 0u) << label;
  }
  {
    algo::TileSssp a(0), b(0);
    store::ScrEngine(store, grid).run(a);
    store::ScrEngine(store, prio).run(b);
    const auto& da = a.distances();
    const auto& db = b.distances();
    ASSERT_EQ(da.size(), db.size()) << label;
    for (std::size_t v = 0; v < da.size(); ++v)
      ASSERT_EQ(da[v], db[v]) << label << " vertex " << v;
  }
}

TEST(PropertyPriority, BfsSsspBitIdenticalToGridAcrossTileBits) {
  for (unsigned tb = 4; tb <= 16; tb += 2) {
    const vid_t n = static_cast<vid_t>((3u << tb) + 17);
    const std::uint64_t m = std::min<std::uint64_t>(2 * n, 50'000);
    auto el = graph::uniform_random(n, m, GraphKind::kUndirected, 8100 + tb);
    io::TempDir dir;
    tile::ConvertOptions o;
    o.tile_bits = tb;
    auto store = gstore::testing::make_store(dir, el, o);
    expect_bfs_sssp_schedule_identical(store, "v3 tb=" + std::to_string(tb));

    // Same store with a WAL-style overlay spliced in.
    ingest::DeltaBuffer delta(store.grid(), store.meta(), 1 << 20);
    auto extra =
        graph::uniform_random(n, 600, GraphKind::kUndirected, 9100 + tb);
    delta.add_batch(extra.edges());
    store.attach_overlay(&delta);
    expect_bfs_sssp_schedule_identical(
        store, "v3+overlay tb=" + std::to_string(tb));
  }
}

TEST(PropertyPriority, BfsSsspBitIdenticalOnUncompressedV2Stores) {
  for (const unsigned tb : {5u, 9u, 13u}) {
    const vid_t n = static_cast<vid_t>((3u << tb) + 17);
    const std::uint64_t m = std::min<std::uint64_t>(2 * n, 40'000);
    auto el = graph::uniform_random(n, m, GraphKind::kUndirected, 5400 + tb);
    io::TempDir dir;
    tile::ConvertOptions o;
    o.tile_bits = tb;
    o.compress = false;
    auto store = gstore::testing::make_store(dir, el, o);
    ASSERT_EQ(store.meta().version, 2u);
    expect_bfs_sssp_schedule_identical(store, "v2 tb=" + std::to_string(tb));

    ingest::DeltaBuffer delta(store.grid(), store.meta(), 1 << 20);
    auto extra =
        graph::uniform_random(n, 400, GraphKind::kUndirected, 6400 + tb);
    delta.add_batch(extra.edges());
    store.attach_overlay(&delta);
    expect_bfs_sssp_schedule_identical(
        store, "v2+overlay tb=" + std::to_string(tb));
  }
}

TEST(PropertyPriority, DirectedAndInEdgeStoresMatchAcrossSchedules) {
  auto el = graph::uniform_random(3000, 12'000, GraphKind::kDirected, 321);
  for (const bool in_edges : {false, true}) {
    io::TempDir dir;
    tile::ConvertOptions o;
    o.tile_bits = 6;
    o.out_edges = !in_edges;
    auto store = gstore::testing::make_store(dir, el, o);
    expect_bfs_sssp_schedule_identical(
        store, in_edges ? "in-edges" : "out-edges");
  }
}

TEST(PropertyPriority, PageRankDeltaAgreesAcrossSchedulesAndWithPowerIteration) {
  auto el = graph::kronecker(10, 6, GraphKind::kUndirected, 99);
  el.normalize();
  io::TempDir dir;
  tile::ConvertOptions o;
  o.tile_bits = 6;
  auto store = gstore::testing::make_store(dir, el, o);

  algo::PageRankDeltaOptions dopt;
  dopt.tolerance = 1e-9;
  algo::TilePageRankDelta grid_pr(dopt), prio_pr(dopt);
  store::ScrEngine(store, schedule_cfg(store::ScheduleMode::kGrid))
      .run(grid_pr);
  const auto stats =
      store::ScrEngine(store, schedule_cfg(store::ScheduleMode::kPriority))
          .run(prio_pr);
  EXPECT_GT(stats.rounds, 0u);
  EXPECT_LT(grid_pr.residual_mass(), 1e-8);
  EXPECT_LT(prio_pr.residual_mass(), 1e-8);

  // Cross-schedule agreement: truncation order differs, the fixpoint not.
  const auto ga = grid_pr.ranks();
  const auto pa = prio_pr.ranks();
  ASSERT_EQ(ga.size(), pa.size());
  for (std::size_t v = 0; v < ga.size(); ++v)
    ASSERT_NEAR(ga[v], pa[v], 1e-6) << "vertex " << v;

  // Against the converged pull-based power iteration: same linear system
  // (dangling mass evaporates in both formulations).
  algo::TilePageRank power(algo::PageRankOptions{0.85, 300, 1e-10});
  store::ScrEngine(store).run(power);
  const auto& wa = power.ranks();
  double drift = 0;
  for (std::size_t v = 0; v < ga.size(); ++v)
    drift = std::max(drift, std::abs(double(ga[v]) - double(wa[v])));
  EXPECT_LT(drift, 1e-5) << "pagerank-delta fixpoint drifted from power "
                            "iteration";
}

}  // namespace
}  // namespace gstore
