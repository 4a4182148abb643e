#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <utility>

#include "graph/generator.h"
#include "test_util.h"
#include "tile/compress.h"
#include "tile/convert.h"
#include "tile/edge_block.h"
#include "tile/grid.h"
#include "tile/grouping.h"
#include "tile/snb.h"
#include "tile/tile_file.h"
#include "util/rng.h"
#include "util/status.h"

namespace gstore::tile {
namespace {

using graph::Edge;
using graph::EdgeList;
using graph::GraphKind;
using graph::vid_t;

// ---- SNB codec ----------------------------------------------------------

TEST(Snb, EncodeDecodeRoundtrip) {
  const SnbEdge e = snb_encode(0x12345, 0x2468a, 0x10000, 0x20000);
  EXPECT_EQ(e.src16, 0x2345);
  EXPECT_EQ(e.dst16, 0x468a);
  const Edge back = snb_decode(e, 0x10000, 0x20000);
  EXPECT_EQ(back.src, 0x12345u);
  EXPECT_EQ(back.dst, 0x2468au);
}

TEST(Snb, PaperExampleTile11) {
  // Paper Fig 4(b): tile[1,1] offset (4,4); tuple (0,1) represents (4,5).
  const SnbEdge e = snb_encode(4, 5, 4, 4);
  EXPECT_EQ(e.src16, 0);
  EXPECT_EQ(e.dst16, 1);
  EXPECT_EQ(snb_decode(e, 4, 4), (Edge{4, 5}));
}

TEST(Snb, FourBytesPerEdge) { EXPECT_EQ(sizeof(SnbEdge), 4u); }

// ---- Grid ---------------------------------------------------------------

TEST(Grid, BasicDimensions) {
  Grid g(/*vertex_count=*/1000, /*symmetric=*/false, /*tile_bits=*/8,
         /*group_side=*/2);
  EXPECT_EQ(g.p(), 4u);  // ceil(1000/256)
  EXPECT_EQ(g.tile_width(), 256u);
  EXPECT_EQ(g.groups_per_side(), 2u);
  EXPECT_EQ(g.group_count(), 4u);
  EXPECT_EQ(g.tile_count(), 16u);
}

TEST(Grid, SymmetricStoresUpperTriangleOnly) {
  Grid g(1024, true, 8, 4);
  EXPECT_EQ(g.p(), 4u);
  EXPECT_EQ(g.tile_count(), 10u);  // 4*5/2
  EXPECT_TRUE(g.tile_exists(1, 3));
  EXPECT_FALSE(g.tile_exists(3, 1));
  EXPECT_TRUE(g.tile_exists(2, 2));
}

TEST(Grid, LayoutIsBijective) {
  for (const bool symmetric : {false, true}) {
    Grid g(5000, symmetric, 8, 3);  // p = 20, q = 3 (non-dividing)
    std::set<std::uint64_t> seen;
    for (std::uint32_t i = 0; i < g.p(); ++i)
      for (std::uint32_t j = 0; j < g.p(); ++j) {
        if (!g.tile_exists(i, j)) continue;
        const std::uint64_t idx = g.layout_index(i, j);
        EXPECT_TRUE(seen.insert(idx).second) << "duplicate layout index";
        const TileCoord c = g.coord_at(idx);
        EXPECT_EQ(c.i, i);
        EXPECT_EQ(c.j, j);
      }
    EXPECT_EQ(seen.size(), g.tile_count());
    EXPECT_EQ(*seen.rbegin(), g.tile_count() - 1);  // dense 0..n-1
  }
}

TEST(Grid, GroupRangesPartitionLayout) {
  Grid g(4096, true, 8, 4);
  std::uint64_t covered = 0;
  std::uint64_t prev_end = 0;
  for (std::uint64_t grp = 0; grp < g.group_count(); ++grp) {
    const auto [first, last] = g.group_range(grp);
    EXPECT_EQ(first, prev_end);  // contiguous on disk
    covered += last - first;
    prev_end = last;
  }
  EXPECT_EQ(covered, g.tile_count());
}

TEST(Grid, GroupOfMatchesRanges) {
  Grid g(4096, false, 8, 4);
  for (std::uint32_t i = 0; i < g.p(); ++i)
    for (std::uint32_t j = 0; j < g.p(); ++j) {
      const std::uint64_t grp = g.group_of(i, j);
      const auto [first, last] = g.group_range(grp);
      const std::uint64_t idx = g.layout_index(i, j);
      EXPECT_GE(idx, first);
      EXPECT_LT(idx, last);
    }
}

TEST(Grid, TilesWithinGroupAreLayoutContiguous) {
  // The point of physical grouping: one group = one sequential disk read.
  Grid g(1 << 14, true, 8, 8);
  for (std::uint64_t grp = 0; grp < g.group_count(); ++grp) {
    const auto [first, last] = g.group_range(grp);
    for (std::uint64_t k = first; k < last; ++k)
      EXPECT_EQ(g.group_of(g.coord_at(k).i, g.coord_at(k).j), grp);
  }
}

TEST(Grid, RejectsBadParameters) {
  EXPECT_THROW(Grid(0, false, 8, 1), Error);
  EXPECT_THROW(Grid(100, false, 0, 1), Error);
  EXPECT_THROW(Grid(100, false, 17, 1), Error);
}

TEST(Grid, NonexistentTileThrows) {
  Grid g(1024, true, 8, 2);
  EXPECT_THROW(g.layout_index(3, 1), InvalidArgument);
}

TEST(Grid, TileRowOfAndBase) {
  Grid g(1 << 12, false, 8, 1);
  EXPECT_EQ(g.tile_row_of(0), 0u);
  EXPECT_EQ(g.tile_row_of(255), 0u);
  EXPECT_EQ(g.tile_row_of(256), 1u);
  EXPECT_EQ(g.tile_base(3), 768u);
}

TEST(Grid, GroupSideClampedToP) {
  Grid g(512, false, 8, 1000);  // p = 2, q clamps to 2
  EXPECT_EQ(g.group_side(), 2u);
  EXPECT_EQ(g.groups_per_side(), 1u);
}

// ---- conversion + store -------------------------------------------------

ConvertOptions small_tiles() {
  ConvertOptions o;
  o.tile_bits = 4;  // 16-vertex tiles so toy graphs span many tiles
  o.group_side = 2;
  return o;
}

TEST(Convert, UndirectedEdgesStoredOnceUpperTriangle) {
  io::TempDir dir;
  auto el = EdgeList::from_edges({{5, 1}, {1, 2}, {30, 7}, {7, 30}},
                                 GraphKind::kUndirected);
  auto store = gstore::testing::make_store(dir, el, small_tiles());
  EXPECT_TRUE(store.meta().symmetric());
  const auto got = gstore::testing::decode_all_edges(store);
  // Canonical (min,max) per edge; the duplicate (7,30)/(30,7) is stored twice
  // (converter does not dedupe — that is normalize()'s job).
  std::multiset<std::pair<vid_t, vid_t>> want{{1, 5}, {1, 2}, {7, 30}, {7, 30}};
  std::multiset<std::pair<vid_t, vid_t>> have;
  for (const Edge& e : got) {
    EXPECT_LE(e.src, e.dst);
    have.insert({e.src, e.dst});
  }
  EXPECT_EQ(have, want);
}

TEST(Convert, SelfLoopsDropped) {
  io::TempDir dir;
  auto el = EdgeList::from_edges({{3, 3}, {1, 2}}, GraphKind::kUndirected);
  auto store = gstore::testing::make_store(dir, el, small_tiles());
  EXPECT_EQ(store.edge_count(), 1u);
  EXPECT_EQ(store.load_degrees()[3], 0u);  // a dropped loop adds no degree
}

TEST(Convert, DirectedOutEdges) {
  io::TempDir dir;
  auto el = EdgeList::from_edges({{5, 1}, {1, 5}}, GraphKind::kDirected);
  auto store = gstore::testing::make_store(dir, el, small_tiles());
  EXPECT_TRUE(store.meta().directed());
  EXPECT_FALSE(store.meta().in_edges());
  const auto got = gstore::testing::decode_all_edges(store);
  std::multiset<std::pair<vid_t, vid_t>> have;
  for (const Edge& e : got) have.insert({e.src, e.dst});
  EXPECT_EQ(have, (std::multiset<std::pair<vid_t, vid_t>>{{1, 5}, {5, 1}}));
}

TEST(Convert, DirectedInEdgesStoredTransposed) {
  io::TempDir dir;
  auto el = EdgeList::from_edges({{5, 1}}, GraphKind::kDirected);
  ConvertOptions o = small_tiles();
  o.out_edges = false;
  auto store = gstore::testing::make_store(dir, el, o);
  EXPECT_TRUE(store.meta().in_edges());
  const auto got = gstore::testing::decode_all_edges(store);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], (Edge{1, 5}));  // tuple is (dst, src)
}

TEST(Convert, StartEdgeIndexConsistent) {
  io::TempDir dir;
  auto el = graph::kronecker(10, 8, GraphKind::kUndirected, 11);
  ConvertOptions o;
  o.tile_bits = 6;
  o.group_side = 4;
  auto store = gstore::testing::make_store(dir, el, o);
  const auto& start = store.start_edge();
  EXPECT_EQ(start.front(), 0u);
  EXPECT_EQ(start.back(), store.edge_count());
  EXPECT_TRUE(std::is_sorted(start.begin(), start.end()));
  std::uint64_t sum = 0;
  for (std::uint64_t k = 0; k < store.grid().tile_count(); ++k)
    sum += store.tile_edge_count(k);
  EXPECT_EQ(sum, store.edge_count());
}

TEST(Convert, EveryEdgePreservedOnKron) {
  io::TempDir dir;
  auto el = graph::kronecker(9, 6, GraphKind::kUndirected, 13);
  ConvertOptions o;
  o.tile_bits = 5;
  o.group_side = 3;
  auto store = gstore::testing::make_store(dir, el, o);
  std::multiset<std::pair<vid_t, vid_t>> want;
  for (Edge e : el.edges()) {
    if (e.src == e.dst) continue;
    if (e.src > e.dst) std::swap(e.src, e.dst);
    want.insert({e.src, e.dst});
  }
  std::multiset<std::pair<vid_t, vid_t>> have;
  for (const Edge& e : gstore::testing::decode_all_edges(store))
    have.insert({e.src, e.dst});
  EXPECT_EQ(have, want);
}

TEST(Convert, DegreesFileMatchesEdgeList) {
  io::TempDir dir;
  auto el = graph::star(40);
  auto store = gstore::testing::make_store(dir, el, small_tiles());
  const auto deg = store.load_degrees();
  ASSERT_EQ(deg.size(), 40u);
  EXPECT_EQ(deg[0], 39u);
  for (vid_t v = 1; v < 40; ++v) EXPECT_EQ(deg[v], 1u);
}

TEST(Convert, StorageHalvedVsEdgeListForSmallGraphs) {
  io::TempDir dir;
  auto el = graph::kronecker(10, 8, GraphKind::kUndirected, 3);
  auto store = gstore::testing::make_store(dir, el, ConvertOptions{});
  // Undirected edge list = 2|E| × 8B; tiles = |E| × 4B (minus dropped
  // loops) + index overhead → at least ~4× saving at these sizes.
  EXPECT_LT(store.storage_bytes(), el.storage_bytes() / 3);
}

TEST(Convert, ConversionStatsPopulated) {
  io::TempDir dir;
  auto el = graph::kronecker(10, 4, GraphKind::kUndirected, 3);
  const auto stats = convert_to_tiles(el, dir.file("k"), ConvertOptions{});
  EXPECT_GT(stats.stored_edges, 0u);
  // v3 codecs beat the raw 4-byte tuples on a kron graph, so total bytes
  // (payloads + headers + index) land below the logical SNB size.
  EXPECT_GT(stats.bytes_written, 0u);
  EXPECT_GT(stats.payload_bytes, 0u);
  EXPECT_LT(stats.payload_bytes, stats.stored_edges * sizeof(SnbEdge));
  std::uint64_t coded_tiles = 0;
  for (std::uint64_t c : stats.codec_tiles) coded_tiles += c;
  EXPECT_EQ(coded_tiles, stats.tile_count);
  EXPECT_GE(stats.total_seconds, 0.0);
  EXPECT_EQ(stats.tile_count, 1u);  // scale 10 fits one 2^16 tile
}

TEST(TileStore, RejectsCorruptSei) {
  io::TempDir dir;
  auto el = graph::path(100);
  convert_to_tiles(el, dir.file("g"), small_tiles());
  {
    io::File f(dir.file("g.sei"), io::OpenMode::kReadWrite);
    std::uint64_t junk = 0xdeadbeef;
    f.pwrite_full(&junk, sizeof(junk), 0);
  }
  EXPECT_THROW(TileStore::open(dir.file("g")), FormatError);
}

TEST(TileStore, RejectsTruncatedTiles) {
  io::TempDir dir;
  auto el = graph::path(100);
  convert_to_tiles(el, dir.file("g"), small_tiles());
  {
    io::File f(dir.file("g.tiles"), io::OpenMode::kReadWrite);
    f.truncate(f.size() - 4);
  }
  EXPECT_THROW(TileStore::open(dir.file("g")), FormatError);
}

TEST(TileStore, ReadRangeSpansMultipleTiles) {
  io::TempDir dir;
  auto el = graph::complete(32);
  auto store = gstore::testing::make_store(dir, el, small_tiles());
  ASSERT_GE(store.grid().tile_count(), 3u);
  const std::uint64_t bytes = store.bytes_of_range(0, 3);
  std::vector<std::uint8_t> buf(bytes);
  store.read_range(0, 3, buf.data());
  // Views over the packed range must decode to edges in range.
  std::uint64_t off = 0;
  for (std::uint64_t k = 0; k < 3; ++k) {
    const TileView v = store.view(k, buf.data() + off);
    for (const SnbEdge& e : v.edges) {
      const Edge g = snb_decode(e, v.src_base, v.dst_base);
      EXPECT_LT(g.src, 32u);
      EXPECT_LT(g.dst, 32u);
    }
    off += store.tile_bytes(k);
  }
}

TEST(TileStore, MaxTileBytesIsMax) {
  io::TempDir dir;
  auto el = graph::star(200);  // everything lands in row 0 tiles
  auto store = gstore::testing::make_store(dir, el, small_tiles());
  std::uint64_t mx = 0;
  for (std::uint64_t k = 0; k < store.grid().tile_count(); ++k)
    mx = std::max(mx, store.tile_bytes(k));
  EXPECT_EQ(store.max_tile_bytes(), mx);
  EXPECT_GT(mx, 0u);
}

// ---- grouping -----------------------------------------------------------

TEST(Grouping, StatsSumToStoreTotals) {
  io::TempDir dir;
  auto el = graph::kronecker(10, 8, GraphKind::kUndirected, 5);
  ConvertOptions o;
  o.tile_bits = 5;
  o.group_side = 4;
  auto store = gstore::testing::make_store(dir, el, o);
  const auto stats = group_stats(store);
  std::uint64_t edges = 0, tiles = 0;
  for (const auto& s : stats) {
    edges += s.edges;
    tiles += s.tiles;
  }
  EXPECT_EQ(edges, store.edge_count());
  EXPECT_EQ(tiles, store.grid().tile_count());
}

TEST(Grouping, TileEdgeCountsMatchStore) {
  io::TempDir dir;
  auto el = graph::kronecker(9, 4, GraphKind::kUndirected, 5);
  ConvertOptions o;
  o.tile_bits = 5;
  auto store = gstore::testing::make_store(dir, el, o);
  const auto counts = tile_edge_counts(store);
  ASSERT_EQ(counts.size(), store.grid().tile_count());
  for (std::uint64_t k = 0; k < counts.size(); ++k)
    EXPECT_EQ(counts[k], store.tile_edge_count(k));
}

TEST(Grouping, MetadataBytesDiagonalVsOffDiagonal) {
  Grid g(1 << 12, false, 8, 4);  // p=16, q=4, width=256
  // Diagonal group covers one 1024-vertex range; off-diagonal covers two.
  const std::uint64_t diag = group_metadata_bytes(g, 0, 4);
  const std::uint64_t off = group_metadata_bytes(g, 1, 4);
  EXPECT_EQ(diag, 1024u * 4);
  EXPECT_EQ(off, 2048u * 4);
}

// ---- compression (future-work extension) ---------------------------------

TEST(Compress, RoundTripRandomTiles) {
  Xoshiro256 rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<SnbEdge> edges(rng.next_below(500));
    for (auto& e : edges) {
      e.src16 = static_cast<std::uint16_t>(rng.next_below(1 << 16));
      e.dst16 = static_cast<std::uint16_t>(rng.next_below(1 << 16));
    }
    auto payload = compress_tile(edges);
    auto back = decompress_tile(payload);
    // compress_tile preserves input order (writers sort beforehand when
    // they want ratio); the round trip must be bit-exact, not merely a
    // multiset match.
    EXPECT_EQ(back, edges);
  }
}

TEST(Compress, DenseRowsCompressWell) {
  // One hub row with many sorted destinations — the power-law tile shape.
  std::vector<SnbEdge> edges;
  for (std::uint16_t d = 0; d < 2000; ++d)
    edges.push_back(SnbEdge{7, static_cast<std::uint16_t>(d * 3)});
  const std::size_t raw = edges.size() * sizeof(SnbEdge);
  // ~2 bytes/edge (two 1-byte varints) vs 4 raw.
  EXPECT_LT(compress_tile(edges).size(), raw * 6 / 10);
}

TEST(Compress, IncompressibleFallsBackToRaw) {
  Xoshiro256 rng(123);
  std::vector<SnbEdge> edges(300);
  for (auto& e : edges) {
    e.src16 = static_cast<std::uint16_t>(rng.next_below(1 << 16));
    e.dst16 = static_cast<std::uint16_t>(rng.next_below(1 << 16));
  }
  auto payload = compress_tile(edges);
  EXPECT_LE(payload.size(),
            kTilePayloadHeaderBytes + edges.size() * sizeof(SnbEdge));
  auto back = decompress_tile(payload);
  EXPECT_EQ(back.size(), edges.size());
}

TEST(Compress, EmptyTile) {
  auto payload = compress_tile({});
  EXPECT_TRUE(decompress_tile(payload).empty());
}

TEST(Compress, RejectsGarbage) {
  std::vector<std::uint8_t> junk{42, 1, 2, 3};
  EXPECT_THROW(decompress_tile(junk), FormatError);
  EXPECT_THROW(decompress_tile({}), FormatError);
}

// A payload around a hand-written body: header, body, zero padding.
std::vector<std::uint8_t> hand_payload(TileCodec codec, unsigned dst_bits,
                                       std::uint32_t edges,
                                       const std::vector<std::uint8_t>& body) {
  TilePayloadHeader h;
  h.codec = static_cast<std::uint8_t>(codec);
  h.dst_bits = static_cast<std::uint8_t>(dst_bits);
  h.edge_count = edges;
  std::vector<std::uint8_t> out(sizeof(h) + (body.size() + 3) / 4 * 4, 0);
  std::memcpy(out.data(), &h, sizeof(h));
  std::copy(body.begin(), body.end(), out.begin() + sizeof(h));
  return out;
}

// The writer no longer encodes kRuns, but v3 stores written before it
// stopped hold kRuns tiles, so both decoders still read them. Each row is
// (src delta, item count) and then (gap, run length - 1) items.
TEST(Compress, DecodesHandWrittenRunsBody) {
  const auto bytes =
      hand_payload(TileCodec::kRuns, 0, 606,
                   {0, 2, 2, 2, 1, 0,         // row 0: dsts 2-4, then 6
                    5, 1, 0, 1,               // row 5: dsts 0-1
                    2, 1, 100, 0xD7, 0x04});  // row 7: dsts 100-699
  std::vector<SnbEdge> want = {{0, 2}, {0, 3}, {0, 4}, {0, 6}, {5, 0}, {5, 1}};
  for (std::uint16_t d = 100; d < 700; ++d) want.push_back({7, d});
  EXPECT_EQ(decompress_tile(bytes), want);

  TileView v;
  v.set_payload(parse_tile_payload(bytes));
  std::vector<SnbEdge> got;
  std::size_t blocks = 0;
  for_each_block(v, [&](const EdgeBlock& b) {
    ++blocks;
    for (std::uint32_t k = 0; k < b.size; ++k)
      got.push_back({static_cast<std::uint16_t>(b.src[k]),
                     static_cast<std::uint16_t>(b.dst[k])});
  });
  EXPECT_EQ(got, want);
  EXPECT_EQ(blocks, 2u);
  EXPECT_THROW(encode_tile_as(TileCodec::kRuns, want), InvalidArgument);
}

// The block decoder keeps every body check of the format: each malformed
// body below passes the header checks, then the hot path rejects it with
// its own error, without handing out more edges than declared, and the
// oracle rejects it too.
TEST(Compress, BlockDecoderRejectsEachMalformedBody) {
  constexpr TileCodec kHy = TileCodec::kHybrid;
  constexpr TileCodec kRu = TileCodec::kRuns;
  const std::pair<const char*, std::vector<std::uint8_t>> cases[] = {
      {"truncated varint", hand_payload(kHy, 8, 1, {0x00, 0x80, 0x80, 0x80})},
      {"varint overflow",
       hand_payload(kHy, 8, 1, {0, 255, 255, 255, 255, 255})},
      {"empty row in hybrid", hand_payload(kHy, 8, 1, {0x00, 0x00})},
      {"more edges than declared",
       hand_payload(kHy, 8, 1, {0x00, 0x05, 1, 2})},
      {"run overflows", hand_payload(kHy, 8, 2, {0x00, 0x04, 0x00, 0x02})},
      {"truncated bit-packed", hand_payload(kHy, 8, 3, {0x00, 0x07, 1, 2})},
      {"trailing bytes",
       hand_payload(kHy, 8, 1, {0x00, 0x03, 7, 0, 0, 0, 0, 0})},
      {"nonzero tile payload padding",
       hand_payload(kHy, 8, 1, {0x00, 0x03, 7, 1})},
      {"empty row in runs", hand_payload(kRu, 0, 1, {0x00, 0x00})},
      {"more edges than declared",
       hand_payload(kRu, 0, 1, {0, 0x01, 0, 0x01})},
  };
  for (const auto& [want, bytes] : cases) {
    const TileCodecInfo info = parse_tile_payload(bytes);
    TileView v;
    v.set_payload(info);
    std::size_t handed = 0;
    try {
      for_each_block(v, [&](const EdgeBlock& b) { handed += b.size; });
      ADD_FAILURE() << "accepted a body with " << want;
    } catch (const FormatError& e) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << "want " << want << ", got " << e.what();
    }
    EXPECT_LE(handed, info.edge_count) << want;
    EXPECT_THROW(decompress_tile(bytes), FormatError) << want;
  }
}

}  // namespace
}  // namespace gstore::tile
// Appended: Fig 10 ablation format variants (non-SNB tuples, full-matrix
// storage). These live outside the anonymous namespace above on purpose —
// they re-open the same namespaces.
namespace gstore::tile {
namespace {

TEST(ConvertVariants, FatTuplesRoundTrip) {
  io::TempDir dir;
  auto el = graph::kronecker(9, 5, graph::GraphKind::kUndirected, 41);
  ConvertOptions snb_opts;
  snb_opts.tile_bits = 5;
  ConvertOptions fat_opts = snb_opts;
  fat_opts.snb = false;
  auto s1 = gstore::testing::make_store(dir, el, snb_opts, {}, "snb");
  auto s2 = gstore::testing::make_store(dir, el, fat_opts, {}, "fat");
  EXPECT_FALSE(s1.meta().fat_tuples());
  EXPECT_TRUE(s2.meta().fat_tuples());
  EXPECT_EQ(s1.edge_count(), s2.edge_count());
  // Same logical edges, twice the bytes.
  EXPECT_EQ(s2.data_bytes(), 2 * s1.data_bytes());
  auto e1 = gstore::testing::decode_all_edges(s1);
  auto e2 = gstore::testing::decode_all_edges(s2);
  std::sort(e1.begin(), e1.end());
  std::sort(e2.begin(), e2.end());
  EXPECT_EQ(e1, e2);
}

TEST(ConvertVariants, FullMatrixStoresBothOrientations) {
  io::TempDir dir;
  auto el = graph::EdgeList::from_edges({{1, 5}, {2, 9}},
                                        graph::GraphKind::kUndirected);
  ConvertOptions o;
  o.tile_bits = 4;
  o.symmetry = false;
  auto store = gstore::testing::make_store(dir, el, o);
  EXPECT_FALSE(store.meta().symmetric());
  EXPECT_EQ(store.edge_count(), 4u);  // both orientations
  const auto got = gstore::testing::decode_all_edges(store);
  std::multiset<std::pair<graph::vid_t, graph::vid_t>> have;
  for (const auto& e : got) have.insert({e.src, e.dst});
  EXPECT_EQ(have, (std::multiset<std::pair<graph::vid_t, graph::vid_t>>{
                      {1, 5}, {5, 1}, {2, 9}, {9, 2}}));
}

TEST(ConvertVariants, SpaceLadderMatchesFig10) {
  // base (full matrix + fat) : symmetry only (fat) : symmetry+SNB
  // must be 4 : 2 : 1 in data bytes — the paper's space-saving ladder.
  io::TempDir dir;
  auto el = graph::kronecker(9, 5, graph::GraphKind::kUndirected, 43);
  el.normalize();
  ConvertOptions base, sym, full;
  base.tile_bits = sym.tile_bits = full.tile_bits = 6;
  base.symmetry = false;
  base.snb = false;
  sym.snb = false;
  auto s_base = gstore::testing::make_store(dir, el, base, {}, "base");
  auto s_sym = gstore::testing::make_store(dir, el, sym, {}, "sym");
  auto s_full = gstore::testing::make_store(dir, el, full, {}, "full");
  EXPECT_EQ(s_base.data_bytes(), 4 * s_full.data_bytes());
  EXPECT_EQ(s_sym.data_bytes(), 2 * s_full.data_bytes());
}

}  // namespace
}  // namespace gstore::tile
