// End-to-end validation of the four tile algorithms against in-memory
// reference implementations, swept across graph families, directedness,
// tile sizes, and engine configurations (parameterized property tests).
#include <gtest/gtest.h>

#include <cmath>

#include "algo/bfs.h"
#include "algo/cc.h"
#include "algo/pagerank.h"
#include "algo/reference.h"
#include "algo/sssp.h"
#include "graph/generator.h"
#include "store/scr_engine.h"
#include "test_util.h"
#include "util/status.h"

namespace gstore::algo {
namespace {

using graph::EdgeList;
using graph::GraphKind;
using graph::vid_t;

// How a scenario splits its stream memory between the two segments and the
// cache pool.
enum class Split {
  kDefault,       // segments of an eighth of it (at least 512 B), pool the rest
  kZeroPool,      // two segments fill it: no cache pool
  kTinySegments,  // 512 B segments, smaller than the store's largest tile
};

struct Scenario {
  std::string name;
  EdgeList (*make)(std::uint64_t seed);
  unsigned tile_bits;
  std::uint64_t stream_kb;  // engine stream memory (KiB)
  store::CachePolicyKind policy;
  Split split = Split::kDefault;
  store::ScheduleMode schedule = store::ScheduleMode::kGrid;
};

EdgeList kron_und(std::uint64_t seed) {
  return graph::kronecker(9, 6, GraphKind::kUndirected, seed);
}
EdgeList kron_dir(std::uint64_t seed) {
  return graph::kronecker(9, 6, GraphKind::kDirected, seed);
}
EdgeList twitterish(std::uint64_t seed) {
  return graph::twitter_like(9, 6, GraphKind::kDirected, seed);
}
EdgeList uniform_und(std::uint64_t seed) {
  return graph::uniform_random(600, 2400, GraphKind::kUndirected, seed);
}
EdgeList grid_graph(std::uint64_t) { return graph::grid(20, 30); }
EdgeList path_graph(std::uint64_t) { return graph::path(300); }
EdgeList star_graph(std::uint64_t) { return graph::star(400); }
EdgeList cliques(std::uint64_t) { return graph::two_cliques(64); }

const Scenario kScenarios[] = {
    {"KronUndTiny", kron_und, 5, 16, store::CachePolicyKind::kProactive},
    {"KronUndBig", kron_und, 8, 64, store::CachePolicyKind::kProactive},
    {"KronUndLru", kron_und, 5, 16, store::CachePolicyKind::kLru},
    {"KronDir", kron_dir, 5, 16, store::CachePolicyKind::kProactive},
    {"TwitterLikeDir", twitterish, 6, 32, store::CachePolicyKind::kProactive},
    {"UniformUnd", uniform_und, 5, 16, store::CachePolicyKind::kProactive},
    {"Grid2D", grid_graph, 4, 8, store::CachePolicyKind::kProactive},
    {"Path", path_graph, 4, 8, store::CachePolicyKind::kProactive},
    {"Star", star_graph, 5, 8, store::CachePolicyKind::kProactive},
    {"TwoCliques", cliques, 4, 8, store::CachePolicyKind::kProactive},
    // Resource edges, in both schedules.
    {"KronUndZeroPool", kron_und, 5, 16, store::CachePolicyKind::kProactive,
     Split::kZeroPool},
    {"KronUndZeroPoolPriority", kron_und, 5, 16,
     store::CachePolicyKind::kProactive, Split::kZeroPool,
     store::ScheduleMode::kPriority},
    {"KronUndTinySegments", kron_und, 8, 64, store::CachePolicyKind::kProactive,
     Split::kTinySegments},
    {"KronUndTinySegmentsPriority", kron_und, 8, 64,
     store::CachePolicyKind::kProactive, Split::kTinySegments,
     store::ScheduleMode::kPriority},
};

class AlgoScenarioTest : public ::testing::TestWithParam<Scenario> {
 protected:
  void SetUp() override {
    el_ = GetParam().make(1234);
    tile::ConvertOptions o;
    o.tile_bits = GetParam().tile_bits;
    o.group_side = 3;
    store_.emplace(gstore::testing::make_store(dir_, el_, o));
    cfg_.stream_memory_bytes = GetParam().stream_kb << 10;
    switch (GetParam().split) {
      case Split::kDefault:
        cfg_.segment_bytes =
            std::max<std::uint64_t>(cfg_.stream_memory_bytes / 8, 512);
        break;
      case Split::kZeroPool:
        cfg_.segment_bytes = cfg_.stream_memory_bytes / 2;
        break;
      case Split::kTinySegments:
        cfg_.segment_bytes = 512;
        ASSERT_LT(cfg_.segment_bytes, store_->max_tile_bytes());
        break;
    }
    cfg_.policy = GetParam().policy;
    cfg_.schedule = GetParam().schedule;
  }

  // Runs `algo` under the scenario's config. A zero pool caches nothing.
  void run(store::TileAlgorithm& algo) {
    const store::EngineStats stats = store::ScrEngine(*store_, cfg_).run(algo);
    if (GetParam().split == Split::kZeroPool) {
      EXPECT_EQ(stats.tiles_from_cache, 0u);
    }
  }

  vid_t pick_root() const {
    // Root with nonzero degree so BFS explores something.
    const auto deg = el_.degrees();
    for (vid_t v = 0; v < el_.vertex_count(); ++v)
      if (deg[v] > 0) return v;
    return 0;
  }

  EdgeList el_;
  io::TempDir dir_;
  std::optional<tile::TileStore> store_;
  store::EngineConfig cfg_;
};

TEST_P(AlgoScenarioTest, BfsMatchesReference) {
  const vid_t root = pick_root();
  TileBfs bfs(root);
  run(bfs);
  const auto want = ref_bfs(el_, root);
  ASSERT_EQ(bfs.depth().size(), want.size());
  std::uint64_t reachable = 0;
  for (vid_t v = 0; v < want.size(); ++v) {
    EXPECT_EQ(bfs.depth()[v], want[v]) << "vertex " << v;
    if (want[v] >= 0) ++reachable;
  }
  EXPECT_EQ(bfs.visited_count(), reachable);
}

TEST_P(AlgoScenarioTest, PageRankMatchesReference) {
  PageRankOptions opt;
  opt.max_iterations = 5;
  TilePageRank pr(opt);
  run(pr);
  const auto want = ref_pagerank(el_, 5);
  ASSERT_EQ(pr.ranks().size(), want.size());
  for (vid_t v = 0; v < want.size(); ++v)
    EXPECT_NEAR(pr.ranks()[v], want[v], 1e-4) << "vertex " << v;
}

TEST_P(AlgoScenarioTest, WccMatchesReference) {
  TileWcc wcc;
  run(wcc);
  const auto want = ref_wcc(el_);
  ASSERT_EQ(wcc.labels().size(), want.size());
  for (vid_t v = 0; v < want.size(); ++v)
    EXPECT_EQ(wcc.labels()[v], want[v]) << "vertex " << v;
}

TEST_P(AlgoScenarioTest, SsspMatchesDijkstra) {
  const vid_t root = pick_root();
  TileSssp sssp(root);
  run(sssp);
  const auto want = ref_sssp(el_, root);
  ASSERT_EQ(sssp.distances().size(), want.size());
  for (vid_t v = 0; v < want.size(); ++v) {
    if (std::isinf(want[v])) {
      EXPECT_TRUE(std::isinf(sssp.distances()[v])) << "vertex " << v;
    } else {
      EXPECT_NEAR(sssp.distances()[v], want[v], 1e-3) << "vertex " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AlgoScenarioTest, ::testing::ValuesIn(kScenarios),
                         [](const auto& info) { return info.param.name; });

// ---- targeted behaviours beyond the sweep --------------------------------

TEST(TileBfs, DisconnectedComponentStaysUnvisited) {
  io::TempDir dir;
  auto el = graph::two_cliques(32);
  tile::ConvertOptions o;
  o.tile_bits = 4;
  auto store = gstore::testing::make_store(dir, el, o);
  TileBfs bfs(0);
  store::ScrEngine engine(store);
  engine.run(bfs);
  for (vid_t v = 0; v < 16; ++v) EXPECT_GE(bfs.depth()[v], 0);
  for (vid_t v = 16; v < 32; ++v) EXPECT_EQ(bfs.depth()[v], TileBfs::kUnvisited);
  EXPECT_EQ(bfs.visited_count(), 16u);
}

TEST(TileBfs, PathDepthsAreLinear) {
  io::TempDir dir;
  tile::ConvertOptions o;
  o.tile_bits = 4;
  auto store = gstore::testing::make_store(dir, graph::path(100), o);
  TileBfs bfs(0);
  store::ScrEngine engine(store);
  const auto stats = engine.run(bfs);
  for (vid_t v = 0; v < 100; ++v) EXPECT_EQ(bfs.depth()[v], static_cast<int>(v));
  EXPECT_EQ(stats.iterations, 100u);  // 99 expanding levels + terminal check
  // Selective fetch: a 100-iteration path BFS must NOT read the full graph
  // 100 times; frontier rows bound each iteration's I/O.
  EXPECT_GT(stats.tiles_skipped, 0u);
}

TEST(TileBfs, RootOutOfRangeThrows) {
  io::TempDir dir;
  auto store = gstore::testing::make_store(dir, graph::path(10));
  TileBfs bfs(10'000);
  store::ScrEngine engine(store);
  EXPECT_THROW(engine.run(bfs), Error);
}

TEST(TileBfs, DirectedFollowsEdgeDirection) {
  io::TempDir dir;
  // 0 → 1 → 2, plus 3 → 0: from root 0 only {0,1,2} are reachable.
  auto el = EdgeList::from_edges({{0, 1}, {1, 2}, {3, 0}}, GraphKind::kDirected);
  tile::ConvertOptions o;
  o.tile_bits = 4;
  auto store = gstore::testing::make_store(dir, el, o);
  TileBfs bfs(0);
  store::ScrEngine engine(store);
  engine.run(bfs);
  EXPECT_EQ(bfs.depth()[0], 0);
  EXPECT_EQ(bfs.depth()[1], 1);
  EXPECT_EQ(bfs.depth()[2], 2);
  EXPECT_EQ(bfs.depth()[3], TileBfs::kUnvisited);
}

TEST(TileBfs, InEdgeStoreTraversesCorrectly) {
  io::TempDir dir;
  auto el = EdgeList::from_edges({{0, 1}, {1, 2}, {3, 0}}, GraphKind::kDirected);
  tile::ConvertOptions o;
  o.tile_bits = 4;
  o.out_edges = false;  // store in-edges; BFS must still follow out direction
  auto store = gstore::testing::make_store(dir, el, o);
  TileBfs bfs(0);
  store::ScrEngine engine(store);
  engine.run(bfs);
  EXPECT_EQ(bfs.depth()[1], 1);
  EXPECT_EQ(bfs.depth()[2], 2);
  EXPECT_EQ(bfs.depth()[3], TileBfs::kUnvisited);
}

TEST(TilePageRank, RanksSumToApproxOne) {
  io::TempDir dir;
  auto el = graph::kronecker(10, 8, GraphKind::kUndirected, 3);
  auto store = gstore::testing::make_store(dir, el);
  TilePageRank pr(PageRankOptions{0.85, 8, 0.0});
  store::ScrEngine engine(store);
  engine.run(pr);
  double sum = 0;
  for (float r : pr.ranks()) sum += r;
  // Rank mass leaks only via dangling (zero-degree) vertices.
  EXPECT_GT(sum, 0.5);
  EXPECT_LT(sum, 1.01);
}

TEST(TilePageRank, StarCenterDominates) {
  io::TempDir dir;
  tile::ConvertOptions o;
  o.tile_bits = 4;
  auto store = gstore::testing::make_store(dir, graph::star(100), o);
  TilePageRank pr(PageRankOptions{0.85, 10, 0.0});
  store::ScrEngine engine(store);
  engine.run(pr);
  for (vid_t v = 1; v < 100; ++v) EXPECT_GT(pr.ranks()[0], pr.ranks()[v]);
}

TEST(TilePageRank, ToleranceStopsEarly) {
  io::TempDir dir;
  auto store = gstore::testing::make_store(dir, graph::cycle(64),
                                           [] {
                                             tile::ConvertOptions o;
                                             o.tile_bits = 4;
                                             return o;
                                           }());
  // On a cycle every vertex keeps rank 1/n: delta hits 0 after iteration 1.
  TilePageRank pr(PageRankOptions{0.85, 50, 1e-7});
  store::ScrEngine engine(store);
  engine.run(pr);
  EXPECT_LT(pr.iterations_run(), 5u);
  for (float r : pr.ranks()) EXPECT_NEAR(r, 1.0f / 64, 1e-5);
}

TEST(TileWcc, CountsComponents) {
  io::TempDir dir;
  tile::ConvertOptions o;
  o.tile_bits = 4;
  auto store = gstore::testing::make_store(dir, graph::two_cliques(40), o);
  TileWcc wcc;
  store::ScrEngine engine(store);
  engine.run(wcc);
  EXPECT_EQ(wcc.component_count(), 2u);
  for (vid_t v = 0; v < 20; ++v) EXPECT_EQ(wcc.labels()[v], 0u);
  for (vid_t v = 20; v < 40; ++v) EXPECT_EQ(wcc.labels()[v], 20u);
}

TEST(TileWcc, DirectedEdgesGiveWeakComponents) {
  io::TempDir dir;
  // 0→1, 2→1: weakly one component {0,1,2}, vertex 3 isolated.
  auto el = EdgeList({{0, 1}, {2, 1}}, 4, GraphKind::kDirected);
  tile::ConvertOptions o;
  o.tile_bits = 4;
  auto store = gstore::testing::make_store(dir, el, o);
  TileWcc wcc;
  store::ScrEngine engine(store);
  engine.run(wcc);
  EXPECT_EQ(wcc.labels()[0], 0u);
  EXPECT_EQ(wcc.labels()[1], 0u);
  EXPECT_EQ(wcc.labels()[2], 0u);
  EXPECT_EQ(wcc.labels()[3], 3u);
  EXPECT_EQ(wcc.component_count(), 2u);
}

TEST(TileSssp, WeightsAreDeterministicAndSymmetric) {
  EXPECT_EQ(edge_weight(3, 9), edge_weight(9, 3));
  EXPECT_EQ(edge_weight(3, 9), edge_weight(3, 9));
  EXPECT_GE(edge_weight(1, 2), 1.0f);
  EXPECT_LE(edge_weight(1, 2), 16.0f);
}

TEST(TileSssp, ShorterMultiHopBeatsHeavyDirect) {
  // SSSP must find multi-hop routes cheaper than heavy direct edges; verify
  // against Dijkstra on a dense graph where such routes exist.
  io::TempDir dir;
  auto el = graph::complete(24);
  tile::ConvertOptions o;
  o.tile_bits = 4;
  auto store = gstore::testing::make_store(dir, el, o);
  TileSssp sssp(0);
  store::ScrEngine engine(store);
  engine.run(sssp);
  const auto want = ref_sssp(el, 0);
  for (vid_t v = 0; v < 24; ++v)
    EXPECT_FLOAT_EQ(sssp.distances()[v], want[v]);
}

tile::TileStore small_tile_store(const io::TempDir& dir, const EdgeList& el) {
  tile::ConvertOptions o;
  o.tile_bits = 5;  // 16 tile rows
  return gstore::testing::make_store(dir, el, o);
}

// Priority rounds ask every tile's priority, so after reactivate() only the
// delta tile's two rows may hold work, whatever the previous run left
// pending.
TEST(TileSssp, ReactivateArmsOnlyTheDeltaTilesRows) {
  io::TempDir dir;
  auto store =
      small_tile_store(dir, graph::kronecker(9, 6, GraphKind::kUndirected, 7));
  TileSssp sssp(0);
  store::ScrEngine(store).run(sssp);
  const tile::Grid& grid = store.grid();
  const std::uint64_t delta = grid.layout_index(1, 3);
  ASSERT_TRUE(
      sssp.reactivate(store, std::span<const std::uint64_t>(&delta, 1)));
  std::uint64_t armed = 0;
  for (std::uint64_t idx = 0; idx < grid.tile_count(); ++idx) {
    const tile::TileCoord c = grid.coord_at(idx);
    const bool idle =
        sssp.tile_priority(c.i, c.j) == store::TileAlgorithm::kPriorityIdle;
    const bool in_delta_rows = c.i == 1 || c.i == 3 || c.j == 1 || c.j == 3;
    if (!in_delta_rows)
      EXPECT_TRUE(idle) << "tile (" << c.i << "," << c.j << ")";
    else if (!idle)
      ++armed;
  }
  EXPECT_GT(armed, 0u);
}

// With a delta this small every row past distance 6.5536 lands at or above
// kMaxBucket, so most of the run happens in the shared overflow bucket. Its
// rounds must drain those rows and still reach Dijkstra's distances.
TEST(TileSssp, OverflowBucketConverges) {
  io::TempDir dir;
  const EdgeList el = graph::kronecker(9, 6, GraphKind::kUndirected, 7);
  auto store = small_tile_store(dir, el);
  TileSssp sssp(0);
  sssp.set_delta(1e-4f);
  store::EngineConfig cfg;
  cfg.schedule = store::ScheduleMode::kPriority;
  const auto stats = store::ScrEngine(store, cfg).run(sssp);
  EXPECT_EQ(stats.max_bucket, store::TileAlgorithm::kMaxBucket);
  const auto want = ref_sssp(el, 0);
  for (vid_t v = 0; v < el.vertex_count(); ++v)
    ASSERT_FLOAT_EQ(sssp.distances()[v], want[v]) << "vertex " << v;
}

}  // namespace
}  // namespace gstore::algo
// Appended: all four on-disk format variants must produce identical results.
namespace gstore::algo {
namespace {

class FormatVariantTest : public ::testing::TestWithParam<std::pair<bool, bool>> {};

TEST_P(FormatVariantTest, BfsAndPagerankInvariantToFormat) {
  const auto [snb, symmetry] = GetParam();
  io::TempDir dir;
  auto el = graph::kronecker(9, 5, graph::GraphKind::kUndirected, 99);
  el.normalize();
  tile::ConvertOptions o;
  o.tile_bits = 6;
  o.snb = snb;
  o.symmetry = symmetry;
  auto store = gstore::testing::make_store(dir, el, o);

  TileBfs bfs(0);
  store::ScrEngine(store).run(bfs);
  const auto want_depth = ref_bfs(el, 0);
  for (graph::vid_t v = 0; v < el.vertex_count(); ++v)
    ASSERT_EQ(bfs.depth()[v], want_depth[v]) << "snb=" << snb << " sym=" << symmetry;

  TilePageRank pr(PageRankOptions{0.85, 4, 0.0});
  store::ScrEngine(store).run(pr);
  const auto want_rank = ref_pagerank(el, 4);
  for (graph::vid_t v = 0; v < el.vertex_count(); ++v)
    ASSERT_NEAR(pr.ranks()[v], want_rank[v], 1e-4);

  TileWcc wcc;
  store::ScrEngine(store).run(wcc);
  const auto want_cc = ref_wcc(el);
  for (graph::vid_t v = 0; v < el.vertex_count(); ++v)
    ASSERT_EQ(wcc.labels()[v], want_cc[v]);
}

INSTANTIATE_TEST_SUITE_P(
    Formats, FormatVariantTest,
    ::testing::Values(std::make_pair(true, true), std::make_pair(true, false),
                      std::make_pair(false, true), std::make_pair(false, false)),
    [](const auto& info) {
      return std::string(info.param.first ? "Snb" : "Fat") +
             (info.param.second ? "Sym" : "Full");
    });

}  // namespace
}  // namespace gstore::algo
// Appended: extension algorithms — asynchronous BFS and k-core.
#include "algo/bfs_async.h"
#include "algo/kcore.h"

namespace gstore::algo {
namespace {

TEST(TileBfsAsync, MatchesSynchronousDepths) {
  io::TempDir dir;
  auto el = graph::kronecker(10, 6, graph::GraphKind::kUndirected, 5);
  tile::ConvertOptions o;
  o.tile_bits = 6;
  auto store = gstore::testing::make_store(dir, el, o);
  TileBfsAsync async_bfs(0);
  store::ScrEngine(store).run(async_bfs);
  const auto want = ref_bfs(el, 0);
  const auto got = async_bfs.depths();
  for (graph::vid_t v = 0; v < el.vertex_count(); ++v)
    ASSERT_EQ(got[v], want[v]) << "vertex " << v;
}

TEST(TileBfsAsync, FewerPassesThanLevelsOnPath) {
  // On a path, synchronous BFS needs one iteration per level; asynchronous
  // relaxation rides the in-tile processing order and collapses levels that
  // point "forward" in layout order.
  io::TempDir dir;
  tile::ConvertOptions o;
  o.tile_bits = 4;
  auto store = gstore::testing::make_store(dir, graph::path(200), o);
  TileBfsAsync bfs(0);
  const store::EngineStats stats = store::ScrEngine(store).run(bfs);
  const auto d = bfs.depths();
  for (graph::vid_t v = 0; v < 200; ++v) EXPECT_EQ(d[v], static_cast<int>(v));
  EXPECT_LT(stats.iterations, 100u);  // sync BFS needs 200 iterations
}

TEST(TileBfsAsync, DirectedFollowsDirection) {
  io::TempDir dir;
  auto el = graph::EdgeList::from_edges({{0, 1}, {1, 2}, {3, 0}},
                                        graph::GraphKind::kDirected);
  tile::ConvertOptions o;
  o.tile_bits = 4;
  auto store = gstore::testing::make_store(dir, el, o);
  TileBfsAsync bfs(0);
  store::ScrEngine(store).run(bfs);
  const auto d = bfs.depths();
  EXPECT_EQ(d[0], 0);
  EXPECT_EQ(d[1], 1);
  EXPECT_EQ(d[2], 2);
  EXPECT_EQ(d[3], -1);
}

// Priority mode delta-steps by hop count through SSSP's oracle; the depths
// stay exact. From the middle of a 20 x 30 grid the directed store reaches
// one quadrant, and both reach far enough to fill several buckets.
TEST(TileBfsAsync, PriorityScheduleMatchesReference) {
  constexpr vid_t kRoot = 10 * 30 + 15;
  for (const GraphKind kind : {GraphKind::kDirected, GraphKind::kUndirected}) {
    io::TempDir dir;
    const EdgeList el = graph::grid(20, 30, kind);
    tile::ConvertOptions o;
    o.tile_bits = 4;
    auto store = gstore::testing::make_store(dir, el, o);
    store::EngineConfig cfg;
    cfg.schedule = store::ScheduleMode::kPriority;
    TileBfsAsync bfs(kRoot);
    const store::EngineStats stats = store::ScrEngine(store, cfg).run(bfs);
    EXPECT_GT(stats.max_bucket, 0u);
    const auto want = ref_bfs(el, kRoot);
    const auto got = bfs.depths();
    for (graph::vid_t v = 0; v < el.vertex_count(); ++v)
      ASSERT_EQ(got[v], want[v]) << "vertex " << v << " directed "
                                 << (kind == GraphKind::kDirected);
  }
}

class KCoreTest : public ::testing::TestWithParam<graph::degree_t> {};

TEST_P(KCoreTest, MatchesPeelingReference) {
  io::TempDir dir;
  auto el = graph::kronecker(10, 6, graph::GraphKind::kUndirected, 77);
  el.normalize();
  tile::ConvertOptions o;
  o.tile_bits = 6;
  auto store = gstore::testing::make_store(dir, el, o);
  TileKCore kcore(GetParam());
  store::ScrEngine(store).run(kcore);
  const auto want = ref_kcore(el, GetParam());
  ASSERT_EQ(kcore.alive().size(), want.size());
  for (graph::vid_t v = 0; v < want.size(); ++v)
    ASSERT_EQ(kcore.alive()[v], want[v]) << "vertex " << v << " k=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Ks, KCoreTest, ::testing::Values(1, 2, 3, 5, 8, 16),
                         [](const auto& info) {
                           return "k" + std::to_string(info.param);
                         });

TEST(TileKCore, CliqueSurvivesStarDoesNot) {
  // Two cliques of 10: every vertex has degree 9 → 9-core keeps everything,
  // 10-core empties the graph.
  io::TempDir dir;
  tile::ConvertOptions o;
  o.tile_bits = 4;
  auto store = gstore::testing::make_store(dir, graph::two_cliques(20), o);
  {
    TileKCore k9(9);
    store::ScrEngine(store).run(k9);
    EXPECT_EQ(k9.core_size(), 20u);
  }
  {
    TileKCore k10(10);
    store::ScrEngine(store).run(k10);
    EXPECT_EQ(k10.core_size(), 0u);
  }
}

TEST(TileKCore, CascadingPeel) {
  // A path hung off a triangle: 2-core strips the whole path, keeps the
  // triangle — requires the iterative cascade, not a single degree filter.
  auto el = graph::EdgeList::from_edges(
      {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}},
      graph::GraphKind::kUndirected);
  io::TempDir dir;
  tile::ConvertOptions o;
  o.tile_bits = 4;
  auto store = gstore::testing::make_store(dir, el, o);
  TileKCore kcore(2);
  store::ScrEngine(store).run(kcore);
  EXPECT_EQ(kcore.core_size(), 3u);
  for (graph::vid_t v = 0; v < 3; ++v) EXPECT_TRUE(kcore.alive()[v]);
  for (graph::vid_t v = 3; v < 6; ++v) EXPECT_FALSE(kcore.alive()[v]);
}

TEST(TileKCore, RejectsDirectedStore) {
  io::TempDir dir;
  auto el = graph::EdgeList::from_edges({{0, 1}}, graph::GraphKind::kDirected);
  auto store = gstore::testing::make_store(dir, el);
  TileKCore kcore(2);
  store::ScrEngine engine(store);
  EXPECT_THROW(engine.run(kcore), Error);
}

// The path 0-4-8 over 12 vertices in 4-vertex tiles, k = 2. The first
// round peels 0, 8 and every isolated vertex, after which no tile carrying
// data has both rows alive: vertex 4 has no live neighbour left, but a
// priority run stops when no tile has work, so no later round zeroes its
// degree. The end hook peels it instead, which also spares a grid run the
// empty round that would.
TEST(TileKCore, PeelsTheLastSurvivorsUnderEitherSchedule) {
  const EdgeList el({{0, 4}, {4, 8}}, 12, GraphKind::kUndirected);
  io::TempDir dir;
  tile::ConvertOptions o;
  o.tile_bits = 2;
  auto store = gstore::testing::make_store(dir, el, o);
  const auto want = ref_kcore(el, 2);
  for (const store::ScheduleMode mode :
       {store::ScheduleMode::kGrid, store::ScheduleMode::kPriority}) {
    SCOPED_TRACE(mode == store::ScheduleMode::kGrid ? "grid" : "priority");
    store::EngineConfig cfg;
    cfg.schedule = mode;
    TileKCore kcore(2);
    const store::EngineStats stats = store::ScrEngine(store, cfg).run(kcore);
    EXPECT_EQ(kcore.alive(), want);
    EXPECT_EQ(kcore.core_size(), 0u);
    // Grid: the peel, then one empty sweep that peels nothing. Priority:
    // the peel, then no tile has work.
    EXPECT_EQ(stats.iterations,
              mode == store::ScheduleMode::kGrid ? 2u : 1u);
  }
}

TEST(TileKCore, SkipsDeadTiles) {
  // Star graph: 1-core keeps everything; 2-core kills all leaves in one
  // iteration, after which selective fetch must skip the dead ranges.
  io::TempDir dir;
  tile::ConvertOptions o;
  o.tile_bits = 4;
  auto store = gstore::testing::make_store(dir, graph::star(16 * 8), o);
  TileKCore kcore(2);
  const auto stats = store::ScrEngine(store).run(kcore);
  EXPECT_EQ(kcore.core_size(), 0u);
  EXPECT_GT(stats.tiles_skipped, 0u);
}

}  // namespace
}  // namespace gstore::algo
// Appended: SCC over dual tile stores.
#include "algo/scc.h"

namespace gstore::algo {
namespace {

// Builds out- and in-edge stores for one directed edge list.
std::pair<tile::TileStore, tile::TileStore> dual_stores(const io::TempDir& dir,
                                                        const EdgeList& el,
                                                        unsigned tile_bits) {
  tile::ConvertOptions out_o;
  out_o.tile_bits = tile_bits;
  tile::ConvertOptions in_o = out_o;
  in_o.out_edges = false;
  tile::convert_to_tiles(el, dir.file("out"), out_o);
  tile::convert_to_tiles(el, dir.file("in"), in_o);
  return {tile::TileStore::open(dir.file("out")),
          tile::TileStore::open(dir.file("in"))};
}

TEST(RefScc, HandlesCycleAndTail) {
  // 0→1→2→0 is one SCC; 3→4 are singletons.
  auto el = EdgeList::from_edges({{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}},
                                 GraphKind::kDirected);
  const auto scc = ref_scc(el);
  EXPECT_EQ(scc[0], 0u);
  EXPECT_EQ(scc[1], 0u);
  EXPECT_EQ(scc[2], 0u);
  EXPECT_EQ(scc[3], 3u);
  EXPECT_EQ(scc[4], 4u);
}

TEST(TileScc, TwoCyclesAndBridge) {
  // Two 3-cycles joined by a one-way bridge: two SCCs of size 3.
  auto el = EdgeList::from_edges(
      {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 3}},
      GraphKind::kDirected);
  io::TempDir dir;
  auto [out_s, in_s] = dual_stores(dir, el, 4);
  const auto got = tile_scc(out_s, in_s);
  const auto want = ref_scc(el);
  for (graph::vid_t v = 0; v < el.vertex_count(); ++v)
    EXPECT_EQ(got[v], want[v]) << "vertex " << v;
}

TEST(TileScc, MatchesTarjanOnRandomDigraphs) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    auto el = graph::uniform_random(120, 400, GraphKind::kDirected, seed);
    el.normalize();
    io::TempDir dir;
    auto [out_s, in_s] = dual_stores(dir, el, 4);
    store::EngineConfig small;
    small.stream_memory_bytes = 32 << 10;
    small.segment_bytes = 4 << 10;
    const auto got = tile_scc(out_s, in_s, SccOptions{small});
    const auto want = ref_scc(el);
    for (graph::vid_t v = 0; v < el.vertex_count(); ++v)
      ASSERT_EQ(got[v], want[v]) << "seed " << seed << " vertex " << v;
  }
}

TEST(TileScc, MatchesTarjanOnKron) {
  auto el = graph::kronecker(8, 6, GraphKind::kDirected, 7);
  el.normalize();
  io::TempDir dir;
  auto [out_s, in_s] = dual_stores(dir, el, 5);
  const auto got = tile_scc(out_s, in_s);
  const auto want = ref_scc(el);
  for (graph::vid_t v = 0; v < el.vertex_count(); ++v)
    ASSERT_EQ(got[v], want[v]) << "vertex " << v;
}

TEST(TileScc, RejectsMismatchedStores) {
  auto el = EdgeList::from_edges({{0, 1}}, GraphKind::kDirected);
  io::TempDir dir;
  tile::ConvertOptions o;
  o.tile_bits = 4;
  tile::convert_to_tiles(el, dir.file("out"), o);
  auto out1 = tile::TileStore::open(dir.file("out"));
  auto out2 = tile::TileStore::open(dir.file("out"));
  EXPECT_THROW(tile_scc(out1, out2), Error);  // both are out-edge stores
}

TEST(TileReach, MaskRestrictsTraversal) {
  // 0→1→2; masking out vertex 1 must stop the wave.
  auto el = EdgeList::from_edges({{0, 1}, {1, 2}}, GraphKind::kDirected);
  io::TempDir dir;
  tile::ConvertOptions o;
  o.tile_bits = 4;
  auto store = gstore::testing::make_store(dir, el, o);
  std::vector<std::uint8_t> mask(el.vertex_count(), 1);
  mask[1] = 0;
  TileReach reach(0, &mask);
  store::ScrEngine(store).run(reach);
  EXPECT_TRUE(reach.reached()[0]);
  EXPECT_FALSE(reach.reached()[1]);
  EXPECT_FALSE(reach.reached()[2]);
}

}  // namespace
}  // namespace gstore::algo
