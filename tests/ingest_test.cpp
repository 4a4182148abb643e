// Tests for the online ingestion subsystem: WAL durability/replay, the delta
// overlay, snapshot-safe compaction, and crash recovery at every protocol
// step (ISSUE: online edge ingestion).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "algo/bfs.h"
#include "algo/cc.h"
#include "algo/pagerank.h"
#include "graph/generator.h"
#include "ingest/compact.h"
#include "ingest/delta.h"
#include "ingest/ingestor.h"
#include "ingest/wal.h"
#include "store/scr_engine.h"
#include "test_util.h"
#include "tile/overlay.h"
#include "tile/verify.h"
#include "util/crc32.h"
#include "util/status.h"

namespace gstore {
namespace {

using testing::decode_all_edges;
using testing::make_store;

// ---- helpers ---------------------------------------------------------------

std::vector<std::uint8_t> slurp(const std::string& path) {
  io::File f(path, io::OpenMode::kRead);
  std::vector<std::uint8_t> out(f.size());
  if (!out.empty()) f.pread_full(out.data(), out.size(), 0);
  return out;
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  io::File f(path, io::OpenMode::kWrite);
  if (!bytes.empty()) f.pwrite_full(bytes.data(), bytes.size(), 0);
}

void patch(const std::string& path, std::uint64_t offset,
           std::vector<std::uint8_t> bytes) {
  io::File f(path, io::OpenMode::kReadWrite);
  f.pwrite_full(bytes.data(), bytes.size(), offset);
}

std::vector<graph::Edge> sorted(std::vector<graph::Edge> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// Decodes the overlay's tuples to global coordinates (base tiles excluded).
std::vector<graph::Edge> overlay_tuples(const tile::TileStore& store) {
  std::vector<graph::Edge> out;
  const tile::TileOverlay* ov = store.overlay();
  if (ov == nullptr) return out;
  for (const std::uint64_t idx : ov->nonempty_tiles()) {
    const tile::TileCoord c = store.grid().coord_at(idx);
    for (const tile::SnbEdge& e : ov->tile_edges(idx))
      out.push_back(tile::snb_decode(e, store.grid().tile_base(c.i),
                                     store.grid().tile_base(c.j)));
  }
  return out;
}

std::vector<graph::Edge> logical_tuples(tile::TileStore& store) {
  std::vector<graph::Edge> all = decode_all_edges(store);
  const std::vector<graph::Edge> extra = overlay_tuples(store);
  all.insert(all.end(), extra.begin(), extra.end());
  return sorted(std::move(all));
}

graph::EdgeList strip_self_loops(const graph::EdgeList& el) {
  std::vector<graph::Edge> kept;
  kept.reserve(el.edge_count());
  for (const graph::Edge& e : el.edges())
    if (e.src != e.dst) kept.push_back(e);
  return graph::EdgeList(std::move(kept), el.vertex_count(), el.kind());
}

struct AlgoResults {
  std::vector<std::int32_t> bfs_depth;
  std::vector<float> pr_ranks;
  std::vector<graph::vid_t> wcc_labels;
};

AlgoResults run_algos(tile::TileStore& store) {
  const store::EngineConfig cfg;
  AlgoResults r;
  {
    algo::TileBfs bfs(0);
    store::ScrEngine(store, cfg).run(bfs);
    r.bfs_depth = bfs.depth();
  }
  {
    algo::PageRankOptions popt;
    popt.max_iterations = 10;
    popt.tolerance = 0;  // fixed iteration count, deterministic shape
    algo::TilePageRank pr(popt);
    store::ScrEngine(store, cfg).run(pr);
    r.pr_ranks = pr.ranks();
  }
  {
    algo::TileWcc wcc;
    store::ScrEngine(store, cfg).run(wcc);
    r.wcc_labels = wcc.labels();
  }
  return r;
}

void expect_same_results(const AlgoResults& a, const AlgoResults& b) {
  EXPECT_EQ(a.bfs_depth, b.bfs_depth);
  EXPECT_EQ(a.wcc_labels, b.wcc_labels);
  ASSERT_EQ(a.pr_ranks.size(), b.pr_ranks.size());
  for (std::size_t v = 0; v < a.pr_ranks.size(); ++v)
    EXPECT_NEAR(a.pr_ranks[v], b.pr_ranks[v], 1e-4f) << "vertex " << v;
}

// Splits an edge list into a base graph and a delta batch.
void split(const graph::EdgeList& el, double base_fraction,
           graph::EdgeList& base, std::vector<graph::Edge>& delta) {
  const auto cut = static_cast<std::size_t>(el.edge_count() * base_fraction);
  std::vector<graph::Edge> head(el.edges().begin(), el.edges().begin() + cut);
  delta.assign(el.edges().begin() + cut, el.edges().end());
  base = graph::EdgeList(std::move(head), el.vertex_count(), el.kind());
}

// ---- WAL -------------------------------------------------------------------

TEST(Wal, RoundTrip) {
  io::TempDir dir;
  const std::string path = dir.file("g.wal");
  const std::vector<graph::Edge> b1 = {{1, 2}, {3, 4}};
  const std::vector<graph::Edge> b2 = {{5, 6}};
  {
    ingest::EdgeWal wal(path, 7);
    wal.append(b1);
    wal.append(b2);
    wal.append({});  // no-op
    EXPECT_EQ(wal.generation(), 7u);
  }
  const ingest::WalReplay r = ingest::EdgeWal::replay(path);
  EXPECT_TRUE(r.exists);
  EXPECT_EQ(r.generation, 7u);
  EXPECT_EQ(r.frames, 2u);
  EXPECT_EQ(r.tail, ingest::WalTail::kClean);
  EXPECT_EQ(r.dropped_bytes, 0u);
  ASSERT_EQ(r.edges.size(), 3u);
  EXPECT_EQ(r.edges[0], (graph::Edge{1, 2}));
  EXPECT_EQ(r.edges[2], (graph::Edge{5, 6}));
}

TEST(Wal, MissingFileReplaysEmpty) {
  io::TempDir dir;
  const ingest::WalReplay r = ingest::EdgeWal::replay(dir.file("none.wal"));
  EXPECT_FALSE(r.exists);
  EXPECT_TRUE(r.edges.empty());
  EXPECT_EQ(r.tail, ingest::WalTail::kClean);
}

// Property: truncating the log at *every* byte boundary still replays
// exactly the frames that are fully contained — never a partial frame,
// never an exception, never corruption.
TEST(Wal, TruncationAtEveryByteReplaysCompleteFrames) {
  io::TempDir dir;
  const std::string path = dir.file("g.wal");
  const std::vector<std::vector<graph::Edge>> batches = {
      {{1, 2}, {3, 4}, {5, 6}}, {{7, 8}}, {{9, 10}, {11, 12}}};
  {
    ingest::EdgeWal wal(path, 0);
    for (const auto& b : batches) wal.append(b);
  }
  const std::vector<std::uint8_t> full = slurp(path);

  // Frame boundaries: offset after the file header and after each frame.
  std::vector<std::uint64_t> boundary = {sizeof(ingest::WalFileHeader)};
  for (const auto& b : batches)
    boundary.push_back(boundary.back() + sizeof(ingest::WalFrameHeader) +
                       b.size() * sizeof(graph::Edge));
  ASSERT_EQ(boundary.back(), full.size());

  const std::string cut_path = dir.file("cut.wal");
  for (std::uint64_t len = 0; len <= full.size(); ++len) {
    spit(cut_path, {full.begin(), full.begin() + len});
    const ingest::WalReplay r = ingest::EdgeWal::replay(cut_path);
    EXPECT_NE(r.tail, ingest::WalTail::kCorrupt) << "len " << len;
    std::size_t want_frames = 0;
    std::size_t want_edges = 0;
    for (std::size_t k = 0; k < batches.size(); ++k)
      if (boundary[k + 1] <= len) {
        ++want_frames;
        want_edges += batches[k].size();
      }
    EXPECT_EQ(r.frames, want_frames) << "len " << len;
    EXPECT_EQ(r.edges.size(), want_edges) << "len " << len;
    if (len >= sizeof(ingest::WalFileHeader)) {
      // Replay must account exactly the bytes of the intact prefix.
      const auto it = std::upper_bound(boundary.begin(), boundary.end(), len);
      EXPECT_EQ(r.valid_bytes, *(it - 1)) << "len " << len;
    }
  }
}

TEST(Wal, CorruptFrameDetected) {
  io::TempDir dir;
  const std::string path = dir.file("g.wal");
  {
    ingest::EdgeWal wal(path, 0);
    wal.append(std::vector<graph::Edge>{{1, 2}});
    wal.append(std::vector<graph::Edge>{{3, 4}});
  }
  // Flip a payload byte of the second (fully present) frame.
  const std::uint64_t second_payload =
      sizeof(ingest::WalFileHeader) + 2 * sizeof(ingest::WalFrameHeader) +
      sizeof(graph::Edge);
  std::vector<std::uint8_t> bytes = slurp(path);
  bytes[second_payload] ^= 0xff;
  spit(path, bytes);

  const ingest::WalReplay r = ingest::EdgeWal::replay(path);
  EXPECT_EQ(r.tail, ingest::WalTail::kCorrupt);
  EXPECT_EQ(r.frames, 1u);
  ASSERT_EQ(r.edges.size(), 1u);
  EXPECT_EQ(r.edges[0], (graph::Edge{1, 2}));
}

TEST(Wal, StaleGenerationIsReset) {
  io::TempDir dir;
  const std::string path = dir.file("g.wal");
  {
    ingest::EdgeWal wal(path, 0);
    wal.append(std::vector<graph::Edge>{{1, 2}});
  }
  // A writer opening on behalf of generation 1 must discard generation 0's
  // edges (they are already compacted into the tiles).
  ingest::EdgeWal wal(path, 1);
  EXPECT_EQ(wal.size_bytes(), sizeof(ingest::WalFileHeader));
  const ingest::WalReplay r = ingest::EdgeWal::replay(path);
  EXPECT_EQ(r.generation, 1u);
  EXPECT_TRUE(r.edges.empty());
}

TEST(Wal, TornTailTruncatedOnReopen) {
  io::TempDir dir;
  const std::string path = dir.file("g.wal");
  {
    ingest::EdgeWal wal(path, 0);
    wal.append(std::vector<graph::Edge>{{1, 2}});
    wal.append(std::vector<graph::Edge>{{3, 4}});
  }
  std::vector<std::uint8_t> bytes = slurp(path);
  bytes.resize(bytes.size() - 3);  // tear the last frame
  spit(path, bytes);
  ingest::EdgeWal wal(path, 0);  // reopen truncates the torn tail
  wal.append(std::vector<graph::Edge>{{5, 6}});
  const ingest::WalReplay r = ingest::EdgeWal::replay(path);
  EXPECT_EQ(r.tail, ingest::WalTail::kClean);
  ASSERT_EQ(r.edges.size(), 2u);
  EXPECT_EQ(r.edges[0], (graph::Edge{1, 2}));
  EXPECT_EQ(r.edges[1], (graph::Edge{5, 6}));
}

// ---- delta buffer ----------------------------------------------------------

TEST(DeltaBuffer, GroupsByTileAndTracksDegrees) {
  io::TempDir dir;
  // 4 vertices in one undirected symmetric store, tile_bits 1 → 2×2 grid of
  // 2-vertex tiles, upper triangle stored.
  graph::EdgeList el({{0, 1}}, 4, graph::GraphKind::kUndirected);
  tile::ConvertOptions copt;
  copt.tile_bits = 1;
  copt.group_side = 2;
  auto store = make_store(dir, el, copt);

  ingest::DeltaBuffer delta(store.grid(), store.meta(), 1 << 20);
  EXPECT_TRUE(delta.add({3, 0}));   // canonicalized to (0,3) → tile (0,1)
  EXPECT_TRUE(delta.add({2, 3}));   // tile (1,1)
  EXPECT_FALSE(delta.add({2, 2}));  // self loop dropped
  EXPECT_THROW(delta.add({0, 4}), InvalidArgument);

  EXPECT_EQ(delta.ingested_edges(), 2u);
  EXPECT_EQ(delta.edge_count(), 2u);
  const auto tiles = delta.nonempty_tiles();
  ASSERT_EQ(tiles.size(), 2u);
  EXPECT_EQ(tiles[0], store.grid().layout_index(0, 1));
  EXPECT_EQ(tiles[1], store.grid().layout_index(1, 1));
  const auto span01 = delta.tile_edges(store.grid().layout_index(0, 1));
  ASSERT_EQ(span01.size(), 1u);
  EXPECT_EQ(tile::snb_decode(span01[0], 0, 2), (graph::Edge{0, 3}));

  std::vector<graph::degree_t> deg(4, 0);
  delta.apply_degree_deltas(deg);
  EXPECT_EQ(deg, (std::vector<graph::degree_t>{1, 0, 1, 2}));

  delta.clear();
  EXPECT_EQ(delta.edge_count(), 0u);
  EXPECT_EQ(delta.memory_bytes(), 0u);
}

// ---- end-to-end equivalence (the acceptance criterion) ---------------------

TEST(IngestEquivalence, OverlayAndCompactionMatchFreshConvert) {
  io::TempDir dir;
  const graph::EdgeList full = strip_self_loops(
      graph::kronecker(9, 8, graph::GraphKind::kUndirected, 42));
  graph::EdgeList base;
  std::vector<graph::Edge> delta;
  split(full, 0.85, base, delta);
  ASSERT_GT(delta.size(), 100u);

  tile::ConvertOptions copt;
  copt.tile_bits = 6;
  copt.group_side = 2;

  // Reference: a fresh conversion of G0 ∪ ΔE.
  auto union_store = make_store(dir, full, copt, {}, "union");
  const AlgoResults want = run_algos(union_store);
  const std::vector<graph::Edge> want_tuples = sorted(decode_all_edges(union_store));

  // Online path: convert G0, ingest ΔE through the WAL.
  tile::convert_to_tiles(base, dir.file("g"), copt);
  ingest::EdgeIngestor ingestor(dir.file("g"));
  EXPECT_EQ(ingestor.ingest(delta), delta.size());
  EXPECT_EQ(ingestor.generation(), 0u);
  EXPECT_GT(ingestor.wal_bytes(), sizeof(ingest::WalFileHeader));

  // Stage 1: algorithms through the overlay, store un-compacted.
  expect_same_results(run_algos(ingestor.store()), want);
  EXPECT_EQ(logical_tuples(ingestor.store()), want_tuples);

  // Stage 2: compact, then re-run on the new generation.
  const ingest::CompactStats cs = ingestor.compact();
  EXPECT_EQ(cs.old_generation, 0u);
  EXPECT_EQ(cs.new_generation, 1u);
  EXPECT_EQ(cs.wal_edges, delta.size());
  EXPECT_EQ(ingestor.generation(), 1u);
  EXPECT_EQ(ingestor.wal_bytes(), sizeof(ingest::WalFileHeader));
  EXPECT_EQ(ingestor.delta().ingested_edges(), 0u);
  EXPECT_EQ(ingestor.store().edge_count(), union_store.edge_count());
  EXPECT_EQ(sorted(decode_all_edges(ingestor.store())), want_tuples);
  expect_same_results(run_algos(ingestor.store()), want);

  // A fresh open through the manifest lands on generation 1 too.
  auto reopened = tile::TileStore::open(dir.file("g"));
  EXPECT_EQ(reopened.meta().generation, 1u);
  const tile::VerifyReport report = tile::verify_store(dir.file("g"));
  EXPECT_TRUE(report.ok) << (report.problems.empty() ? "" : report.problems[0]);
}

// A self loop adds no degree anywhere: the converter drops the base
// graph's loops without counting them, the WAL path drops its own, and
// compaction rebuilds degrees from the stored tuples. So folding the WAL in
// leaves PageRank's ranks, and their CRC, where they were, and both equal a
// fresh conversion of the loop-free union.
TEST(IngestEquivalence, CompactionKeepsRanksOfBaseWithSelfLoops) {
  io::TempDir dir;
  const graph::EdgeList el =
      graph::uniform_random(2000, 8000, graph::GraphKind::kUndirected, 11);
  const graph::EdgeList loop_free = strip_self_loops(el);
  ASSERT_LT(loop_free.edge_count(), el.edge_count());
  const graph::Edge extra[] = {{10, 1500}, {7, 42}};
  const auto rank_crc = [](tile::TileStore& store) {
    algo::TilePageRank pr(algo::PageRankOptions{0.85, 10, 0.0});
    store::ScrEngine(store).run(pr);
    return crc32(pr.ranks().data(), pr.ranks().size() * sizeof(float));
  };

  std::vector<graph::Edge> unioned = loop_free.edges();
  unioned.insert(unioned.end(), std::begin(extra), std::end(extra));
  auto fresh = make_store(
      dir, graph::EdgeList(unioned, el.vertex_count(), el.kind()), {}, {},
      "fresh");
  const std::uint32_t want = rank_crc(fresh);

  tile::convert_to_tiles(el, dir.file("g"), {});
  ingest::EdgeIngestor ingestor(dir.file("g"));
  ingestor.ingest(extra);
  EXPECT_EQ(rank_crc(ingestor.store()), want) << "before compact()";
  ingestor.compact();
  EXPECT_EQ(rank_crc(ingestor.store()), want) << "after compact()";
}

// Compaction must reproduce the converter's canonicalization for every
// store flavor: directed out-edges, directed in-edges, and the full-matrix
// undirected ablation.
TEST(IngestEquivalence, CompactionMatchesAcrossStoreFlavors) {
  struct Flavor {
    graph::GraphKind kind;
    bool out_edges;
    bool symmetry;
  };
  const Flavor flavors[] = {
      {graph::GraphKind::kDirected, true, true},
      {graph::GraphKind::kDirected, false, true},
      {graph::GraphKind::kUndirected, true, false},
  };
  for (const Flavor& f : flavors) {
    io::TempDir dir;
    const graph::EdgeList full =
        strip_self_loops(graph::kronecker(8, 8, f.kind, 7));
    graph::EdgeList base;
    std::vector<graph::Edge> delta;
    split(full, 0.9, base, delta);

    tile::ConvertOptions copt;
    copt.tile_bits = 5;
    copt.group_side = 2;
    copt.out_edges = f.out_edges;
    copt.symmetry = f.symmetry;

    auto union_store = make_store(dir, full, copt, {}, "union");
    tile::convert_to_tiles(base, dir.file("g"), copt);

    ingest::EdgeIngestor ingestor(dir.file("g"));
    ingestor.ingest(delta);
    EXPECT_EQ(logical_tuples(ingestor.store()),
              sorted(decode_all_edges(union_store)));
    ingestor.compact();
    EXPECT_EQ(sorted(decode_all_edges(ingestor.store())),
              sorted(decode_all_edges(union_store)))
        << "flavor out=" << f.out_edges << " sym=" << f.symmetry;
    EXPECT_EQ(ingestor.store().edge_count(), union_store.edge_count());
  }
}

// ---- crash safety ----------------------------------------------------------

TEST(CompactionCrash, EveryCrashPointRecoversToExactlyOneGeneration) {
  const ingest::CrashPoint points[] = {
      ingest::CrashPoint::kAfterNewGeneration,
      ingest::CrashPoint::kAfterManifestTemp,
      ingest::CrashPoint::kAfterPublish,
  };
  const graph::EdgeList full = strip_self_loops(
      graph::kronecker(8, 8, graph::GraphKind::kUndirected, 13));
  graph::EdgeList base;
  std::vector<graph::Edge> delta;
  split(full, 0.85, base, delta);

  for (const ingest::CrashPoint cp : points) {
    io::TempDir dir;
    tile::ConvertOptions copt;
    copt.tile_bits = 5;
    copt.group_side = 2;
    tile::convert_to_tiles(base, dir.file("g"), copt);
    std::vector<graph::Edge> want_tuples;
    {
      auto union_store = make_store(dir, full, copt, {}, "union");
      want_tuples = sorted(decode_all_edges(union_store));
      ingest::EdgeIngestor ingestor(dir.file("g"));
      ingestor.ingest(delta);
    }  // "process" exits; WAL is durable

    ingest::CompactOptions copts;
    copts.crash = cp;
    EXPECT_THROW(ingest::compact_store(dir.file("g"), copts),
                 ingest::CrashInjected);

    // The next "process" must land on exactly one generation and still
    // observe G0 ∪ ΔE — through the overlay if the publish didn't happen,
    // through the new tiles if it did.
    ingest::EdgeIngestor recovered(dir.file("g"));
    const std::uint32_t gen = recovered.generation();
    EXPECT_TRUE(gen == 0 || gen == 1) << "crash point " << int(cp);
    if (cp == ingest::CrashPoint::kAfterPublish) {
      EXPECT_EQ(gen, 1u);
      EXPECT_EQ(recovered.delta().ingested_edges(), 0u);  // stale WAL discarded
    } else {
      EXPECT_EQ(gen, 0u);
      EXPECT_EQ(recovered.delta().ingested_edges(), delta.size());
    }
    EXPECT_EQ(logical_tuples(recovered.store()), want_tuples)
        << "crash point " << int(cp);
    const tile::VerifyReport report = tile::verify_store(dir.file("g"));
    EXPECT_TRUE(report.ok) << (report.problems.empty() ? "" : report.problems[0]);

    // And a second, uninterrupted compaction completes from that state.
    recovered.compact();
    EXPECT_EQ(sorted(decode_all_edges(recovered.store())), want_tuples);
  }
}

TEST(Compaction, InFlightReaderFinishesOnOldGeneration) {
  io::TempDir dir;
  const graph::EdgeList full = strip_self_loops(
      graph::kronecker(8, 8, graph::GraphKind::kUndirected, 3));
  graph::EdgeList base;
  std::vector<graph::Edge> delta;
  split(full, 0.9, base, delta);

  tile::ConvertOptions copt;
  copt.tile_bits = 5;
  copt.group_side = 2;
  tile::convert_to_tiles(base, dir.file("g"), copt);
  auto old_tuples = [&] {
    auto s = tile::TileStore::open(dir.file("g"));
    return sorted(decode_all_edges(s));
  }();

  // Reader opens generation 0 and keeps its fds across the compaction.
  auto reader = tile::TileStore::open(dir.file("g"));
  {
    ingest::EdgeIngestor ingestor(dir.file("g"));
    ingestor.ingest(delta);
    ingestor.compact();  // unlinks generation 0's files
  }
  EXPECT_FALSE(io::File::exists(tile::TileStore::tiles_path(dir.file("g"))));

  // The reader still scans the complete old snapshot (POSIX keeps unlinked
  // files alive while open), and sees none of the delta.
  EXPECT_EQ(sorted(decode_all_edges(reader)), old_tuples);
  EXPECT_EQ(reader.meta().generation, 0u);

  // A new open lands on generation 1 with everything merged.
  auto fresh = tile::TileStore::open(dir.file("g"));
  EXPECT_EQ(fresh.meta().generation, 1u);
  EXPECT_EQ(fresh.edge_count(), old_tuples.size() + delta.size());
}

TEST(Ingestor, AutoCompactTriggersOnBudget) {
  io::TempDir dir;
  const graph::EdgeList full = strip_self_loops(
      graph::kronecker(8, 8, graph::GraphKind::kUndirected, 21));
  graph::EdgeList base;
  std::vector<graph::Edge> delta;
  split(full, 0.5, base, delta);

  tile::ConvertOptions copt;
  copt.tile_bits = 5;
  copt.group_side = 2;
  tile::convert_to_tiles(base, dir.file("g"), copt);

  ingest::IngestorOptions iopt;
  iopt.delta_budget_bytes = 1024;  // tiny: force a compaction
  iopt.auto_compact = true;
  ingest::EdgeIngestor ingestor(dir.file("g"), iopt);
  ingestor.ingest(delta);
  EXPECT_GE(ingestor.generation(), 1u);
  EXPECT_EQ(ingestor.delta().ingested_edges(), 0u);

  auto union_store = make_store(dir, full, copt, {}, "union");
  EXPECT_EQ(logical_tuples(ingestor.store()),
            sorted(decode_all_edges(union_store)));
}

// ---- format hardening (satellite: version/magic rejection) -----------------

TEST(MetaVersion, NewerSeiVersionRejected) {
  io::TempDir dir;
  graph::EdgeList el({{0, 1}, {1, 2}}, 8, graph::GraphKind::kUndirected);
  tile::ConvertOptions copt;
  copt.tile_bits = 2;
  { auto s = make_store(dir, el, copt); }
  // TileStoreMeta.version sits at byte 8 of the .sei file.
  patch(tile::TileStore::sei_path(dir.file("g")), 8, {99, 0, 0, 0});
  try {
    tile::TileStore::open(dir.file("g"));
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("version 99"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("newer"), std::string::npos);
  }
}

TEST(MetaVersion, NewerTilesVersionRejected) {
  io::TempDir dir;
  graph::EdgeList el({{0, 1}, {1, 2}}, 8, graph::GraphKind::kUndirected);
  tile::ConvertOptions copt;
  copt.tile_bits = 2;
  { auto s = make_store(dir, el, copt); }
  // TilesFileHeader.version sits at byte 8 of the .tiles file.
  patch(tile::TileStore::tiles_path(dir.file("g")), 8, {77, 0, 0, 0});
  try {
    tile::TileStore::open(dir.file("g"));
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("version 77"), std::string::npos);
  }
}

TEST(MetaVersion, MagicMismatchRejected) {
  io::TempDir dir;
  graph::EdgeList el({{0, 1}}, 4, graph::GraphKind::kUndirected);
  tile::ConvertOptions copt;
  copt.tile_bits = 2;
  { auto s = make_store(dir, el, copt); }
  patch(tile::TileStore::sei_path(dir.file("g")), 0, {0xde, 0xad});
  try {
    tile::TileStore::open(dir.file("g"));
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("magic mismatch"), std::string::npos);
  }
}

TEST(MetaVersion, LegacyV1StoreOpensAsGenerationZero) {
  io::TempDir dir;
  graph::EdgeList el({{0, 1}, {1, 2}, {2, 3}}, 8, graph::GraphKind::kUndirected);
  tile::ConvertOptions copt;
  copt.tile_bits = 2;
  // v1 stores carry a single start-edge index and raw SNB payloads, so the
  // store being patched below must be written without the v3 codec layer.
  copt.compress = false;
  std::vector<graph::Edge> want;
  {
    auto s = make_store(dir, el, copt);
    want = sorted(decode_all_edges(s));
  }
  // Rewrite both headers as a v1 store: version 1, generation bytes zero
  // (v1 wrote them as reserved zeros; generation sits at byte 48 of meta).
  patch(tile::TileStore::sei_path(dir.file("g")), 8, {1, 0, 0, 0});
  patch(tile::TileStore::sei_path(dir.file("g")), 48, {0, 0, 0, 0});
  patch(tile::TileStore::tiles_path(dir.file("g")), 8, {1, 0, 0, 0});
  auto s = tile::TileStore::open(dir.file("g"));
  EXPECT_EQ(s.meta().version, 1u);
  EXPECT_EQ(s.meta().generation, 0u);
  EXPECT_EQ(sorted(decode_all_edges(s)), want);
}

TEST(MetaVersion, GarbledManifestRejected) {
  io::TempDir dir;
  graph::EdgeList el({{0, 1}}, 4, graph::GraphKind::kUndirected);
  tile::ConvertOptions copt;
  copt.tile_bits = 2;
  { auto s = make_store(dir, el, copt); }
  spit(tile::TileStore::current_path(dir.file("g")), {'x', 'y', '\n'});
  EXPECT_THROW(tile::TileStore::open(dir.file("g")), FormatError);
}

// ---- verify extensions -----------------------------------------------------

TEST(Verify, CatchesTruncatedDegreeFile) {
  io::TempDir dir;
  graph::EdgeList el({{0, 1}, {1, 2}, {2, 3}}, 8, graph::GraphKind::kUndirected);
  tile::ConvertOptions copt;
  copt.tile_bits = 3;
  { auto s = make_store(dir, el, copt); }
  const std::string deg = tile::TileStore::deg_path(dir.file("g"));
  std::vector<std::uint8_t> bytes = slurp(deg);
  bytes.resize(bytes.size() - sizeof(graph::degree_t));
  spit(deg, bytes);
  const tile::VerifyReport report = tile::verify_store(dir.file("g"));
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.problems.empty());
  EXPECT_NE(report.problems[0].find("degree file"), std::string::npos);
}

TEST(Verify, CatchesCountingSymmetryBreak) {
  io::TempDir dir;
  // All vertices in one diagonal tile so a diagonal tuple is reachable.
  graph::EdgeList el({{0, 1}, {1, 2}, {2, 3}}, 8, graph::GraphKind::kUndirected);
  tile::ConvertOptions copt;
  copt.tile_bits = 3;
  // Patch raw tuple bytes directly: needs an uncoded (v2) payload — under
  // v3 codecs the same byte patch would trip the payload cross-check first.
  copt.compress = false;
  { auto s = make_store(dir, el, copt); }
  // Turn the first tuple (src16, dst16) into a diagonal (src16, src16): it
  // now bumps one degree instead of two, breaking the counting identity.
  const std::string tiles = tile::TileStore::tiles_path(dir.file("g"));
  std::vector<std::uint8_t> bytes = slurp(tiles);
  bytes[64 + 2] = bytes[64 + 0];  // dst16 := src16 of the first SNB tuple
  bytes[64 + 3] = bytes[64 + 1];
  spit(tiles, bytes);
  const tile::VerifyReport report = tile::verify_store(dir.file("g"));
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.problems.empty());
  EXPECT_NE(report.problems[0].find("counting symmetry"), std::string::npos);
}

TEST(Verify, ChecksWalFrames) {
  io::TempDir dir;
  const graph::EdgeList full = strip_self_loops(
      graph::kronecker(7, 4, graph::GraphKind::kUndirected, 5));
  tile::ConvertOptions copt;
  copt.tile_bits = 5;
  copt.group_side = 2;
  tile::convert_to_tiles(full, dir.file("g"), copt);
  {
    ingest::EdgeIngestor ingestor(dir.file("g"));
    ingestor.ingest(std::vector<graph::Edge>{{1, 2}, {3, 4}, {5, 6}});
  }
  tile::VerifyReport report = tile::verify_store(dir.file("g"));
  EXPECT_TRUE(report.ok) << (report.problems.empty() ? "" : report.problems[0]);
  EXPECT_EQ(report.wal_frames_checked, 1u);
  EXPECT_EQ(report.wal_edges_checked, 3u);

  // Corrupt the frame payload: verify must flag it.
  const std::string wal = ingest::EdgeWal::path_for(dir.file("g"));
  std::vector<std::uint8_t> bytes = slurp(wal);
  bytes.back() ^= 0xff;
  spit(wal, bytes);
  report = tile::verify_store(dir.file("g"));
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.problems.empty());
  EXPECT_NE(report.problems[0].find("corrupt frame"), std::string::npos);
}

}  // namespace
}  // namespace gstore
// Appended: incremental recompute + codec-aware compaction (ISSUE 10).
#include "algo/sssp.h"
#include "tile/compress.h"

namespace gstore {
namespace {

tile::TileCodec codec_of(tile::TileStore& s, std::uint64_t k) {
  std::vector<std::uint8_t> buf(s.tile_bytes(k));
  s.read_range(k, k + 1, buf.data());
  return s.view(k, buf.data()).codec;
}

// The WAL delta arrives, and instead of rerunning SSSP from scratch the
// engine re-activates only the tiles the delta touched (ScrEngine::resume).
// New edges can only shorten paths, so resuming from the converged
// distances must reach the same fixpoint as a cold run over base ∪ delta.
TEST(IncrementalRecompute, SsspResumeMatchesColdRerun) {
  io::TempDir dir;
  const graph::EdgeList full = strip_self_loops(
      graph::kronecker(11, 6, graph::GraphKind::kUndirected, 77));
  graph::EdgeList base;
  std::vector<graph::Edge> batch;
  split(full, 0.995, base, batch);
  ASSERT_GT(batch.size(), 5u);
  batch.resize(std::min<std::size_t>(batch.size(), 12));  // few touched tiles

  tile::ConvertOptions copt;
  copt.tile_bits = 5;
  copt.group_side = 2;
  tile::convert_to_tiles(base, dir.file("g"), copt);
  auto store = tile::TileStore::open(dir.file("g"));

  store::EngineConfig cfg;
  cfg.stream_memory_bytes = 96 << 10;
  cfg.segment_bytes = 8 << 10;

  // Converged cold state on the base graph, no overlay.
  algo::TileSssp sssp(0);
  store::ScrEngine engine(store, cfg);
  const auto cold_stats = engine.run(sssp);

  // Deliver the batch; the dirty-tile set drives the re-activation.
  ingest::DeltaBuffer delta(store.grid(), store.meta(), 1 << 20);
  delta.add_batch(batch);
  const auto dirty = delta.take_dirty_tiles();
  EXPECT_EQ(dirty, delta.nonempty_tiles());
  EXPECT_TRUE(delta.take_dirty_tiles().empty());  // take clears the set
  store.attach_overlay(&delta);

  const auto resume_stats = engine.resume(sssp, dirty);

  // Reference: a from-scratch run over the same base ∪ overlay view.
  algo::TileSssp ref(0);
  store::ScrEngine(store, cfg).run(ref);
  const auto& have = sssp.distances();
  const auto& want = ref.distances();
  ASSERT_EQ(have.size(), want.size());
  for (std::size_t v = 0; v < have.size(); ++v)
    ASSERT_EQ(have[v], want[v]) << "vertex " << v;

  // The resume touched only the delta's neighbourhood — far less I/O than
  // the converged cold run it replaces.
  EXPECT_GT(resume_stats.iterations, 0u);
  EXPECT_LT(resume_stats.bytes_read, cold_stats.bytes_read);
}

// New edges only merge components, so WCC resumes from its converged labels:
// one round over the delta's tiles, then the compress pass, must give the
// labels of a cold run over base ∪ delta.
TEST(IncrementalRecompute, WccResumeMatchesColdRerun) {
  io::TempDir dir;
  const graph::EdgeList full = strip_self_loops(
      graph::kronecker(11, 6, graph::GraphKind::kUndirected, 77));
  graph::EdgeList base;
  std::vector<graph::Edge> batch;
  split(full, 0.995, base, batch);
  batch.resize(std::min<std::size_t>(batch.size(), 12));  // few touched tiles

  tile::ConvertOptions copt;
  copt.tile_bits = 5;
  copt.group_side = 2;
  tile::convert_to_tiles(base, dir.file("g"), copt);
  auto store = tile::TileStore::open(dir.file("g"));

  store::EngineConfig cfg;
  cfg.stream_memory_bytes = 96 << 10;
  cfg.segment_bytes = 8 << 10;

  algo::TileWcc wcc;
  store::ScrEngine engine(store, cfg);
  const auto cold_stats = engine.run(wcc);
  const std::vector<graph::vid_t> cold = wcc.labels();

  // The batch also joins vertex 0's component to the highest vertex
  // outside it, so the resume has labels to move.
  graph::vid_t far = static_cast<graph::vid_t>(cold.size() - 1);
  while (far > 0 && cold[far] == cold[0]) --far;
  ASSERT_NE(cold[far], cold[0]);
  batch.push_back({0, far});

  ingest::DeltaBuffer delta(store.grid(), store.meta(), 1 << 20);
  delta.add_batch(batch);
  store.attach_overlay(&delta);
  const auto resume_stats = engine.resume(wcc, delta.take_dirty_tiles());

  algo::TileWcc ref;
  store::ScrEngine(store, cfg).run(ref);
  EXPECT_EQ(wcc.labels(), ref.labels());
  EXPECT_NE(wcc.labels(), cold);
  EXPECT_EQ(resume_stats.iterations, 1u);
  EXPECT_LT(resume_stats.bytes_read, cold_stats.bytes_read);
}

TEST(IncrementalRecompute, BfsDeclinesAndFallsBackToColdRun) {
  io::TempDir dir;
  const graph::EdgeList full = strip_self_loops(
      graph::kronecker(9, 6, graph::GraphKind::kUndirected, 31));
  graph::EdgeList base;
  std::vector<graph::Edge> batch;
  split(full, 0.95, base, batch);

  tile::ConvertOptions copt;
  copt.tile_bits = 5;
  tile::convert_to_tiles(base, dir.file("g"), copt);
  auto store = tile::TileStore::open(dir.file("g"));

  algo::TileBfs bfs(0);
  store::ScrEngine engine(store);
  engine.run(bfs);

  ingest::DeltaBuffer delta(store.grid(), store.meta(), 1 << 20);
  delta.add_batch(batch);
  store.attach_overlay(&delta);

  // BFS cannot lower already-assigned depths in place (its visited CAS is
  // one-shot), so reactivate() declines and resume() reruns cold — the
  // fallback must still produce the union graph's answer.
  engine.resume(bfs, delta.nonempty_tiles());
  algo::TileBfs ref(0);
  store::ScrEngine(store).run(ref);
  EXPECT_EQ(bfs.depth(), ref.depth());
}

TEST(IncrementalRecompute, EmptyDeltaFallsBackToColdRun) {
  io::TempDir dir;
  graph::EdgeList el({{0, 1}, {1, 2}, {2, 3}}, 8,
                     graph::GraphKind::kUndirected);
  tile::ConvertOptions copt;
  copt.tile_bits = 2;
  auto store = make_store(dir, el, copt);
  algo::TileSssp sssp(0);
  store::ScrEngine engine(store);
  engine.resume(sssp, {});  // no prior run, no delta: plain cold run
  algo::TileSssp ref(0);
  store::ScrEngine(store).run(ref);
  EXPECT_EQ(sssp.distances(), ref.distances());
}

// Codec-aware compaction. A tile whose base payload bit-packs best must be
// re-encoded under whichever codec wins for the *merged* edge set once a
// scattered overlay is folded in — compaction always re-runs codec
// selection, it never keeps the old tile's choice.
TEST(Compaction, PackedTileFlipsCodecAfterScatteredOverlayMerge) {
  io::TempDir dir;
  // One 32×32 tile with one edge per row, (s, 7s mod 32), self loops left
  // out: two 5-bit planes (48 B) beat a hybrid row of 3 bytes each (100 B).
  std::vector<graph::Edge> base_edges;
  for (graph::vid_t s = 0; s < 32; ++s)
    if ((7 * s) % 32 != s) base_edges.push_back({s, (7 * s) % 32});
  graph::EdgeList base(std::move(base_edges), 32, graph::GraphKind::kDirected);
  tile::ConvertOptions copt;
  copt.tile_bits = 5;
  tile::convert_to_tiles(base, dir.file("g"), copt);

  ingest::EdgeIngestor ingestor(dir.file("g"));
  const auto before = codec_of(ingestor.store(), 0);
  EXPECT_EQ(before, tile::TileCodec::kPacked) << int(before);

  // Scatter pseudo-random edges over the whole tile: the merged rows hold
  // about ten edges each, which hybrid rows hold in fewer bytes (284 B
  // against 400 B packed).
  std::vector<graph::Edge> scattered;
  for (std::uint32_t k = 0; k < 300; ++k) {
    const auto s = static_cast<graph::vid_t>((k * 17 + 5) % 32);
    const auto d = static_cast<graph::vid_t>((k * k * 13 + 7) % 32);
    if (s != d) scattered.push_back({s, d});
  }
  ingestor.ingest(scattered);
  ingestor.compact();

  const auto after = codec_of(ingestor.store(), 0);
  EXPECT_NE(after, before)
      << "compaction kept codec " << int(before)
      << " for a tile whose merged payload another codec encodes smaller";

  // And the re-encoded tile still decodes to exactly base ∪ delta.
  auto union_el = base.edges();
  std::vector<graph::Edge> all(union_el.begin(), union_el.end());
  for (const graph::Edge& e : scattered) all.push_back(e);
  EXPECT_EQ(sorted(decode_all_edges(ingestor.store())), sorted(all));
}

}  // namespace
}  // namespace gstore
