// Seed-corpus generator for the fuzz harnesses.
//
//   fuzz_make_corpus <out_dir>
//
// writes <out_dir>/wal_replay/*, tile_meta/* and tile_codec/* — structurally
// valid inputs (plus near-valid crash artifacts like torn tails) so the
// fuzzers start from deep inside the parsers instead of bouncing off the
// magic-number checks. The checked-in corpora under fuzz/corpus/ were
// produced by this tool; rerun it after any format change.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "graph/edge_list.h"
#include "graph/types.h"
#include "ingest/wal.h"
#include "io/file.h"
#include "tile/convert.h"
#include "tile/tile_file.h"

namespace fs = std::filesystem;
using namespace gstore;

namespace {

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void spit(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void append_section(std::vector<std::uint8_t>& out,
                    const std::vector<std::uint8_t>& bytes) {
  const std::uint32_t len = static_cast<std::uint32_t>(bytes.size());
  const std::size_t at = out.size();
  out.resize(at + 4);
  std::memcpy(out.data() + at, &len, 4);
  out.insert(out.end(), bytes.begin(), bytes.end());
}

void make_wal_seeds(const fs::path& dir) {
  fs::create_directories(dir);
  io::TempDir tmp("walcorpus");
  const std::string path = tmp.file("seed.wal");

  {
    ingest::EdgeWal wal(path, /*generation=*/0);
    spit(dir / "empty_gen0.wal", slurp(path));

    wal.append(std::vector<graph::Edge>{{0, 1}, {1, 2}, {2, 3}});
    wal.append(std::vector<graph::Edge>{{7, 9}});
    spit(dir / "two_frames.wal", slurp(path));
  }

  // Torn tail: a crash mid-append leaves a half-written last frame.
  {
    std::vector<std::uint8_t> torn = slurp(path);
    torn.resize(torn.size() - 7);
    spit(dir / "torn_tail.wal", torn);
  }

  // Corrupt payload: one flipped byte inside the first frame's edges.
  {
    std::vector<std::uint8_t> bad = slurp(path);
    bad[sizeof(ingest::WalFileHeader) + sizeof(ingest::WalFrameHeader) + 2] ^=
        0x40;
    spit(dir / "corrupt_payload.wal", bad);
  }

  // Stale generation: valid frames stamped for an already-compacted store.
  {
    ingest::EdgeWal wal(path, /*generation=*/3);
    wal.append(std::vector<graph::Edge>{{4, 5}});
    spit(dir / "stale_gen3.wal", slurp(path));
  }
}

void make_tile_seeds(const fs::path& dir) {
  fs::create_directories(dir);
  io::TempDir tmp("tilecorpus");
  const std::string base = tmp.file("g");

  graph::EdgeList el = graph::EdgeList::from_edges(
      {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {1, 4}, {0, 4}},
      graph::GraphKind::kUndirected);
  tile::ConvertOptions opts;
  opts.tile_bits = 1;  // several tiles even for this 5-vertex graph
  opts.group_side = 2;
  tile::convert_to_tiles(el, base, opts);

  const auto sei = slurp(base + ".sei");
  const auto tiles = slurp(base + ".tiles");
  const auto deg = slurp(base + ".deg");

  std::vector<std::uint8_t> full;
  append_section(full, sei);
  append_section(full, tiles);
  append_section(full, deg);
  spit(dir / "store_no_manifest", full);

  // Same store plus a generation-0 manifest naming the base files.
  {
    std::vector<std::uint8_t> with_cur = full;
    append_section(with_cur, {'0', '\n'});
    spit(dir / "store_manifest_gen0", with_cur);
  }

  // Directed variant exercises the other tuple orientation.
  {
    const std::string dbase = tmp.file("d");
    graph::EdgeList del = graph::EdgeList::from_edges(
        {{0, 1}, {1, 0}, {2, 3}, {3, 1}, {4, 0}}, graph::GraphKind::kDirected);
    tile::convert_to_tiles(del, dbase, opts);
    std::vector<std::uint8_t> out;
    append_section(out, slurp(dbase + ".sei"));
    append_section(out, slurp(dbase + ".tiles"));
    append_section(out, slurp(dbase + ".deg"));
    spit(dir / "store_directed", out);
  }

  // Header-only input: .sei present, data file missing.
  {
    std::vector<std::uint8_t> out;
    append_section(out, sei);
    spit(dir / "sei_only", out);
  }
}

// One seed per codec, from a tile shape that codec wins (or at least encodes
// distinctively), so the fuzzer starts inside every decode loop at once. The
// writer no longer encodes kRuns, so the committed runs.payload (the
// clustered shape) is that codec's seed and is not rewritten here.
void make_codec_seeds(const fs::path& dir) {
  fs::create_directories(dir);

  // Clustered rows with short ascending runs — the kDelta sweet spot.
  std::vector<tile::SnbEdge> clustered;
  for (std::uint16_t r = 0; r < 24; ++r)
    for (std::uint16_t c = 0; c < 40; ++c)
      clustered.push_back(
          {static_cast<std::uint16_t>(r * 3),
           static_cast<std::uint16_t>(r * 11 + c + (c % 5 == 0 ? 7 : 0))});
  // Narrow-width scatter — what kPacked compresses best.
  std::vector<tile::SnbEdge> narrow;
  for (std::uint32_t k = 0; k < 300; ++k)
    narrow.push_back({static_cast<std::uint16_t>((k * 37) % 61),
                      static_cast<std::uint16_t>((k * 101) % 113)});
  // A hub row plus sparse tail rows — the kHybrid shape.
  std::vector<tile::SnbEdge> hub;
  for (std::uint16_t d = 0; d < 400; ++d)
    hub.push_back({5, static_cast<std::uint16_t>(d * 2 + (d % 7))});
  hub.push_back({9, 10});
  hub.push_back({12, 40000});
  // Kron-shaped rows: 1-4 edges each, half of them single-edge, with 12-bit
  // dsts, so kHybrid bit-packs every row — the shape real Kron tiles decode.
  std::vector<tile::SnbEdge> kron;
  for (std::uint16_t r = 0; r < 150; ++r) {
    const unsigned len = r % 2 == 0 ? 1 : 2 + (r / 2) % 3;
    for (unsigned c = 0; c < len; ++c)
      kron.push_back({static_cast<std::uint16_t>(r * 5),
                      static_cast<std::uint16_t>((r * 997 + c * 1231) % 4096)});
  }

  const char* names[tile::kTileCodecCount] = {"raw", "delta", "packed", "runs",
                                              "hybrid"};
  const std::vector<tile::SnbEdge>* shapes[tile::kTileCodecCount] = {
      &narrow, &clustered, &narrow, &clustered, &hub};
  for (const tile::TileCodec codec : tile::kWritableCodecs) {
    const auto c = static_cast<unsigned>(codec);
    auto edges = *shapes[c];
    std::sort(edges.begin(), edges.end());
    spit(dir / (std::string(names[c]) + ".payload"),
         tile::encode_tile_as(codec, edges));
  }
  std::sort(kron.begin(), kron.end());
  spit(dir / "hybrid_kron.payload",
       tile::encode_tile_as(tile::TileCodec::kHybrid, kron));
  spit(dir / "picked.payload", tile::compress_tile(clustered));
  spit(dir / "empty.payload", tile::compress_tile({}));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: fuzz_make_corpus <out_dir>\n";
    return 2;
  }
  const fs::path out = argv[1];
  make_wal_seeds(out / "wal_replay");
  make_tile_seeds(out / "tile_meta");
  make_codec_seeds(out / "tile_codec");
  std::cout << "corpus written under " << out << "\n";
  return 0;
}
