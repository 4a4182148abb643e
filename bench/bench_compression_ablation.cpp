// Compression ablation — per-codec sizes and throughputs for the v3 tile
// format (what was the paper's §VIII future-work item is now the production
// payload encoding). For each graph: bytes under every writable codec forced
// across all tiles, bytes under compress_tile's per-tile pick, the pick
// histogram, and encode/decode throughput of the picked payloads.
//
// Writes BENCH_compression_ablation.json; benchmark-style flags are
// accepted and ignored so CI can pass one command line to every bench.
#include "bench_common.h"
#include "tile/compress.h"

int main(int, char**) {
  using namespace gstore;
  bench::banner("v3 tile-codec ablation",
                "per-tile codec pick: raw / delta / packed / hybrid");

  const unsigned s = bench::scale();
  const unsigned tb = s > 10 ? s - 8 : 2;
  struct Case {
    std::string name;
    bench::NamedGraph g;
  };
  std::vector<Case> cases;
  cases.push_back({"Kron", bench::make_kron(s, bench::edge_factor(),
                                            graph::GraphKind::kUndirected)});
  cases.push_back({"Twitter-like",
                   bench::make_twitterish(s, bench::edge_factor(),
                                          graph::GraphKind::kDirected)});

  const char* codec_names[tile::kTileCodecCount] = {"raw", "delta", "packed",
                                                    "runs", "hybrid"};
  struct CaseResult {
    std::string name;
    std::uint64_t raw_bytes = 0, picked_bytes = 0;
    std::uint64_t forced_bytes[tile::kTileCodecCount] = {};
    std::uint64_t picks[tile::kTileCodecCount] = {};
    double encode_secs = 0, decode_secs = 0;
  };
  std::vector<CaseResult> results;

  bench::Table t({"graph", "raw tiles", "picked", "ratio", "delta", "packed",
                  "hybrid", "encode MB/s", "decode MB/s"});
  for (auto& c : cases) {
    io::TempDir dir("compress");
    tile::ConvertOptions copt;
    copt.tile_bits = tb;
    copt.compress = false;  // raw SNB tiles: the codecs run here, per tile
    auto store = bench::open_store(dir, c.g.el, copt);

    CaseResult r;
    r.name = c.name;
    std::vector<std::uint8_t> buf;
    for (std::uint64_t k = 0; k < store.grid().tile_count(); ++k) {
      const std::uint64_t bytes = store.tile_bytes(k);
      if (bytes == 0) continue;
      buf.resize(bytes);
      store.read_range(k, k + 1, buf.data());
      std::vector<tile::SnbEdge> edges(
          reinterpret_cast<const tile::SnbEdge*>(buf.data()),
          reinterpret_cast<const tile::SnbEdge*>(buf.data()) + bytes / 4);
      std::sort(edges.begin(), edges.end());  // what the v3 writer does
      for (const tile::TileCodec cc : tile::kWritableCodecs)
        r.forced_bytes[static_cast<unsigned>(cc)] +=
            tile::encode_tile_as(cc, edges).size();
      Timer te;
      auto payload = tile::compress_tile(edges);
      r.encode_secs += te.seconds();
      r.raw_bytes += bytes;
      r.picked_bytes += payload.size();
      ++r.picks[payload[0]];
      Timer td;
      auto back = tile::decompress_tile(payload);
      r.decode_secs += td.seconds();
      if (back.size() != edges.size()) {
        std::fprintf(stderr, "roundtrip mismatch!\n");
        return 1;
      }
    }
    t.row({r.name, bench::fmt_bytes(r.raw_bytes),
           bench::fmt_bytes(r.picked_bytes),
           bench::fmt(double(r.raw_bytes) / r.picked_bytes) + "x",
           bench::fmt_bytes(r.forced_bytes[1]), bench::fmt_bytes(r.forced_bytes[2]),
           bench::fmt_bytes(r.forced_bytes[4]),
           bench::fmt(r.raw_bytes / r.encode_secs / (1 << 20), 0),
           bench::fmt(r.raw_bytes / r.decode_secs / (1 << 20), 0)});
    results.push_back(r);
  }
  t.print();

  std::printf("\n[codec pick histogram]\n");
  bench::Table h({"graph", "raw", "delta", "packed", "hybrid"});
  for (const auto& r : results)
    h.row({r.name, std::to_string(r.picks[0]), std::to_string(r.picks[1]),
           std::to_string(r.picks[2]), std::to_string(r.picks[4])});
  h.print();

  std::FILE* json = std::fopen("BENCH_compression_ablation.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"compression_ablation\",\n"
                 "  \"scale\": %u,\n  \"tile_bits\": %u,\n  \"graphs\": [\n",
                 s, tb);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const CaseResult& r = results[i];
      std::fprintf(json,
                   "    {\"graph\": \"%s\", \"raw_bytes\": %llu, "
                   "\"picked_bytes\": %llu, \"ratio\": %.4f,\n"
                   "     \"encode_mb_s\": %.1f, \"decode_mb_s\": %.1f,\n"
                   "     \"forced_bytes\": {",
                   r.name.c_str(), static_cast<unsigned long long>(r.raw_bytes),
                   static_cast<unsigned long long>(r.picked_bytes),
                   double(r.raw_bytes) / r.picked_bytes,
                   r.raw_bytes / r.encode_secs / (1 << 20),
                   r.raw_bytes / r.decode_secs / (1 << 20));
      // The writable codecs' entries of a per-codec count array.
      const auto codec_fields = [&](const std::uint64_t* counts) {
        const char* sep = "";
        for (const tile::TileCodec cc : tile::kWritableCodecs) {
          const auto c = static_cast<unsigned>(cc);
          std::fprintf(json, "%s\"%s\": %llu", sep, codec_names[c],
                       static_cast<unsigned long long>(counts[c]));
          sep = ", ";
        }
      };
      codec_fields(r.forced_bytes);
      std::fprintf(json, "},\n     \"picks\": {");
      codec_fields(r.picks);
      std::fprintf(json, "}");
      std::fprintf(json, "}%s\n", i + 1 < results.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_compression_ablation.json\n");
  }
  return 0;
}
