#include "serve/job.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "algo/bfs.h"
#include "algo/cc.h"
#include "algo/pagerank.h"
#include "algo/sssp.h"
#include "util/crc32.h"
#include "util/status.h"
#include "util/sync.h"

namespace gstore::serve {

namespace {

// Adjacency responses are capped: the digest always covers the full list,
// but a hub vertex must not turn one response line into hundreds of
// megabytes.
constexpr std::size_t kMaxNeighborsReturned = 1024;

// Per-vertex adjacency query as a (single-iteration) tile algorithm, so it
// rides the same shared-fetch scheduler as the analytics jobs. Selective
// fetch makes it cheap: only the target vertex's tile row (and, on
// symmetric stores, tile column) is touched. Neighbors follow the stored
// orientation: out-neighbors on an out-edge store, in-neighbors on an
// in-edge store, all neighbors on undirected stores.
class NeighborhoodQuery final : public store::TileAlgorithm {
 public:
  explicit NeighborhoodQuery(graph::vid_t v) : v_(v) {}

  std::string name() const override { return "neighbors"; }

  void init(const tile::TileStore& store) override {
    const tile::TileStoreMeta& meta = store.meta();
    // Upper-triangle symmetric stores keep one tuple per undirected edge, so
    // the reverse direction must be collected too. Full-matrix undirected
    // stores carry both orientations — collecting the reverse would double
    // every neighbor.
    collect_reverse_ = meta.symmetric();
    tile_bits_ = meta.tile_bits;
    target_tile_ = v_ >> tile_bits_;
  }

  void begin_iteration(std::uint32_t, std::uint32_t) override {}

  void process_tile(const tile::TileView& view) override {
    std::vector<graph::vid_t> found;
    tile::visit_edges(view, [&](graph::vid_t s, graph::vid_t d) {
      if (s == v_) found.push_back(d);
      else if (collect_reverse_ && d == v_) found.push_back(s);
    });
    if (found.empty()) return;
    MutexLock lock(mu_);
    // GL-SAFE(GL1): tiles are processed concurrently and each appends its
    // (tiny, pre-collected) matches; the append must be under the lock and
    // the scan above already ran outside it.
    neighbors_.insert(neighbors_.end(), found.begin(), found.end());
  }

  bool end_iteration(std::uint32_t) override {
    // Single pass. Canonicalize here — begin/end run single-threaded.
    MutexLock lock(mu_);
    std::sort(neighbors_.begin(), neighbors_.end());
    neighbors_.erase(std::unique(neighbors_.begin(), neighbors_.end()),
                     neighbors_.end());
    return false;
  }

  bool tile_needed(std::uint32_t i, std::uint32_t j) const override {
    if (i == target_tile_) return true;
    return collect_reverse_ && j == target_tile_;
  }

  bool tile_useful_next(std::uint32_t, std::uint32_t) const override {
    return false;  // one iteration; cache nothing on this job's behalf
  }

  // Safe once the run finished (no concurrent process_tile anymore).
  const std::vector<graph::vid_t>& neighbors() const noexcept {
    return neighbors_;
  }

 private:
  const graph::vid_t v_;
  bool collect_reverse_ = true;
  unsigned tile_bits_ = 16;
  std::uint32_t target_tile_ = 0;
  mutable Mutex mu_{"NeighborhoodQuery::mu_"};
  std::vector<graph::vid_t> neighbors_ GSTORE_GUARDED_BY(mu_);
};

template <typename T>
std::uint32_t vector_digest(const std::vector<T>& v) {
  return crc32(v.data(), v.size() * sizeof(T));
}

graph::vid_t parse_vertex(const Json& j, const char* field,
                          graph::vid_t vertex_count) {
  if (vertex_count == 0)
    throw InvalidArgument("store has no vertices");
  try {
    return static_cast<graph::vid_t>(
        j.at(field).as_u64_in(0, std::uint64_t{vertex_count} - 1));
  } catch (const InvalidArgument& e) {
    throw InvalidArgument(std::string(field) + ": " + e.what());
  }
}

}  // namespace

const char* to_string(JobKind kind) noexcept {
  switch (kind) {
    case JobKind::kBfs: return "bfs";
    case JobKind::kSssp: return "sssp";
    case JobKind::kPageRank: return "pagerank";
    case JobKind::kWcc: return "wcc";
    case JobKind::kNeighbors: return "neighbors";
  }
  return "?";
}

const char* to_string(JobState state) noexcept {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "?";
}

JobSpec JobSpec::from_json(const Json& j, graph::vid_t vertex_count) {
  JobSpec spec;
  const std::string& algo = j.at("algo").as_string();
  if (algo == "bfs") {
    spec.kind = JobKind::kBfs;
    spec.vertex = parse_vertex(j, "root", vertex_count);
  } else if (algo == "sssp") {
    spec.kind = JobKind::kSssp;
    spec.vertex = parse_vertex(j, "root", vertex_count);
  } else if (algo == "pagerank") {
    spec.kind = JobKind::kPageRank;
    if (const Json* d = j.find("damping")) {
      spec.damping = d->as_f64_in(0.0, 1.0);
      if (spec.damping == 0.0 || spec.damping == 1.0)
        throw InvalidArgument("damping must be in (0, 1)");
    }
    if (const Json* it = j.find("iterations"))
      spec.max_iterations = it->as_u32_in(1, 100000);
    if (const Json* t = j.find("tolerance"))
      spec.tolerance = t->as_f64_in(0.0, std::numeric_limits<double>::max());
  } else if (algo == "wcc") {
    spec.kind = JobKind::kWcc;
  } else if (algo == "neighbors") {
    spec.kind = JobKind::kNeighbors;
    spec.vertex = parse_vertex(j, "vertex", vertex_count);
  } else {
    throw InvalidArgument("unknown algorithm \"" + algo +
                          "\" (bfs|sssp|pagerank|wcc|neighbors)");
  }
  return spec;
}

Json JobSpec::to_json() const {
  Json j = Json::object();
  j.set("algo", Json(to_string(kind)));
  switch (kind) {
    case JobKind::kBfs:
    case JobKind::kSssp:
      j.set("root", Json(static_cast<std::uint64_t>(vertex)));
      break;
    case JobKind::kNeighbors:
      j.set("vertex", Json(static_cast<std::uint64_t>(vertex)));
      break;
    case JobKind::kPageRank:
      j.set("damping", Json(damping));
      j.set("iterations", Json(static_cast<std::uint64_t>(max_iterations)));
      j.set("tolerance", Json(tolerance));
      break;
    case JobKind::kWcc:
      break;
  }
  return j;
}

Json JobStats::to_json() const {
  Json j = Json::object();
  j.set("iterations", Json(static_cast<std::uint64_t>(iterations)));
  j.set("edges_processed", Json(edges_processed));
  j.set("overlay_edges", Json(overlay_edges));
  j.set("tiles_dispatched", Json(tiles_dispatched));
  j.set("seconds", Json(seconds));
  return j;
}

std::unique_ptr<store::TileAlgorithm> make_algorithm(const JobSpec& spec) {
  switch (spec.kind) {
    case JobKind::kBfs:
      return std::make_unique<algo::TileBfs>(spec.vertex);
    case JobKind::kSssp:
      return std::make_unique<algo::TileSssp>(spec.vertex);
    case JobKind::kPageRank: {
      algo::PageRankOptions opts;
      opts.damping = spec.damping;
      opts.max_iterations = spec.max_iterations;
      opts.tolerance = spec.tolerance;
      return std::make_unique<algo::TilePageRank>(opts);
    }
    case JobKind::kWcc:
      return std::make_unique<algo::TileWcc>();
    case JobKind::kNeighbors:
      return std::make_unique<NeighborhoodQuery>(spec.vertex);
  }
  throw InvalidArgument("unreachable job kind");
}

Json make_result(const JobSpec& spec, const store::TileAlgorithm& algo) {
  Json r = Json::object();
  r.set("algo", Json(to_string(spec.kind)));
  switch (spec.kind) {
    case JobKind::kBfs: {
      const auto& bfs = dynamic_cast<const algo::TileBfs&>(algo);
      r.set("visited", Json(bfs.visited_count()));
      r.set("max_depth", Json(static_cast<std::int64_t>(bfs.max_depth())));
      r.set("digest", Json(vector_digest(bfs.depth())));
      break;
    }
    case JobKind::kSssp: {
      const auto& sssp = dynamic_cast<const algo::TileSssp&>(algo);
      std::uint64_t reached = 0;
      for (const float d : sssp.distances())
        if (d != algo::TileSssp::kInf) ++reached;
      r.set("reached", Json(reached));
      r.set("digest", Json(vector_digest(sssp.distances())));
      break;
    }
    case JobKind::kPageRank: {
      const auto& pr = dynamic_cast<const algo::TilePageRank&>(algo);
      r.set("iterations", Json(static_cast<std::uint64_t>(pr.iterations_run())));
      r.set("last_delta", Json(pr.last_delta()));
      r.set("digest", Json(vector_digest(pr.ranks())));
      break;
    }
    case JobKind::kWcc: {
      const auto& wcc = dynamic_cast<const algo::TileWcc&>(algo);
      r.set("components", Json(wcc.component_count()));
      r.set("digest", Json(vector_digest(wcc.labels())));
      break;
    }
    case JobKind::kNeighbors: {
      const auto& q = dynamic_cast<const NeighborhoodQuery&>(algo);
      const auto& nbrs = q.neighbors();
      r.set("vertex", Json(static_cast<std::uint64_t>(spec.vertex)));
      r.set("degree", Json(static_cast<std::uint64_t>(nbrs.size())));
      r.set("digest", Json(vector_digest(nbrs)));
      Json arr = Json::array();
      const std::size_t n = std::min(nbrs.size(), kMaxNeighborsReturned);
      for (std::size_t k = 0; k < n; ++k)
        arr.push(Json(static_cast<std::uint64_t>(nbrs[k])));
      r.set("truncated", Json(nbrs.size() > kMaxNeighborsReturned));
      r.set("neighbors", std::move(arr));
      break;
    }
  }
  return r;
}

}  // namespace gstore::serve
