#include "baseline/xstream.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "util/aligned_buffer.h"
#include "util/status.h"
#include "util/timer.h"

namespace gstore::baseline {

namespace {
constexpr std::size_t kUpdateFlushThreshold = 1u << 18;  // records per partition
}

std::uint64_t write_xstream_edges(const std::string& path,
                                  const graph::EdgeList& el,
                                  std::size_t tuple_bytes) {
  GS_CHECK_MSG(tuple_bytes == 8 || tuple_bytes == 16,
               "xstream tuple size must be 8 or 16 bytes");
  io::File f(path, io::OpenMode::kWrite);

  const bool both = el.kind() == graph::GraphKind::kUndirected;
  std::vector<std::uint8_t> buf;
  buf.reserve(1u << 20);
  auto put_tuple = [&](graph::vid_t s, graph::vid_t d) {
    if (tuple_bytes == 8) {
      const std::uint32_t t[2] = {s, d};
      const auto* p = reinterpret_cast<const std::uint8_t*>(t);
      buf.insert(buf.end(), p, p + 8);
    } else {
      const std::uint64_t t[2] = {s, d};
      const auto* p = reinterpret_cast<const std::uint8_t*>(t);
      buf.insert(buf.end(), p, p + 16);
    }
    if (buf.size() >= (1u << 20)) {
      f.append(buf.data(), buf.size());
      buf.clear();
    }
  };

  std::uint64_t written_tuples = 0;
  for (const graph::Edge& e : el.edges()) {
    // As in the tile converter: PageRank divides by EdgeList::degrees(),
    // which counts no loop.
    if (e.src == e.dst) continue;
    put_tuple(e.src, e.dst);
    ++written_tuples;
    if (both) {
      put_tuple(e.dst, e.src);
      ++written_tuples;
    }
  }
  if (!buf.empty()) f.append(buf.data(), buf.size());
  f.sync();
  return written_tuples * tuple_bytes;
}

std::uint64_t xstream_storage_bytes(std::uint64_t vertex_count,
                                    std::uint64_t edge_count, bool undirected) {
  const std::uint64_t tuple =
      vertex_count > (std::uint64_t{1} << 32) ? 16 : 8;
  return (undirected ? 2 * edge_count : edge_count) * tuple;
}

XStreamEngine::XStreamEngine(std::string edge_path, std::string workdir,
                             graph::vid_t vertex_count,
                             std::uint64_t tuple_count, XStreamConfig config)
    : edge_path_(std::move(edge_path)),
      workdir_(std::move(workdir)),
      vertex_count_(vertex_count),
      tuple_count_(tuple_count),
      config_(config),
      edges_(edge_path_, config.device) {
  GS_CHECK_MSG(config_.partitions >= 1, "need at least one streaming partition");
  GS_CHECK_MSG(vertex_count >= 1, "empty vertex set");
  update_buf_.resize(config_.partitions);
  update_counts_.assign(config_.partitions, 0);
}

void XStreamEngine::for_each_edge(
    const std::function<void(graph::vid_t, graph::vid_t)>& fn) {
  const std::size_t tb = config_.tuple_bytes;
  const std::uint64_t total_bytes = tuple_count_ * tb;
  std::vector<std::uint8_t> chunk(config_.chunk_bytes - config_.chunk_bytes % tb);
  std::uint64_t off = 0;
  while (off < total_bytes) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(chunk.size(),
                                                         total_bytes - off));
    edges_.read(chunk.data(), n, off);
    stats_.edge_bytes_read += n;
    for (std::size_t p = 0; p + tb <= n; p += tb) {
      graph::vid_t s, d;
      if (tb == 8) {
        std::uint32_t t[2];
        std::memcpy(t, chunk.data() + p, 8);
        s = t[0];
        d = t[1];
      } else {
        std::uint64_t t[2];
        std::memcpy(t, chunk.data() + p, 16);
        s = static_cast<graph::vid_t>(t[0]);
        d = static_cast<graph::vid_t>(t[1]);
      }
      fn(s, d);
    }
    off += n;
  }
}

void XStreamEngine::reset_update_files() {
  update_files_.clear();
  for (std::uint32_t p = 0; p < config_.partitions; ++p) {
    update_files_.emplace_back(workdir_ + "/updates." + std::to_string(p),
                               io::OpenMode::kWrite);
    update_buf_[p].clear();
    update_counts_[p] = 0;
  }
}

void XStreamEngine::emit(std::uint32_t part, Update u) {
  auto& buf = update_buf_[part];
  buf.push_back(u);
  if (buf.size() >= kUpdateFlushThreshold) {
    update_files_[part].append(buf.data(), buf.size() * sizeof(Update));
    stats_.update_bytes_written += buf.size() * sizeof(Update);
    update_counts_[part] += buf.size();
    buf.clear();
  }
}

void XStreamEngine::flush_updates() {
  for (std::uint32_t p = 0; p < config_.partitions; ++p) {
    auto& buf = update_buf_[p];
    if (buf.empty()) continue;
    update_files_[p].append(buf.data(), buf.size() * sizeof(Update));
    stats_.update_bytes_written += buf.size() * sizeof(Update);
    update_counts_[p] += buf.size();
    buf.clear();
  }
}

void XStreamEngine::for_each_update(std::uint32_t part,
                                    const std::function<void(Update)>& fn) {
  io::File f(workdir_ + "/updates." + std::to_string(part), io::OpenMode::kRead);
  const std::uint64_t total = update_counts_[part] * sizeof(Update);
  std::vector<std::uint8_t> chunk(config_.chunk_bytes -
                                  config_.chunk_bytes % sizeof(Update));
  std::uint64_t off = 0;
  while (off < total) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(chunk.size(), total - off));
    f.pread_full(chunk.data(), n, off);
    stats_.update_bytes_read += n;
    for (std::size_t p = 0; p + sizeof(Update) <= n; p += sizeof(Update)) {
      Update u;
      std::memcpy(&u, chunk.data() + p, sizeof(Update));
      fn(u);
    }
    off += n;
  }
}

XStreamStats XStreamEngine::run_bfs(graph::vid_t root,
                                    std::vector<std::int32_t>& depth_out) {
  stats_ = XStreamStats{};
  Timer t;
  depth_out.assign(vertex_count_, -1);
  depth_out[root] = 0;
  std::int32_t level = 0;
  bool progressed = true;
  while (progressed) {
    progressed = false;
    reset_update_files();
    // Scatter: edges whose source is on the frontier emit a visit update.
    for_each_edge([&](graph::vid_t s, graph::vid_t d) {
      if (depth_out[s] == level && depth_out[d] == -1)
        emit(partition_of(d), Update{d, 0});
    });
    flush_updates();
    // Gather/apply per streaming partition.
    for (std::uint32_t p = 0; p < config_.partitions; ++p) {
      for_each_update(p, [&](Update u) {
        if (depth_out[u.target] == -1) {
          depth_out[u.target] = level + 1;
          progressed = true;
        }
      });
    }
    ++level;
    ++stats_.iterations;
  }
  stats_.elapsed_seconds = t.seconds();
  return stats_;
}

XStreamStats XStreamEngine::run_pagerank(
    std::uint32_t iterations, double damping,
    const std::vector<graph::degree_t>& degrees, std::vector<float>& rank_out) {
  GS_CHECK_MSG(degrees.size() == vertex_count_, "degree array size mismatch");
  stats_ = XStreamStats{};
  Timer t;
  rank_out.assign(vertex_count_, 1.0f / static_cast<float>(vertex_count_));
  std::vector<float> incoming(vertex_count_);
  for (std::uint32_t it = 0; it < iterations; ++it) {
    reset_update_files();
    // Scatter: every edge forwards rank/degree to its head.
    for_each_edge([&](graph::vid_t s, graph::vid_t d) {
      if (degrees[s] == 0) return;
      const float c = rank_out[s] / static_cast<float>(degrees[s]);
      std::uint32_t bits;
      std::memcpy(&bits, &c, sizeof(bits));
      emit(partition_of(d), Update{d, bits});
    });
    flush_updates();
    std::fill(incoming.begin(), incoming.end(), 0.0f);
    for (std::uint32_t p = 0; p < config_.partitions; ++p) {
      for_each_update(p, [&](Update u) {
        float c;
        std::memcpy(&c, &u.payload, sizeof(c));
        incoming[u.target] += c;
      });
    }
    const float base = static_cast<float>((1.0 - damping) / vertex_count_);
    for (graph::vid_t v = 0; v < vertex_count_; ++v)
      rank_out[v] = base + static_cast<float>(damping) * incoming[v];
    ++stats_.iterations;
  }
  stats_.elapsed_seconds = t.seconds();
  return stats_;
}

XStreamStats XStreamEngine::run_wcc(std::vector<graph::vid_t>& label_out) {
  stats_ = XStreamStats{};
  Timer t;
  label_out.resize(vertex_count_);
  for (graph::vid_t v = 0; v < vertex_count_; ++v) label_out[v] = v;
  bool changed = true;
  while (changed) {
    changed = false;
    reset_update_files();
    for_each_edge([&](graph::vid_t s, graph::vid_t d) {
      if (label_out[s] < label_out[d])
        emit(partition_of(d), Update{d, label_out[s]});
    });
    flush_updates();
    for (std::uint32_t p = 0; p < config_.partitions; ++p) {
      for_each_update(p, [&](Update u) {
        if (u.payload < label_out[u.target]) {
          label_out[u.target] = u.payload;
          changed = true;
        }
      });
    }
    ++stats_.iterations;
  }
  stats_.elapsed_seconds = t.seconds();
  return stats_;
}

}  // namespace gstore::baseline
