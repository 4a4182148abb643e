#include "graph/text_io.h"

#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>

#include "util/status.h"

namespace gstore::graph {

namespace {

// Parses one token as a vertex id; returns false at end of line.
bool parse_vid(const char*& p, const char* end, vid_t& out) {
  while (p < end && (*p == ' ' || *p == '\t' || *p == ',')) ++p;
  if (p == end) return false;
  std::uint64_t value = 0;
  const auto [next, ec] = std::from_chars(p, end, value);
  if (ec != std::errc() || next == p) return false;
  if (value > 0xffffffffull) return false;
  p = next;
  out = static_cast<vid_t>(value);
  return true;
}

EdgeList parse_lines(std::istream& in, const TextReadOptions& options,
                     const std::string& origin) {
  std::vector<Edge> edges;
  vid_t max_id = 0;
  bool any_vertex = false;
  std::string line;
  std::uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const char* p = line.data();
    const char* end = p + line.size();
    while (p < end && std::isspace(static_cast<unsigned char>(*p))) ++p;
    if (p == end || *p == '#' || *p == '%') continue;

    Edge e;
    if (!parse_vid(p, end, e.src) || !parse_vid(p, end, e.dst))
      throw FormatError(origin + ":" + std::to_string(line_no) +
                        ": expected `src dst` integers, got: " + line);
    // Optional trailing weight column.
    while (p < end && std::isspace(static_cast<unsigned char>(*p))) ++p;
    if (p != end) {
      // Accept any remaining numeric token(s) (weights/timestamps); reject
      // non-numeric garbage so typos fail loudly.
      for (const char* q = p; q < end; ++q) {
        const char c = *q;
        if (!(std::isdigit(static_cast<unsigned char>(c)) || c == '.' ||
              c == '-' || c == '+' || c == 'e' || c == 'E' || c == ' ' ||
              c == '\t' || c == '\r'))
          throw FormatError(origin + ":" + std::to_string(line_no) +
                            ": unexpected trailing data: " + line);
      }
    }
    max_id = std::max({max_id, e.src, e.dst});
    any_vertex = true;
    edges.push_back(e);
  }
  vid_t n = any_vertex ? max_id + 1 : 0;
  n = std::max(n, options.min_vertex_count);
  if (n == 0) n = 1;  // an empty file still yields a valid 1-vertex graph
  return EdgeList(std::move(edges), n, options.kind);
}

}  // namespace

EdgeList read_text_edges(const std::string& path, TextReadOptions options) {
  std::ifstream in(path);
  if (!in) throw IoError("open " + path, ENOENT);
  return parse_lines(in, options, path);
}

EdgeList parse_text_edges(const std::string& text, TextReadOptions options) {
  std::istringstream in(text);
  return parse_lines(in, options, "<string>");
}

void write_text_edges(const std::string& path, const EdgeList& el) {
  std::ofstream out(path);
  if (!out) throw IoError("open " + path, EACCES);
  for (const Edge& e : el.edges()) out << e.src << '\t' << e.dst << '\n';
  out.flush();
  if (!out) throw IoError("write " + path, EIO);
}

}  // namespace gstore::graph
