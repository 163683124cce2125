#include "hst/serialize.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace tbf {

namespace {

constexpr char kMagic[] = "tbf-hst";
constexpr int kVersion = 1;

// %.17g round-trips IEEE doubles exactly.
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string SerializeCompleteHst(const CompleteHst& tree) {
  std::ostringstream out;
  out << kMagic << ' ' << kVersion << '\n';
  out << "depth " << tree.depth() << " arity " << tree.arity() << " scale "
      << FormatDouble(tree.scale()) << '\n';
  out << "points " << tree.num_points() << '\n';
  for (int pid = 0; pid < tree.num_points(); ++pid) {
    const Point& p = tree.points()[static_cast<size_t>(pid)];
    out << FormatDouble(p.x) << ' ' << FormatDouble(p.y) << ' '
        << LeafPathToString(tree.leaf_of_point(pid)) << '\n';
  }
  return out.str();
}

Result<CompleteHst> ParseCompleteHst(const std::string& text) {
  std::istringstream in(text);
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != kMagic) {
    return Status::InvalidArgument("not a tbf-hst document");
  }
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported tbf-hst version " +
                                   std::to_string(version));
  }

  std::string key;
  int depth = 0;
  int arity = 0;
  double scale = 0.0;
  if (!(in >> key >> depth) || key != "depth") {
    return Status::InvalidArgument("missing depth");
  }
  if (!(in >> key >> arity) || key != "arity") {
    return Status::InvalidArgument("missing arity");
  }
  if (!(in >> key >> scale) || key != "scale") {
    return Status::InvalidArgument("missing scale");
  }

  // Validate the header before trusting any of it in the row loop, with
  // messages precise enough to locate the corruption.
  if (depth < 1) {
    return Status::InvalidArgument("bad header: depth " +
                                   std::to_string(depth) + " must be >= 1");
  }
  if (arity < 2 || arity > 0xFFFF) {
    return Status::InvalidArgument("bad header: arity " +
                                   std::to_string(arity) +
                                   " out of range [2, 65535]");
  }
  if (!std::isfinite(scale) || scale <= 0.0) {
    return Status::InvalidArgument(
        "bad header: scale must be positive and finite");
  }
  // Checked before the codec exists: its constructor CHECK-fails on a
  // shape wider than a LeafCode.
  if (!LeafCodec::Fits(depth, arity)) {
    return Status::InvalidArgument(
        "bad header: depth " + std::to_string(depth) + " x arity " +
        std::to_string(arity) + " does not fit " +
        std::to_string(kLeafCodeBits) + "-bit leaf codes");
  }
  const LeafCodec codec(depth, arity);

  size_t count = 0;
  if (!(in >> key >> count) || key != "points") {
    return Status::InvalidArgument("missing points count");
  }
  std::vector<Point> points;
  std::vector<LeafCode> codes;
  // Cap the speculative reserve: a corrupted count must fail with
  // "truncated point table", not a giant allocation.
  constexpr size_t kMaxReserve = size_t{1} << 20;
  points.reserve(std::min(count, kMaxReserve));
  codes.reserve(std::min(count, kMaxReserve));
  for (size_t i = 0; i < count; ++i) {
    double x = 0, y = 0;
    std::string path_text;
    if (!(in >> x >> y >> path_text)) {
      return Status::InvalidArgument("truncated point table at row " +
                                     std::to_string(i));
    }
    if (!std::isfinite(x) || !std::isfinite(y)) {
      return Status::InvalidArgument("row " + std::to_string(i) +
                                     ": non-finite coordinate");
    }
    // Strict digit-path parsing (LeafPathFromString is atoi-based and
    // never fails — garbage silently becomes digit 0, so the validation
    // must happen here, row by row).
    LeafPath leaf;
    leaf.reserve(static_cast<size_t>(depth));
    size_t pos = 0;
    while (pos <= path_text.size()) {
      size_t dot = path_text.find('.', pos);
      if (dot == std::string::npos) dot = path_text.size();
      const std::string token = path_text.substr(pos, dot - pos);
      long digit = 0;
      bool valid = !token.empty() && token.size() <= 5;
      for (const char c : token) {
        if (c < '0' || c > '9') {
          valid = false;
          break;
        }
        digit = digit * 10 + (c - '0');
      }
      if (!valid || digit >= arity) {
        return Status::InvalidArgument(
            "row " + std::to_string(i) + ": leaf digit '" + token +
            "' invalid or out of arity range [0, " + std::to_string(arity) +
            ")");
      }
      leaf.push_back(static_cast<char16_t>(digit));
      if (dot == path_text.size()) break;
      pos = dot + 1;
    }
    if (static_cast<int>(leaf.size()) != depth) {
      return Status::InvalidArgument(
          "row " + std::to_string(i) + ": leaf path has " +
          std::to_string(leaf.size()) + " digits, want depth " +
          std::to_string(depth));
    }
    points.push_back({x, y});
    codes.push_back(codec.Pack(leaf));
  }
  std::string extra;
  if (in >> extra) {
    return Status::InvalidArgument("trailing garbage after the point table "
                                   "('" + extra + "')");
  }
  // FromParts rejects duplicate leaves, naming both rows.
  return CompleteHst::FromParts(depth, arity, scale, std::move(points),
                                std::move(codes));
}

Status WriteCompleteHstFile(const CompleteHst& tree, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  out << SerializeCompleteHst(tree);
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<CompleteHst> ReadCompleteHstFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseCompleteHst(buf.str());
}

}  // namespace tbf
