#include "matrix/io.hpp"

#include <algorithm>
#include <iomanip>
#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.hpp"

namespace spaden::mat {

namespace {

/// Entries reserved before reading any: real matrices past this grow the
/// vectors geometrically instead.
constexpr long long kMaxReserve = 1 << 20;

std::string to_lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

struct Header {
  bool pattern = false;
  bool symmetric = false;
  bool skew = false;
};

Header parse_header(const std::string& line) {
  std::istringstream is(line);
  std::string banner, object, format, field, symmetry;
  is >> banner >> object >> format >> field >> symmetry;
  SPADEN_REQUIRE(banner == "%%MatrixMarket", "missing %%%%MatrixMarket banner");
  SPADEN_REQUIRE(to_lower(object) == "matrix", "unsupported object '%s'", object.c_str());
  SPADEN_REQUIRE(to_lower(format) == "coordinate", "only coordinate format is supported");
  const std::string f = to_lower(field);
  SPADEN_REQUIRE(f == "real" || f == "integer" || f == "pattern",
                 "unsupported field '%s' (complex matrices are out of scope)", field.c_str());
  const std::string s = to_lower(symmetry);
  SPADEN_REQUIRE(s == "general" || s == "symmetric" || s == "skew-symmetric",
                 "unsupported symmetry '%s'", symmetry.c_str());
  Header h;
  h.pattern = f == "pattern";
  h.symmetric = s == "symmetric" || s == "skew-symmetric";
  h.skew = s == "skew-symmetric";
  return h;
}

}  // namespace

Coo read_matrix_market(std::istream& in) {
  std::string line;
  SPADEN_REQUIRE(static_cast<bool>(std::getline(in, line)), "empty Matrix Market stream");
  const Header header = parse_header(line);

  std::size_t lineno = 1;
  // Skip comments.
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line[0] != '%') {
      break;
    }
  }
  std::istringstream size_line(line);
  long long nrows = 0, ncols = 0, entries = 0;
  SPADEN_REQUIRE(static_cast<bool>(size_line >> nrows >> ncols >> entries),
                 "line %zu: malformed size line '%s'", lineno, line.c_str());
  SPADEN_REQUIRE(nrows > 0 && ncols > 0 && entries >= 0, "line %zu: invalid dimensions",
                 lineno);
  // A hostile size line must fail here, by name, before anything is sized
  // from it: a dimension past the index type would wrap, and the entry
  // count drives the reserve below.
  constexpr long long kMaxIndex = std::numeric_limits<Index>::max();
  SPADEN_REQUIRE(nrows <= kMaxIndex, "line %zu: row count %lld is above the index limit %lld",
                 lineno, nrows, kMaxIndex);
  SPADEN_REQUIRE(ncols <= kMaxIndex,
                 "line %zu: column count %lld is above the index limit %lld", lineno, ncols,
                 kMaxIndex);
  const auto cells =
      static_cast<unsigned long long>(nrows) * static_cast<unsigned long long>(ncols);
  SPADEN_REQUIRE(static_cast<unsigned long long>(entries) <= cells,
                 "line %zu: %lld entries exceed the %llu cells of a %lld x %lld matrix", lineno,
                 entries, cells, nrows, ncols);
  const unsigned long long stored =
      (header.symmetric ? 2ULL : 1ULL) * static_cast<unsigned long long>(entries);
  SPADEN_REQUIRE(stored <= static_cast<unsigned long long>(kMaxIndex),
                 "line %zu: %llu stored entries%s are above the index limit %lld", lineno,
                 stored, header.symmetric ? " (doubled for symmetry)" : "", kMaxIndex);

  Coo out;
  out.nrows = static_cast<Index>(nrows);
  out.ncols = static_cast<Index>(ncols);
  // Bounded up front: a header that claims more entries than the stream
  // holds fails at EOF below without having reserved its claim.
  const auto reserve =
      static_cast<std::size_t>(std::min<unsigned long long>(stored, kMaxReserve));
  out.row.reserve(reserve);
  out.col.reserve(reserve);
  out.val.reserve(reserve);

  for (long long e = 0; e < entries; ++e) {
    SPADEN_REQUIRE(static_cast<bool>(std::getline(in, line)),
                   "unexpected EOF after %lld of %lld entries", e, entries);
    ++lineno;
    std::istringstream entry(line);
    long long r = 0, c = 0;
    double v = 1.0;
    SPADEN_REQUIRE(static_cast<bool>(entry >> r >> c), "line %zu: malformed entry", lineno);
    if (!header.pattern) {
      SPADEN_REQUIRE(static_cast<bool>(entry >> v), "line %zu: missing value", lineno);
    }
    SPADEN_REQUIRE(r >= 1 && r <= nrows && c >= 1 && c <= ncols,
                   "line %zu: index (%lld, %lld) out of range", lineno, r, c);
    const auto ri = static_cast<Index>(r - 1);
    const auto ci = static_cast<Index>(c - 1);
    out.row.push_back(ri);
    out.col.push_back(ci);
    out.val.push_back(static_cast<float>(v));
    if (header.symmetric && ri != ci) {
      out.row.push_back(ci);
      out.col.push_back(ri);
      out.val.push_back(static_cast<float>(header.skew ? -v : v));
    }
  }
  return out;
}

Csr read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  SPADEN_REQUIRE(in.is_open(), "cannot open '%s'", path.c_str());
  return Csr::from_coo(read_matrix_market(in));
}

void write_matrix_market(std::ostream& out, const Coo& m) {
  const auto saved_precision = out.precision();
  out << std::setprecision(9);  // round-trip float values exactly
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << "% written by spaden\n";
  out << m.nrows << ' ' << m.ncols << ' ' << m.nnz() << '\n';
  for (std::size_t i = 0; i < m.nnz(); ++i) {
    out << m.row[i] + 1 << ' ' << m.col[i] + 1 << ' ' << m.val[i] << '\n';
  }
  out << std::setprecision(static_cast<int>(saved_precision));
}

void write_matrix_market_file(const std::string& path, const Coo& m) {
  std::ofstream out(path);
  SPADEN_REQUIRE(out.is_open(), "cannot open '%s' for writing", path.c_str());
  write_matrix_market(out, m);
  SPADEN_REQUIRE(static_cast<bool>(out), "write to '%s' failed", path.c_str());
}

}  // namespace spaden::mat
