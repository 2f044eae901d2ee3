#include "matrix/coo.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace spaden::mat {

void require_index_count(std::uint64_t count, const char* what, const char* who) {
  SPADEN_REQUIRE(count <= kMaxIndexCount, "%s: %llu %s are above the index limit %llu", who,
                 static_cast<unsigned long long>(count), what,
                 static_cast<unsigned long long>(kMaxIndexCount));
}

void Coo::sort() {
  std::vector<std::size_t> perm(nnz());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
    if (row[a] != row[b]) {
      return row[a] < row[b];
    }
    return col[a] < col[b];
  });
  auto apply = [&](auto& v) {
    auto tmp = v;
    for (std::size_t i = 0; i < perm.size(); ++i) {
      v[i] = tmp[perm[i]];
    }
  };
  apply(row);
  apply(col);
  apply(val);
}

void Coo::combine_duplicates() {
  if (!std::is_sorted(row.begin(), row.end()) || !is_canonical()) {
    sort();
  }
  std::size_t out = 0;
  for (std::size_t i = 0; i < nnz();) {
    const Index r = row[i];
    const Index c = col[i];
    float sum = 0.0f;
    while (i < nnz() && row[i] == r && col[i] == c) {
      sum += val[i];
      ++i;
    }
    row[out] = r;
    col[out] = c;
    val[out] = sum;
    ++out;
  }
  row.resize(out);
  col.resize(out);
  val.resize(out);
}

void Coo::validate() const {
  SPADEN_REQUIRE(row.size() == val.size() && col.size() == val.size(),
                 "triplet arrays disagree: row=%zu col=%zu val=%zu", row.size(), col.size(),
                 val.size());
  for (std::size_t i = 0; i < nnz(); ++i) {
    SPADEN_REQUIRE(row[i] < nrows, "entry %zu: row %u >= nrows %u", i, row[i], nrows);
    SPADEN_REQUIRE(col[i] < ncols, "entry %zu: col %u >= ncols %u", i, col[i], ncols);
  }
}

bool Coo::is_canonical() const {
  for (std::size_t i = 1; i < nnz(); ++i) {
    if (row[i - 1] > row[i] || (row[i - 1] == row[i] && col[i - 1] >= col[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace spaden::mat
