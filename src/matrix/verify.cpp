#include "matrix/verify.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <utility>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace spaden::san {

namespace {

/// Counts every evaluation; records capped detail, exact totals.
class Checker {
 public:
  explicit Checker(FormatReport* report) : report_(report) {}

  /// `detail` builds the Violation lazily, so clean sweeps never format.
  template <typename Fn>
  void require(bool ok, Fn&& detail) {
    ++report_->checks;
    if (ok) {
      return;
    }
    ++report_->violation_count;
    if (report_->violations.size() < kMaxViolationDetails) {
      report_->violations.push_back(detail());
    }
  }

 private:
  FormatReport* report_;
};

/// CSR-style pointer array over `rows` rows that must end at `entries`.
/// Returns true when the shape checks passed and per-row sweeps are safe.
bool check_ptr_array(Checker& c, const std::string& fmt, const char* what,
                     const std::vector<Index>& ptr, std::size_t rows, std::size_t entries) {
  bool sized = false;
  c.require(ptr.size() == rows + 1, [&] {
    return Violation{fmt + ".array-sizes", std::string(what),
                     strfmt("%s has %zu entries, expected rows + 1 = %zu", what, ptr.size(),
                            rows + 1)};
  });
  sized = ptr.size() == rows + 1;
  if (!sized || ptr.empty()) {
    return false;
  }
  c.require(ptr.front() == 0, [&] {
    return Violation{fmt + ".row-ptr-front", std::string(what) + "[0]",
                     strfmt("%s[0] = %u, expected 0", what, ptr.front())};
  });
  bool monotone = true;
  for (std::size_t r = 0; r + 1 < ptr.size(); ++r) {
    c.require(ptr[r] <= ptr[r + 1], [&] {
      return Violation{
          fmt + ".row-ptr-monotone", strfmt("%s[%zu]", what, r + 1),
          strfmt("%s decreases from %u to %u", what, ptr[r], ptr[r + 1])};
    });
    monotone = monotone && ptr[r] <= ptr[r + 1];
  }
  c.require(ptr.back() == entries, [&] {
    return Violation{fmt + ".row-ptr-end", strfmt("%s[%zu]", what, ptr.size() - 1),
                     strfmt("%s ends at %u, expected the entry count %zu", what, ptr.back(),
                            entries)};
  });
  return monotone && ptr.front() == 0 && ptr.back() == entries;
}

/// Column indices of one row slice: in-bounds, ascending, duplicate-free.
void check_row_cols(Checker& c, const std::string& fmt, const std::vector<Index>& col,
                    std::size_t begin, std::size_t end, std::size_t row, Index ncols,
                    const char* row_word) {
  for (std::size_t i = begin; i < end; ++i) {
    c.require(col[i] < ncols, [&] {
      return Violation{fmt + ".col-bounds", strfmt("%s %zu, entry %zu", row_word, row, i),
                       strfmt("column %u out of bounds (ncols %u)", col[i], ncols)};
    });
    if (i > begin) {
      c.require(col[i - 1] != col[i], [&] {
        return Violation{fmt + ".col-dup", strfmt("%s %zu, entry %zu", row_word, row, i),
                         strfmt("column %u appears twice", col[i])};
      });
      c.require(col[i - 1] <= col[i], [&] {
        return Violation{fmt + ".col-order", strfmt("%s %zu, entry %zu", row_word, row, i),
                         strfmt("columns out of order: %u after %u", col[i], col[i - 1])};
      });
    }
  }
}

/// Exclusive scan array: starts at 0, monotone, ends at `total`.
/// Returns true when per-block popcount deltas are safe to read.
bool check_offsets(Checker& c, const std::string& fmt, const std::vector<Index>& off,
                   std::size_t blocks, std::size_t total) {
  c.require(off.size() == blocks + 1, [&] {
    return Violation{fmt + ".array-sizes", "val_offset",
                     strfmt("val_offset has %zu entries, expected num_blocks + 1 = %zu",
                            off.size(), blocks + 1)};
  });
  if (off.size() != blocks + 1) {
    return false;
  }
  c.require(off.front() == 0, [&] {
    return Violation{fmt + ".val-offset-front", "val_offset[0]",
                     strfmt("val_offset[0] = %u, expected 0", off.front())};
  });
  for (std::size_t b = 0; b + 1 < off.size(); ++b) {
    c.require(off[b] <= off[b + 1], [&] {
      return Violation{fmt + ".val-offset-monotone", strfmt("val_offset[%zu]", b + 1),
                       strfmt("exclusive scan decreases from %u to %u", off[b], off[b + 1])};
    });
  }
  c.require(off.back() == total, [&] {
    return Violation{fmt + ".val-offset-end", strfmt("val_offset[%zu]", off.size() - 1),
                     strfmt("val_offset ends at %u but %zu values are stored "
                            "(truncated or oversized value array)",
                            off.back(), total)};
  });
  return true;
}

}  // namespace

std::string FormatReport::summary() const {
  if (ok()) {
    return strfmt("spaden-verify: %s: OK (%llu checks)\n", format.c_str(),
                  static_cast<unsigned long long>(checks));
  }
  std::string out =
      strfmt("spaden-verify: %s: %llu violation(s) in %llu checks%s\n", format.c_str(),
             static_cast<unsigned long long>(violation_count),
             static_cast<unsigned long long>(checks),
             violation_count > violations.size() ? " (details capped)" : "");
  for (const Violation& v : violations) {
    out += strfmt("  [%s] %s: %s\n", v.invariant.c_str(), v.location.c_str(),
                  v.message.c_str());
  }
  return out;
}

FormatReport check_csr(Index nrows, Index ncols, const std::vector<Index>& row_ptr,
                       const std::vector<Index>& col_idx, std::size_t nval) {
  FormatReport report;
  report.format = "CSR";
  Checker c(&report);
  c.require(col_idx.size() == nval, [&] {
    return Violation{"csr.array-sizes", "col_idx",
                     strfmt("col_idx has %zu entries but %zu values are stored",
                            col_idx.size(), nval)};
  });
  const bool rows_ok = check_ptr_array(c, "csr", "row_ptr", row_ptr, nrows, col_idx.size());
  if (rows_ok) {
    for (Index r = 0; r < nrows; ++r) {
      check_row_cols(c, "csr", col_idx, row_ptr[r], row_ptr[r + 1], r, ncols, "row");
    }
  }
  return report;
}

FormatReport check_coo(Index nrows, Index ncols, const std::vector<Index>& row,
                       const std::vector<Index>& col, std::size_t nval,
                       bool require_canonical) {
  FormatReport report;
  report.format = "COO";
  Checker c(&report);
  c.require(row.size() == nval && col.size() == nval, [&] {
    return Violation{"coo.array-sizes", "row/col",
                     strfmt("row has %zu and col %zu entries but %zu values are stored",
                            row.size(), col.size(), nval)};
  });
  const std::size_t n = std::min(row.size(), col.size());
  for (std::size_t i = 0; i < n; ++i) {
    c.require(row[i] < nrows && col[i] < ncols, [&] {
      return Violation{"coo.coord-bounds", strfmt("entry %zu", i),
                       strfmt("(%u, %u) out of bounds (%u x %u)", row[i], col[i], nrows,
                              ncols)};
    });
    if (require_canonical && i > 0) {
      const bool sorted =
          row[i - 1] < row[i] || (row[i - 1] == row[i] && col[i - 1] < col[i]);
      c.require(sorted, [&] {
        return Violation{"coo.order", strfmt("entry %zu", i),
                         strfmt("(%u, %u) does not follow (%u, %u): triplets must be "
                                "(row, col)-sorted with no duplicates",
                                row[i], col[i], row[i - 1], col[i - 1])};
      });
    }
  }
  return report;
}

FormatReport check_bsr(Index nrows, Index ncols, Index block_dim,
                       const std::vector<Index>& block_row_ptr,
                       const std::vector<Index>& block_col, const std::vector<float>& val) {
  FormatReport report;
  report.format = "BSR";
  Checker c(&report);
  const auto brows = static_cast<Index>((nrows + block_dim - 1) / block_dim);
  const auto bcols = static_cast<Index>((ncols + block_dim - 1) / block_dim);
  const std::size_t blocks = block_col.size();
  const std::size_t elems = static_cast<std::size_t>(block_dim) * block_dim;
  c.require(val.size() == blocks * elems, [&] {
    return Violation{"bsr.array-sizes", "val",
                     strfmt("val has %zu entries, expected num_blocks * %u^2 = %zu",
                            val.size(), block_dim, blocks * elems)};
  });
  const bool rows_ok = check_ptr_array(c, "bsr", "block_row_ptr", block_row_ptr, brows,
                                       blocks);
  if (!rows_ok) {
    return report;
  }
  for (Index br = 0; br < brows; ++br) {
    check_row_cols(c, "bsr", block_col, block_row_ptr[br], block_row_ptr[br + 1], br, bcols,
                   "block-row");
    if (val.size() != blocks * elems) {
      continue;
    }
    for (Index b = block_row_ptr[br]; b < block_row_ptr[br + 1]; ++b) {
      if (block_col[b] >= bcols) {
        continue;
      }
      // Padding positions beyond the matrix bounds must hold exact zeros:
      // bsrmv-style kernels multiply the full dense block.
      for (Index r = 0; r < block_dim; ++r) {
        for (Index ci = 0; ci < block_dim; ++ci) {
          const std::uint64_t row = std::uint64_t{br} * block_dim + r;
          const std::uint64_t col = std::uint64_t{block_col[b]} * block_dim + ci;
          if (row < nrows && col < ncols) {
            continue;
          }
          const float v = val[static_cast<std::size_t>(b) * elems + r * block_dim + ci];
          c.require(v == 0.0f, [&] {
            return Violation{"bsr.padding-zero",
                             strfmt("block %u (block-row %u), local (%u, %u)", b, br, r, ci),
                             strfmt("padding position beyond the %u x %u matrix holds %g",
                                    nrows, ncols, static_cast<double>(v))};
          });
        }
      }
    }
  }
  return report;
}

namespace {

/// Shared core of the two bitmap-block CSR-style checkers: `words` bitmap
/// words per block, `dim` x `dim` blocks.
void check_bitmap_blocks(Checker& c, const std::string& fmt, Index nrows, Index ncols,
                         Index dim, unsigned words, const std::vector<Index>& block_row_ptr,
                         const std::vector<Index>& block_col,
                         const std::uint64_t* bitmap_words, std::size_t bitmap_len,
                         const std::vector<Index>& val_offset, std::size_t nvalues) {
  const auto brows = static_cast<Index>((nrows + dim - 1) / dim);
  const auto bcols = static_cast<Index>((ncols + dim - 1) / dim);
  const std::size_t blocks = block_col.size();
  c.require(bitmap_len == blocks * words, [&] {
    return Violation{fmt + ".array-sizes", "bitmap",
                     strfmt("bitmap has %zu words, expected %u per block = %zu", bitmap_len,
                            words, blocks * words)};
  });
  const bool rows_ok =
      check_ptr_array(c, fmt, "block_row_ptr", block_row_ptr, brows, blocks);
  const bool offs_ok = check_offsets(c, fmt, val_offset, blocks, nvalues);
  if (rows_ok) {
    for (Index br = 0; br < brows; ++br) {
      check_row_cols(c, fmt, block_col, block_row_ptr[br], block_row_ptr[br + 1], br, bcols,
                     "block-row");
    }
  }
  if (bitmap_len != blocks * words) {
    return;
  }
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::uint64_t* w = bitmap_words + b * words;
    int pop = 0;
    bool any = false;
    for (unsigned k = 0; k < words; ++k) {
      pop += std::popcount(w[k]);
      any = any || w[k] != 0;
    }
    c.require(any, [&] {
      return Violation{fmt + ".empty-block", strfmt("block %zu", b),
                       "stored block has an all-zero bitmap (empty blocks must be "
                       "dropped by conversion)"};
    });
    if (offs_ok) {
      const std::int64_t delta =
          static_cast<std::int64_t>(val_offset[b + 1]) - static_cast<std::int64_t>(val_offset[b]);
      c.require(pop == delta, [&] {
        return Violation{fmt + ".popcount", strfmt("block %zu", b),
                         strfmt("bitmap popcount %d != stored value count %lld (values "
                                "would be misindexed from this block on)",
                                pop, static_cast<long long>(delta))};
      });
    }
    // Padding bits beyond the matrix edge must be clear — a set bit there
    // shifts every later prefix popcount.
    if (rows_ok) {
      // Locate the block's row via the pointer array (blocks of a row are
      // contiguous); only edge blocks can carry invalid bits.
      const auto it = std::upper_bound(block_row_ptr.begin(), block_row_ptr.end(),
                                       static_cast<Index>(b));
      const auto br = static_cast<Index>(it - block_row_ptr.begin() - 1);
      const Index bc = block_col[b];
      if (br >= brows || bc >= bcols) {
        continue;
      }
      const bool row_edge = std::uint64_t{br + 1} * dim > nrows;
      const bool col_edge = std::uint64_t{bc + 1} * dim > ncols;
      if (!row_edge && !col_edge) {
        continue;
      }
      for (unsigned k = 0; k < words; ++k) {
        std::uint64_t valid = 0;
        for (unsigned bit = 0; bit < 64; ++bit) {
          const unsigned pos = k * 64 + bit;
          const std::uint64_t row = std::uint64_t{br} * dim + pos / dim;
          const std::uint64_t col = std::uint64_t{bc} * dim + pos % dim;
          if (row < nrows && col < ncols) {
            valid |= std::uint64_t{1} << bit;
          }
        }
        const unsigned kk = k;
        c.require((w[k] & ~valid) == 0, [&] {
          return Violation{fmt + ".padding-bits",
                           strfmt("block %zu (block-row %u, block-col %u), word %u", b, br,
                                  bc, kk),
                           strfmt("bitmap sets bits beyond the %u x %u matrix "
                                  "(invalid bits 0x%016llx)",
                                  nrows, ncols,
                                  static_cast<unsigned long long>(w[kk] & ~valid))};
        });
      }
    }
  }
}

}  // namespace

FormatReport check_bitbsr(Index nrows, Index ncols, const std::vector<Index>& block_row_ptr,
                          const std::vector<Index>& block_col,
                          const std::vector<std::uint64_t>& bitmap,
                          const std::vector<Index>& val_offset, std::size_t nvalues) {
  FormatReport report;
  report.format = "bitBSR";
  Checker c(&report);
  check_bitmap_blocks(c, "bitbsr", nrows, ncols, 8, 1, block_row_ptr, block_col,
                      bitmap.data(), bitmap.size(), val_offset, nvalues);
  return report;
}

FormatReport check_bitbsr_wide(Index nrows, Index ncols,
                               const std::vector<Index>& block_row_ptr,
                               const std::vector<Index>& block_col,
                               const std::uint64_t* bitmap_words, std::size_t bitmap_len,
                               const std::vector<Index>& val_offset, std::size_t nvalues) {
  FormatReport report;
  report.format = "bitBSR16";
  Checker c(&report);
  check_bitmap_blocks(c, "bitbsr16", nrows, ncols, mat::BitBsr16::kDim,
                      mat::BitBsr16::kWords, block_row_ptr, block_col, bitmap_words,
                      bitmap_len, val_offset, nvalues);
  return report;
}

FormatReport check_format(const mat::Csr& a) {
  return check_csr(a.nrows, a.ncols, a.row_ptr, a.col_idx, a.val.size());
}

FormatReport check_format(const mat::Coo& a) {
  return check_coo(a.nrows, a.ncols, a.row, a.col, a.val.size(), a.is_canonical());
}

FormatReport check_format(const mat::Bsr& a) {
  return check_bsr(a.nrows, a.ncols, a.block_dim, a.block_row_ptr, a.block_col, a.val);
}

FormatReport check_format(const mat::BitBsr& a) {
  return check_bitbsr(a.nrows, a.ncols, a.block_row_ptr, a.block_col, a.bitmap,
                      a.val_offset, a.values.size());
}

FormatReport check_format(const mat::BitBsr16& a) {
  static_assert(sizeof(mat::BitBsr16::Bitmap) == mat::BitBsr16::kWords * sizeof(std::uint64_t),
                "Bitmap must be densely packed words");
  return check_bitbsr_wide(a.nrows, a.ncols, a.block_row_ptr, a.block_col,
                           a.bitmap.empty() ? nullptr : a.bitmap.front().data(),
                           a.bitmap.size() * mat::BitBsr16::kWords, a.val_offset,
                           a.values.size());
}

bool default_verify_format() { return env_flag("SPADEN_VERIFY_FORMAT"); }

}  // namespace spaden::san
