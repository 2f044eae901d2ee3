// Umbrella header for the sparse-matrix substrate.
#pragma once

#include "matrix/bitbsr.hpp"       // IWYU pragma: export
#include "matrix/bitbsr_wide.hpp"  // IWYU pragma: export
#include "matrix/block_stats.hpp"  // IWYU pragma: export
#include "matrix/bsr.hpp"          // IWYU pragma: export
#include "matrix/coo.hpp"          // IWYU pragma: export
#include "matrix/csr.hpp"          // IWYU pragma: export
#include "matrix/dataset.hpp"      // IWYU pragma: export
#include "matrix/dense.hpp"        // IWYU pragma: export
#include "matrix/generate.hpp"     // IWYU pragma: export
#include "matrix/io.hpp"           // IWYU pragma: export
#include "matrix/reorder.hpp"      // IWYU pragma: export
#include "matrix/spgemm.hpp"       // IWYU pragma: export
