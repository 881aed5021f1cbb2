// Reed-Solomon erasure codec over GF(256).
//
// The generator is an extended-Cauchy matrix: the identity k x k stacked
// over an m x k Cauchy block c[i][j] = 1 / (x_i ^ y_j) with x_i = k + i and
// y_j = j (all distinct for k + m <= 256). Every k x k submatrix of such a
// generator is invertible, so *any* k surviving chunks of a k + m stripe
// reconstruct the data exactly — the property the degraded-read and repair
// paths rely on.
//
// Chunks may have different physical lengths (the last data chunk of a file
// is usually short); arithmetic treats short chunks as zero-padded to the
// longest, and reconstruction trims each data chunk back to its true
// length. Parity chunks always carry the stripe's maximum data length.
#pragma once

#include <cstdint>
#include <vector>

namespace tsx::dfs {

using ChunkData = std::vector<std::uint8_t>;

/// GF(256) helpers (poly 0x11d), exposed for tests.
std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b);
std::uint8_t gf_inv(std::uint8_t a);

/// The generator coefficient applied to data chunk `j` when producing
/// parity chunk `i` of a k-wide stripe.
std::uint8_t rs_coefficient(int i, int j, int k);

/// Encodes `m` parity chunks from `k = data.size()` data chunks. Each
/// parity chunk is as long as the longest data chunk.
std::vector<ChunkData> rs_encode(const std::vector<ChunkData>& data, int m);

/// Reconstructs all `k` data chunks of a stripe from any `k` present chunks
/// among the `k + m` (data first, then parity). `chunks` and `present` have
/// size k + m; `lengths[j]` is the true byte length of data chunk `j` (the
/// reconstruction is padded internally and trimmed on return). Throws if
/// fewer than `k` chunks are present.
std::vector<ChunkData> rs_reconstruct(const std::vector<ChunkData>& chunks,
                                      const std::vector<bool>& present,
                                      const std::vector<std::size_t>& lengths,
                                      int k, int m);
/// The same, reading the stripe's chunks in place (absent slots are never
/// read); the form above forwards here.
std::vector<ChunkData> rs_reconstruct(
    const std::vector<const ChunkData*>& chunks,
    const std::vector<bool>& present,
    const std::vector<std::size_t>& lengths, int k, int m);

}  // namespace tsx::dfs
