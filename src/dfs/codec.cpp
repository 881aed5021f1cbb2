#include "dfs/codec.hpp"

#include <algorithm>
#include <array>

#include "core/error.hpp"

namespace tsx::dfs {

namespace {

// exp/log tables for GF(256) with the 0x11d reduction polynomial; 2 is a
// generator, so exp[i] = 2^i and the tables invert each other.
struct GfTables {
  std::array<std::uint8_t, 512> exp{};
  std::array<std::uint8_t, 256> log{};
  GfTables() {
    int x = 1;
    for (int i = 0; i < 255; ++i) {
      exp[i] = static_cast<std::uint8_t>(x);
      log[static_cast<std::size_t>(x)] = static_cast<std::uint8_t>(i);
      x <<= 1;
      if (x & 0x100) x ^= 0x11d;
    }
    for (int i = 255; i < 512; ++i) exp[i] = exp[i - 255];
  }
};

const GfTables& tables() {
  static const GfTables t;
  return t;
}

// dst[b] ^= c * src[b] over n bytes, through one 256-entry product row for
// `c` — exact field arithmetic, so the bytes equal the per-byte gf_mul form.
void mul_add(std::uint8_t c, const std::uint8_t* src, std::uint8_t* dst,
             std::size_t n) {
  if (c == 0) return;
  std::array<std::uint8_t, 256> row;
  for (int x = 0; x < 256; ++x)
    row[static_cast<std::size_t>(x)] = gf_mul(c, static_cast<std::uint8_t>(x));
  for (std::size_t b = 0; b < n; ++b) dst[b] ^= row[src[b]];
}

}  // namespace

std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  const GfTables& t = tables();
  return t.exp[static_cast<std::size_t>(t.log[a]) + t.log[b]];
}

std::uint8_t gf_inv(std::uint8_t a) {
  TSX_CHECK(a != 0, "rs: inverse of zero in GF(256)");
  const GfTables& t = tables();
  return t.exp[255 - static_cast<std::size_t>(t.log[a])];
}

std::uint8_t rs_coefficient(int i, int j, int k) {
  // Cauchy block: x_i = k + i, y_j = j; XOR is the field subtraction.
  return gf_inv(static_cast<std::uint8_t>((k + i) ^ j));
}

std::vector<ChunkData> rs_encode(const std::vector<ChunkData>& data, int m) {
  const int k = static_cast<int>(data.size());
  TSX_CHECK(k >= 1 && m >= 1 && k + m <= 255, "rs: bad stripe geometry");
  std::size_t len = 0;
  for (const ChunkData& d : data) len = std::max(len, d.size());
  std::vector<ChunkData> parity(static_cast<std::size_t>(m),
                                ChunkData(len, 0));
  for (int i = 0; i < m; ++i) {
    ChunkData& p = parity[static_cast<std::size_t>(i)];
    for (int j = 0; j < k; ++j) {
      const ChunkData& d = data[static_cast<std::size_t>(j)];
      mul_add(rs_coefficient(i, j, k), d.data(), p.data(), d.size());
    }
  }
  return parity;
}

std::vector<ChunkData> rs_reconstruct(const std::vector<ChunkData>& chunks,
                                      const std::vector<bool>& present,
                                      const std::vector<std::size_t>& lengths,
                                      int k, int m) {
  std::vector<const ChunkData*> refs;
  refs.reserve(chunks.size());
  for (const ChunkData& c : chunks) refs.push_back(&c);
  return rs_reconstruct(refs, present, lengths, k, m);
}

std::vector<ChunkData> rs_reconstruct(
    const std::vector<const ChunkData*>& chunks,
    const std::vector<bool>& present,
    const std::vector<std::size_t>& lengths, int k, int m) {
  const std::size_t width = static_cast<std::size_t>(k + m);
  TSX_CHECK(chunks.size() == width && present.size() == width &&
                lengths.size() == static_cast<std::size_t>(k),
            "rs: stripe shape mismatch");

  // The first k present chunks, in slot order — deterministic, so repair
  // schedules replay identically from the same surviving layout.
  std::vector<int> rows;
  for (int s = 0; s < k + m && static_cast<int>(rows.size()) < k; ++s)
    if (present[static_cast<std::size_t>(s)]) rows.push_back(s);
  TSX_CHECK(static_cast<int>(rows.size()) == k,
            "rs: stripe unreadable — fewer than k chunks survive");

  // Invert the k x k generator submatrix picked out by `rows` with
  // Gauss-Jordan elimination over GF(256).
  std::vector<std::uint8_t> a(static_cast<std::size_t>(k) * k, 0);
  std::vector<std::uint8_t> inv(static_cast<std::size_t>(k) * k, 0);
  for (int r = 0; r < k; ++r) {
    const int slot = rows[static_cast<std::size_t>(r)];
    for (int j = 0; j < k; ++j)
      a[static_cast<std::size_t>(r) * k + j] =
          slot < k ? static_cast<std::uint8_t>(slot == j ? 1 : 0)
                   : rs_coefficient(slot - k, j, k);
    inv[static_cast<std::size_t>(r) * k + r] = 1;
  }
  for (int col = 0; col < k; ++col) {
    int pivot = -1;
    for (int r = col; r < k; ++r)
      if (a[static_cast<std::size_t>(r) * k + col] != 0) {
        pivot = r;
        break;
      }
    TSX_CHECK(pivot >= 0, "rs: singular generator submatrix");
    if (pivot != col)
      for (int j = 0; j < k; ++j) {
        std::swap(a[static_cast<std::size_t>(pivot) * k + j],
                  a[static_cast<std::size_t>(col) * k + j]);
        std::swap(inv[static_cast<std::size_t>(pivot) * k + j],
                  inv[static_cast<std::size_t>(col) * k + j]);
      }
    const std::uint8_t scale =
        gf_inv(a[static_cast<std::size_t>(col) * k + col]);
    for (int j = 0; j < k; ++j) {
      a[static_cast<std::size_t>(col) * k + j] =
          gf_mul(a[static_cast<std::size_t>(col) * k + j], scale);
      inv[static_cast<std::size_t>(col) * k + j] =
          gf_mul(inv[static_cast<std::size_t>(col) * k + j], scale);
    }
    for (int r = 0; r < k; ++r) {
      if (r == col) continue;
      const std::uint8_t factor = a[static_cast<std::size_t>(r) * k + col];
      if (factor == 0) continue;
      for (int j = 0; j < k; ++j) {
        a[static_cast<std::size_t>(r) * k + j] ^=
            gf_mul(factor, a[static_cast<std::size_t>(col) * k + j]);
        inv[static_cast<std::size_t>(r) * k + j] ^=
            gf_mul(factor, inv[static_cast<std::size_t>(col) * k + j]);
      }
    }
  }

  std::size_t len = 0;
  for (const std::size_t l : lengths) len = std::max(len, l);
  std::vector<ChunkData> data(static_cast<std::size_t>(k));
  for (int j = 0; j < k; ++j) {
    ChunkData out(len, 0);
    for (int r = 0; r < k; ++r) {
      const ChunkData& src =
          *chunks[static_cast<std::size_t>(rows[static_cast<std::size_t>(r)])];
      mul_add(inv[static_cast<std::size_t>(j) * k + r], src.data(),
              out.data(), std::min(len, src.size()));
    }
    out.resize(lengths[static_cast<std::size_t>(j)]);
    data[static_cast<std::size_t>(j)] = std::move(out);
  }
  return data;
}

}  // namespace tsx::dfs
