#include "coding/huffman.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <queue>
#include <stdexcept>

namespace ipcomp {

namespace {

/// The low `len` bits of `code` in reverse order (len in [0, 32]).
std::uint32_t bit_reverse(std::uint32_t code, unsigned len) {
  code = ((code >> 1) & 0x55555555u) | ((code & 0x55555555u) << 1);
  code = ((code >> 2) & 0x33333333u) | ((code & 0x33333333u) << 2);
  code = ((code >> 4) & 0x0F0F0F0Fu) | ((code & 0x0F0F0F0Fu) << 4);
  code = ((code >> 8) & 0x00FF00FFu) | ((code & 0x00FF00FFu) << 8);
  code = (code >> 16) | (code << 16);
  return len == 0 ? 0 : code >> (32 - len);
}

/// Canonical code assignment from lengths: returns codes (MSB-first values).
std::vector<std::uint32_t> assign_canonical(std::span<const std::uint8_t> lengths,
                                            unsigned max_len) {
  std::vector<std::uint32_t> bl_count(max_len + 2, 0);
  for (auto l : lengths) {
    if (l) ++bl_count[l];
  }
  std::vector<std::uint32_t> next_code(max_len + 2, 0);
  std::uint32_t code = 0;
  for (unsigned len = 1; len <= max_len; ++len) {
    code = (code + bl_count[len - 1]) << 1;
    next_code[len] = code;
  }
  std::vector<std::uint32_t> codes(lengths.size(), 0);
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s]) codes[s] = next_code[lengths[s]]++;
  }
  return codes;
}

}  // namespace

std::vector<std::uint8_t> build_code_lengths(std::span<const std::uint64_t> freqs,
                                             unsigned limit) {
  const std::size_t n = freqs.size();
  std::vector<std::uint8_t> lengths(n, 0);
  std::vector<std::size_t> used;
  for (std::size_t i = 0; i < n; ++i) {
    if (freqs[i] > 0) used.push_back(i);
  }
  if (used.empty()) return lengths;
  if (used.size() == 1) {
    lengths[used[0]] = 1;
    return lengths;
  }

  // Standard heap-based Huffman over the used symbols.
  const std::size_t m = used.size();
  std::vector<std::uint64_t> weight(2 * m, 0);
  std::vector<std::int32_t> parent(2 * m, -1);
  for (std::size_t i = 0; i < m; ++i) weight[i] = freqs[used[i]];

  using Node = std::pair<std::uint64_t, std::size_t>;  // (weight, index)
  std::priority_queue<Node, std::vector<Node>, std::greater<>> heap;
  for (std::size_t i = 0; i < m; ++i) heap.push({weight[i], i});
  std::size_t next = m;
  while (heap.size() > 1) {
    auto [wa, a] = heap.top();
    heap.pop();
    auto [wb, b] = heap.top();
    heap.pop();
    weight[next] = wa + wb;
    parent[a] = static_cast<std::int32_t>(next);
    parent[b] = static_cast<std::int32_t>(next);
    heap.push({weight[next], next});
    ++next;
  }

  unsigned max_depth = 0;
  for (std::size_t i = 0; i < m; ++i) {
    unsigned d = 0;
    for (std::int32_t p = parent[i]; p >= 0; p = parent[p]) ++d;
    lengths[used[i]] = static_cast<std::uint8_t>(std::min<unsigned>(d, 255));
    max_depth = std::max(max_depth, d);
  }

  if (max_depth > limit) {
    // Clamp overlong codes and repair the Kraft sum by lengthening the
    // cheapest (least frequent) short codes until the code is feasible.
    for (std::size_t i : used) {
      if (lengths[i] > limit) lengths[i] = static_cast<std::uint8_t>(limit);
    }
    auto kraft = [&]() {
      std::uint64_t k = 0;
      for (std::size_t i : used) k += std::uint64_t{1} << (limit - lengths[i]);
      return k;
    };
    const std::uint64_t target = std::uint64_t{1} << limit;
    std::uint64_t k = kraft();
    std::vector<std::size_t> by_freq(used);
    std::sort(by_freq.begin(), by_freq.end(),
              [&](std::size_t a, std::size_t b) { return freqs[a] < freqs[b]; });
    for (std::size_t i : by_freq) {
      while (k > target && lengths[i] < limit) {
        k -= std::uint64_t{1} << (limit - lengths[i] - 1);
        ++lengths[i];
      }
      if (k <= target) break;
    }
    if (k > target) throw std::logic_error("huffman: Kraft repair failed");
  }
  return lengths;
}

void serialize_code_lengths(ByteWriter& w, std::span<const std::uint8_t> lengths) {
  w.varint(lengths.size());
  std::size_t n_used = 0;
  for (auto l : lengths) {
    if (l) ++n_used;
  }
  w.varint(n_used);
  std::size_t prev = 0;
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s]) {
      w.varint(s - prev);
      w.u8(lengths[s]);
      prev = s;
    }
  }
}

std::vector<std::uint8_t> deserialize_code_lengths(
    ByteReader& r, std::size_t expected_alphabet) {
  const std::size_t alphabet = r.varint();
  if (alphabet != expected_alphabet) {
    throw std::runtime_error("huffman: unexpected alphabet size");
  }
  std::size_t n_used = r.varint();
  std::vector<std::uint8_t> lengths(alphabet, 0);
  std::size_t sym = 0;
  for (std::size_t i = 0; i < n_used; ++i) {
    sym += r.varint();
    if (sym >= alphabet) throw std::runtime_error("huffman: symbol out of range");
    lengths[sym] = r.u8();
  }
  return lengths;
}

HuffmanEncoder::HuffmanEncoder(std::span<const std::uint8_t> lengths)
    : length_(lengths.begin(), lengths.end()) {
  unsigned max_len = 0;
  for (auto l : lengths) max_len = std::max<unsigned>(max_len, l);
  if (max_len > kHuffmanMaxLen) throw std::invalid_argument("huffman: length too long");
  auto codes = assign_canonical(lengths, std::max(1u, max_len));
  reversed_code_.resize(lengths.size());
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    reversed_code_[s] = bit_reverse(codes[s], lengths[s]);
  }
}

std::uint64_t HuffmanEncoder::cost_bits(std::span<const std::uint64_t> freqs) const {
  std::uint64_t bits = 0;
  for (std::size_t s = 0; s < freqs.size() && s < length_.size(); ++s) {
    bits += freqs[s] * length_[s];
  }
  return bits;
}

HuffmanDecoder::HuffmanDecoder(std::span<const std::uint8_t> lengths) {
  for (auto l : lengths) {
    if (l > kHuffmanMaxLen) throw std::invalid_argument("huffman: length too long");
    if (l) ++count_[l];
    max_len_ = std::max<unsigned>(max_len_, l);
  }
  // Kraft sum in units of 2^-kHuffmanMaxLen.  Above 1 the canonical codes
  // would collide and a later symbol would silently shadow an earlier one.
  std::uint64_t kraft = 0;
  for (unsigned len = 1; len <= kHuffmanMaxLen; ++len) {
    kraft += std::uint64_t{count_[len]} << (kHuffmanMaxLen - len);
  }
  if (kraft > (std::uint64_t{1} << kHuffmanMaxLen)) {
    throw std::runtime_error("huffman: over-subscribed code lengths");
  }

  // Canonical ranges: symbols sorted by (length, symbol), the codes of one
  // length consecutive from first_code_.
  std::uint32_t code = 0;
  std::uint32_t index = 0;
  std::uint32_t cursor[kHuffmanMaxLen + 1] = {};
  for (unsigned len = 1; len <= max_len_; ++len) {
    code = (code + count_[len - 1]) << 1;
    first_code_[len] = code;
    first_index_[len] = index;
    cursor[len] = index;
    index += count_[len];
  }
  sorted_symbols_.resize(index);
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s]) sorted_symbols_[cursor[lengths[s]]++] = static_cast<std::uint32_t>(s);
  }

  // Fast-path table over the first table_bits_ arriving bits: a code of
  // length len owns every slot whose low len bits are its reversed code.
  table_bits_ = std::min(kTableBits, max_len_);
  const std::size_t slots = std::size_t{1} << table_bits_;
  table_.assign(slots, 0);
  for (unsigned len = 1; len <= table_bits_; ++len) {
    for (std::uint32_t i = 0; i < count_[len]; ++i) {
      const std::uint32_t symbol = sorted_symbols_[first_index_[len] + i];
      const std::uint32_t entry = (symbol << 5) | len;
      for (std::size_t j = bit_reverse(first_code_[len] + i, len); j < slots;
           j += std::size_t{1} << len) {
        table_[j] = entry;
      }
    }
  }
}

std::uint32_t HuffmanDecoder::long_code(std::uint32_t window) const {
  // Accumulate the code MSB-first (bits arrive MSB-first because the encoder
  // writes them reversed).
  std::uint32_t code = 0;
  for (unsigned len = 1; len <= max_len_; ++len) {
    code = (code << 1) | ((window >> (len - 1)) & 1u);
    if (count_[len] && code >= first_code_[len] &&
        code < first_code_[len] + count_[len]) {
      return (sorted_symbols_[first_index_[len] + (code - first_code_[len])] << 5) | len;
    }
  }
  throw std::runtime_error("huffman: invalid code");
}

}  // namespace ipcomp
