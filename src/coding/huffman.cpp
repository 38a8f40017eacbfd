#include "coding/huffman.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <queue>
#include <stdexcept>

namespace ipcomp {

namespace {

std::uint32_t bit_reverse(std::uint32_t code, unsigned len) {
  std::uint32_t rev = 0;
  for (unsigned i = 0; i < len; ++i) {
    rev |= ((code >> i) & 1u) << (len - 1 - i);
  }
  return rev;
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
  std::size_t alphabet = r.varint();
  if (expected_alphabet != 0 && alphabet != expected_alphabet) {
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
  for (auto l : lengths) max_len_ = std::max<unsigned>(max_len_, l);
  if (max_len_ > kHuffmanMaxLen) throw std::invalid_argument("huffman: length too long");
  auto codes = assign_canonical(lengths, std::max(1u, max_len_));

  // Canonical slow-path ranges: symbols sorted by (length, symbol).
  for (auto l : lengths) {
    if (l) ++count_[l];
  }
  std::uint32_t code = 0;
  std::uint32_t index = 0;
  for (unsigned len = 1; len <= max_len_; ++len) {
    code = (code + count_[len - 1]) << 1;
    first_code_[len] = code;
    first_index_[len] = index;
    index += count_[len];
  }
  sorted_symbols_.resize(index);
  std::vector<std::uint32_t> fill(kHuffmanMaxLen + 1, 0);
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s]) {
      unsigned len = lengths[s];
      sorted_symbols_[first_index_[len] + fill[len]++] = static_cast<std::uint32_t>(s);
    }
  }

  // Fast-path table over the first kTableBits arriving bits.
  table_.assign(std::size_t{1} << kTableBits, 0);
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    unsigned len = lengths[s];
    if (len == 0 || len > kTableBits) continue;
    std::uint32_t rev = bit_reverse(codes[s], len);
    std::uint32_t entry = (static_cast<std::uint32_t>(s) << 5) | len;
    for (std::uint32_t j = 0; j < (1u << (kTableBits - len)); ++j) {
      table_[rev | (j << len)] = entry;
    }
  }
}

std::uint32_t HuffmanDecoder::decode(BitReader& br) const {
  std::uint32_t window = static_cast<std::uint32_t>(br.peek_bits(kTableBits));
  std::uint32_t entry = table_[window];
  if (entry != 0) {
    br.skip_bits(entry & 31u);
    return entry >> 5;
  }
  // Slow path: accumulate the code MSB-first (bits arrive MSB-first because
  // the encoder writes them reversed).
  std::uint32_t code = 0;
  for (unsigned len = 1; len <= max_len_; ++len) {
    code = (code << 1) | br.get_bit();
    if (count_[len] && code >= first_code_[len] &&
        code < first_code_[len] + count_[len]) {
      return sorted_symbols_[first_index_[len] + (code - first_code_[len])];
    }
  }
  throw std::runtime_error("huffman: invalid code");
}

}  // namespace ipcomp
