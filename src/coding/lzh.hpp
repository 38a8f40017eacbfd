// LZ77 + canonical Huffman general-purpose byte compressor ("lzh").
//
// This is the repository's stand-in for zstd: a deflate-style design built
// from scratch.  Input is cut into independent 256 KiB blocks (compressed in
// parallel under OpenMP); each block is greedy hash-chain LZ77 tokenized and
// entropy coded with two Huffman tables (literal/length and distance).
// Blocks that do not shrink are stored raw.
#pragma once

#include <span>

#include "io/bytes.hpp"

namespace ipcomp {

/// Compress arbitrary bytes.  Output embeds everything needed to decode.
Bytes lzh_compress(std::span<const std::uint8_t> input);

/// Decompress a buffer produced by lzh_compress into `expected_size` bytes.
/// A buffer that declares any other size throws std::runtime_error before
/// anything is allocated.
Bytes lzh_decompress(std::span<const std::uint8_t> input, std::size_t expected_size);

/// The decoded size an lzh buffer declares, for callers that do not know it
/// beforehand.  Throws std::runtime_error when the input is too short to hold
/// that many blocks, so a forged size cannot drive a huge allocation.
std::size_t lzh_stored_size(std::span<const std::uint8_t> input);

}  // namespace ipcomp
