// Randomized stress tests: many seeds, random shapes, random content styles.
// These sweeps are the "did we miss a geometry / content interaction"
// backstop for the whole stack.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>

#include "coding/bitpack.hpp"
#include "coding/codec.hpp"
#include "coding/lzh.hpp"
#include "ipcomp.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace ipcomp {
namespace {

using testutil::linf;

Dims random_dims(Rng& rng, std::size_t max_count) {
  const unsigned rank = 1 + static_cast<unsigned>(rng.uniform_u64(3));
  std::size_t extents[kMaxRank];
  std::size_t count = 1;
  for (unsigned i = 0; i < rank; ++i) {
    extents[i] = 1 + rng.uniform_u64(40);
    count *= extents[i];
  }
  while (count > max_count) {
    for (unsigned i = 0; i < rank; ++i) {
      extents[i] = std::max<std::size_t>(1, extents[i] / 2);
    }
    count = 1;
    for (unsigned i = 0; i < rank; ++i) count *= extents[i];
  }
  return Dims::of_rank(rank, extents);
}

class FuzzSeeds : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSeeds, IpcompRandomShapesAndContent) {
  Rng rng(1000 + GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    Dims dims = random_dims(rng, 60000);
    NdArray<double> field(dims);
    const int style = static_cast<int>(rng.uniform_u64(4));
    double scale_v = std::pow(10.0, rng.uniform(-3, 3));
    for (std::size_t i = 0; i < field.count(); ++i) {
      switch (style) {
        case 0:  // smooth
          field[i] = scale_v * std::sin(0.05 * static_cast<double>(i));
          break;
        case 1:  // rough
          field[i] = scale_v * rng.normal();
          break;
        case 2:  // piecewise constant
          field[i] = scale_v * static_cast<double>((i / 97) % 5);
          break;
        default:  // mixed with spikes
          field[i] = scale_v * std::sin(0.01 * static_cast<double>(i)) +
                     (rng.uniform() < 0.001 ? scale_v * 1e6 : 0.0);
      }
    }
    Options opt;
    opt.error_bound = std::pow(10.0, -3.0 - rng.uniform_u64(6));
    opt.relative = true;
    opt.interp = rng.uniform() < 0.5 ? InterpKind::kCubic : InterpKind::kLinear;
    opt.progressive_threshold = 1 + rng.uniform_u64(8192);
    // Half the trials run block-decomposed (archive v2) to fuzz the block
    // pipeline across the same geometry / content / bound space.
    opt.block_side = rng.uniform() < 0.5 ? 0 : 2 + rng.uniform_u64(30);
    // And half run the wavelet backend (archive v3), so both backends face
    // the same randomized geometry, content and bounds.
    opt.backend =
        rng.uniform() < 0.5 ? BackendId::kInterp : BackendId::kWavelet;
    Bytes archive = compress(field.const_view(), opt);

    MemorySource src(std::move(archive));
    ProgressiveReader<double> reader(src);
    const double eb = reader.header().eb;
    // Random partial request then full: both guarantees must hold.
    const double target = eb * std::pow(4.0, static_cast<double>(rng.uniform_u64(8)));
    auto st = reader.retrieve(Request::error_bound(target));
    EXPECT_LE(linf(field.const_view(), reader.data()), st.guaranteed_error * (1 + 1e-9))
        << "dims " << dims.to_string() << " style " << style;
    reader.retrieve(Request::full());
    EXPECT_LE(linf(field.const_view(), reader.data()), eb * (1 + 1e-9))
        << "dims " << dims.to_string() << " style " << style;
  }
}

TEST_P(FuzzSeeds, LzhArbitraryBytes) {
  Rng rng(2000 + GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    Bytes in(rng.uniform_u64(40000));
    const int style = static_cast<int>(rng.uniform_u64(3));
    std::uint8_t run_val = 0;
    for (auto& b : in) {
      if (style == 0) {
        b = static_cast<std::uint8_t>(rng.next_u64());
      } else if (style == 1) {
        if (rng.uniform() < 0.02) run_val = static_cast<std::uint8_t>(rng.next_u64());
        b = run_val;
      } else {
        b = static_cast<std::uint8_t>(rng.uniform_u64(3));
      }
    }
    Bytes enc = lzh_compress({in.data(), in.size()});
    EXPECT_EQ(lzh_decompress({enc.data(), enc.size()}, in.size()), in);
  }
}

// Forged-input corpus: mutated, truncated and garbage archives must be
// rejected with an exception (or, for benign mutations, decode normally) —
// never crash, hang or trip a sanitizer.  The tsan CI preset runs this suite
// too, so the rejection paths are also exercised under ThreadSanitizer.
class ForgedArchive : public ::testing::TestWithParam<int> {};

// Drives a reader over `bytes` and swallows rejection.  Returns true when
// the archive was accepted end-to-end (possible for benign mutations, e.g.
// a flipped bit inside segment payload the request never fetches).
bool try_read_archive(Bytes bytes) {
  try {
    MemorySource src(std::move(bytes));
    ProgressiveReader<double> reader(src);
    reader.retrieve(Request::error_bound(reader.header().eb * 16));
    reader.retrieve(Request::full());
    return true;
  } catch (const std::exception&) {
    // Every rejection path must surface as a std::exception subclass;
    // anything else (signal, std::terminate, sanitizer report) fails the
    // test process itself.
    return false;
  }
}

TEST_P(ForgedArchive, MutatedTruncatedAndGarbageInputsNeverCrash) {
  Rng rng(3000 + GetParam());

  // A small but fully featured donor archive (blocks + progressive planes).
  Dims dims{12, 10, 8};
  NdArray<double> field(dims);
  for (std::size_t i = 0; i < field.count(); ++i) {
    field[i] = std::sin(0.2 * static_cast<double>(i));
  }
  Options opt;
  opt.error_bound = 1e-5;
  opt.block_side = 4;
  opt.backend =
      GetParam() % 2 == 0 ? BackendId::kInterp : BackendId::kWavelet;
  const Bytes donor = compress(field.const_view(), opt);
  ASSERT_TRUE(try_read_archive(donor)) << "donor archive must be valid";

  // Truncations: every prefix length from empty to full-minus-one, sampled.
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t len = rng.uniform_u64(donor.size());
    try_read_archive(Bytes(donor.begin(), donor.begin() + static_cast<std::ptrdiff_t>(len)));
  }

  // Byte flips: corrupt 1..8 random bytes anywhere (header, index, payload).
  for (int trial = 0; trial < 60; ++trial) {
    Bytes forged = donor;
    const std::size_t flips = 1 + rng.uniform_u64(8);
    for (std::size_t i = 0; i < flips; ++i) {
      forged[rng.uniform_u64(forged.size())] ^=
          static_cast<std::uint8_t>(1 + rng.uniform_u64(255));
    }
    try_read_archive(std::move(forged));
  }

  // Pure garbage of assorted sizes, including header-sized prefixes that
  // may contain a forged magic number by chance.
  for (int trial = 0; trial < 20; ++trial) {
    Bytes garbage(rng.uniform_u64(4096));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next_u64());
    try_read_archive(std::move(garbage));
  }
}

// Codec-level forgery: a segment whose tag byte names an unknown method must
// throw (not read garbage), under random payloads of every shape.
TEST_P(ForgedArchive, ForgedCodecTagIsRejected) {
  Rng rng(4000 + GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    Bytes seg(1 + rng.uniform_u64(512));
    seg[0] = static_cast<std::uint8_t>(5 + rng.uniform_u64(251));  // tag 5..255
    for (std::size_t i = 1; i < seg.size(); ++i) {
      seg[i] = static_cast<std::uint8_t>(rng.next_u64());
    }
    EXPECT_THROW(codec_decompress({seg.data(), seg.size()},
                                  rng.uniform_u64(4096)),
                 std::runtime_error);
  }
}

// Bitpack payload forgery: truncations, mutations and garbage against the
// sparse-index codec's strict validation — reject or decode, never crash.
TEST_P(ForgedArchive, BitpackForgedPayloadsNeverCrash) {
  Rng rng(5000 + GetParam());
  Bytes in(40000, 0);
  for (int i = 0; i < 300; ++i) {
    in[rng.uniform_u64(in.size())] |=
        static_cast<std::uint8_t>(1u << (rng.next_u64() & 7));
  }
  const Bytes donor = bitpack_encode({in.data(), in.size()});

  auto try_decode = [&](const Bytes& payload) {
    try {
      Bytes out = bitpack_decode({payload.data(), payload.size()}, in.size());
      return out.size() == in.size();
    } catch (const std::exception&) {
      return false;
    }
  };

  // Any strict truncation must be rejected: the stream frames every chunk
  // with an exact payload length, so a shortened tail is always detectable.
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t len = rng.uniform_u64(donor.size());
    EXPECT_FALSE(try_decode(Bytes(donor.begin(),
                                  donor.begin() + static_cast<std::ptrdiff_t>(len))));
  }
  for (int trial = 0; trial < 40; ++trial) {
    Bytes forged = donor;
    const std::size_t flips = 1 + rng.uniform_u64(6);
    for (std::size_t i = 0; i < flips; ++i) {
      forged[rng.uniform_u64(forged.size())] ^=
          static_cast<std::uint8_t>(1 + rng.uniform_u64(255));
    }
    try_decode(forged);
  }
  for (int trial = 0; trial < 20; ++trial) {
    Bytes garbage(rng.uniform_u64(2048));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next_u64());
    try_decode(garbage);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForgedArchive, ::testing::Range(0, 4));

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Range(0, 6));

// ---- forged wire frames ---------------------------------------------------

// The daemon side of the forged-archive discipline: truncated, oversized and
// garbage frames against a live loopback server must yield ERROR frames or
// clean disconnects — never a crash, and never a wedged server.  The real
// assertion is liveness: after the whole corpus, a well-formed client still
// retrieves byte-exactly.
class ForgedFrames : public ::testing::TestWithParam<int> {};

Bytes wire_frame(std::uint8_t op, const Bytes& body) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(body.size() + 1));
  w.u8(op);
  w.bytes({body.data(), body.size()});
  return w.take();
}

void send_raw(const net::Socket& sock, const Bytes& bytes) {
  // Best-effort: the server may legitimately have closed on us already.
  (void)::send(sock.fd(), bytes.data(), bytes.size(), MSG_NOSIGNAL);
}

void drain_replies(const net::Socket& sock) {
  std::uint8_t buf[4096];
  while (::recv(sock.fd(), buf, sizeof buf, 0) > 0) {
  }
}

/// Receive one frame and insist it is an ERROR; returns its code.
net::ErrCode expect_error(net::FrameChannel& ch) {
  std::optional<net::Frame> f = ch.recv();
  if (!f.has_value() || !f->is(net::Op::kError)) {
    ADD_FAILURE() << "expected an ERROR frame";
    return net::ErrCode::kInternal;
  }
  ByteReader r({f->body.data(), f->body.size()});
  return net::read_error(r).code();
}

/// The connection still answers: STAT draws STAT_OK.
void expect_usable(net::FrameChannel& ch) {
  ch.send(net::Op::kStat, Bytes{});
  std::optional<net::Frame> f = ch.recv();
  EXPECT_TRUE(f.has_value() && f->is(net::Op::kStatOk));
}

/// A FETCH frame body: open id, the more-follows flag, a key count and the
/// raw key deltas (which need not match the count).
Bytes fetch_body(std::uint32_t open_id, bool more, std::uint64_t n,
                 const std::vector<std::uint64_t>& deltas) {
  ByteWriter w;
  w.u32(open_id);
  w.u8(more ? 1 : 0);
  w.varint(n);
  for (std::uint64_t d : deltas) w.varint(d);
  return w.take();
}

/// Every FETCH forgery on one HELLO'd + OPENed connection: each draws one
/// typed ERROR and leaves the connection usable, and a well-formed FETCH
/// afterwards streams its segment.
void forged_fetches(net::FrameChannel& ch, const Bytes& archive) {
  ByteWriter open;
  open.string("a");
  ch.send(net::Op::kOpen, open);
  std::optional<net::Frame> f = ch.recv();
  ASSERT_TRUE(f.has_value() && f->is(net::Op::kOpenOk));
  const std::uint32_t id = ByteReader({f->body.data(), f->body.size()}).u32();

  MemorySource src{Bytes(archive)};
  std::vector<std::uint64_t> keys;
  for (const SegmentId& s : src.segment_ids()) {
    keys.push_back(s.key(src.version()));
  }
  std::sort(keys.begin(), keys.end());
  ASSERT_GE(keys.size(), 3u);
  const std::uint64_t k0 = keys[0];
  const std::uint64_t k2 = keys[2];
  const std::uint64_t wrap_down = ~std::uint64_t{0};  // prev + this == prev - 1

  const auto rejects = [&](std::initializer_list<Bytes> frames,
                           net::ErrCode want) {
    for (const Bytes& body : frames) ch.send(net::Op::kFetch, body);
    EXPECT_EQ(expect_error(ch), want);
    expect_usable(ch);
  };
  // A key the index does not hold.
  rejects({fetch_body(id, false, 1, {keys.back() + 1})},
          net::ErrCode::kBadRequest);
  // A duplicate key, a descending key, and a descent across two frames of
  // one chain (still one ERROR for the whole chain).
  rejects({fetch_body(id, false, 2, {k0, 0})}, net::ErrCode::kBadRequest);
  rejects({fetch_body(id, false, 2, {k2, wrap_down})},
          net::ErrCode::kBadRequest);
  rejects(
      {fetch_body(id, true, 1, {k2}), fetch_body(id, false, 1, {wrap_down})},
      net::ErrCode::kBadRequest);
  // A count above the table size, with no keys behind it to read.
  rejects({fetch_body(id, false, keys.size() + 1, {})},
          net::ErrCode::kBadRequest);
  // An open id this connection never got.
  rejects({fetch_body(id + 100, false, 1, {k0})}, net::ErrCode::kBadSequence);

  // Still serving: one real key streams one SEGMENT, then FETCH_OK.
  ch.send(net::Op::kFetch, fetch_body(id, false, 1, {k0}));
  f = ch.recv();
  ASSERT_TRUE(f.has_value() && f->is(net::Op::kSegment));
  EXPECT_EQ(ByteReader({f->body.data(), f->body.size()}).u64(), k0);
  f = ch.recv();
  EXPECT_TRUE(f.has_value() && f->is(net::Op::kFetchOk));
}

TEST_P(ForgedFrames, GarbageTruncatedOversizedFramesNeverCrashTheServer) {
  Rng rng(6000 + GetParam());

  Dims dims{12, 10, 8};
  NdArray<double> field(dims);
  for (std::size_t i = 0; i < field.count(); ++i) {
    field[i] = std::sin(0.2 * static_cast<double>(i));
  }
  Options opt;
  opt.error_bound = 1e-5;
  opt.block_side = 4;
  opt.progressive_threshold = 256;
  const Bytes archive = compress(field.const_view(), opt);

  net::Server server;
  server.export_memory("a", Bytes(archive));
  server.start();
  const std::string addr = server.address();

  Bytes hello_body;
  {
    ByteWriter w;
    w.u32(net::kWireVersion);
    hello_body = w.take();
  }

  for (int trial = 0; trial < 22; ++trial) {
    net::Socket sock = net::dial(addr);
    sock.set_timeouts(/*recv_ms=*/300, /*send_ms=*/300);
    switch (trial % 11) {
      case 0: {  // pure garbage, never a valid length prefix in sight
        Bytes garbage(1 + rng.uniform_u64(512));
        for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next_u64());
        send_raw(sock, garbage);
        break;
      }
      case 1: {  // zero-length frame: illegal framing
        ByteWriter w;
        w.u32(0);
        send_raw(sock, w.take());
        break;
      }
      case 2: {  // length far past the server's inbound cap
        ByteWriter w;
        w.u32(0x7FFFFFFF);
        w.u8(0x01);
        send_raw(sock, w.take());
        break;
      }
      case 3: {  // truncated frame: promise 100 bytes, deliver 5, hang up
        ByteWriter w;
        w.u32(100);
        w.u8(0x01);
        w.u32(net::kWireVersion);
        send_raw(sock, w.take());
        break;
      }
      case 4: {  // HELLO with a version the server does not speak
        ByteWriter w;
        w.u32(rng.uniform_u64(2) != 0 ? 0u : 0xDEADu);
        send_raw(sock, wire_frame(0x01, w.take()));
        break;
      }
      case 5: {  // op the protocol never defined, before HELLO
        Bytes body(rng.uniform_u64(32));
        for (auto& b : body) b = static_cast<std::uint8_t>(rng.next_u64());
        send_raw(sock, wire_frame(0x7E, body));
        break;
      }
      case 6: {  // valid HELLO, then a FETCH whose body is random garbage
        send_raw(sock, wire_frame(0x01, hello_body));
        Bytes body(1 + rng.uniform_u64(64));
        for (auto& b : body) b = static_cast<std::uint8_t>(rng.next_u64());
        send_raw(sock, wire_frame(static_cast<std::uint8_t>(net::Op::kFetch),
                                  body));
        break;
      }
      case 7: {
        // Valid HELLO, then v2's PLAN and v3's EXECUTE and RESUME with
        // plausible bodies: retired opcodes, not frame errors —
        // UNKNOWN_OPCODE each, and the connection stays usable.
        net::FrameChannel ch(std::move(sock), net::kMaxFrameBytes);
        ch.send(net::Op::kHello, hello_body);
        std::optional<net::Frame> f = ch.recv();
        ASSERT_TRUE(f.has_value() && f->is(net::Op::kHelloOk));
        for (const std::uint8_t retired : {0x03, 0x04, 0x07}) {
          ByteWriter body;
          body.u32(1);  // open_id
          body.u64(0);  // epoch / history length
          body.u8(0);   // v3's full-fidelity request tag
          body.u8(0);   // no region
          ch.send(static_cast<net::Op>(retired), body);
          EXPECT_EQ(expect_error(ch), net::ErrCode::kUnknownOpcode);
          expect_usable(ch);
        }
        ch.socket().shutdown_both();
        continue;
      }
      case 8: {  // every FETCH forgery on one connection
        net::FrameChannel ch(std::move(sock), net::kMaxFrameBytes);
        ch.send(net::Op::kHello, hello_body);
        std::optional<net::Frame> f = ch.recv();
        ASSERT_TRUE(f.has_value() && f->is(net::Op::kHelloOk));
        forged_fetches(ch, archive);
        ch.socket().shutdown_both();
        continue;
      }
      case 9: {
        // A FETCH chain cut off by a hang-up: "more follows", then nothing.
        // The server must neither reply nor keep the connection's state.
        net::FrameChannel ch(std::move(sock), net::kMaxFrameBytes);
        ch.send(net::Op::kHello, hello_body);
        std::optional<net::Frame> f = ch.recv();
        ASSERT_TRUE(f.has_value() && f->is(net::Op::kHelloOk));
        ByteWriter open;
        open.string("a");
        ch.send(net::Op::kOpen, open);
        f = ch.recv();
        ASSERT_TRUE(f.has_value() && f->is(net::Op::kOpenOk));
        const std::uint32_t id =
            ByteReader({f->body.data(), f->body.size()}).u32();
        MemorySource src{Bytes(archive)};
        const std::uint64_t key = src.segment_ids().front().key(src.version());
        ch.send(net::Op::kFetch, fetch_body(id, true, 1, {key}));
        ch.socket().shutdown_both();
        continue;
      }
      default: {  // valid HELLO, then a frame-sized bite of a real archive
        send_raw(sock, wire_frame(0x01, hello_body));
        const std::size_t n = std::min<std::size_t>(
            archive.size(), 1 + rng.uniform_u64(256));
        send_raw(sock, wire_frame(0x02, Bytes(archive.begin(),
                                              archive.begin() +
                                                  static_cast<std::ptrdiff_t>(n))));
        break;
      }
    }
    sock.shutdown_both();
    drain_replies(sock);
  }

  // Liveness + correctness after the storm: the server still serves a real
  // client, byte-identical to a local reader.
  MemorySource src{Bytes(archive)};
  ProgressiveReader<double> local(src);
  local.retrieve(Request::full());
  net::RemoteReader<double> remote(addr, "a");
  remote.retrieve(Request::full());
  EXPECT_EQ(remote.data(), local.data());

  const net::ServeStats st = server.stats();
  EXPECT_GT(st.errors_sent, 0u);  // at least some forgeries drew an ERROR
  server.stop();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForgedFrames, ::testing::Range(0, 4));

}  // namespace
}  // namespace ipcomp
