#include "baselines/ipcomp_adapter.hpp"

#include <stdexcept>

#include "baselines/multi_fidelity.hpp"
#include "baselines/residual.hpp"
#include "baselines/sperr.hpp"
#include "baselines/sz3.hpp"
#include "core/compressor.hpp"
#include "core/progressive_reader.hpp"
#include "mgard/mgard.hpp"
#include "transform/zfp.hpp"

namespace ipcomp {

std::string IpcompAdapter::backend_label() const {
  return to_string(opt_.backend);
}

Bytes IpcompAdapter::compress(NdConstView<double> data, double eb_abs) {
  Options opt = opt_;
  opt.error_bound = eb_abs;
  return ipcomp::compress(data, opt);
}

namespace {

/// plan() then execute(), cross-checking the planner's exact-pricing
/// contract: a plan's predicted bytes_new must match what execute() then
/// fetched.  The baselines are the evaluation's measuring stick, so a drift
/// here (a planner/accounting regression) should abort loudly rather than
/// skew every comparison figure.
RetrievalStats checked_retrieve(ProgressiveReader<double>& reader,
                                const Request& req) {
  const RetrievalPlan plan = reader.plan(req);
  RetrievalStats st = reader.execute(plan);
  if (st.bytes_new != plan.bytes_new) {
    throw std::logic_error(
        "ipcomp adapter: plan predicted " + std::to_string(plan.bytes_new) +
        " bytes but execute fetched " + std::to_string(st.bytes_new));
  }
  return st;
}

}  // namespace

std::vector<double> IpcompAdapter::decompress(const Bytes& archive) {
  MemorySource src{Bytes(archive)};
  ProgressiveReader<double> reader(src);
  checked_retrieve(reader, Request::full());
  return reader.data();
}

Retrieval IpcompAdapter::retrieve_error(const Bytes& archive, double target) {
  MemorySource src{Bytes(archive)};
  ProgressiveReader<double> reader(src);
  auto st = checked_retrieve(reader, Request::error_bound(target));
  Retrieval out;
  out.data = reader.data();
  out.bytes_loaded = st.bytes_total;
  out.passes = 1;
  out.guaranteed_error = st.guaranteed_error;
  return out;
}

Retrieval IpcompAdapter::retrieve_bytes(const Bytes& archive, std::uint64_t budget) {
  MemorySource src{Bytes(archive)};
  ProgressiveReader<double> reader(src);
  auto st = checked_retrieve(reader, Request::bytes(budget));
  Retrieval out;
  out.data = reader.data();
  out.bytes_loaded = st.bytes_total;
  out.passes = 1;
  out.guaranteed_error = st.guaranteed_error;
  return out;
}

std::vector<std::shared_ptr<ProgressiveCompressor>> evaluation_lineup() {
  auto sz3 = std::make_shared<Sz3Compressor>();
  auto zfp = std::make_shared<ZfpCompressor>();
  return {
      std::make_shared<IpcompAdapter>(),
      std::make_shared<MultiFidelityCompressor>(sz3, "SZ3-M"),
      std::make_shared<ResidualCompressor>(sz3, "SZ3-R"),
      std::make_shared<ResidualCompressor>(zfp, "ZFP-R"),
      std::make_shared<PmgardCompressor>(),
  };
}

std::shared_ptr<ProgressiveCompressor> ipcomp_block_variant() {
  Options opt;
  opt.block_side = 32;
  return std::make_shared<IpcompAdapter>(opt, "IPComp-B32");
}

std::shared_ptr<ProgressiveCompressor> ipcomp_wavelet_variant() {
  Options opt;
  opt.backend = BackendId::kWavelet;
  opt.block_side = 32;
  return std::make_shared<IpcompAdapter>(opt, "IPComp-W32");
}


std::vector<std::shared_ptr<ProgressiveCompressor>> speed_lineup() {
  auto lineup = evaluation_lineup();
  lineup.push_back(std::make_shared<ResidualCompressor>(
      std::make_shared<SperrCompressor>(), "SPERR-R"));
  // Block-decomposed IPComp (archive v2): the speed study's parallel variant.
  lineup.push_back(ipcomp_block_variant());
  // Wavelet backend (archive v3): the per-backend dimension of the study.
  lineup.push_back(ipcomp_wavelet_variant());
  return lineup;
}

std::shared_ptr<ProgressiveCompressor> make_residual(const std::string& base,
                                                     int stages) {
  std::shared_ptr<Compressor> codec;
  if (base == "SZ3") {
    codec = std::make_shared<Sz3Compressor>();
  } else if (base == "ZFP") {
    codec = std::make_shared<ZfpCompressor>();
  } else if (base == "SPERR") {
    codec = std::make_shared<SperrCompressor>();
  } else {
    throw std::invalid_argument("make_residual: unknown base " + base);
  }
  return std::make_shared<ResidualCompressor>(codec, base + "-R", stages);
}

}  // namespace ipcomp
