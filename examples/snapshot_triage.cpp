// Snapshot triage: the exploratory workflow from the paper's introduction.
//
// A scientist has many simulation snapshots and wants the one with the most
// intense vortical activity.  With progressive archives they scan ALL
// snapshots at coarse fidelity (cheap), rank them, and spend full-fidelity
// retrieval on the winner only.  The example reports the bytes a
// non-progressive workflow would have loaded versus what triage actually
// loaded.
//
//   ./snapshot_triage [n_snapshots]
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/stencil.hpp"
#include "data/datasets.hpp"
#include "ipcomp.hpp"
#include "metrics/report.hpp"

namespace {

// Synthetic time series: advect the velocity field generator through "time"
// by regenerating at shifted coordinates (cheap stand-in for snapshots).
ipcomp::NdArray<double> snapshot_component(ipcomp::Field f, const ipcomp::Dims& dims,
                                           int t) {
  using namespace ipcomp;
  auto base = generate_field(f, dims);
  // Modulate amplitude over time so snapshots genuinely differ.
  const double amp = 0.6 + 0.1 * t + 0.3 * std::sin(0.9 * t);
  for (std::size_t i = 0; i < base.count(); ++i) base[i] *= amp;
  return base;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ipcomp;
  const int n_snapshots = argc > 1 ? std::atoi(argv[1]) : 6;
  const Dims dims = dataset_spec(Field::kVelocityX, DataScale::kTiny).dims;

  // Compress every snapshot's three velocity components.
  Options opt;
  opt.error_bound = 1e-9;
  struct Snapshot {
    Bytes vx, vy, vz;
  };
  std::vector<Snapshot> archives;
  std::size_t raw_bytes = 0;
  for (int t = 0; t < n_snapshots; ++t) {
    Snapshot s;
    auto fx = snapshot_component(Field::kVelocityX, dims, t);
    auto fy = snapshot_component(Field::kVelocityY, dims, t);
    auto fz = snapshot_component(Field::kVelocityZ, dims, t);
    raw_bytes += 3 * fx.count() * sizeof(double);
    s.vx = compress(fx.const_view(), opt);
    s.vy = compress(fy.const_view(), opt);
    s.vz = compress(fz.const_view(), opt);
    archives.push_back(std::move(s));
  }
  std::cout << n_snapshots << " snapshots x 3 components, raw "
            << raw_bytes / 1024 << " KiB total\n\n";

  // Pass 1 — coarse scan: 1 bit/value is plenty to rank mean |curl|.
  TableReporter table({"snapshot", "mean |curl| (coarse)", "KiB loaded"});
  std::size_t triage_bytes = 0;
  double best_score = -1;
  int best_t = 0;
  for (int t = 0; t < n_snapshots; ++t) {
    MemorySource sx{Bytes(archives[t].vx)}, sy{Bytes(archives[t].vy)},
        sz{Bytes(archives[t].vz)};
    ProgressiveReader<double> rx(sx), ry(sy), rz(sz);
    rx.retrieve(Request::bitrate(1.0));
    ry.retrieve(Request::bitrate(1.0));
    rz.retrieve(Request::bitrate(1.0));
    auto curl = curl_magnitude({rx.data().data(), dims}, {ry.data().data(), dims},
                               {rz.data().data(), dims});
    double mean = 0;
    for (std::size_t i = 0; i < curl.count(); ++i) mean += curl[i];
    mean /= static_cast<double>(curl.count());
    std::size_t loaded = rx.bytes_loaded() + ry.bytes_loaded() + rz.bytes_loaded();
    triage_bytes += loaded;
    table.row({std::to_string(t), TableReporter::num(mean, 5),
               std::to_string(loaded / 1024)});
    if (mean > best_score) {
      best_score = mean;
      best_t = t;
    }
  }

  // Pass 2 — full fidelity for the winning snapshot only.
  {
    MemorySource sx{Bytes(archives[best_t].vx)}, sy{Bytes(archives[best_t].vy)},
        sz{Bytes(archives[best_t].vz)};
    ProgressiveReader<double> rx(sx), ry(sy), rz(sz);
    rx.retrieve(Request::full());
    ry.retrieve(Request::full());
    rz.retrieve(Request::full());
    triage_bytes += rx.bytes_loaded() + ry.bytes_loaded() + rz.bytes_loaded();
  }

  std::size_t naive_bytes = 0;
  for (auto& s : archives) {
    naive_bytes += s.vx.size() + s.vy.size() + s.vz.size();
  }
  std::cout << "\nselected snapshot " << best_t << " for detailed analysis\n"
            << "triage workflow loaded : " << triage_bytes / 1024 << " KiB\n"
            << "load-everything would be: " << naive_bytes / 1024 << " KiB ("
            << TableReporter::num(100.0 * triage_bytes / naive_bytes, 3)
            << "% of that)\n";
  return 0;
}
