// Per-layer microbenchmarks: direct calls into the public functions each
// layer is built from, with the key shapes and sizes of the workload being
// run. They price one call of a layer's unit of work, which the traced run
// then multiplies by how often the workload makes it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Runs every microbenchmark; `basePort` is a free port band for the
/// one-way TcpFabric measurement.
std::vector<Metric> RunMicrobenchmarks(WorkloadKind kind, const Namespace& ns,
                                       std::uint16_t basePort);

}  // namespace perfbench
