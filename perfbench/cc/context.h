// The context block printed with every run: build flags, CPUs, effective
// parallelism, the storage filesystem, seed and revision.

#ifndef PERFBENCH_CONTEXT_H_
#define PERFBENCH_CONTEXT_H_

#include <string>

#include "bench.h"

namespace perfbench {

/// One-line JSON object {"context": {...}}: build type and flags, nproc,
/// effective parallelism, the filesystem of the run directory, workload,
/// seed, run length, trace flag and \p revision.
std::string ContextJson(const RunConfig& cfg, const std::string& revision);

}  // namespace perfbench

#endif  // PERFBENCH_CONTEXT_H_
