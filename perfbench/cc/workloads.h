// The three workloads (README.md explains why each exists).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "bench.h"

namespace perfbench {

Report RunShortMix(const RunConfig& cfg);
Report RunDisjointUpdate(const RunConfig& cfg);
Report RunCheckoutRing(const RunConfig& cfg);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
