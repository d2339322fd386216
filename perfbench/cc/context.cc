#include "context.h"

#include <sys/vfs.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include "trace.h"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

// A fixed amount of integer work that the optimizer cannot remove.
uint64_t Spin(uint64_t iters) {
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

// Cores' worth of throughput `threads` busy threads really get: one
// thread's spin time for a fixed amount of work, times `threads`, over the
// time `threads` threads take for that work each.
double EffectiveParallelism(unsigned threads) {
  constexpr uint64_t kIters = 20'000'000;
  std::atomic<uint64_t> sink{0};
  uint64_t t0 = NowNs();
  sink += Spin(kIters);
  const double one = static_cast<double>(NowNs() - t0);
  std::vector<std::thread> spinners;
  t0 = NowNs();
  for (unsigned i = 0; i < threads; ++i) {
    spinners.emplace_back([&] { sink += Spin(kIters); });
  }
  for (std::thread& t : spinners) t.join();
  const double all = static_cast<double>(NowNs() - t0);
  // n threads doing n units of work in the time of `one` unit = n cores.
  return all > 0 ? threads * one / all : 0;
}

// Name of the filesystem holding `dir` ("ext4", "tmpfs", ... or the statfs
// magic in hex).
std::string FilesystemType(const std::string& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      std::ostringstream os;
      os << "0x" << std::hex << static_cast<unsigned long>(fs.f_type);
      return os.str();
    }
  }
}

}  // namespace

std::string ContextJson(const RunConfig& cfg, const std::string& revision) {
  const unsigned nproc = std::thread::hardware_concurrency();
  std::ostringstream os;
  os << "{\"context\": {\"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"cxx_flags\": \"" << JsonEscape(PERFBENCH_CXX_FLAGS)
     << "\", \"nproc\": " << nproc
     << ", \"effective_parallelism\": " << EffectiveParallelism(nproc)
     << ", \"storage_fs\": \"" << FilesystemType(cfg.out_dir)
     << "\", \"workload\": \"" << JsonEscape(cfg.workload)
     << "\", \"seed\": " << cfg.seed << ", \"seconds\": " << cfg.seconds
     << ", \"trace\": " << (cfg.trace ? 1 : 0) << ", \"revision\": \""
     << JsonEscape(revision) << "\"}}";
  return os.str();
}

}  // namespace perfbench
