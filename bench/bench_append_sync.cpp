// Append-and-sync micro-benchmark for the long-lock log (DESIGN.md §8).
//
// Times one frame-sized pwrite plus whatever makes it durable, five ways,
// on a scratch file in --dir (default: the system temp directory):
//
//   append     pwrite past the end of the file, then fdatasync: each sync
//              also commits the file's new size;
//   prezeroed  pwrite over zeros written and synced beforehand, then
//              fdatasync: the sync flushes data only (the log's zero tail);
//   fallocate  pwrite into space reserved by fallocate mode 0 (unwritten
//              extents), then fdatasync;
//   keep_size  fallocate(FALLOC_FL_KEEP_SIZE) beforehand, then append and
//              fdatasync: the blocks are reserved, the size still grows;
//   o_dsync    append through an O_DSYNC descriptor, no fdatasync.
//
// The modes run in interleaved rounds, so drift of the disk hits each one
// alike.  The numbers belong to the filesystem and device under --dir;
// on tmpfs they mean nothing.
//
// Usage: bench_append_sync [--dir D] [--frames N] [--rounds R] [--bytes B]

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

namespace {

enum class Mode { kAppend, kPrezeroed, kFallocate, kKeepSize, kODsync };
constexpr Mode kModes[] = {Mode::kAppend, Mode::kPrezeroed, Mode::kFallocate,
                           Mode::kKeepSize, Mode::kODsync};

const char* Name(Mode m) {
  switch (m) {
    case Mode::kAppend: return "append";
    case Mode::kPrezeroed: return "prezeroed";
    case Mode::kFallocate: return "fallocate";
    case Mode::kKeepSize: return "keep_size";
    case Mode::kODsync: return "o_dsync";
  }
  return "?";
}

[[noreturn]] void Die(const std::string& what) {
  std::perror(what.c_str());
  std::exit(1);
}

/// Microseconds per durable write of \p frames frames of \p bytes bytes,
/// written one after another into a fresh file at \p path.
std::vector<double> RunOnce(Mode mode, const std::string& path, size_t frames,
                            size_t bytes) {
  std::filesystem::remove(path);
  const int fd = ::open(path.c_str(),
                        O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC |
                            (mode == Mode::kODsync ? O_DSYNC : 0),
                        0644);
  if (fd < 0) Die("open " + path);
  const off_t total = static_cast<off_t>(frames * bytes);
  if (mode == Mode::kPrezeroed) {
    static const char kZeros[16 * 1024] = {};
    for (off_t off = 0; off < total; off += sizeof(kZeros)) {
      if (::pwrite(fd, kZeros, sizeof(kZeros), off) < 0) Die("pwrite zeros");
    }
  } else if (mode == Mode::kFallocate || mode == Mode::kKeepSize) {
    if (::fallocate(fd, mode == Mode::kKeepSize ? FALLOC_FL_KEEP_SIZE : 0, 0,
                    total) != 0) {
      Die("fallocate");
    }
  }
  if (::fsync(fd) != 0) Die("fsync");
  const std::string frame(bytes, 'f');
  std::vector<double> us;
  us.reserve(frames);
  for (size_t i = 0; i < frames; ++i) {
    const auto start = std::chrono::steady_clock::now();
    if (::pwrite(fd, frame.data(), bytes, static_cast<off_t>(i * bytes)) !=
        static_cast<ssize_t>(bytes)) {
      Die("pwrite frame");
    }
    if (mode != Mode::kODsync && ::fdatasync(fd) != 0) Die("fdatasync");
    us.push_back(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  ::close(fd);
  std::filesystem::remove(path);
  return us;
}

double Percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return v[std::min(v.size() - 1, static_cast<size_t>(q * v.size()))];
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir = std::filesystem::temp_directory_path().string();
  size_t frames = 2000;
  size_t rounds = 4;
  size_t bytes = 190;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 < argc && arg == "--dir") {
      dir = argv[++i];
    } else if (i + 1 < argc && arg == "--frames") {
      frames = std::max<size_t>(1, std::stoull(argv[++i]));
    } else if (i + 1 < argc && arg == "--rounds") {
      rounds = std::max<size_t>(1, std::stoull(argv[++i]));
    } else if (i + 1 < argc && arg == "--bytes") {
      bytes = std::max<size_t>(1, std::stoull(argv[++i]));
    } else {
      std::cerr << "usage: bench_append_sync [--dir D] [--frames N] "
                   "[--rounds R] [--bytes B]\n";
      return 2;
    }
  }
  const std::string path = dir + "/bench_append_sync.bin";
  std::vector<std::vector<double>> all(std::size(kModes));
  std::vector<std::vector<double>> round_p50(std::size(kModes));
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t m = 0; m < std::size(kModes); ++m) {
      std::vector<double> us = RunOnce(kModes[m], path, frames, bytes);
      round_p50[m].push_back(Percentile(us, 0.5));
      all[m].insert(all[m].end(), us.begin(), us.end());
    }
  }
  std::printf("%zu-byte frames, %zu per round, %zu rounds, in %s\n", bytes,
              frames, rounds, dir.c_str());
  std::printf("%-10s %9s %9s %9s   %s\n", "mode", "p50_us", "p90_us",
              "p99_us", "p50 per round (min-max)");
  for (size_t m = 0; m < std::size(kModes); ++m) {
    const auto [lo, hi] =
        std::minmax_element(round_p50[m].begin(), round_p50[m].end());
    std::printf("%-10s %9.1f %9.1f %9.1f   %.1f-%.1f\n", Name(kModes[m]),
                Percentile(all[m], 0.5), Percentile(all[m], 0.9),
                Percentile(all[m], 0.99), *lo, *hi);
  }
  return 0;
}
