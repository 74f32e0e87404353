#include "probes.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <string>
#include <cstdint>
#include <thread>
#include <vector>

#include "stats.h"

namespace perfbench {

double peak_rss_mib() {
  // VmHWM, not getrusage's ru_maxrss: Linux keeps ru_maxrss across execve,
  // so a process started by a larger parent (fork + exec from Python)
  // would report the parent's footprint.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

namespace {

// 10-15 ms on a 2.1 GHz x86 vCPU. The result feeds a volatile sink so
// the loop cannot be folded away.
double burn_once() {
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  double acc = 0.0;
  for (int i = 0; i < 6'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += static_cast<double>(x & 0xFFFF) * 1e-9;
  }
  return acc;
}

volatile double g_sink = 0.0;

}  // namespace

double burn_ms(std::size_t threads, std::size_t reps) {
  std::vector<double> samples;
  for (std::size_t r = 0; r < reps; ++r) {
    std::vector<double> per_thread(threads, 0.0);
    std::vector<double> results(threads, 0.0);
    const auto run = [&](std::size_t t) {
      const auto t0 = std::chrono::steady_clock::now();
      results[t] = burn_once();
      per_thread[t] = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    };
    std::vector<std::thread> pool;
    for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(run, t);
    run(0);
    for (std::thread& th : pool) th.join();
    double slowest = 0.0;
    for (std::size_t t = 0; t < threads; ++t) {
      slowest = std::max(slowest, per_thread[t]);
      g_sink = g_sink + results[t];
    }
    samples.push_back(slowest);
  }
  return median(samples);
}

BurnReading burn_probe() { return {burn_ms(1), burn_ms(4)}; }

void warm_up(std::size_t threads, double seconds) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(seconds);
  const auto spin = [until] {
    while (std::chrono::steady_clock::now() < until) {
      g_sink = g_sink + burn_once();
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(spin);
  spin();
  for (std::thread& th : pool) th.join();
}

}  // namespace perfbench
