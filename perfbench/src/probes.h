// Process and host probes: peak RSS, CPU time, and the CPU-burn noise
// calibration taken at the start and end of every run.
#pragma once

#include <cstddef>

namespace perfbench {

/// Peak resident set size of this process image (VmHWM), MiB.
double peak_rss_mib();

/// User + system CPU time consumed by this process so far, seconds.
double process_cpu_s();

/// A fixed CPU burn (integer and floating-point work, no memory traffic)
/// timed on `threads` concurrent threads; returns the slowest thread's wall
/// time in milliseconds, median of `reps` repetitions. On an idle host the
/// 4-thread figure matches the 1-thread one; contention from other tenants
/// inflates it.
double burn_ms(std::size_t threads, std::size_t reps = 3);

struct BurnReading {
  double one_thread_ms = 0.0;
  double four_threads_ms = 0.0;
};

BurnReading burn_probe();

/// Keeps `threads` threads busy for `seconds`. Run before anything is
/// timed: on a virtual machine whose vCPUs were idle, the first second or
/// so of work runs markedly slower.
void warm_up(std::size_t threads, double seconds);

}  // namespace perfbench
