// perfbench: runs one benchmark workload and prints its result.
//
//   perfbench --workload feed|replay --seed N --seconds S --trace 0|1
//             --work-dir DIR [--trace-dir DIR]
//
// The last stdout line is the result object run.py checks; the line
// before it is the run's environment record (steal jiffies, CPU seconds,
// nproc). Exit status is 0 whenever a result was printed.
#include <malloc.h>

#include <charconv>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common/log.h"
#include "workloads.h"

namespace {

bool parse_u64(const char* text, std::uint64_t* out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc{} && ptr == end;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload feed|replay --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--trace-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed" && parse_u64(value, &number)) {
      options.seed = number;
    } else if (flag == "--seconds" && parse_u64(value, &number) &&
               number >= 1 && number <= 600) {
      options.seconds = static_cast<int>(number);
    } else if (flag == "--trace" && parse_u64(value, &number) &&
               number <= 1) {
      options.trace = number == 1;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || options.work_dir.empty()) return usage();
  if (options.trace_dir.empty()) options.trace_dir = options.work_dir;
  // The program logs retrains and recoveries at info level; the benchmark
  // keeps stdout for its own lines.
  exiot::set_log_level(exiot::LogLevel::kWarn);
  // A fixed mmap threshold keeps glibc from raising it after the first
  // large free, which lets freed hour-sized buffers linger in the heap and
  // makes peak RSS depend on allocation order rather than on live memory.
  ::mallopt(M_MMAP_THRESHOLD, 1 << 20);

  const std::uint64_t steal_before = perfbench::steal_jiffies_now();
  perfbench::RunResult result;
  try {
    if (options.workload == "feed") {
      result = perfbench::run_feed(options);
    } else if (options.workload == "replay") {
      result = perfbench::run_replay(options);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  perfbench::EnvRecord env;
  env.steal_jiffies = perfbench::steal_jiffies_now() - steal_before;
  env.cpu_s = perfbench::process_cpu_seconds();
  env.nproc = std::thread::hardware_concurrency();
  std::printf("%s\n%s\n", perfbench::env_json(env).c_str(),
              perfbench::result_json(result).c_str());
  std::fflush(stdout);
  return 0;
}
